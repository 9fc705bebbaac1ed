/**
 * @file
 * MEGA-KV tests: functional insert/search/erase semantics, update in
 * place, bucket-overflow behaviour, LP validation of table mutations,
 * and crash recovery of an insert batch.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/checksum_store.h" // mixHash: probe keys into one bucket
#include "workloads/megakv.h"

namespace gpulp {
namespace {

constexpr uint32_t kBatch = 1024;

std::vector<std::pair<uint32_t, uint32_t>>
makePairs(uint32_t n, uint32_t seed = 1)
{
    std::vector<std::pair<uint32_t, uint32_t>> kv;
    kv.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        kv.emplace_back(seed + i * 2654435761u, 5000 + i);
    return kv;
}

TEST(MegaKvTest, InsertThenHostLookupFindsEveryKey)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        ASSERT_TRUE(kv.hostLookup(key, &got)) << "key " << key;
        EXPECT_EQ(got, value);
    }
}

TEST(MegaKvTest, SearchKernelReturnsValuesAndZeroForMisses)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    // Search for every other key; replace the rest with absent keys.
    std::vector<uint32_t> keys(kBatch);
    for (uint32_t i = 0; i < kBatch; ++i)
        keys[i] = (i % 2 == 0) ? pairs[i].first : 0xBAD0000u + i;
    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.searchKernel(t, nullptr); });
    for (uint32_t i = 0; i < kBatch; ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(kv.resultAt(i), pairs[i].second) << i;
        else
            EXPECT_EQ(kv.resultAt(i), 0u) << i;
    }
}

TEST(MegaKvTest, EraseRemovesKeys)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    std::vector<uint32_t> keys;
    for (const auto &[k, v] : pairs)
        keys.push_back(k);
    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, nullptr); });
    for (const auto &[key, value] : pairs)
        EXPECT_FALSE(kv.hostLookup(key, nullptr)) << key;
}

TEST(MegaKvTest, InsertUpdatesExistingKeyInPlace)
{
    Device dev;
    MegaKv kv(dev, 512, 128);
    auto pairs = makePairs(128);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    // Same keys, new values.
    for (auto &[k, v] : pairs)
        v += 100000;
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        ASSERT_TRUE(kv.hostLookup(key, &got));
        EXPECT_EQ(got, value);
    }
}

TEST(MegaKvTest, ReinsertionIsIdempotent)
{
    // The recovery path re-executes insert blocks; the table must end
    // up identical.
    Device dev;
    MegaKv kv(dev, 512, 128);
    auto pairs = makePairs(128);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        ASSERT_TRUE(kv.hostLookup(key, &got));
        EXPECT_EQ(got, value);
    }
}

TEST(MegaKvTest, LpInsertCommitsAndValidates)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    kv.stageInserts(makePairs(kBatch));
    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, &ctx); });

    RecoverySet failed(dev, kv.launchConfig().numBlocks());
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateInserts(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u);
}

TEST(MegaKvTest, ValidationCatchesLostTableSlot)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, &ctx); });

    // Simulate a lost slot: erase one inserted key behind LP's back
    // (an un-checksummed mutation, like a dropped dirty line).
    uint32_t victim_key = pairs[300].first;
    ASSERT_TRUE(kv.hostLookup(victim_key, nullptr));
    kv.stageKeys(std::vector<uint32_t>(kBatch, victim_key));
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, nullptr); });

    kv.stageInserts(pairs); // restore op arrays for validation
    RecoverySet failed(dev, kv.launchConfig().numBlocks());
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateInserts(t, ctx, failed);
    });
    // Block 300/128 = 2 lost its key.
    EXPECT_GT(failed.failedCount(), 0u);
    EXPECT_TRUE(failed.isFailedHost(300 / MegaKv::kThreads));
}

TEST(MegaKvTest, LpEraseValidates)
{
    Device dev;
    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    std::vector<uint32_t> keys;
    for (const auto &[k, v] : pairs)
        keys.push_back(k);
    kv.stageKeys(keys);
    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, &ctx); });

    RecoverySet failed(dev, kv.launchConfig().numBlocks());
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateErases(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u);

    // Resurrect the keys behind validation's back: the committed
    // erase checksums no longer match, so every block must fail.
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    kv.stageKeys(keys);
    failed.clearAll();
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateErases(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), kv.launchConfig().numBlocks());
}

TEST(MegaKvTest, CrashRecoveryMakesInsertBatchDurable)
{
    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 64 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    MegaKv kv(dev, 1024, kBatch);
    auto pairs = makePairs(kBatch);
    kv.stageInserts(pairs);
    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();

    nvm.persistAll();
    nvm.crashAfterStores(400);
    LaunchResult r = dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.insertKernel(t, &ctx);
    });
    EXPECT_TRUE(r.crashed);
    nvm.crash();

    persistRecover(
        dev, kv.launchConfig(), *ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            kv.validateInserts(t, ctx, failed);
        },
        [&](ThreadCtx &t) { kv.insertKernel(t, &ctx); });

    nvm.crash(); // recovery persisted everything
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        ASSERT_TRUE(kv.hostLookup(key, &got)) << key;
        EXPECT_EQ(got, value);
    }
}

TEST(MegaKvTest, TableBytesAccountsKeysAndValues)
{
    Device dev;
    MegaKv kv(dev, 256, 128);
    EXPECT_EQ(kv.tableBytes(), 2ull * 256 * MegaKv::kWays * 4);
}

// ---------------------------------------------------------------------
// Per-op status reporting and drop-honest LP checksums
// ---------------------------------------------------------------------

TEST(MegaKvTest, FullBucketDropIsAppMissNotPersistencyFailure)
{
    // Regression for the silent-drop misclassification: one bucket,
    // 128 distinct keys — exactly kWays land, the rest are dropped.
    // Before the post-state checksum fix, every dropped insert folded
    // its operand value, so validation flagged the block as a
    // persistency failure; now a drop folds the 0 validation will
    // recompute and must pass cleanly while the status array reports
    // the app-level misses.
    Device dev;
    MegaKv kv(dev, /*buckets=*/1, /*batch_ops=*/128);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (uint32_t i = 0; i < 128; ++i)
        pairs.emplace_back(i + 1, 5000 + i);
    kv.stageInserts(pairs);

    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, &ctx); });

    uint32_t stored = 0, dropped = 0;
    for (uint32_t i = 0; i < 128; ++i) {
        const uint32_t status = kv.statusAt(i);
        if (status == kKvMiss)
            ++dropped;
        else
            ++stored;
        // A drop leaves the key absent; a store leaves it present.
        EXPECT_EQ(kv.hostLookup(pairs[i].first, nullptr),
                  status != kKvMiss)
            << i;
    }
    EXPECT_EQ(stored, MegaKv::kWays);
    EXPECT_EQ(dropped, 128 - MegaKv::kWays);

    RecoverySet failed(dev, kv.launchConfig().numBlocks());
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateInserts(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "full-bucket drops misclassified as persistency failures";
}

TEST(MegaKvTest, SearchStatusDistinguishesStoredZeroFromAbsent)
{
    // A stored value of 0 and "key absent" both return result 0; only
    // the status bit tells a true miss from a zero hit.
    Device dev;
    MegaKv kv(dev, 1024, 128);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (uint32_t i = 0; i < 128; ++i)
        pairs.emplace_back(i + 1, 0u); // every stored value is 0
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });

    std::vector<uint32_t> keys(128);
    for (uint32_t i = 0; i < 128; ++i)
        keys[i] = (i % 2 == 0) ? pairs[i].first : 0xBAD0000u + i;
    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.searchKernel(t, nullptr); });
    for (uint32_t i = 0; i < 128; ++i) {
        EXPECT_EQ(kv.resultAt(i), 0u) << i;
        EXPECT_EQ(kv.statusAt(i),
                  (i % 2 == 0) ? uint32_t{kKvHit} : uint32_t{kKvMiss})
            << i;
    }
}

TEST(MegaKvTest, StatusReportsHitUpdatedAndEraseOutcomes)
{
    Device dev;
    MegaKv kv(dev, 1024, 128);
    auto pairs = makePairs(128);
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    for (uint32_t i = 0; i < 128; ++i)
        EXPECT_EQ(kv.statusAt(i), uint32_t{kKvHit}) << i;

    for (auto &[k, v] : pairs)
        v += 7;
    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    for (uint32_t i = 0; i < 128; ++i)
        EXPECT_EQ(kv.statusAt(i), uint32_t{kKvUpdated}) << i;

    std::vector<uint32_t> keys;
    for (const auto &[k, v] : pairs)
        keys.push_back(k);
    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, nullptr); });
    for (uint32_t i = 0; i < 128; ++i)
        EXPECT_EQ(kv.statusAt(i), uint32_t{kKvHit}) << i;

    kv.stageKeys(keys); // all gone now
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, nullptr); });
    for (uint32_t i = 0; i < 128; ++i)
        EXPECT_EQ(kv.statusAt(i), uint32_t{kKvMiss}) << i;
}

TEST(MegaKvTest, InsertSearchEraseRoundTripUnderLp)
{
    Device dev;
    MegaKv kv(dev, 1024, 128);
    auto pairs = makePairs(128);
    std::vector<uint32_t> keys;
    for (const auto &[k, v] : pairs)
        keys.push_back(k);

    LpRuntime lp_insert(dev, LpConfig::scalable(), kv.launchConfig());
    LpRuntime lp_search(dev, LpConfig::scalable(), kv.launchConfig());
    LpRuntime lp_erase(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext insert_ctx = lp_insert.context();
    LpContext search_ctx = lp_search.context();
    LpContext erase_ctx = lp_erase.context();

    kv.stageInserts(pairs);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.insertKernel(t, &insert_ctx); });
    RecoverySet failed(dev, kv.launchConfig().numBlocks());
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateInserts(t, insert_ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u);

    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.searchKernel(t, &search_ctx); });
    for (uint32_t i = 0; i < 128; ++i) {
        EXPECT_EQ(kv.statusAt(i), uint32_t{kKvHit}) << i;
        EXPECT_EQ(kv.resultAt(i), pairs[i].second) << i;
    }

    kv.stageKeys(keys);
    dev.launch(kv.launchConfig(),
               [&](ThreadCtx &t) { kv.eraseKernel(t, &erase_ctx); });
    failed.clearAll();
    dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.validateErases(t, erase_ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u);
    for (uint32_t key : keys)
        EXPECT_FALSE(kv.hostLookup(key, nullptr)) << key;
}

TEST(MegaKvTest, EraseFreedSlotDoesNotDuplicateLaterWayKey)
{
    // Regression for the double-slot bug the serving audit exposed:
    // with the key sitting in a later way and an erase-freed slot in
    // an earlier one, a re-insert must update in place, not claim the
    // empty way — otherwise the key occupies two slots and survives a
    // single erase as a phantom.
    constexpr uint32_t kBuckets = 64;
    Device dev;
    MegaKv kv(dev, kBuckets, 128);

    // Nine keys that share one bucket, found by probing the same hash
    // the table uses.
    std::vector<uint32_t> shared;
    uint32_t target = ~0u;
    for (uint32_t k = 1; shared.size() < 9; ++k) {
        const uint32_t b = mixHash(k, 0x6b76u) % kBuckets;
        if (target == ~0u)
            target = b;
        if (b == target)
            shared.push_back(k);
    }
    // Pad keys from other buckets, fresh every call.
    uint32_t pad_cursor = 1u << 20;
    auto pads = [&](uint32_t n) {
        std::vector<uint32_t> out;
        while (out.size() < n) {
            const uint32_t k = pad_cursor++;
            if (mixHash(k, 0x6b76u) % kBuckets != target)
                out.push_back(k);
        }
        return out;
    };
    auto insertOne = [&](uint32_t key, uint32_t value) {
        std::vector<std::pair<uint32_t, uint32_t>> batch;
        batch.emplace_back(key, value);
        for (uint32_t pad : pads(127))
            batch.emplace_back(pad, 1u);
        kv.stageInserts(batch);
        dev.launch(kv.launchConfig(),
                   [&](ThreadCtx &t) { kv.insertKernel(t, nullptr); });
    };
    auto eraseOne = [&](uint32_t key) {
        std::vector<uint32_t> batch{key};
        for (uint32_t pad : pads(127))
            batch.push_back(pad + (1u << 27)); // absent keys
        kv.stageKeys(batch);
        dev.launch(kv.launchConfig(),
                   [&](ThreadCtx &t) { kv.eraseKernel(t, nullptr); });
    };

    // Fill the bucket's ways 0..7 in insertion order.
    for (uint32_t w = 0; w < MegaKv::kWays; ++w)
        insertOne(shared[w], 100 + w);
    EXPECT_FALSE(kv.hostLookup(shared[8], nullptr)); // bucket is full

    eraseOne(shared[0]);          // way 0 is now empty
    insertOne(shared[3], 999);    // must update way 3, not claim way 0
    uint32_t got = 0;
    ASSERT_TRUE(kv.hostLookup(shared[3], &got));
    EXPECT_EQ(got, 999u);
    eraseOne(shared[3]);          // one erase must fully remove the key
    EXPECT_FALSE(kv.hostLookup(shared[3], nullptr))
        << "key duplicated across ways: erase left a phantom copy";
}

} // namespace
} // namespace gpulp
