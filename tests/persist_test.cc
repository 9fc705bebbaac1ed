/**
 * @file
 * Tests for the persistency-model matrix (core/persist.h): model
 * selection and labels, the PersistStrategy store protocol, durable
 * commit verdicts, and the persistRecover() driver shared by all five
 * models — including crashes that strike recovery itself.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/runtime.h"

namespace gpulp {
namespace {

const PersistModel kAllModels[] = {
    PersistModel::Lazy,        PersistModel::Eager,
    PersistModel::Strict,      PersistModel::EpochBlock,
    PersistModel::EpochKernel,
};

/** The models whose verdict is a durable per-block commit flag. */
const PersistModel kCommitFlagModels[] = {
    PersistModel::Eager,
    PersistModel::Strict,
    PersistModel::EpochBlock,
    PersistModel::EpochKernel,
};

TEST(PersistModelConfigTest, NamesRoundTrip)
{
    for (PersistModel m : kAllModels)
        EXPECT_EQ(persistModelFromString(toString(m)), m);
}

TEST(PersistModelConfigTest, EnvSelectsModel)
{
    ::setenv("GPULP_PERSIST", "epoch-block", 1);
    LpConfig cfg = applyConfigEnv(LpConfig::scalable());
    ::unsetenv("GPULP_PERSIST");
    EXPECT_EQ(cfg.persist, PersistModel::EpochBlock);
}

TEST(PersistModelConfigTest, LabelCarriesNonLazyModel)
{
    LpConfig cfg = LpConfig::scalable();
    EXPECT_EQ(configLabel(cfg).find("lazy"), std::string::npos)
        << "the default model stays implicit in labels";
    cfg.persist = PersistModel::Strict;
    EXPECT_NE(configLabel(cfg).find("strict"), std::string::npos);
}

TEST(PersistRuntimeTest, LazyModelWrapsLpRuntime)
{
    Device dev;
    LaunchConfig cfg(Dim3(2), Dim3(4));
    PersistRuntime pr(dev, LpConfig::scalable(), cfg);
    EXPECT_EQ(pr.model(), PersistModel::Lazy);
    ASSERT_NE(pr.strategy(), nullptr);
    EXPECT_EQ(pr.strategy()->model(), PersistModel::Lazy);
    EXPECT_NE(dynamic_cast<LpRuntime *>(pr.strategy()), nullptr);
    EXPECT_EQ(pr.context().strategy, pr.strategy());
    EXPECT_GT(pr.footprintBytes(), 0u);
}

TEST(PersistRuntimeTest, NonLazyModelsExposeAStrategy)
{
    for (PersistModel m : kCommitFlagModels) {
        Device dev;
        LaunchConfig cfg(Dim3(2), Dim3(4));
        LpConfig lpc = LpConfig::scalable();
        lpc.persist = m;
        PersistRuntime pr(dev, lpc, cfg, /*undo_entries_per_thread=*/2);
        EXPECT_EQ(pr.model(), m);
        ASSERT_NE(pr.strategy(), nullptr) << toString(m);
        EXPECT_EQ(pr.strategy()->model(), m);
        EXPECT_EQ(dynamic_cast<LpRuntime *>(pr.strategy()), nullptr)
            << toString(m);
        EXPECT_EQ(pr.context().strategy, pr.strategy());
        EXPECT_GT(pr.footprintBytes(), 0u);
    }
}

/** One protected store per thread, then the region commit. */
KernelFn
storeKernel(const LpContext *lp, ArrayRef<uint32_t> out)
{
    return [lp, out](ThreadCtx &t) {
        PersistAccum acc = makePersistAccum(lp);
        uint64_t i = t.globalThreadIdx();
        persistStoreU32(t, lp, acc, out,  i,
                        static_cast<uint32_t>(1000 + i));
        persistRegionEnd(t, lp, acc);
    };
}

/** Lazy's validation kernel for storeKernel (the other models never
 *  launch it): refold each thread's stored word. */
ValidateFn
storeValidation(const LpContext *lp, ArrayRef<uint32_t> out)
{
    return [lp, out](ThreadCtx &t, RecoverySet &failed) {
        ChecksumAccum acc = lp->makeAccum();
        acc.protectU32(t, t.load(out, t.globalThreadIdx()));
        bool ok = lpValidateRegion(t, *lp, acc);
        if (t.flatThreadIdx() == 0 && !ok)
            failed.markFailed(t, t.blockRank());
    };
}

/** Per-block verdict of @p strategy's classify() on the current image:
 *  true = the block would be re-executed after a reboot. */
std::vector<bool>
flaggedBlocks(Device &dev, const LaunchConfig &cfg,
              PersistStrategy &strategy, const ValidateFn &validate = {})
{
    RecoverySet failed(dev, cfg.numBlocks());
    LaunchResult r = strategy.classify(dev, cfg, validate, failed);
    EXPECT_FALSE(r.crashed);
    std::vector<bool> flagged(cfg.numBlocks());
    for (uint64_t b = 0; b < cfg.numBlocks(); ++b)
        flagged[b] = failed.isFailedHost(b);
    return flagged;
}

TEST(PersistStrategyTest, CommittedRegionsSurviveACrash)
{
    for (PersistModel m : kCommitFlagModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(2), Dim3(4));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 8);
        LpConfig lpc = LpConfig::scalable();
        lpc.persist = m;
        PersistRuntime pr(dev, lpc, cfg, 2);
        LpContext ctx = pr.context();
        nvm.persistAll();

        dev.launch(cfg, storeKernel(&ctx, out));
        nvm.crash(); // power failure right after the kernel
        for (uint64_t i = 0; i < 8; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
        EXPECT_EQ(flaggedBlocks(dev, cfg, *pr.strategy()),
                  std::vector<bool>(2, false))
            << toString(m);
    }
}

TEST(PersistStrategyTest, SkippedRegionEndLeavesBlockUncommitted)
{
    for (PersistModel m : kCommitFlagModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(2), Dim3(2));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 4);
        LpConfig lpc = LpConfig::scalable();
        lpc.persist = m;
        PersistRuntime pr(dev, lpc, cfg, 2);
        LpContext ctx = pr.context();
        nvm.persistAll();

        // Block 0 commits, block 1 "crashes" before its region end.
        dev.launch(cfg, [&](ThreadCtx &t) {
            PersistAccum acc = makePersistAccum(&ctx);
            uint64_t i = t.globalThreadIdx();
            persistStoreU32(t, &ctx, acc, out, i,
                            static_cast<uint32_t>(i + 1));
            if (t.blockRank() == 0)
                persistRegionEnd(t, &ctx, acc);
        });
        nvm.crash();
        EXPECT_EQ(flaggedBlocks(dev, cfg, *pr.strategy()),
                  (std::vector<bool>{false, true}))
            << toString(m);
    }
}

TEST(PersistRecoverTest, RecoversACrashMidKernel)
{
    for (PersistModel m : kAllModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(4), Dim3(8));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 32);
        for (uint64_t i = 0; i < 32; ++i)
            out.hostAt(i) = 7; // pre-state the eager log must capture
        LpConfig lpc = LpConfig::scalable();
        lpc.persist = m;
        PersistRuntime pr(dev, lpc, cfg, 2);
        LpContext ctx = pr.context();
        KernelFn kernel = storeKernel(&ctx, out);
        ValidateFn validate = storeValidation(&ctx, out);
        nvm.persistAll();

        nvm.crashAfterStores(20); // mid-grid power failure
        dev.launch(cfg, kernel);
        RecoveryReport rep =
            persistRecover(dev, cfg, *pr.strategy(), validate, kernel);
        EXPECT_TRUE(rep.converged) << toString(m);
        EXPECT_GT(rep.blocks_failed, 0u) << toString(m);
        // Only lazy classifies with a kernel; the flags are host reads.
        if (m == PersistModel::Lazy)
            EXPECT_GT(rep.validate_cycles, 0u);
        else
            EXPECT_EQ(rep.validate_cycles, 0u) << toString(m);

        nvm.crash(); // the recovered state must itself be durable
        for (uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
        EXPECT_EQ(flaggedBlocks(dev, cfg, *pr.strategy(), validate),
                  std::vector<bool>(4, false))
            << toString(m);
    }
}

TEST(PersistRecoverTest, AbsorbsACrashDuringRecovery)
{
    for (PersistModel m : kAllModels) {
        Device dev;
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        LaunchConfig cfg(Dim3(4), Dim3(8));
        auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 32);
        LpConfig lpc = LpConfig::scalable();
        lpc.persist = m;
        PersistRuntime pr(dev, lpc, cfg, 2);
        LpContext ctx = pr.context();
        KernelFn kernel = storeKernel(&ctx, out);
        nvm.persistAll();

        nvm.crashAfterStores(20);
        dev.launch(cfg, kernel);
        nvm.crash();
        // A second power failure strikes while recovery runs. The
        // driver must absorb it, rewind to its last checkpoint and
        // still converge.
        nvm.crashAfterStores(6);
        RecoveryReport rep = persistRecover(dev, cfg, *pr.strategy(),
                                            storeValidation(&ctx, out),
                                            kernel);
        EXPECT_TRUE(rep.converged) << toString(m);
        EXPECT_GT(rep.blocks_failed, 0u) << toString(m);
        EXPECT_GE(rep.crashes_survived, 1u) << toString(m);
        EXPECT_GT(rep.rounds, rep.crashes_survived) << toString(m);
        for (uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
        // Durable, too: the driver's final persistAll() checkpointed it.
        nvm.crash();
        for (uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(out.hostAt(i), 1000 + i) << toString(m);
    }
}

TEST(PersistRecoverTest, EagerRollsBackBeforeReexecuting)
{
    // The undo log must restore the pre-region image before failed
    // blocks re-run; a non-idempotent observer would otherwise see the
    // crash's partial stores. Verify by crashing so that some stores
    // of an uncommitted block persisted, then checking that recovery
    // still converges to the clean result.
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    LaunchConfig cfg(Dim3(2), Dim3(4));
    auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 8);
    for (uint64_t i = 0; i < 8; ++i)
        out.hostAt(i) = 40 + static_cast<uint32_t>(i);
    LpConfig lpc = LpConfig::scalable();
    lpc.persist = PersistModel::Eager;
    PersistRuntime pr(dev, lpc, cfg, 2);
    LpContext ctx = pr.context();
    KernelFn kernel = storeKernel(&ctx, out);
    nvm.persistAll();

    // Eager flushes every store, so a mid-kernel cut leaves a prefix
    // of new values durable in an uncommitted region.
    nvm.crashAfterStores(10);
    dev.launch(cfg, kernel);
    nvm.crash();

    uint64_t rolled = pr.strategy()->rollback();
    EXPECT_GT(rolled, 0u);
    // Rolled-back slots are back to the pre-region image.
    for (uint64_t i = 0; i < 8; ++i) {
        uint32_t v = out.hostAt(i);
        EXPECT_TRUE(v == 40 + i || v == 1000 + i)
            << "slot " << i << " holds " << v
            << ", neither pre-region nor committed value";
    }

    RecoveryReport rep =
        persistRecover(dev, cfg, *pr.strategy(), {}, kernel);
    EXPECT_TRUE(rep.converged);
    nvm.crash();
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(out.hostAt(i), 1000 + i);
}

} // namespace
} // namespace gpulp
