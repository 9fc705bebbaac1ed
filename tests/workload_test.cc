/**
 * @file
 * Workload-suite tests: functional correctness of every benchmark
 * kernel against its host reference, LP checksum commitment and
 * validation, per-benchmark crash recovery, and the paper-metadata
 * invariants (Table III block counts).
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/driver.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

constexpr double kTestScale = 0.015;

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    static DeviceParams
    params()
    {
        DeviceParams p;
        p.arena_bytes = 128ull * 1024 * 1024;
        return p;
    }
};

TEST_P(EveryWorkload, BaselineMatchesHostReference)
{
    Device dev(params());
    auto w = makeWorkload(GetParam(), kTestScale);
    w->setup(dev);
    runBaseline(dev, *w);
    std::string why;
    EXPECT_TRUE(w->verify(&why)) << why;
}

TEST_P(EveryWorkload, LpRunMatchesHostReferenceAndCommitsAllBlocks)
{
    Device dev(params());
    auto w = makeWorkload(GetParam(), kTestScale);
    w->setup(dev);
    LpRuntime lp(dev, LpConfig::scalable(), w->launchConfig());
    runWithLp(dev, *w, lp);

    std::string why;
    EXPECT_TRUE(w->verify(&why)) << why;

    // Every block must have committed a checksum.
    for (uint64_t b = 0; b < w->launchConfig().numBlocks(); ++b) {
        Checksums cs;
        EXPECT_TRUE(lp.store().lookup(static_cast<uint32_t>(b), &cs))
            << "block " << b << " missing its checksum";
    }
    EXPECT_EQ(lp.store().stats().inserts, w->launchConfig().numBlocks());
}

TEST_P(EveryWorkload, LpRunWorksWithHashedTablesToo)
{
    Device dev(params());
    auto w = makeWorkload(GetParam(), kTestScale);
    w->setup(dev);
    for (TableKind table : {TableKind::QuadProbe, TableKind::Cuckoo}) {
        LpConfig cfg = LpConfig::naive(table);
        cfg.load_factor = table == TableKind::QuadProbe
                              ? w->quadLoadFactor()
                              : w->cuckooLoadFactor();
        LpRuntime lp(dev, cfg, w->launchConfig());
        runWithLp(dev, *w, lp);
        std::string why;
        EXPECT_TRUE(w->verify(&why)) << toString(table) << ": " << why;
        Checksums cs;
        EXPECT_TRUE(lp.store().lookup(0, &cs)) << toString(table);
    }
}

TEST_P(EveryWorkload, ValidationPassesOnIntactDataOnly)
{
    Device dev(params());
    auto w = makeWorkload(GetParam(), kTestScale);
    w->setup(dev);
    LpRuntime lp(dev, LpConfig::scalable(), w->launchConfig());
    LpContext ctx = lp.context();
    runWithLp(dev, *w, lp);

    RecoverySet failed(dev, w->launchConfig().numBlocks());
    dev.launch(w->launchConfig(), [&](ThreadCtx &t) {
        w->validation(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "intact data must validate clean";

    // Corrupt one committed checksum: exactly that block must fail.
    uint64_t victim = w->launchConfig().numBlocks() / 2;
    Checksums cs;
    ASSERT_TRUE(lp.store().lookup(static_cast<uint32_t>(victim), &cs));
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        lp.store().insert(t, static_cast<uint32_t>(victim),
                          Checksums{cs.sum ^ 0xdead, cs.parity});
    });
    failed.clearAll();
    dev.launch(w->launchConfig(), [&](ThreadCtx &t) {
        w->validation(t, ctx, failed);
    });
    EXPECT_EQ(failed.failedCount(), 1u);
    EXPECT_TRUE(failed.isFailedHost(victim));
}

TEST_P(EveryWorkload, CrashRecoveryRestoresExactResult)
{
    Device dev(params());
    NvmParams nvm_params;
    nvm_params.cache_bytes = 128 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    auto w = makeWorkload(GetParam(), kTestScale);
    w->setup(dev);
    LpRuntime lp(dev, LpConfig::scalable(), w->launchConfig());
    LpContext ctx = lp.context();

    nvm.persistAll();
    nvm.crashAfterStores(150);
    LaunchResult r = dev.launch(w->launchConfig(), [&](ThreadCtx &t) {
        w->kernel(t, &ctx);
    });
    EXPECT_TRUE(r.crashed);
    nvm.crash();

    RecoveryReport report = persistRecover(
        dev, w->launchConfig(), *ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            w->validation(t, ctx, failed);
        },
        [&](ThreadCtx &t) { w->kernel(t, &ctx); });
    EXPECT_GT(report.blocks_failed, 0u);

    std::string why;
    EXPECT_TRUE(w->verify(&why)) << why;

    // And the recovered result is durable.
    nvm.crash();
    EXPECT_TRUE(w->verify(&why)) << "persisted image: " << why;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkload,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(WorkloadMetaTest, PaperScaleBlockCountsMatchTableIII)
{
    // Table III, last column — the block counts behind every
    // scalability result. launchConfig() needs no setup, so this is
    // cheap even at scale 1.
    const uint64_t expected[] = {16384, 512,   65536, 1536,
                                 128640, 42,   128,   1024};
    const auto &names = workloadNames();
    for (size_t i = 0; i < names.size(); ++i) {
        auto w = makeWorkload(names[i], 1.0);
        EXPECT_EQ(w->launchConfig().numBlocks(), expected[i])
            << names[i];
    }
}

TEST(WorkloadMetaTest, BottlenecksMatchTableI)
{
    EXPECT_STREQ(makeWorkload("spmv", 0.01)->bottleneck(), "Bandwidth");
    EXPECT_STREQ(makeWorkload("sad", 0.01)->bottleneck(), "Bandwidth");
    EXPECT_STREQ(makeWorkload("histo", 0.05)->bottleneck(), "Bandwidth");
    EXPECT_STREQ(makeWorkload("tmm", 0.01)->bottleneck(),
                 "Inst throughput");
    EXPECT_STREQ(makeWorkload("tpacf", 0.01)->bottleneck(),
                 "Inst throughput");
    EXPECT_STREQ(makeWorkload("cutcp", 0.05)->bottleneck(),
                 "Inst throughput");
    EXPECT_STREQ(makeWorkload("mri-q", 0.01)->bottleneck(),
                 "Inst throughput");
    EXPECT_STREQ(makeWorkload("mri-gridding", 0.01)->bottleneck(),
                 "Inst throughput");
}

TEST(WorkloadMetaTest, UnknownWorkloadNameDies)
{
    EXPECT_EXIT(makeWorkload("nonesuch", 1.0),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(HarnessTest, OverheadOfComputesFractions)
{
    EXPECT_DOUBLE_EQ(overheadOf(1000, 1081), 0.081);
    EXPECT_DOUBLE_EQ(overheadOf(1000, 1000), 0.0);
    EXPECT_LT(overheadOf(1000, 990), 0.0);
}

TEST(HarnessTest, BenchMeasuresBaselineOnceAndOverheads)
{
    WorkloadBench bench("mri-q", 0.02);
    Cycles base1 = bench.baselineCycles();
    Cycles base2 = bench.baselineCycles();
    EXPECT_EQ(base1, base2);

    MeasuredRun array = bench.measure(LpConfig::scalable());
    EXPECT_EQ(array.baseline_cycles, base1);
    EXPECT_GT(array.lp_cycles, 0u);
    EXPECT_GT(array.overhead, -0.01);
    EXPECT_EQ(array.num_blocks,
              bench.workload().launchConfig().numBlocks());
    // 8 payload bytes + 1 out-of-band valid byte per block slot.
    EXPECT_EQ(array.lp_footprint_bytes, array.num_blocks * 9);
}

TEST(HarnessTest, LockBasedCostsMoreThanLockFree)
{
    WorkloadBench bench("mri-gridding", 0.01);
    LpConfig lockfree = LpConfig::naive(TableKind::QuadProbe);
    LpConfig lockbased = lockfree;
    lockbased.lock = LockMode::LockBased;
    EXPECT_GT(bench.measure(lockbased).lp_cycles,
              bench.measure(lockfree).lp_cycles);
}

TEST(HarnessTest, SequentialReductionCostsMoreThanParallel)
{
    WorkloadBench bench("spmv", 0.02);
    LpConfig shfl = LpConfig::naive(TableKind::QuadProbe);
    LpConfig noshfl = shfl;
    noshfl.reduction = ReductionKind::SequentialGlobal;
    EXPECT_GT(bench.measure(noshfl).lp_cycles,
              bench.measure(shfl).lp_cycles);
}

TEST(HarnessTest, GlobalArrayBeatsHashedTables)
{
    WorkloadBench bench("mri-gridding", 0.01);
    MeasuredRun array = bench.measure(LpConfig::scalable());
    MeasuredRun quad = bench.measure(LpConfig::naive(TableKind::QuadProbe));
    MeasuredRun cuckoo = bench.measure(LpConfig::naive(TableKind::Cuckoo));
    EXPECT_LT(array.lp_cycles, quad.lp_cycles);
    EXPECT_LT(array.lp_cycles, cuckoo.lp_cycles);
    EXPECT_EQ(array.store_stats.collisions, 0u);
}

} // namespace
} // namespace gpulp
