/**
 * @file
 * Fault-injection campaign tests, plus the regression tests for the
 * two recovery-correctness bugs the campaign was built to catch: the
 * in-band global-array "unwritten" sentinel (a legal all-ones checksum
 * was indistinguishable from an empty slot) and the signed-zero parity
 * mismatch (-0.0f and +0.0f folded different checksum bits), and for
 * the GPULP_SCALE parse validation.
 */

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/driver.h"
#include "harness/faultcampaign.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

// ---------------------------------------------------------------------
// Sentinel regression (checksum_store.h kUnwrittenChecksum)
// ---------------------------------------------------------------------

TEST(GlobalArraySentinel, AllOnesChecksumIsALegalPayload)
{
    Device dev;
    GlobalArrayStore store(dev, 8);
    const Checksums worst{kUnwrittenChecksum, kUnwrittenChecksum};
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        store.insert(t, 3, worst);
    });

    Checksums out;
    EXPECT_TRUE(store.lookup(3, &out))
        << "an all-ones checksum must not read back as never-written";
    EXPECT_EQ(out.sum, kUnwrittenChecksum);
    EXPECT_EQ(out.parity, kUnwrittenChecksum);

    // Genuinely unwritten slots still read as absent.
    EXPECT_FALSE(store.lookup(4, &out));
    store.clear();
    EXPECT_FALSE(store.lookup(3, &out));
}

TEST(GlobalArraySentinel, RegionFoldingToAllOnesValidatesClean)
{
    // End-to-end: a region whose recomputed sum AND parity both land
    // on 0xffffffff (one protected 0xffffffff word does it) must
    // validate clean, not be mis-marked as a failed block.
    Device dev;
    LaunchConfig cfg(Dim3(4), Dim3(1));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectU32(t, 0xffffffffu);
        lpCommitRegion(t, ctx, acc);
    });

    RecoverySet failed(dev, cfg.numBlocks());
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectU32(t, 0xffffffffu);
        if (t.flatThreadIdx() == 0 && !lpValidateRegion(t, ctx, acc))
            failed.markFailed(t, t.blockRank());
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "healthy blocks mis-marked failed by the in-band sentinel";
}

TEST(GlobalArraySentinel, FootprintCountsTheValidBytes)
{
    Device dev;
    GlobalArrayStore store(dev, 100);
    EXPECT_EQ(store.footprintBytes(), 100u * 9);
}

// ---------------------------------------------------------------------
// Signed-zero regression (floatbits.h / ChecksumAccum)
// ---------------------------------------------------------------------

TEST(SignedZeroChecksum, BothZerosFoldTheSameBits)
{
    EXPECT_EQ(floatToChecksumBits(-0.0f), floatToChecksumBits(0.0f));
    EXPECT_EQ(doubleToChecksumBits(-0.0), doubleToChecksumBits(0.0));

    // Transport conversions stay raw: the sign bit is still visible...
    EXPECT_EQ(floatToOrderedInt(-0.0f), 0x80000000u);
    EXPECT_EQ(floatSignBit(-0.0f), 1u);
    // ...and the Fig. 2 paper anchor is untouched.
    EXPECT_EQ(floatToOrderedInt(3.5f), 1080033280u);
    EXPECT_EQ(floatToChecksumBits(3.5f), 1080033280u);

    // NaN payloads fold verbatim (distinct NaNs stay distinguishable).
    EXPECT_EQ(floatToChecksumBits(orderedIntToFloat(0x7fc00001u)),
              0x7fc00001u);

    const float pos[] = {0.0f, 1.5f};
    const float neg[] = {-0.0f, 1.5f};
    EXPECT_EQ(hostChecksumFloats(pos, ChecksumKind::ModularParity),
              hostChecksumFloats(neg, ChecksumKind::ModularParity));
}

TEST(SignedZeroChecksum, ValidationAcceptsTheOtherZero)
{
    // The failure mode in the wild: the original run commits -0.0f, a
    // recovery re-execution (or revalidation from memory) legitimately
    // sees +0.0f. The checksums must agree.
    Device dev;
    LaunchConfig cfg(Dim3(2), Dim3(1));
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();
    auto out = ArrayRef<float>::allocate(dev.mem(), cfg.numBlocks());

    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        float v = t.blockRank() == 0 ? -0.0f : 1.5f;
        t.store(out, t.blockRank(), v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    });

    // The numerically identical other zero lands in memory.
    out.hostAt(0) = 0.0f;

    RecoverySet failed(dev, cfg.numBlocks());
    dev.launch(cfg, [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        acc.protectFloat(t, t.load(out, t.blockRank()));
        if (t.flatThreadIdx() == 0 && !lpValidateRegion(t, ctx, acc))
            failed.markFailed(t, t.blockRank());
    });
    EXPECT_EQ(failed.failedCount(), 0u)
        << "-0.0 vs +0.0 must not fail validation";
}

// ---------------------------------------------------------------------
// GPULP_SCALE parse validation
// ---------------------------------------------------------------------

TEST(ScaleParse, AcceptsWellFormedValues)
{
    EXPECT_DOUBLE_EQ(parseScaleOrDie("0.25", "--scale"), 0.25);
    EXPECT_DOUBLE_EQ(parseScaleOrDie("1", "--scale"), 1.0);
    EXPECT_DOUBLE_EQ(parseScaleOrDie("1e-3", "--scale"), 0.001);
}

TEST(ScaleParse, RejectsGarbageTrailingJunkAndNonFinite)
{
    EXPECT_EXIT(parseScaleOrDie("0.5abc", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("pony", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    // atof-based parsing let NaN through: NaN fails both range
    // comparisons, so it sailed past "(<= 0 || > 1)".
    EXPECT_EXIT(parseScaleOrDie("nan", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("inf", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("0", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("-0.5", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
    EXPECT_EXIT(parseScaleOrDie("1.5", "GPULP_SCALE"),
                ::testing::ExitedWithCode(1), "GPULP_SCALE");
}

TEST(ScaleParse, EnvRoundTrip)
{
    ASSERT_EQ(setenv("GPULP_SCALE", "0.125", 1), 0);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 0.125);
    ASSERT_EQ(setenv("GPULP_SCALE", "0.5junk", 1), 0);
    EXPECT_EXIT(benchScaleFromEnv(), ::testing::ExitedWithCode(1),
                "GPULP_SCALE");
    ASSERT_EQ(unsetenv("GPULP_SCALE"), 0);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1.0);
}

// ---------------------------------------------------------------------
// Output-span hooks
// ---------------------------------------------------------------------

TEST(OutputSpans, BlockSpansPartitionTheOutput)
{
    for (const char *name : {"tmm", "spmv", "mri-q", "sad"}) {
        Device dev;
        auto w = makeWorkload(name, 0.004);
        w->setup(dev);
        auto spans = w->outputSpans();
        ASSERT_FALSE(spans.empty()) << name;
        uint64_t total = 0;
        for (const OutputSpan &s : spans)
            total += s.bytes;
        EXPECT_EQ(total, w->outputBytes()) << name;

        // Per-block spans must tile the output exactly: disjoint,
        // inside the declared output, summing to the same byte count.
        std::vector<std::pair<Addr, Addr>> intervals;
        uint64_t block_total = 0;
        for (uint64_t b = 0; b < w->launchConfig().numBlocks(); ++b) {
            for (const OutputSpan &s : w->blockOutputSpans(b)) {
                ASSERT_GT(s.bytes, 0u) << name;
                bool inside = false;
                for (const OutputSpan &o : spans) {
                    inside |= s.addr >= o.addr &&
                              s.addr + s.bytes <= o.addr + o.bytes;
                }
                EXPECT_TRUE(inside) << name << " block " << b;
                intervals.emplace_back(s.addr, s.addr + s.bytes);
                block_total += s.bytes;
            }
        }
        EXPECT_EQ(block_total, w->outputBytes()) << name;
        std::sort(intervals.begin(), intervals.end());
        for (size_t i = 1; i < intervals.size(); ++i) {
            EXPECT_LE(intervals[i - 1].second, intervals[i].first)
                << name << ": blocks share output bytes";
        }
    }
}

// ---------------------------------------------------------------------
// Campaign smoke
// ---------------------------------------------------------------------

TEST(FaultCampaign, SmokeSweepRecoversEverythingOnAllStores)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 7;
    opts.grid_points = 4;
    opts.random_points = 2;
    opts.num_workers = 1;
    opts.workloads = {"spmv"};

    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed());
    // quad, cuckoo, array, bucket2, bucket2opt
    ASSERT_EQ(result.cells.size(), 5u);

    for (const CellResult &cell : result.cells) {
        SCOPED_TRACE(toString(cell.table));
        EXPECT_TRUE(cell.passed());
        EXPECT_EQ(cell.trials.size(), 6u);
        EXPECT_EQ(cell.falsePasses(), 0u);
        uint64_t corrupt = 0, recovered = 0;
        for (const TrialResult &t : cell.trials) {
            EXPECT_TRUE(t.converged);
            EXPECT_TRUE(t.output_matches_golden);
            EXPECT_TRUE(t.verify_ok);
            EXPECT_EQ(t.true_fails + t.false_fails, t.flagged_blocks);
            corrupt += t.corrupt_blocks;
            recovered += t.blocks_recovered;
        }
        // The sweep is pointless unless crashes actually corrupt state
        // that recovery then repairs.
        EXPECT_GT(corrupt, 0u);
        EXPECT_GT(recovered, 0u);
    }
}

TEST(FaultCampaign, DeterministicForAFixedSeed)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 11;
    opts.grid_points = 2;
    opts.random_points = 1;
    opts.num_workers = 1;
    opts.workloads = {"mri-q"};
    opts.tables = {TableKind::GlobalArray};

    CampaignResult a = runFaultCampaign(opts);
    CampaignResult b = runFaultCampaign(opts);
    ASSERT_EQ(a.cells.size(), 1u);
    ASSERT_EQ(b.cells.size(), 1u);
    ASSERT_EQ(a.cells[0].trials.size(), b.cells[0].trials.size());
    for (size_t i = 0; i < a.cells[0].trials.size(); ++i) {
        const TrialResult &ta = a.cells[0].trials[i];
        const TrialResult &tb = b.cells[0].trials[i];
        EXPECT_EQ(ta.crash_point, tb.crash_point);
        EXPECT_EQ(ta.torn_lines, tb.torn_lines);
        EXPECT_EQ(ta.corrupt_blocks, tb.corrupt_blocks);
        EXPECT_EQ(ta.flagged_blocks, tb.flagged_blocks);
        EXPECT_EQ(ta.blocks_recovered, tb.blocks_recovered);
    }
}

/** One pinned trial: what the campaign reports for a crash point. */
struct PinnedTrial {
    uint64_t crash_point, torn_lines, corrupt_blocks, flagged_blocks;
    uint64_t true_fails, false_fails, false_passes, blocks_recovered;
    uint64_t rounds;
    Cycles validate_cycles, recover_cycles;
};

struct PinnedCell {
    PersistModel model;
    std::vector<PinnedTrial> trials;
};

/**
 * One spmv cell per persistency model through the shared recovery
 * driver, pinned trial by trial at 1 worker (results at more workers
 * can differ through the crash latch's host order). Lazy validates
 * with a kernel, so only its validate_cycles are nonzero.
 */
TEST(FaultCampaign, RecoveryPinnedPerModelAtOneWorker)
{
    const std::vector<PinnedCell> expected = {
    {PersistModel::Lazy,
     {
      {57, 1, 6, 6, 6, 0, 0, 6, 2, 178, 2426},
      {114, 2, 5, 5, 5, 0, 0, 5, 2, 178, 2426},
      {134, 3, 5, 5, 5, 0, 0, 5, 2, 178, 2426},
      {171, 2, 4, 4, 4, 0, 0, 4, 2, 178, 2426},
      {228, 1, 3, 3, 3, 0, 0, 3, 2, 178, 2426},
      {285, 1, 2, 2, 2, 0, 0, 2, 2, 178, 2426},
      {312, 2, 2, 2, 2, 0, 0, 2, 2, 178, 2426},
      {326, 1, 2, 2, 2, 0, 0, 2, 2, 178, 2426},
      {342, 4, 2, 2, 2, 0, 0, 2, 2, 178, 2426},
      {372, 2, 1, 1, 1, 0, 0, 1, 2, 178, 2366}}},
    {PersistModel::Eager,
     {
      {220, 0, 6, 6, 6, 0, 0, 6, 2, 0, 4351},
      {352, 0, 5, 5, 5, 0, 0, 5, 2, 0, 4351},
      {369, 0, 5, 5, 5, 0, 0, 5, 2, 0, 4351},
      {440, 0, 5, 5, 5, 0, 0, 5, 2, 0, 4351},
      {660, 1, 4, 4, 4, 0, 0, 4, 2, 0, 4351},
      {782, 0, 3, 3, 3, 0, 0, 3, 2, 0, 4351},
      {880, 1, 3, 3, 3, 0, 0, 3, 2, 0, 4351},
      {1100, 0, 2, 2, 2, 0, 0, 2, 2, 0, 4351},
      {1320, 0, 1, 1, 1, 0, 0, 1, 2, 0, 4291},
      {1420, 0, 1, 1, 1, 0, 0, 1, 2, 0, 4291}}},
    {PersistModel::Strict,
     {
      {33, 0, 6, 6, 6, 0, 0, 6, 2, 0, 3671},
      {55, 0, 6, 6, 6, 0, 0, 6, 2, 0, 3671},
      {107, 0, 5, 5, 5, 0, 0, 5, 2, 0, 3671},
      {110, 0, 5, 5, 5, 0, 0, 5, 2, 0, 3671},
      {166, 0, 4, 4, 4, 0, 0, 4, 2, 0, 3671},
      {221, 0, 3, 3, 3, 0, 0, 3, 2, 0, 3671},
      {253, 0, 3, 3, 3, 0, 0, 3, 2, 0, 3671},
      {277, 0, 2, 2, 2, 0, 0, 2, 2, 0, 3671},
      {332, 0, 1, 1, 1, 0, 0, 1, 2, 0, 3611},
      {352, 0, 1, 1, 1, 0, 0, 1, 2, 0, 3611}}},
    {PersistModel::EpochBlock,
     {
      {55, 0, 6, 6, 6, 0, 0, 6, 2, 0, 3671},
      {95, 0, 5, 5, 5, 0, 0, 5, 2, 0, 3671},
      {110, 0, 5, 5, 5, 0, 0, 5, 2, 0, 3671},
      {166, 0, 4, 4, 4, 0, 0, 4, 2, 0, 3671},
      {221, 0, 3, 3, 3, 0, 0, 3, 2, 0, 3671},
      {277, 0, 2, 2, 2, 0, 0, 2, 2, 0, 3671},
      {280, 0, 2, 2, 2, 0, 0, 2, 2, 0, 3671},
      {307, 0, 2, 2, 2, 0, 0, 2, 2, 0, 3671},
      {332, 0, 1, 1, 1, 0, 0, 1, 2, 0, 3611},
      {371, 0, 1, 1, 1, 0, 0, 1, 2, 0, 3611}}},
    {PersistModel::EpochKernel,
     {
      {22, 0, 6, 6, 6, 0, 0, 6, 2, 0, 2351},
      {55, 0, 6, 6, 6, 0, 0, 6, 2, 0, 2351},
      {110, 0, 5, 5, 5, 0, 0, 5, 2, 0, 2351},
      {166, 0, 4, 4, 4, 0, 0, 4, 2, 0, 2351},
      {205, 0, 3, 3, 3, 0, 0, 3, 2, 0, 2351},
      {209, 0, 3, 3, 3, 0, 0, 3, 2, 0, 2351},
      {221, 0, 3, 3, 3, 0, 0, 3, 2, 0, 2351},
      {277, 0, 2, 2, 2, 0, 0, 2, 2, 0, 2351},
      {332, 0, 1, 1, 1, 0, 0, 1, 2, 0, 2291},
      {360, 0, 1, 1, 1, 0, 0, 1, 2, 0, 2291}}},
    };

    CampaignOptions opts;
    opts.scale = 0.004;
    opts.seed = 2024;
    opts.grid_points = 6;
    opts.random_points = 4;
    opts.num_workers = 1;
    opts.workloads = {"spmv"};
    opts.tables = {TableKind::GlobalArray};
    opts.models = {PersistModel::Lazy, PersistModel::Eager,
                   PersistModel::Strict, PersistModel::EpochBlock,
                   PersistModel::EpochKernel};

    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed());
    ASSERT_EQ(result.cells.size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
        const CellResult &cell = result.cells[c];
        SCOPED_TRACE(toString(cell.model));
        ASSERT_EQ(cell.model, expected[c].model);
        ASSERT_EQ(cell.trials.size(), expected[c].trials.size());
        for (size_t i = 0; i < cell.trials.size(); ++i) {
            const TrialResult &t = cell.trials[i];
            const PinnedTrial &e = expected[c].trials[i];
            SCOPED_TRACE(e.crash_point);
            EXPECT_EQ(t.crash_point, e.crash_point);
            EXPECT_EQ(t.torn_lines, e.torn_lines);
            EXPECT_EQ(t.corrupt_blocks, e.corrupt_blocks);
            EXPECT_EQ(t.flagged_blocks, e.flagged_blocks);
            EXPECT_EQ(t.true_fails, e.true_fails);
            EXPECT_EQ(t.false_fails, e.false_fails);
            EXPECT_EQ(t.false_passes, e.false_passes);
            EXPECT_EQ(t.blocks_recovered, e.blocks_recovered);
            EXPECT_EQ(t.recovery_rounds, e.rounds);
            EXPECT_EQ(t.validate_cycles, e.validate_cycles);
            EXPECT_EQ(t.recover_cycles, e.recover_cycles);
            EXPECT_TRUE(t.converged);
            EXPECT_TRUE(t.output_matches_golden);
            EXPECT_TRUE(t.verify_ok);
        }
    }
}

} // namespace
} // namespace gpulp
