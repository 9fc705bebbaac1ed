/**
 * @file
 * Tests for the schedule-exploration subsystem (src/analysis): the
 * pluggable schedule policies, the happens-before interleaving race
 * analyzer, the DPOR-lite backtracking loop — and the mutation test
 * the whole PR hangs on: a seeded ordering bug that the production
 * deterministic schedule masks completely (output correct, host
 * verification green) but that the explorer catches three independent
 * ways (random permutation violates the checksum, the HB analyzer
 * flags the race even on the benign order, and DPOR-lite derives the
 * bug-exposing schedule from the race without any luck).
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "analysis/explorer.h"
#include "analysis/policies.h"
#include "analysis/race.h"
#include "core/lp_config.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "harness/faultcampaign.h"
#include "nvm/nvm_cache.h"
#include "sim/exec.h"
#include "sim/device.h"
#include "workloads/workload.h"

namespace gpulp {
namespace {

/** FNV-1a over a byte range, used to fingerprint device memory. */
uint64_t
fnv1a(const char *data, size_t len)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// The mutation kernel
// ---------------------------------------------------------------------

constexpr uint32_t kPubThreads = 64;

uint32_t
pubValue(uint32_t tid)
{
    return tid * 2654435761u + 17u;
}

uint32_t
pubExpected()
{
    uint32_t sum = 0;
    for (uint32_t t = 0; t < kPubThreads; ++t)
        sum += pubValue(t);
    return sum;
}

/**
 * Store-then-publish: every thread writes its slot, thread 63 sums all
 * slots into a published checksum. @p with_barrier is the correct
 * protocol; without it the publisher races every writer — but the
 * deterministic cyclic schedule resumes tids in ascending order and
 * runs the yield-free publisher dead last, so the bug is invisible to
 * the production schedule and to any output-comparing test under it.
 */
void
runPublishKernel(Device &dev, ArrayRef<uint32_t> &data,
                 ArrayRef<uint32_t> &out, bool with_barrier)
{
    dev.launch(LaunchConfig(Dim3(1), Dim3(kPubThreads)), [&](ThreadCtx &t) {
        uint32_t tid = t.flatThreadIdx();
        t.store(data, tid, pubValue(tid));
        if (with_barrier)
            t.syncthreads();
        if (tid == kPubThreads - 1) {
            uint32_t sum = 0;
            for (uint32_t i = 0; i < kPubThreads; ++i)
                sum += t.load(data, i);
            t.store(out, 0, sum);
        }
    });
}

/** Explore the publish kernel's schedules, checking the checksum. */
ExploreResult
explorePublishKernel(Device &dev, const ExploreOptions &opts,
                     bool with_barrier)
{
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), kPubThreads);
    auto out = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    return exploreSchedules(
        dev, opts,
        [&](uint32_t, const TraceCollector &,
            std::vector<std::string> &violations) {
            // Rewind: a stale data[] from the previous run would let
            // an early publisher read correct values by accident.
            std::memset(dev.mem().raw(data.addrOf(0)), 0,
                        kPubThreads * sizeof(uint32_t));
            std::memset(dev.mem().raw(out.addrOf(0)), 0, sizeof(uint32_t));
            runPublishKernel(dev, data, out, with_barrier);
            uint32_t got;
            std::memcpy(&got, dev.mem().raw(out.addrOf(0)), sizeof got);
            if (got != pubExpected())
                violations.push_back("published checksum is wrong");
        });
}

Device
makeDevice(uint32_t workers = 1)
{
    DeviceParams p;
    p.num_workers = workers;
    return Device(p);
}

// ---------------------------------------------------------------------
// Mutation test: the ordering bug the deterministic schedule masks
// ---------------------------------------------------------------------

/**
 * Step 1 of the mutation argument: under the production deterministic
 * schedule the buggy kernel produces the correct checksum — output
 * comparison cannot catch the missing barrier. The HB analyzer still
 * flags the unordered write/read pairs on that very same benign run.
 */
TEST(AnalysisTest, MutationIsMaskedByDeterministicScheduleButRacesFlagged)
{
    Device dev = makeDevice();
    ExploreOptions opts;
    opts.policy = PolicyKind::Deterministic;
    ExploreResult er = explorePublishKernel(dev, opts,
                                            /*with_barrier=*/false);
    EXPECT_EQ(er.runs, 1u);
    EXPECT_TRUE(er.violations.empty())
        << "the deterministic schedule must mask the bug (that is the "
           "point of the mutation)";
    EXPECT_GT(er.races_flagged, 0u)
        << "the HB analyzer must flag the unsynchronized publish even "
           "on the benign interleaving";
}

/** Step 2: random permutation exposes the wrong checksum. */
TEST(AnalysisTest, MutationCaughtBySeededRandomExploration)
{
    Device dev = makeDevice();
    ExploreOptions opts;
    opts.policy = PolicyKind::SeededRandom;
    opts.seed = 7;
    opts.schedules = 16;
    ExploreResult er = explorePublishKernel(dev, opts,
                                            /*with_barrier=*/false);
    EXPECT_EQ(er.runs, 16u);
    EXPECT_FALSE(er.violations.empty())
        << "16 random schedules must include one that runs the "
           "publisher before some writer";
    EXPECT_GT(er.races_flagged, 0u);
    EXPECT_GT(er.distinct(), 1u);
}

/**
 * Step 3: DPOR-lite needs no luck — the first (deterministic) run's
 * races become backtrack prefixes that force the publisher early, so
 * the checksum violation is found systematically.
 */
TEST(AnalysisTest, MutationCaughtByDporBacktracking)
{
    Device dev = makeDevice();
    ExploreOptions opts;
    opts.policy = PolicyKind::DporLite;
    opts.schedules = 8;
    ExploreResult er = explorePublishKernel(dev, opts,
                                            /*with_barrier=*/false);
    EXPECT_GT(er.runs, 1u) << "races must enqueue backtrack prefixes";
    EXPECT_GT(er.backtracks_enqueued, 0u);
    EXPECT_FALSE(er.violations.empty())
        << "some backtracked schedule must expose the wrong checksum";
}

/** The corrected kernel survives the same exploration unscathed. */
TEST(AnalysisTest, CorrectKernelHasNoViolationsAndNoRaces)
{
    Device dev = makeDevice();
    ExploreOptions opts;
    opts.policy = PolicyKind::SeededRandom;
    opts.seed = 7;
    opts.schedules = 16;
    ExploreResult er = explorePublishKernel(dev, opts,
                                            /*with_barrier=*/true);
    EXPECT_TRUE(er.violations.empty());
    EXPECT_EQ(er.races_flagged, 0u)
        << "barrier edges must order every write/read pair";
    EXPECT_GT(er.distinct(), 1u)
        << "the barrier still leaves schedule freedom to explore";
}

// ---------------------------------------------------------------------
// Policy semantics
// ---------------------------------------------------------------------

/**
 * Satellite S1 at the observable level: under DeterministicPolicy a
 * park-free block resumes threads in ascending flat-tid order — the
 * recorded decision sequence is exactly 0..N-1.
 */
TEST(AnalysisTest, DeterministicPolicyResumesInFlatTidOrder)
{
    Device dev = makeDevice();
    TraceCollector collector;
    dev.setSchedulePolicyFactory([&collector](uint64_t rank) {
        return std::make_unique<DeterministicPolicy>(rank, &collector);
    });
    auto data = ArrayRef<uint32_t>::allocate(dev.mem(), kPubThreads);
    dev.launch(LaunchConfig(Dim3(1), Dim3(kPubThreads)), [&](ThreadCtx &t) {
        t.store(data, t.flatThreadIdx(), t.flatThreadIdx());
    });
    dev.setSchedulePolicyFactory(SchedulePolicyFactory{});

    auto blocks = collector.sortedBlocks();
    ASSERT_EQ(blocks.size(), 1u);
    ASSERT_EQ(blocks[0].decisions.size(), kPubThreads);
    for (uint32_t d = 0; d < kPubThreads; ++d)
        EXPECT_EQ(blocks[0].decisions[d].chosen, d) << "decision " << d;
}

/** Same seed, same schedule — different seeds diverge. */
TEST(AnalysisTest, SeededRandomIsReproduciblePerSeed)
{
    auto signatureFor = [](uint64_t seed) {
        Device dev = makeDevice();
        TraceCollector collector;
        dev.setSchedulePolicyFactory([&collector, seed](uint64_t rank) {
            return std::make_unique<SeededRandomPolicy>(rank, &collector,
                                                        seed ^ rank);
        });
        auto data = ArrayRef<uint32_t>::allocate(dev.mem(), kPubThreads);
        dev.launch(LaunchConfig(Dim3(1), Dim3(kPubThreads)),
                   [&](ThreadCtx &t) {
                       t.store(data, t.flatThreadIdx(), 1u);
                       t.syncthreads();
                   });
        dev.setSchedulePolicyFactory(SchedulePolicyFactory{});
        return collector.combinedSignature();
    };

    std::set<uint64_t> distinct;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        EXPECT_EQ(signatureFor(seed), signatureFor(seed))
            << "seed " << seed << " must replay bit-identically";
        distinct.insert(signatureFor(seed));
    }
    EXPECT_GT(distinct.size(), 8u)
        << "16 seeds must yield substantially distinct schedules";
}

/** The combined signature is invariant to block completion order. */
TEST(AnalysisTest, TraceCollectorSignatureCommutes)
{
    BlockTrace a;
    a.rank = 0;
    a.signature = 0x1111;
    BlockTrace b;
    b.rank = 1;
    b.signature = 0x2222;

    TraceCollector ab;
    ab.merge(BlockTrace(a));
    ab.merge(BlockTrace(b));
    TraceCollector ba;
    ba.merge(BlockTrace(b));
    ba.merge(BlockTrace(a));
    EXPECT_EQ(ab.combinedSignature(), ba.combinedSignature());
    EXPECT_NE(ab.combinedSignature(), 0u);
}

// ---------------------------------------------------------------------
// HB race tracker unit tests
// ---------------------------------------------------------------------

TEST(AnalysisTest, HbTrackerFlagsUnorderedConflict)
{
    HbTracker hb;
    hb.onBlockStart(2);
    hb.onResume(0, 0);
    hb.onAccess(0, false, 0, 0x1000, 4, AccessKind::Store);
    hb.onResume(1, 1);
    hb.onAccess(1, false, 0, 0x1000, 4, AccessKind::Store);
    EXPECT_EQ(hb.racesTotal(), 1u);
    ASSERT_EQ(hb.races().size(), 1u);
    EXPECT_EQ(hb.races()[0].tid_a, 0u);
    EXPECT_EQ(hb.races()[0].tid_b, 1u);
}

TEST(AnalysisTest, HbTrackerParkReleaseEdgeOrdersAccesses)
{
    HbTracker hb;
    hb.onBlockStart(2);
    SchedEvent ev{SchedEventKind::Barrier, 0};
    // t0 writes, then parks on the barrier; t1 releases it (the edge),
    // then reads — ordered, no race.
    hb.onResume(0, 0);
    hb.onAccess(0, false, 0, 0x2000, 4, AccessKind::Store);
    hb.onPark(0, ev);
    hb.onResume(1, 1);
    uint32_t woken[] = {0};
    hb.onRelease(ev, woken, 1, /*releaser=*/1);
    hb.onAccess(1, false, 0, 0x2000, 4, AccessKind::Load);
    EXPECT_EQ(hb.racesTotal(), 0u);
}

TEST(AnalysisTest, HbTrackerAtomicsSynchronizeButMixedPairsRace)
{
    HbTracker hb;
    hb.onBlockStart(3);
    // Two atomic RMWs on one address: a sync pair, not a race.
    hb.onResume(0, 0);
    hb.onAccess(0, false, 0, 0x3000, 4, AccessKind::AtomicRmw);
    hb.onResume(1, 1);
    hb.onAccess(1, false, 0, 0x3000, 4, AccessKind::AtomicRmw);
    EXPECT_EQ(hb.racesTotal(), 0u);
    // A plain store against those atomics does race.
    hb.onResume(2, 2);
    hb.onAccess(2, false, 0, 0x3000, 4, AccessKind::Store);
    EXPECT_GT(hb.racesTotal(), 0u);
}

TEST(AnalysisTest, HbTrackerDisjointBytesOfOneLineDoNotRace)
{
    HbTracker hb;
    hb.onBlockStart(2);
    // Same 128-byte NVM line, disjoint words — benign, must not flag.
    hb.onResume(0, 0);
    hb.onAccess(0, false, 0, 0x4000, 4, AccessKind::Store);
    hb.onResume(1, 1);
    hb.onAccess(1, false, 0, 0x4004, 4, AccessKind::Store);
    EXPECT_EQ(hb.racesTotal(), 0u);
}

// ---------------------------------------------------------------------
// Golden fixtures under DeterministicPolicy (acceptance criterion)
// ---------------------------------------------------------------------

/**
 * Installing DeterministicPolicy must be behaviourally invisible: the
 * pre-PR golden fixtures from SchedTest (captured with the retired
 * poll scheduler) reproduce bit for bit at several worker counts with
 * the policy hook active on every scheduling decision.
 */
TEST(AnalysisTest, DeterministicPolicyKeepsGoldenFixturesBitIdentical)
{
    struct Golden {
        const char *name;
        double scale;
        Cycles base_cycles;
        Cycles lp_cycles;
        uint64_t arena_hash;
    };
    const Golden kGolden[] = {
        {"tmm", 0.01, 68755, 76798, 0x129413ea99295c16ull},
        {"tpacf", 0.05, 75136, 77572, 0xd8829723e7e5f4e6ull},
        {"histo", 0.05, 20602, 21093, 0x58868e4fc9ed5d8bull},
    };

    for (const Golden &g : kGolden) {
        for (uint32_t workers : {1u, 2u, 8u}) {
            DeviceParams p;
            p.num_workers = workers;
            Device dev(p);
            // Recording-free policy instances: the permutation path
            // alone must already be a no-op.
            dev.setSchedulePolicyFactory([](uint64_t rank) {
                return std::make_unique<DeterministicPolicy>(rank,
                                                             nullptr);
            });
            auto w = makeWorkload(g.name, g.scale);
            w->setup(dev);
            LaunchResult base = runBaseline(dev, *w);
            std::string why;
            ASSERT_TRUE(w->verify(&why)) << g.name << ": " << why;

            LpConfig cfg = LpConfig::naive(TableKind::QuadProbe);
            cfg.load_factor = w->quadLoadFactor();
            LpRuntime lp(dev, cfg, w->launchConfig());
            LaunchResult lpr = runWithLp(dev, *w, lp);

            std::string what = std::string(g.name) + " +policy @" +
                               std::to_string(workers);
            EXPECT_EQ(base.cycles, g.base_cycles) << what;
            EXPECT_EQ(lpr.cycles, g.lp_cycles) << what;
            EXPECT_EQ(fnv1a(dev.mem().raw(0), dev.mem().used()),
                      g.arena_hash)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Workload-level explorer smoke
// ---------------------------------------------------------------------

TEST(AnalysisTest, ExplorerCellSweepPassesOnMain)
{
    ExplorerOptions opts;
    opts.scale = 0.004;
    opts.schedules = 6;
    opts.workloads = {"tmm"};
    opts.policies = {PolicyKind::SeededRandom, PolicyKind::DporLite};
    opts.crash_points = 2;
    opts.crash_schedules = 1;
    ExplorerResult result = runScheduleExploration(opts);

    EXPECT_TRUE(result.passed());
    ASSERT_EQ(result.cells.size(), 2u);
    const ExplorerCellResult &random = result.cells[0];
    EXPECT_EQ(random.runs, 6u);
    EXPECT_GT(random.distinct, 1u);
    EXPECT_EQ(random.novel_races, 0u);
    EXPECT_GT(random.crash_trials, 0u);
    EXPECT_EQ(random.false_passes, 0u);
    EXPECT_EQ(random.unconverged, 0u);
    for (const ExplorerCellResult &cell : result.cells)
        EXPECT_TRUE(cell.violations.empty())
            << cell.workload << "/" << toString(cell.policy) << ": "
            << (cell.violations.empty() ? "" : cell.violations[0]);
}

// ---------------------------------------------------------------------
// Gate waits and the crash latch under random schedules
// ---------------------------------------------------------------------

/**
 * At 2 workers concurrent blocks wait on the rank gate; the wait
 * blocks inside the fiber, so it must not perturb the policy's
 * schedule. Per seed the whole run must leave the arena bit-identical
 * to the same seed at 1 worker, where no block ever waits. No NVM is
 * attached, so host-order NVM write-back plays no part.
 */
TEST(AnalysisTest, SeededRandomReplayIsBitIdenticalAcrossWorkerCounts)
{
    auto arenaHashFor = [](uint64_t seed, uint32_t workers) {
        DeviceParams p;
        p.num_workers = workers;
        Device dev(p);
        dev.setSchedulePolicyFactory([seed](uint64_t rank) {
            return std::make_unique<SeededRandomPolicy>(
                rank, nullptr, seed ^ (rank * 0x9e3779b9ull));
        });
        auto w = makeWorkload("tmm", 0.01);
        w->setup(dev);
        LpConfig cfg = LpConfig::naive(TableKind::QuadProbe);
        cfg.load_factor = w->quadLoadFactor();
        LpRuntime lp(dev, cfg, w->launchConfig());
        runWithLp(dev, *w, lp);
        std::string why;
        EXPECT_TRUE(w->verify(&why)) << why;
        return fnv1a(dev.mem().raw(0), dev.mem().used());
    };

    for (uint64_t seed = 1; seed <= 16; ++seed) {
        EXPECT_EQ(arenaHashFor(seed, 2), arenaHashFor(seed, 1))
            << "seed " << seed << " must not depend on the worker count";
    }
}

/**
 * The NVM crash latch must abort a launch cleanly under any explored
 * schedule, and validate/recover must converge back to a verified
 * state — across 16 random seed classes at 2 workers.
 */
TEST(AnalysisTest, CrashLatchAbortsAndRecoversUnderSeededRandom)
{
    DeviceParams p;
    p.num_workers = 2;
    Device dev(p);
    NvmCache nvm(dev.mem());
    dev.attachNvm(&nvm);
    auto w = makeWorkload("tmm", 0.004);
    w->setup(dev);
    const LaunchConfig launch = w->launchConfig();
    LpConfig cfg = campaignCellConfig(*w, TableKind::QuadProbe,
                                      ChecksumKind::ModularParity);
    LpRuntime lp(dev, cfg, launch);
    LpContext ctx = lp.context();
    nvm.persistAll();
    std::vector<char> pristine(dev.mem().used());
    std::memcpy(pristine.data(), dev.mem().raw(0), pristine.size());

    // Golden store count from a crash-free run fixes the latch point.
    LaunchResult gold =
        dev.launch(launch, [&](ThreadCtx &t) { w->kernel(t, &ctx); });
    ASSERT_FALSE(gold.crashed);
    const uint64_t stores = nvm.stats().stores_observed;
    ASSERT_GT(stores, 4u);

    for (uint64_t seed = 1; seed <= 16; ++seed) {
        dev.setSchedulePolicyFactory([seed](uint64_t rank) {
            return std::make_unique<SeededRandomPolicy>(
                rank, nullptr, seed * 0x100000001b3ull + rank);
        });
        std::memcpy(dev.mem().raw(0), pristine.data(), pristine.size());
        nvm.invalidateAll();
        nvm.persistAll();
        nvm.resetStats();
        nvm.crashAfterStores(stores / 2);
        LaunchResult r =
            dev.launch(launch, [&](ThreadCtx &t) { w->kernel(t, &ctx); });
        EXPECT_TRUE(r.crashed) << "seed " << seed;
        nvm.crash();
        RecoveryReport rep = persistRecover(
            dev, launch, *ctx.strategy,
            [&](ThreadCtx &t, RecoverySet &failed) {
                w->validation(t, ctx, failed);
            },
            [&](ThreadCtx &t) { w->kernel(t, &ctx); });
        EXPECT_TRUE(rep.converged) << "seed " << seed;
        std::string why;
        EXPECT_TRUE(w->verify(&why)) << "seed " << seed << ": " << why;
        dev.setSchedulePolicyFactory(SchedulePolicyFactory{});
    }
}

/**
 * The fault campaign accepts a policy factory: crash-at-store
 * injection crossed with an adversarial resume order must still
 * uphold the no-false-pass / convergence / durable-match guarantees.
 */
TEST(AnalysisTest, FaultCampaignPassesUnderSeededRandomPolicy)
{
    CampaignOptions opts;
    opts.scale = 0.004;
    opts.grid_points = 3;
    opts.random_points = 0;
    opts.workloads = {"tmm"};
    opts.tables = {TableKind::QuadProbe};
    opts.checksums = {ChecksumKind::ModularParity};
    opts.policy_factory = [](uint64_t rank) {
        return std::make_unique<SeededRandomPolicy>(rank, nullptr,
                                                    42u ^ rank);
    };
    CampaignResult result = runFaultCampaign(opts);
    EXPECT_TRUE(result.passed())
        << "crash sweep under a random schedule must stay sound";
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_GT(result.cells[0].trials.size(), 0u);
}

TEST(AnalysisTest, PolicyKindRoundTrips)
{
    for (PolicyKind k :
         {PolicyKind::Deterministic, PolicyKind::SeededRandom,
          PolicyKind::DporLite})
        EXPECT_EQ(policyKindFromString(toString(k)), k);
}

} // namespace
} // namespace gpulp
