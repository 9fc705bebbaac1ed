#include "explorer.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "common/logging.h"
#include "common/prng.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "harness/faultcampaign.h"
#include "nvm/nvm_cache.h"
#include "obs/trace.h"
#include "sim/device.h"
#include "workloads/workload.h"

namespace gpulp {

namespace {

uint64_t
mix64(uint64_t a, uint64_t b)
{
    uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

uint64_t
mixName(uint64_t seed, const std::string &name)
{
    uint64_t h = seed;
    for (char c : name)
        h = mix64(h, static_cast<unsigned char>(c));
    return h;
}

const char *
toString(AccessKind kind)
{
    switch (kind) {
    case AccessKind::Load:
        return "load";
    case AccessKind::Store:
        return "store";
    case AccessKind::AtomicRmw:
        return "atomic";
    }
    return "?";
}

/** Forced decision prefixes per block rank (a DPOR work item). */
using PrefixMap = std::map<uint64_t, std::vector<uint32_t>>;

} // namespace

const char *
toString(PolicyKind kind)
{
    switch (kind) {
    case PolicyKind::Deterministic:
        return "deterministic";
    case PolicyKind::SeededRandom:
        return "random";
    case PolicyKind::DporLite:
        return "dpor";
    }
    return "?";
}

PolicyKind
policyKindFromString(const std::string &name)
{
    if (name == "deterministic")
        return PolicyKind::Deterministic;
    if (name == "random")
        return PolicyKind::SeededRandom;
    if (name == "dpor")
        return PolicyKind::DporLite;
    GPULP_FATAL("unknown schedule policy '%s' (expected deterministic, "
                "random or dpor)",
                name.c_str());
}

// ---------------------------------------------------------------------
// Generic exploration loop
// ---------------------------------------------------------------------

namespace {

/** Collect a capped, location-deduplicated race sample into @p res. */
void
sampleRaces(const TraceCollector &collector, ExploreResult &res)
{
    static constexpr size_t kMaxSample = 32;
    for (const BlockTrace &b : collector.sortedBlocks()) {
        for (const RaceRecord &r : b.races) {
            if (res.sample_races.size() >= kMaxSample)
                return;
            bool seen = false;
            for (const RaceRecord &s : res.sample_races) {
                if (s.locationKey() == r.locationKey()) {
                    seen = true;
                    break;
                }
            }
            if (!seen)
                res.sample_races.push_back(r);
        }
    }
}

/** One explored schedule: install @p factory, run, account. @return
 *  the run's collector signature. */
uint64_t
exploreOne(Device &dev, const SchedulePolicyFactory &factory,
           uint32_t run_index, const ScheduleRunFn &run,
           TraceCollector &collector, ExploreResult &res)
{
    dev.setSchedulePolicyFactory(factory);
    std::vector<std::string> violations;
    run(run_index, collector, violations);
    dev.setSchedulePolicyFactory(SchedulePolicyFactory{});

    obs::add(obs::Ctr::AnalysisSchedulesRun);
    ++res.runs;
    uint64_t sig = collector.combinedSignature();
    res.signatures.insert(sig);
    res.races_flagged += collector.totalRaces();
    sampleRaces(collector, res);
    for (std::string &v : violations) {
        obs::add(obs::Ctr::AnalysisViolations);
        char head[64];
        std::snprintf(head, sizeof head, "run %u [sig %016llx]: ",
                      run_index, static_cast<unsigned long long>(sig));
        res.violations.push_back(head + std::move(v));
    }
    return sig;
}

} // namespace

ExploreResult
exploreSchedules(Device &dev, const ExploreOptions &opts,
                 const ScheduleRunFn &run)
{
    ExploreResult res;
    obs::TraceSpan span("explore_schedules", "analysis", opts.schedules,
                        "schedules");

    switch (opts.policy) {
    case PolicyKind::Deterministic: {
        // One schedule exists; run it once, recorded.
        TraceCollector collector;
        exploreOne(
            dev,
            [&collector](uint64_t rank) {
                return std::make_unique<DeterministicPolicy>(rank,
                                                             &collector);
            },
            0, run, collector, res);
        break;
    }

    case PolicyKind::SeededRandom: {
        for (uint32_t i = 0; i < opts.schedules; ++i) {
            TraceCollector collector;
            uint64_t run_seed = mix64(opts.seed, i);
            exploreOne(
                dev,
                [&collector, run_seed](uint64_t rank) {
                    return std::make_unique<SeededRandomPolicy>(
                        rank, &collector, mix64(run_seed, rank));
                },
                i, run, collector, res);
        }
        break;
    }

    case PolicyKind::DporLite: {
        std::deque<PrefixMap> worklist;
        std::set<PrefixMap> enqueued;
        worklist.push_back(PrefixMap{});
        enqueued.insert(PrefixMap{});
        uint32_t run_index = 0;
        while (!worklist.empty() && res.runs < opts.schedules) {
            PrefixMap item = std::move(worklist.front());
            worklist.pop_front();
            TraceCollector collector;
            uint64_t before = res.signatures.empty()
                                  ? 0
                                  : res.signatures.size();
            uint64_t sig = exploreOne(
                dev,
                [&collector, &item](uint64_t rank) {
                    auto it = item.find(rank);
                    return std::make_unique<DporLitePolicy>(
                        rank, &collector,
                        it != item.end() ? it->second
                                         : std::vector<uint32_t>{});
                },
                run_index++, run, collector, res);
            (void)sig;
            bool novel = res.signatures.size() > before;
            if (!novel)
                continue;
            // Grow the frontier: for every backtrack candidate, fork a
            // prefix that replays the block's decisions up to the
            // conflict and runs the alternative thread there instead.
            uint32_t added = 0;
            for (const BlockTrace &b : collector.sortedBlocks()) {
                for (const BacktrackCandidate &c : b.backtracks) {
                    if (added >= opts.max_backtracks_per_run)
                        break;
                    PrefixMap next = item;
                    std::vector<uint32_t> forced;
                    forced.reserve(c.decision + 1);
                    for (uint32_t d = 0; d < c.decision; ++d)
                        forced.push_back(b.decisions[d].chosen);
                    forced.push_back(c.alt_tid);
                    next[b.rank] = std::move(forced);
                    if (!enqueued.insert(next).second)
                        continue;
                    worklist.push_back(std::move(next));
                    ++added;
                    ++res.backtracks_enqueued;
                    obs::add(obs::Ctr::AnalysisBacktracks);
                }
            }
        }
        break;
    }
    }
    return res;
}

// ---------------------------------------------------------------------
// Workload-level driver
// ---------------------------------------------------------------------

namespace {

/** Rewind device + NVM to the durable pre-kernel snapshot. */
void
rewind(Device &dev, NvmCache &nvm, const std::vector<char> &pristine)
{
    std::memcpy(dev.mem().raw(0), pristine.data(), pristine.size());
    nvm.invalidateAll();
    nvm.persistAll();
    nvm.resetStats();
}

ExplorerCellResult
runExplorerCell(const ExplorerOptions &opts, const std::string &name,
                PolicyKind kind, uint32_t *workers_out)
{
    ExplorerCellResult cell;
    cell.workload = name;
    cell.policy = kind;

    DeviceParams dparams;
    dparams.num_workers = opts.num_workers;
    Device dev(dparams);
    NvmParams nparams;
    nparams.cache_bytes = opts.nvm_cache_bytes;
    NvmCache nvm(dev.mem(), nparams);
    std::unique_ptr<PersistLog> log = persistLogFromEnv(/*truncate=*/true);
    if (log)
        nvm.attachPersistLog(log.get());
    dev.attachNvm(&nvm);
    if (workers_out)
        *workers_out = dev.resolveWorkers();

    auto w = makeWorkload(name, opts.scale);
    w->setup(dev);
    if (w->outputSpans().empty()) {
        GPULP_FATAL("workload '%s' exposes no output spans; it cannot "
                    "join schedule exploration",
                    name.c_str());
    }

    const LaunchConfig launch = w->launchConfig();
    const uint64_t num_blocks = launch.numBlocks();
    LpRuntime lp(dev, campaignCellConfig(*w, opts.table, opts.checksum),
                 launch);
    LpContext ctx = lp.context();

    std::vector<std::vector<OutputSpan>> block_spans(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b)
        block_spans[b] = w->blockOutputSpans(b);

    nvm.persistAll();
    std::vector<char> pristine(dev.mem().used());
    std::memcpy(pristine.data(), dev.mem().raw(0), pristine.size());

    // Golden baseline: the deterministic schedule, recorded. Its
    // output bytes are the reference every explored schedule must
    // reproduce, its store count spans the crash sweep, and its race
    // locations are the known-benign baseline (expected empty) that
    // defines "novel".
    TraceCollector base;
    dev.setSchedulePolicyFactory([&base](uint64_t rank) {
        return std::make_unique<DeterministicPolicy>(rank, &base);
    });
    rewind(dev, nvm, pristine);
    LaunchResult gold =
        dev.launch(launch, [&](ThreadCtx &t) { w->kernel(t, &ctx); });
    dev.setSchedulePolicyFactory(SchedulePolicyFactory{});
    GPULP_ASSERT(!gold.crashed, "golden run crashed");
    const uint64_t golden_stores = nvm.stats().stores_observed;
    std::string why;
    GPULP_ASSERT(w->verify(&why), "golden run of '%s' is wrong: %s",
                 name.c_str(), why.c_str());
    std::vector<std::vector<uint8_t>> golden_blocks(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b)
        golden_blocks[b] = readOutputSpans(dev.mem(), block_spans[b]);
    std::set<uint64_t> baseline_locs;
    for (const BlockTrace &bt : base.sortedBlocks()) {
        for (const RaceRecord &r : bt.races)
            baseline_locs.insert(r.locationKey());
    }

    // Crash points, fixed per cell so every crash schedule sweeps the
    // same cuts.
    std::set<uint64_t> crash_points;
    if (opts.crash_points > 0) {
        Prng rng(mixName(opts.seed, name));
        crash_points =
            pickCrashPoints(opts.crash_points, 0, golden_stores, rng);
    }

    ExploreOptions eopts;
    eopts.policy = kind;
    eopts.seed = mix64(mixName(opts.seed, name),
                       static_cast<uint64_t>(kind));
    eopts.schedules = opts.schedules;

    ExploreResult er = exploreSchedules(
        dev, eopts,
        [&](uint32_t run_index, const TraceCollector &trace,
            std::vector<std::string> &violations) {
            // Clean run under the explored schedule.
            rewind(dev, nvm, pristine);
            LaunchResult r = dev.launch(
                launch, [&](ThreadCtx &t) { w->kernel(t, &ctx); });
            if (r.crashed)
                violations.push_back("clean run crashed without an "
                                     "injected crash");
            std::string vwhy;
            if (!w->verify(&vwhy))
                violations.push_back("host verification failed: " + vwhy);
            for (uint64_t b = 0; b < num_blocks; ++b) {
                if (readOutputSpans(dev.mem(), block_spans[b]) !=
                    golden_blocks[b]) {
                    violations.push_back(
                        "block " + std::to_string(b) +
                        " output diverged from the deterministic golden "
                        "bytes");
                    break;
                }
            }
            // Novel races: a location the deterministic baseline never
            // flagged racing under this interleaving.
            for (const BlockTrace &bt : trace.sortedBlocks()) {
                for (const RaceRecord &race : bt.races) {
                    if (baseline_locs.count(race.locationKey()))
                        continue;
                    ++cell.novel_races;
                    char buf[192];
                    std::snprintf(
                        buf, sizeof buf,
                        "novel race: block %llu %s %s(t%u@d%u) vs "
                        "%s(t%u@d%u) at %s %llu",
                        static_cast<unsigned long long>(bt.rank),
                        race.shared ? "shared" : "global",
                        toString(race.kind_a), race.tid_a,
                        race.decision_a, toString(race.kind_b),
                        race.tid_b, race.decision_b,
                        race.shared ? "slot" : "addr",
                        static_cast<unsigned long long>(
                            race.shared ? race.slot : race.addr));
                    if (violations.size() < 8)
                        violations.push_back(buf);
                }
            }

            // Crash sweep under this same schedule: the PR-2 protocol
            // invariants must hold at every cut of every explored
            // interleaving.
            if (run_index >= opts.crash_schedules || crash_points.empty())
                return;
            for (uint64_t point : crash_points) {
                rewind(dev, nvm, pristine);
                nvm.crashAfterStores(point);
                dev.launch(launch,
                           [&](ThreadCtx &t) { w->kernel(t, &ctx); });
                nvm.crash();
                BlockClassification cls = classifyAgainstGolden(
                    dev, launch, *w, ctx, block_spans, golden_blocks);
                ++cell.crash_trials;
                if (cls.false_passes != 0) {
                    cell.false_passes += cls.false_passes;
                    violations.push_back(
                        "crash point " + std::to_string(point) + ": " +
                        std::to_string(cls.false_passes) +
                        " false-pass block(s) — silent corruption");
                }
                RecoveryReport rep = persistRecover(
                    dev, launch, *ctx.strategy,
                    [&](ThreadCtx &t, RecoverySet &failed) {
                        w->validation(t, ctx, failed);
                    },
                    [&](ThreadCtx &t) { w->kernel(t, &ctx); });
                if (!rep.converged) {
                    ++cell.unconverged;
                    violations.push_back(
                        "crash point " + std::to_string(point) +
                        ": recovery did not converge");
                }
                nvm.crash();
                for (uint64_t b = 0; b < num_blocks; ++b) {
                    if (readOutputSpans(dev.mem(), block_spans[b]) !=
                        golden_blocks[b]) {
                        violations.push_back(
                            "crash point " + std::to_string(point) +
                            ": durable output diverged after recovery");
                        break;
                    }
                }
            }
        });

    cell.runs = er.runs;
    cell.distinct = er.distinct();
    cell.races_flagged = er.races_flagged;
    cell.backtracks = er.backtracks_enqueued;
    cell.signatures = std::move(er.signatures);
    cell.violations = std::move(er.violations);
    // Bound the report: the JSON carries at most 32 violation lines.
    if (cell.violations.size() > 32)
        cell.violations.resize(32);
    return cell;
}

} // namespace

std::vector<std::pair<std::string, uint64_t>>
ExplorerResult::workloadDistinct() const
{
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const std::string &name : options.workloads) {
        std::set<uint64_t> all;
        for (const ExplorerCellResult &cell : cells) {
            if (cell.workload == name)
                all.insert(cell.signatures.begin(),
                           cell.signatures.end());
        }
        out.emplace_back(name, all.size());
    }
    return out;
}

bool
ExplorerResult::passed() const
{
    if (cells.empty())
        return false;
    for (const ExplorerCellResult &cell : cells) {
        if (!cell.passed())
            return false;
    }
    if (options.min_distinct_per_workload > 0) {
        for (const auto &[name, distinct] : workloadDistinct()) {
            if (distinct < options.min_distinct_per_workload)
                return false;
        }
    }
    return true;
}

ExplorerResult
runScheduleExploration(const ExplorerOptions &opts)
{
    if (opts.scale <= 0.0 || opts.scale > 1.0)
        GPULP_FATAL("explorer scale must be in (0, 1], got %f", opts.scale);
    if (opts.schedules == 0)
        GPULP_FATAL("explorer needs at least one schedule per cell");
    if (opts.workloads.empty() || opts.policies.empty())
        GPULP_FATAL("explorer needs >= 1 workload and policy");

    ExplorerResult result;
    result.options = opts;
    obs::TraceSpan span("schedule_exploration", "analysis");
    for (const std::string &name : opts.workloads) {
        for (PolicyKind kind : opts.policies) {
            obs::TraceSpan cell_span("explorer_cell", "analysis");
            result.cells.push_back(
                runExplorerCell(opts, name, kind, &result.workers));
        }
    }
    result.counters = obs::snapshotCounters();
    return result;
}

void
writeExplorationJson(const ExplorerResult &result, std::FILE *out)
{
    const ExplorerOptions &o = result.options;
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"campaign\": \"schedule_exploration\",\n");
    std::fprintf(out, "  \"scale\": %.6f,\n", o.scale);
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(o.seed));
    std::fprintf(out, "  \"schedules\": %u,\n", o.schedules);
    std::fprintf(out, "  \"crash_points\": %u,\n", o.crash_points);
    std::fprintf(out, "  \"min_distinct_per_workload\": %u,\n",
                 o.min_distinct_per_workload);
    std::fprintf(out, "  \"workers\": %u,\n", result.workers);
    std::fprintf(out, "  \"passed\": %s,\n",
                 result.passed() ? "true" : "false");
    std::fprintf(out, "  \"workload_coverage\": [\n");
    auto coverage = result.workloadDistinct();
    for (size_t i = 0; i < coverage.size(); ++i) {
        std::fprintf(out,
                     "    {\"workload\": \"%s\", "
                     "\"distinct_interleavings\": %llu}%s\n",
                     coverage[i].first.c_str(),
                     static_cast<unsigned long long>(coverage[i].second),
                     i + 1 < coverage.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"cells\": [\n");
    for (size_t c = 0; c < result.cells.size(); ++c) {
        const ExplorerCellResult &cell = result.cells[c];
        std::fprintf(out, "    {\n");
        std::fprintf(out, "      \"workload\": \"%s\",\n",
                     cell.workload.c_str());
        std::fprintf(out, "      \"policy\": \"%s\",\n",
                     toString(cell.policy));
        std::fprintf(out, "      \"runs\": %llu,\n",
                     static_cast<unsigned long long>(cell.runs));
        std::fprintf(out, "      \"distinct\": %llu,\n",
                     static_cast<unsigned long long>(cell.distinct));
        std::fprintf(out, "      \"races_flagged\": %llu,\n",
                     static_cast<unsigned long long>(cell.races_flagged));
        std::fprintf(out, "      \"novel_races\": %llu,\n",
                     static_cast<unsigned long long>(cell.novel_races));
        std::fprintf(out, "      \"backtracks\": %llu,\n",
                     static_cast<unsigned long long>(cell.backtracks));
        std::fprintf(out, "      \"crash_trials\": %llu,\n",
                     static_cast<unsigned long long>(cell.crash_trials));
        std::fprintf(out, "      \"false_passes\": %llu,\n",
                     static_cast<unsigned long long>(cell.false_passes));
        std::fprintf(out, "      \"unconverged\": %llu,\n",
                     static_cast<unsigned long long>(cell.unconverged));
        std::fprintf(out, "      \"verdict\": \"%s\",\n",
                     cell.passed() ? "pass" : "FAIL");
        std::fprintf(out, "      \"violations\": [");
        for (size_t i = 0; i < cell.violations.size(); ++i) {
            // Violation strings are generated by this module and
            // contain no characters needing JSON escaping.
            std::fprintf(out, "%s\"%s\"",
                         i == 0 ? "" : ", ",
                         cell.violations[i].c_str());
        }
        std::fprintf(out, "]\n");
        std::fprintf(out, "    }%s\n",
                     c + 1 < result.cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  ");
    obs::writeCountersJson(result.counters, out, "  ");
    std::fprintf(out, "\n}\n");
}

} // namespace gpulp
