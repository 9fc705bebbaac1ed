/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its metrics.
 *
 *   perfbench_driver --workload paper-suite|kv-serve|crash-recovery
 *                    --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * A run sets the workload up several times (the median is setup_s),
 * then runs passes until S seconds have gone by and reports host rates
 * as the median over passes of work / time within each pass. With
 * --trace 0 the last stdout line is a JSON object with every end-to-end
 * metric; with --trace 1 half of the time runs untraced and half with
 * counters and spans on, and the line holds every per-layer metric.
 * See perfbench/BENCHMARK.md.
 */

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "obs/counters.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;
namespace obs = gpulp::obs;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Fewest passes a timed phase makes, however long they take. */
constexpr uint32_t kMinPasses = 3;

/** Per-layer metric catalog: every traced run reports all of them. */
const std::vector<std::pair<std::string, std::string>> &
layerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> catalog =
        [] {
            std::vector<std::pair<std::string, std::string>> c = {
                {"sim.launch_us_per_block", "us"},
                {"sim.fiber_switches_per_block", "resumes/block"},
                {"sim.shuffles_per_block", "exchanges/block"},
                {"sim.barrier_waits_per_block", "arrivals/block"},
                {"sim.gate_waits_per_block", "episodes/block"},
                {"sim.busy_share", "ratio"},
                {"sim.launches_per_kreq", "launches/kreq"},
                {"sim.fingerprint_mismatches", "count"},
                {"mem.bw_bound_launch_share", "ratio"},
                {"core.lp_extra_us_per_block.array", "us"},
                {"core.lp_extra_us_per_block.quad", "us"},
                {"store.probes_per_insert.quad", "probes/insert"},
                {"store.collisions_per_insert.quad", "probes/insert"},
                {"core.lp_overhead_pct", "%"},
                {"core.overhead_err_pp", "pp"},
            };
            for (const char *k : {"tmm", "tpacf", "mri-gridding", "spmv",
                                  "sad", "histo", "cutcp", "mri-q"})
                c.push_back({std::string("core.lp_overhead_pct.") + k, "%"});
            for (const char *m : {"lazy", "eager", "strict", "epoch-block",
                                  "epoch-kernel"})
                c.push_back(
                    {std::string("harness.cell_us_per_trial.") + m, "us"});
            const std::vector<std::pair<std::string, std::string>> rest = {
                {"harness.kill9_us_per_trial", "us"},
                {"nvm.flushed_lines_per_kstore", "lines/kstore"},
                {"nvm.dirty_evictions_per_kstore", "lines/kstore"},
                {"nvm.torn_lines_per_crash", "lines/crash"},
                {"nvm.log_bytes_per_trial", "bytes/trial"},
                {"nvm.log_replayed_entries_per_trial", "entries/trial"},
                {"recovery.rounds_per_trial", "rounds/trial"},
                {"recovery.useful_reexec_ratio", "ratio"},
                {"recovery.validate_cycles_p50", "cycles"},
                {"recovery.recover_cycles_p50", "cycles"},
                {"service.batch_cycles_mean", "cycles"},
                {"service.coalesced_share", "ratio"},
                {"service.replayed_batches_per_crash", "batches/crash"},
                {"service.availability_gap_cycles_max", "cycles"},
                {"trace.overhead_pct", "%"},
                {"trace.pass_self_pct", "%"},
            };
            c.insert(c.end(), rest.begin(), rest.end());
            return c;
        }();
    return catalog;
}

/** Medians over the passes of one timed phase. */
struct PhaseResult {
    uint32_t passes = 0;
    double blocks_per_s = 0.0;
    double cpu_us_per_block = 0.0;
    double ops_per_s = 0.0;
    double busy_share = 0.0; //!< total CPU / (total wall * workers)
};

PhaseResult
runPhase(BenchWorkload &wl, double seconds, uint32_t &next_pass,
         Checks &checks, SpanLog &spans)
{
    std::vector<double> blocks_per_s, cpu_per_block, ops_per_s;
    double wall_sum = 0.0, cpu_sum = 0.0;
    const double start = wallSeconds();
    while (blocks_per_s.size() < kMinPasses ||
           wallSeconds() - start < seconds) {
        const uint32_t index = next_pass++;
        const double c0 = cpuSeconds();
        const double t0 = wallSeconds();
        PassWork work;
        {
            SpanLog::Scope span(spans, "pass", index);
            work = wl.pass(index, checks, spans);
        }
        const double wall = wallSeconds() - t0;
        const double cpu = cpuSeconds() - c0;
        const double blocks = static_cast<double>(work.blocks);
        blocks_per_s.push_back(blocks / wall);
        cpu_per_block.push_back(cpu * 1e6 / blocks);
        ops_per_s.push_back(static_cast<double>(work.ops) / wall);
        wall_sum += wall;
        cpu_sum += cpu;
    }
    std::printf("blocks_per_s over %zu passes: min %.1f median %.1f max %.1f\n",
                blocks_per_s.size(),
                *std::min_element(blocks_per_s.begin(), blocks_per_s.end()),
                median(blocks_per_s),
                *std::max_element(blocks_per_s.begin(), blocks_per_s.end()));
    PhaseResult r;
    r.passes = static_cast<uint32_t>(blocks_per_s.size());
    r.blocks_per_s = median(blocks_per_s);
    r.cpu_us_per_block = median(cpu_per_block);
    r.ops_per_s = median(ops_per_s);
    r.busy_share = cpu_sum / (wall_sum * wl.workers());
    return r;
}

/** Per-layer metrics every workload derives the same way, from counters. */
void
counterLayerMetrics(const obs::CountersSnapshot &c,
                    std::map<std::string, double> &out)
{
    using obs::Ctr;
    auto d = [&](Ctr ctr) { return static_cast<double>(c[ctr]); };
    const double blocks = d(Ctr::SimBlocks);
    out["sim.fiber_switches_per_block"] = ratio(d(Ctr::SimFiberSwitches), blocks);
    out["sim.shuffles_per_block"] = ratio(d(Ctr::SimShuffles), blocks);
    out["sim.barrier_waits_per_block"] = ratio(d(Ctr::SimBarrierWaits), blocks);
    out["sim.gate_waits_per_block"] = ratio(d(Ctr::SimGateWaits), blocks);
    out["store.probes_per_insert.quad"] =
        ratio(d(Ctr::StoreQuadProbes), d(Ctr::StoreQuadInserts));
    out["store.collisions_per_insert.quad"] =
        ratio(d(Ctr::StoreQuadCollisions), d(Ctr::StoreQuadInserts));
    const double kstores = d(Ctr::NvmStoresObserved) / 1000.0;
    out["nvm.flushed_lines_per_kstore"] = ratio(d(Ctr::NvmFlushedLines), kstores);
    out["nvm.dirty_evictions_per_kstore"] =
        ratio(d(Ctr::NvmDirtyEvictions), kstores);
    out["nvm.torn_lines_per_crash"] =
        ratio(d(Ctr::NvmTornLines), d(Ctr::NvmCrashes));
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper-suite|kv-serve|crash-recovery "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv0);
    return 2;
}

bool
parseNumber(const char *text, double lo, double hi, double &out)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
        v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".bench_build/perfbench-out";
    double seed = -1.0, seconds = -1.0, trace = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ok = parseNumber(val, 0, 9007199254740992.0, seed) &&
                 seed == std::floor(seed);
        else if (arg == "--seconds")
            ok = parseNumber(val, 0.001, 3600, seconds);
        else if (arg == "--trace")
            ok = parseNumber(val, 0, 1, trace) && trace == std::floor(trace);
        else if (arg == "--out-dir")
            out_dir = val;
        else
            ok = false;
        if (!ok)
            return usage(argv[0]);
    }
    if (seed < 0 || seconds < 0 || trace < 0)
        return usage(argv[0]);

    WorkloadOptions opts;
    opts.seed = static_cast<uint64_t>(seed);
    opts.work_dir = out_dir + "/crash-work";
    std::unique_ptr<BenchWorkload> (*make)(const WorkloadOptions &) = nullptr;
    if (workload == "paper-suite")
        make = makePaperSuite;
    else if (workload == "kv-serve")
        make = makeKvServe;
    else if (workload == "crash-recovery")
        make = makeCrashRecovery;
    else
        return usage(argv[0]);
    for (const std::string &dir : {out_dir, opts.work_dir}) {
        if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
            std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                         std::strerror(errno));
            return 1;
        }
    }

    // The library's counters default off; the timed passes keep them
    // off (only reference passes and the traced phase switch them on).
    obs::setCountersEnabled(false);

    Checks checks;
    std::vector<double> setup_s;
    std::unique_ptr<BenchWorkload> wl;
    for (int i = 0; i < kSetups; ++i) {
        wl.reset();
        const double t0 = wallSeconds();
        wl = make(opts);
        wl->setup(checks);
        setup_s.push_back(wallSeconds() - t0);
    }

    std::vector<Metric> metrics;
    uint32_t next_pass = 1;
    SpanLog spans;
    if (trace == 0) {
        PhaseResult r = runPhase(*wl, seconds, next_pass, checks, spans);
        SimLatency sim = wl->simLatency();
        checks.record("percentile_rule",
                      samplesBeyond(sim.samples, sim.tail_q) >=
                          kMinSamplesBeyond);
        std::printf("%s: %u timed passes, setup %.3f s (median of %d)\n",
                    workload.c_str(), r.passes, median(setup_s), kSetups);
        std::printf("sim latency per %s: mean %.1f, p%g %.1f cycles (%s) "
                    "over %llu samples\n",
                    sim.unit_of_work, sim.mean, sim.tail_q * 100, sim.tail,
                    sim.tail_exact ? "exact" : "log2-bucket estimate",
                    static_cast<unsigned long long>(sim.samples));
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"blocks_per_s", r.blocks_per_s, "blocks/s"},
            {"cpu_us_per_block", r.cpu_us_per_block, "us"},
            {"ops_per_s", r.ops_per_s, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_mean_cycles", sim.mean, "cycles"},
            {"sim_tail_cycles", sim.tail, "cycles"},
        };
    } else {
        PhaseResult plain =
            runPhase(*wl, seconds / 2, next_pass, checks, spans);
        obs::resetCounters();
        obs::setCountersEnabled(true);
        spans.setEnabled(true);
        PhaseResult traced =
            runPhase(*wl, seconds / 2, next_pass, checks, spans);
        spans.setEnabled(false);
        const obs::CountersSnapshot counters = obs::snapshotCounters();
        obs::setCountersEnabled(false);

        std::map<std::string, double> layer;
        counterLayerMetrics(counters, layer);
        wl->layerMetrics(counters, spans, layer);
        layer["sim.busy_share"] = plain.busy_share;
        layer["trace.overhead_pct"] =
            overheadPct(plain.blocks_per_s, traced.blocks_per_s);
        layer["trace.pass_self_pct"] =
            100.0 * ratio(spans.selfSeconds("pass"), spans.totalSeconds("pass"));
        layer["sim.fingerprint_mismatches"] =
            static_cast<double>(wl->crossCheckMismatches());

        std::vector<std::string> unset;
        for (const auto &[name, unit] : layerCatalog()) {
            auto it = layer.find(name);
            if (it == layer.end())
                unset.push_back(name);
            metrics.push_back(
                {name, it == layer.end() ? 0.0 : it->second, unit});
            layer.erase(name);
        }
        for (const auto &[name, value] : layer)
            std::fprintf(stderr, "metric %s is not in the catalog\n",
                         name.c_str());
        checks.record("layer_catalog", layer.empty());
        std::printf("%s: %u untraced + %u traced passes\n", workload.c_str(),
                    plain.passes, traced.passes);
        std::printf("no such work on %s (reported as 0):", workload.c_str());
        for (const std::string &name : unset)
            std::printf(" %s", name.c_str());
        std::printf("\n");
        const std::string path = out_dir + "/spans-" + workload + ".jsonl";
        if (checks.record("spans_written", spans.writeJsonl(path, workload)))
            std::printf("wrote %zu spans to %s\n", spans.spans().size(),
                        path.c_str());
    }

    for (const Metric &m : metrics)
        checks.record("metric_finite", std::isfinite(m.value));
    for (const auto &[name, counts] : checks.byName()) {
        std::printf("check %-40s %llu attempted, %llu failed\n", name.c_str(),
                    static_cast<unsigned long long>(counts.first),
                    static_cast<unsigned long long>(counts.second));
    }
    std::printf("error_rate %.6g (failed / attempted checks)\n",
                checks.errorRate());
    for (const auto &[name, counts] : checks.determinism()) {
        std::printf("determinism %-34s %llu attempted, %llu differ "
                    "(known defect, not counted as failed)\n",
                    name.c_str(), static_cast<unsigned long long>(counts.first),
                    static_cast<unsigned long long>(counts.second));
    }
    for (const Metric &m : metrics)
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", resultJson(checks, metrics).c_str());
    return 0;
}
