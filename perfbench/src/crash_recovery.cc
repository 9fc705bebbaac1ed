/**
 * @file
 * crash-recovery: crash trials at 1 worker across all five persistency
 * models. Trials come from fault-campaign cells, run one cell at a time
 * (lazy on the global array and on quadratic probing, then eager,
 * strict, epoch-block and epoch-kernel), and from a kill -9 trial on the
 * file-backed persist log. NVM rewind, the persist log, the flush-based
 * strategies and both recovery drivers do the work here; none of it
 * runs in paper-suite. The seed drives the campaign's random crash
 * points.
 *
 * The workload is sized by choosing cells, never by dropping a model:
 * trial cost varies about 100x by kernel, so it uses the two kernels
 * whose trials are cheap (mri-q and spmv).
 */

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "harness/crashharness.h"
#include "harness/faultcampaign.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gpulp;

constexpr double kScale = 0.004;

struct CellSpec {
    const char *workload;
    PersistModel model;
    TableKind table;
};

const CellSpec kCells[] = {
    {"mri-q", PersistModel::Lazy, TableKind::GlobalArray},
    {"mri-q", PersistModel::Lazy, TableKind::QuadProbe},
    {"mri-q", PersistModel::Eager, TableKind::GlobalArray},
    {"mri-q", PersistModel::Strict, TableKind::GlobalArray},
    {"mri-q", PersistModel::EpochBlock, TableKind::GlobalArray},
    {"mri-q", PersistModel::EpochKernel, TableKind::GlobalArray},
    {"spmv", PersistModel::Lazy, TableKind::GlobalArray},
    {"spmv", PersistModel::Lazy, TableKind::QuadProbe},
    {"spmv", PersistModel::Eager, TableKind::GlobalArray},
    {"spmv", PersistModel::Strict, TableKind::GlobalArray},
    {"spmv", PersistModel::EpochBlock, TableKind::GlobalArray},
    {"spmv", PersistModel::EpochKernel, TableKind::GlobalArray},
};

constexpr PersistModel kModels[] = {
    PersistModel::Lazy, PersistModel::Eager, PersistModel::Strict,
    PersistModel::EpochBlock, PersistModel::EpochKernel};

/**
 * Campaign crash points per cell: 24 grid + 16 seeded random, so the
 * trials, not the per-cell device set-up, fill most of a pass.
 */
constexpr uint32_t kGridPoints = 24;
constexpr uint32_t kRandomPoints = 16;

/**
 * Kill -9 trials per pass (lazy, global array, tmm): one, at the
 * middle of the store count. Each costs two forked processes and the
 * log's fdatasync calls, which wait on the disk the checkout sits on,
 * so they are kept to a small share of a pass.
 */
constexpr uint32_t kKillGrid = 1;
constexpr uint32_t kKillRandom = 0;

std::string
cellSpan(PersistModel model)
{
    return std::string("runFaultCampaign.") + toString(model);
}

/** Simulated outcome of one pass, for the repeat check. */
struct PassResult {
    std::vector<CellResult> cells;
    CrashHarnessResult kill;
};

/** Simulated fields of a campaign trial, hashed. */
uint64_t
trialHash(const TrialResult &t)
{
    Fingerprint fp;
    for (uint64_t v :
         {t.crash_point, t.torn_lines, t.corrupt_blocks, t.flagged_blocks,
          t.true_fails, t.false_fails, t.false_passes, t.blocks_recovered,
          t.recovery_rounds, t.crashes_survived, t.validate_cycles,
          t.recover_cycles})
        fp.add(v);
    return fp.value();
}

uint64_t
killTrialHash(const CrashTrialResult &t)
{
    Fingerprint fp;
    for (uint64_t v :
         {t.crash_point, t.log_bytes_at_death, t.entries_replayed,
          t.torn_tail_bytes, t.crc_rejected, t.corrupt_blocks,
          t.flagged_blocks, t.true_fails, t.false_fails, t.false_passes,
          t.blocks_recovered, t.recovery_rounds})
        fp.add(v);
    return fp.value();
}

class CrashRecovery : public BenchWorkload
{
  public:
    explicit CrashRecovery(const WorkloadOptions &opts) : opts_(opts) {}

    uint32_t workers() const override { return 1; }

    void
    setup(Checks &checks) override
    {
        obs::resetCounters();
        obs::setCountersEnabled(true);
        SpanLog off;
        runPass(0, checks, off, ref_);
        ref_counters_ = obs::snapshotCounters();
        obs::setCountersEnabled(false);
    }

    PassWork
    pass(uint32_t index, Checks &checks, SpanLog &spans) override
    {
        PassResult r;
        PassWork work = runPass(index, checks, spans, r);
        for (size_t c = 0; c < r.cells.size(); ++c) {
            const auto &trials = r.cells[c].trials;
            const auto &ref = ref_.cells[c].trials;
            checks.record("crash-recovery.trial_count_repeat",
                          trials.size() == ref.size());
            for (size_t t = 0; t < std::min(trials.size(), ref.size()); ++t)
                checks.record("crash-recovery.sim_repeat",
                              trialHash(trials[t]) == trialHash(ref[t]));
        }
        for (size_t t = 0; t < r.kill.trials.size() &&
                           t < ref_.kill.trials.size();
             ++t) {
            checks.record("crash-recovery.kill9_repeat",
                          killTrialHash(r.kill.trials[t]) ==
                              killTrialHash(ref_.kill.trials[t]));
        }
        return work;
    }

    SimLatency
    simLatency() const override
    {
        std::vector<double> cycles = recoveryCycles();
        const double mean =
            cycles.empty() ? 0.0
                           : std::accumulate(cycles.begin(), cycles.end(),
                                             0.0) /
                                 static_cast<double>(cycles.size());
        return {mean, percentile(cycles, 0.95).value_or(0.0), 0.95, true,
                cycles.size(), "campaign trial (validate + recover)"};
    }

    void
    layerMetrics(const obs::CountersSnapshot &, const SpanLog &spans,
                 std::map<std::string, double> &out) const override
    {
        const double passes =
            static_cast<double>(spans.count("runCrashHarness"));
        double cell_s = 0.0;
        for (PersistModel m : kModels) {
            uint64_t trials = 0;
            for (const CellResult &cell : ref_.cells) {
                if (cell.model == m)
                    trials += cell.trials.size();
            }
            const double s = spans.totalSeconds(cellSpan(m));
            cell_s += s;
            out[std::string("harness.cell_us_per_trial.") + toString(m)] =
                ratio(s * 1e6, passes * static_cast<double>(trials));
        }
        const double kill_trials =
            passes * static_cast<double>(ref_.kill.trials.size());
        out["harness.kill9_us_per_trial"] =
            ratio(spans.totalSeconds("runCrashHarness") * 1e6, kill_trials);
        out["sim.launch_us_per_block"] = ratio(
            cell_s * 1e6,
            passes * static_cast<double>(ref_counters_[obs::Ctr::SimBlocks]));

        double log_bytes = 0, replayed = 0, rounds = 0, trials = 0;
        double true_fails = 0, reexecuted = 0;
        for (const CrashTrialResult &t : ref_.kill.trials) {
            log_bytes += static_cast<double>(t.log_bytes_at_death);
            replayed += static_cast<double>(t.entries_replayed);
            rounds += static_cast<double>(t.recovery_rounds);
            true_fails += static_cast<double>(t.true_fails);
            reexecuted += static_cast<double>(t.blocks_recovered);
            ++trials;
        }
        const double kills = static_cast<double>(ref_.kill.trials.size());
        out["nvm.log_bytes_per_trial"] = ratio(log_bytes, kills);
        out["nvm.log_replayed_entries_per_trial"] = ratio(replayed, kills);

        std::vector<double> validate, recover;
        for (const CellResult &cell : ref_.cells) {
            for (const TrialResult &t : cell.trials) {
                rounds += static_cast<double>(t.recovery_rounds);
                true_fails += static_cast<double>(t.true_fails);
                reexecuted += static_cast<double>(t.blocks_recovered);
                // Only lazy validates with a kernel; the other models
                // read commit flags on the host and charge 0 cycles.
                if (cell.model == PersistModel::Lazy)
                    validate.push_back(
                        static_cast<double>(t.validate_cycles));
                recover.push_back(static_cast<double>(t.recover_cycles));
                ++trials;
            }
        }
        out["recovery.rounds_per_trial"] = ratio(rounds, trials);
        out["recovery.useful_reexec_ratio"] = ratio(true_fails, reexecuted);
        out["recovery.validate_cycles_p50"] =
            percentile(validate, 0.5).value_or(0.0);
        out["recovery.recover_cycles_p50"] =
            percentile(recover, 0.5).value_or(0.0);
    }

    uint64_t
    crossCheckMismatches() override
    {
        // Kill -9 trials are left out: at more than one worker the
        // harness's kill point is schedule-dependent by design.
        uint64_t mismatches = 0;
        for (const CellSpec &spec : kCells) {
            const CellFingerprint one = cellFingerprint(spec, 1);
            const CellFingerprint two = cellFingerprint(spec, 2);
            mismatches += (one.trials != two.trials) + (one.nvm != two.nvm);
        }
        return mismatches;
    }

  private:
    struct CellFingerprint {
        uint64_t trials = 0; //!< simulated cycles and verdicts per trial
        uint64_t nvm = 0;    //!< NVM line writes
    };

    /** One cell at @p workers with counters on, fingerprinted. */
    CellFingerprint
    cellFingerprint(const CellSpec &spec, uint32_t workers) const
    {
        obs::resetCounters();
        obs::setCountersEnabled(true);
        CellResult cell = runCell(spec, workers);
        const uint64_t nvm = nvmWritesFingerprint(obs::snapshotCounters());
        obs::setCountersEnabled(false);
        Fingerprint trials;
        for (const TrialResult &t : cell.trials)
            trials.add(trialHash(t));
        return {trials.value(), nvm};
    }

    CellResult
    runCell(const CellSpec &spec, uint32_t workers) const
    {
        CampaignOptions o;
        o.scale = kScale;
        o.seed = opts_.seed;
        o.grid_points = kGridPoints;
        o.random_points = kRandomPoints;
        o.num_workers = workers;
        o.workloads = {spec.workload};
        o.tables = {spec.table};
        o.models = {spec.model};
        CampaignResult r = runFaultCampaign(o);
        return r.cells.empty() ? CellResult{} : r.cells.front();
    }

    PassWork
    runPass(uint32_t index, Checks &checks, SpanLog &spans,
            PassResult &out) const
    {
        PassWork work;
        for (const CellSpec &spec : kCells) {
            CellResult cell;
            {
                SpanLog::Scope span(spans, cellSpan(spec.model), index);
                cell = runCell(spec, 1);
            }
            checks.record("crash-recovery.cell_passed", cell.passed());
            work.ops += cell.trials.size();
            out.cells.push_back(std::move(cell));
        }
        CrashHarnessOptions k;
        k.workload = "tmm";
        k.scale = kScale;
        k.seed = opts_.seed;
        k.grid_points = kKillGrid;
        k.random_points = kKillRandom;
        k.num_workers = 1;
        k.file_device = true;
        k.work_dir = opts_.work_dir;
        {
            SpanLog::Scope span(spans, "runCrashHarness", index);
            out.kill = runCrashHarness(k);
        }
        checks.record("crash-recovery.kill9_trials_run",
                      !out.kill.trials.empty());
        for (const CrashTrialResult &t : out.kill.trials)
            checks.record("crash-recovery.kill9_trial_passed", t.passed());
        work.ops += out.kill.trials.size();
        work.blocks = ref_counters_[obs::Ctr::SimBlocks];
        return work;
    }

    std::vector<double>
    recoveryCycles() const
    {
        std::vector<double> cycles;
        for (const CellResult &cell : ref_.cells) {
            for (const TrialResult &t : cell.trials)
                cycles.push_back(
                    static_cast<double>(t.validate_cycles + t.recover_cycles));
        }
        return cycles;
    }

    WorkloadOptions opts_;
    PassResult ref_;
    obs::CountersSnapshot ref_counters_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeCrashRecovery(const WorkloadOptions &opts)
{
    return std::make_unique<CrashRecovery>(opts);
}

} // namespace perfbench
