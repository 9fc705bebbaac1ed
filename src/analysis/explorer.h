/**
 * @file
 * The schedule-exploration engine: stateless model checking of the
 * event-driven block scheduler, GPUMC-style.
 *
 * Two layers:
 *
 *  - exploreSchedules(): the generic loop. Installs a schedule-policy
 *    factory on a Device per explored schedule and invokes a
 *    caller-supplied run callback (which launches kernels and checks
 *    its own invariants). Random mode draws independent seeds;
 *    DPOR-lite mode grows forced decision prefixes from the backtrack
 *    candidates each run's trace exposes, deduplicating schedules by
 *    signature.
 *
 *  - runScheduleExploration(): the workload driver behind
 *    tools/schedule_explorer. For every (workload, policy) cell it
 *    takes a golden deterministic run, then asserts under every
 *    explored interleaving that (a) the run completes and the host
 *    reference verifies, (b) the persistent output is byte-identical
 *    to golden (the sweep's workloads only synchronize through
 *    commutative integer atomics, collectives and the rank gate, so
 *    any divergence is an ordering bug), and (c) no *novel* race
 *    appears beyond the deterministic baseline. Optionally each cell
 *    also sweeps crash-at-store points under explored schedules and
 *    asserts the PR-2 checksum-protocol invariants: zero false-passes
 *    and recovery convergence to the golden bytes.
 *
 * Determinism: fixed options explore a fixed schedule set at any
 * worker count. A rank-gate wait blocks inside the fiber and is not a
 * scheduling decision, so a block's decision sequence is a pure
 * function of its policy (for DPOR-lite, of its forced prefix).
 */

#ifndef GPULP_ANALYSIS_EXPLORER_H
#define GPULP_ANALYSIS_EXPLORER_H

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/policies.h"
#include "core/lp_config.h"
#include "obs/counters.h"

namespace gpulp {

class Device;

/** Which resume-order policy a cell explores under. */
enum class PolicyKind : uint8_t {
    Deterministic, //!< the single production schedule (baseline)
    SeededRandom,  //!< independent uniform permutations per seed
    DporLite,      //!< backtracking at conflicting decision points
};

const char *toString(PolicyKind kind);

/** Parse "deterministic" / "random" / "dpor"; fatal on junk. */
PolicyKind policyKindFromString(const std::string &name);

/** Knobs for the generic exploration loop. */
struct ExploreOptions {
    PolicyKind policy = PolicyKind::SeededRandom;
    uint64_t seed = 1;       //!< base seed (random mode)
    uint32_t schedules = 64; //!< runs (random) / max schedules (DPOR)
    /** DPOR: max new prefixes enqueued per novel schedule. */
    uint32_t max_backtracks_per_run = 16;
};

/**
 * One explored schedule's run: launch kernels on @p dev (the policy
 * factory is already installed), then append human-readable invariant
 * violations. The collector holds the merged traces of every launch
 * the callback performed.
 */
using ScheduleRunFn = std::function<void(
    uint32_t run_index, const TraceCollector &trace,
    std::vector<std::string> &violations)>;

/** Outcome of one exploreSchedules() loop. */
struct ExploreResult {
    uint64_t runs = 0;
    std::set<uint64_t> signatures; //!< distinct explored schedules
    uint64_t races_flagged = 0;    //!< HB races across all runs
    uint64_t backtracks_enqueued = 0;
    std::vector<RaceRecord> sample_races; //!< capped per-location sample
    std::vector<std::string> violations;

    uint64_t distinct() const { return signatures.size(); }
};

/**
 * Explore schedules of whatever @p run launches on @p dev. The
 * installed factory is removed before returning.
 */
ExploreResult exploreSchedules(Device &dev, const ExploreOptions &opts,
                               const ScheduleRunFn &run);

// ---------------------------------------------------------------------
// Workload-level driver (tools/schedule_explorer)
// ---------------------------------------------------------------------

/** Full sweep configuration. */
struct ExplorerOptions {
    double scale = 0.004;
    uint64_t seed = 2024;
    uint32_t schedules = 64; //!< explored schedules per cell
    std::vector<std::string> workloads = {"tmm", "spmv"};
    std::vector<PolicyKind> policies = {PolicyKind::SeededRandom,
                                        PolicyKind::DporLite};
    TableKind table = TableKind::QuadProbe; //!< lock-free insert path
    ChecksumKind checksum = ChecksumKind::ModularParity;
    /** Crash-at-store points swept per crash schedule (0 = no sweep). */
    uint32_t crash_points = 0;
    /** Explored schedules that get the crash sweep (first N distinct). */
    uint32_t crash_schedules = 2;
    /** Block workers for every cell. 0 = auto. */
    uint32_t num_workers = 1;
    size_t nvm_cache_bytes = 16 * 1024;
    /** Distinct interleavings each workload must reach across its
     *  policy cells; 0 disables the floor. */
    uint32_t min_distinct_per_workload = 0;
};

/** One (workload, policy) cell's outcome. */
struct ExplorerCellResult {
    std::string workload;
    PolicyKind policy = PolicyKind::SeededRandom;
    uint64_t runs = 0;
    uint64_t distinct = 0;
    uint64_t races_flagged = 0;
    uint64_t novel_races = 0; //!< race locations absent from baseline
    uint64_t backtracks = 0;
    uint64_t crash_trials = 0;
    uint64_t false_passes = 0;
    uint64_t unconverged = 0;
    std::vector<std::string> violations;
    std::set<uint64_t> signatures;

    bool passed() const { return violations.empty(); }
};

/** Whole-sweep outcome. */
struct ExplorerResult {
    ExplorerOptions options;
    uint32_t workers = 0;
    std::vector<ExplorerCellResult> cells;
    obs::CountersSnapshot counters;

    /** Distinct signatures per workload, unioned across policies. */
    std::vector<std::pair<std::string, uint64_t>> workloadDistinct() const;

    /** Zero violations everywhere and every coverage floor met. */
    bool passed() const;
};

/** Run the sweep. Fatal on configuration errors. */
ExplorerResult runScheduleExploration(const ExplorerOptions &opts);

/** Emit the exploration report as JSON to @p out. */
void writeExplorationJson(const ExplorerResult &result, std::FILE *out);

} // namespace gpulp

#endif // GPULP_ANALYSIS_EXPLORER_H
