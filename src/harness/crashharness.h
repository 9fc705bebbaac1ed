/**
 * @file
 * Real kill-9 crash-recovery harness.
 *
 * The fault campaign (faultcampaign.h) injects *simulated* crashes: a
 * latch freezes the in-process NVM model. This harness makes the
 * paper's recovery claim survive the real thing. Per crash point it:
 *
 *  1. forks a victim process that runs the LP-instrumented workload
 *     against a file-backed persist log and arms the PR-2
 *     crash-at-store countdown with the latch action set to
 *     raise(SIGKILL) — the victim dies instantly, mid-store, with
 *     only the log batches it had flushed;
 *  2. reaps the victim and checks it really died by SIGKILL;
 *  3. forks a fresh recovery process that reopens the log (truncating
 *     any torn tail the kill left), rebuilds the NVM image with
 *     NvmCache::restoreFromLog(), classifies every thread block
 *     against the golden run (true-fail / false-fail / false-pass,
 *     via the campaign's ground-truth span machinery), runs
 *     persistRecover(), and re-checks that the recovered output is
 *     byte-identical, durable and host-verified.
 *
 * With an empty log path the victim runs the default in-memory device:
 * the kill then loses *everything*, and the harness checks the
 * degenerate-but-honest path — validation flags every block and
 * recovery re-executes the whole grid from re-initialized inputs.
 *
 * The golden image is computed once in the launching process and
 * handed to recovery children through a file, so a recovered match
 * also certifies cross-process determinism of the simulator.
 *
 * A harness run passes iff every victim died by SIGKILL, no trial saw
 * a false-pass (silent corruption), and every recovery converged to
 * the golden bytes.
 */

#ifndef GPULP_HARNESS_CRASHHARNESS_H
#define GPULP_HARNESS_CRASHHARNESS_H

#include <cstdio>
#include <string>
#include <vector>

#include "core/lp_config.h"

namespace gpulp {

/** What to run, where to crash, and which device backs it. */
struct CrashHarnessOptions {
    /** Workload to kill; must implement blockOutputSpans(). */
    std::string workload = "tmm";

    /** Workload scale in (0, 1]; every crash point costs a victim and
     *  a recovery process, so keep it small. */
    double scale = 0.004;

    /** Seed for the Prng-random crash points. */
    uint64_t seed = 1;

    /** Evenly-spaced kill points over the observed-store count. */
    uint32_t grid_points = 4;

    /** Additional Prng-drawn kill points. */
    uint32_t random_points = 2;

    /** Worker threads in victim/recovery processes. At 1 the kill
     *  store-index is exactly reproducible; at higher counts the kill
     *  point is schedule-dependent but every trial still dies and
     *  must still recover. */
    uint32_t num_workers = 1;

    /** NVM cache size; small, so natural evictions persist a partial
     *  image before the kill (see CampaignOptions). */
    size_t nvm_cache_bytes = 16 * 1024;

    TableKind table = TableKind::GlobalArray;
    ChecksumKind checksum = ChecksumKind::ModularParity;

    /** Use the file-backed persist log (true) or the in-memory device
     *  whose contents the kill annihilates (false). */
    bool file_device = true;

    /** Persist-log batch-buffer size for victim and recovery. Small by
     *  default — these workloads evict few lines, and with the 64 KiB
     *  library default the batch would never flush before the kill,
     *  collapsing every file-device trial into total loss. */
    size_t log_batch_bytes = 2 * 1024;

    /** Log file path; empty picks <work_dir>/persist.log. */
    std::string log_path;

    /** Scratch directory for the log, golden image and per-trial
     *  result files; empty creates (and cleans up) a mkdtemp dir. */
    std::string work_dir;

    /** Keep scratch files for inspection instead of deleting them. */
    bool keep_files = false;
};

/** Outcome of one kill point. */
struct CrashTrialResult {
    uint64_t crash_point = 0;      //!< stores observed before the kill
    bool killed_by_sigkill = false; //!< victim died by SIGKILL, not exit

    // Log forensics from the recovery process (file device only).
    uint64_t log_bytes_at_death = 0; //!< durable log bytes after reopen
    uint64_t entries_replayed = 0;   //!< live entries restored
    uint64_t torn_tail_bytes = 0;    //!< bytes the kill tore mid-append
    uint64_t crc_rejected = 0;       //!< complete-but-corrupt entries

    // Classification of the restored image (see BlockClassification).
    uint64_t corrupt_blocks = 0;
    uint64_t flagged_blocks = 0;
    uint64_t true_fails = 0;
    uint64_t false_fails = 0;
    uint64_t false_passes = 0;     //!< silent corruption — must be 0

    uint64_t blocks_recovered = 0;
    uint64_t recovery_rounds = 0;
    bool converged = false;
    bool output_matches_golden = false; //!< durable output == golden
    bool verify_ok = false;        //!< workload host-reference check

    bool passed() const;
};

/** Whole-harness outcome for one (workload, device) pair. */
struct CrashHarnessResult {
    CrashHarnessOptions options;
    uint64_t num_blocks = 0;
    uint64_t golden_stores = 0;    //!< kill points are drawn over these
    std::vector<CrashTrialResult> trials;

    bool passed() const;
};

/**
 * Run the kill/recover sweep. Fatal on configuration errors (unknown
 * workload, no output spans, bad scale). Forks two processes per
 * crash point; the caller must not hold locks other threads need.
 */
CrashHarnessResult runCrashHarness(const CrashHarnessOptions &opts);

/** Emit one harness result as a JSON object to @p out. */
void writeCrashHarnessJson(const CrashHarnessResult &result,
                           std::FILE *out);

} // namespace gpulp

#endif // GPULP_HARNESS_CRASHHARNESS_H
