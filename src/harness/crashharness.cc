#include "crashharness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "common/prng.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "harness/faultcampaign.h"
#include "nvm/nvm_cache.h"
#include "nvm/persist_log.h"
#include "sim/device.h"
#include "workloads/workload.h"

namespace gpulp {

namespace {

// Child exit codes, chosen away from shell/signal conventions so the
// parent can tell a misconfigured harness from a genuine child death.
constexpr int kExitVictimRanToEnd = 64; //!< crash latch never tripped
constexpr int kExitChildFailed = 65;    //!< setup or I/O error in a child

/** Per-(workload, device) seed so sweeps draw independent points. */
uint64_t
harnessSeed(uint64_t seed, const std::string &workload, bool file_device)
{
    uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
    for (char c : workload)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    if (file_device)
        h ^= 1ull << 48;
    return h;
}

/**
 * The simulator stack a victim and its recovery process must rebuild
 * *identically*: same DeviceParams, same setup order, same LpRuntime
 * allocations — the log replays by raw arena address, so any layout
 * drift between processes is fatal (and restoreFromLog() checks it).
 */
struct HarnessRig {
    std::unique_ptr<Device> dev;
    std::unique_ptr<NvmCache> nvm;
    std::unique_ptr<Workload> w;
    std::unique_ptr<LpRuntime> lp;
    LpContext ctx{};
    LaunchConfig launch{};
};

HarnessRig
buildRig(const CrashHarnessOptions &opts)
{
    HarnessRig rig;
    DeviceParams dparams;
    dparams.num_workers = opts.num_workers;
    rig.dev = std::make_unique<Device>(dparams);
    NvmParams nparams;
    nparams.cache_bytes = opts.nvm_cache_bytes;
    rig.nvm = std::make_unique<NvmCache>(rig.dev->mem(), nparams);
    rig.dev->attachNvm(rig.nvm.get());

    rig.w = makeWorkload(opts.workload, opts.scale);
    rig.w->setup(*rig.dev);
    if (rig.w->outputSpans().empty()) {
        GPULP_FATAL("workload '%s' exposes no output spans; it cannot "
                    "join the crash harness",
                    opts.workload.c_str());
    }
    rig.launch = rig.w->launchConfig();
    rig.lp = std::make_unique<LpRuntime>(
        *rig.dev, campaignCellConfig(*rig.w, opts.table, opts.checksum),
        rig.launch);
    rig.ctx = rig.lp->context();
    return rig;
}

std::vector<std::vector<OutputSpan>>
collectBlockSpans(const Workload &w, uint64_t num_blocks)
{
    std::vector<std::vector<OutputSpan>> spans(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
        spans[b] = w.blockOutputSpans(b);
        GPULP_ASSERT(!spans[b].empty(), "no spans for block %llu",
                     static_cast<unsigned long long>(b));
    }
    return spans;
}

// Golden image hand-off ----------------------------------------------------
//
// The launching process computes the golden run once and serializes the
// per-block output bytes; every recovery child deserializes them. A
// byte-identical recovered output therefore also certifies that the
// simulator is deterministic *across* processes, not just within one.

bool
writeGoldenFile(const std::string &path, uint64_t golden_stores,
                const std::vector<std::vector<uint8_t>> &blocks)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    uint64_t n = blocks.size();
    bool ok = std::fwrite(&golden_stores, sizeof(golden_stores), 1, f) == 1 &&
              std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (uint64_t b = 0; ok && b < n; ++b) {
        uint64_t sz = blocks[b].size();
        ok = std::fwrite(&sz, sizeof(sz), 1, f) == 1 &&
             (sz == 0 || std::fwrite(blocks[b].data(), 1, sz, f) == sz);
    }
    return std::fclose(f) == 0 && ok;
}

bool
readGoldenFile(const std::string &path, uint64_t *golden_stores,
               std::vector<std::vector<uint8_t>> *blocks)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    uint64_t n = 0;
    bool ok = std::fread(golden_stores, sizeof(*golden_stores), 1, f) == 1 &&
              std::fread(&n, sizeof(n), 1, f) == 1;
    if (ok) {
        blocks->assign(n, {});
        for (uint64_t b = 0; ok && b < n; ++b) {
            uint64_t sz = 0;
            ok = std::fread(&sz, sizeof(sz), 1, f) == 1;
            if (ok) {
                (*blocks)[b].resize(sz);
                ok = sz == 0 ||
                     std::fread((*blocks)[b].data(), 1, sz, f) == sz;
            }
        }
    }
    std::fclose(f);
    return ok;
}

// Trial result hand-off -----------------------------------------------------
//
// The recovery child reports through a flat text line; the parent owns
// crash_point and killed_by_sigkill, the child everything else.

bool
writeTrialFile(const std::string &path, const CrashTrialResult &t)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "%llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                 "%d %d %d\n",
                 static_cast<unsigned long long>(t.log_bytes_at_death),
                 static_cast<unsigned long long>(t.entries_replayed),
                 static_cast<unsigned long long>(t.torn_tail_bytes),
                 static_cast<unsigned long long>(t.crc_rejected),
                 static_cast<unsigned long long>(t.corrupt_blocks),
                 static_cast<unsigned long long>(t.flagged_blocks),
                 static_cast<unsigned long long>(t.true_fails),
                 static_cast<unsigned long long>(t.false_fails),
                 static_cast<unsigned long long>(t.false_passes),
                 static_cast<unsigned long long>(t.blocks_recovered),
                 static_cast<unsigned long long>(t.recovery_rounds),
                 t.converged ? 1 : 0, t.output_matches_golden ? 1 : 0,
                 t.verify_ok ? 1 : 0);
    return std::fclose(f) == 0;
}

bool
readTrialFile(const std::string &path, CrashTrialResult *t)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    unsigned long long v[11] = {};
    int b[3] = {};
    bool ok = std::fscanf(f,
                          "%llu %llu %llu %llu %llu %llu %llu %llu %llu "
                          "%llu %llu %d %d %d",
                          &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                          &v[7], &v[8], &v[9], &v[10], &b[0], &b[1],
                          &b[2]) == 14;
    std::fclose(f);
    if (!ok)
        return false;
    t->log_bytes_at_death = v[0];
    t->entries_replayed = v[1];
    t->torn_tail_bytes = v[2];
    t->crc_rejected = v[3];
    t->corrupt_blocks = v[4];
    t->flagged_blocks = v[5];
    t->true_fails = v[6];
    t->false_fails = v[7];
    t->false_passes = v[8];
    t->blocks_recovered = v[9];
    t->recovery_rounds = v[10];
    t->converged = b[0] != 0;
    t->output_matches_golden = b[1] != 0;
    t->verify_ok = b[2] != 0;
    return true;
}

/**
 * The process that dies. Runs the LP kernel with the crash countdown
 * armed and the latch action pointed at raise(SIGKILL): the (point+1)-th
 * observed store kills the process mid-instruction. Anything still in
 * the persist log's batch buffer is lost with it — that unflushed
 * window is exactly the loss a real device write queue would suffer.
 */
[[noreturn]] void
runVictimProcess(const CrashHarnessOptions &opts, uint64_t point)
{
    HarnessRig rig = buildRig(opts);
    std::unique_ptr<PersistLog> log;
    if (opts.file_device) {
        PersistLogParams lp;
        lp.batch_bytes = opts.log_batch_bytes;
        log = PersistLog::open(opts.log_path, lp, /*truncate=*/true);
        if (!log)
            std::_Exit(kExitChildFailed);
        rig.nvm->attachPersistLog(log.get());
    }

    // Durable pre-kernel baseline: inputs initialized, checksum store
    // cleared. With a log attached this seeds the file with the full
    // nonzero image, so the recovery process can rebuild even regions
    // the kernel never dirtied.
    rig.nvm->persistAll();
    rig.nvm->resetStats();

    rig.nvm->setCrashLatchAction([] { ::raise(SIGKILL); });
    rig.nvm->crashAfterStores(point);
    rig.dev->launch(rig.launch,
                    [&](ThreadCtx &t) { rig.w->kernel(t, &rig.ctx); });

    // pickCrashPoints keeps every point at least two stores short of
    // the total, so reaching here means the countdown never ran out —
    // a harness bug, not a workload outcome.
    std::_Exit(kExitVictimRanToEnd);
}

/**
 * The fresh process that comes back from the dead. Reopens the log the
 * victim left behind (torn tail and all), rebuilds the NVM image,
 * classifies the damage against the golden bytes and drives
 * persistRecover() to convergence.
 */
[[noreturn]] void
runRecoveryProcess(const CrashHarnessOptions &opts, uint64_t point,
                   const std::string &golden_path,
                   const std::string &result_path)
{
    CrashTrialResult trial;
    trial.crash_point = point;

    HarnessRig rig = buildRig(opts);
    std::unique_ptr<PersistLog> log;
    if (opts.file_device) {
        PersistLogParams lp;
        lp.batch_bytes = opts.log_batch_bytes;
        log = PersistLog::open(opts.log_path, lp, /*truncate=*/false);
        if (!log)
            std::_Exit(kExitChildFailed);
        const PersistLogStats &ls = log->stats();
        trial.log_bytes_at_death = log->fileBytes() + ls.torn_tail_bytes;
        trial.entries_replayed = ls.entries_replayed;
        trial.torn_tail_bytes = ls.torn_tail_bytes;
        trial.crc_rejected = ls.crc_rejected;
        rig.nvm->attachPersistLog(log.get());
        rig.nvm->restoreFromLog();
    }
    // File device: arena now holds what the dead process persisted.
    // In-memory device: the kill annihilated the NVM image, so the
    // fresh setup state stands in for re-initialized inputs and
    // recovery must re-execute the whole grid. Either way this is the
    // durable image validation starts from.
    rig.nvm->persistAll();

    uint64_t golden_stores = 0;
    std::vector<std::vector<uint8_t>> golden_blocks;
    if (!readGoldenFile(golden_path, &golden_stores, &golden_blocks) ||
        golden_blocks.size() != rig.launch.numBlocks()) {
        std::_Exit(kExitChildFailed);
    }
    const uint64_t num_blocks = rig.launch.numBlocks();
    std::vector<std::vector<OutputSpan>> block_spans =
        collectBlockSpans(*rig.w, num_blocks);

    BlockClassification cls = classifyAgainstGolden(
        *rig.dev, rig.launch, *rig.w, rig.ctx, block_spans, golden_blocks);
    trial.corrupt_blocks = cls.corrupt_blocks;
    trial.flagged_blocks = cls.flagged_blocks;
    trial.true_fails = cls.true_fails;
    trial.false_fails = cls.false_fails;
    trial.false_passes = cls.false_passes;

    RecoveryReport rep = persistRecover(
        *rig.dev, rig.launch, *rig.ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            rig.w->validation(t, rig.ctx, failed);
        },
        [&](ThreadCtx &t) { rig.w->kernel(t, &rig.ctx); });
    trial.blocks_recovered = rep.blocks_recovered;
    trial.recovery_rounds = rep.rounds;
    trial.converged = rep.converged;

    // The recovered result must be durable: crash the model once more
    // and compare what NVM holds against the golden bytes.
    rig.nvm->crash();
    trial.output_matches_golden = true;
    for (uint64_t b = 0; b < num_blocks; ++b) {
        if (readOutputSpans(rig.dev->mem(), block_spans[b]) !=
            golden_blocks[b]) {
            trial.output_matches_golden = false;
            break;
        }
    }
    trial.verify_ok = rig.w->verify();

    if (!writeTrialFile(result_path, trial))
        std::_Exit(kExitChildFailed);
    std::_Exit(trial.passed() ? 0 : 1);
}

void
removeIfExists(const std::string &path)
{
    if (!path.empty())
        ::remove(path.c_str());
}

} // namespace

bool
CrashTrialResult::passed() const
{
    return killed_by_sigkill && false_passes == 0 && converged &&
           output_matches_golden && verify_ok;
}

bool
CrashHarnessResult::passed() const
{
    if (trials.empty())
        return false;
    for (const CrashTrialResult &t : trials) {
        if (!t.passed())
            return false;
    }
    return true;
}

CrashHarnessResult
runCrashHarness(const CrashHarnessOptions &opts_in)
{
    CrashHarnessOptions opts = opts_in;
    if (opts.scale <= 0.0 || opts.scale > 1.0)
        GPULP_FATAL("harness scale must be in (0, 1], got %f", opts.scale);
    if (opts.grid_points + opts.random_points == 0)
        GPULP_FATAL("harness needs at least one crash point");

    bool made_dir = false;
    if (opts.work_dir.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                           "/gpulp_crash_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        GPULP_ASSERT(::mkdtemp(buf.data()) != nullptr,
                     "mkdtemp(%s) failed: %s", tmpl.c_str(),
                     std::strerror(errno));
        opts.work_dir = buf.data();
        made_dir = true;
    }
    if (opts.file_device && opts.log_path.empty())
        opts.log_path = opts.work_dir + "/persist.log";
    const std::string golden_path = opts.work_dir + "/golden.bin";
    const std::string result_path = opts.work_dir + "/trial.txt";

    CrashHarnessResult result;
    result.options = opts;

    // Golden phase, in this process, scoped so the Device's worker
    // threads are joined before the first fork() — forking with live
    // simulator threads would duplicate a half-locked ThreadPool.
    {
        HarnessRig rig = buildRig(opts);
        result.num_blocks = rig.launch.numBlocks();
        rig.nvm->persistAll();
        rig.nvm->resetStats();
        LaunchResult gold = rig.dev->launch(
            rig.launch, [&](ThreadCtx &t) { rig.w->kernel(t, &rig.ctx); });
        GPULP_ASSERT(!gold.crashed, "golden run crashed");
        result.golden_stores = rig.nvm->stats().stores_observed;
        rig.nvm->persistAll();
        std::string why;
        GPULP_ASSERT(rig.w->verify(&why), "golden run of '%s' is wrong: %s",
                     opts.workload.c_str(), why.c_str());

        std::vector<std::vector<OutputSpan>> block_spans =
            collectBlockSpans(*rig.w, result.num_blocks);
        std::vector<std::vector<uint8_t>> golden_blocks(result.num_blocks);
        for (uint64_t b = 0; b < result.num_blocks; ++b)
            golden_blocks[b] =
                readOutputSpans(rig.dev->mem(), block_spans[b]);
        GPULP_ASSERT(
            writeGoldenFile(golden_path, result.golden_stores,
                            golden_blocks),
            "cannot write golden image %s", golden_path.c_str());
    }

    Prng rng(harnessSeed(opts.seed, opts.workload, opts.file_device));
    for (uint64_t point : pickCrashPoints(opts.grid_points,
                                          opts.random_points,
                                          result.golden_stores, rng)) {
        CrashTrialResult trial;
        trial.crash_point = point;

        pid_t victim = ::fork();
        GPULP_ASSERT(victim >= 0, "fork failed: %s", std::strerror(errno));
        if (victim == 0)
            runVictimProcess(opts, point); // dies by SIGKILL
        int status = 0;
        GPULP_ASSERT(::waitpid(victim, &status, 0) == victim,
                     "waitpid(victim) failed: %s", std::strerror(errno));
        trial.killed_by_sigkill =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;

        if (trial.killed_by_sigkill) {
            removeIfExists(result_path);
            pid_t rec = ::fork();
            GPULP_ASSERT(rec >= 0, "fork failed: %s",
                         std::strerror(errno));
            if (rec == 0)
                runRecoveryProcess(opts, point, golden_path, result_path);
            GPULP_ASSERT(::waitpid(rec, &status, 0) == rec,
                         "waitpid(recovery) failed: %s",
                         std::strerror(errno));
            bool exited_clean = WIFEXITED(status) &&
                                (WEXITSTATUS(status) == 0 ||
                                 WEXITSTATUS(status) == 1);
            if (exited_clean && !readTrialFile(result_path, &trial))
                exited_clean = false;
            // A recovery child that aborted or vanished leaves the
            // trial's recovery fields all-false, which fails it.
            (void)exited_clean;
        }
        result.trials.push_back(trial);
    }

    if (!opts.keep_files) {
        removeIfExists(result_path);
        removeIfExists(golden_path);
        if (opts.file_device) {
            removeIfExists(opts.log_path);
            removeIfExists(opts.log_path + ".compact.tmp");
        }
        if (made_dir)
            ::remove(opts.work_dir.c_str());
    }
    return result;
}

void
writeCrashHarnessJson(const CrashHarnessResult &result, std::FILE *out)
{
    const CrashHarnessOptions &o = result.options;
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"workload\": \"%s\",\n", o.workload.c_str());
    std::fprintf(out, "      \"device\": \"%s\",\n",
                 o.file_device ? "file" : "mem");
    std::fprintf(out, "      \"table\": \"%s\",\n", toString(o.table));
    std::fprintf(out, "      \"checksum\": \"%s\",\n",
                 toString(o.checksum));
    std::fprintf(out, "      \"scale\": %.6f,\n", o.scale);
    std::fprintf(out, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(o.seed));
    std::fprintf(out, "      \"workers\": %u,\n", o.num_workers);
    std::fprintf(out, "      \"num_blocks\": %llu,\n",
                 static_cast<unsigned long long>(result.num_blocks));
    std::fprintf(out, "      \"golden_stores\": %llu,\n",
                 static_cast<unsigned long long>(result.golden_stores));
    std::fprintf(out, "      \"passed\": %s,\n",
                 result.passed() ? "true" : "false");
    std::fprintf(out, "      \"trials\": [\n");
    for (size_t i = 0; i < result.trials.size(); ++i) {
        const CrashTrialResult &t = result.trials[i];
        std::fprintf(
            out,
            "        {\"crash_point\": %llu, \"sigkilled\": %s, "
            "\"log_bytes_at_death\": %llu, \"entries_replayed\": %llu, "
            "\"torn_tail_bytes\": %llu, \"crc_rejected\": %llu, "
            "\"corrupt_blocks\": %llu, \"flagged_blocks\": %llu, "
            "\"true_fails\": %llu, \"false_fails\": %llu, "
            "\"false_passes\": %llu, \"blocks_recovered\": %llu, "
            "\"rounds\": %llu, \"converged\": %s, \"durable_match\": %s, "
            "\"verify_ok\": %s}%s\n",
            static_cast<unsigned long long>(t.crash_point),
            t.killed_by_sigkill ? "true" : "false",
            static_cast<unsigned long long>(t.log_bytes_at_death),
            static_cast<unsigned long long>(t.entries_replayed),
            static_cast<unsigned long long>(t.torn_tail_bytes),
            static_cast<unsigned long long>(t.crc_rejected),
            static_cast<unsigned long long>(t.corrupt_blocks),
            static_cast<unsigned long long>(t.flagged_blocks),
            static_cast<unsigned long long>(t.true_fails),
            static_cast<unsigned long long>(t.false_fails),
            static_cast<unsigned long long>(t.false_passes),
            static_cast<unsigned long long>(t.blocks_recovered),
            static_cast<unsigned long long>(t.recovery_rounds),
            t.converged ? "true" : "false",
            t.output_matches_golden ? "true" : "false",
            t.verify_ok ? "true" : "false",
            i + 1 < result.trials.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n");
    std::fprintf(out, "    }");
}

} // namespace gpulp
