/**
 * @file
 * LP + periodic checkpointing (Sec. IV-A): bounding recovery work.
 *
 * LP alone cannot bound how *old* an unpersisted region may be, so the
 * paper combines it with periodic whole-cache flushes: only regions
 * newer than the last flush ever need validation/recovery. This
 * example runs a multi-launch iterative computation, flushes every K
 * launches, crashes at a random point, and reports how many blocks
 * recovery had to re-execute for several K — showing the paper's
 * trade-off between checkpoint frequency and recovery work.
 *
 * Run: ./checkpoint_interval
 */

#include <cstdio>

#include "core/recovery.h"
#include "core/runtime.h"

using namespace gpulp;

namespace {

struct TrialResult {
    uint64_t blocks_failed;
    bool correct;
};

/**
 * Run @p launches chained vector updates (state = 2*state + 1 per
 * launch), flushing every @p checkpoint_every launches, crashing near
 * the end, then validate/recover and check the final state.
 */
TrialResult
runTrial(uint32_t launches, uint32_t checkpoint_every)
{
    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 32 * 1024; // small: plenty of dirty loss
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    LaunchConfig cfg(Dim3(32), Dim3(32));
    const uint64_t n = cfg.numBlocks() * 32;
    auto in = ArrayRef<float>::allocate(dev.mem(), n);
    auto out = ArrayRef<float>::allocate(dev.mem(), n);
    for (uint64_t i = 0; i < n; ++i)
        in.hostAt(i) = static_cast<float>(i % 17);

    // One LP runtime per launch generation; double buffering in/out.
    nvm.persistAll();

    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    auto step_kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        uint64_t i = t.globalThreadIdx();
        float v = 2.0f * t.load(in, i) + 1.0f;
        t.store(out, i, v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };

    // Expected final value after `launches` applications.
    auto expected = [&](float x0) {
        float x = x0;
        for (uint32_t k = 0; k < launches; ++k)
            x = 2.0f * x + 1.0f;
        return x;
    };
    std::vector<float> x0(n);
    for (uint64_t i = 0; i < n; ++i)
        x0[i] = in.hostAt(i);

    // Crash during the last launch. State between checkpoints is
    // only lazily persistent; the checkpoint both flushes the cache
    // and resets the checksum table so validation is scoped to the
    // launches since the last checkpoint.
    lp.reset();
    nvm.persistAll();
    for (uint32_t k = 0; k < launches; ++k) {
        if (k + 1 == launches)
            nvm.crashAfterStores(700);
        LaunchResult r = dev.launch(cfg, step_kernel);
        if (r.crashed)
            break;
        // Host-side double buffer: out becomes the next input.
        for (uint64_t i = 0; i < n; ++i)
            in.hostAt(i) = out.hostAt(i);
        if ((k + 1) % checkpoint_every == 0) {
            lp.reset();
            nvm.persistAll(); // the periodic checkpoint
        }
    }

    nvm.crash();

    // Only the final (crashed) launch's regions need validation: the
    // checkpoint made everything older durable.
    RecoveryReport report = persistRecover(
        dev, cfg, *ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            ChecksumAccum acc = ctx.makeAccum();
            acc.protectFloat(t, t.load(out, t.globalThreadIdx()));
            // lpValidateRegion is a collective: every thread calls it.
            bool ok = lpValidateRegion(t, ctx, acc);
            if (t.flatThreadIdx() == 0 && !ok)
                failed.markFailed(t, t.blockRank());
        },
        [&](ThreadCtx &t) { step_kernel(t); });

    // The recomputed final state must be exact... but only if the
    // pre-crash iterations were checkpointed. If the checkpoint
    // interval exceeds the crash point, older un-persisted launches
    // lose data that LP (scoped to the last launch) cannot see —
    // exactly why the paper pairs LP with periodic flushes.
    bool correct = true;
    for (uint64_t i = 0; i < n; ++i) {
        if (out.hostAt(i) != expected(x0[i])) {
            correct = false;
            break;
        }
    }
    return {report.blocks_failed, correct};
}

} // namespace

int
main()
{
    const uint32_t launches = 8;
    std::printf("Iterative kernel, %u chained launches, crash in the "
                "last one.\n\n",
                launches);
    std::printf("%-22s %-18s %s\n", "checkpoint interval",
                "blocks recovered", "final state");
    bool all_safe_correct = true;
    for (uint32_t every : {1u, 2u, 4u}) {
        TrialResult r = runTrial(launches, every);
        std::printf("every %-2u launches      %-18llu %s\n", every,
                    static_cast<unsigned long long>(r.blocks_failed),
                    r.correct ? "exact" : "STALE (interval too long)");
        all_safe_correct = all_safe_correct && (every != 1 || r.correct);
    }
    std::printf("\nTake-away: LP handles the crashed launch; periodic "
                "flushes bound how much\nolder state can be lost "
                "(Sec. IV-A's MTBF/recovery-time trade-off).\n");
    return all_safe_correct ? 0 : 1;
}
