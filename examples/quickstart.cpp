/**
 * @file
 * Quickstart: protect a GPU kernel with Lazy Persistency in ~60 lines.
 *
 * The program scales a vector on the simulated GPU with LP enabled
 * (checksum global array — the paper's scalable design), injects a
 * power failure mid-kernel, rewinds memory to what actually reached
 * the NVM, then validates checksums and re-executes only the failed
 * thread blocks. No flushes, no logging, no persist barriers.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "core/recovery.h"
#include "core/runtime.h"

using namespace gpulp;

int
main()
{
    // A simulated GPU and an NVM persistency domain behind a small
    // write-back cache (small so the crash loses something).
    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 16 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    // Problem: out[i] = 3 * in[i] + 1 over 64 blocks x 64 threads.
    LaunchConfig cfg(Dim3(64), Dim3(64));
    const uint64_t n = cfg.numBlocks() * 64;
    auto in = ArrayRef<float>::allocate(dev.mem(), n);
    auto out = ArrayRef<float>::allocate(dev.mem(), n);
    for (uint64_t i = 0; i < n; ++i)
        in.hostAt(i) = 0.5f * static_cast<float>(i % 1001);

    // LP runtime: one checksum-array slot per thread block.
    LpRuntime lp(dev, LpConfig::scalable(), cfg);
    LpContext ctx = lp.context();

    // The protected kernel: every persistent store is folded into the
    // block checksum; the block commits at the end. That's all LP asks.
    auto kernel = [&](ThreadCtx &t) {
        ChecksumAccum acc = ctx.makeAccum();
        uint64_t i = t.globalThreadIdx();
        float v = 3.0f * t.load(in, i) + 1.0f;
        t.store(out, i, v);
        acc.protectFloat(t, v);
        lpCommitRegion(t, ctx, acc);
    };

    nvm.persistAll();          // inputs are durable
    nvm.crashAfterStores(3400); // pull the plug mid-kernel

    LaunchResult run = dev.launch(cfg, kernel);
    std::printf("kernel: %s after %llu of %llu blocks\n",
                run.crashed ? "CRASHED" : "completed",
                static_cast<unsigned long long>(run.blocks_completed),
                static_cast<unsigned long long>(cfg.numBlocks()));

    // Power failure: all dirty cache lines are lost.
    nvm.crash();

    // Validate every block's checksum against the data that actually
    // persisted; re-execute the blocks that fail.
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
        [&](ThreadCtx &t) {
            kernel(t); // idempotent region: just run it again
        });
    std::printf("recovery: %llu of %llu blocks failed validation and "
                "were re-executed\n",
                static_cast<unsigned long long>(report.blocks_failed),
                static_cast<unsigned long long>(report.blocks_checked));

    // Check every element against the expected result.
    uint64_t wrong = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (out.hostAt(i) != 3.0f * in.hostAt(i) + 1.0f)
            ++wrong;
    }
    std::printf("verification: %llu wrong elements -> %s\n",
                static_cast<unsigned long long>(wrong),
                wrong == 0 ? "PASS" : "FAIL");
    return wrong == 0 ? 0 : 1;
}
