/**
 * @file
 * Persistent tiled matrix multiplication — the paper's running example
 * (Listing 2), end to end.
 *
 * Demonstrates the full LP lifecycle on a real kernel: a shared-memory
 * tiled matmul runs with LP protection under several design points
 * (quadratic probing, cuckoo, the bucketized two-choice backends,
 * global array — GPULP_TABLE et al. select more, see README), a crash
 * is injected, and
 * recovery restores the exact result. Also prints the modelled
 * overhead of each design point for this kernel, miniature Fig. 5.
 *
 * Run: ./persistent_matmul
 */

#include <cstdio>

#include "core/recovery.h"
#include "workloads/tmm.h"

using namespace gpulp;

namespace {

/** Overhead of one LP configuration versus the baseline. */
void
reportOverhead(Device &dev, TmmWorkload &tmm, Cycles baseline,
               LpConfig cfg, const char *label)
{
    if (cfg.load_factor <= 0.0) {
        if (cfg.table == TableKind::QuadProbe)
            cfg.load_factor = tmm.quadLoadFactor();
        if (cfg.table == TableKind::Cuckoo)
            cfg.load_factor = tmm.cuckooLoadFactor();
    }
    LpRuntime lp(dev, cfg, tmm.launchConfig());
    LaunchResult run = runWithLp(dev, tmm, lp);
    std::printf("  %-22s %6.2f%%  (collisions: %llu)\n", label,
                100.0 * overheadOf(baseline, run.cycles),
                static_cast<unsigned long long>(
                    lp.store().stats().collisions));
}

} // namespace

int
main()
{
    // A scaled-down grid keeps this example instant; the bench suite
    // runs the paper-scale 16384-block version.
    const double scale = 0.05;

    std::printf("== LP design points on tiled matmul ==\n");
    {
        DeviceParams params;
        params.arena_bytes = 256ull * 1024 * 1024;
        Device dev(params);
        TmmWorkload tmm(scale);
        tmm.setup(dev);
        Cycles baseline = runBaseline(dev, tmm).cycles;
        std::string why;
        std::printf("baseline verified: %s\n",
                    tmm.verify(&why) ? "yes" : why.c_str());
        reportOverhead(dev, tmm, baseline,
                       LpConfig::naive(TableKind::QuadProbe),
                       "quad + shuffle");
        reportOverhead(dev, tmm, baseline,
                       LpConfig::naive(TableKind::Cuckoo),
                       "cuckoo + shuffle");
        reportOverhead(dev, tmm, baseline,
                       LpConfig::naive(TableKind::Bucket2),
                       "bucket2 + shuffle");
        reportOverhead(dev, tmm, baseline,
                       LpConfig::naive(TableKind::Bucket2Opt),
                       "bucket2opt + shuffle");
        reportOverhead(dev, tmm, baseline, LpConfig::scalable(),
                       "global array + shuffle");
        // GPULP_TABLE / GPULP_LOCK / GPULP_LOAD_FACTOR pick any backend
        // without a rebuild (see README "Selecting a backend").
        LpConfig env_cfg = applyConfigEnv(LpConfig::scalable());
        reportOverhead(dev, tmm, baseline, env_cfg,
                       (configLabel(env_cfg) + " (env)").c_str());
    }

    std::printf("\n== Crash and recovery ==\n");
    DeviceParams params;
    params.arena_bytes = 256ull * 1024 * 1024;
    Device dev(params);
    NvmParams nvm_params;
    nvm_params.cache_bytes = 256 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    TmmWorkload tmm(scale);
    tmm.setup(dev);
    LpRuntime lp(dev, LpConfig::scalable(), tmm.launchConfig());
    LpContext ctx = lp.context();

    nvm.persistAll();
    nvm.crashAfterStores(20000); // mid-run power failure

    LaunchResult run = dev.launch(tmm.launchConfig(), [&](ThreadCtx &t) {
        tmm.kernel(t, &ctx);
    });
    std::printf("matmul %s after %llu of %llu blocks\n",
                run.crashed ? "CRASHED" : "completed",
                static_cast<unsigned long long>(run.blocks_completed),
                static_cast<unsigned long long>(
                    tmm.launchConfig().numBlocks()));
    nvm.crash();

    RecoveryReport report = persistRecover(
        dev, tmm.launchConfig(), *ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            tmm.validation(t, ctx, failed);
        },
        [&](ThreadCtx &t) { tmm.kernel(t, &ctx); });
    std::printf("recovery re-executed %llu blocks "
                "(validate %llu cyc, recover %llu cyc)\n",
                static_cast<unsigned long long>(report.blocks_recovered),
                static_cast<unsigned long long>(report.validate_cycles),
                static_cast<unsigned long long>(report.recover_cycles));

    std::string why;
    bool ok = tmm.verify(&why);
    std::printf("result after recovery: %s\n",
                ok ? "PASS (exact)" : why.c_str());
    return ok ? 0 : 1;
}
