/**
 * @file
 * Ablation: crash-recovery cost versus crash point.
 *
 * LP trades fast normal execution for work at recovery time
 * (Sec. II-A). This study injects crashes at increasing points of a
 * kernel's store stream and reports how many blocks fail validation,
 * the modelled cost of the validation and recovery kernels, and
 * whether the recovered result is exact — the "rare case" cost the
 * paper argues is worth paying for a ~2% common-case overhead.
 */

#include <cstdio>
#include <string>

#include "common/table.h"
#include "bench_env.h"
#include "harness/driver.h"

using namespace gpulp;

int
main(int argc, char **argv)
{
    BenchCli cli = benchCli("ablation_recovery", argc, argv);
    const double scale = cli.scale;
    double run_scale = scale * 0.25;
    std::printf("=== Ablation: recovery cost vs crash point on MRI-Q "
                "(scale %.3f) ===\n",
                run_scale);

    // Total stores of a clean run, to position crash points.
    uint64_t total_stores = 0;
    {
        DeviceParams params;
        params.arena_bytes = 512ull * 1024 * 1024;
        Device dev(params);
        NvmCache nvm(dev.mem(), NvmParams{});
        dev.attachNvm(&nvm);
        auto w = makeWorkload("mri-q", run_scale);
        w->setup(dev);
        LpRuntime lp(dev, LpConfig::scalable(), w->launchConfig());
        LpContext ctx = lp.context();
        nvm.persistAll();
        nvm.resetStats();
        dev.launch(w->launchConfig(),
                   [&](ThreadCtx &t) { w->kernel(t, &ctx); });
        total_stores = nvm.stats().stores_observed;
    }

    TextTable table({"Crash point", "Blocks failed", "Validate cycles",
                     "Recover cycles", "Result"});
    for (double fraction : {0.1, 0.25, 0.5, 0.75, 0.95}) {
        DeviceParams params;
        params.arena_bytes = 512ull * 1024 * 1024;
        Device dev(params);
        NvmParams nvm_params;
        // Small cache: most lines evict naturally, so later crash points
        // leave visibly fewer blocks to recover.
        nvm_params.cache_bytes = 16 * 1024;
        NvmCache nvm(dev.mem(), nvm_params);
        dev.attachNvm(&nvm);

        auto w = makeWorkload("mri-q", run_scale);
        w->setup(dev);
        LpRuntime lp(dev, LpConfig::scalable(), w->launchConfig());
        LpContext ctx = lp.context();

        nvm.persistAll();
        nvm.crashAfterStores(
            static_cast<uint64_t>(fraction * total_stores));
        dev.launch(w->launchConfig(),
                   [&](ThreadCtx &t) { w->kernel(t, &ctx); });
        nvm.crash();

        RecoveryReport report = persistRecover(
            dev, w->launchConfig(), *ctx.strategy,
            [&](ThreadCtx &t, RecoverySet &failed) {
                w->validation(t, ctx, failed);
            },
            [&](ThreadCtx &t) { w->kernel(t, &ctx); });

        std::string why;
        bool ok = w->verify(&why);
        char label[32];
        std::snprintf(label, sizeof(label), "%.0f%% of stores",
                      fraction * 100.0);
        table.addRow({label,
                      std::to_string(report.blocks_failed) + " / " +
                          std::to_string(report.blocks_checked),
                      std::to_string(report.validate_cycles),
                      std::to_string(report.recover_cycles),
                      ok ? "exact" : "WRONG"});
        if (!ok)
            std::fprintf(stderr, "verify failed: %s\n", why.c_str());
    }
    table.print();

    std::printf("\nEarlier crashes leave more blocks to re-execute; the "
                "validation pass costs the\nsame regardless (it always "
                "sweeps the whole grid). Eager recovery persists the\n"
                "result, so forward progress is guaranteed across "
                "repeated crashes (Sec. II-A).\n");
    benchFinish(cli);
    return 0;
}
