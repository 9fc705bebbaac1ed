/**
 * @file
 * paper-suite: a closed loop at 1 worker over the eight Fig. 5 kernels.
 * Each pass runs, for every kernel, a baseline launch, a lazy launch on
 * the checksum global array (Table V) and a lazy launch on lock-free
 * quadratic probing (Fig. 5), verifying the output after each lazy
 * launch. This is what reproducing the paper costs; most of its host
 * time is fiber scheduling and warp shuffles, and the quad launches make
 * the checksum store do most of its insert work.
 *
 * The seed permutes the order the kernels run in. The simulated results
 * do not depend on it: every kernel's inputs are fixed by the workload.
 */

#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/prng.h"
#include "common/stats.h"
#include "harness/faultcampaign.h"
#include "paper_refs.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace gpulp;

/** Fraction of the paper's block counts: about 2.1k blocks per launch
 *  round, so one pass takes on the order of a second at 1 worker. */
constexpr double kScale = 0.01;

/** Arena per device, as the paper benches size it. */
constexpr size_t kArenaBytes = 768ull * 1024 * 1024;

constexpr int kLaunches = 3; //!< baseline, lazy array, lazy quad

/** Simulated results of one kernel in one pass. */
struct KernelResult {
    Cycles cycles[kLaunches] = {};
    bool bw_bound[kLaunches] = {};
    uint64_t output_hash[kLaunches] = {}; //!< lazy launches only
};

struct Kernel {
    std::unique_ptr<Device> dev;
    std::unique_ptr<Workload> w;
    std::unique_ptr<PersistRuntime> array;
    std::unique_ptr<PersistRuntime> quad;
};

const char *const kLaunchSpan[kLaunches] = {
    "runBaseline", "runWithPersist.array", "runWithPersist.quad"};

class PaperSuite : public BenchWorkload
{
  public:
    PaperSuite(const WorkloadOptions &opts, uint32_t workers)
        : opts_(opts), workers_(workers)
    {
    }

    uint32_t workers() const override { return workers_; }

    void
    setup(Checks &checks) override
    {
        for (const std::string &name : workloadNames()) {
            Kernel k;
            DeviceParams params;
            params.arena_bytes = kArenaBytes;
            params.num_workers = workers_;
            k.dev = std::make_unique<Device>(params);
            k.w = makeWorkload(name, kScale);
            k.w->setup(*k.dev);
            k.array = makePersistRuntime(*k.dev, LpConfig::scalable(), *k.w);
            LpConfig quad = LpConfig::naive(TableKind::QuadProbe);
            quad.load_factor = k.w->quadLoadFactor();
            k.quad = makePersistRuntime(*k.dev, quad, *k.w);
            kernels_.push_back(std::move(k));
        }
        order_.resize(kernels_.size());
        for (size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        Prng rng(opts_.seed);
        for (size_t i = order_.size() - 1; i > 0; --i)
            std::swap(order_[i], order_[rng.nextBelow(i + 1)]);

        // The reference pass doubles as the warm-up: it first-touches
        // the arenas and the fiber stack pools.
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
        std::vector<KernelResult> results;
        PassWork work = runPass(index, checks, spans, results);
        for (size_t i = 0; i < results.size(); ++i) {
            for (int l = 0; l < kLaunches; ++l) {
                checks.record("paper-suite.sim_cycles_repeat",
                              results[i].cycles[l] == ref_[i].cycles[l]);
            }
            for (int l = 1; l < kLaunches; ++l) {
                checks.record("paper-suite.output_hash_repeat",
                              results[i].output_hash[l] ==
                                  ref_[i].output_hash[l]);
            }
        }
        return work;
    }

    SimLatency
    simLatency() const override
    {
        const obs::HistSnapshot &h = ref_counters_[obs::Hist::SimBlockCycles];
        return {h.mean(), h.percentile(0.99), 0.99, false, h.count,
                "thread block (block-local cycles)"};
    }

    void
    layerMetrics(const obs::CountersSnapshot &, const SpanLog &spans,
                 std::map<std::string, double> &out) const override
    {
        const double passes =
            static_cast<double>(spans.count("runBaseline")) /
            static_cast<double>(kernels_.size());
        const double blocks = passes * static_cast<double>(blocksPerRound());
        const double base_s = spans.totalSeconds("runBaseline");
        out["sim.launch_us_per_block"] = ratio(base_s * 1e6, blocks);
        out["core.lp_extra_us_per_block.array"] = ratio(
            (spans.totalSeconds(kLaunchSpan[1]) - base_s) * 1e6, blocks);
        out["core.lp_extra_us_per_block.quad"] = ratio(
            (spans.totalSeconds(kLaunchSpan[2]) - base_s) * 1e6, blocks);

        uint64_t launches = 0, bw_bound = 0;
        std::vector<double> array_overhead, array_pct;
        for (size_t i = 0; i < ref_.size(); ++i) {
            for (int l = 0; l < kLaunches; ++l) {
                ++launches;
                bw_bound += ref_[i].bw_bound[l];
            }
            const double o =
                overheadOf(ref_[i].cycles[0], ref_[i].cycles[1]);
            array_overhead.push_back(o);
            array_pct.push_back(o * 100.0);
            out["core.lp_overhead_pct." + workloadNames()[i]] = o * 100.0;
        }
        out["mem.bw_bound_launch_share"] =
            ratio(static_cast<double>(bw_bound),
                  static_cast<double>(launches));
        out["core.lp_overhead_pct"] = geomeanOverhead(array_overhead) * 100.0;
        out["core.overhead_err_pp"] = overheadErrPp(array_pct);
    }

    uint64_t
    crossCheckMismatches() override
    {
        Checks ignored;
        PaperSuite twin(opts_, 2);
        twin.setup(ignored);
        uint64_t mismatches = 0;
        for (size_t i = 0; i < ref_.size(); ++i) {
            for (int l = 0; l < kLaunches; ++l) {
                mismatches += twin.ref_[i].cycles[l] != ref_[i].cycles[l];
                mismatches +=
                    twin.ref_[i].output_hash[l] != ref_[i].output_hash[l];
            }
        }
        return mismatches;
    }

  private:
    uint64_t
    blocksPerRound() const
    {
        uint64_t blocks = 0;
        for (const Kernel &k : kernels_)
            blocks += k.w->launchConfig().numBlocks();
        return blocks;
    }

    /** One pass over every kernel in seed order; results by kernel. */
    PassWork
    runPass(uint32_t index, Checks &checks, SpanLog &spans,
            std::vector<KernelResult> &results)
    {
        results.assign(kernels_.size(), KernelResult{});
        PassWork work;
        for (size_t i : order_) {
            Kernel &k = kernels_[i];
            KernelResult &r = results[i];
            PersistRuntime *runtimes[kLaunches] = {nullptr, k.array.get(),
                                                   k.quad.get()};
            for (int l = 0; l < kLaunches; ++l) {
                if (runtimes[l] != nullptr) {
                    SpanLog::Scope span(spans, "PersistRuntime::reset", index);
                    runtimes[l]->reset();
                }
                LaunchResult lr;
                {
                    SpanLog::Scope span(spans, kLaunchSpan[l], index);
                    lr = runtimes[l] == nullptr
                             ? runBaseline(*k.dev, *k.w)
                             : runWithPersist(*k.dev, *k.w, *runtimes[l]);
                }
                checks.record("paper-suite.launch_completed",
                              !lr.crashed &&
                                  lr.blocks_completed ==
                                      k.w->launchConfig().numBlocks());
                r.cycles[l] = lr.cycles;
                r.bw_bound[l] = lr.bandwidth_cycles >= lr.critical_path;
                work.blocks += lr.blocks_completed;
                ++work.ops;
                if (runtimes[l] == nullptr)
                    continue;
                std::string why;
                bool ok = false;
                {
                    SpanLog::Scope span(spans, "verify", index);
                    ok = k.w->verify(&why);
                }
                if (!checks.record("paper-suite.verify", ok)) {
                    std::fprintf(stderr, "verify %s: %s\n", k.w->name(),
                                 why.c_str());
                }
                std::vector<uint8_t> bytes =
                    readOutputSpans(k.dev->mem(), k.w->outputSpans());
                r.output_hash[l] = fnv1a(bytes.data(), bytes.size());
            }
        }
        return work;
    }

    WorkloadOptions opts_;
    uint32_t workers_;
    std::vector<Kernel> kernels_;
    std::vector<size_t> order_;
    std::vector<KernelResult> ref_;
    obs::CountersSnapshot ref_counters_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makePaperSuite(const WorkloadOptions &opts)
{
    return std::make_unique<PaperSuite>(opts, 1);
}

} // namespace perfbench
