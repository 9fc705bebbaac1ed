/**
 * @file
 * The three benchmark workloads behind one interface the driver loop
 * (main.cc) runs: build state, make reference passes, run timed passes,
 * and report the simulated and per-layer numbers.
 *
 * Every workload calls the library only through its public entry
 * points, so later changes inside the library are measured without
 * editing the benchmark.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bench_stats.h"
#include "obs/counters.h"
#include "spans.h"

namespace perfbench {

/** What one pass did, in the workload's own units of work. */
struct PassWork {
    uint64_t blocks = 0; //!< simulated thread blocks the pass executed
    uint64_t ops = 0;    //!< launches, acknowledged requests or trials
};

/** Simulated latency of one unit of work (cycles). */
struct SimLatency {
    double mean = 0.0;    //!< exact: sum / count of the samples
    double tail = 0.0;
    double tail_q = 0.0;  //!< the tail's quantile, e.g. 0.99
    /** False when the tail is a log2-bucket estimate (HistSnapshot::
     *  percentile), off by up to the width of its power-of-two bucket. */
    bool tail_exact = true;
    uint64_t samples = 0; //!< sample count behind both
    const char *unit_of_work = ""; //!< what one sample measures
};

/** A benchmark workload: one instance per set-up. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Host worker threads the simulated device runs on. */
    virtual uint32_t workers() const = 0;

    /**
     * Construct every device, generate the inputs from the seed and make
     * the reference pass(es) the timed passes are checked against.
     * A workload that reads counters switches them on for the
     * reference pass only.
     */
    virtual void setup(Checks &checks) = 0;

    /** One pass; every output is checked against the reference. */
    virtual PassWork pass(uint32_t index, Checks &checks,
                          SpanLog &spans) = 0;

    /**
     * The simulated latency of the workload's unit of work, from the
     * reference pass: its mean and its tail percentile.
     */
    virtual SimLatency simLatency() const = 0;

    /**
     * Per-layer metrics, by catalog name, from the counters and spans
     * of the traced passes. Names a workload does not set have no
     * such work on it and are reported as 0.
     */
    virtual void layerMetrics(const gpulp::obs::CountersSnapshot &counters,
                              const SpanLog &spans,
                              std::map<std::string, double> &out) const = 0;

    /**
     * Run one pass at 1 and at 2 workers with counters on and count the
     * simulated results (cycles, NVM line writes, output hashes) that
     * differ between the two.
     */
    virtual uint64_t crossCheckMismatches() = 0;
};

/** Shared construction parameters. */
struct WorkloadOptions {
    uint64_t seed = 1;
    std::string work_dir; //!< scratch directory inside the checkout
};

/** Hash of the NVM line-write counters, for cross-worker comparisons. */
inline uint64_t
nvmWritesFingerprint(const gpulp::obs::CountersSnapshot &c)
{
    using gpulp::obs::Ctr;
    Fingerprint fp;
    for (Ctr ctr : {Ctr::NvmStoresObserved, Ctr::NvmDirtyEvictions,
                    Ctr::NvmFlushedLines, Ctr::NvmTornLines})
        fp.add(c[ctr]);
    return fp.value();
}

std::unique_ptr<BenchWorkload> makePaperSuite(const WorkloadOptions &opts);
std::unique_ptr<BenchWorkload> makeKvServe(const WorkloadOptions &opts);
std::unique_ptr<BenchWorkload> makeCrashRecovery(const WorkloadOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
