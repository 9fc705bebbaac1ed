/**
 * @file
 * The statistics and bookkeeping rules the benchmark driver applies to
 * every workload: the percentile rule, medians, the
 * paper-error figure, simulated-result fingerprints, named correctness
 * checks and the metric list a run prints.
 */

#ifndef PERFBENCH_BENCH_STATS_H
#define PERFBENCH_BENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/** Samples a reported percentile needs beyond it. */
constexpr uint64_t kMinSamplesBeyond = 10;

/** Samples of @p n that lie beyond the @p q-quantile (q in [0, 1)). */
uint64_t samplesBeyond(uint64_t n, double q);

/**
 * The @p q-quantile of @p samples by linear interpolation between
 * closest ranks, or nothing when fewer than kMinSamplesBeyond samples
 * lie beyond it: a tail read off a handful of samples is noise.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Median of a non-empty sample (interpolated for even sizes). */
double median(std::vector<double> samples);

/**
 * Mean absolute difference, in percentage points, between the eight
 * simulated global-array overheads (percent, paper suite order) and
 * Table V of the paper (bench/paper_refs.h).
 */
double overheadErrPp(std::span<const double> overhead_pct);

/** FNV-1a over a byte range, continuing from @p hash. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t hash = 0xcbf29ce484222325ull);

/**
 * An order-sensitive hash of simulated results. Two runs of the same
 * inputs must produce equal fingerprints at any worker count.
 */
class Fingerprint
{
  public:
    /** Fold one value. */
    void add(uint64_t value) { hash_ = fnv1a(&value, sizeof(value), hash_); }

    /** Fold a byte range (e.g. a kernel's output). */
    void addBytes(const void *data, size_t bytes)
    {
        hash_ = fnv1a(data, bytes, hash_);
    }

    uint64_t value() const { return hash_; }

    bool operator==(const Fingerprint &other) const = default;

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Named correctness checks. Every evaluation counts as attempted; a
 * failure is kept by name and never dropped, so the run's output can
 * say which check failed and how often.
 *
 * Cross-worker-count checks (a run at 2 workers must reproduce the
 * simulated results of 1 worker) are kept apart: they are printed by
 * name with their counts every run but do not count as failed
 * operations, because the simulator at this commit is known to break
 * that contract (see BENCHMARK.md, "Known defects").
 */
class Checks
{
  public:
    /** Record one evaluation of @p name; returns @p ok. */
    bool record(const std::string &name, bool ok);

    /** Record one cross-worker-count comparison; returns @p ok. */
    bool recordDeterminism(const std::string &name, bool ok);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** failed / attempted (0 when nothing was attempted). */
    double errorRate() const;

    /** Per-check {attempted, failed}, by name. */
    const std::map<std::string, std::pair<uint64_t, uint64_t>> &
    byName() const
    {
        return by_name_;
    }

    /** Cross-worker-count comparisons {attempted, failed}, by name. */
    const std::map<std::string, std::pair<uint64_t, uint64_t>> &
    determinism() const
    {
        return determinism_;
    }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> by_name_;
    std::map<std::string, std::pair<uint64_t, uint64_t>> determinism_;
};

/** One reported number. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** @p num / @p den, or 0 when there is no denominator (no such work). */
double ratio(double num, double den);

/** Share (percent) by which @p traced falls below @p untraced. */
double overheadPct(double untraced, double traced);

/**
 * The result line a run ends with: one JSON object holding the check
 * verdict, the attempted/failed check counts and every metric.
 */
std::string resultJson(const Checks &checks,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_H
