#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "paper_refs.h"

namespace perfbench {

uint64_t
samplesBeyond(uint64_t n, double q)
{
    // A small epsilon keeps n * (1 - q) from losing a whole sample to
    // rounding (200 * 0.05 is 9.999... in binary).
    return static_cast<uint64_t>(
        std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

namespace {

/** Interpolated quantile of an already-sorted, non-empty sample. */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    if (samples.empty() || q < 0.0 || q >= 1.0 ||
        samplesBeyond(samples.size(), q) < kMinSamplesBeyond)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    return sortedQuantile(samples, q);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(samples.begin(), samples.end());
    return sortedQuantile(samples, 0.5);
}

double
overheadErrPp(std::span<const double> overhead_pct)
{
    if (overhead_pct.size() != gpulp::paper::kCount)
        throw std::invalid_argument("overheadErrPp needs the eight kernels");
    double sum = 0.0;
    for (int i = 0; i < gpulp::paper::kCount; ++i)
        sum += std::fabs(overhead_pct[i] - gpulp::paper::kArrayShfl[i]);
    return sum / gpulp::paper::kCount;
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t hash)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
Checks::record(const std::string &name, bool ok)
{
    auto &cell = by_name_[name];
    ++cell.first;
    ++attempted_;
    if (!ok) {
        ++cell.second;
        ++failed_;
    }
    return ok;
}

bool
Checks::recordDeterminism(const std::string &name, bool ok)
{
    auto &cell = determinism_[name];
    ++cell.first;
    cell.second += !ok;
    return ok;
}

double
Checks::errorRate() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
overheadPct(double untraced, double traced)
{
    return untraced <= 0.0 ? 0.0 : (untraced - traced) / untraced * 100.0;
}

std::string
resultJson(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        // %.17g keeps every digit the measurement has.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
