/**
 * @file
 * Host clocks and the benchmark's own span log.
 *
 * Spans are recorded by the driver around each public call it makes
 * into the library (never inside the library), kept in memory and
 * written out as JSON lines when the run ends. Each span names the
 * span that caused it, so a layer's self time is its duration minus
 * the time its child spans cover. A disabled log records nothing; the
 * timed runs keep it disabled.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, seconds since an arbitrary epoch. */
double wallSeconds();

/** User + system CPU seconds of this process, all threads. */
double cpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Confine the calling thread, and every thread it creates afterwards,
 * to @p n CPUs it may run on: the one it runs on now and the next ones
 * in order. Returns false when fewer are available or the call fails.
 */
bool confineToCpus(unsigned n);

/** One recorded span. */
struct Span {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0; //!< 0 = a root span
    uint32_t pass = 0;   //!< pass index the span belongs to
    double start_s = 0.0;
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
};

/** In-memory span log for one run. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Records one span from construction to destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, uint32_t pass);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        size_t index_ = SIZE_MAX; //!< SIZE_MAX = not recording
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span called @p name. */
    double totalSeconds(const std::string &name) const;

    /** Summed self time (duration minus child spans) of @p name. */
    double selfSeconds(const std::string &name) const;

    /** Number of spans called @p name. */
    uint64_t count(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path,
                    const std::string &workload) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<size_t> open_; //!< indices of the open spans, innermost last
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
