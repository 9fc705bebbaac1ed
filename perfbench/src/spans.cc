#include "spans.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so
    // it would report the launching interpreter's peak when larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

bool
confineToCpus(unsigned n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return false;
    // Start from the CPU the scheduler has placed this thread on, then
    // take the next allowed ones in order.
    const int here = sched_getcpu();
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    unsigned taken = 0;
    for (int i = 0; i < CPU_SETSIZE && taken < n; ++i) {
        const int cpu = (std::max(here, 0) + i) % CPU_SETSIZE;
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &chosen);
            ++taken;
        }
    }
    return taken == n && sched_setaffinity(0, sizeof(chosen), &chosen) == 0;
}

SpanLog::Scope::Scope(SpanLog &log, std::string name, uint32_t pass)
    : log_(log)
{
    if (!log_.enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.id = static_cast<uint32_t>(log_.spans_.size() + 1);
    span.parent =
        log_.open_.empty() ? 0 : log_.spans_[log_.open_.back()].id;
    span.pass = pass;
    index_ = log_.spans_.size();
    log_.open_.push_back(index_);
    log_.spans_.push_back(std::move(span));
    log_.spans_[index_].start_s = wallSeconds();
}

SpanLog::Scope::~Scope()
{
    if (index_ == SIZE_MAX)
        return;
    log_.spans_[index_].end_s = wallSeconds();
    log_.open_.pop_back();
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            total += s.seconds();
    }
    return total;
}

double
SpanLog::selfSeconds(const std::string &name) const
{
    // Children of one span run one after another on the driver's
    // thread, so the time they cover is the sum of their durations.
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name != name)
            continue;
        double self = s.seconds();
        for (const Span &c : spans_) {
            if (c.parent == s.id)
                self -= c.seconds();
        }
        total += self;
    }
    return total;
}

uint64_t
SpanLog::count(const std::string &name) const
{
    uint64_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

bool
SpanLog::writeJsonl(const std::string &path,
                    const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start_s;
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"pass\": %u, \"id\": %u, "
                     "\"parent\": %u, \"name\": \"%s\", "
                     "\"start_us\": %.1f, \"dur_us\": %.1f}\n",
                     workload.c_str(), s.pass, s.id, s.parent,
                     s.name.c_str(), (s.start_s - epoch) * 1e6,
                     s.seconds() * 1e6);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
