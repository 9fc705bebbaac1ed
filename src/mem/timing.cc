#include "timing.h"

#include <algorithm>
#include <cmath>

namespace gpulp {

namespace {

/** Atomics and locks serialize on 4-byte words at the L2. */
inline Addr
wordOf(Addr addr)
{
    return addr & ~Addr{3};
}

} // namespace

MemTiming::MemTiming(const TimingParams &params) : params_(params)
{
    GPULP_ASSERT(params_.num_sms > 0, "need at least one SM");
    GPULP_ASSERT(params_.bytes_per_cycle > 0, "bandwidth must be positive");
}

void
MemTiming::reset()
{
    stats_ = MemTrafficStats{};
    busy_.clear();
    trace_.clear();
}

Cycles
MemTiming::onGlobalLoad(size_t bytes)
{
    ++stats_.global_loads;
    stats_.bytes_read += bytes;
    return params_.global_issue_cycles;
}

Cycles
MemTiming::onGlobalStore(size_t bytes)
{
    ++stats_.global_stores;
    stats_.bytes_written += bytes;
    return params_.global_issue_cycles;
}

Cycles
MemTiming::claimSlot(Addr word, Cycles now)
{
    ++stats_.global_atomics;
    Cycles &busy = busy_[word];
    Cycles start = now;
    if (busy > now) {
        ++stats_.atomic_conflicts;
        stats_.atomic_wait_cycles += busy - now;
        start = busy;
    }
    busy = start + params_.atomic_service_cycles;
    return start;
}

void
MemTiming::raiseBusy(Addr word, Cycles until)
{
    Cycles &busy = busy_[word];
    if (until > busy)
        busy = until;
}

Cycles
MemTiming::busyHorizon(Addr word) const
{
    auto it = busy_.find(word);
    return it == busy_.end() ? 0 : it->second;
}

Cycles
MemTiming::lockDoneFromSlot(Cycles slot, Cycles issue) const
{
    Cycles done = slot + params_.atomic_roundtrip_cycles +
                  params_.lock_handoff_cycles;
    // Convoy effect: the backlog this acquirer sat in measures how many
    // warps are spinning on the lock line; their traffic slows the very
    // handoff they wait for (see TimingParams::lock_spin_shift).
    Cycles wait = done - issue;
    done += std::min<Cycles>(wait >> params_.lock_spin_shift,
                             params_.lock_spin_cap_cycles);
    return done;
}

Cycles
MemTiming::onAtomic(Addr addr, Cycles now, uint32_t tid)
{
    Addr word = wordOf(addr);
    Cycles slot = claimSlot(word, now);
    trace_.push_back({TraceEvent::Kind::Atomic, tid, word, now, slot, 0});
    return slot + params_.atomic_roundtrip_cycles;
}

Cycles
MemTiming::onLockAcquire(Addr addr, Cycles now, uint32_t tid)
{
    Addr word = wordOf(addr);
    Cycles slot = claimSlot(word, now);
    Cycles done = lockDoneFromSlot(slot, now);
    // Nobody else can take the lock while the handoff is in flight.
    raiseBusy(word, done);
    trace_.push_back(
        {TraceEvent::Kind::LockAcquire, tid, word, now, slot, done});
    return done;
}

void
MemTiming::holdAddressUntil(Addr addr, Cycles until, uint32_t tid)
{
    Addr word = wordOf(addr);
    raiseBusy(word, until);
    trace_.push_back({TraceEvent::Kind::Hold, tid, word, 0, 0, until});
}

Cycles
MemTiming::bandwidthCycles() const
{
    return static_cast<Cycles>(
        std::llround(static_cast<double>(stats_.totalBytes()) /
                     params_.bytes_per_cycle));
}

void
MemTiming::mergeStats(const MemTrafficStats &other)
{
    stats_.global_loads += other.global_loads;
    stats_.global_stores += other.global_stores;
    stats_.global_atomics += other.global_atomics;
    stats_.bytes_read += other.bytes_read;
    stats_.bytes_written += other.bytes_written;
    stats_.atomic_conflicts += other.atomic_conflicts;
    stats_.atomic_wait_cycles += other.atomic_wait_cycles;
}

Cycles
MemTiming::replayBlock(Cycles start, Cycles local_end,
                       const std::vector<TraceEvent> &events,
                       const std::vector<Cycles> &thread_end)
{
    if (events.empty())
        return start + local_end;

    // Extra delay each thread accumulated from cross-block queueing;
    // all of a thread's later local cycles shift by its current skew.
    std::vector<Cycles> skew(thread_end.size(), 0);

    for (const TraceEvent &ev : events) {
        GPULP_ASSERT(ev.tid < skew.size(), "trace tid out of range");
        switch (ev.kind) {
        case TraceEvent::Kind::Atomic: {
            // The local phase already counted this block's internal
            // queueing (and baked it into ev.slot); only the additional
            // delay imposed by other blocks' slots counts here.
            Cycles expected = start + ev.slot + skew[ev.tid];
            Cycles horizon = busyHorizon(ev.word);
            Cycles actual = std::max(expected, horizon);
            if (actual > expected) {
                ++stats_.atomic_conflicts;
                stats_.atomic_wait_cycles += actual - expected;
                skew[ev.tid] += actual - expected;
            }
            raiseBusy(ev.word, actual + params_.atomic_service_cycles);
            break;
        }
        case TraceEvent::Kind::LockAcquire: {
            // The convoy depends on the global queue: recompute the
            // handoff in full at the block's absolute position.
            Cycles issue = start + ev.issue + skew[ev.tid];
            Cycles expected = start + ev.slot + skew[ev.tid];
            Cycles horizon = busyHorizon(ev.word);
            Cycles actual = std::max(expected, horizon);
            if (actual > expected) {
                ++stats_.atomic_conflicts;
                stats_.atomic_wait_cycles += actual - expected;
            }
            Cycles done = lockDoneFromSlot(actual, issue);
            Cycles predicted = start + ev.done + skew[ev.tid];
            if (done > predicted)
                skew[ev.tid] += done - predicted;
            raiseBusy(ev.word,
                      std::max(actual + params_.atomic_service_cycles, done));
            break;
        }
        case TraceEvent::Kind::Hold:
            raiseBusy(ev.word, start + ev.done + skew[ev.tid]);
            break;
        }
    }

    Cycles end = start + local_end;
    for (size_t t = 0; t < thread_end.size(); ++t)
        end = std::max(end, start + thread_end[t] + skew[t]);
    return end;
}

} // namespace gpulp
