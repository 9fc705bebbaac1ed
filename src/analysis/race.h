/**
 * @file
 * Happens-before race analysis over one thread block's schedule trace.
 *
 * The scheduler yields only at collectives, so a
 * block run decomposes into *scheduling segments*: the instructions a
 * thread executes between one resume and its next park/exit. The
 * tracker maintains FastTrack-style state — a vector clock per thread,
 * a vector clock per in-flight sync event, and per-byte last-access
 * epochs — and flags any pair of conflicting accesses (same byte, at
 * least one write, different threads) not ordered by the recorded
 * happens-before relation.
 *
 * Synchronization edges recorded:
 *  - barrier / warp collective: every parked arriver joins its clock
 *    into the event; the completing arrival (releaser) joins at
 *    release; every released thread (and the releaser) then joins the
 *    event clock — a full join-all, matching __syncthreads semantics.
 *  - rank gate: none. A fiber waits for leadership in place, without
 *    parking, and the gate orders blocks, not the threads of one
 *    block; see docs/SCHEDULE_EXPLORATION.md.
 *  - atomics: pairs of atomics on one address are serialized by the
 *    simulator and treated as acquire/release through a per-address
 *    clock, so atomic–atomic pairs never race; an atomic still
 *    conflicts with any *plain* access to the same bytes.
 *
 * Races are an order-independent property of the trace: the same
 * unordered pair is flagged no matter which explored interleaving
 * produced the trace. A race in a crashed run's prefix is still a
 * race.
 */

#ifndef GPULP_ANALYSIS_RACE_H
#define GPULP_ANALYSIS_RACE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/sched_policy.h"

namespace gpulp {

/** Growable vector clock over flat tids. */
class VectorClock
{
  public:
    /** Component for @p tid (0 when never set). */
    uint64_t
    get(uint32_t tid) const
    {
        return tid < c_.size() ? c_[tid] : 0;
    }

    /** Set component @p tid to max(current, value). */
    void
    raise(uint32_t tid, uint64_t value)
    {
        if (tid >= c_.size())
            c_.resize(tid + 1, 0);
        if (c_[tid] < value)
            c_[tid] = value;
    }

    /** Component-wise max with @p other. */
    void
    join(const VectorClock &other)
    {
        if (other.c_.size() > c_.size())
            c_.resize(other.c_.size(), 0);
        for (size_t i = 0; i < other.c_.size(); ++i) {
            if (c_[i] < other.c_[i])
                c_[i] = other.c_[i];
        }
    }

  private:
    std::vector<uint64_t> c_;
};

/** One flagged unordered conflicting pair. */
struct RaceRecord {
    bool shared = false;   //!< shared-memory (vs global/NVM) location
    uint32_t slot = 0;     //!< shared slot id (shared locations only)
    uint64_t addr = 0;     //!< global byte address, or offset in the slot
    uint32_t tid_a = 0;    //!< earlier access: thread
    uint32_t decision_a = 0; //!< earlier access: scheduling decision index
    AccessKind kind_a = AccessKind::Load;
    uint32_t tid_b = 0;    //!< later access: thread
    uint32_t decision_b = 0;
    AccessKind kind_b = AccessKind::Load;

    /** Stable grouping key: NVM line (128 B) or shared slot. */
    uint64_t locationKey() const;
};

/**
 * Per-block happens-before tracker. One instance per block run, driven
 * by RecordingPolicy's hooks; single-threaded by construction (hooks
 * fire on the worker running the block).
 */
class HbTracker
{
  public:
    /** Cap on retained RaceRecords; further races only count. */
    static constexpr size_t kMaxRaces = 512;

    void onBlockStart(uint32_t num_threads);

    /** @p tid begins the segment opened by decision @p decision. */
    void onResume(uint32_t tid, uint32_t decision);

    void onPark(uint32_t tid, SchedEvent ev);

    void onRelease(SchedEvent ev, const uint32_t *woken, uint32_t n,
                   uint32_t releaser);

    /**
     * Record one memory access. @p shared selects the shared-memory
     * address space; @p slot qualifies it. @p addr is a global byte
     * address or a byte offset within the slot.
     */
    void onAccess(uint32_t tid, bool shared, uint32_t slot, uint64_t addr,
                  uint32_t bytes, AccessKind kind);

    /** Races flagged so far (capped at kMaxRaces records). */
    const std::vector<RaceRecord> &races() const { return races_; }

    /** Total races flagged, including beyond the record cap. */
    uint64_t racesTotal() const { return races_total_; }

  private:
    /** Last-access epoch for one byte. */
    struct Epoch {
        uint32_t tid = SchedulePolicy::kNoTid;
        uint64_t clock = 0;
        uint32_t decision = 0;
        AccessKind kind = AccessKind::Load;
    };

    /** Per-byte cell: last write + reads since. */
    struct Cell {
        Epoch write;
        std::vector<Epoch> reads;
    };

    /** True when epoch @p e happens-before @p tid's current segment. */
    bool
    ordered(const Epoch &e, uint32_t tid) const
    {
        return vc_[tid].get(e.tid) >= e.clock;
    }

    void flag(const Epoch &earlier, uint32_t tid, AccessKind kind,
              bool shared, uint32_t slot, uint64_t addr);

    static uint64_t eventKey(SchedEvent ev);

    std::vector<VectorClock> vc_;          //!< per-tid clocks
    std::vector<uint64_t> epoch_;          //!< per-tid own component
    std::vector<uint32_t> cur_decision_;   //!< per-tid current segment
    std::unordered_map<uint64_t, VectorClock> event_vc_;
    std::unordered_map<uint64_t, VectorClock> atomic_vc_; //!< per address
    std::unordered_map<uint64_t, Cell> cells_; //!< per byte key
    std::vector<RaceRecord> races_;
    uint64_t races_total_ = 0;
    /** (tid, clock) pairs already flagged within one onAccess call. */
    std::vector<std::pair<uint32_t, uint64_t>> flagged_this_access_;
};

} // namespace gpulp

#endif // GPULP_ANALYSIS_RACE_H
