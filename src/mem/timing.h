/**
 * @file
 * GPU timing model.
 *
 * gpulp is a functional-first simulator with an analytic timing layer.
 * The layer charges cycles for the operations whose *relative* costs
 * drive every result in the paper:
 *
 *  - per-address serialization of atomic operations (hash-table
 *    collision penalties, Table II/Fig. 5) and of lock critical
 *    sections (Table III's 1000x lock-based collapses);
 *  - a bandwidth roofline over total DRAM traffic (Table IV's blow-up
 *    when checksum reduction is routed through memory instead of
 *    register shuffles);
 *  - per-warp instruction issue for compute, shared memory, shuffles
 *    and barriers.
 *
 * Cycle values are in device clocks; absolute magnitudes are loosely
 * V100-flavoured and are only meaningful as ratios.
 */

#ifndef GPULP_MEM_TIMING_H
#define GPULP_MEM_TIMING_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/memory.h"

namespace gpulp {

/** Cycle count in device clocks. */
using Cycles = uint64_t;

/**
 * Tunable timing parameters. Defaults approximate a Tesla V100
 * (80 SMs, ~900 GB/s HBM2 at ~1.38 GHz => ~650 bytes/cycle).
 */
struct TimingParams {
    uint32_t num_sms = 80;             //!< concurrent streaming MPs
    uint32_t compute_cycles = 1;       //!< per scalar ALU op
    uint32_t shared_access_cycles = 2; //!< shared-memory access (issue)
    uint32_t global_issue_cycles = 4;  //!< global access (pipelined issue)

    /**
     * Per-address service time of an atomic at the L2 bank: the rate at
     * which same-address atomics can drain (throughput term).
     */
    uint32_t atomic_service_cycles = 30;

    /**
     * Round-trip latency the *issuing thread* observes for an atomic.
     * Dependent atomic chains — hash-table probe sequences, cuckoo
     * eviction chains — serialize on this, which is why collisions are
     * so expensive on GPUs (Sec. IV-D.2).
     */
    uint32_t atomic_roundtrip_cycles = 400;
    uint32_t shuffle_cycles = 2;       //!< one __shfl_down_sync step
    uint32_t barrier_cycles = 8;       //!< __syncthreads overhead
    double bytes_per_cycle = 650.0;    //!< DRAM bandwidth roofline

    /**
     * Full dependent global-memory round trip, charged when device code
     * must read-then-act on global data with no latency hiding (the
     * CAS-free "if condition to comparison and swap" insertion path of
     * Sec. IV-D.3 is built from these).
     */
    uint32_t global_roundtrip_cycles = 400;

    /**
     * Extra cycles to hand a spin lock between thread blocks even when
     * uncontended (the lock line ping-pongs through L2).
     */
    uint32_t lock_handoff_cycles = 100;

    /**
     * Backlog amplification of a contended lock: every cycle a new
     * acquirer already had to wait inflates its handoff by 1/4 more
     * cycle (spinning warps hammer the lock line and slow the very
     * handoff they wait for), capped at lock_spin_cap_cycles. This
     * self-reinforcing convoy is what collapses lock-based insertion by
     * three to four orders of magnitude at 100K+ thread blocks
     * (Table III) while leaving low-block-count kernels almost
     * untouched.
     */
    uint32_t lock_spin_shift = 2;      //!< penalty = wait >> shift
    uint32_t lock_spin_cap_cycles = 20000;

    /**
     * Eager-persistency instruction costs (Sec. I/II): clwb issues like
     * a store; a persist barrier stalls until outstanding write-backs
     * reach the NVM (480 ns write latency ~ 660 device cycles), with
     * later flushes partially overlapped.
     */
    uint32_t clwb_issue_cycles = 4;
    uint32_t persist_latency_cycles = 660;
    uint32_t persist_overlap_gap_cycles = 60;
};

/** Aggregate traffic/contention counters for one kernel launch. */
struct MemTrafficStats {
    uint64_t global_loads = 0;
    uint64_t global_stores = 0;
    uint64_t global_atomics = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t atomic_conflicts = 0;      //!< atomics that queued behind another
    uint64_t atomic_wait_cycles = 0;    //!< total cycles spent queued

    /** Total DRAM bytes moved. */
    uint64_t totalBytes() const { return bytes_read + bytes_written; }
};

/**
 * One serialization event recorded by a block-local MemTiming for
 * rank-ordered replay against the launch-global table.
 *
 * All cycle values are block-local (the block starts at cycle 0); the
 * replay shifts them by the block's scheduled start plus any skew a
 * thread accumulated from cross-block queueing earlier in the replay.
 */
struct TraceEvent {
    enum class Kind : uint8_t {
        Atomic,      //!< plain atomic service slot
        LockAcquire, //!< full lock handoff; recomputed during replay
        Hold,        //!< serialization window extension (lock release)
    };

    Kind kind;
    uint32_t tid;  //!< flat thread index within the block
    Addr word;     //!< 4-byte-aligned serialization word
    Cycles issue;  //!< local issue cycle (Atomic / LockAcquire)
    Cycles slot;   //!< local service-slot start (Atomic / LockAcquire)
    Cycles done;   //!< local completion (LockAcquire) / window end (Hold)
};

/**
 * Kernel-scoped timing state: traffic counters plus the per-address
 * serialization table used by atomics and locks.
 *
 * Concurrency contract: none. A MemTiming is single-owner — nothing in
 * it is synchronized, so only one thread may use an instance at a
 * time. The parallel engine follows this by giving every worker its
 * own block-local MemTiming and reserving the launch-global instance
 * for the sequential rank-order replay on the committing thread.
 */
class MemTiming
{
  public:
    explicit MemTiming(const TimingParams &params = TimingParams{});

    MemTiming(const MemTiming &) = delete;
    MemTiming &operator=(const MemTiming &) = delete;

    /** Timing parameters in force. */
    const TimingParams &params() const { return params_; }

    /** Reset counters, the serialization table and any recorded trace. */
    void reset();

    /** Record a global load of @p bytes; returns issue cost in cycles. */
    Cycles onGlobalLoad(size_t bytes);

    /** Record a global store of @p bytes; returns issue cost in cycles. */
    Cycles onGlobalStore(size_t bytes);

    /**
     * Record @p bytes of write-back traffic against the bandwidth
     * roofline without issuing a store (clwb draining dirty lines to
     * NVM: the data moves, but no new store instruction retires).
     */
    void onWriteBack(size_t bytes) { stats_.bytes_written += bytes; }

    /**
     * Serialize an atomic on @p addr issued at absolute cycle @p now by
     * flat thread @p tid.
     *
     * The word's service slot is the later of @p now and the address's
     * previous slot end; the address stays busy for one
     * atomic_service_cycles after that (throughput), while the issuing
     * thread observes completion a full atomic_roundtrip_cycles after
     * the slot start (latency). Models L2 same-address atomic
     * throughput plus the dependent-chain latency that makes hash
     * collisions expensive.
     *
     * @return Absolute completion cycle seen by the issuing thread.
     */
    Cycles onAtomic(Addr addr, Cycles now, uint32_t tid = 0);

    /**
     * Spin-lock acquire on @p addr at cycle @p now: the acquiring
     * atomic's service slot, the L2 handoff of the lock line, and the
     * convoy spin penalty proportional to the time spent queued
     * (TimingParams::lock_spin_shift). The word stays serialized until
     * the returned completion cycle.
     *
     * @return Absolute cycle at which the acquirer owns the lock.
     */
    Cycles onLockAcquire(Addr addr, Cycles now, uint32_t tid = 0);

    /**
     * Extend @p addr's serialization window to @p until. Used by lock
     * release so that the entire critical section — not just the
     * acquiring atomic — serializes across contenders.
     */
    void holdAddressUntil(Addr addr, Cycles until, uint32_t tid = 0);

    /** Traffic counters accumulated since the last reset(). */
    const MemTrafficStats &stats() const { return stats_; }

    /** Cycles the roofline needs to move all recorded traffic. */
    Cycles bandwidthCycles() const;

    // Parallel-engine support -----------------------------------------------

    /**
     * Move out the TraceEvents recorded since the last reset(): one per
     * atomic, lock acquire and hold, so a block-local instance's
     * serialization can be replayed into the launch-global table in
     * rank order.
     */
    std::vector<TraceEvent> takeTrace() { return std::move(trace_); }

    /** Fold another instance's traffic counters into this one. */
    void mergeStats(const MemTrafficStats &other);

    /**
     * Replay one block's serialization trace against this (global)
     * table, with the block scheduled to start at absolute cycle
     * @p start.
     *
     * Cross-block queueing discovered during the replay is charged as
     * atomic conflicts/wait cycles here and accumulates into a
     * per-thread skew: every later local cycle of that thread shifts by
     * the delay. Lock handoffs are recomputed in full (slot, round
     * trip, handoff, spin penalty) because the convoy depends on global
     * queue state. Called once per block, in rank order, by one thread.
     *
     * @param start Absolute cycle the block's SM started it.
     * @param local_end Max local completion cycle over the block's
     *        threads (used when the trace is empty).
     * @param events The block's recorded trace.
     * @param thread_end Per-flat-tid local completion cycles; may be
     *        empty when @p events is empty.
     * @return Absolute completion cycle of the block.
     */
    Cycles replayBlock(Cycles start, Cycles local_end,
                       const std::vector<TraceEvent> &events,
                       const std::vector<Cycles> &thread_end);

  private:
    /**
     * Claim @p word's next service slot for a request arriving at
     * @p now: counts the atomic, any queueing conflict and wait cycles,
     * and leaves the word busy for atomic_service_cycles after the
     * returned slot start.
     */
    Cycles claimSlot(Addr word, Cycles now);

    /** Raise @p word's busy horizon to at least @p until. */
    void raiseBusy(Addr word, Cycles until);

    /** Current busy horizon of @p word (0 when never touched). */
    Cycles busyHorizon(Addr word) const;

    /** Lock convoy model shared by onLockAcquire and the replay. */
    Cycles lockDoneFromSlot(Cycles slot, Cycles issue) const;

    TimingParams params_;
    MemTrafficStats stats_;
    std::unordered_map<Addr, Cycles> busy_; //!< per-word busy horizon
    std::vector<TraceEvent> trace_;
};

} // namespace gpulp

#endif // GPULP_MEM_TIMING_H
