/**
 * @file
 * SIMT execution state: per-warp collective state, per-block state
 * (barrier, shared memory) and the ThreadCtx device API that kernels
 * program against.
 *
 * Execution model: every thread of a block runs on its own fiber,
 * scheduled event-driven. Fibers suspend only inside collectives
 * (__syncthreads, warp shuffles, warp reductions) — the points where
 * SIMT hardware requires convergence — by parking on a wait list keyed
 * to the event that will satisfy them (barrier generation, per-warp
 * collective generation). Waiting for rank-gate leadership is not a
 * suspension: the fiber blocks its worker in place, so it never
 * changes the resume order. Releasing an event moves its waiters back
 * to the ready set; a parked fiber is never resumed just to re-poll.
 * The runner resumes ready fibers in cyclic flat-tid order, which
 * reproduces the retired poll-everything loop's interleaving exactly
 * (minus the no-op resumes), so results stay bit-identical at any
 * worker count. All other device operations are non-blocking and
 * charge the thread's cycle counter.
 *
 * Warp collectives come in two shapes. shflDown is one exchange: each
 * lane deposits, parks, and is resumed when the last lane arrives.
 * warpReduce is a whole log2(32)-step shfl_down tree in one round:
 * each lane deposits and parks once, and the last lane to arrive runs
 * every step for every lane, charging exactly the cycles the
 * step-by-step shuffle loop would. Between tree steps the lanes touch
 * no memory, so the dropped park points were interleavings nothing
 * could observe.
 *
 * Timing: each thread carries a block-local cycle counter starting at
 * 0; the launch shifts it to the block's SM start cycle at commit.
 * Collectives align counters to the max participant; atomics serialize
 * through MemTiming's per-address table; loads/stores accumulate
 * roofline traffic.
 */

#ifndef GPULP_SIM_EXEC_H
#define GPULP_SIM_EXEC_H

#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/memory.h"
#include "mem/timing.h"
#include "nvm/nvm_cache.h"
#include "sim/sched_policy.h"
#include "sim/thread_pool.h"
#include "sim/types.h"

namespace gpulp {

class ThreadCtx;

/**
 * Half-open [base, end) device address ranges whose plain loads/stores
 * must observe rank order under the parallel engine. Workloads declare
 * them (via Device::addOrderedRegion) for data structures that are
 * racy by design — e.g. MEGA-KV's optimistic pre-check load before its
 * CAS — so functional results stay bit-identical at any worker count.
 * The paper's collision-free global-array store needs none: disjoint
 * per-block slots are what make it scale.
 */
using OrderedRegions = std::vector<std::pair<Addr, Addr>>;

/** Steps of a warp-wide shfl_down tree: offsets 16, 8, 4, 2, 1. */
constexpr uint32_t kWarpTreeSteps = std::countr_zero(kWarpSize);

/**
 * Combine a lane's value with the one shuffled down to it, for
 * ThreadCtx::warpReduce. A plain function pointer, so the lanes of one
 * warp can be checked to pass the same fold.
 */
using WarpFold = uint64_t (*)(uint64_t mine, uint64_t got);

/** Which collective a warp round is. */
enum class WarpRoundKind : uint8_t {
    Shuffle, //!< shflDown: one exchange at offset `delta`
    Reduce,  //!< warpReduce: the whole shfl_down tree
};

/**
 * The call every lane of one warp round must agree on. Lanes that
 * disagree have diverged, which the simulator reports rather than
 * pairing them silently.
 */
struct WarpRound {
    WarpRoundKind kind = WarpRoundKind::Shuffle;
    uint32_t delta = 0;             //!< shuffle offset (Shuffle)
    WarpFold fold = nullptr;        //!< combine (Reduce)
    uint32_t shuffles_per_step = 0; //!< exchanges per tree step (Reduce)
    uint32_t ops_per_shuffle = 0;   //!< ALU ops a folding lane charges
                                    //!< per exchange (Reduce)

    bool operator==(const WarpRound &) const = default;
};

/** Collective-exchange state for one warp. */
struct WarpState {
    uint32_t lanes = 0;          //!< lanes this warp started with
    uint32_t live = 0;           //!< lanes that have not exited
    uint32_t arrived = 0;        //!< lanes at the current collective
    uint64_t generation = 0;     //!< bumps when a collective releases
    Cycles max_arrival = 0;      //!< latest arrival cycle this round
    WarpRound round;             //!< what this round's lanes called
    uint32_t deposited = 0;      //!< bitmask of lanes that deposited
    std::array<uint64_t, kWarpSize> buf{};       //!< deposited values
    std::array<uint32_t, kWarpSize> live_seen{}; //!< live lanes each
                                                 //!< lane saw (Reduce)
    std::array<uint64_t, kWarpSize> result{};    //!< per-lane results
    std::array<Cycles, kWarpSize> done{};        //!< per-lane cycle
                                                 //!< counter on release

    /**
     * Flat tids parked on this round, as bits positioned within the
     * ready-set word the warp's tids live in. A warp spans 32
     * consecutive tids, so (64 % kWarpSize == 0) guarantees they all
     * fall inside one 64-bit word — waking the warp is a single OR.
     */
    uint64_t wait_mask = 0;
};

/**
 * Flat tids parked on the block barrier, stored as a bitmap so waking
 * the whole list is a word-wise OR into the ready set instead of a
 * per-thread walk.
 */
struct WaitSet {
    explicit WaitSet(uint32_t n) : bits((n + 63) / 64, 0) {}

    /** Mark @p tid parked. */
    void
    park(uint32_t tid)
    {
        bits[tid >> 6] |= uint64_t{1} << (tid & 63);
        ++count;
    }

    std::vector<uint64_t> bits;
    uint32_t count = 0;
};

/**
 * The scheduler's ready set: a bitmap over flat tids supporting the
 * cyclic lowest-next pick the block runner resumes fibers in. The
 * bitmap (rather than a FIFO) is what makes wake order irrelevant
 * under the default deterministic pick — resume order is always
 * flat-tid-sorted from the last resumed thread, matching the retired
 * round-robin pass order bit for bit. Debug builds assert both halves
 * of that claim: absorbed waiters are disjoint from the ready bits
 * (so insertion order cannot matter) and every pick is the cyclically
 * smallest ready tid (so extraction is sorted).
 */
class ReadySet
{
  public:
    /** Sentinel returned by nextFrom() when the set is empty. */
    static constexpr uint32_t kNone = UINT32_MAX;

    explicit ReadySet(uint32_t n)
        : bits_((n + 63) / 64, 0), n_(n)
    {
    }

    /** Number of ready threads. */
    uint32_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    /** Mark @p tid ready (idempotent). */
    void
    add(uint32_t tid)
    {
        uint64_t &word = bits_[tid >> 6];
        uint64_t mask = uint64_t{1} << (tid & 63);
        if (!(word & mask)) {
            word |= mask;
            ++count_;
        }
    }

    /**
     * OR an entire wait set in (its threads become ready) and clear
     * it. Waiters are parked, hence disjoint from the ready bits.
     * @return The number of threads woken.
     */
    uint32_t
    absorb(WaitSet &ws)
    {
        uint32_t woken = ws.count;
        if (woken == 0)
            return 0;
        for (size_t i = 0; i < bits_.size(); ++i) {
#ifndef NDEBUG
            GPULP_ASSERT((bits_[i] & ws.bits[i]) == 0,
                         "waiter word %zu overlaps the ready set: a "
                         "parked thread is already ready, so wake "
                         "order would matter",
                         i);
#endif
            bits_[i] |= ws.bits[i];
            ws.bits[i] = 0;
        }
        count_ += woken;
        ws.count = 0;
        debugCheckCount();
        return woken;
    }

    /**
     * OR @p mask into word @p word_idx (a warp's wait mask, already in
     * word coordinates). @return The number of threads woken.
     */
    uint32_t
    absorbWord(size_t word_idx, uint64_t mask)
    {
#ifndef NDEBUG
        GPULP_ASSERT((bits_[word_idx] & mask) == 0,
                     "warp wait mask overlaps the ready set");
#endif
        uint32_t woken =
            static_cast<uint32_t>(std::popcount(mask));
        bits_[word_idx] |= mask;
        count_ += woken;
        debugCheckCount();
        return woken;
    }

    /**
     * Remove and return the smallest ready tid >= @p from, wrapping
     * past the end; kNone when the set is empty. Pass 0 to start a
     * fresh scan. The fast path — a ready tid in the same word as
     * @p from — is inline; it covers nearly every pick of a cyclic
     * scan over a dense set.
     */
    uint32_t
    popNextFrom(uint32_t from)
    {
        if (from >= n_)
            from = 0;
#ifndef NDEBUG
        const uint32_t expect = debugFindNextFrom(from);
#endif
        uint32_t picked;
        uint64_t word =
            bits_[from >> 6] & (~uint64_t{0} << (from & 63));
        if (word != 0) {
            bits_[from >> 6] &= ~(word & -word);
            --count_;
            picked = (from & ~uint32_t{63}) +
                     static_cast<uint32_t>(std::countr_zero(word));
        } else {
            picked = popNextSlow(from);
        }
#ifndef NDEBUG
        GPULP_ASSERT(picked == expect,
                     "resume pick from tid %u chose %u, but the "
                     "cyclically smallest ready tid is %u: picks are "
                     "no longer flat-tid-sorted",
                     from, picked, expect);
#endif
        return picked;
    }

    /**
     * Copy the ready tids, ascending, into @p out (cleared first).
     * Analysis-path helper for policies that permute the pick.
     */
    void collect(std::vector<uint32_t> &out) const;

    /**
     * Remove a specific ready tid. @return false (and no change) when
     * @p tid was not ready. Analysis-path helper for replaying a
     * recorded schedule.
     */
    bool take(uint32_t tid);

  private:
    /** Wrapping word scan for the out-of-word case. */
    uint32_t popNextSlow(uint32_t from);

    /** Debug: count_ must equal the popcount of the bitmap. */
    void
    debugCheckCount() const
    {
#ifndef NDEBUG
        uint32_t bits = 0;
        for (uint64_t w : bits_)
            bits += static_cast<uint32_t>(std::popcount(w));
        GPULP_ASSERT(bits == count_,
                     "ready-set count %u disagrees with bitmap "
                     "popcount %u",
                     count_, bits);
#endif
    }

#ifndef NDEBUG
    /**
     * Debug reference: the cyclically smallest ready tid >= @p from,
     * computed by a plain non-destructive scan. popNextFrom() must
     * return exactly this — the flat-tid-sorted resume pick that makes
     * wake order irrelevant under DeterministicPolicy.
     */
    uint32_t debugFindNextFrom(uint32_t from) const;
#endif

    std::vector<uint64_t> bits_;
    uint32_t n_;
    uint32_t count_ = 0;
};

/**
 * Per-thread-block execution state shared by the block's ThreadCtx
 * instances: the barrier, warp collective slots, shared memory and
 * progress/deadlock accounting.
 */
class BlockState
{
  public:
    /**
     * @param mem Device global memory.
     * @param timing The running worker's block-local timing table.
     * @param nvm NVM model, or nullptr when persistency is not modelled.
     * @param block_idx This block's index in the grid.
     * @param cfg The launch configuration.
     * @param shared_bytes Shared-memory capacity for the block.
     * @param gate The launch's rank gate, serializing
     *        ordering-sensitive accesses in block-rank order.
     * @param rank This block's flat rank in the grid.
     * @param ordered Declared ordered regions, or nullptr.
     */
    BlockState(GlobalMemory &mem, MemTiming &timing, NvmCache *nvm,
               Dim3 block_idx, const LaunchConfig &cfg,
               size_t shared_bytes, RankGate &gate, uint64_t rank,
               const OrderedRegions *ordered = nullptr);

    BlockState(const BlockState &) = delete;
    BlockState &operator=(const BlockState &) = delete;

    /** Number of threads in the block. */
    uint32_t numThreads() const { return num_threads_; }

    /** Number of warps in the block. */
    uint32_t numWarps() const { return num_warps_; }

    /** Threads that have not yet returned from the kernel. */
    uint32_t liveThreads() const { return live_; }

    /** Called by the runner when a thread's fiber finishes. */
    void onThreadExit(ThreadCtx &thread);

    // Event-driven scheduling (the block runner's interface) ----------------

    /**
     * Install a resume-order policy for this block run (nullptr
     * restores the default deterministic pick). Not owned; must
     * outlive the run. The runner installs it before the first
     * popReady().
     */
    void setSchedulePolicy(SchedulePolicy *policy) { policy_ = policy; }

    /**
     * Claim the next thread to resume. On the default path: the
     * smallest ready tid strictly after @p last in cyclic flat-tid
     * order (pass kNoThread to start from tid 0), removed from the
     * ready set. With a policy installed the pick is delegated to it.
     * Returns kNoThread when no thread is ready: with live threads
     * left, the block is deadlocked.
     */
    uint32_t
    popReady(uint32_t last)
    {
        if (policy_ != nullptr)
            return policy_->pick(ready_, last);
        return ready_.popNextFrom(last == kNoThread ? 0 : last + 1);
    }

    /** Sentinel tid for popReady(). */
    static constexpr uint32_t kNoThread = ReadySet::kNone;

    /**
     * Resolve or allocate the shared-memory slot @p slot_id of
     * @p bytes bytes, returning its offset in the block's shared arena.
     * All threads naming the same slot get the same storage, mirroring
     * a __shared__ array declaration.
     */
    size_t sharedSlot(uint32_t slot_id, size_t bytes);

    /** Raw pointer into the shared arena. */
    char *sharedRaw(size_t offset) { return shared_.data() + offset; }

    // Rank gate ---------------------------------------------------------------

    /**
     * Block until this block is the rank leader (every lower rank has
     * completed). First ordering-sensitive access of the block pays
     * this once; leadership is kept until the block completes.
     *
     * The calling fiber waits in place (RankGate::awaitLeader, no
     * yield), holding its worker, so its siblings neither run nor
     * reorder meanwhile: the resume order is the one a single worker
     * produces, where every block is leader from its first access.
     * Throws SimCrash if a crash latches during the wait.
     */
    void gateOrdering();

    /** True when @p addr must wait for rank leadership first. */
    bool
    mustOrder(Addr addr, size_t bytes) const
    {
        return !gate_leader_ && ordered_ != nullptr &&
               inOrderedRegion(addr, bytes);
    }

  private:
    /** True when [addr, addr+bytes) overlaps a declared ordered region. */
    bool
    inOrderedRegion(Addr addr, size_t bytes) const
    {
        for (const auto &[lo, hi] : *ordered_) {
            if (addr < hi && addr + bytes > lo)
                return true;
        }
        return false;
    }

    friend class ThreadCtx;

    /** Throw SimCrash if the NVM model has a pending injected crash. */
    void
    checkCrash() const
    {
        if (nvm_ && nvm_->crashPending())
            throw SimCrash{};
    }

    /**
     * Release the block barrier if all live threads arrived, moving
     * its waiters back to the ready set. @p releaser is the arriving
     * tid whose arrival may complete the barrier, or
     * SchedulePolicy::kNoTid when called from a thread exit.
     */
    void maybeReleaseBarrier(uint32_t releaser);

    /**
     * Release warp @p w's collective if all its live lanes arrived,
     * moving its waiters back to the ready set. @p releaser as for
     * maybeReleaseBarrier().
     */
    void maybeReleaseWarp(WarpState &w, uint32_t releaser);

    /** Compute a Shuffle round's per-lane results and cycles. */
    void releaseShuffle(WarpState &w) const;

    /**
     * Compute a Reduce round's per-lane results and cycles: every step
     * of the shfl_down tree, charged as the step-by-step loop would.
     */
    void releaseReduce(WarpState &w) const;

    /** Park the running fiber @p tid on @p waiters (event @p ev for
     *  the policy hook) and yield. */
    void parkOn(WaitSet &waiters, uint32_t tid, SchedEvent ev);

    /** Park the running fiber @p tid on warp @p w's round and yield. */
    void parkOnWarp(WarpState &w, uint32_t tid);

    /** Move every tid on @p waiters back to the ready set, reporting
     *  release of @p ev by @p releaser to the policy (if any). */
    void wake(WaitSet &waiters, SchedEvent ev, uint32_t releaser);

    /** Move warp @p w's parked lanes back to the ready set. */
    void wakeWarp(WarpState &w, SchedEvent ev, uint32_t releaser);

    /** SchedEvent for the current (pre-increment) barrier generation. */
    SchedEvent
    barrierEvent() const
    {
        return SchedEvent{SchedEventKind::Barrier, bar_generation_};
    }

    /** SchedEvent for warp @p warp_idx's current collective round. */
    SchedEvent
    warpEvent(uint32_t warp_idx) const
    {
        return SchedEvent{SchedEventKind::WarpCollective,
                          (uint64_t{warp_idx} << 32) |
                              (warps_[warp_idx].generation & 0xffffffffu)};
    }

    GlobalMemory &mem_;
    MemTiming &timing_;
    NvmCache *nvm_;
    Dim3 block_idx_;
    LaunchConfig cfg_;

    RankGate &gate_;
    uint64_t rank_;
    const OrderedRegions *ordered_;
    bool gate_leader_ = false;

    uint32_t num_threads_;
    uint32_t num_warps_;
    uint32_t live_;

    // Block-wide barrier (generation scheme).
    uint32_t bar_arrived_ = 0;
    uint64_t bar_generation_ = 0;
    Cycles bar_max_arrival_ = 0;
    Cycles bar_release_cycle_ = 0;

    std::vector<WarpState> warps_;

    std::vector<char> shared_;
    size_t shared_next_ = 0;
    std::unordered_map<uint32_t, size_t> shared_slots_;

    // Scheduler state: threads are in exactly one place — running,
    // ready, on a wait list (bar_waiters_ / a warp's wait_mask), or
    // exited.
    ReadySet ready_;
    WaitSet bar_waiters_;

    // Analysis hook: null on the production path (a single untaken
    // branch per decision point / access).
    SchedulePolicy *policy_ = nullptr;
};

/**
 * Typed view over a block's shared-memory slot; accesses charge
 * shared-memory cycles on the owning thread.
 */
template <typename T>
class SharedRef
{
  public:
    SharedRef() = default;
    SharedRef(ThreadCtx *thread, T *data, size_t count, uint32_t slot_id)
        : thread_(thread), data_(data), count_(count), slot_id_(slot_id)
    {
    }

    /** Number of elements. */
    size_t size() const { return count_; }

    /** Timed shared-memory load. */
    inline T get(size_t index) const;

    /** Timed shared-memory store. */
    inline void set(size_t index, T value);

    /** Timed shared-memory atomic add; returns the old value. */
    inline T atomicAdd(size_t index, T delta);

  private:
    ThreadCtx *thread_ = nullptr;
    T *data_ = nullptr;
    size_t count_ = 0;
    uint32_t slot_id_ = 0;
};

/**
 * The device API visible to kernel code — the simulator's analogue of
 * the CUDA intrinsics used by the paper's kernels.
 */
class ThreadCtx
{
  public:
    ThreadCtx(BlockState &block, Dim3 thread_idx, uint32_t flat_tid);

    // Identity ---------------------------------------------------------------

    /** threadIdx. */
    const Dim3 &threadIdx() const { return thread_idx_; }

    /** blockIdx. */
    const Dim3 &blockIdx() const { return block_.block_idx_; }

    /** blockDim. */
    const Dim3 &blockDim() const { return block_.cfg_.block; }

    /** gridDim. */
    const Dim3 &gridDim() const { return block_.cfg_.grid; }

    /** Flat thread index within the block (x fastest). */
    uint32_t flatThreadIdx() const { return flat_tid_; }

    /** Lane index within the warp [0, 32). */
    uint32_t laneId() const { return flat_tid_ % kWarpSize; }

    /** Warp index within the block. */
    uint32_t warpId() const { return flat_tid_ / kWarpSize; }

    /** Flat block rank within the grid (x fastest). */
    uint64_t
    blockRank() const
    {
        const Dim3 &b = block_.block_idx_;
        const Dim3 &g = block_.cfg_.grid;
        return (static_cast<uint64_t>(b.z) * g.y + b.y) * g.x + b.x;
    }

    /** Flat global thread id. */
    uint64_t
    globalThreadIdx() const
    {
        return blockRank() * block_.num_threads_ + flat_tid_;
    }

    // Timing -----------------------------------------------------------------

    /** Charge @p ops scalar ALU operations. */
    void
    compute(uint64_t ops)
    {
        cycles_ += ops * block_.timing_.params().compute_cycles;
    }

    /** Stall this thread for @p cycles raw cycles (dependent latency). */
    void stall(Cycles cycles) { cycles_ += cycles; }

    /** This thread's absolute cycle counter. */
    Cycles now() const { return cycles_; }

    /** Timing parameters of the launch. */
    const TimingParams &
    params() const
    {
        return block_.timing_.params();
    }

    /** Number of warps in this block. */
    uint32_t numWarps() const { return block_.num_warps_; }

    /** Lanes of this thread's warp that have not exited the kernel. */
    uint32_t
    warpLiveLanes() const
    {
        return block_.warps_[warpId()].live;
    }

    // Global memory ----------------------------------------------------------

    /** Timed, observed global load at a raw device address. */
    template <typename T>
    T
    loadAddr(Addr addr)
    {
        block_.checkCrash();
        if (block_.mustOrder(addr, sizeof(T)))
            block_.gateOrdering();
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, sizeof(T),
                                           AccessKind::Load);
        cycles_ += block_.timing_.onGlobalLoad(sizeof(T));
        return block_.mem_.read<T>(addr);
    }

    /** Timed, observed global store at a raw device address. */
    template <typename T>
    void
    storeAddr(Addr addr, T value)
    {
        block_.checkCrash();
        if (block_.mustOrder(addr, sizeof(T)))
            block_.gateOrdering();
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, sizeof(T),
                                           AccessKind::Store);
        cycles_ += block_.timing_.onGlobalStore(sizeof(T));
        block_.mem_.write<T>(addr, value);
    }

    /** Timed, observed element load through an ArrayRef. */
    template <typename T>
    T
    load(const ArrayRef<T> &array, size_t index)
    {
        return loadAddr<T>(array.addrOf(index));
    }

    /** Timed, observed element store through an ArrayRef. */
    template <typename T>
    void
    store(ArrayRef<T> &array, size_t index, T value)
    {
        storeAddr<T>(array.addrOf(index), value);
    }

    // Atomics ----------------------------------------------------------------

    /**
     * atomicCAS on a 32-bit word: if *addr == compare, *addr = value.
     * Serializes on the address. @return the old value.
     */
    uint32_t atomicCAS(Addr addr, uint32_t compare, uint32_t value);

    /** atomicCAS on a 64-bit word. */
    uint64_t atomicCAS64(Addr addr, uint64_t compare, uint64_t value);

    /** atomicExch on a 32-bit word; returns the old value. */
    uint32_t atomicExch(Addr addr, uint32_t value);

    /** atomicExch on a 64-bit word; returns the old value. */
    uint64_t atomicExch64(Addr addr, uint64_t value);

    /** atomicAdd on a 32-bit word; returns the old value. */
    uint32_t atomicAdd(Addr addr, uint32_t delta);

    /** atomicAdd on a float; returns the old value. */
    float atomicAddF(Addr addr, float delta);

    /** atomicMax on a 32-bit word; returns the old value. */
    uint32_t atomicMax(Addr addr, uint32_t value);

    /**
     * Write back (without evicting) the cache line holding @p addr —
     * CUDA has no clwb today (the paper notes EP is not implementable
     * on current GPUs); this models the instruction EP would need.
     * The write-back completes asynchronously; persistBarrier() waits.
     */
    void clwb(Addr addr);

    /**
     * Persist barrier (sfence): stall until every clwb this thread
     * issued has reached the NVM device.
     */
    void persistBarrier();

    /**
     * Spin-lock acquire on a lock word, with the queueing delay of all
     * earlier contenders charged to this thread. Pair with
     * lockRelease() — the release extends the word's serialization
     * window so entire critical sections serialize across blocks.
     */
    void lockAcquire(Addr addr);

    /** Spin-lock release; see lockAcquire(). */
    void lockRelease(Addr addr);

    // Shared memory ----------------------------------------------------------

    /**
     * Resolve the block-level shared array for @p slot_id (a stable
     * small integer naming the __shared__ declaration) of @p count
     * elements. Every thread of the block naming the same slot sees
     * the same storage.
     */
    template <typename T>
    SharedRef<T>
    sharedArray(uint32_t slot_id, size_t count)
    {
        size_t off = block_.sharedSlot(slot_id, count * sizeof(T));
        return SharedRef<T>(this,
                            reinterpret_cast<T *>(block_.sharedRaw(off)),
                            count, slot_id);
    }

    // Collectives ------------------------------------------------------------

    /** __syncthreads(): block-wide barrier; aligns cycle counters. */
    void syncthreads();

    /**
     * __shfl_down_sync over the full warp: returns the value deposited
     * by lane (laneId()+delta), or this thread's own @p value when that
     * lane is out of range. All live lanes of the warp must call it.
     */
    uint32_t shflDown(uint32_t value, uint32_t delta);

    /** shflDown for signed int. */
    int32_t shflDownI(int32_t value, uint32_t delta);

    /** shflDown for float. */
    float shflDownF(float value, uint32_t delta);

    /** shflDown for uint64_t. */
    uint64_t shflDown64(uint64_t value, uint32_t delta);

    /**
     * A whole warp-wide shfl_down tree reduction (offsets 16 down to
     * 1) in one collective round: the lane parks once, not once per
     * exchange. At each step a lane whose source lane (laneId() +
     * offset) is below the live-lane count it saw on entry folds that
     * lane's value into its own with @p fold; a source lane that has
     * exited contributes the lane's own value, as in shflDown. The
     * full reduction is valid on lane 0; other lanes receive partial
     * values. All live lanes of the warp must call it with the same
     * arguments.
     *
     * Cost is exactly that of the step-by-step loop issuing
     * @p shuffles_per_step shflDowns per step, each followed on a
     * folding lane by compute(@p ops_per_shuffle). The exchanges of
     * one step carry disjoint parts of the value, so @p fold runs once
     * per step; sim.shuffles counts every exchange.
     */
    uint64_t warpReduce(uint64_t value, WarpFold fold,
                        uint32_t shuffles_per_step,
                        uint32_t ops_per_shuffle);

  private:
    friend class BlockState;
    template <typename U>
    friend class SharedRef;

    /**
     * Deposit @p value into this warp's round of @p round, park until
     * the round releases, and return this lane's result.
     */
    uint64_t warpCollective(const WarpRound &round, uint64_t value);

    /** Common implementation for all shuffle widths (64-bit payload). */
    uint64_t shflDownRaw(uint64_t value, uint32_t delta);

    /** Timing parameters of the launch (for SharedRef's charges). */
    const TimingParams &
    timingParams() const
    {
        return block_.timing_.params();
    }

    /** Policy hook relay for SharedRef accesses. */
    void
    noteSharedAccess(uint32_t slot, uint32_t offset, uint32_t bytes,
                     AccessKind kind)
    {
        if (block_.policy_ != nullptr)
            block_.policy_->onSharedAccess(flat_tid_, slot, offset, bytes,
                                           kind);
    }

    /** Policy hook relay for out-of-line atomic paths (exec.cc). */
    void
    noteAtomic(Addr addr, uint32_t bytes)
    {
        if (block_.policy_ != nullptr)
            block_.policy_->onGlobalAccess(flat_tid_, addr, bytes,
                                           AccessKind::AtomicRmw);
    }

    /** Functional+timed read-modify-write helper for 32-bit atomics. */
    template <typename Op>
    uint32_t
    rmw32(Addr addr, Op &&op)
    {
        block_.checkCrash();
        block_.gateOrdering();
        noteAtomic(addr, 4);
        // No host lock, here or in the 64-bit/float RMWs: only the rank
        // leader executes RMWs, and the gate's release/acquire on the
        // frontier orders one leader's writes before the next's reads.
        uint32_t old = block_.mem_.read<uint32_t>(addr);
        uint32_t next = op(old);
        if (next != old)
            block_.mem_.write<uint32_t>(addr, next);
        cycles_ = block_.timing_.onAtomic(addr, cycles_, flat_tid_);
        return old;
    }

    BlockState &block_;
    Dim3 thread_idx_;
    uint32_t flat_tid_;
    Cycles cycles_ = 0;
    uint32_t outstanding_flushes_ = 0;
    bool exited_ = false;
};

template <typename T>
inline T
SharedRef<T>::get(size_t index) const
{
    GPULP_ASSERT(index < count_, "shared load index %zu out of %zu", index,
                 count_);
    thread_->noteSharedAccess(slot_id_,
                              static_cast<uint32_t>(index * sizeof(T)),
                              sizeof(T), AccessKind::Load);
    thread_->cycles_ += thread_->timingParams().shared_access_cycles;
    return data_[index];
}

template <typename T>
inline void
SharedRef<T>::set(size_t index, T value)
{
    GPULP_ASSERT(index < count_, "shared store index %zu out of %zu", index,
                 count_);
    thread_->noteSharedAccess(slot_id_,
                              static_cast<uint32_t>(index * sizeof(T)),
                              sizeof(T), AccessKind::Store);
    thread_->cycles_ += thread_->timingParams().shared_access_cycles;
    data_[index] = value;
}

template <typename T>
inline T
SharedRef<T>::atomicAdd(size_t index, T delta)
{
    GPULP_ASSERT(index < count_, "shared atomic index %zu out of %zu", index,
                 count_);
    thread_->noteSharedAccess(slot_id_,
                              static_cast<uint32_t>(index * sizeof(T)),
                              sizeof(T), AccessKind::AtomicRmw);
    // Shared atomics are fast and bank-arbitrated; charge a small
    // constant on top of the access itself.
    thread_->cycles_ += thread_->timingParams().shared_access_cycles + 2;
    T old = data_[index];
    data_[index] = old + delta;
    return old;
}

} // namespace gpulp

#endif // GPULP_SIM_EXEC_H
