/**
 * @file
 * Host-side parallel execution support for the block engine: a
 * persistent worker pool plus the rank gate that keeps cross-block
 * ordering deterministic.
 *
 * ThreadPool keeps its OS threads alive across kernel launches (a
 * Device launches thousands of kernels per experiment; spawning
 * threads per launch would dominate). A job is a function run once per
 * worker; dispatch() starts it asynchronously so the launching thread
 * can consume per-block results while workers produce them, and wait()
 * joins the job.
 *
 * RankGate is the determinism mechanism. Blocks are *functionally*
 * independent except where they meet: global atomics and declared
 * ordered regions. The gate serializes exactly those meeting points in
 * block-rank order — a block may execute freely up to its first
 * ordering-sensitive access, then waits until every lower rank has
 * completed, becoming the unique "leader". This makes functional
 * results (atomic return values, CAS winners, final memory) identical
 * at any worker count, while embarrassingly parallel blocks — the
 * paper's collision-free global-array checksum store — never gate at
 * all and scale freely.
 */

#ifndef GPULP_SIM_THREAD_POOL_H
#define GPULP_SIM_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpulp {

/**
 * Persistent pool of worker threads.
 *
 * Usage per launch:
 * @code
 *   pool.dispatch(n, [&](uint32_t worker_id) { ... });
 *   ... consume results on the calling thread ...
 *   pool.wait();
 * @endcode
 *
 * One job at a time; dispatch() while a job is active is an error.
 */
class ThreadPool
{
  public:
    ThreadPool() = default;

    /** Joins all workers. A dispatched job must have been wait()ed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads currently alive. */
    uint32_t size() const { return static_cast<uint32_t>(threads_.size()); }

    /**
     * Start @p width invocations of @p fn (one per worker, argument is
     * the worker id in [0, width)) and return immediately. Grows the
     * pool to at least @p width threads on first use.
     */
    void dispatch(uint32_t width, std::function<void(uint32_t)> fn);

    /** Block until every invocation of the dispatched job returned. */
    void wait();

  private:
    void ensureThreads(uint32_t width);
    void workerMain(uint32_t worker_id);

    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::vector<std::thread> threads_;
    std::function<void(uint32_t)> job_;
    uint64_t job_generation_ = 0; //!< bumps on every dispatch
    uint32_t job_width_ = 0;      //!< workers participating in the job
    uint32_t job_active_ = 0;     //!< invocations not yet returned
    bool shutdown_ = false;
};

/**
 * Completion frontier over block ranks.
 *
 * The frontier is the lowest rank that has not completed. A block is
 * the "leader" when the frontier equals its rank, i.e. every lower
 * rank has fully completed — at that point its ordering-sensitive
 * accesses observe exactly the memory state the sequential engine
 * would have produced. complete() marks a rank done and advances the
 * frontier over the contiguous completed prefix.
 *
 * A fiber checks isLeader() (cheap atomic read) and, if not leader,
 * waits in awaitLeader() in place, holding its worker; the launching
 * thread consumes finished ranks via awaitCompleted().
 */
class RankGate
{
  public:
    explicit RankGate(uint64_t num_blocks, uint32_t num_workers);

    /** True when every rank below @p rank has completed. */
    bool
    isLeader(uint64_t rank) const
    {
        return frontier_fast_.load(std::memory_order_acquire) == rank;
    }

    /**
     * Block the calling worker until @p rank is leader or
     * @p aborted() returns true. @return true when leadership was
     * reached, false on abort.
     *
     * Purely event-driven: the wait is woken by complete() advancing
     * the frontier or by notifyAbort(). An abort source outside the
     * gate (the NVM crash latch) must call notifyAbort() or the wait
     * holds until the next frontier advance.
     */
    bool awaitLeader(uint64_t rank, const std::function<bool()> &aborted);

    /**
     * Wake every parked thread so it can re-evaluate its abort
     * predicate. Called by the NVM crash latch (via the abort notifier
     * Device::launch registers) the moment a crash latches.
     */
    void notifyAbort();

    /** Mark @p rank completed; advance the frontier; wake waiters. */
    void complete(uint64_t rank);

    /**
     * Park the calling thread until @p rank has completed or no worker
     * remains to complete it. @return true when the rank completed.
     */
    bool awaitCompleted(uint64_t rank);

    /** A worker finished pulling ranks (normally or on abort). */
    void workerDone();

    /** Lowest rank that has not completed. */
    uint64_t frontier() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<uint8_t> done_;
    uint64_t frontier_ = 0;
    uint32_t workers_active_;
    std::atomic<uint64_t> frontier_fast_{0};
};

} // namespace gpulp

#endif // GPULP_SIM_THREAD_POOL_H
