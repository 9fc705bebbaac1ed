#include "persist.h"

#include <cstring>

#include "core/runtime.h"

namespace gpulp {
namespace {

/**
 * Base of the four flush-based models: a block's failure verdict is
 * the absence of its durable commit flag, which recovery reads on the
 * host — no validation kernel, so classification charges no cycles.
 */
class FlagStrategy : public PersistStrategy
{
  public:
    explicit FlagStrategy(const LpConfig &cfg) : cfg_(cfg) {}

    LpContext
    context() override
    {
        LpContext ctx;
        ctx.cfg = &cfg_;
        ctx.strategy = this;
        return ctx;
    }

    LaunchResult
    classify(Device &, const LaunchConfig &launch, const ValidateFn &,
             RecoverySet &failed) override
    {
        for (uint64_t b = 0; b < launch.numBlocks(); ++b) {
            if (!isCommittedHost(b))
                failed.markFailedHost(b);
        }
        return LaunchResult{};
    }

    /** True if @p block's region committed *durably* (NVM view). */
    virtual bool isCommittedHost(uint64_t block) const = 0;

  private:
    LpConfig cfg_;
};

/**
 * Durable per-block commit flags shared by strict and the epoch
 * models. Host reads go through the NVM view and resets are persisted
 * — the same discipline the EP bugfixes established; see the EpRuntime
 * recovery docs for why the volatile arena must not be trusted.
 */
class CommitFlagStrategy : public FlagStrategy
{
  public:
    CommitFlagStrategy(Device &dev, const LpConfig &cfg,
                       const LaunchConfig &launch)
        : FlagStrategy(cfg), dev_(dev), blocks_(launch.numBlocks())
    {
        flags_ = dev_.mem().alloc(blocks_ * 4);
        reset();
    }

    void
    prepare(ThreadCtx &, PersistAccum &, Addr, uint32_t) override
    {
    }

    bool
    isCommittedHost(uint64_t block) const override
    {
        GPULP_ASSERT(block < blocks_, "block out of range");
        uint32_t committed;
        if (NvmCache *nvm = dev_.nvm())
            nvm->readPersisted(flagAddr(block), 4, &committed);
        else
            std::memcpy(&committed, dev_.mem().raw(flagAddr(block)), 4);
        return committed != 0;
    }

    void
    reset() override
    {
        std::memset(dev_.mem().raw(flags_), 0, blocks_ * 4);
        if (NvmCache *nvm = dev_.nvm())
            nvm->persistRange(flags_, blocks_ * 4);
    }

    uint64_t footprintBytes() const override { return blocks_ * 4; }

  protected:
    /** Thread 0 raises the block's commit flag and flushes it, fenced
     *  iff @p fence. Call after the block's barrier. */
    void
    commit(ThreadCtx &t, bool fence)
    {
        if (t.flatThreadIdx() != 0)
            return;
        Addr flag = flagAddr(t.blockRank());
        t.storeAddr<uint32_t>(flag, 1);
        t.clwb(flag);
        if (fence)
            t.persistBarrier();
    }

  private:
    Addr flagAddr(uint64_t block) const { return flags_ + block * 4; }

    Device &dev_;
    uint64_t blocks_;
    Addr flags_;
};

/**
 * Strict persistency: every persistent store is made durable — flush
 * *and* persist barrier — before the thread proceeds. Strongest
 * ordering, zero metadata beyond the commit flag, worst stalls.
 */
class StrictStrategy : public CommitFlagStrategy
{
  public:
    using CommitFlagStrategy::CommitFlagStrategy;

    PersistModel model() const override { return PersistModel::Strict; }

    void
    publish(ThreadCtx &t, Addr addr) override
    {
        t.clwb(addr);
        t.persistBarrier();
    }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        // Every store already drained; only the commit flag remains.
        t.syncthreads();
        commit(t, /*fence=*/true);
    }
};

/**
 * Epoch persistency, block-granularity epochs: stores are flushed as
 * they happen (write-backs overlap with execution) but the persist
 * barrier — the stall — is paid once, when the block's epoch closes.
 */
class EpochBlockStrategy : public CommitFlagStrategy
{
  public:
    using CommitFlagStrategy::CommitFlagStrategy;

    PersistModel
    model() const override
    {
        return PersistModel::EpochBlock;
    }

    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        // Close the epoch: drain this thread's flushes, then commit.
        t.persistBarrier();
        t.syncthreads();
        commit(t, /*fence=*/true);
    }
};

/**
 * Epoch persistency, kernel-granularity epoch: stores are flushed but
 * no in-kernel persist barrier is ever issued; the single epoch closes
 * with the kernel. The cheapest flush-based point — and the weakest:
 * on real hardware nothing orders the commit flag after the data
 * within the epoch (see docs/PERSISTENCY_MODELS.md for the window the
 * simulator's synchronous clwb does not model).
 */
class EpochKernelStrategy : public CommitFlagStrategy
{
  public:
    using CommitFlagStrategy::CommitFlagStrategy;

    PersistModel
    model() const override
    {
        return PersistModel::EpochKernel;
    }

    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        t.syncthreads();
        commit(t, /*fence=*/false);
    }
};

/** Eager persistency as a strategy: delegates to EpRuntime. */
class EagerStrategy : public FlagStrategy
{
  public:
    EagerStrategy(Device &dev, const LpConfig &cfg,
                  const LaunchConfig &launch,
                  uint64_t undo_entries_per_thread)
        : FlagStrategy(cfg), ep_(dev, launch, undo_entries_per_thread)
    {
    }

    PersistModel model() const override { return PersistModel::Eager; }

    void
    prepare(ThreadCtx &t, PersistAccum &acc, Addr addr,
            uint32_t bytes) override
    {
        ep_.logOldValue(t, acc.undo, addr, bytes);
    }

    void publish(ThreadCtx &t, Addr addr) override { t.clwb(addr); }

    void
    regionEnd(ThreadCtx &t, PersistAccum &) override
    {
        ep_.commitRegion(t);
    }

    bool
    isCommittedHost(uint64_t block) const override
    {
        return ep_.isCommittedHost(block);
    }

    uint64_t rollback() override { return ep_.recoverUndo(); }

    void reset() override { ep_.reset(); }

    uint64_t
    footprintBytes() const override
    {
        return ep_.footprintBytes();
    }

  private:
    EpRuntime ep_;
};

std::unique_ptr<PersistStrategy>
makeStrategy(Device &dev, const LpConfig &cfg, const LaunchConfig &launch,
             uint64_t undo_entries_per_thread)
{
    switch (cfg.persist) {
      case PersistModel::Lazy:
        return std::make_unique<LpRuntime>(dev, cfg, launch);
      case PersistModel::Eager:
        return std::make_unique<EagerStrategy>(dev, cfg, launch,
                                               undo_entries_per_thread);
      case PersistModel::Strict:
        return std::make_unique<StrictStrategy>(dev, cfg, launch);
      case PersistModel::EpochBlock:
        return std::make_unique<EpochBlockStrategy>(dev, cfg, launch);
      case PersistModel::EpochKernel:
        return std::make_unique<EpochKernelStrategy>(dev, cfg, launch);
    }
    GPULP_PANIC("bad PersistModel");
}

} // namespace

PersistRuntime::PersistRuntime(Device &dev, const LpConfig &cfg,
                               const LaunchConfig &launch,
                               uint64_t undo_entries_per_thread)
    : strategy_(makeStrategy(dev, cfg, launch, undo_entries_per_thread))
{
}

PersistRuntime::~PersistRuntime() = default;

} // namespace gpulp
