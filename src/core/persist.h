/**
 * @file
 * PersistStrategy: the persistency-model matrix over one kernel API.
 *
 * The paper positions Lazy Persistency against Eager Persistency; the
 * companion work "Exploring Memory Persistency Models for GPUs" (same
 * senior author) widens the space with strict and epoch persistency.
 * This header makes all of them first-class, selectable points
 * (LpConfig::persist / GPULP_PERSIST) behind one store protocol, so a
 * kernel written once against the persistStore* helpers runs — and is
 * crash-tested — under every model:
 *
 *  - lazy:         no flushes; per-thread checksums folded and
 *                  committed at region end (the paper's scheme);
 *  - eager:        undo-log entry flushed + fenced before every store,
 *                  the store's line flushed, durable commit flag;
 *  - strict:       every persistent store is flushed *and* fenced in
 *                  program order — maximal ordering, no logging;
 *  - epoch-block:  stores are flushed as they happen but persist
 *                  barriers only close the block-level epoch;
 *  - epoch-kernel: one kernel-wide epoch; flushes drain on their own
 *                  and no persist barrier is ever issued in-kernel.
 *
 * Device-side protocol per protected store: prepare() (before the
 * mutation; eager logs the old value here), the store itself, then
 * publish() (after the mutation; flush/fence per the model). Splitting
 * prepare/publish out of store32() lets atomic claims — MEGA-KV's slot
 * CAS — get the same coverage as plain stores. regionEnd() closes the
 * block's region/epoch (collective).
 *
 * Host-side, every strategy answers the same recovery contract: a
 * classify() hook that marks the blocks whose region must re-execute
 * (lazy launches the workload's checksum validation kernel; the other
 * models read their durable per-block commit flags through the NVM
 * view, never the volatile arena), an optional rollback() (eager's
 * undo), and reset(). persistRecover() (core/recovery.h) is the one
 * recovery driver for all five models. Normative semantics and the
 * guarantee each model earns: docs/PERSISTENCY_MODELS.md.
 */

#ifndef GPULP_CORE_PERSIST_H
#define GPULP_CORE_PERSIST_H

#include <memory>

#include "core/eager.h"
#include "core/recovery.h"

namespace gpulp {

/**
 * Per-thread, register-resident persistency state: the checksum
 * accumulator (lazy) and the undo-log cursor (eager) — whichever the
 * active model does not use stays inert. Create one per kernel thread
 * with makePersistAccum().
 */
struct PersistAccum {
    ChecksumAccum checksums;
    EpRuntime::ThreadLog undo;
};

/**
 * One persistency model's store + commit + recovery protocol.
 * Instances are per-kernel (they own per-block commit state sized for
 * the launch); obtain them through PersistRuntime. LpRuntime is the
 * lazy model.
 */
class PersistStrategy
{
  public:
    PersistStrategy() = default;
    // Kernels hold the strategy's address through LpContext.
    PersistStrategy(const PersistStrategy &) = delete;
    PersistStrategy &operator=(const PersistStrategy &) = delete;
    virtual ~PersistStrategy() = default;

    /** Model this strategy implements. */
    virtual PersistModel model() const = 0;

    /** The context kernels capture; its strategy is this object. */
    virtual LpContext context() = 0;

    // Device-side protocol ---------------------------------------------------

    /**
     * Pre-mutation hook for [addr, addr+bytes): eager durably logs the
     * old value here (the undo invariant); other models do nothing.
     * Must be called before an atomic claim (CAS) on @p addr too.
     */
    virtual void prepare(ThreadCtx &t, PersistAccum &acc, Addr addr,
                         uint32_t bytes) = 0;

    /** Post-mutation hook: flush (and, per the model, fence) @p addr's
     *  line. Counterpart of prepare() for atomics. */
    virtual void publish(ThreadCtx &t, Addr addr) = 0;

    /**
     * Fold @p bits into the block's region checksum. Only lazy keeps
     * one (its commit evidence); the flush-based models' stores are
     * their own evidence, so this is a no-op for them. For values a
     * kernel folds apart from its store sites (MEGA-KV's post-state).
     */
    virtual void fold(ThreadCtx &, PersistAccum &, uint32_t) {}

    /** Close the block's region/epoch and commit durably. Collective. */
    virtual void regionEnd(ThreadCtx &t, PersistAccum &acc) = 0;

    /** Protected 32-bit store: prepare + store + publish (lazy: store
     *  + fold). One virtual call per store on every model. */
    virtual void
    store32(ThreadCtx &t, PersistAccum &acc, Addr addr, uint32_t bits)
    {
        prepare(t, acc, addr, 4);
        t.storeAddr<uint32_t>(addr, bits);
        publish(t, addr);
    }

    /** Protected 16-bit store; lazy folds the zero-extended value. */
    virtual void
    store16(ThreadCtx &t, PersistAccum &acc, Addr addr, uint16_t bits)
    {
        prepare(t, acc, addr, 2);
        t.storeAddr<uint16_t>(addr, bits);
        publish(t, addr);
    }

    /** Protected float store. */
    virtual void
    storeF(ThreadCtx &t, PersistAccum &acc, Addr addr, float value)
    {
        prepare(t, acc, addr, 4);
        t.storeAddr<float>(addr, value);
        publish(t, addr);
    }

    // Host-side recovery contract --------------------------------------------

    /**
     * The model's failure verdict on the durable image: mark in
     * @p failed (cleared by the caller) every block whose region must
     * re-execute. Lazy launches @p validate over @p launch — the
     * workload's checksum validation kernel — and returns that launch,
     * whose cycles recovery charges as validate_cycles and which a
     * second crash may abort. The other models read each block's
     * durable commit flag on the host, ignore @p validate and return
     * an empty (0-cycle, uncrashed) result.
     */
    virtual LaunchResult classify(Device &dev, const LaunchConfig &launch,
                                  const ValidateFn &validate,
                                  RecoverySet &failed) = 0;

    /**
     * Undo the side effects of uncommitted regions where the model
     * keeps enough state to (eager's undo log). Models whose
     * uncommitted damage is repaired by re-execution alone return 0.
     * @return Regions rolled back.
     */
    virtual uint64_t rollback() { return 0; }

    /** Clear and durably persist the commit metadata for a fresh run. */
    virtual void reset() = 0;

    /** Device-memory footprint of the model's metadata. */
    virtual uint64_t footprintBytes() const = 0;
};

/**
 * Host facade over the whole model matrix: constructs the strategy the
 * configured PersistModel selects (LpRuntime for lazy, EpRuntime for
 * eager, durable commit flags for strict/epoch) and hands kernels a
 * ready LpContext.
 */
class PersistRuntime
{
  public:
    /**
     * @param dev Device the kernel will run on.
     * @param cfg Full configuration; cfg.persist selects the model.
     * @param launch Grid/block dimensions of the protected kernel.
     * @param undo_entries_per_thread Eager undo-log capacity per
     *        thread (ignored by the other models).
     */
    PersistRuntime(Device &dev, const LpConfig &cfg,
                   const LaunchConfig &launch,
                   uint64_t undo_entries_per_thread = 8);
    ~PersistRuntime();

    /** The context kernels capture. */
    LpContext context() { return strategy_->context(); }

    /** Model in force. */
    PersistModel model() const { return strategy_->model(); }

    /** Active strategy (never null). */
    PersistStrategy *strategy() { return strategy_.get(); }

    /** Clear (and durably persist) all persistency metadata. */
    void reset() { strategy_->reset(); }

    /** Device-memory footprint of the model's metadata. */
    uint64_t
    footprintBytes() const
    {
        return strategy_->footprintBytes();
    }

  private:
    std::unique_ptr<PersistStrategy> strategy_;
};

/** Fresh per-thread accumulator for whatever model @p lp selects
 *  (@p lp may be null: un-protected baseline run). */
inline PersistAccum
makePersistAccum(const LpContext *lp)
{
    PersistAccum acc;
    acc.checksums = ChecksumAccum(lp ? lp->cfg->checksum
                                     : ChecksumKind::ModularParity);
    return acc;
}

/**
 * Persistent float store: plain store for the un-protected baseline
 * (@p lp null), the strategy's protected store otherwise (lazy: store
 * + checksum fold).
 */
inline void
persistStoreF(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
              ArrayRef<float> arr, uint64_t idx, float value)
{
    if (lp)
        lp->strategy->storeF(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Persistent 32-bit store. */
inline void
persistStoreU32(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
                ArrayRef<uint32_t> arr, uint64_t idx, uint32_t value)
{
    if (lp)
        lp->strategy->store32(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Persistent 16-bit store; lazy folds the zero-extended value (SAD's
 *  uint16 output). */
inline void
persistStoreU16(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
                ArrayRef<uint16_t> arr, uint64_t idx, uint16_t value)
{
    if (lp)
        lp->strategy->store16(t, acc, arr.addrOf(idx), value);
    else
        t.store(arr, idx, value);
}

/** Strategy prepare() for a mutation the caller performs itself (an
 *  atomic claim); no-op for the baseline. Pair with persistPublish. */
inline void
persistPrepare(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
               Addr addr, uint32_t bytes)
{
    if (lp)
        lp->strategy->prepare(t, acc, addr, bytes);
}

/** Strategy publish() counterpart of persistPrepare(). */
inline void
persistPublish(ThreadCtx &t, const LpContext *lp, Addr addr)
{
    if (lp)
        lp->strategy->publish(t, addr);
}

/**
 * Persistent store that lazy does NOT fold (MEGA-KV folds post-state
 * key/value pairs apart from its store sites, see persistFold); the
 * flush-based strategies still owe the store full coverage.
 */
inline void
persistStoreU32NoFold(ThreadCtx &t, const LpContext *lp,
                      PersistAccum &acc, ArrayRef<uint32_t> arr,
                      uint64_t idx, uint32_t value)
{
    persistPrepare(t, lp, acc, arr.addrOf(idx), 4);
    t.store(arr, idx, value);
    persistPublish(t, lp, arr.addrOf(idx));
}

/** Strategy fold(): lazy folds @p bits into the region checksum; a
 *  no-op for the baseline and the flush-based models. */
inline void
persistFold(ThreadCtx &t, const LpContext *lp, PersistAccum &acc,
            uint32_t bits)
{
    if (lp)
        lp->strategy->fold(t, acc, bits);
}

/** End-of-region commit. Collective; no-op for the baseline. */
inline void
persistRegionEnd(ThreadCtx &t, const LpContext *lp, PersistAccum &acc)
{
    if (lp)
        lp->strategy->regionEnd(t, acc);
}

} // namespace gpulp

#endif // GPULP_CORE_PERSIST_H
