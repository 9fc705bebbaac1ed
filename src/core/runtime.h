/**
 * @file
 * LpRuntime: the host-side facade tying the LP pieces together.
 *
 * This is the runtime the paper's `#pragma nvm lpcuda_init` directive
 * lowers to: it owns the checksum store sized for the kernel's grid,
 * allocates reduction scratch when the configuration needs it, and
 * hands kernels a ready LpContext. It is also the lazy model's
 * PersistStrategy: stores fold into the per-thread checksum, the
 * region end commits it, and recovery classifies with the workload's
 * validation kernel.
 */

#ifndef GPULP_CORE_RUNTIME_H
#define GPULP_CORE_RUNTIME_H

#include <memory>

#include "core/checksum_store.h"
#include "core/persist.h"

namespace gpulp {

/**
 * Per-kernel LP state: create one next to each LP-protected kernel
 * launch (matching the one-lpcuda_init-per-region rule of Sec. VI).
 */
class LpRuntime final : public PersistStrategy
{
  public:
    /**
     * @param dev Device the kernel will run on.
     * @param cfg LP design-space configuration.
     * @param launch Grid/block dimensions of the protected kernel;
     *        sizes the checksum store (one key per thread block) and
     *        the sequential-reduction scratch.
     */
    LpRuntime(Device &dev, const LpConfig &cfg, const LaunchConfig &launch);

    PersistModel model() const override { return PersistModel::Lazy; }

    /** The context kernels capture. */
    LpContext context() override;

    /** The underlying checksum store. */
    ChecksumStore &store() { return *store_; }

    /** Configuration in force. */
    const LpConfig &config() const { return cfg_; }

    // Device-side protocol: no flushes, checksum folds only.

    void prepare(ThreadCtx &, PersistAccum &, Addr, uint32_t) override {}

    void publish(ThreadCtx &, Addr) override {}

    void
    fold(ThreadCtx &t, PersistAccum &acc, uint32_t bits) override
    {
        acc.checksums.protectU32(t, bits);
    }

    void
    store32(ThreadCtx &t, PersistAccum &acc, Addr addr,
            uint32_t bits) override
    {
        t.storeAddr<uint32_t>(addr, bits);
        acc.checksums.protectU32(t, bits);
    }

    void
    store16(ThreadCtx &t, PersistAccum &acc, Addr addr,
            uint16_t bits) override
    {
        t.storeAddr<uint16_t>(addr, bits);
        acc.checksums.protectU32(t, bits);
    }

    void
    storeF(ThreadCtx &t, PersistAccum &acc, Addr addr,
           float value) override
    {
        t.storeAddr<float>(addr, value);
        acc.checksums.protectFloat(t, value);
    }

    /** lpCommitRegion() on the block's folded checksums. */
    void regionEnd(ThreadCtx &t, PersistAccum &acc) override;

    /** Launch @p validate: the checksum validation kernel. */
    LaunchResult classify(Device &dev, const LaunchConfig &launch,
                          const ValidateFn &validate,
                          RecoverySet &failed) override;

    /**
     * Bytes of device memory this LP instance adds (checksum store +
     * scratch) — the numerator of Table V's space overhead.
     */
    uint64_t footprintBytes() const override;

    /** Clear the store (and scratch) for a fresh run. */
    void reset() override;

  private:
    Device &dev_;
    LpConfig cfg_;
    std::unique_ptr<ChecksumStore> store_;
    ArrayRef<uint64_t> scratch_;
};

} // namespace gpulp

#endif // GPULP_CORE_RUNTIME_H
