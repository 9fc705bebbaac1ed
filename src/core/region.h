/**
 * @file
 * The device-side LP region protocol.
 *
 * An LP region on the GPU is a thread block (Sec. IV-A): every thread
 * accumulates the values it stores into a register-resident
 * ChecksumAccum, and at the end of the region the block collectively
 * reduces the partial checksums and one thread commits the result to
 * the checksum store keyed by block ID. Nothing is flushed — that is
 * the whole point of *lazy* persistency.
 *
 * Typical kernel shape:
 *
 * @code
 *   dev.launch(cfg, [&](ThreadCtx &t) {
 *       ChecksumAccum acc = lp.makeAccum();
 *       ... compute; for each persistent store:
 *       t.store(out, i, v);
 *       acc.protectFloat(t, v);
 *       ...
 *       lpCommitRegion(t, lp, acc);   // collective
 *   });
 * @endcode
 *
 * lpCommitRegion / lpValidateRegion are collectives: every live thread
 * of the block must call them exactly once.
 */

#ifndef GPULP_CORE_REGION_H
#define GPULP_CORE_REGION_H

#include "core/checksum.h"
#include "core/checksum_store.h"
#include "core/lp_config.h"
#include "core/reduce.h"

namespace gpulp {

class PersistStrategy; // core/persist.h

/**
 * Everything a kernel needs to participate in LP: configuration, the
 * checksum store, and the global scratch used by sequential reduction.
 * Plain aggregate; cheap to capture in kernel lambdas.
 *
 * @ref strategy is the persistency model in force (LpRuntime for lazy)
 * and is set on every protected run; the persistStore* helpers
 * (core/persist.h) route stores through it, so kernels written against
 * those helpers run unchanged under every model.
 */
struct LpContext {
    const LpConfig *cfg = nullptr;
    ChecksumStore *store = nullptr;
    PersistStrategy *strategy = nullptr; //!< the model; never null
    ArrayRef<uint64_t> scratch; //!< valid only for SequentialGlobal

    /** Fresh accumulator with the configured checksum kind. */
    ChecksumAccum
    makeAccum() const
    {
        return ChecksumAccum(cfg->checksum);
    }
};

/**
 * Reduce the block's partial checksums with the configured method.
 * Collective; the full value is returned on flat thread 0.
 */
Checksums lpReduceBlock(ThreadCtx &t, const LpContext &lp,
                        const ChecksumAccum &acc);

/**
 * End-of-region commit: block-reduce the partial checksums and have
 * thread 0 insert them into the store keyed by the block ID.
 * Collective.
 */
void lpCommitRegion(ThreadCtx &t, const LpContext &lp,
                    const ChecksumAccum &acc);

/**
 * Validation-side counterpart: block-reduce checksums recomputed from
 * the data found in (post-crash) memory and compare with the stored
 * entry. Collective; the verdict is meaningful on flat thread 0.
 *
 * @return On thread 0: true if an entry exists and matches. On other
 *         threads the return value is unspecified.
 */
bool lpValidateRegion(ThreadCtx &t, const LpContext &lp,
                      const ChecksumAccum &recomputed);

} // namespace gpulp

#endif // GPULP_CORE_REGION_H
