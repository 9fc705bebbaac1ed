/**
 * @file
 * Crash-recovery support: the per-block failed set and the recovery
 * driver shared by every persistency model (Sec. II-A, Sec. IV-A and
 * Listing 7).
 *
 * Recovery after a crash proceeds in two steps, as in the paper:
 *
 *  1. classification marks the blocks whose region must re-execute in
 *     a RecoverySet. Under lazy persistency this is a validation
 *     kernel with the original grid dimensions that recomputes every
 *     block's checksum from the data found in memory and compares it
 *     with the checksum table; the flush-based models read their
 *     durable per-block commit flags on the host instead;
 *  2. a recovery kernel re-executes only the failed (idempotent)
 *     blocks, re-committing them.
 *
 * After every completed round the driver persists everything
 * (whole-cache flush), so forward progress is guaranteed even if
 * another crash follows.
 */

#ifndef GPULP_CORE_RECOVERY_H
#define GPULP_CORE_RECOVERY_H

#include <cstdint>
#include <functional>

#include "core/region.h"
#include "sim/device.h"

namespace gpulp {

/**
 * Device-resident array of per-block pass/fail flags produced by
 * validation and consumed by the recovery kernel.
 */
class RecoverySet
{
  public:
    RecoverySet(Device &dev, uint64_t num_blocks);

    /** Number of blocks tracked. */
    uint64_t numBlocks() const { return num_blocks_; }

    /** Device-side: mark this block as needing recovery. */
    void markFailed(ThreadCtx &t, uint64_t block);

    /** Host-side flag read; the recovery driver's re-execution test. */
    bool isFailedHost(uint64_t block) const;

    /** Host-side: mark a block failed (the commit-flag models classify
     *  on the host before re-execution). */
    void markFailedHost(uint64_t block);

    /** Host-side: clear all flags. */
    void clearAll();

    /** Host-side: number of blocks currently marked failed. */
    uint64_t failedCount() const;

  private:
    Device &dev_;
    uint64_t num_blocks_;
    Addr flags_; //!< one uint32 per block
};

/** Outcome of a validate-and-recover pass. */
struct RecoveryReport {
    uint64_t blocks_checked = 0;
    uint64_t blocks_failed = 0;   //!< checksum mismatch or missing entry
    uint64_t blocks_recovered = 0;
    Cycles validate_cycles = 0;   //!< summed over all validation rounds
    Cycles recover_cycles = 0;    //!< summed over all recovery rounds
    uint64_t rounds = 0;          //!< validate(+recover) rounds executed
    uint64_t crashes_survived = 0;//!< crashes absorbed mid-recovery
    bool converged = false;       //!< a full validation found 0 failures
};

/** Validation kernel body: recompute the block's verdict from the
 *  data in memory and mark failures in the set (collective). */
using ValidateFn = std::function<void(ThreadCtx &, RecoverySet &)>;

class PersistStrategy; // core/persist.h

/**
 * The recovery driver, for every persistency model.
 *
 * Each round resolves a pending power failure, lets the model roll
 * back what it can (eager's undo log), classifies through
 * PersistStrategy::classify(), re-executes only the failed blocks
 * through @p region, and persists everything (whole-cache flush). It
 * loops until a classification pass finds zero failed blocks. A crash
 * that strikes *during* recovery (the second failure the protocol is
 * designed for, Sec. IV-A) is absorbed: the NVM model rewinds to the
 * last persisted image and the loop reclassifies from there. The
 * flush after every completed round guarantees forward progress —
 * each round durably shrinks the failed set, so the loop terminates
 * unless crashes re-arm forever.
 *
 * @param dev The device (the NVM model should already have rewound
 *            memory to the persisted image via NvmCache::crash(); a
 *            still-pending latch is resolved first).
 * @param launch Grid/block dimensions of the original kernel.
 * @param strategy The model the original kernel committed through.
 * @param validate Validation kernel body; only lazy launches it
 *        (lpValidateRegion() per block, marking failures). The other
 *        models classify from commit flags and may pass {}.
 * @param region The original kernel body, run only on failed blocks;
 *        it must be idempotent and end with the model's region commit
 *        (persistRegionEnd / lpCommitRegion).
 * @param max_rounds Safety cap on rounds; when it is hit the report
 *        comes back with converged == false instead of looping forever
 *        (a store that cannot round-trip a checksum — e.g. the pre-fix
 *        global-array sentinel bug — would otherwise livelock).
 * @return Counts and cycle costs across all rounds. blocks_failed is
 *         the failed count of the *first complete* classification —
 *         the damage the crash actually caused — not the sum over
 *         rounds. validate_cycles is 0 for the commit-flag models.
 */
RecoveryReport persistRecover(Device &dev, const LaunchConfig &launch,
                              PersistStrategy &strategy,
                              const ValidateFn &validate,
                              const KernelFn &region,
                              uint64_t max_rounds = 32);

} // namespace gpulp

#endif // GPULP_CORE_RECOVERY_H
