#include "reduce.h"

namespace gpulp {

namespace {

uint64_t
foldSum(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.sum += unpackChecksums(got).sum;
    return packChecksums(cs);
}

uint64_t
foldParity(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.parity ^= unpackChecksums(got).parity;
    return packChecksums(cs);
}

uint64_t
foldBoth(uint64_t mine, uint64_t got)
{
    Checksums cs = unpackChecksums(mine);
    cs.merge(unpackChecksums(got));
    return packChecksums(cs);
}

/** Warp reduction with both checksums packed in one 64-bit shuffle. */
Checksums
warpReduceFused(ThreadCtx &t, Checksums local)
{
    return unpackChecksums(t.warpReduce(packChecksums(local), foldBoth,
                                        /*shuffles_per_step=*/1,
                                        /*ops_per_shuffle=*/2));
}

/**
 * Listing 3's two stages around @p warp_reduce: every warp reduces,
 * warp leaders park their results in shared memory, and warp 0
 * reduces the parked values.
 */
template <typename WarpReduceFn>
Checksums
blockReduceTwoStage(ThreadCtx &t, Checksums local, WarpReduceFn warp_reduce)
{
    Checksums warp_sum = warp_reduce(local);

    auto parked =
        t.sharedArray<uint64_t>(kLpReduceSharedSlot, kWarpSize);
    if (t.laneId() == 0)
        parked.set(t.warpId(), packChecksums(warp_sum));
    t.syncthreads();

    Checksums result{};
    if (t.warpId() == 0) {
        Checksums mine = t.laneId() < t.numWarps()
                             ? unpackChecksums(parked.get(t.laneId()))
                             : Checksums{};
        result = warp_reduce(mine);
    }
    // Second barrier so a subsequent region in the same kernel can
    // safely reuse the parked slot.
    t.syncthreads();
    return result;
}

} // namespace

Checksums
warpReduceChecksums(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    // One shuffle per step per active checksum, each followed by one
    // ALU op on a folding lane.
    WarpFold fold = kind == ChecksumKind::Modular  ? foldSum
                    : kind == ChecksumKind::Parity ? foldParity
                                                   : foldBoth;
    uint32_t shuffles = kind == ChecksumKind::ModularParity ? 2 : 1;
    return unpackChecksums(t.warpReduce(packChecksums(local), fold,
                                        shuffles, /*ops_per_shuffle=*/1));
}

Checksums
blockReduceParallel(ThreadCtx &t, Checksums local, ChecksumKind kind)
{
    return blockReduceTwoStage(t, local, [&](Checksums cs) {
        return warpReduceChecksums(t, cs, kind);
    });
}

Checksums
blockReduceParallelFused(ThreadCtx &t, Checksums local)
{
    return blockReduceTwoStage(
        t, local, [&](Checksums cs) { return warpReduceFused(t, cs); });
}

Checksums
blockReduceSequentialGlobal(ThreadCtx &t, Checksums local,
                            ChecksumKind kind, ArrayRef<uint64_t> &scratch)
{
    (void)kind;
    t.store(scratch, t.globalThreadIdx(), packChecksums(local));
    t.syncthreads();

    Checksums result{};
    if (t.flatThreadIdx() == 0) {
        uint64_t threads = t.blockDim().count();
        uint64_t base = t.blockRank() * threads;
        for (uint64_t i = 0; i < threads; ++i) {
            result.merge(unpackChecksums(t.load(scratch, base + i)));
            t.compute(2);
        }
    }
    t.syncthreads();
    return result;
}

} // namespace gpulp
