/**
 * @file
 * Additional simulator-API coverage: 64-bit atomics, float atomics,
 * atomicMax, signed/64-bit shuffles, stall charging, deadlock
 * detection, shared-memory exhaustion, the recovery set's block-range
 * check, and the fused dual-checksum reduction extension.
 */

#include <gtest/gtest.h>

#include "core/recovery.h"
#include "core/reduce.h"
#include "sim/device.h"

namespace gpulp {
namespace {

TEST(ExecExtraTest, AtomicCAS64RoundTrips)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 0xAABBCCDDEEFF0011ull;
    uint64_t seen = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        seen = t.atomicCAS64(cell.addrOf(0), 0xAABBCCDDEEFF0011ull,
                             0x1122334455667788ull);
    });
    EXPECT_EQ(seen, 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(cell.hostAt(0), 0x1122334455667788ull);
}

TEST(ExecExtraTest, AtomicCAS64FailsOnMismatch)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 5;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        t.atomicCAS64(cell.addrOf(0), 6, 7);
    });
    EXPECT_EQ(cell.hostAt(0), 5u);
}

TEST(ExecExtraTest, AtomicExch64SwapsWholeWord)
{
    Device dev;
    auto cell = ArrayRef<uint64_t>::allocate(dev.mem(), 1);
    cell.hostAt(0) = 111;
    uint64_t old = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        old = t.atomicExch64(cell.addrOf(0), 222);
    });
    EXPECT_EQ(old, 111u);
    EXPECT_EQ(cell.hostAt(0), 222u);
}

TEST(ExecExtraTest, AtomicAddFAccumulatesFloats)
{
    Device dev;
    auto cell = ArrayRef<float>::allocate(dev.mem(), 1);
    dev.launch(LaunchConfig(Dim3(4), Dim3(32)), [&](ThreadCtx &t) {
        t.atomicAddF(cell.addrOf(0), 0.5f);
    });
    EXPECT_EQ(cell.hostAt(0), 64.0f);
}

TEST(ExecExtraTest, AtomicMaxKeepsLargest)
{
    Device dev;
    auto cell = ArrayRef<uint32_t>::allocate(dev.mem(), 1);
    dev.launch(LaunchConfig(Dim3(8), Dim3(16)), [&](ThreadCtx &t) {
        t.atomicMax(cell.addrOf(0),
                    static_cast<uint32_t>(t.globalThreadIdx() * 7 % 101));
    });
    uint32_t expect = 0;
    for (uint32_t i = 0; i < 128; ++i)
        expect = std::max(expect, i * 7 % 101);
    EXPECT_EQ(cell.hostAt(0), expect);
}

TEST(ExecExtraTest, SignedShuffleKeepsSign)
{
    Device dev;
    auto out = ArrayRef<int32_t>::allocate(dev.mem(), 32);
    dev.launch(LaunchConfig(Dim3(1), Dim3(32)), [&](ThreadCtx &t) {
        int32_t v = -static_cast<int32_t>(t.laneId()) - 1;
        t.store(out, t.laneId(), t.shflDownI(v, 2));
    });
    for (uint32_t lane = 0; lane < 30; ++lane)
        EXPECT_EQ(out.hostAt(lane), -static_cast<int32_t>(lane) - 3);
}

TEST(ExecExtraTest, Shuffle64CarriesFullWidth)
{
    Device dev;
    auto out = ArrayRef<uint64_t>::allocate(dev.mem(), 32);
    dev.launch(LaunchConfig(Dim3(1), Dim3(32)), [&](ThreadCtx &t) {
        uint64_t v = (uint64_t{t.laneId()} << 40) | 0xABCDEFull;
        t.store(out, t.laneId(), t.shflDown64(v, 1));
    });
    for (uint32_t lane = 0; lane < 31; ++lane)
        EXPECT_EQ(out.hostAt(lane),
                  (uint64_t{lane + 1} << 40) | 0xABCDEFull);
}

TEST(ExecExtraTest, StallChargesRawCycles)
{
    Device dev;
    Cycles before = 0, after = 0;
    dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
        before = t.now();
        t.stall(1234);
        after = t.now();
    });
    EXPECT_EQ(after - before, 1234u);
}

TEST(ExecExtraDeathTest, MismatchedBarrierDeadlockIsDetected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            dev.launch(LaunchConfig(Dim3(1), Dim3(2)), [&](ThreadCtx &t) {
                // Thread 0 waits at a barrier thread 1 never reaches,
                // and thread 1 waits at a shuffle thread 0 never joins.
                if (t.flatThreadIdx() == 0)
                    t.syncthreads();
                else
                    t.shflDown(1u, 1);
            });
        },
        "deadlocked");
}

TEST(ExecExtraDeathTest, SharedMemoryExhaustionPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            DeviceParams params;
            params.shared_bytes = 1024;
            Device dev(params);
            dev.launch(LaunchConfig(Dim3(1), Dim3(1)), [&](ThreadCtx &t) {
                t.sharedArray<float>(0, 4096);
            });
        },
        "shared memory exhausted");
}

TEST(ExecExtraDeathTest, RecoverySetHostReadOutOfRangePanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            RecoverySet failed(dev, 4);
            (void)failed.isFailedHost(4);
        },
        "block 4 out of range");
}

TEST(ExecExtraTest, FusedReductionMatchesTwoShuffleReduction)
{
    Device dev;
    for (uint32_t threads : {1u, 32u, 63u, 256u}) {
        Checksums fused{}, classic{};
        dev.launch(LaunchConfig(Dim3(1), Dim3(threads)),
                   [&](ThreadCtx &t) {
                       Checksums local{t.flatThreadIdx() * 3 + 1,
                                       ~t.flatThreadIdx()};
                       Checksums f = blockReduceParallelFused(t, local);
                       Checksums c = blockReduceParallel(
                           t, local, ChecksumKind::ModularParity);
                       if (t.flatThreadIdx() == 0) {
                           fused = f;
                           classic = c;
                       }
                   });
        EXPECT_EQ(fused, classic) << threads << " threads";
    }
}

TEST(ExecExtraTest, FusedReductionIsCheaperThanTwoShuffles)
{
    Device dev;
    auto run = [&](bool fused) {
        return dev
            .launch(LaunchConfig(Dim3(4), Dim3(256)),
                    [&](ThreadCtx &t) {
                        Checksums local{t.flatThreadIdx(), 7u};
                        if (fused)
                            blockReduceParallelFused(t, local);
                        else
                            blockReduceParallel(
                                t, local, ChecksumKind::ModularParity);
                    })
            .cycles;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(ExecExtraTest, ConfigLabelsAreStable)
{
    EXPECT_EQ(configLabel(LpConfig::scalable()), "array+shfl+lockfree");
    LpConfig cfg = LpConfig::naive(TableKind::Cuckoo);
    cfg.lock = LockMode::LockBased;
    cfg.reduction = ReductionKind::SequentialGlobal;
    EXPECT_EQ(configLabel(cfg), "cuckoo+noshfl+lockbased");
    cfg.reduction = ReductionKind::ParallelFused;
    EXPECT_EQ(configLabel(cfg), "cuckoo+fused+lockbased");
    EXPECT_STREQ(toString(ChecksumKind::ModularParity), "modular+parity");
    EXPECT_STREQ(toString(LockMode::NoAtomic), "noatomic");
}

} // namespace
} // namespace gpulp
