/** @file Unit tests for the memory partition lease manager. */

#include <gtest/gtest.h>

#include "engine/partition.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

TEST(PartitionShare, ScalesOnlyMemoryCapacities)
{
    SystemConfig whole = test::tinySystem();
    SystemConfig half = partitionShare(whole, 0.5);
    EXPECT_EQ(half.gpuMemBytes, whole.gpuMemBytes / 2);
    EXPECT_EQ(half.hostMemBytes, whole.hostMemBytes / 2);
    // Shared resources are untouched: same SSD, link, latencies.
    EXPECT_EQ(half.ssdCapacityBytes, whole.ssdCapacityBytes);
    EXPECT_DOUBLE_EQ(half.pcieGBps, whole.pcieGBps);
    EXPECT_DOUBLE_EQ(half.ssdReadGBps, whole.ssdReadGBps);
    EXPECT_EQ(half.pageBytes, whole.pageBytes);
}

TEST(PartitionManager, SlotLeaseLifecycle)
{
    PartitionManager pm(test::tinySystem(), 2);
    EXPECT_EQ(pm.slots(), 2);
    EXPECT_EQ(pm.freeSlots(), 2);

    PartitionManager::Lease a = pm.acquire();
    PartitionManager::Lease b = pm.acquire();
    EXPECT_TRUE(a.active());
    EXPECT_TRUE(b.active());
    EXPECT_NE(a.slot, b.slot);
    EXPECT_FALSE(pm.hasFree());
    EXPECT_EQ(a.sys.gpuMemBytes, pm.slotSystem().gpuMemBytes);

    pm.release(&a);
    EXPECT_FALSE(a.active());
    EXPECT_EQ(pm.freeSlots(), 1);

    // A reclaimed slot is immediately leasable again (churn).
    PartitionManager::Lease c = pm.acquire();
    EXPECT_TRUE(c.active());
    EXPECT_FALSE(pm.hasFree());
    pm.release(&b);
    pm.release(&c);
    EXPECT_EQ(pm.freeSlots(), 2);
    EXPECT_EQ(pm.granted(), 3u);
    EXPECT_EQ(pm.reclaimed(), 3u);
}

TEST(PartitionManager, SlotSystemSplitsEqually)
{
    SystemConfig whole = test::tinySystem();
    PartitionManager pm(whole, 4);
    EXPECT_EQ(pm.slotSystem().gpuMemBytes, whole.gpuMemBytes / 4);
    EXPECT_EQ(pm.slotSystem().hostMemBytes, whole.hostMemBytes / 4);
}

TEST(PartitionManagerDeath, OverSubscriptionPanics)
{
    PartitionManager pm(test::tinySystem(), 1);
    PartitionManager::Lease a = pm.acquire();
    EXPECT_DEATH(pm.acquire(), "no free partition");
    pm.release(&a);
}

TEST(PartitionManagerDeath, DoubleReleasePanics)
{
    PartitionManager pm(test::tinySystem(), 1);
    PartitionManager::Lease a = pm.acquire();
    PartitionManager::Lease copy = a;
    pm.release(&a);
    EXPECT_DEATH(pm.release(&copy), "double release");
}

TEST(PartitionManagerDeath, ZeroSlotsIsFatal)
{
    EXPECT_EXIT(PartitionManager(test::tinySystem(), 0),
                ::testing::ExitedWithCode(1), "slots");
}

// ---- Elastic capacity: byte leases, resize, split ------------------

TEST(PartitionElastic, ByteLeaseAccountingConserves)
{
    SystemConfig whole = test::tinySystem();
    PartitionManager pm(whole, 2);
    EXPECT_EQ(pm.totalGpuBytes(), whole.gpuMemBytes);
    EXPECT_EQ(pm.freeGpuBytes(), whole.gpuMemBytes);

    PartitionManager::Lease a = pm.acquireBytes(16 * MiB, 64 * MiB);
    PartitionManager::Lease b = pm.acquireBytes(8 * MiB, 32 * MiB);
    EXPECT_EQ(a.sys.gpuMemBytes, 16 * MiB);
    EXPECT_EQ(a.sys.hostMemBytes, 64 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes(), 24 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes() + pm.freeGpuBytes(),
              pm.totalGpuBytes());
    EXPECT_EQ(pm.leasedHostBytes() + pm.freeHostBytes(),
              pm.totalHostBytes());

    pm.release(&a);
    EXPECT_EQ(pm.leasedGpuBytes(), 8 * MiB);
    pm.release(&b);
    EXPECT_EQ(pm.leasedGpuBytes(), 0u);
    EXPECT_EQ(pm.freeGpuBytes(), pm.totalGpuBytes());
}

TEST(PartitionElastic, ResizeMovesBytesThroughTheFreePool)
{
    PartitionManager pm(test::tinySystem(), 2);
    PartitionManager::Lease a = pm.acquireBytes(32 * MiB, 128 * MiB);

    pm.resize(&a, 16 * MiB, 64 * MiB);  // shrink returns to the pool
    EXPECT_EQ(a.sys.gpuMemBytes, 16 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes(), 16 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes() + pm.freeGpuBytes(),
              pm.totalGpuBytes());

    pm.resize(&a, 48 * MiB, 256 * MiB);  // grow takes from the pool
    EXPECT_EQ(a.sys.gpuMemBytes, 48 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes(), 48 * MiB);
    EXPECT_EQ(pm.resizes(), 2u);
    pm.release(&a);
}

TEST(PartitionElastic, SplitConservesEveryByte)
{
    PartitionManager pm(test::tinySystem(), 2);
    PartitionManager::Lease a = pm.acquireBytes(48 * MiB, 96 * MiB);
    const Bytes leased_before = pm.leasedGpuBytes();

    PartitionManager::Lease child = pm.split(&a, 0.5);
    // The two leases together hold exactly what the one held.
    EXPECT_EQ(a.sys.gpuMemBytes + child.sys.gpuMemBytes, 48 * MiB);
    EXPECT_EQ(a.sys.hostMemBytes + child.sys.hostMemBytes, 96 * MiB);
    EXPECT_EQ(pm.leasedGpuBytes(), leased_before);
    EXPECT_EQ(pm.activeLeases(), 2);
    EXPECT_NE(a.slot, child.slot);

    // Releasing the carved lease returns exactly its bytes.
    const Bytes child_gpu = child.sys.gpuMemBytes;
    pm.release(&child);
    EXPECT_EQ(pm.leasedGpuBytes(), leased_before - child_gpu);
    EXPECT_EQ(pm.activeLeases(), 1);
    EXPECT_FALSE(child.active());
    pm.release(&a);
    EXPECT_EQ(pm.leasedGpuBytes(), 0u);
}

TEST(PartitionElastic, ByteLeasesGrowPastTheSlotCap)
{
    // Byte mode is bounded by capacity, not the slot count: the slot
    // table grows, while slot-mode accounting still reports its cap.
    PartitionManager pm(test::tinySystem(), 1);
    PartitionManager::Lease a = pm.acquireBytes(8 * MiB, 8 * MiB);
    PartitionManager::Lease b = pm.acquireBytes(8 * MiB, 8 * MiB);
    PartitionManager::Lease c = pm.acquireBytes(8 * MiB, 8 * MiB);
    EXPECT_EQ(pm.activeLeases(), 3);
    EXPECT_EQ(pm.slots(), 1);
    EXPECT_EQ(pm.freeSlots(), 0);
    pm.release(&a);
    pm.release(&b);
    pm.release(&c);
    EXPECT_EQ(pm.granted(), 3u);
    EXPECT_EQ(pm.reclaimed(), 3u);
}

TEST(PartitionElastic, RandomChurnConservesBytes)
{
    // Property: under arbitrary interleavings of acquire / release /
    // resize / split, leased + free == total at every step
    // and the slot table never hands out overlapping accounting.
    SystemConfig whole = test::tinySystem();
    PartitionManager pm(whole, 4);
    std::vector<PartitionManager::Lease> leases;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto rnd = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    for (int step = 0; step < 500; ++step) {
        const std::uint64_t op = rnd() % 4;
        if (op == 0 || leases.empty()) {
            const Bytes gpu = (1 + rnd() % 4) * MiB;
            if (gpu <= pm.freeGpuBytes() &&
                gpu <= pm.freeHostBytes())
                leases.push_back(pm.acquireBytes(gpu, gpu));
        } else if (op == 1) {
            const std::size_t i = rnd() % leases.size();
            pm.release(&leases[i]);
            leases.erase(leases.begin() +
                         static_cast<std::ptrdiff_t>(i));
        } else if (op == 2) {
            const std::size_t i = rnd() % leases.size();
            const Bytes gpu = (1 + rnd() % 4) * MiB;
            const Bytes cur = leases[i].sys.gpuMemBytes;
            if (gpu <= cur || gpu - cur <= pm.freeGpuBytes())
                pm.resize(&leases[i], gpu,
                          std::min(gpu, leases[i].sys.hostMemBytes +
                                            pm.freeHostBytes()));
        } else {
            const std::size_t i = rnd() % leases.size();
            if (leases[i].sys.gpuMemBytes >= 2 * MiB)
                leases.push_back(pm.split(&leases[i], 0.5));
        }

        // Conservation invariants after every operation.
        Bytes sum_gpu = 0, sum_host = 0;
        for (const PartitionManager::Lease& l : leases) {
            ASSERT_TRUE(l.active());
            sum_gpu += l.sys.gpuMemBytes;
            sum_host += l.sys.hostMemBytes;
        }
        ASSERT_EQ(sum_gpu, pm.leasedGpuBytes());
        ASSERT_EQ(sum_host, pm.leasedHostBytes());
        ASSERT_EQ(pm.leasedGpuBytes() + pm.freeGpuBytes(),
                  pm.totalGpuBytes());
        ASSERT_EQ(static_cast<int>(leases.size()),
                  pm.activeLeases());
    }
    for (PartitionManager::Lease& l : leases)
        pm.release(&l);
    EXPECT_EQ(pm.leasedGpuBytes(), 0u);
    EXPECT_EQ(pm.granted(), pm.reclaimed());
}

TEST(PartitionElasticDeath, StaleLeaseReleasePanics)
{
    // The double-release trap the generation ids close: releasing a
    // copy of a reclaimed lease whose slot has since been re-leased
    // used to silently free someone else's partition.
    PartitionManager pm(test::tinySystem(), 1);
    PartitionManager::Lease a = pm.acquire();
    PartitionManager::Lease copy = a;
    pm.release(&a);
    PartitionManager::Lease b = pm.acquire();  // re-leases slot 0
    EXPECT_EQ(b.slot, copy.slot);
    EXPECT_DEATH(pm.release(&copy), "stale lease");
    pm.release(&b);
}

TEST(PartitionElasticDeath, ByteOverSubscriptionPanics)
{
    PartitionManager pm(test::tinySystem(), 2);
    PartitionManager::Lease a =
        pm.acquireBytes(pm.totalGpuBytes(), 0);
    EXPECT_DEATH(pm.acquireBytes(1 * MiB, 0), "over-subscribes");
    pm.release(&a);
}

TEST(PartitionElasticDeath, ResizeBeyondTheFreePoolPanics)
{
    PartitionManager pm(test::tinySystem(), 2);
    PartitionManager::Lease a =
        pm.acquireBytes(pm.totalGpuBytes() - 1 * MiB, 0);
    PartitionManager::Lease b = pm.acquireBytes(1 * MiB, 0);
    EXPECT_DEATH(pm.resize(&b, 2 * MiB, 0), "only");
    pm.release(&a);
    pm.release(&b);
}

TEST(PartitionElasticDeath, SplitFractionMustBeInUnitInterval)
{
    PartitionManager pm(test::tinySystem(), 2);
    PartitionManager::Lease a = pm.acquireBytes(8 * MiB, 8 * MiB);
    EXPECT_DEATH(pm.split(&a, 0.0), "fraction");
    EXPECT_DEATH(pm.split(&a, 1.0), "fraction");
    pm.release(&a);
}

}  // namespace
}  // namespace g10
