/** @file Unit tests for the SSD FTL/GC/wear model. */

#include <gtest/gtest.h>

#include "sim/ssd/ssd_device.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

SystemConfig
smallSsdSys()
{
    SystemConfig s = test::tinySystem();
    s.ssdCapacityBytes = 256 * MiB;  // tiny so GC is reachable
    return s;
}

TEST(SsdDevice, ReadTimingMatchesDatasheet)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    // 3.2 GB/s + 20 us latency: 1 ms of streaming.
    TimeNs t = ssd.serviceRead(3200000, 3200000).total();
    EXPECT_NEAR(static_cast<double>(t), 1.0 * MSEC + 20.0 * USEC,
                2.0 * USEC);
    EXPECT_EQ(ssd.stats().hostReadBytes, 3200000u);
}

TEST(SsdDevice, WriteTimingAndTraffic)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(8 * MiB);
    TimeNs t = ssd.serviceWrite(lp, 8 * MiB, 8 * MiB).total();
    EXPECT_GT(t, transferTimeNs(8 * MiB, s.ssdWriteGBps));
    EXPECT_EQ(ssd.stats().hostWriteBytes, 8 * MiB);
    EXPECT_GE(ssd.stats().nandWriteBytes, 8 * MiB);
}

TEST(SsdDevice, FreshDeviceWafIsOne)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(16 * MiB);
    ssd.serviceWrite(lp, 16 * MiB, 16 * MiB);
    EXPECT_DOUBLE_EQ(ssd.stats().waf(), 1.0);
    EXPECT_EQ(ssd.stats().gcRuns, 0u);
}

TEST(SsdDevice, OverwritesInvalidateOldPages)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(4 * MiB);
    std::uint64_t before = ssd.freePages();
    ssd.serviceWrite(lp, 4 * MiB, 4 * MiB);
    std::uint64_t after_first = ssd.freePages();
    EXPECT_LT(after_first, before);
    // A rewrite appends to the log (consuming fresh pages) and only
    // *invalidates* the old copies -- they stay unusable until GC.
    ssd.serviceWrite(lp, 4 * MiB, 4 * MiB);
    EXPECT_EQ(ssd.freePages(), after_first - 4 * MiB / 64 / KiB);
}

TEST(SsdDevice, GarbageCollectionTriggersUnderChurn)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    // Hammer one logical region until the log wraps and GC must run.
    auto lp = ssd.allocLogical(32 * MiB);
    for (int i = 0; i < 40; ++i)
        ssd.serviceWrite(lp, 32 * MiB, 32 * MiB);
    EXPECT_GT(ssd.stats().gcRuns, 0u);
    EXPECT_GT(ssd.stats().blockErases, 0u);
    EXPECT_GE(ssd.stats().waf(), 1.0);
}

TEST(SsdDevice, LifetimeYearsScalesInverselyWithWriteRate)
{
    SystemConfig s = smallSsdSys();
    SsdDevice a(s);
    SsdDevice b(s);
    auto lp1 = a.allocLogical(64 * MiB);
    auto lp2 = b.allocLogical(64 * MiB);
    a.serviceWrite(lp1, 64 * MiB, 64 * MiB);
    b.serviceWrite(lp2, 64 * MiB, 64 * MiB);
    b.serviceWrite(lp2, 64 * MiB, 64 * MiB);  // double, same window
    double la = ssdLifetimeYears(a.stats(), s.ssdCapacityBytes, 1 * SEC,
                                 30.0, 5.0);
    double lb = ssdLifetimeYears(b.stats(), s.ssdCapacityBytes, 1 * SEC,
                                 30.0, 5.0);
    EXPECT_NEAR(la / lb, 2.0, 0.05);
}

TEST(SsdDevice, LifetimeMatchesPaperArithmetic)
{
    // §7.7: a saturated 3 GB/s stream that is half writes (the paper's
    // 50/50 read/write mix) wears a 30-DWPD 3.2 TB device in ~3.7 years.
    SystemConfig s;  // full-size device
    SsdDevice ssd(s);
    const Bytes written = 3ULL * 1000 * 1000 * 1000;  // 3 GB of writes
    auto lp = ssd.allocLogical(written);
    ssd.serviceWrite(lp, written, written);
    double years = ssdLifetimeYears(ssd.stats(), s.ssdCapacityBytes,
                                    2 * SEC, 30.0, 5.0);  // in 2 s
    EXPECT_NEAR(years, 3.7, 0.2);
}

TEST(SsdDevice, FreeLogicalInvalidatesPages)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(4 * MiB);
    ssd.serviceWrite(lp, 4 * MiB, 4 * MiB);
    std::uint64_t pages = 4 * MiB / (64 * KiB);
    EXPECT_EQ(ssd.validPages(), pages);
    ssd.freeLogical(lp, 4 * MiB);
    EXPECT_EQ(ssd.validPages(), 0u);
    // Trimming is host metadata only: no wear, no GC, no frees yet.
    EXPECT_EQ(ssd.stats().blockErases, 0u);
}

TEST(SsdDevice, FreeLogicalOfUnwrittenRegionIsANoop)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(8 * MiB);
    ssd.freeLogical(lp, 8 * MiB);  // never written
    EXPECT_EQ(ssd.validPages(), 0u);
    EXPECT_EQ(ssd.freePages(), ssd.totalPages());
}

TEST(SsdDevice, TrimmedSpaceIsReclaimedUnderJobChurn)
{
    // Serving-style churn: each "job" allocates a region larger than
    // half the device, writes it, departs (trim). With trim, GC can
    // erase the departed jobs' blocks and the device survives many
    // generations; without it the accumulated valid pages would
    // exceed physical capacity and the write path would die.
    SystemConfig s = smallSsdSys();  // 256 MiB device
    SsdDevice ssd(s);
    for (int gen = 0; gen < 8; ++gen) {
        auto lp = ssd.allocLogical(160 * MiB);
        ssd.serviceWrite(lp, 160 * MiB, 160 * MiB);
        ssd.freeLogical(lp, 160 * MiB);
    }
    EXPECT_GT(ssd.stats().gcRuns, 0u);
    EXPECT_GT(ssd.stats().blockErases, 0u);
    EXPECT_EQ(ssd.validPages(), 0u);
    // Dead pages relocate for free, so write amplification stays
    // modest even though the log wrapped several times.
    EXPECT_LT(ssd.stats().waf(), 2.0);
}

TEST(SsdDeviceDeath, LeakedLogicalSpaceEventuallyFillsTheDevice)
{
    // The regression freeLogical() fixes: without trim, departed
    // jobs' pages stay valid forever and churn overruns capacity.
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    EXPECT_EXIT(
        {
            for (int gen = 0; gen < 8; ++gen) {
                auto lp = ssd.allocLogical(160 * MiB);
                ssd.serviceWrite(lp, 160 * MiB, 160 * MiB);
                // no freeLogical: space leaks
            }
        },
        ::testing::ExitedWithCode(1), "SSD is full");
}

TEST(SsdDevice, LogicalTableStaysBoundedUnderJobChurn)
{
    // A thousand job generations push 128k logical pages through one
    // device. The page table follows the live pages, not the 512 KiB a
    // flat table of every page ever allocated would hold: each job's 128
    // pages land in at most two 256-page blocks, one extent per block
    // (a GC trigger inside a block extends the extent before it), and
    // the table empties when the job departs.
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    std::uint64_t extentBytes = 0;
    for (int gen = 0; gen < 1000; ++gen) {
        auto lp = ssd.allocLogical(8 * MiB);
        ssd.serviceWrite(lp, 8 * MiB, 8 * MiB);
        if (gen == 0) {
            extentBytes = ssd.logicalTableBytes();  // one block, one extent
            ASSERT_GT(extentBytes, 0u);
        }
        ASSERT_LE(ssd.logicalTableBytes(), 2 * extentBytes) << "gen " << gen;
        ssd.freeLogical(lp, 8 * MiB);
        ASSERT_EQ(ssd.logicalTableBytes(), 0u) << "gen " << gen;
    }
    EXPECT_EQ(ssd.validPages(), 0u);
    EXPECT_GT(ssd.stats().blockErases, 0u);
}

TEST(SsdDevice, OpenBlockSearchCoversTheLastPartialBitsetWord)
{
    // 70 blocks: the not-full bitset's second word holds 6 blocks. With
    // GC off, writes must fill every block, the last one included, and
    // the next write must find no block at all (none past the end).
    SystemConfig s = test::tinySystem();
    s.ssdCapacityBytes = 70 * 4 * 4 * KiB;
    SsdDevice::Geometry g;
    g.flashPageBytes = 4 * KiB;
    g.pagesPerBlock = 4;
    g.overProvision = 0.0;
    g.gcFreeThreshold = 0.0;
    SsdDevice ssd(s, g);
    ASSERT_EQ(ssd.totalPages(), 280u);
    auto lp = ssd.allocLogical(281 * g.flashPageBytes);
    for (std::uint64_t p = 0; p < 280; p += 28)
        ssd.serviceWrite(lp + p, 28 * g.flashPageBytes,
                         28 * g.flashPageBytes);
    EXPECT_EQ(ssd.freePages(), 0u);
    EXPECT_EQ(ssd.validPages(), 280u);
    SsdDevice::Census c = ssd.census();
    EXPECT_EQ(c.unprogrammed, 0u);
    EXPECT_TRUE(c.validMatchesTable);
    EXPECT_EXIT(ssd.serviceWrite(lp + 280, g.flashPageBytes,
                                 g.flashPageBytes),
                ::testing::ExitedWithCode(1), "SSD is full");
}

TEST(SsdDevice, AllocLogicalAdvances)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto a = ssd.allocLogical(1 * MiB);
    auto b = ssd.allocLogical(1 * MiB);
    EXPECT_GT(b, a);
}

}  // namespace
}  // namespace g10
