/**
 * @file
 * Differential and conservation tests for the SSD FTL: SsdDevice is
 * driven side by side with the naive reference FTL (ssd_reference.h)
 * through seeded random allocate / write / overwrite / trim sequences,
 * and after every call both must agree on each batch's busy time (the
 * reference takes one call per batch), every SsdStats field, free and
 * valid pages, while SsdDevice's own books balance.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <vector>

#include "sim/ssd/ssd_device.h"
#include "tests/sim/ssd_reference.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

struct OracleCase
{
    const char* name;
    Bytes capacity;                 ///< nominal capacity
    SsdDevice::Geometry geometry;
    std::uint64_t maxRegionPages;   ///< allocation size bound
    std::uint64_t maxWritePages;    ///< single write size bound
    double liveFraction;            ///< cap on mapped pages / block pages
    std::uint64_t seed;
    /** Require a GC trigger strictly inside a write: some write starts
     *  at least 2 free pages above the GC threshold and still runs GC. */
    bool gcInsideWrites = false;
};

// Names the case in test listings (instead of its bytes).
void
PrintTo(const OracleCase& oc, std::ostream* os)
{
    *os << oc.name;
}

SsdDevice::Geometry
smallGeometry(std::uint32_t pages_per_block, double over_provision)
{
    SsdDevice::Geometry g;
    g.flashPageBytes = 4 * KiB;
    g.pagesPerBlock = pages_per_block;
    g.overProvision = over_provision;
    return g;
}

::testing::AssertionResult
sameState(const SsdDevice& dut, const test::ReferenceSsd& ref)
{
    const SsdStats& a = dut.stats();
    const SsdStats& b = ref.stats();
    if (a.hostReadBytes != b.hostReadBytes ||
        a.hostWriteBytes != b.hostWriteBytes ||
        a.nandWriteBytes != b.nandWriteBytes || a.gcRuns != b.gcRuns ||
        a.blockErases != b.blockErases ||
        a.relocatedPages != b.relocatedPages)
        return ::testing::AssertionFailure()
               << "stats differ: gcRuns " << a.gcRuns << " vs " << b.gcRuns
               << ", erases " << a.blockErases << " vs " << b.blockErases
               << ", relocated " << a.relocatedPages << " vs "
               << b.relocatedPages << ", nand " << a.nandWriteBytes
               << " vs " << b.nandWriteBytes;
    if (dut.freePages() != ref.freePages())
        return ::testing::AssertionFailure()
               << "freePages " << dut.freePages() << " vs "
               << ref.freePages();
    if (dut.validPages() != ref.validPages())
        return ::testing::AssertionFailure()
               << "validPages " << dut.validPages() << " vs "
               << ref.validPages();
    return ::testing::AssertionSuccess();
}

/** The FTL's books balance: valid pages, per block and in total, match
 *  the page table, and free pages are the unprogrammed block pages plus
 *  the remainder pages that belong to no block. */
::testing::AssertionResult
conserved(const SsdDevice& ssd)
{
    SsdDevice::Census c = ssd.census();
    if (c.blockValid != ssd.validPages())
        return ::testing::AssertionFailure()
               << "sum of block valid " << c.blockValid
               << " != validPages " << ssd.validPages();
    if (!c.validMatchesTable)
        return ::testing::AssertionFailure()
               << "a block's valid count disagrees with the page table";
    std::uint64_t remainder =
        ssd.totalPages() % ssd.geometry().pagesPerBlock;
    if (c.unprogrammed + remainder != ssd.freePages())
        return ::testing::AssertionFailure()
               << "unprogrammed " << c.unprogrammed << " + remainder "
               << remainder << " != freePages " << ssd.freePages();
    return ::testing::AssertionSuccess();
}

/** Every batch's busy time, as one reference call per batch returns. */
std::vector<TimeNs>
perBatch(const SsdDevice::BatchBusy& busy)
{
    std::vector<TimeNs> t(busy.batches, busy.full);
    t.back() = busy.last;
    for (const auto& [batch, gc] : busy.gc)
        t[batch] += gc;
    return t;
}

class SsdDeviceOracle : public ::testing::TestWithParam<OracleCase>
{};

TEST_P(SsdDeviceOracle, MatchesReferenceAfterEveryCall)
{
    const OracleCase& oc = GetParam();
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = oc.capacity;
    SsdDevice dut(sys, oc.geometry);
    test::ReferenceSsd ref(sys, oc.geometry);
    ASSERT_EQ(dut.totalPages(), ref.totalPages());
    ASSERT_TRUE(sameState(dut, ref));

    const Bytes page = oc.geometry.flashPageBytes;
    const std::uint32_t ppb = oc.geometry.pagesPerBlock;
    const std::uint64_t blockPages = dut.totalPages() / ppb * ppb;
    const std::uint64_t liveCap = static_cast<std::uint64_t>(
        static_cast<double>(blockPages) * oc.liveFraction);
    const std::uint64_t gcThreshold = static_cast<std::uint64_t>(
        static_cast<double>(dut.totalPages()) *
        oc.geometry.gcFreeThreshold);
    std::uint64_t gcInsideWrites = 0;

    struct Region
    {
        std::uint64_t lp;
        std::uint64_t pages;
    };
    std::vector<Region> live;
    std::vector<Region> trimmed;
    std::mt19937_64 rng(oc.seed);
    auto below = [&rng](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    };
    auto trimRegion = [&](std::size_t i) {
        Region r = live[i];
        Bytes bytes = r.pages * page - below(page);  // ragged tail
        dut.freeLogical(r.lp, bytes);
        ref.freeLogical(r.lp, bytes);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        trimmed.push_back(r);
        if (trimmed.size() > 16) {  // forget the oldest, trimmed for good
            dut.freeLogical(trimmed[0].lp, trimmed[0].pages * page);
            ref.freeLogical(trimmed[0].lp, trimmed[0].pages * page);
            trimmed.erase(trimmed.begin());
        }
    };
    // Batch sizes come from their own stream, so the call sequence is
    // the same whatever they are: one batch, whole pages, or ragged
    // batches whose page spans overlap.
    std::mt19937_64 batchRng(oc.seed + 1);
    auto batchFor = [&](Bytes bytes) -> Bytes {
        switch (batchRng() % 3) {
          case 0: return bytes;
          case 1: return page * (1 + batchRng() % 4);
          default: return page * (1 + batchRng() % 3) + 1 +
                          batchRng() % (page - 1);
        }
    };
    // Writes part of @p r; returns the pages written, 0 when the write
    // would push mapped pages past the live cap. The reference takes
    // one call per batch.
    auto writeRange = [&](const Region& r) -> std::uint64_t {
        std::uint64_t len = 1 + below(std::min(r.pages, oc.maxWritePages));
        std::uint64_t off = below(r.pages - len + 1);
        if (ref.validPages() + len > liveCap)
            return 0;
        Bytes bytes = len * page - below(page);
        Bytes batch = batchFor(bytes);
        std::uint64_t freeBefore = dut.freePages();
        std::uint64_t gcBefore = dut.stats().gcRuns;
        std::vector<TimeNs> want;
        for (Bytes o = 0; o < bytes; o += batch)
            want.push_back(ref.serviceWrite(r.lp + off + o / page,
                                            std::min(batch, bytes - o)));
        EXPECT_EQ(perBatch(dut.serviceWrite(r.lp + off, bytes, batch)),
                  want);
        if (freeBefore >= gcThreshold + 2 && dut.stats().gcRuns > gcBefore)
            ++gcInsideWrites;
        return len;
    };

    std::uint64_t overwrites = 0;
    for (int step = 0; step < 6000; ++step) {
        std::uint64_t op = below(100);
        if (op < 15 || live.empty()) {
            if (live.size() >= 24)
                trimRegion(below(live.size()));
            std::uint64_t pages = 1 + below(oc.maxRegionPages);
            Bytes bytes = pages * page - below(page);
            std::uint64_t a = dut.allocLogical(bytes);
            ASSERT_EQ(a, ref.allocLogical(bytes));
            live.push_back({a, pages});
        } else if (op < 80) {
            std::uint64_t before = ref.validPages();
            std::uint64_t len = writeRange(live[below(live.size())]);
            if (len == 0)
                trimRegion(below(live.size()));  // make room
            else if (ref.validPages() - before < len)
                ++overwrites;
        } else if (op < 92) {
            if (below(3) == 0) {
                trimRegion(below(live.size()));
            } else {
                // Trim part of a region; it stays allocated and live.
                const Region& r = live[below(live.size())];
                std::uint64_t len =
                    1 + below(std::min(r.pages, oc.maxWritePages));
                std::uint64_t off = below(r.pages - len + 1);
                dut.freeLogical(r.lp + off, len * page);
                ref.freeLogical(r.lp + off, len * page);
            }
        } else if (!trimmed.empty()) {
            // Re-write (or re-trim) logical space trimmed earlier.
            const Region& r = trimmed[below(trimmed.size())];
            if (below(2) == 0) {
                writeRange(r);
            } else {
                dut.freeLogical(r.lp, r.pages * page);
                ref.freeLogical(r.lp, r.pages * page);
            }
        }
        ASSERT_FALSE(HasFailure()) << "busy time diverged at step " << step;
        ASSERT_TRUE(sameState(dut, ref)) << "step " << step;
        ASSERT_TRUE(conserved(dut)) << "step " << step;
    }

    EXPECT_GT(overwrites, 0u);
    EXPECT_GT(ref.stats().gcRuns, 0u);
    EXPECT_GT(ref.stats().blockErases, 0u);
    EXPECT_GT(ref.stats().relocatedPages, 0u)
        << "mapped " << ref.validPages() << " of cap " << liveCap;
    if (oc.gcInsideWrites)
        EXPECT_GT(gcInsideWrites, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SsdDeviceOracle,
    ::testing::Values(
        // 2 MiB * 1.07 = 547 pages: 34 blocks of 16 plus 3 remainder
        // pages that belong to no block.
        OracleCase{"RemainderPages", 2 * MiB, smallGeometry(16, 0.07), 40,
                   24, 0.70, 11},
        // No spare area: 512 pages, 64 blocks of 8, no remainder.
        OracleCase{"NoOverProvision", 2 * MiB, smallGeometry(8, 0.0), 24, 16,
                   0.60, 23},
        // Four-page blocks and tiny writes: many blocks tie on their
        // valid count, so the lowest-index tie-break decides victims,
        // and the high live share forces relocation.
        OracleCase{"TieHeavy", 1 * MiB, smallGeometry(4, 0.07), 24, 2,
                   0.75, 37},
        // Writes up to five blocks long: a write spans several open
        // blocks, and GC triggers at a page inside it, not only at its
        // first or last page.
        OracleCase{"LongWrites", 2 * MiB, smallGeometry(8, 0.07), 96, 40,
                   0.60, 53, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
        return std::string(info.param.name);
    });

TEST(SsdDeviceOracle, HotPagesRewrittenInTheOpenBlockMatchReference)
{
    // Single-page writes: a few hot pages rewritten so often that their
    // old copies die while still in the open block, between cycling
    // rewrites of cold data. A block that loses pages while open must
    // still become a GC candidate once the log moves off it.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 256 * KiB;
    SsdDevice::Geometry g = smallGeometry(4, 0.07);
    g.gcFreeThreshold = 0.1;
    SsdDevice dut(sys, g);
    test::ReferenceSsd ref(sys, g);
    const Bytes page = g.flashPageBytes;
    const std::uint64_t coldPages = dut.totalPages() / 2;
    std::uint64_t hot = dut.allocLogical(3 * page);
    std::uint64_t cold = dut.allocLogical(coldPages * page);
    ASSERT_EQ(hot, ref.allocLogical(3 * page));
    ASSERT_EQ(cold, ref.allocLogical(coldPages * page));
    std::mt19937_64 rng(5);
    std::uint64_t next = 0;
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t lp = rng() % 2 == 0 ? hot + rng() % 3
                                          : cold + next++ % coldPages;
        ASSERT_EQ(dut.serviceWrite(lp, page, page).total(),
                  ref.serviceWrite(lp, page))
            << "step " << step;
        ASSERT_TRUE(sameState(dut, ref)) << "step " << step;
        ASSERT_TRUE(conserved(dut)) << "step " << step;
    }
    EXPECT_GT(ref.stats().relocatedPages, 0u);
}

TEST(SsdDeviceOracle, DeviceSmallerThanOneBlockMatchesReference)
{
    // 10 physical pages but one 16-page block: free pages read 0 after
    // the tenth write and the block keeps accepting writes until full.
    // GC runs below 2 free pages but never finds a victim: the only
    // block is the open one.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 40 * KiB;
    SsdDevice::Geometry g = smallGeometry(16, 0.0);
    g.gcFreeThreshold = 0.25;
    SsdDevice dut(sys, g);
    test::ReferenceSsd ref(sys, g);
    ASSERT_EQ(dut.totalPages(), 10u);
    std::uint64_t lp = dut.allocLogical(16 * g.flashPageBytes);
    ASSERT_EQ(lp, ref.allocLogical(16 * g.flashPageBytes));
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(
            dut.serviceWrite(lp + i, g.flashPageBytes, g.flashPageBytes)
                .total(),
            ref.serviceWrite(lp + i, g.flashPageBytes));
        ASSERT_TRUE(sameState(dut, ref)) << "page " << i;
    }
    EXPECT_EQ(dut.freePages(), 0u);
    EXPECT_GT(dut.stats().gcRuns, 0u);
    EXPECT_EQ(dut.stats().blockErases, 0u);
}

TEST(SsdDeviceOracle, DeviceSmallerThanOneBlockTakesOneLongWrite)
{
    // The geometry above filled by one 16-page write: free pages fall
    // below the threshold after the ninth page, and from there each page
    // runs its own (fruitless) GC, also once free pages read 0.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 40 * KiB;
    SsdDevice::Geometry g = smallGeometry(16, 0.0);
    g.gcFreeThreshold = 0.25;
    SsdDevice dut(sys, g);
    test::ReferenceSsd ref(sys, g);
    const Bytes bytes = 16 * g.flashPageBytes;
    std::uint64_t lp = dut.allocLogical(bytes);
    ASSERT_EQ(lp, ref.allocLogical(bytes));
    EXPECT_EQ(dut.serviceWrite(lp, bytes, bytes).total(),
              ref.serviceWrite(lp, bytes));
    EXPECT_TRUE(sameState(dut, ref));
    EXPECT_EQ(dut.freePages(), 0u);
    EXPECT_EQ(dut.validPages(), 16u);
    EXPECT_EQ(dut.stats().gcRuns, 8u);
    EXPECT_TRUE(dut.census().validMatchesTable);
}

/** Drives one SsdDevice and the reference with the same whole-page
 *  writes (one batch each) and trims, checking after every call. */
struct ScriptedPair
{
    SsdDevice dut;
    test::ReferenceSsd ref;
    Bytes page;

    ScriptedPair(const SystemConfig& sys, const SsdDevice::Geometry& g)
        : dut(sys, g), ref(sys, g), page(g.flashPageBytes)
    {}

    std::uint64_t
    alloc(std::uint64_t pages)
    {
        std::uint64_t lp = dut.allocLogical(pages * page);
        EXPECT_EQ(lp, ref.allocLogical(pages * page));
        return lp;
    }

    ::testing::AssertionResult
    write(std::uint64_t lp, std::uint64_t pages)
    {
        Bytes bytes = pages * page;
        TimeNs got = dut.serviceWrite(lp, bytes, bytes).total();
        TimeNs want = ref.serviceWrite(lp, bytes);
        if (got != want)
            return ::testing::AssertionFailure()
                   << "busy " << got << " vs " << want;
        return check();
    }

    ::testing::AssertionResult
    trim(std::uint64_t lp, std::uint64_t pages)
    {
        dut.freeLogical(lp, pages * page);
        ref.freeLogical(lp, pages * page);
        return check();
    }

    ::testing::AssertionResult
    check()
    {
        ::testing::AssertionResult same = sameState(dut, ref);
        return same ? conserved(dut) : same;
    }
};

TEST(SsdDeviceOracle, ExtentEdgesMatchReference)
{
    // 1 MiB * 1.07 = 273 pages: 17 blocks of 16, GC below 13 free
    // pages. Page offsets below are within the 64-page region r; the
    // comments give the extents a step leaves, as [first, end) block.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 1 * MiB;
    ScriptedPair p(sys, smallGeometry(16, 0.07));
    const std::uint64_t r = p.alloc(64);
    const std::uint64_t s = p.alloc(32);
    // [0,16) b0, [16,32) b1, [32,40) b2.
    ASSERT_TRUE(p.write(r, 40));
    // Starts and ends inside [0,16): [0,3) b0, [3,6) b2, [6,16) b0.
    ASSERT_TRUE(p.write(r + 3, 3));
    // A prefix shorter than the tensor, as an eviction of a partly
    // resident tensor writes: covers [0,3) and [3,6), cuts [6,16) at 10
    // and crosses from b2 into b3.
    ASSERT_TRUE(p.write(r, 10));
    // Covers several whole extents and the never-written [40,48).
    ASSERT_TRUE(p.write(r, 48));
    // Trims the middle of an extent, then a range that is partly
    // written and partly never written, then one spanning that hole.
    ASSERT_TRUE(p.trim(r + 20, 4));
    ASSERT_TRUE(p.trim(r + 44, 20));
    ASSERT_TRUE(p.trim(r + 18, 12));
    // Trims over a never-written region, whole and in part.
    ASSERT_TRUE(p.trim(s + 4, 8));
    ASSERT_TRUE(p.trim(s, 32));
    // Fills part of the hole, then spans mapped pages, the rest of the
    // hole and more mapped pages.
    ASSERT_TRUE(p.write(r + 20, 4));
    ASSERT_TRUE(p.write(r + 16, 16));
    // Adjacent writes into the same open block: the second extends the
    // first's extent, and rewriting both starts at that extent.
    ASSERT_TRUE(p.write(r + 50, 2));
    ASSERT_TRUE(p.write(r + 52, 2));
    ASSERT_TRUE(p.write(r + 50, 4));
    ASSERT_TRUE(p.write(r + 51, 1));
    ASSERT_TRUE(p.trim(r, 64));
    EXPECT_EQ(p.dut.validPages(), 0u);
    EXPECT_EQ(p.dut.logicalTableBytes(), 0u);
}

TEST(SsdDeviceOracle, GcTriggerInsideABlockExtendsTheExtent)
{
    // 8 blocks of 16 pages, GC below 12 free pages. With blocks 0..3
    // written and trimmed and blocks 4..6 full, free pages read 16, so
    // an 8-page write into block 7 triggers GC at its fifth page and is
    // programmed as two segments in one block: one extent.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 512 * KiB;
    SsdDevice::Geometry g = smallGeometry(16, 0.0);
    g.gcFreeThreshold = 0.1;
    std::uint64_t oneExtent = 0;
    {
        SsdDevice one(sys, g);
        one.serviceWrite(one.allocLogical(g.flashPageBytes),
                         g.flashPageBytes, g.flashPageBytes);
        oneExtent = one.logicalTableBytes();
    }
    ScriptedPair p(sys, g);
    ASSERT_EQ(p.dut.totalPages(), 128u);
    const std::uint64_t a = p.alloc(64);
    const std::uint64_t b = p.alloc(48);
    const std::uint64_t c = p.alloc(8);
    ASSERT_TRUE(p.write(a, 64));
    ASSERT_TRUE(p.trim(a, 64));
    ASSERT_TRUE(p.write(b, 48));
    ASSERT_EQ(p.dut.freePages(), 16u);
    ASSERT_EQ(p.dut.stats().gcRuns, 0u);
    ASSERT_EQ(p.dut.logicalTableBytes(), 3 * oneExtent);
    ASSERT_TRUE(p.write(c, 8));
    EXPECT_EQ(p.dut.stats().gcRuns, 1u);
    EXPECT_EQ(p.dut.stats().blockErases, 1u);
    EXPECT_EQ(p.dut.logicalTableBytes(), 4 * oneExtent);
}

TEST(SsdDeviceConservation, BooksBalanceThroughJobChurnAndGc)
{
    // The serving pattern at the default geometry: a resident job and a
    // stream of departing ones. The resident job's region is written
    // interleaved with the first departing job (then one piece in eight
    // is rewritten per generation), so once that job departs its blocks
    // stay half valid and GC has to relocate.
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 256 * MiB;
    SsdDevice ssd(sys);
    ASSERT_NE(ssd.totalPages() % ssd.geometry().pagesPerBlock, 0u);
    ASSERT_TRUE(conserved(ssd));
    const Bytes piece = 1 * MiB;
    const std::uint64_t piecePages = piece / ssd.geometry().flashPageBytes;
    auto resident = ssd.allocLogical(96 * MiB);
    for (int gen = 0; gen < 8; ++gen) {
        auto job = ssd.allocLogical(96 * MiB);
        for (std::uint64_t i = 0; i < 96; ++i) {
            if (gen == 0 || i % 8 == 0)
                ssd.serviceWrite(resident + i * piecePages, piece, piece);
            ssd.serviceWrite(job + i * piecePages, piece, piece);
            ASSERT_TRUE(conserved(ssd)) << "gen " << gen << " piece " << i;
        }
        ssd.freeLogical(job + 32 * piecePages, 16 * piece);
        ASSERT_TRUE(conserved(ssd)) << "gen " << gen << " partial trim";
        ssd.freeLogical(job, 96 * MiB);
        ASSERT_TRUE(conserved(ssd)) << "gen " << gen << " trim";
    }
    EXPECT_GT(ssd.stats().blockErases, 0u);
    EXPECT_GT(ssd.stats().relocatedPages, 0u);
    EXPECT_EQ(ssd.validPages(), 96 * piecePages);
}

}  // namespace
}  // namespace g10
