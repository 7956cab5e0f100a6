/**
 * @file
 * Differential tests for the transfer fabric: two Fabrics sharing one
 * FabricChannels and one SsdDevice are driven side by side with the
 * batch-by-batch reference (fabric_reference.h over ssd_reference.h).
 * Each case builds a seeded call tape in memory -- allocations,
 * migrations in both directions on every path, trims -- and replays it
 * through both sides. After every call the two must agree on the
 * Transfer, the shared channels, each fabric's TrafficStats, every
 * SsdStats field and the valid and free pages, and SsdDevice's books
 * must balance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "sim/interconnect/fabric.h"
#include "tests/sim/fabric_reference.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

struct TapeCase
{
    const char* name;
    SystemConfig sys;
    SsdDevice::Geometry geometry;
    double liveFraction;  ///< cap on region pages / block pages
    std::uint64_t seed;
    /** Require writes that start with free pages below the GC
     *  threshold, so every page runs GC (the single-page mode). */
    bool singlePageGc = false;
};

void
PrintTo(const TapeCase& tc, std::ostream* os)
{
    *os << tc.name;
}

/** One recorded call. In: toGpu; Out: fromGpu; Alloc and Trim act on
 *  the SSD's logical space (`region` indexes the allocations). */
struct Call
{
    enum class Op : std::uint8_t { Alloc, In, Out, Trim };
    Op op = Op::In;
    int fabric = 0;  ///< 0: unified page table; 1: driver path
    Bytes bytes = 0;
    MemLoc loc = MemLoc::Host;
    TransferCause cause = TransferCause::Prefetch;
    TimeNs earliest = 0;
    std::size_t region = 0;
};

std::ostream&
operator<<(std::ostream& os, const Call& c)
{
    static const char* const kOps[] = {"alloc", "in", "out", "trim"};
    return os << kOps[static_cast<int>(c.op)] << " fabric " << c.fabric
              << " bytes " << c.bytes << " ssd " << (c.loc == MemLoc::Ssd)
              << " cause " << static_cast<int>(c.cause) << " earliest "
              << c.earliest;
}

/** A seeded tape. Regions count against the live cap from their first
 *  write until trimmed whole, so the device never fills. */
std::vector<Call>
buildTape(const TapeCase& tc, std::uint64_t blockPages, std::size_t calls)
{
    const Bytes page = tc.geometry.flashPageBytes;
    const std::uint64_t liveCap = static_cast<std::uint64_t>(
        static_cast<double>(blockPages) * tc.liveFraction);
    const Bytes maxBytes =
        6 * std::max({tc.sys.transferSetBytes, tc.sys.nonUvmCopyBytes,
                      tc.sys.faultBatchBytes, tc.sys.pageBytes});
    const std::uint64_t maxRegionPages = maxBytes / page + 2;
    std::mt19937_64 rng(tc.seed);
    auto below = [&rng](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    };
    struct Region
    {
        Bytes bytes;
        std::uint64_t pages;
        bool live = false;
    };
    std::vector<Region> regions;
    std::uint64_t live = 0;
    TimeNs clock = 0;
    std::vector<Call> tape;
    while (tape.size() < calls) {
        Call c;
        c.fabric = static_cast<int>(below(2));
        clock += static_cast<TimeNs>(below(40 * USEC));
        c.earliest = below(4) == 0 ? 0 : clock;
        c.bytes = 1 + below(maxBytes);
        if (below(4) == 0)  // whole batches
            c.bytes = (c.bytes + tc.sys.transferSetBytes - 1) /
                      tc.sys.transferSetBytes * tc.sys.transferSetBytes;
        std::uint64_t op = below(100);
        if (op < 8 || regions.empty()) {
            c.op = Call::Op::Alloc;
            std::uint64_t pages = 1 + below(maxRegionPages);
            c.bytes = pages * page - below(page);
            regions.push_back({c.bytes, pages});
        } else if (op < 45) {
            c.op = Call::Op::In;
            c.loc = below(2) == 0 ? MemLoc::Host : MemLoc::Ssd;
            c.cause = below(3) == 0 ? TransferCause::PageFault
                                    : TransferCause::Prefetch;
        } else if (op < 88) {
            c.op = Call::Op::Out;
            static constexpr std::array<TransferCause, 3> kOut = {
                TransferCause::PreEvict, TransferCause::CapacityEvict,
                TransferCause::FaultEvict};
            c.cause = kOut[below(3)];
            c.region = below(regions.size());
            Region& r = regions[c.region];
            c.loc = MemLoc::Host;
            if (below(5) < 3 &&
                (r.live || live + r.pages <= liveCap)) {
                c.loc = MemLoc::Ssd;
                c.bytes = below(2) == 0 ? r.bytes : 1 + below(r.bytes);
                live += r.live ? 0 : r.pages;
                r.live = true;
            }
        } else {
            c.op = Call::Op::Trim;
            c.region = below(regions.size());
            Region& r = regions[c.region];
            c.bytes = r.bytes;
            if (below(3) == 0) {
                c.bytes = 1 + below(r.bytes);  // stays live
            } else if (r.live) {
                live -= r.pages;
                r.live = false;
            }
        }
        tape.push_back(c);
    }
    return tape;
}

::testing::AssertionResult
sameTraffic(const TrafficStats& a, const TrafficStats& b)
{
    if (a.ssdToGpu != b.ssdToGpu || a.gpuToSsd != b.gpuToSsd ||
        a.hostToGpu != b.hostToGpu || a.gpuToHost != b.gpuToHost ||
        a.faultBatches != b.faultBatches ||
        a.migrationOps != b.migrationOps)
        return ::testing::AssertionFailure()
               << "traffic differs: ssd->gpu " << a.ssdToGpu << " vs "
               << b.ssdToGpu << ", gpu->ssd " << a.gpuToSsd << " vs "
               << b.gpuToSsd << ", fault batches " << a.faultBatches
               << " vs " << b.faultBatches;
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameChannels(const FabricChannels& a, const FabricChannels& b)
{
    if (a.pcieInFree != b.pcieInFree || a.pcieOutFree != b.pcieOutFree ||
        a.ssdFree != b.ssdFree || a.hostSwFree != b.hostSwFree ||
        a.pcieInBusy != b.pcieInBusy || a.pcieOutBusy != b.pcieOutBusy)
        return ::testing::AssertionFailure()
               << "channels differ: in " << a.pcieInFree << " vs "
               << b.pcieInFree << ", out " << a.pcieOutFree << " vs "
               << b.pcieOutFree << ", ssd " << a.ssdFree << " vs "
               << b.ssdFree << ", sw " << a.hostSwFree << " vs "
               << b.hostSwFree;
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameSsd(const SsdDevice& dut, const test::ReferenceSsd& ref)
{
    const SsdStats& a = dut.stats();
    const SsdStats& b = ref.stats();
    if (a.hostReadBytes != b.hostReadBytes ||
        a.hostWriteBytes != b.hostWriteBytes ||
        a.nandWriteBytes != b.nandWriteBytes || a.gcRuns != b.gcRuns ||
        a.blockErases != b.blockErases ||
        a.relocatedPages != b.relocatedPages)
        return ::testing::AssertionFailure()
               << "SSD stats differ: gcRuns " << a.gcRuns << " vs "
               << b.gcRuns << ", nand " << a.nandWriteBytes << " vs "
               << b.nandWriteBytes << ", read " << a.hostReadBytes
               << " vs " << b.hostReadBytes;
    if (dut.validPages() != ref.validPages() ||
        dut.freePages() != ref.freePages())
        return ::testing::AssertionFailure()
               << "pages differ: valid " << dut.validPages() << " vs "
               << ref.validPages() << ", free " << dut.freePages()
               << " vs " << ref.freePages();
    SsdDevice::Census census = dut.census();
    std::uint64_t remainder =
        dut.totalPages() % dut.geometry().pagesPerBlock;
    if (census.blockValid != dut.validPages() ||
        !census.validMatchesTable ||
        census.unprogrammed + remainder != dut.freePages())
        return ::testing::AssertionFailure() << "SSD books do not balance";
    return ::testing::AssertionSuccess();
}

class FabricOracle : public ::testing::TestWithParam<TapeCase>
{};

TEST_P(FabricOracle, MatchesReferenceAfterEveryCall)
{
    const TapeCase& tc = GetParam();
    SsdDevice ssd(tc.sys, tc.geometry);
    test::ReferenceSsd refSsd(tc.sys, tc.geometry);
    FabricChannels ch;
    FabricChannels refCh;
    Fabric uvm(tc.sys, &ssd, true, &ch);
    Fabric driver(tc.sys, &ssd, false, &ch);
    test::ReferenceFabric refUvm(tc.sys, &refSsd, true, &refCh);
    test::ReferenceFabric refDriver(tc.sys, &refSsd, false, &refCh);
    std::array<Fabric*, 2> dut = {&uvm, &driver};
    std::array<test::ReferenceFabric*, 2> ref = {&refUvm, &refDriver};

    const std::uint32_t ppb = tc.geometry.pagesPerBlock;
    const std::vector<Call> tape =
        buildTape(tc, ssd.totalPages() / ppb * ppb, 4000);
    const std::uint64_t gcThreshold = static_cast<std::uint64_t>(
        static_cast<double>(ssd.totalPages()) * tc.geometry.gcFreeThreshold);

    // Coverage: [path][inbound][ssd] with path 0 planned, 1 driver,
    // 2 fault; ragged last batches; GC after a migration's first batch
    // and in the single-page mode; trims.
    std::uint64_t seen[3][2][2] = {};
    std::uint64_t raggedLast = 0;
    std::uint64_t gcInside = 0;
    std::uint64_t gcSinglePage = 0;
    std::uint64_t trims = 0;
    std::vector<std::uint64_t> lps;
    for (std::size_t step = 0; step < tape.size(); ++step) {
        const Call& c = tape[step];
        Fabric::Transfer got{};
        Fabric::Transfer want{};
        std::uint64_t freeBefore = ssd.freePages();
        std::uint64_t gcBefore = ssd.stats().gcRuns;
        switch (c.op) {
          case Call::Op::Alloc:
            lps.push_back(ssd.allocLogical(c.bytes));
            ASSERT_EQ(lps.back(), refSsd.allocLogical(c.bytes));
            break;
          case Call::Op::Trim:
            ssd.freeLogical(lps[c.region], c.bytes);
            refSsd.freeLogical(lps[c.region], c.bytes);
            ++trims;
            break;
          case Call::Op::In:
          case Call::Op::Out: {
            const bool in = c.op == Call::Op::In;
            const bool fault = c.cause == (in ? TransferCause::PageFault
                                              : TransferCause::FaultEvict);
            const Bytes batch = std::max(
                fault ? tc.sys.faultBatchBytes
                      : c.fabric == 1 ? tc.sys.nonUvmCopyBytes
                                      : tc.sys.transferSetBytes,
                tc.sys.pageBytes);
            std::uint64_t lp = c.loc == MemLoc::Ssd && !in
                                   ? lps[c.region]
                                   : UINT64_MAX;
            if (in) {
                got = dut[c.fabric]->toGpu(c.bytes, c.loc, c.earliest,
                                           c.cause);
                want = ref[c.fabric]->toGpu(c.bytes, c.loc, c.earliest,
                                            c.cause);
            } else {
                got = dut[c.fabric]->fromGpu(c.bytes, c.loc, c.earliest,
                                             c.cause, lp);
                want = ref[c.fabric]->fromGpu(c.bytes, c.loc, c.earliest,
                                              c.cause, lp);
            }
            ++seen[fault ? 2 : c.fabric][in][c.loc == MemLoc::Ssd];
            if (c.bytes > batch && c.bytes % batch != 0)
                ++raggedLast;
            const Bytes page = tc.geometry.flashPageBytes;
            const std::uint64_t firstPages =
                (std::min(batch, c.bytes) + page - 1) / page;
            if (!in && ssd.stats().gcRuns > gcBefore) {
                if (freeBefore >= gcThreshold + firstPages)
                    ++gcInside;
                if (freeBefore < gcThreshold)
                    ++gcSinglePage;
            }
            break;
          }
        }
        ASSERT_EQ(got.start, want.start) << "step " << step << ": " << c;
        ASSERT_EQ(got.complete, want.complete)
            << "step " << step << ": " << c;
        ASSERT_TRUE(sameChannels(ch, refCh)) << "step " << step << ": " << c;
        for (int f = 0; f < 2; ++f)
            ASSERT_TRUE(sameTraffic(dut[f]->traffic(), ref[f]->traffic()))
                << "fabric " << f << ", step " << step << ": " << c;
        ASSERT_TRUE(sameSsd(ssd, refSsd)) << "step " << step << ": " << c;
    }

    for (int path = 0; path < 3; ++path)
        for (int in = 0; in < 2; ++in)
            for (int onSsd = 0; onSsd < 2; ++onSsd)
                EXPECT_GT(seen[path][in][onSsd], 0u)
                    << "path " << path << " inbound " << in << " ssd "
                    << onSsd;
    EXPECT_GT(raggedLast, 0u);
    EXPECT_GT(trims, 0u);
    EXPECT_GT(refSsd.stats().blockErases, 0u);
    EXPECT_GT(gcInside, 0u);
    if (tc.singlePageGc) {
        EXPECT_GT(gcSinglePage, 0u);
    }
}

SsdDevice::Geometry
tapeGeometry(std::uint32_t pages_per_block, double gc_free_threshold)
{
    SsdDevice::Geometry g;
    g.flashPageBytes = 4 * KiB;
    g.pagesPerBlock = pages_per_block;
    g.overProvision = 0.07;
    g.gcFreeThreshold = gc_free_threshold;
    return g;
}

/** A 2 MiB device with batches of a few flash pages. */
SystemConfig
tapeSystem(Bytes transfer_set, Bytes non_uvm_copy, Bytes fault_batch)
{
    SystemConfig sys = test::tinySystem();
    sys.ssdCapacityBytes = 2 * MiB;
    sys.transferSetBytes = transfer_set;
    sys.nonUvmCopyBytes = non_uvm_copy;
    sys.faultBatchBytes = fault_batch;
    return sys;
}

TapeCase
zeroSoftwareCost()
{
    // No host software cost and a slow link: transfers on idle channels
    // start at t = 0, and the link, not the device, paces the SSD.
    SystemConfig sys = tapeSystem(16 * KiB, 8 * KiB, 12 * KiB);
    sys.hostSwOverheadNs = 0;
    sys.gpuFaultLatencyNs = 0;
    sys.pcieGBps = 0.25;
    return {"ZeroSoftwareCost", sys, tapeGeometry(16, 0.05), 0.6, 41};
}

TapeCase
raggedBatches()
{
    // No batch is a whole number of flash pages, so batch page spans
    // overlap; fault batches are raised to the (3 KiB) GPU page.
    SystemConfig sys = tapeSystem(10 * KiB + 1, 6 * KiB, 1 * KiB);
    sys.pageBytes = 3 * KiB;
    return {"RaggedBatches", sys, tapeGeometry(8, 0.05), 0.6, 29};
}

INSTANTIATE_TEST_SUITE_P(
    Tapes, FabricOracle,
    ::testing::Values(
        TapeCase{"WholePageBatches",
                 tapeSystem(16 * KiB, 8 * KiB, 12 * KiB),
                 tapeGeometry(16, 0.05), 0.6, 17},
        raggedBatches(),
        // Up to 85% of the pages live against a 25% GC threshold: GC
        // cannot restore the free pages, so every page programmed
        // runs it.
        TapeCase{"SinglePageGc", tapeSystem(16 * KiB, 8 * KiB, 12 * KiB),
                 tapeGeometry(8, 0.25), 0.85, 5, true},
        zeroSoftwareCost()),
    [](const ::testing::TestParamInfo<TapeCase>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace g10
