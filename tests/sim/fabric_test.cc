/** @file Unit tests for the PCIe/DMA fabric timing model. */

#include <gtest/gtest.h>

#include "sim/interconnect/fabric.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

struct FabricFixture
{
    SystemConfig sys = test::tinySystem();
    SsdDevice ssd{sys};
    Fabric fabric{sys, &ssd, /*uvm_extension=*/true};
};

TEST(Fabric, HostTransferAtLinkSpeed)
{
    FabricFixture f;
    Bytes b = 157540000;  // 10 ms at 15.754 GB/s
    auto t = f.fabric.toGpu(b, MemLoc::Host, 0,
                            TransferCause::Prefetch);
    EXPECT_NEAR(static_cast<double>(t.complete - t.start), 10.0 * MSEC,
                0.1 * MSEC);
    EXPECT_EQ(f.fabric.traffic().hostToGpu, b);
}

TEST(Fabric, SsdTransferBoundBySsdBandwidth)
{
    FabricFixture f;
    Bytes b = 32 * MiB;
    auto t = f.fabric.toGpu(b, MemLoc::Ssd, 0, TransferCause::Prefetch);
    // 3.2 GB/s is the bottleneck, not the 15.75 GB/s link.
    double expect_ns = static_cast<double>(b) / 3.2;
    EXPECT_GT(static_cast<double>(t.complete), expect_ns * 0.95);
    EXPECT_EQ(f.fabric.traffic().ssdToGpu, b);
}

TEST(Fabric, DirectionsAreIndependent)
{
    FabricFixture f;
    Bytes b = 64 * MiB;
    auto in = f.fabric.toGpu(b, MemLoc::Host, 0,
                             TransferCause::Prefetch);
    auto out = f.fabric.fromGpu(b, MemLoc::Host, 0,
                                TransferCause::PreEvict, UINT64_MAX);
    // Full-duplex: the eviction does not wait for the prefetch.
    EXPECT_LT(out.start, in.complete);
}

TEST(Fabric, SameDirectionSerializes)
{
    FabricFixture f;
    Bytes b = 64 * MiB;
    auto first = f.fabric.toGpu(b, MemLoc::Host, 0,
                                TransferCause::Prefetch);
    auto second = f.fabric.toGpu(b, MemLoc::Host, 0,
                                 TransferCause::Prefetch);
    EXPECT_GE(second.complete, first.complete + (first.complete / 2));
}

TEST(Fabric, FaultPaysPerBatchHandlerSerially)
{
    FabricFixture f;
    // 4 fault batches of 1 MiB each: the serial handler makes this much
    // slower than one prefetched 4 MiB transfer.
    auto faulted = f.fabric.toGpu(4 * MiB, MemLoc::Host, 0,
                                  TransferCause::PageFault);
    FabricFixture g;
    auto planned = g.fabric.toGpu(4 * MiB, MemLoc::Host, 0,
                                  TransferCause::Prefetch);
    EXPECT_GT(faulted.complete,
              planned.complete + 3 * g.sys.gpuFaultLatencyNs);
    EXPECT_EQ(f.fabric.traffic().faultBatches, 4u);
}

TEST(Fabric, UvmExtensionRemovesDriverOverhead)
{
    SystemConfig sys = test::tinySystem();
    SsdDevice ssd1(sys);
    SsdDevice ssd2(sys);
    Fabric with(sys, &ssd1, true);
    Fabric without(sys, &ssd2, false);
    // Many small planned migrations: the driver path dominates.
    TimeNs done_with = 0;
    TimeNs done_without = 0;
    for (int i = 0; i < 50; ++i) {
        done_with = with.toGpu(64 * KiB, MemLoc::Host, 0,
                               TransferCause::Prefetch).complete;
        done_without = without.toGpu(64 * KiB, MemLoc::Host, 0,
                                     TransferCause::Prefetch).complete;
    }
    EXPECT_LT(done_with, done_without);
}

TEST(Fabric, FaultEvictSerializesLikeFaults)
{
    FabricFixture f;
    auto slow = f.fabric.fromGpu(4 * MiB, MemLoc::Host, 0,
                                 TransferCause::FaultEvict, UINT64_MAX);
    FabricFixture g;
    auto fast = g.fabric.fromGpu(4 * MiB, MemLoc::Host, 0,
                                 TransferCause::CapacityEvict,
                                 UINT64_MAX);
    EXPECT_GT(slow.complete, fast.complete);
}

TEST(Fabric, SsdWritesGoThroughFtl)
{
    FabricFixture f;
    auto lp = f.ssd.allocLogical(8 * MiB);
    f.fabric.fromGpu(8 * MiB, MemLoc::Ssd, 0, TransferCause::PreEvict,
                     lp);
    EXPECT_EQ(f.ssd.stats().hostWriteBytes, 8 * MiB);
    EXPECT_EQ(f.fabric.traffic().gpuToSsd, 8 * MiB);
}

TEST(Fabric, ZeroByteTransfersAreFree)
{
    FabricFixture f;
    auto t = f.fabric.toGpu(0, MemLoc::Host, 123,
                            TransferCause::Prefetch);
    EXPECT_EQ(t.start, 123);
    EXPECT_EQ(t.complete, 123);
    EXPECT_EQ(f.fabric.traffic().migrationOps, 0u);
}

TEST(Fabric, TransferStartingAtTimeZeroStartsAtZero)
{
    // The driver path with no software cost on idle channels: the
    // first batch of each transfer starts at t = 0, so the transfer
    // does too (not at its second batch's start).
    SystemConfig sys = test::tinySystem();
    sys.hostSwOverheadNs = 0;
    SsdDevice ssd(sys);
    Fabric f(sys, &ssd, /*uvm_extension=*/false);
    const Bytes b = 4 * sys.nonUvmCopyBytes;
    auto in = f.toGpu(b, MemLoc::Host, 0, TransferCause::Prefetch);
    EXPECT_EQ(in.start, 0);
    EXPECT_EQ(in.complete, 4 * transferTimeNs(sys.nonUvmCopyBytes,
                                              sys.pcieGBps));
    auto out = f.fromGpu(b, MemLoc::Host, 0, TransferCause::PreEvict,
                         UINT64_MAX);
    EXPECT_EQ(out.start, 0);
}

TEST(Fabric, LinkBusyAccountingConservesBytes)
{
    FabricFixture f;
    Bytes total = 0;
    for (int i = 0; i < 10; ++i) {
        f.fabric.toGpu(8 * MiB, MemLoc::Host, 0,
                       TransferCause::Prefetch);
        total += 8 * MiB;
    }
    // Busy time equals bytes / link bandwidth.
    EXPECT_NEAR(static_cast<double>(f.fabric.inboundBusyNs()),
                static_cast<double>(total) / f.sys.pcieGBps,
                static_cast<double>(20 * USEC));
}

}  // namespace
}  // namespace g10
