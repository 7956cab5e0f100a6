#include "fabric.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

Fabric::Fabric(const SystemConfig& config, SsdDevice* ssd,
               bool uvm_extension, FabricChannels* shared)
    : config_(config), ssd_(ssd), uvmExtension_(uvm_extension),
      ch_(shared != nullptr ? shared : &own_)
{
    if (ssd_ == nullptr)
        fatal("Fabric requires an SSD device model");
}

TimeNs
Fabric::hostSoftwareCost(TransferCause cause) const
{
    switch (cause) {
      case TransferCause::PageFault:
        // Fault handling always takes the host round trip (Table 2).
        return config_.gpuFaultLatencyNs;
      case TransferCause::FaultEvict:
        return config_.gpuFaultLatencyNs;
      case TransferCause::Prefetch:
      case TransferCause::PreEvict:
      case TransferCause::CapacityEvict:
        // With the unified page table the handler touches only PTEs;
        // without it each migration op crosses the driver/syscall path.
        return uvmExtension_ ? 2 * USEC : config_.hostSwOverheadNs;
    }
    return 0;
}

Fabric::Transfer
Fabric::toGpu(Bytes bytes, MemLoc src, TimeNs earliest,
              TransferCause cause)
{
    if (src == MemLoc::Gpu)
        panic("toGpu: source is GPU");
    return migrate(bytes, src, true, earliest, cause,
                   cause == TransferCause::PageFault, 0);
}

Fabric::Transfer
Fabric::fromGpu(Bytes bytes, MemLoc dst, TimeNs earliest,
                TransferCause cause, std::uint64_t ssd_logical_page)
{
    if (dst == MemLoc::Gpu)
        panic("fromGpu: destination is GPU");
    return migrate(bytes, dst, false, earliest, cause,
                   cause == TransferCause::FaultEvict, ssd_logical_page);
}

Fabric::Transfer
Fabric::migrate(Bytes bytes, MemLoc far, bool inbound, TimeNs earliest,
                TransferCause cause, bool fault,
                std::uint64_t ssd_logical_page)
{
    if (bytes == 0)
        return Transfer{earliest, earliest};

    ++traffic_.migrationOps;

    // Three ways to pace the batches: fault batches (on-demand paging
    // discovers faults serially, so handler and DMA do NOT pipeline --
    // this is what makes Base UVM pay 4-5x over ideal in the paper);
    // driver batches (no unified page table: the driver sets up PTEs,
    // syscall and DMA descriptor for every copy chunk, pipelined with
    // the previous chunk's DMA but serialized on the host software
    // timeline); and planned batches behind one PTE interaction per
    // migration op (the unified page table, §4.5).
    const bool driver = !fault && !uvmExtension_;
    const Bytes batch = std::max<Bytes>(
        fault ? config_.faultBatchBytes
              : driver ? config_.nonUvmCopyBytes : config_.transferSetBytes,
        config_.pageBytes);
    const TimeNs sw = fault ? config_.gpuFaultLatencyNs
                      : driver ? config_.hostSwOverheadNs
                               : hostSoftwareCost(cause);
    const std::uint64_t batches = (bytes + batch - 1) / batch;
    const Bytes lastBytes = bytes - (batches - 1) * batch;

    // The first batch's software step ends at `ready`; a driver batch j
    // is set up by ready + j * sw, a fault batch j >= 1 by the previous
    // batch's completion + sw, and planned batches wait on ready alone.
    const TimeNs ready = std::max(earliest, ch_->hostSwFree) + sw;
    if (!fault)
        ch_->hostSwFree =
            driver ? ready + static_cast<TimeNs>(batches - 1) * sw : ready;

    const SsdDevice::BatchBusy* dev = nullptr;
    if (far == MemLoc::Ssd)
        dev = inbound ? &ssd_->serviceRead(bytes, batch)
                      : &ssd_->serviceWrite(ssd_logical_page, bytes, batch);
    TimeNs& linkFree = inbound ? ch_->pcieInFree : ch_->pcieOutFree;
    TimeNs& linkBusy = inbound ? ch_->pcieInBusy : ch_->pcieOutBusy;
    Bytes& moved = far == MemLoc::Ssd
                       ? (inbound ? traffic_.ssdToGpu : traffic_.gpuToSsd)
                       : (inbound ? traffic_.hostToGpu : traffic_.gpuToHost);

    Transfer out;
    TimeNs done = 0;  // completion of the last batch advanced
    // Advance @p count batches of @p size bytes from batch @p first,
    // each keeping the device busy for @p busy. Within such a run batch
    // k's start is max(driver ? ready + (first + k) * sw : 0, s + k * b):
    // s is batch first's start and b its per-batch step -- the link or,
    // on the SSD, the slower of link and device, plus sw for faults.
    auto advance = [&](std::uint64_t first, std::uint64_t count, Bytes size,
                       TimeNs busy) {
        const TimeNs link = transferTimeNs(size, config_.pcieGBps);
        const TimeNs step = dev != nullptr ? std::max(link, busy) : link;
        TimeNs s = fault && first > 0 ? done + sw
                   : driver ? ready + static_cast<TimeNs>(first) * sw
                            : ready;
        s = std::max(s, linkFree);
        if (dev != nullptr)
            s = std::max(s, ch_->ssdFree);
        if (first == 0)
            out.start = s;
        const TimeNs k = static_cast<TimeNs>(count - 1);
        TimeNs last = s + k * (fault ? step + sw : step);
        if (driver)
            last = std::max(
                last, ready + static_cast<TimeNs>(first + count - 1) * sw);
        if (fault)  // the last batch's handler step
            ch_->hostSwFree = first + count == 1 ? ready : last;
        linkFree = last + link;
        linkBusy += static_cast<TimeNs>(count) * link;
        if (dev != nullptr)
            ch_->ssdFree = last + busy;
        done = last + step;
        moved += count * size;
        if (fault && inbound)
            traffic_.faultBatches += count;
    };

    // Runs of full batches in closed form; batch by batch only where GC
    // lengthened a batch and for a partial last batch.
    const TimeNs fullBusy = dev != nullptr ? dev->full : 0;
    const TimeNs lastBusy = dev != nullptr ? dev->last : 0;
    std::uint64_t next = 0;
    auto fullRun = [&](std::uint64_t end) {
        if (end > next) {
            advance(next, end - next, batch, fullBusy);
            next = end;
        }
    };
    if (dev != nullptr) {
        for (const auto& [j, gc] : dev->gc) {
            fullRun(j);
            bool last = j + 1 == batches;
            advance(j, 1, last ? lastBytes : batch,
                    (last ? lastBusy : fullBusy) + gc);
            next = j + 1;
        }
    }
    fullRun(lastBytes == batch ? batches : batches - 1);
    if (next < batches)
        advance(next, 1, lastBytes, lastBusy);
    out.complete = done;
    return out;
}

}  // namespace g10
