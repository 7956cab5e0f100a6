/**
 * @file
 * Test-only reference fabric: the original batch-by-batch Fabric loop
 * kept verbatim, driving the reference FTL (ssd_reference.h) with one
 * service call per transfer-set batch. The differential tests drive it
 * side by side with Fabric + SsdDevice and require every observable to
 * match exactly, so it must not be "fixed" or optimized. Its one change
 * from the original: a transfer's start is its first batch's start (the
 * original took the first nonzero one, so a transfer whose first batch
 * started at t = 0 reported the second batch's start).
 */

#ifndef G10_TESTS_SIM_FABRIC_REFERENCE_H
#define G10_TESTS_SIM_FABRIC_REFERENCE_H

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "sim/interconnect/fabric.h"
#include "tests/sim/ssd_reference.h"

namespace g10 {
namespace test {

class ReferenceFabric
{
  public:
    using Transfer = Fabric::Transfer;

    ReferenceFabric(const SystemConfig& config, ReferenceSsd* ssd,
                    bool uvm_extension, FabricChannels* shared = nullptr)
        : config_(config), ssd_(ssd), uvmExtension_(uvm_extension),
          ch_(shared != nullptr ? shared : &own_)
    {}

    ReferenceFabric(const ReferenceFabric&) = delete;
    ReferenceFabric& operator=(const ReferenceFabric&) = delete;

    const TrafficStats& traffic() const { return traffic_; }
    const FabricChannels& channels() const { return *ch_; }

    Transfer
    toGpu(Bytes bytes, MemLoc src, TimeNs earliest, TransferCause cause)
    {
        if (src == MemLoc::Gpu)
            panic("toGpu: source is GPU");
        if (bytes == 0)
            return Transfer{earliest, earliest};

        ++traffic_.migrationOps;

        const bool fault = (cause == TransferCause::PageFault);
        const bool driver_path = !fault && !uvmExtension_;
        TimeNs ready = earliest;  // when batches may start moving
        if (!fault && uvmExtension_) {
            TimeNs sw = hostSoftwareCost(cause);
            ready = std::max(earliest, ch_->hostSwFree) + sw;
            ch_->hostSwFree = ready;
        }

        Transfer out;
        bool first = true;
        out.complete = ready;
        Bytes remaining = bytes;
        Bytes batch_limit;
        if (fault)
            batch_limit = std::max<Bytes>(config_.faultBatchBytes,
                                          config_.pageBytes);
        else if (driver_path)
            batch_limit = std::max<Bytes>(config_.nonUvmCopyBytes,
                                          config_.pageBytes);
        else
            batch_limit = std::max<Bytes>(config_.transferSetBytes,
                                          config_.pageBytes);
        TimeNs fault_cursor = earliest;
        while (remaining > 0) {
            Bytes batch = std::min(remaining, batch_limit);
            TimeNs batch_ready = ready;
            if (driver_path) {
                TimeNs sw_done = std::max(earliest, ch_->hostSwFree) +
                                 config_.hostSwOverheadNs;
                ch_->hostSwFree = sw_done;
                batch_ready = std::max(batch_ready, sw_done);
            }
            if (fault) {
                ++traffic_.faultBatches;
                TimeNs sw_done = std::max(fault_cursor, ch_->hostSwFree) +
                                 config_.gpuFaultLatencyNs;
                ch_->hostSwFree = sw_done;
                batch_ready = sw_done;
            }
            TimeNs link_time = transferTimeNs(batch, config_.pcieGBps);
            TimeNs start;
            TimeNs done;
            if (src == MemLoc::Ssd) {
                TimeNs dev_busy = ssd_->serviceRead(batch);
                start = std::max({batch_ready, ch_->pcieInFree,
                                  ch_->ssdFree});
                ch_->ssdFree = start + dev_busy;
                ch_->pcieInFree = start + link_time;
                ch_->pcieInBusy += link_time;
                done = std::max(ch_->ssdFree, ch_->pcieInFree);
                traffic_.ssdToGpu += batch;
            } else {
                start = std::max(batch_ready, ch_->pcieInFree);
                ch_->pcieInFree = start + link_time;
                ch_->pcieInBusy += link_time;
                done = ch_->pcieInFree;
                traffic_.hostToGpu += batch;
            }
            if (first)
                out.start = start;
            first = false;
            out.complete = std::max(out.complete, done);
            fault_cursor = done;
            remaining -= batch;
        }
        return out;
    }

    Transfer
    fromGpu(Bytes bytes, MemLoc dst, TimeNs earliest, TransferCause cause,
            std::uint64_t ssd_logical_page)
    {
        if (dst == MemLoc::Gpu)
            panic("fromGpu: destination is GPU");
        if (bytes == 0)
            return Transfer{earliest, earliest};

        ++traffic_.migrationOps;

        const bool fault_path = (cause == TransferCause::FaultEvict);
        const bool driver_path = !fault_path && !uvmExtension_;
        Transfer out;
        TimeNs cursor = earliest;
        if (!fault_path && uvmExtension_) {
            TimeNs sw = hostSoftwareCost(cause);
            cursor = std::max(earliest, ch_->hostSwFree) + sw;
            ch_->hostSwFree = cursor;
        }
        Bytes remaining = bytes;
        Bytes offset = 0;
        bool first = true;
        Bytes batch_limit;
        if (fault_path)
            batch_limit = std::max<Bytes>(config_.faultBatchBytes,
                                          config_.pageBytes);
        else if (driver_path)
            batch_limit = std::max<Bytes>(config_.nonUvmCopyBytes,
                                          config_.pageBytes);
        else
            batch_limit = std::max<Bytes>(config_.transferSetBytes,
                                          config_.pageBytes);
        while (remaining > 0) {
            Bytes batch = std::min(remaining, batch_limit);
            if (driver_path) {
                TimeNs sw_done = std::max(earliest, ch_->hostSwFree) +
                                 config_.hostSwOverheadNs;
                ch_->hostSwFree = sw_done;
                cursor = std::max(cursor, sw_done);
            }
            if (fault_path) {
                TimeNs sw_done = std::max(cursor, ch_->hostSwFree) +
                                 config_.gpuFaultLatencyNs;
                ch_->hostSwFree = sw_done;
                cursor = sw_done;
            }
            TimeNs link_time = transferTimeNs(batch, config_.pcieGBps);
            TimeNs start;
            if (dst == MemLoc::Ssd) {
                std::uint64_t page =
                    ssd_logical_page +
                    offset / ssd_->geometry().flashPageBytes;
                TimeNs dev_busy = ssd_->serviceWrite(page, batch);
                start = std::max({cursor, ch_->pcieOutFree, ch_->ssdFree});
                ch_->ssdFree = start + dev_busy;
                ch_->pcieOutFree = start + link_time;
                ch_->pcieOutBusy += link_time;
                cursor = std::max(ch_->ssdFree, ch_->pcieOutFree);
                traffic_.gpuToSsd += batch;
            } else {
                start = std::max(cursor, ch_->pcieOutFree);
                ch_->pcieOutFree = start + link_time;
                ch_->pcieOutBusy += link_time;
                cursor = ch_->pcieOutFree;
                traffic_.gpuToHost += batch;
            }
            if (first)
                out.start = start;
            first = false;
            remaining -= batch;
            offset += batch;
        }
        out.complete = cursor;
        return out;
    }

  private:
    TimeNs
    hostSoftwareCost(TransferCause cause) const
    {
        switch (cause) {
          case TransferCause::PageFault:
            return config_.gpuFaultLatencyNs;
          case TransferCause::FaultEvict:
            return config_.gpuFaultLatencyNs;
          case TransferCause::Prefetch:
          case TransferCause::PreEvict:
          case TransferCause::CapacityEvict:
            return uvmExtension_ ? 2 * USEC : config_.hostSwOverheadNs;
        }
        return 0;
    }

    SystemConfig config_;
    ReferenceSsd* ssd_;
    bool uvmExtension_;

    FabricChannels own_;
    FabricChannels* ch_;

    TrafficStats traffic_;
};

}  // namespace test
}  // namespace g10

#endif  // G10_TESTS_SIM_FABRIC_REFERENCE_H
