/**
 * @file
 * PCIe fabric + DMA engine timing model (paper Fig. 10's migration
 * machinery: metadata queues feed a migration arbiter that batches page
 * migrations into transfer sets served by DMA / direct-storage-access).
 *
 * Resources are per-direction virtual timelines:
 *   - pcieIn / pcieOut: each transfer crossing the link in a direction
 *     advances that direction's timeline by bytes/link_bw, so aggregate
 *     link capacity is conserved even when host- and SSD-path flows
 *     interleave.
 *   - the SSD device itself (via SsdDevice service times).
 *   - a host software timeline that serializes page-fault handling
 *     (45 us per fault batch) and, without G10's UVM extension, the
 *     per-migration driver overhead.
 *
 * A transfer's completion is the max across the resources it uses;
 * transfers are internally split into transfer-set batches so a large
 * migration does not monopolize a resource timeline.
 *
 * Cost model of the implementation: a migration costs O(1) here plus
 * one SsdDevice call, whatever its batch count. Batch j's start is a
 * max-plus recurrence with constant integer increments, so over a run
 * of equal batches it is the max of two affine terms in j:
 * max(A + j*a, S + j*b), where S is the run's first start, b the link
 * time (on SSD paths the larger of link and device busy time) plus,
 * for fault batches, the fault latency, and a the driver's per-batch
 * software cost (planned and fault batches: none). Only the last
 * (partial) batch and the batches garbage collection lengthened are
 * advanced one by one. tests/sim/fabric_reference.h keeps the
 * batch-by-batch loop this must equal exactly.
 */

#ifndef G10_SIM_INTERCONNECT_FABRIC_H
#define G10_SIM_INTERCONNECT_FABRIC_H

#include "common/system_config.h"
#include "common/types.h"
#include "core/sched/schedule_types.h"
#include "sim/ssd/ssd_device.h"

namespace g10 {

/** Why a transfer was requested; orders service and selects overheads. */
enum class TransferCause : std::uint8_t
{
    PageFault,   ///< demand miss; pays the GPU fault-handling latency
    Prefetch,    ///< planned/heuristic fetch ahead of use
    PreEvict,    ///< planned eviction
    CapacityEvict,  ///< allocator pressure eviction (driver-managed)
    FaultEvict,  ///< eviction inside the fault handler critical path
                 ///< (stock UVM's LRU writeback before resume)
};

/** Traffic accounting per (device pair, direction). */
struct TrafficStats
{
    Bytes ssdToGpu = 0;
    Bytes gpuToSsd = 0;
    Bytes hostToGpu = 0;
    Bytes gpuToHost = 0;
    std::uint64_t faultBatches = 0;
    std::uint64_t migrationOps = 0;

    Bytes totalToGpu() const { return ssdToGpu + hostToGpu; }
    Bytes totalFromGpu() const { return gpuToSsd + gpuToHost; }
};

/**
 * The per-direction resource timelines a Fabric reserves against.
 *
 * Normally a Fabric owns its channels, but multiple Fabric instances may
 * point at one shared FabricChannels: each keeps its own TrafficStats
 * (per-tenant accounting) while their transfers contend for the same
 * PCIe link, SSD device, and host software timeline. This is what lets
 * the multi-tenant engine model N jobs sharing one GPU's interconnect.
 */
struct FabricChannels
{
    TimeNs pcieInFree = 0;
    TimeNs pcieOutFree = 0;
    TimeNs ssdFree = 0;
    TimeNs hostSwFree = 0;

    TimeNs pcieInBusy = 0;
    TimeNs pcieOutBusy = 0;
};

/** The shared GPU<->{Host,SSD} transfer fabric. */
class Fabric
{
  public:
    /**
     * @param config        platform description
     * @param ssd           SSD device model (not owned)
     * @param uvm_extension true = G10's unified page table (§4.5):
     *                      migration ops avoid the host software path
     * @param shared        resource timelines to contend on (not owned);
     *                      nullptr = this fabric owns private channels
     */
    Fabric(const SystemConfig& config, SsdDevice* ssd,
           bool uvm_extension, FabricChannels* shared = nullptr);

    // ch_ may point at own_; copying would leave it dangling.
    Fabric(const Fabric&) = delete;
    Fabric& operator=(const Fabric&) = delete;

    /** Completed-transfer timing. */
    struct Transfer
    {
        TimeNs start = 0;
        TimeNs complete = 0;
    };

    /**
     * Move @p bytes of tensor data into GPU memory.
     *
     * @param bytes    transfer size
     * @param src      Host or Ssd
     * @param earliest issue time (request cannot start earlier)
     * @param cause    PageFault pays fault handling; others may pay the
     *                 non-UVM software overhead
     */
    Transfer toGpu(Bytes bytes, MemLoc src, TimeNs earliest,
                   TransferCause cause);

    /** Move @p bytes out of GPU memory to @p dst. */
    Transfer fromGpu(Bytes bytes, MemLoc dst, TimeNs earliest,
                     TransferCause cause, std::uint64_t ssd_logical_page);

    const TrafficStats& traffic() const { return traffic_; }

    // NOTE: unlike traffic(), the four channel getters below read the
    // (possibly shared) FabricChannels -- in multi-tenant mode they
    // report link-wide values aggregated across all tenants, not this
    // fabric view's contribution.

    /** Earliest time a new inbound transfer could start. */
    TimeNs inboundFreeAt() const { return ch_->pcieInFree; }

    /** Earliest time a new outbound transfer could start. */
    TimeNs outboundFreeAt() const { return ch_->pcieOutFree; }

    /** Total time the inbound link direction has been busy (link-wide). */
    TimeNs inboundBusyNs() const { return ch_->pcieInBusy; }

    /** Total time the outbound link direction has been busy (link-wide). */
    TimeNs outboundBusyNs() const { return ch_->pcieOutBusy; }

  private:
    /** Host software serialization cost for one migration op. */
    TimeNs hostSoftwareCost(TransferCause cause) const;

    /** The batch routine behind toGpu (@p inbound) and fromGpu. */
    Transfer migrate(Bytes bytes, MemLoc far, bool inbound,
                     TimeNs earliest, TransferCause cause, bool fault,
                     std::uint64_t ssd_logical_page);

    SystemConfig config_;
    SsdDevice* ssd_;
    bool uvmExtension_;

    FabricChannels own_;
    FabricChannels* ch_;  ///< own_ or an externally shared instance

    TrafficStats traffic_;
};

}  // namespace g10

#endif  // G10_SIM_INTERCONNECT_FABRIC_H
