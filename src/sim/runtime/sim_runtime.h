/**
 * @file
 * The end-to-end execution simulator (paper §5).
 *
 * Replays a kernel trace under a memory-management policy on the modeled
 * platform: GPU memory is a finite pool at chunk granularity, misses are
 * serviced through the UVM fault path (45 us handler + DMA), planned
 * migrations flow through the PCIe/SSD fabric, and kernel completion
 * waits on data arrival (compute overlaps in-flight transfers, so a
 * kernel's stall is exactly the data wait the paper's Fig. 12/13
 * breakdowns measure).
 *
 * The replay is sequential in kernel-stream order; every transfer is an
 * explicit reservation on the fabric's resource timelines, making runs
 * deterministic and O(kernels + migrations).
 */

#ifndef G10_SIM_RUNTIME_SIM_RUNTIME_H
#define G10_SIM_RUNTIME_SIM_RUNTIME_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/system_config.h"
#include "common/types.h"
#include "graph/trace.h"
#include "sim/interconnect/fabric.h"
#include "sim/runtime/policy.h"
#include "sim/ssd/ssd_device.h"

namespace g10 {

class Tracer;

/** Runtime residency record for one tensor. */
struct TensorRt
{
    Bytes footprint = 0;      ///< page-rounded allocation size
    Bytes residentBytes = 0;  ///< bytes currently in GPU memory
    Bytes awayHostBytes = 0;  ///< bytes staged in host DRAM
    Bytes awaySsdBytes = 0;   ///< bytes staged on the SSD
    TimeNs arrival = -1;      ///< in-flight fetch completion (-1 = none)
    bool allocated = false;   ///< materialized and not yet freed
    std::uint64_t ssdLogical = UINT64_MAX;  ///< FTL logical page base
    std::int64_t pinnedUntil = -1;  ///< global kernel idx pin horizon
};

/**
 * The GPU's execution-unit timeline when compute is time-shared between
 * jobs. A kernel that is ready at `ready` launches at
 * max(ready, freeAt) and occupies the device for its duration; planned
 * DMA still overlaps compute exactly as in the single-job model, only
 * the execution units themselves serialize across tenants.
 */
struct GpuComputeTimeline
{
    TimeNs freeAt = 0;   ///< earliest time the next kernel may launch
    TimeNs busyNs = 0;   ///< total kernel-occupied time (utilization)

    /** Reserve the device for one kernel; returns its launch time. */
    TimeNs
    acquire(TimeNs ready, TimeNs dur)
    {
        TimeNs start = ready > freeAt ? ready : freeAt;
        freeAt = start + dur;
        busyNs += dur;
        return start;
    }
};

/**
 * Platform resources shared by co-located jobs. All pointers are
 * borrowed; the multi-tenant engine owns the actual instances. `gpu`
 * may be null to share only the storage/interconnect path.
 */
struct SharedResources
{
    SsdDevice* ssd = nullptr;            ///< one flash device, shared wear
    FabricChannels* channels = nullptr;  ///< PCIe/SSD/host-SW timelines
    GpuComputeTimeline* gpu = nullptr;   ///< time-shared execution units
};

/** Drives one simulation; see simulate() for the one-call entry point. */
class SimRuntime
{
  public:
    SimRuntime(const KernelTrace& trace, Policy& policy, RunConfig config);

    /**
     * Construct a runtime whose transfers and (optionally) compute
     * contend with other runtimes through @p shared. Traffic accounting
     * stays per-runtime; SSD wear accumulates on the shared device.
     */
    SimRuntime(const KernelTrace& trace, Policy& policy, RunConfig config,
               const SharedResources& shared);

    /** Run all iterations and return the measured statistics. */
    ExecStats run();

    // ---- Incremental stepping (multi-tenant interleaving) ----------

    /** Prepare the run: build schedules, place weights, notify policy. */
    void start();

    /** True once every iteration completed (or the run failed). */
    bool finished() const;

    /**
     * Replay exactly one kernel of the current iteration and advance.
     * @return false when there was nothing left to do
     */
    bool stepKernel();

    /** Finalize and return statistics; call after finished(). */
    ExecStats finalize();

    /**
     * Detach the job from the (possibly shared) platform after
     * finalize(): trims every tensor's SSD log allocation so the
     * flash space becomes garbage-collectable for later arrivals
     * (no-op on regions never allocated). The serving engine calls
     * this when a job departs mid-simulation; single-job runs that
     * own their SsdDevice never need to.
     */
    void releaseSsdLog();

    // ---- Dynamic memory budget (elastic partitions) ----------------

    /** Outcome of one resizeMemoryBudget() call. */
    struct ResizeOutcome
    {
        bool shrunk = false;      ///< GPU budget decreased
        Bytes evictedBytes = 0;   ///< GPU bytes drained to fit
        TimeNs effectiveNs = 0;   ///< when the new watermark holds
    };

    /**
     * Change the job's memory capacity mid-run (the elastic-partition
     * path: the serving engine resizes a live job's lease and tells
     * its runtime here). Growth takes effect immediately. A GPU
     * shrink eagerly evicts LRU victims through the existing
     * migration machinery until residency fits under the new
     * watermark — resident state is staged to host/SSD, never
     * dropped; if the pinned working set cannot fit, the run fails
     * explicitly (same contract as any other hard OOM). A host
     * shrink drains lazily: staged bytes stay where they are, new
     * evictions overflow to the SSD until usage falls under budget.
     *
     * Must be called between kernels (never from policy hooks). The
     * ideal (infinite-memory) baseline only tracks the host budget.
     */
    ResizeOutcome resizeMemoryBudget(Bytes gpuBytes, Bytes hostBytes);

    /** Budget changes applied so far (reported by the serve layer). */
    std::uint64_t resizeCount() const { return resizeCount_; }

    /** GPU bytes shrinks had to drain (cumulative). */
    Bytes resizeEvictedBytes() const { return resizeEvictedBytes_; }

    /**
     * Swap the driving policy (elastic replanning: after a capacity
     * resize the serving engine recompiles the migration plan at the
     * new budget, warm-started from the old schedule, and installs it
     * here). Must be called between kernels; the new policy must have
     * the same memory model (demand paging / infinite memory) as the
     * old one. The caller keeps ownership of both policies.
     */
    void setPolicy(Policy& policy);

    // ---- Services for policies -------------------------------------

    const KernelTrace& trace() const { return *trace_; }
    const RunConfig& config() const { return config_; }

    /** Global kernel index (iteration * numKernels + k). */
    std::int64_t globalKernelIndex() const { return globalIndex_; }

    /** Current GPU stream time. */
    TimeNs now() const { return streamTime_; }

    /** Residency record (read-only for policies). */
    const TensorRt& tensorState(TensorId t) const
    {
        return tensors_[static_cast<std::size_t>(t)];
    }

    /**
     * Fetch the non-resident bytes of @p t into GPU memory ahead of
     * use. No-op if fully resident or already in flight. Space is made
     * by LRU capacity eviction if needed.
     *
     * @return completion time of the fetch (now() if nothing to do)
     */
    TimeNs issuePrefetch(TensorId t);

    /**
     * Evict the resident bytes of @p t to @p dest (planned pre-evict or
     * policy-driven early eviction). Hard-pinned tensors are skipped.
     *
     * @param earliest eviction may not start before this time (used by
     *        the allocator to evict data whose inbound DMA is still in
     *        flight); -1 = now
     * @return bytes actually scheduled for eviction
     */
    Bytes issueEvict(TensorId t, MemLoc dest, TransferCause cause,
                     TimeNs earliest = -1);

    /** Pin @p t against capacity eviction until global kernel index. */
    void pinUntil(TensorId t, std::int64_t global_kernel);

    /** GPU bytes not currently allocated (0 while a shrink drains). */
    Bytes gpuFreeBytes() const
    {
        return config_.sys.gpuMemBytes > gpuUsedBytes_
            ? config_.sys.gpuMemBytes - gpuUsedBytes_
            : 0;
    }

    /** Host staging bytes still free (0 while a shrink drains). */
    Bytes hostFreeBytes() const
    {
        return config_.sys.hostMemBytes > hostUsedBytes_
            ? config_.sys.hostMemBytes - hostUsedBytes_
            : 0;
    }

    /** Number of kernels in one iteration. */
    std::size_t numKernels() const { return trace_->numKernels(); }

    /** This runtime's fabric view (per-job traffic accounting). */
    const Fabric& fabric() const { return fabric_; }

    /** The SSD this runtime writes to (shared in multi-tenant runs). */
    const SsdDevice& ssd() const { return *ssd_; }

    // ---- Observability ----------------------------------------------

    /**
     * Attach an event/counter tracer (nullptr detaches). @p pid labels
     * this job's events in multi-job traces. Tracing is strictly
     * read-only on simulation state: every emit site is guarded by a
     * null check, so an untraced run does no observability work and a
     * traced run is bit-identical to it.
     */
    void setTracer(Tracer* tracer, int pid = 0);

  private:
    struct PendingFree
    {
        TimeNs at;
        Bytes bytes;
        bool operator>(const PendingFree& o) const { return at > o.at; }
    };

    /** Round @p bytes to its GPU footprint (page compaction for tiny
     *  tensors, §4.5). */
    Bytes footprintOf(Bytes bytes) const;

    void prepare();
    void placeWeights();
    void runKernel(KernelId k);

    /**
     * Ensure @p needed bytes are free, evicting LRU victims via the
     * policy if necessary. Returns the time at which the space is
     * actually available (>= @p at).
     *
     * @param soft when true a space failure returns -1 instead of
     *        failing the run (used for opportunistic prefetches)
     */
    TimeNs makeSpace(Bytes needed, TimeNs at, bool soft = false);

    /** Apply pending frees with completion <= @p at. */
    void drainPendingFrees(TimeNs at);

    /** Fetch missing bytes of @p t (demand fault or prefetch). */
    TimeNs fetchMissing(TensorId t, TimeNs at, TransferCause cause);

    /** Release the GPU copy of a dead tensor immediately. */
    void freeTensor(TensorId t);

    /** Record use for LRU bookkeeping. */
    void touch(TensorId t);

    // ---- Intrusive LRU list (O(1) touch/erase, no allocations) ------

    /** True when @p t is linked into the recency list. */
    bool
    lruLinked(TensorId t) const
    {
        return lruPrev_[static_cast<std::size_t>(t)] != kLruDetached;
    }

    /** Unlink @p t, keeping its forward pointer for stale cursors. */
    void lruUnlink(TensorId t);

    const KernelTrace* trace_;
    Policy* policy_;
    RunConfig config_;

    std::unique_ptr<SsdDevice> ownedSsd_;  ///< null when SSD is shared
    SsdDevice* ssd_;
    Fabric fabric_;
    GpuComputeTimeline* gpu_ = nullptr;  ///< null = exclusive GPU
    Rng rng_;

    std::vector<TensorRt> tensors_;
    std::vector<TimeNs> perturbedDur_;

    // The trace's shared use-list / kernel-tensor index (set in
    // prepare()): runKernel() walks kernel k's slice to pin, fetch,
    // materialize and free.
    const TraceUseIndex* useIndex_ = nullptr;

    Bytes gpuUsedBytes_ = 0;
    Bytes hostUsedBytes_ = 0;

    TimeNs streamTime_ = 0;
    std::int64_t globalIndex_ = 0;
    KernelId currentKernel_ = 0;

    // LRU recency order as an intrusive doubly-linked list indexed by
    // TensorId: node numTensors() is the sentinel, sentinel->next is the
    // coldest (least recently used) tensor, sentinel->prev the hottest.
    // touch/erase are O(1) with zero allocations; victim scans walk
    // coldest-to-hottest, exactly the order the former
    // std::set<(lruSeq, tensor)> iterated in. A detached node keeps its
    // forward pointer so a makeSpace() cursor parked on a just-evicted
    // entry can keep walking (nodes are never re-linked mid-makeSpace).
    static constexpr std::int32_t kLruDetached = -1;
    std::vector<std::int32_t> lruPrev_;
    std::vector<std::int32_t> lruNext_;
    std::int32_t lruSentinel_ = 0;  ///< == numTensors(), set in prepare()

    // Outstanding eviction space returns.
    std::vector<PendingFree> pendingFrees_;  // min-heap by `at`

    // Guards the resumable victim cursors: while makeSpace() runs, no
    // code path may re-link LRU nodes (see Policy::capacityEvictDest's
    // contract); touch() and reentrant makeSpace() panic if one does.
    bool inMakeSpace_ = false;

    // Stepping cursor (used by run() and the multi-tenant engine).
    bool started_ = false;
    int iter_ = 0;
    std::size_t nextKernel_ = 0;

    // Elastic-budget bookkeeping.
    std::uint64_t resizeCount_ = 0;
    Bytes resizeEvictedBytes_ = 0;

    // Observability (null = off; the only cost then is this branch).
    Tracer* tracer_ = nullptr;
    int tracePid_ = 0;
    std::uint64_t tracedGcRuns_ = 0;    ///< SSD GC runs already reported
    std::uint64_t tracedGcErases_ = 0;  ///< ... and block erases

    // Stats under construction.
    ExecStats stats_;
    bool measuring_ = false;
    TimeNs measureStart_ = 0;
    TrafficStats trafficAtMeasureStart_;
    std::uint64_t faultsAtMeasureStart_ = 0;
};

/** One-call convenience wrapper. */
ExecStats simulate(const KernelTrace& trace, Policy& policy,
                   const RunConfig& config);

}  // namespace g10

#endif  // G10_SIM_RUNTIME_SIM_RUNTIME_H
