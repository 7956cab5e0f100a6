#include "sim_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/tracer.h"

namespace g10 {

SimRuntime::SimRuntime(const KernelTrace& trace, Policy& policy,
                       RunConfig config)
    : SimRuntime(trace, policy, config, SharedResources{})
{
}

SimRuntime::SimRuntime(const KernelTrace& trace, Policy& policy,
                       RunConfig config, const SharedResources& shared)
    : trace_(&trace), policy_(&policy), config_(config),
      ownedSsd_(shared.ssd != nullptr
                    ? nullptr
                    : std::make_unique<SsdDevice>(config.sys)),
      ssd_(shared.ssd != nullptr ? shared.ssd : ownedSsd_.get()),
      fabric_(config.sys, ssd_, config.uvmExtension, shared.channels),
      gpu_(shared.gpu), rng_(config.seed)
{
    if (policy.infiniteMemory()) {
        // The ideal baseline never evicts: give it room for everything.
        config_.sys.gpuMemBytes =
            trace.totalTensorBytes() * 2 + 16 * GiB;
    }
    streamTime_ = config_.startNs;
    stats_.policyName = policy.name();
    stats_.modelName = trace.modelName();
    stats_.batchSize = trace.batchSize();
}

Bytes
SimRuntime::footprintOf(Bytes bytes) const
{
    const Bytes page = config_.sys.pageBytes;
    // Sub-chunk tensors are compacted at page granularity (§4.5).
    Bytes rounded = (bytes + page - 1) / page * page;
    return rounded;
}

void
SimRuntime::prepare()
{
    const std::size_t nk = trace_->numKernels();
    const std::size_t nt = trace_->numTensors();

    useIndex_ = &trace_->useIndex();
    tensors_.assign(nt, TensorRt{});
    perturbedDur_.assign(nk, 0);

    // Empty LRU ring: the sentinel (node nt) points at itself.
    lruSentinel_ = static_cast<std::int32_t>(nt);
    lruPrev_.assign(nt + 1, kLruDetached);
    lruNext_.assign(nt + 1, kLruDetached);
    lruPrev_[nt] = lruSentinel_;
    lruNext_[nt] = lruSentinel_;

    for (std::size_t ti = 0; ti < nt; ++ti)
        tensors_[ti].footprint = footprintOf(trace_->tensors()[ti].bytes);

    TimeNs ideal = 0;
    for (std::size_t k = 0; k < nk; ++k) {
        TimeNs dur = trace_->kernel(static_cast<KernelId>(k)).durationNs;
        if (config_.timingErrorPct > 0.0) {
            double noise = rng_.uniform(-config_.timingErrorPct,
                                        config_.timingErrorPct);
            dur = std::max<TimeNs>(
                1000, static_cast<TimeNs>(
                          static_cast<double>(dur) * (1.0 + noise)));
        }
        perturbedDur_[k] = dur;
        ideal += trace_->kernel(static_cast<KernelId>(k)).durationNs +
                 config_.sys.kernelLaunchOverheadNs;
    }
    stats_.idealIterationNs = ideal;
}

void
SimRuntime::placeWeights()
{
    const Bytes watermark = static_cast<Bytes>(
        static_cast<double>(config_.sys.gpuMemBytes) *
        config_.weightWatermark);
    for (const Tensor& t : trace_->tensors()) {
        if (!t.isGlobal())
            continue;
        TensorRt& tr = tensors_[static_cast<std::size_t>(t.id)];
        tr.allocated = true;
        if (gpuUsedBytes_ + tr.footprint <= watermark) {
            tr.residentBytes = tr.footprint;
            gpuUsedBytes_ += tr.footprint;
            touch(t.id);
        } else {
            // Cold weights start on the SSD (checkpoint-resident).
            tr.ssdLogical = ssd_->allocLogical(tr.footprint);
            tr.awaySsdBytes = tr.footprint;
        }
    }
}

void
SimRuntime::lruUnlink(TensorId t)
{
    auto i = static_cast<std::size_t>(t);
    std::int32_t p = lruPrev_[i];
    std::int32_t n = lruNext_[i];
    lruNext_[static_cast<std::size_t>(p)] = n;
    lruPrev_[static_cast<std::size_t>(n)] = p;
    lruPrev_[i] = kLruDetached;
    // lruNext_[i] intentionally still points forward: a victim-scan
    // cursor parked on this node recovers by following it.
}

void
SimRuntime::touch(TensorId t)
{
    if (inMakeSpace_)
        panic("LRU touched during capacity eviction (tensor %d): "
              "Policy::capacityEvictDest must not issue fetches",
              t);
    if (lruLinked(t))
        lruUnlink(t);
    auto i = static_cast<std::size_t>(t);
    auto s = static_cast<std::size_t>(lruSentinel_);
    std::int32_t hot = lruPrev_[s];
    lruNext_[static_cast<std::size_t>(hot)] = static_cast<std::int32_t>(i);
    lruPrev_[i] = hot;
    lruNext_[i] = lruSentinel_;
    lruPrev_[s] = static_cast<std::int32_t>(i);
}

void
SimRuntime::pinUntil(TensorId t, std::int64_t global_kernel)
{
    TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
    tr.pinnedUntil = std::max(tr.pinnedUntil, global_kernel);
}

void
SimRuntime::drainPendingFrees(TimeNs at)
{
    while (!pendingFrees_.empty() && pendingFrees_.front().at <= at) {
        std::pop_heap(pendingFrees_.begin(), pendingFrees_.end(),
                      std::greater<>());
        gpuUsedBytes_ -= pendingFrees_.back().bytes;
        pendingFrees_.pop_back();
    }
}

TimeNs
SimRuntime::makeSpace(Bytes needed, TimeNs at, bool soft)
{
    drainPendingFrees(at);
    if (needed > config_.sys.gpuMemBytes) {
        if (soft)
            return -1;
        stats_.failed = true;
        stats_.failReason = "allocation larger than GPU memory";
        return at;
    }

    if (inMakeSpace_)
        panic("makeSpace reentered: policy hooks must not allocate "
              "during capacity eviction");
    inMakeSpace_ = true;
    // Clear the guard on every exit path below.
    struct ScanGuard
    {
        bool& flag;
        ~ScanGuard() { flag = false; }
    } guard{inMakeSpace_};

    TimeNs when = at;
    // Resumable victim cursors, one per desperation pass. Within one
    // makeSpace() call every rejection reason is invariant (pins,
    // arrival vs. streamTime_, and residency only change for evicted
    // victims, which leave the list), so an entry rejected by pass p
    // stays rejected by pass p: each cursor only ever moves forward
    // instead of rescanning the cold end on every eviction. A cursor
    // parked on a node that was just evicted (unlinked) recovers via
    // the node's preserved forward pointer.
    std::int32_t cursor[3] = {lruNext_[static_cast<std::size_t>(
                                  lruSentinel_)],
                              lruNext_[static_cast<std::size_t>(
                                  lruSentinel_)],
                              lruNext_[static_cast<std::size_t>(
                                  lruSentinel_)]};
    // The deficit form of `gpuFreeBytes() < needed` — equivalent when
    // usage is under budget, and still correct while usage exceeds a
    // freshly shrunk budget (resizeMemoryBudget drains with needed=0).
    while (gpuUsedBytes_ + needed > config_.sys.gpuMemBytes) {
        // Prefer waiting for evictions already in flight.
        if (!pendingFrees_.empty()) {
            std::pop_heap(pendingFrees_.begin(), pendingFrees_.end(),
                          std::greater<>());
            PendingFree pf = pendingFrees_.back();
            pendingFrees_.pop_back();
            gpuUsedBytes_ -= pf.bytes;
            when = std::max(when, pf.at);
            continue;
        }

        // Pick the least-recently-used victim. Three passes of
        // increasing desperation: (0) unpinned and settled, (1) soft
        // policy pins (advisory prefetch windows lose to real
        // allocation pressure, as in real UVM), (2) tensors whose
        // inbound DMA is still in flight (evictable once it lands).
        // Only the executing kernel's working set is untouchable.
        TensorId victim = kInvalidTensor;
        // Opportunistic (prefetch-driven) requests only take settled,
        // unpinned victims; evicting another prefetch's window would
        // thrash. Hard allocation pressure may escalate.
        const int max_pass = soft ? 1 : 3;
        for (int pass = 0; pass < max_pass && victim == kInvalidTensor;
             ++pass) {
            std::int32_t& cur = cursor[pass];
            while (cur != lruSentinel_) {
                if (lruPrev_[static_cast<std::size_t>(cur)] ==
                    kLruDetached) {
                    // Evicted underneath us; follow the stale link.
                    cur = lruNext_[static_cast<std::size_t>(cur)];
                    continue;
                }
                const TensorRt& tr =
                    tensors_[static_cast<std::size_t>(cur)];
                if (tr.pinnedUntil == globalIndex_ ||  // hard pin
                    (pass < 1 && tr.pinnedUntil > globalIndex_) ||
                    (pass < 2 && tr.arrival > streamTime_) ||
                    tr.residentBytes == 0) {
                    cur = lruNext_[static_cast<std::size_t>(cur)];
                    continue;
                }
                victim = static_cast<TensorId>(cur);
                break;
            }
        }
        if (victim == kInvalidTensor) {
            if (soft)
                return -1;
            stats_.failed = true;
            stats_.failReason =
                "working set exceeds GPU memory (no evictable victim)";
            return when;
        }
        if (!policy_->demandPagingAllowed()) {
            if (soft)
                return -1;
            stats_.failed = true;
            stats_.failReason =
                "out of GPU memory without demand paging";
            return when;
        }

        MemLoc dest = policy_->capacityEvictDest(*this, victim);
        const TensorRt& vt =
            tensors_[static_cast<std::size_t>(victim)];
        TimeNs earliest =
            (vt.arrival > streamTime_) ? vt.arrival : streamTime_;
        TransferCause cause = policy_->faultDrivenEviction()
            ? TransferCause::FaultEvict
            : TransferCause::CapacityEvict;
        Bytes evicted = issueEvict(victim, dest, cause, earliest);
        if (evicted == 0)
            panic("capacity eviction made no progress (tensor %d)",
                  victim);
    }
    return when;
}

Bytes
SimRuntime::issueEvict(TensorId t, MemLoc dest, TransferCause cause,
                       TimeNs earliest)
{
    TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
    if (!tr.allocated || tr.residentBytes == 0)
        return 0;
    if (tr.pinnedUntil == globalIndex_)
        return 0;  // hard-pinned by the executing kernel
    TimeNs start = std::max(streamTime_, earliest);
    if (tr.arrival > start) {
        if (cause == TransferCause::PreEvict)
            return 0;  // planned eviction of in-flight data: skip
        start = tr.arrival;  // allocator pressure: evict once it lands
    }

    Bytes amount = tr.residentBytes;
    if (dest == MemLoc::Host && hostFreeBytes() < amount)
        dest = MemLoc::Ssd;  // host staging full; overflow to flash

    std::uint64_t logical = UINT64_MAX;
    if (dest == MemLoc::Ssd) {
        if (tr.ssdLogical == UINT64_MAX)
            tr.ssdLogical = ssd_->allocLogical(tr.footprint);
        logical = tr.ssdLogical;
    }

    Fabric::Transfer xfer =
        fabric_.fromGpu(amount, dest, start, cause, logical);

    if (tracer_) {
        tracer_->transfer(tracePid_, cause, MemLoc::Gpu, dest, amount,
                          xfer.start, xfer.complete);
        if (cause == TransferCause::CapacityEvict ||
            cause == TransferCause::FaultEvict)
            tracer_->evictionPick(tracePid_, t, dest, amount,
                                  xfer.start);
        const SsdStats& ss = ssd_->stats();
        if (ss.gcRuns > tracedGcRuns_) {
            tracer_->ssdGc(tracePid_, ss.gcRuns - tracedGcRuns_,
                           ss.blockErases - tracedGcErases_,
                           xfer.complete);
            tracedGcRuns_ = ss.gcRuns;
            tracedGcErases_ = ss.blockErases;
        }
    }

    tr.residentBytes -= amount;
    if (dest == MemLoc::Host) {
        tr.awayHostBytes += amount;
        hostUsedBytes_ += amount;
    } else {
        tr.awaySsdBytes += amount;
    }
    // GPU space frees only when the copy-out completes.
    pendingFrees_.push_back(PendingFree{xfer.complete, amount});
    std::push_heap(pendingFrees_.begin(), pendingFrees_.end(),
                   std::greater<>());
    if (tr.residentBytes == 0) {
        tr.arrival = -1;
        if (lruLinked(t))
            lruUnlink(t);
    }
    return amount;
}

TimeNs
SimRuntime::fetchMissing(TensorId t, TimeNs at, TransferCause cause)
{
    TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
    Bytes missing = tr.footprint - tr.residentBytes;
    if (missing == 0)
        return std::max(at, tr.arrival);

    const bool soft = (cause == TransferCause::Prefetch);
    TimeNs space_at = makeSpace(missing, at, soft);
    if (soft && space_at < 0)
        return at;  // no room right now; skip the opportunistic fetch
    if (stats_.failed)
        return space_at;

    TimeNs done = space_at;
    // Pull from host first (fast path), then from the SSD.
    if (tr.awayHostBytes > 0) {
        Bytes amt = std::min(missing, tr.awayHostBytes);
        auto xfer = fabric_.toGpu(amt, MemLoc::Host, space_at, cause);
        if (tracer_)
            tracer_->transfer(tracePid_, cause, MemLoc::Host,
                              MemLoc::Gpu, amt, xfer.start,
                              xfer.complete);
        tr.awayHostBytes -= amt;
        hostUsedBytes_ -= amt;
        tr.residentBytes += amt;
        gpuUsedBytes_ += amt;
        missing -= amt;
        done = std::max(done, xfer.complete);
    }
    if (missing > 0 && tr.awaySsdBytes > 0) {
        Bytes amt = std::min(missing, tr.awaySsdBytes);
        auto xfer = fabric_.toGpu(amt, MemLoc::Ssd, space_at, cause);
        if (tracer_)
            tracer_->transfer(tracePid_, cause, MemLoc::Ssd,
                              MemLoc::Gpu, amt, xfer.start,
                              xfer.complete);
        tr.awaySsdBytes -= amt;
        tr.residentBytes += amt;
        gpuUsedBytes_ += amt;
        missing -= amt;
        done = std::max(done, xfer.complete);
    }
    if (missing > 0)
        panic("tensor %d: %llu bytes are neither resident nor staged",
              t, static_cast<unsigned long long>(missing));

    tr.arrival = std::max(tr.arrival, done);
    touch(t);
    return done;
}

TimeNs
SimRuntime::issuePrefetch(TensorId t)
{
    TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
    if (!tr.allocated)
        return streamTime_;  // not yet born; nothing to fetch
    if (tr.residentBytes >= tr.footprint)
        return std::max(streamTime_, tr.arrival);
    return fetchMissing(t, streamTime_, TransferCause::Prefetch);
}

void
SimRuntime::freeTensor(TensorId t)
{
    TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
    gpuUsedBytes_ -= tr.residentBytes;
    hostUsedBytes_ -= tr.awayHostBytes;
    tr.residentBytes = 0;
    tr.awayHostBytes = 0;
    tr.awaySsdBytes = 0;
    tr.arrival = -1;
    tr.allocated = false;
    if (lruLinked(t))
        lruUnlink(t);
}

void
SimRuntime::runKernel(KernelId k)
{
    const Kernel& kern = trace_->kernel(k);
    const TimeNs overhead = config_.sys.kernelLaunchOverheadNs;
    const TimeNs iter_begin_time = streamTime_;

    // The working set of the executing kernel is unevictable.
    const TensorId* allBegin =
        useIndex_->kernelTensors.data() +
        useIndex_->kernelTensorsOff[static_cast<std::size_t>(k)];
    const TensorId* allEnd =
        useIndex_->kernelTensors.data() +
        useIndex_->kernelTensorsOff[static_cast<std::size_t>(k) + 1];
    struct
    {
        const TensorId* b;
        const TensorId* e;
        const TensorId* begin() const { return b; }
        const TensorId* end() const { return e; }
    } all{allBegin, allEnd};
    for (TensorId t : all)
        pinUntil(t, globalIndex_);

    currentKernel_ = k;
    policy_->beforeKernel(*this, k);
    if (stats_.failed)
        return;

    TimeNs t0 = streamTime_ + overhead;
    TimeNs alloc_ready = t0;
    TimeNs data_ready = t0;
    TimeNs fault_done = t0;

    // 1. Materialize tensors first used at this kernel (outputs,
    // workspace). Globals were placed at start and are never freed, so
    // materialize() skips them.
    const std::vector<std::vector<KernelId>>& uses = useIndex_->uses;
    auto materialize = [&](TensorId t) {
        TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
        if (tr.allocated)
            return;
        TimeNs avail = makeSpace(tr.footprint, t0);
        if (stats_.failed)
            return;
        alloc_ready = std::max(alloc_ready, avail);
        tr.allocated = true;
        tr.residentBytes = tr.footprint;
        gpuUsedBytes_ += tr.footprint;
        touch(t);
    };
    for (TensorId t : all) {
        if (uses[static_cast<std::size_t>(t)].front() != k)
            continue;
        materialize(t);
        if (stats_.failed)
            return;
    }

    // 2. Demand-fetch whatever else the kernel touches.
    for (TensorId t : all) {
        TensorRt& tr = tensors_[static_cast<std::size_t>(t)];
        if (!tr.allocated)
            panic("kernel %d uses unmaterialized tensor %d", k, t);
        if (tr.residentBytes < tr.footprint) {
            // Demand miss: the faulting accesses block the kernel, so
            // compute cannot make progress until the pages land
            // (on-demand paging serializes, unlike planned prefetches).
            TimeNs done = fetchMissing(t, t0, TransferCause::PageFault);
            if (stats_.failed)
                return;
            fault_done = std::max(fault_done, done);
        } else if (tr.arrival > t0) {
            // A planned prefetch is still in flight; the kernel's
            // completion waits for it but compute overlaps the DMA.
            data_ready = std::max(data_ready, tr.arrival);
        }
        touch(t);
    }

    TimeNs pre_launch = std::max({t0, alloc_ready, fault_done});
    TimeNs launch = pre_launch;
    TimeNs dur = perturbedDur_[static_cast<std::size_t>(k)];
    if (gpu_ != nullptr) {
        // Time-shared GPU: the execution units are one more resource
        // this kernel must acquire; co-tenant kernels serialize here
        // while their DMA continues to overlap.
        launch = gpu_->acquire(pre_launch, dur);
    }
    TimeNs end = std::max(launch + dur, data_ready);
    streamTime_ = end;

    if (tracer_) {
        // Exact decomposition of this kernel's slip past its replayed
        // duration: alloc + fault cover pre_launch - t0 (alloc first,
        // faults only past the alloc horizon), queue is the compute
        // timeline wait, data the post-compute prefetch wait. The four
        // sum to end - t0 - dur by construction.
        TimeNs alloc_ns = alloc_ready - t0;
        TimeNs fault_ns =
            std::max<TimeNs>(0, fault_done - std::max(t0, alloc_ready));
        TimeNs queue_ns = launch - pre_launch;
        TimeNs data_ns = end - (launch + dur);
        tracer_->kernelSpan(tracePid_, kern.name, k, launch, dur,
                            measuring_, kern.durationNs + overhead,
                            end - iter_begin_time);
        if (alloc_ns > 0)
            tracer_->stallSpan(tracePid_, StallCause::Alloc, k, t0,
                               alloc_ns, measuring_);
        if (fault_ns > 0)
            tracer_->stallSpan(tracePid_, StallCause::Fault, k,
                               std::max(t0, alloc_ready), fault_ns,
                               measuring_);
        if (queue_ns > 0)
            tracer_->stallSpan(tracePid_, StallCause::ComputeQueue, k,
                               pre_launch, queue_ns, measuring_);
        if (data_ns > 0)
            tracer_->stallSpan(tracePid_, StallCause::Data, k,
                               launch + dur, data_ns, measuring_);
    }

    if (measuring_ && end - iter_begin_time - overhead - dur > 5 * MSEC) {
        debug("k=%d %s stall=%lldus alloc=%lldus fault=%lldus data=%lldus",
              k, kern.name.c_str(),
              (long long)((end - iter_begin_time - overhead - dur)/1000),
              (long long)(std::max<TimeNs>(0, alloc_ready - t0)/1000),
              (long long)(std::max<TimeNs>(0, fault_done - t0)/1000),
              (long long)(std::max<TimeNs>(0, data_ready - t0)/1000));
    }
    if (measuring_) {
        KernelStat ks;
        ks.idealNs = kern.durationNs + overhead;
        ks.actualNs = end - iter_begin_time;
        ks.stallNs = std::max<TimeNs>(0, ks.actualNs - ks.idealNs);
        stats_.kernels.push_back(ks);
        stats_.totalStallNs += ks.stallNs;
    }

    // 3. Free the intermediates last used here; globals stay allocated
    // across iterations.
    for (TensorId t : all) {
        const auto ti = static_cast<std::size_t>(t);
        if (uses[ti].back() == k && !trace_->tensors()[ti].isGlobal())
            freeTensor(t);
    }

    policy_->afterKernel(*this, k);
}

void
SimRuntime::start()
{
    if (started_)
        panic("SimRuntime::start() called twice");
    started_ = true;
    prepare();
    placeWeights();
    policy_->onSimulationStart(*this);
}

bool
SimRuntime::finished() const
{
    // An empty trace has nothing to step (guards runKernel(0)).
    return stats_.failed || iter_ >= config_.iterations ||
           trace_->numKernels() == 0;
}

bool
SimRuntime::stepKernel()
{
    if (!started_)
        panic("SimRuntime::stepKernel() before start()");
    if (finished())
        return false;

    if (nextKernel_ == 0 && iter_ == config_.iterations - 1) {
        measuring_ = true;
        measureStart_ = streamTime_;
        trafficAtMeasureStart_ = fabric_.traffic();
        faultsAtMeasureStart_ = fabric_.traffic().faultBatches;
        stats_.kernels.clear();
        stats_.kernels.reserve(trace_->numKernels());
        stats_.totalStallNs = 0;
    }

    runKernel(static_cast<KernelId>(nextKernel_));
    ++globalIndex_;
    if (++nextKernel_ >= trace_->numKernels()) {
        nextKernel_ = 0;
        ++iter_;
    }
    return true;
}

ExecStats
SimRuntime::finalize()
{
    if (!stats_.failed) {
        stats_.measuredIterationNs = streamTime_ - measureStart_;
        const TrafficStats& tot = fabric_.traffic();
        stats_.traffic.ssdToGpu =
            tot.ssdToGpu - trafficAtMeasureStart_.ssdToGpu;
        stats_.traffic.gpuToSsd =
            tot.gpuToSsd - trafficAtMeasureStart_.gpuToSsd;
        stats_.traffic.hostToGpu =
            tot.hostToGpu - trafficAtMeasureStart_.hostToGpu;
        stats_.traffic.gpuToHost =
            tot.gpuToHost - trafficAtMeasureStart_.gpuToHost;
        stats_.traffic.migrationOps =
            tot.migrationOps - trafficAtMeasureStart_.migrationOps;
        stats_.traffic.faultBatches =
            tot.faultBatches - trafficAtMeasureStart_.faultBatches;
        stats_.pageFaultBatches = stats_.traffic.faultBatches;
        stats_.ssd = ssd_->stats();
    }
    return stats_;
}

void
SimRuntime::releaseSsdLog()
{
    for (TensorRt& tr : tensors_) {
        if (tr.ssdLogical == UINT64_MAX)
            continue;
        ssd_->freeLogical(tr.ssdLogical, tr.footprint);
        tr.ssdLogical = UINT64_MAX;
        tr.awaySsdBytes = 0;
    }
}

void
SimRuntime::setTracer(Tracer* tracer, int pid)
{
    tracer_ = tracer;
    tracePid_ = pid;
    // Report only GC activity from here on (the shared device may
    // already have wear from earlier jobs).
    tracedGcRuns_ = ssd_->stats().gcRuns;
    tracedGcErases_ = ssd_->stats().blockErases;
}

SimRuntime::ResizeOutcome
SimRuntime::resizeMemoryBudget(Bytes gpuBytes, Bytes hostBytes)
{
    ResizeOutcome out;
    out.effectiveNs = streamTime_;
    const Bytes oldGpuBytes = config_.sys.gpuMemBytes;
    if (policy_->infiniteMemory()) {
        // The ideal baseline models unbounded GPU memory (the
        // constructor inflated the budget); only the host staging
        // budget tracks the lease.
        config_.sys.hostMemBytes = hostBytes;
        return out;
    }
    out.shrunk = gpuBytes < config_.sys.gpuMemBytes;
    ++resizeCount_;
    config_.sys.gpuMemBytes = gpuBytes;
    // Host staging drains lazily: hostFreeBytes() saturates at zero,
    // so while usage exceeds the shrunk budget new evictions overflow
    // to the SSD and fetches bleed the staging area down.
    config_.sys.hostMemBytes = hostBytes;
    if (!started_ || stats_.failed || !out.shrunk) {
        if (tracer_ && started_)
            tracer_->budgetResize(tracePid_, oldGpuBytes, gpuBytes, 0,
                                  streamTime_);
        return out;
    }

    // Eager drain to the new watermark through the same machinery
    // capacity pressure uses: LRU victims, the policy's destination
    // choice, and real DMA reservations on the fabric timelines.
    drainPendingFrees(streamTime_);
    if (gpuUsedBytes_ > gpuBytes) {
        out.evictedBytes = gpuUsedBytes_ - gpuBytes;
        resizeEvictedBytes_ += out.evictedBytes;
        out.effectiveNs = makeSpace(0, streamTime_);
    }
    if (tracer_)
        tracer_->budgetResize(tracePid_, oldGpuBytes, gpuBytes,
                              out.evictedBytes, streamTime_);
    return out;
}

void
SimRuntime::setPolicy(Policy& policy)
{
    if (policy.infiniteMemory() != policy_->infiniteMemory() ||
        policy.demandPagingAllowed() != policy_->demandPagingAllowed())
        panic("setPolicy: replacement policy changes the memory model "
              "mid-run");
    policy_ = &policy;
    stats_.policyName = policy.name();
}

ExecStats
SimRuntime::run()
{
    start();
    while (stepKernel()) {
    }
    return finalize();
}

ExecStats
simulate(const KernelTrace& trace, Policy& policy,
         const RunConfig& config)
{
    SimRuntime rt(trace, policy, config);
    return rt.run();
}

}  // namespace g10
