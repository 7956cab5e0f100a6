#include "baselines.h"

#include <algorithm>

#include "common/logging.h"
#include "core/sched/bandwidth_model.h"
#include "core/sched/plan_builder.h"

namespace g10 {

MemLoc
BaseUvmPolicy::capacityEvictDest(SimRuntime& rt, TensorId t)
{
    // LRU pages go to host memory; the runtime overflows to the SSD
    // when host staging is full.
    (void)rt;
    (void)t;
    return MemLoc::Host;
}

void
DeepUmPolicy::beforeKernel(SimRuntime& rt, KernelId k)
{
    const auto nk = static_cast<KernelId>(rt.numKernels());
    const TraceUseIndex& idx = rt.trace().useIndex();
    // In steady state DeepUM's correlation tables predict exactly the
    // recorded kernel sequence, so the prefetcher walks the next W
    // kernels (wrapping across the iteration boundary, as its UM blocks
    // persist across iterations).
    for (int ahead = 1; ahead <= lookahead_; ++ahead) {
        const auto j = static_cast<std::size_t>(
            (static_cast<std::int64_t>(k) + ahead) % nk);
        for (std::uint32_t ti = idx.kernelTensorsOff[j];
             ti < idx.kernelTensorsOff[j + 1]; ++ti) {
            const TensorId t = idx.kernelTensors[ti];
            const TensorRt& ts = rt.tensorState(t);
            if (!ts.allocated)
                continue;  // not yet materialized; nothing to fetch
            // Pin so the prefetches of kernel k+1 don't evict data
            // needed by kernel k+2 in the same window.
            rt.pinUntil(t, rt.globalKernelIndex() + ahead);
            if (ts.residentBytes < ts.footprint)
                rt.issuePrefetch(t);
        }
    }
}

MemLoc
DeepUmPolicy::capacityEvictDest(SimRuntime& rt, TensorId t)
{
    (void)rt;
    (void)t;
    return MemLoc::Host;  // runtime overflows to SSD when host is full
}

FlashNeuronPolicy::FlashNeuronPolicy(const KernelTrace& trace,
                                     const SystemConfig& config)
{
    vitality_ = std::make_unique<VitalityAnalysis>(
        trace, config.kernelLaunchOverheadNs);
    BandwidthModel bw(config);

    PressureCurve pressure = vitality_->memoryPressure();
    const auto cap = static_cast<std::int64_t>(config.gpuMemBytes);

    // Map each candidate tensor to its single longest inactive period
    // (FlashNeuron offloads a tensor once: after its last forward use,
    // back before its backward use).
    const auto& periods = vitality_->periods();
    std::vector<int> best_period(trace.numTensors(), -1);
    for (std::size_t i = 0; i < periods.size(); ++i) {
        const InactivePeriod& p = periods[i];
        const Tensor& t = trace.tensor(p.tensor);
        if (t.kind != TensorKind::Activation)
            continue;  // FlashNeuron does not swap weights (Fig. 14)
        if (p.wrapsIteration)
            continue;
        int cur = best_period[static_cast<std::size_t>(p.tensor)];
        if (cur < 0 || periods[static_cast<std::size_t>(cur)].lengthNs() <
                           p.lengthNs())
            best_period[static_cast<std::size_t>(p.tensor)] =
                static_cast<int>(i);
    }

    // Linear selection: walk tensors in birth order, offload until the
    // projected peak fits (or we run out of candidates).
    std::vector<TensorId> order;
    for (const auto& lv : vitality_->liveness()) {
        if (lv.tensor >= 0 &&
            best_period[static_cast<std::size_t>(lv.tensor)] >= 0)
            order.push_back(lv.tensor);
    }
    std::sort(order.begin(), order.end(), [&](TensorId a, TensorId b) {
        return vitality_->liveness()[static_cast<std::size_t>(a)].birth <
               vitality_->liveness()[static_cast<std::size_t>(b)].birth;
    });

    EvictionSchedule schedule;
    // The projected peak only moves when an offload is recorded below;
    // hoist it so the convergence check costs one rescan per selection
    // instead of one per visited tensor.
    std::int64_t peak = pressure.maxValue();
    for (TensorId t : order) {
        if (peak <= cap)
            break;
        const auto pi = static_cast<std::size_t>(
            best_period[static_cast<std::size_t>(t)]);
        const InactivePeriod& p = periods[pi];
        const Bytes size = trace.tensor(t).bytes;
        if (size < 256 * KiB)
            continue;  // too small to pay the transfer setup for

        ScheduledMigration m;
        m.periodIndex = pi;
        m.tensor = t;
        m.bytes = size;
        m.dest = MemLoc::Ssd;
        m.evictStart = p.startNs;
        m.evictComplete =
            p.startNs + bw.evictDuration(size, MemLoc::Ssd);
        m.prefetchDuration = bw.prefetchDuration(size, MemLoc::Ssd);
        m.prefetchLatest = std::max(
            m.evictComplete, p.endNs - m.prefetchDuration - 20 * USEC);
        m.prefetchStart = m.prefetchLatest;
        if (m.prefetchLatest <= m.evictComplete)
            continue;  // period cannot hide the round trip
        schedule.migrations.push_back(m);
        pressure.add(m.evictComplete, m.prefetchStart,
                     -static_cast<std::int64_t>(size));
        peak = pressure.maxValue();
        ++selected_;
    }
    plannedPeak_ = static_cast<Bytes>(peak);
    plan_ = buildMigrationPlan(*vitality_, schedule);
}

void
FlashNeuronPolicy::beforeKernel(SimRuntime& rt, KernelId k)
{
    auto [begin, end] = plan_.instrsBefore(k);
    for (const MigrationInstr* it = begin; it != end; ++it) {
        if (it->kind == InstrKind::PreEvict)
            rt.issueEvict(it->tensor, it->dest,
                          TransferCause::PreEvict);
        else
            rt.issuePrefetch(it->tensor);
    }
}

}  // namespace g10
