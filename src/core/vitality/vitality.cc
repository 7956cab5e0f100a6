#include "vitality.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

VitalityAnalysis::VitalityAnalysis(const KernelTrace& trace,
                                   TimeNs launch_overhead)
    : trace_(&trace), launchOverhead_(launch_overhead)
{
    kernelStart_ = trace.idealStartTimes(launch_overhead);

    const std::vector<std::vector<KernelId>>& uses =
        trace.useIndex().uses;
    liveness_.resize(trace.numTensors());

    for (std::size_t ti = 0; ti < trace.numTensors(); ++ti) {
        const Tensor& t = trace.tensor(static_cast<TensorId>(ti));
        const std::vector<KernelId>& use = uses[ti];
        TensorLiveness& lv = liveness_[ti];
        lv.tensor = t.id;
        lv.isGlobal = t.isGlobal();
        if (use.empty()) {
            // Unused tensor: no periods; weights may legitimately be
            // untouched (frozen), intermediates should not happen.
            if (!lv.isGlobal)
                warn("intermediate tensor '%s' is never used",
                     t.name.c_str());
            continue;
        }
        lv.birth = lv.isGlobal ? kInvalidKernel : use.front();
        lv.death = use.back();

        // Periods between consecutive uses.
        for (std::size_t u = 0; u + 1 < use.size(); ++u) {
            KernelId a = use[u];
            KernelId b = use[u + 1];
            if (b == a + 1)
                continue;  // no gap
            InactivePeriod p;
            p.tensor = t.id;
            p.lastUse = a;
            p.nextUse = b;
            p.startNs = kernelEnd(a);
            p.endNs = kernelStart_[static_cast<std::size_t>(b)];
            if (p.lengthNs() > 0)
                periods_.push_back(p);
        }

        // Wrap-around period for globals: last use -> first use of the
        // next iteration.
        if (lv.isGlobal) {
            InactivePeriod p;
            p.tensor = t.id;
            p.lastUse = use.back();
            p.nextUse = use.front();
            p.startNs = kernelEnd(use.back());
            p.endNs = iterationLengthNs() +
                      kernelStart_[static_cast<std::size_t>(
                          use.front())];
            if (p.lengthNs() > 0) {
                p.wrapsIteration = true;
                periods_.push_back(p);
            }
        }
    }
}

TimeNs
VitalityAnalysis::kernelEnd(KernelId k) const
{
    if (k < 0 || static_cast<std::size_t>(k) >= trace_->numKernels())
        panic("kernelEnd: bad kernel id %d", k);
    return kernelStart_[static_cast<std::size_t>(k)] +
           trace_->kernel(k).durationNs;
}

PressureCurve
VitalityAnalysis::memoryPressure() const
{
    std::vector<PressureCurve::Interval> live;
    live.reserve(liveness_.size());
    const TimeNs iter_end = iterationLengthNs();
    for (const auto& lv : liveness_) {
        if (lv.death == kInvalidKernel && !lv.isGlobal)
            continue;
        const auto bytes =
            static_cast<std::int64_t>(trace_->tensor(lv.tensor).bytes);
        if (lv.isGlobal)
            live.push_back({0, iter_end, bytes});
        else
            live.push_back(
                {kernelStart_[static_cast<std::size_t>(lv.birth)],
                 kernelEnd(lv.death), bytes});
    }
    return PressureCurve::build(live);
}

Bytes
VitalityAnalysis::peakMemoryBytes() const
{
    return static_cast<Bytes>(memoryPressure().maxValue());
}

std::vector<Bytes>
VitalityAnalysis::activeBytesPerKernel() const
{
    std::vector<Bytes> out(trace_->numKernels(), 0);
    const TraceUseIndex& idx = trace_->useIndex();
    for (const auto& k : trace_->kernels()) {
        Bytes sum = 0;
        const auto ki = static_cast<std::size_t>(k.id);
        for (std::uint32_t ti = idx.kernelTensorsOff[ki];
             ti < idx.kernelTensorsOff[ki + 1]; ++ti)
            sum += trace_->tensor(idx.kernelTensors[ti]).bytes;
        out[ki] = sum;
    }
    return out;
}

std::vector<Bytes>
VitalityAnalysis::liveBytesPerKernel() const
{
    // Sweep births/deaths over kernel indices.
    std::vector<std::int64_t> delta(trace_->numKernels() + 1, 0);
    Bytes global_bytes = 0;
    for (const auto& lv : liveness_) {
        const Tensor& t = trace_->tensor(lv.tensor);
        if (lv.isGlobal) {
            global_bytes += t.bytes;
            continue;
        }
        if (lv.death == kInvalidKernel)
            continue;
        delta[static_cast<std::size_t>(lv.birth)] +=
            static_cast<std::int64_t>(t.bytes);
        delta[static_cast<std::size_t>(lv.death) + 1] -=
            static_cast<std::int64_t>(t.bytes);
    }
    std::vector<Bytes> out(trace_->numKernels(), 0);
    std::int64_t run = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        run += delta[i];
        out[i] = global_bytes + static_cast<Bytes>(run);
    }
    return out;
}

}  // namespace g10
