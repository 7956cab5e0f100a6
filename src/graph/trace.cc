#include "trace.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

const char*
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::DataLoad: return "DataLoad";
      case OpKind::Conv2d: return "Conv2d";
      case OpKind::ConvBackward: return "ConvBackward";
      case OpKind::Gemm: return "Gemm";
      case OpKind::BatchNorm: return "BatchNorm";
      case OpKind::LayerNorm: return "LayerNorm";
      case OpKind::Activation: return "Activation";
      case OpKind::Pool: return "Pool";
      case OpKind::Softmax: return "Softmax";
      case OpKind::Attention: return "Attention";
      case OpKind::Elementwise: return "Elementwise";
      case OpKind::Reduce: return "Reduce";
      case OpKind::Optimizer: return "Optimizer";
      case OpKind::Embedding: return "Embedding";
    }
    return "?";
}

TensorId
KernelTrace::addTensor(std::string name, Bytes bytes, TensorKind kind)
{
    Tensor t;
    t.id = static_cast<TensorId>(tensors_.size());
    t.name = std::move(name);
    t.bytes = bytes;
    t.kind = kind;
    tensors_.push_back(std::move(t));
    return tensors_.back().id;
}

KernelId
KernelTrace::addKernel(Kernel kernel)
{
    kernel.id = static_cast<KernelId>(kernels_.size());
    kernels_.push_back(std::move(kernel));
    std::atomic_store(&useIndex_,
                      std::shared_ptr<const TraceUseIndex>());
    return kernels_.back().id;
}

const TraceUseIndex&
KernelTrace::useIndex() const
{
    std::shared_ptr<const TraceUseIndex> idx =
        std::atomic_load(&useIndex_);
    if (idx != nullptr)
        return *idx;

    // One pass: kernel k's slice is its inputs + outputs + workspace,
    // sorted and deduplicated; k then joins each of those tensors' use
    // lists, which therefore come out ascending.
    auto built = std::make_shared<TraceUseIndex>();
    std::vector<TensorId>& all = built->kernelTensors;
    built->uses.resize(tensors_.size());
    built->kernelTensorsOff.reserve(kernels_.size() + 1);
    built->kernelTensorsOff.push_back(0);
    for (const Kernel& k : kernels_) {
        auto first = static_cast<std::ptrdiff_t>(all.size());
        all.insert(all.end(), k.inputs.begin(), k.inputs.end());
        all.insert(all.end(), k.outputs.begin(), k.outputs.end());
        all.insert(all.end(), k.workspace.begin(), k.workspace.end());
        std::sort(all.begin() + first, all.end());
        all.erase(std::unique(all.begin() + first, all.end()), all.end());
        for (auto it = all.begin() + first; it != all.end(); ++it)
            built->uses[static_cast<std::size_t>(*it)].push_back(k.id);
        built->kernelTensorsOff.push_back(
            static_cast<std::uint32_t>(all.size()));
    }

    // First publisher wins; a losing racer built an identical index
    // and returns the winner's (kept alive by the member).
    std::shared_ptr<const TraceUseIndex> expected;
    std::shared_ptr<const TraceUseIndex> publish = std::move(built);
    if (std::atomic_compare_exchange_strong(&useIndex_, &expected,
                                            publish))
        return *publish;
    return *expected;
}

const Tensor&
KernelTrace::tensor(TensorId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= tensors_.size())
        panic("tensor id %d out of range (have %zu)", id, tensors_.size());
    return tensors_[static_cast<std::size_t>(id)];
}

Tensor&
KernelTrace::tensor(TensorId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= tensors_.size())
        panic("tensor id %d out of range (have %zu)", id, tensors_.size());
    return tensors_[static_cast<std::size_t>(id)];
}

const Kernel&
KernelTrace::kernel(KernelId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= kernels_.size())
        panic("kernel id %d out of range (have %zu)", id, kernels_.size());
    return kernels_[static_cast<std::size_t>(id)];
}

TimeNs
KernelTrace::totalComputeNs() const
{
    TimeNs total = 0;
    for (const auto& k : kernels_)
        total += k.durationNs;
    return total;
}

void
KernelTrace::scaleDurations(double factor)
{
    if (factor <= 0.0)
        panic("scaleDurations: non-positive factor %g", factor);
    for (auto& k : kernels_) {
        auto scaled = static_cast<TimeNs>(
            static_cast<double>(k.durationNs) * factor);
        k.durationNs = std::max<TimeNs>(scaled, 1000);
    }
}

std::vector<TimeNs>
KernelTrace::idealStartTimes(TimeNs launch_overhead) const
{
    std::vector<TimeNs> starts(kernels_.size() + 1, 0);
    TimeNs t = 0;
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
        starts[i] = t;
        t += kernels_[i].durationNs + launch_overhead;
    }
    starts[kernels_.size()] = t;
    return starts;
}

Bytes
KernelTrace::totalTensorBytes() const
{
    Bytes total = 0;
    for (const auto& t : tensors_)
        total += t.bytes;
    return total;
}

Bytes
KernelTrace::peakKernelWorkingSet(Bytes page) const
{
    const TraceUseIndex& idx = useIndex();
    Bytes peak = 0;
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
        Bytes ws = 0;
        for (std::uint32_t i = idx.kernelTensorsOff[k];
             i < idx.kernelTensorsOff[k + 1]; ++i)
            ws += (tensor(idx.kernelTensors[i]).bytes + page - 1) / page *
                  page;
        peak = std::max(peak, ws);
    }
    return peak;
}

void
KernelTrace::validate() const
{
    std::vector<bool> written(tensors_.size(), false);
    for (const auto& k : kernels_) {
        if (k.durationNs < 0)
            panic("kernel %d has negative duration", k.id);
        for (const auto* ids : {&k.inputs, &k.outputs, &k.workspace})
            for (TensorId t : *ids)
                if (t < 0 || static_cast<std::size_t>(t) >= tensors_.size())
                    panic("kernel %d references bad tensor %d", k.id, t);
        for (TensorId t : k.inputs) {
            const auto& ten = tensors_[static_cast<std::size_t>(t)];
            if (!written[static_cast<std::size_t>(t)] && !ten.isGlobal())
                panic("kernel %d (%s) reads tensor %d (%s) before any "
                      "kernel wrote it", k.id, k.name.c_str(), t,
                      ten.name.c_str());
        }
        for (TensorId t : k.outputs)
            written[static_cast<std::size_t>(t)] = true;
        for (TensorId t : k.workspace)
            written[static_cast<std::size_t>(t)] = true;
    }
    for (const auto& t : tensors_) {
        if (t.bytes == 0)
            panic("tensor %d (%s) has zero size", t.id, t.name.c_str());
    }
}

}  // namespace g10
