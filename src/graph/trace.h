/**
 * @file
 * The replayable kernel trace: the contract between the model zoo, the
 * vitality analyzer / migration scheduler, and the runtime simulator.
 *
 * Mirrors the paper's methodology (§5): real models are profiled once and
 * their kernel traces replayed. Here the "profile" comes from the analytic
 * cost model, but the downstream consumers only see this trace type either
 * way.
 */

#ifndef G10_GRAPH_TRACE_H
#define G10_GRAPH_TRACE_H

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/kernel.h"
#include "graph/tensor.h"

namespace g10 {

/**
 * Derived read-only indexes over a trace's kernel list: the only place
 * kernel <-> tensor relations are derived. Built once per trace and
 * shared by vitality analysis and every runtime replaying the trace (a
 * sweep can compile and replay the same trace hundreds of times).
 */
struct TraceUseIndex
{
    /** Kernel ids using each tensor, strictly ascending (workspace
     *  counts; a kernel naming a tensor twice is listed once). */
    std::vector<std::vector<KernelId>> uses;

    /**
     * Every tensor each kernel touches (inputs + outputs + workspace,
     * sorted, deduplicated), flattened in CSR layout: kernel k's
     * tensors live at [kernelTensorsOff[k], kernelTensorsOff[k + 1]).
     */
    std::vector<TensorId> kernelTensors;
    std::vector<std::uint32_t> kernelTensorsOff;
};

/**
 * An immutable-after-build sequence of kernels plus the tensor set they
 * reference. Kernel ids equal their execution-order index.
 */
class KernelTrace
{
  public:
    KernelTrace() = default;

    /** Model name, e.g. "ResNet152" (used in reports). */
    const std::string& modelName() const { return modelName_; }
    void setModelName(std::string name) { modelName_ = std::move(name); }

    /** Batch size the trace was generated for. */
    int batchSize() const { return batchSize_; }
    void setBatchSize(int b) { batchSize_ = b; }

    /** Register a tensor; returns its id. */
    TensorId addTensor(std::string name, Bytes bytes, TensorKind kind);

    /** Append a kernel; its id is assigned to the execution index. */
    KernelId addKernel(Kernel kernel);

    const Tensor& tensor(TensorId id) const;
    Tensor& tensor(TensorId id);
    const Kernel& kernel(KernelId id) const;

    std::size_t numTensors() const { return tensors_.size(); }
    std::size_t numKernels() const { return kernels_.size(); }
    const std::vector<Tensor>& tensors() const { return tensors_; }
    const std::vector<Kernel>& kernels() const { return kernels_; }

    /** Sum of kernel durations: the ideal (infinite-memory) iteration. */
    TimeNs totalComputeNs() const;

    /** Multiply every kernel duration by @p factor (calibration). */
    void scaleDurations(double factor);

    /**
     * Ideal-timing start offset of each kernel (prefix sums of durations
     * plus per-kernel launch overhead). Index numKernels() holds the end
     * time of the final kernel.
     */
    std::vector<TimeNs> idealStartTimes(TimeNs launch_overhead) const;

    /**
     * The cached use-list / kernel-tensor index, built lazily on first
     * access and shared by all readers (thread-safe: concurrent first
     * calls race to publish identical indexes and one wins). addKernel
     * invalidates it, so hold no reference across trace mutation.
     */
    const TraceUseIndex& useIndex() const;

    /** Sum of all tensor sizes (the program's total memory demand). */
    Bytes totalTensorBytes() const;

    /**
     * Largest single-kernel working set (inputs+outputs+workspace),
     * each tensor rounded up to whole @p page bytes. This is exactly
     * what the runtime's OOM guard pins: a GPU budget below it is
     * guaranteed to fail.
     */
    Bytes peakKernelWorkingSet(Bytes page) const;

    /**
     * Sanity-check structural invariants; panics on violation:
     * tensor ids in range, every tensor's first use lists it as an output
     * or workspace (no reads of never-written tensors except weights),
     * kernel ids dense.
     */
    void validate() const;

  private:
    std::string modelName_ = "unnamed";
    int batchSize_ = 1;
    std::vector<Tensor> tensors_;
    std::vector<Kernel> kernels_;

    // Lazily published index (accessed via std::atomic_* shared_ptr
    // functions). Copies share it; addKernel resets it.
    mutable std::shared_ptr<const TraceUseIndex> useIndex_;
};

}  // namespace g10

#endif  // G10_GRAPH_TRACE_H
