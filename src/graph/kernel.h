/**
 * @file
 * One CUDA-kernel-equivalent unit of the replayable execution trace.
 */

#ifndef G10_GRAPH_KERNEL_H
#define G10_GRAPH_KERNEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace g10 {

/** Operator class a kernel implements; drives the roofline cost model. */
enum class OpKind
{
    DataLoad,    ///< host->GPU input batch materialization
    Conv2d,
    ConvBackward,
    Gemm,        ///< dense matmul (fwd or bwd)
    BatchNorm,
    LayerNorm,
    Activation,  ///< ReLU/GELU/sigmoid-style elementwise
    Pool,
    Softmax,
    Attention,   ///< fused attention score/context kernels
    Elementwise, ///< add/mul/scale/copy/concat
    Reduce,      ///< global pooling / loss reduction
    Optimizer,   ///< SGD parameter update
    Embedding,
};

/** Human-readable op-kind name. */
const char* opKindName(OpKind kind);

/**
 * One kernel in execution order.
 *
 * `inputs` must be resident when the kernel runs; `outputs` are allocated
 * at kernel start (their first use); `workspace` tensors are scratch that
 * is live only during this kernel.
 */
struct Kernel
{
    KernelId id = kInvalidKernel;
    std::string name;
    OpKind kind = OpKind::Elementwise;

    /** Profiled/modeled execution time, excluding launch overhead. */
    TimeNs durationNs = 0;

    /** Floating-point work (for the cost model / reports). */
    double flops = 0.0;

    /** DRAM bytes moved (for the cost model / reports). */
    double memBytes = 0.0;

    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
    std::vector<TensorId> workspace;
};

}  // namespace g10

#endif  // G10_GRAPH_KERNEL_H
