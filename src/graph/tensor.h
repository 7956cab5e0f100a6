/**
 * @file
 * Tensor metadata as seen by the G10 compiler passes.
 *
 * G10 never touches tensor *contents*; everything it needs is the size,
 * the role of the tensor in training (weight vs. activation vs. gradient
 * vs. scratch), and -- derived later by the vitality analyzer -- the
 * points in the kernel stream where the tensor is used.
 */

#ifndef G10_GRAPH_TENSOR_H
#define G10_GRAPH_TENSOR_H

#include <string>

#include "common/types.h"

namespace g10 {

/** Role of a tensor within one training iteration. */
enum class TensorKind
{
    Weight,          ///< model parameter; lives across iterations (global)
    WeightGrad,      ///< dW; born in backward, dead after optimizer step
    Activation,      ///< forward intermediate (includes network inputs)
    ActivationGrad,  ///< dA; born and dead within the backward pass
    Workspace,       ///< kernel scratch (e.g. conv algo workspace)
};

/**
 * One tensor in a DNN program.
 *
 * Matches the paper's §4.2 taxonomy: tensors whose lifetime spans
 * iterations are "global" (weights); everything else is "intermediate"
 * and can be freed at death.
 */
struct Tensor
{
    TensorId id = kInvalidTensor;
    std::string name;
    Bytes bytes = 0;
    TensorKind kind = TensorKind::Activation;

    /** Global tensors persist across training iterations (§4.2). */
    bool
    isGlobal() const
    {
        return kind == TensorKind::Weight;
    }
};

}  // namespace g10

#endif  // G10_GRAPH_TENSOR_H
