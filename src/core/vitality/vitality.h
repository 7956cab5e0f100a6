/**
 * @file
 * Tensor vitality analysis (paper §4.2).
 *
 * Consumes a kernel trace and derives, for every tensor: birth/death
 * kernels, the list of kernels that use it, and every *inactive period* --
 * a maximal interval during which the tensor is alive but unused, i.e. the
 * window in which it may be migrated out and must be migrated back.
 *
 * Global tensors (weights) additionally get a *wrap-around* inactive
 * period spanning from their last use in one iteration to their first use
 * in the next, exactly as in the paper's Fig. 6 (W1 turns inactive in the
 * backward pass and active again in the next iteration's forward pass).
 */

#ifndef G10_CORE_VITALITY_VITALITY_H
#define G10_CORE_VITALITY_VITALITY_H

#include <vector>

#include "common/pressure_curve.h"
#include "common/types.h"
#include "graph/trace.h"

namespace g10 {

/** One maximal interval in which a live tensor is unused. */
struct InactivePeriod
{
    TensorId tensor = kInvalidTensor;

    /** Kernel whose completion opens the period (its last active use). */
    KernelId lastUse = kInvalidKernel;

    /**
     * Kernel whose start closes the period (the next active use). For
     * wrap-around periods this is the first-use kernel of the *next*
     * iteration.
     */
    KernelId nextUse = kInvalidKernel;

    /** Ideal-timing start (end of lastUse kernel). */
    TimeNs startNs = 0;

    /**
     * Ideal-timing end (start of nextUse kernel). For wrap-around
     * periods this exceeds the iteration length by nextUse's offset in
     * the following iteration.
     */
    TimeNs endNs = 0;

    /** True for a global tensor's cross-iteration period. */
    bool wrapsIteration = false;

    TimeNs lengthNs() const { return endNs - startNs; }
};

/** Liveness summary for one tensor. */
struct TensorLiveness
{
    TensorId tensor = kInvalidTensor;

    /** First kernel that uses the tensor (kInvalidKernel for globals,
     *  which are live from program start). */
    KernelId birth = kInvalidKernel;

    /** Last kernel that uses the tensor (kInvalidKernel if none; the
     *  trace's useIndex() holds every use). Intermediates die after it. */
    KernelId death = kInvalidKernel;

    bool isGlobal = false;
};

/**
 * The analysis pass. Runs once over a trace (O(kernels + uses)) and then
 * serves queries; all time values use the ideal (infinite-memory) kernel
 * timeline, which is what the compile-time scheduler plans against.
 */
class VitalityAnalysis
{
  public:
    /**
     * @param trace            the one-iteration kernel trace
     * @param launch_overhead  per-kernel launch gap used for the ideal
     *                         timeline
     */
    VitalityAnalysis(const KernelTrace& trace, TimeNs launch_overhead);

    const KernelTrace& trace() const { return *trace_; }

    /** Per-tensor liveness, indexed by TensorId. */
    const std::vector<TensorLiveness>& liveness() const
    {
        return liveness_;
    }

    /** Every inactive period of every tensor. */
    const std::vector<InactivePeriod>& periods() const { return periods_; }

    /** Ideal start time of each kernel; index numKernels() = iter end. */
    const std::vector<TimeNs>& kernelStart() const { return kernelStart_; }

    /** Ideal end time of kernel @p k. */
    TimeNs kernelEnd(KernelId k) const;

    /** Length of one ideal iteration. */
    TimeNs iterationLengthNs() const
    {
        return kernelStart_.back();
    }

    /**
     * Live bytes over the ideal timeline with *no* migrations: every
     * tensor contributes its size from birth to death (globals always).
     * This is the paper's initial "memory pressure" curve.
     */
    PressureCurve memoryPressure() const;

    /** Peak of memoryPressure(). */
    Bytes peakMemoryBytes() const;

    /** Bytes of tensors active in (used by) each kernel (Fig. 2). */
    std::vector<Bytes> activeBytesPerKernel() const;

    /** Bytes of tensors live at each kernel (Fig. 2 "all"). */
    std::vector<Bytes> liveBytesPerKernel() const;

  private:
    const KernelTrace* trace_;
    std::vector<TimeNs> kernelStart_;
    std::vector<TensorLiveness> liveness_;
    std::vector<InactivePeriod> periods_;
    TimeNs launchOverhead_;
};

}  // namespace g10

#endif  // G10_CORE_VITALITY_VITALITY_H
