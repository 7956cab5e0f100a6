/**
 * @file
 * The policy and compile step the G10 design family shares: the full
 * system and the two ablations the paper's Fig. 11 studies.
 *
 * All three replay the compile-time migration plan produced by
 * compileG10Plan(); they differ only in their G10Variant (which
 * destinations the scheduler may use and whether the runtime has the
 * unified page table). Each registry entry declares its variant.
 */

#ifndef G10_POLICIES_G10_POLICY_H
#define G10_POLICIES_G10_POLICY_H

#include <memory>

#include "core/g10_compiler.h"
#include "policies/design_point.h"
#include "sim/runtime/policy.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

/** Plan-replaying policy used by all G10 variants. */
class G10Policy : public Policy
{
  public:
    /**
     * @param display_name the registry entry's name
     * @param plan         compiled migration plan (owned)
     */
    G10Policy(std::string display_name, CompiledPlan plan)
        : name_(std::move(display_name)),
          plan_(std::make_shared<const CompiledPlan>(std::move(plan)))
    {}

    /**
     * Share an already-compiled plan (a SweepPlanCache hit, or a plan
     * another variant with the same compile options produced). The
     * policy only replays the plan, so sharing is safe across
     * concurrent simulations.
     */
    G10Policy(std::string display_name,
              std::shared_ptr<const CompiledPlan> plan)
        : name_(std::move(display_name)), plan_(std::move(plan))
    {}

    const char* name() const override { return name_.c_str(); }

    void beforeKernel(SimRuntime& rt, KernelId k) override;

    MemLoc capacityEvictDest(SimRuntime& rt, TensorId t) override;

    const CompiledPlan& compiled() const { return *plan_; }

    /** The plan as a shareable handle (seeds later warm compiles). */
    const std::shared_ptr<const CompiledPlan>& compiledShared() const
    {
        return plan_;
    }

  private:
    std::string name_;
    std::shared_ptr<const CompiledPlan> plan_;
};

/**
 * Compile the plan of @p variant: the compiler with that variant's
 * destinations, warm-started by @p warm_start when non-null. The form
 * plan caches store and share, and the one place the family's compile
 * options are built.
 */
std::shared_ptr<const CompiledPlan> compileFamilyPlan(
    const G10Variant& variant, const KernelTrace& trace,
    const SystemConfig& config,
    const EvictionSchedule* warm_start = nullptr);

/**
 * Compile + wrap the full G10 design (the registry's "g10" entry).
 *
 * @param warm_start optional EvictionSchedule from a previous compile of
 *        the same model topology (different batch size / capacity knob):
 *        replayed as a warm start so re-planning skips most of the
 *        greedy search (see EvictionSchedulerParams::warmStart). The
 *        schedule only needs to live until this call returns.
 */
std::unique_ptr<G10Policy> makeG10(const KernelTrace& trace,
                                   const SystemConfig& config,
                                   const EvictionSchedule* warm_start =
                                       nullptr);

}  // namespace g10

#endif  // G10_POLICIES_G10_POLICY_H
