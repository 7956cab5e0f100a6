/**
 * @file
 * The G10 design points: the full system and the two ablations the
 * paper's Fig. 11 studies.
 *
 *  - G10-GDS:  smart migrations between GPU and SSD only (GPUDirect-
 *              Storage-style), no host staging, no UVM extension.
 *  - G10-Host: smart migrations across GPU/host/SSD, but still paying
 *              the host software path per migration op.
 *  - G10:      G10-Host plus the unified page table extension (§4.5),
 *              which removes most of the software overhead.
 *
 * All three replay the compile-time migration plan produced by
 * compileG10Plan(); the variants differ in which destinations the
 * scheduler may use and whether the runtime charges the driver path.
 */

#ifndef G10_POLICIES_G10_POLICY_H
#define G10_POLICIES_G10_POLICY_H

#include <memory>

#include "core/g10_compiler.h"
#include "sim/runtime/policy.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

/** Plan-replaying policy used by all G10 variants. */
class G10Policy : public Policy
{
  public:
    /**
     * @param display_name "G10", "G10-GDS" or "G10-Host"
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
 * Compile + wrap the full G10 design.
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

/** G10 with GPU<->SSD migrations only. */
std::unique_ptr<G10Policy> makeG10Gds(const KernelTrace& trace,
                                      const SystemConfig& config,
                                      const EvictionSchedule* warm_start =
                                          nullptr);

/** G10 with host staging but without the UVM extension. */
std::unique_ptr<G10Policy> makeG10Host(const KernelTrace& trace,
                                       const SystemConfig& config,
                                       const EvictionSchedule* warm_start =
                                           nullptr);

/**
 * True when @p tag (a PolicyInfo::builtinTag) names a G10 family
 * member — G10, G10-GDS or G10-Host, the designs with a compile
 * pipeline. Custom policies (tag -1) are never family members.
 */
bool isG10Family(int tag);

/**
 * Compile-options class of one family member (@p tag is a DesignPoint
 * value): members with equal keys run the compiler with identical
 * options and therefore produce bit-identical plans — G10 and G10-Host
 * share a class (both allow SSD + host destinations; they differ only
 * in the runtime's UVM-extension charging), G10-GDS (SSD only) is its
 * own. Cache keys use this instead of the tag so a sweep over g10 and
 * g10host compiles each plan once.
 */
int planCompileOptionsKey(int tag);

/**
 * Compile the plan for family member @p tag without wrapping it in a
 * policy — the form plan caches store and share.
 */
std::shared_ptr<const CompiledPlan> compileFamilyPlan(
    int tag, const KernelTrace& trace, const SystemConfig& config,
    const EvictionSchedule* warm_start = nullptr);

/**
 * Wrap an already-compiled (possibly cached/shared) plan in family
 * member @p tag's policy, with its display name.
 */
std::unique_ptr<G10Policy> makeFamilyPolicy(
    int tag, std::shared_ptr<const CompiledPlan> plan);

}  // namespace g10

#endif  // G10_POLICIES_G10_POLICY_H
