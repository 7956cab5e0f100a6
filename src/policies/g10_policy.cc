#include "g10_policy.h"

#include "common/logging.h"
#include "policies/design_point.h"

namespace g10 {

void
G10Policy::beforeKernel(SimRuntime& rt, KernelId k)
{
    auto [begin, end] = plan_->plan.instrsBefore(k);
    for (const MigrationInstr* it = begin; it != end; ++it) {
        if (it->kind == InstrKind::PreEvict)
            rt.issueEvict(it->tensor, it->dest, TransferCause::PreEvict);
        else
            rt.issuePrefetch(it->tensor);
    }
}

MemLoc
G10Policy::capacityEvictDest(SimRuntime& rt, TensorId t)
{
    (void)t;
    // Unplanned pressure is rare under a good plan; spill to host when
    // it has room (fast path back), otherwise to the SSD.
    return rt.hostFreeBytes() > 0 ? MemLoc::Host : MemLoc::Ssd;
}

bool
isG10Family(int tag)
{
    return tag == static_cast<int>(DesignPoint::G10) ||
           tag == static_cast<int>(DesignPoint::G10Gds) ||
           tag == static_cast<int>(DesignPoint::G10Host);
}

int
planCompileOptionsKey(int tag)
{
    // G10 and G10-Host compile with identical options (SSD + host
    // destinations); only G10-GDS restricts the destination set.
    return tag == static_cast<int>(DesignPoint::G10Gds) ? 1 : 0;
}

std::shared_ptr<const CompiledPlan>
compileFamilyPlan(int tag, const KernelTrace& trace,
                  const SystemConfig& config,
                  const EvictionSchedule* warm_start)
{
    G10CompilerOptions opt;
    opt.eviction.allowSsd = true;
    opt.eviction.allowHost =
        tag != static_cast<int>(DesignPoint::G10Gds);
    opt.eviction.warmStart = warm_start;
    return std::make_shared<const CompiledPlan>(
        compileG10Plan(trace, config, opt));
}

std::unique_ptr<G10Policy>
makeFamilyPolicy(int tag, std::shared_ptr<const CompiledPlan> plan)
{
    const char* name = "G10";
    if (tag == static_cast<int>(DesignPoint::G10Gds))
        name = "G10-GDS";
    else if (tag == static_cast<int>(DesignPoint::G10Host))
        name = "G10-Host";
    else if (tag != static_cast<int>(DesignPoint::G10))
        panic("makeFamilyPolicy: tag %d is not a G10 family member",
              tag);
    return std::make_unique<G10Policy>(name, std::move(plan));
}

std::unique_ptr<G10Policy>
makeG10(const KernelTrace& trace, const SystemConfig& config,
        const EvictionSchedule* warm_start)
{
    const int tag = static_cast<int>(DesignPoint::G10);
    return makeFamilyPolicy(
        tag, compileFamilyPlan(tag, trace, config, warm_start));
}

std::unique_ptr<G10Policy>
makeG10Gds(const KernelTrace& trace, const SystemConfig& config,
           const EvictionSchedule* warm_start)
{
    const int tag = static_cast<int>(DesignPoint::G10Gds);
    return makeFamilyPolicy(
        tag, compileFamilyPlan(tag, trace, config, warm_start));
}

std::unique_ptr<G10Policy>
makeG10Host(const KernelTrace& trace, const SystemConfig& config,
            const EvictionSchedule* warm_start)
{
    const int tag = static_cast<int>(DesignPoint::G10Host);
    return makeFamilyPolicy(
        tag, compileFamilyPlan(tag, trace, config, warm_start));
}

}  // namespace g10
