#include "g10_policy.h"

#include "policies/registry.h"

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

std::shared_ptr<const CompiledPlan>
compileFamilyPlan(const G10Variant& variant, const KernelTrace& trace,
                  const SystemConfig& config,
                  const EvictionSchedule* warm_start)
{
    G10CompilerOptions opt;
    opt.eviction.allowSsd = true;
    opt.eviction.allowHost = variant.allowHost;
    opt.eviction.warmStart = warm_start;
    return std::make_shared<const CompiledPlan>(
        compileG10Plan(trace, config, opt));
}

std::unique_ptr<G10Policy>
makeG10(const KernelTrace& trace, const SystemConfig& config,
        const EvictionSchedule* warm_start)
{
    const PolicyInfo& g10 = PolicyRegistry::instance().resolve("g10");
    return std::make_unique<G10Policy>(
        g10.name, compileFamilyPlan(*g10.g10, trace, config, warm_start));
}

}  // namespace g10
