#include "g10_compiler.h"

#include "common/logging.h"

namespace g10 {

CompiledPlan
compileG10Plan(const KernelTrace& trace, const SystemConfig& config,
               G10CompilerOptions options)
{
    CompiledPlan out;
    out.vitality = std::make_unique<VitalityAnalysis>(
        trace, config.kernelLaunchOverheadNs);

    EvictionScheduler evictor(*out.vitality, config, options.eviction);
    out.schedule = evictor.run();
    out.prefetchStats = schedulePrefetches(
        out.schedule, evictor.bandwidth(), config, options.prefetch);
    out.plan = buildMigrationPlan(*out.vitality, out.schedule);
    out.schedule.pressure = PressureCurve();  // nothing reads it past here

    inform("g10 compile: %s b=%d: %zu migrations (%.1f GB ssd, %.1f GB "
           "host), peak %.2f -> %.2f GB",
           trace.modelName().c_str(), trace.batchSize(),
           out.schedule.migrations.size(),
           static_cast<double>(out.schedule.bytesToSsd) / 1e9,
           static_cast<double>(out.schedule.bytesToHost) / 1e9,
           static_cast<double>(out.schedule.initialPeakBytes) / 1e9,
           static_cast<double>(out.schedule.finalPeakBytes) / 1e9);
    return out;
}

}  // namespace g10
