#include "experiment.h"

#include "common/logging.h"

namespace g10 {

ExecStats
runExperimentOnTrace(const KernelTrace& trace,
                     const ExperimentConfig& config, Tracer* tracer,
                     DesignInstance* design)
{
    DesignInstance made;
    if (design == nullptr) {
        made = PolicyRegistry::instance().make(config.design, trace,
                                               config.sys);
        design = &made;
    }

    RunConfig rc;
    rc.sys = config.sys;
    rc.iterations = config.iterations;
    rc.uvmExtension = config.uvmExtension < 0
                          ? design->uvmExtension
                          : (config.uvmExtension != 0);
    rc.timingErrorPct = config.timingErrorPct;
    rc.seed = config.seed;
    rc.weightWatermark = config.weightWatermark;

    SimRuntime rt(trace, *design->policy, rc);
    if (tracer)
        rt.setTracer(tracer);
    return rt.run();
}

ExecStats
runExperiment(const ExperimentConfig& config)
{
    KernelTrace trace = buildModelScaled(config.model, config.batchSize,
                                         config.scaleDown);
    ExperimentConfig scaled = config;
    scaled.sys = config.sys.scaledDown(config.scaleDown);
    return runExperimentOnTrace(trace, scaled);
}

RunResult
runExperimentResult(const ExperimentConfig& config)
{
    RunResult out;
    out.config = config;
    out.designName =
        PolicyRegistry::instance().resolve(config.design).name;
    out.stats = runExperiment(config);
    return out;
}

RunResult
runExperimentResultOnTrace(const KernelTrace& trace,
                           const ExperimentConfig& config,
                           Tracer* tracer, DesignInstance* design)
{
    RunResult out;
    out.config = config;
    out.designName =
        PolicyRegistry::instance().resolve(config.design).name;
    out.stats = runExperimentOnTrace(trace, config, tracer, design);
    return out;
}

ExperimentBuilder&
ExperimentBuilder::model(ModelKind m)
{
    cfg_.model = m;
    return *this;
}

ExperimentBuilder&
ExperimentBuilder::batch(int batch_size)
{
    if (batch_size < 1)
        fatal("Experiment: batch must be >= 1, got %d", batch_size);
    cfg_.batchSize = batch_size;
    return *this;
}

ExperimentBuilder&
ExperimentBuilder::scaleDown(unsigned factor)
{
    if (factor < 1)
        fatal("Experiment: scaleDown must be >= 1");
    cfg_.scaleDown = factor;
    return *this;
}

ExperimentBuilder&
ExperimentBuilder::design(const std::string& name)
{
    // Resolve eagerly so typos fail at build time, not at run().
    PolicyRegistry::instance().resolve(name);
    cfg_.design = name;
    return *this;
}

ExperimentBuilder&
ExperimentBuilder::system(const SystemConfig& sys)
{
    cfg_.sys = sys;
    return *this;
}

RunResult
ExperimentBuilder::run() const
{
    return runExperimentResult(cfg_);
}

RunResult
ExperimentBuilder::runOnTrace(const KernelTrace& trace) const
{
    return runExperimentResultOnTrace(trace, cfg_);
}

}  // namespace g10
