/**
 * @file
 * One-call experiment facade and fluent builder used by the examples,
 * tools, and every benchmark: build the model trace, instantiate a
 * design by registry name, simulate, return the statistics. This is
 * the public entry point a downstream user starts from:
 *
 *   g10::RunResult r = g10::Experiment()
 *                          .model("resnet152")
 *                          .batch(256)
 *                          .design("g10")
 *                          .scaleDown(8)
 *                          .run();
 *
 * Designs are looked up in the PolicyRegistry, so custom policies
 * registered by downstream code are reachable by name with no edits to
 * this library (see policies/registry.h).
 */

#ifndef G10_API_EXPERIMENT_H
#define G10_API_EXPERIMENT_H

#include <cstdint>
#include <string>

#include "common/system_config.h"
#include "models/model_zoo.h"
#include "policies/registry.h"
#include "sim/runtime/policy.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

/** Full description of one simulated experiment. */
struct ExperimentConfig
{
    ModelKind model = ModelKind::ResNet152;

    /** Paper-scale batch size (before scale-down). */
    int batchSize = 256;

    /**
     * Divide batch and all platform capacities by this factor; ratios
     * (memory-over-capacity, compute-vs-transfer) are preserved while
     * simulation cost shrinks. 1 = paper scale.
     */
    unsigned scaleDown = 8;

    /** Platform before scaling (Table 2 defaults). */
    SystemConfig sys;

    /**
     * Design name resolved through the PolicyRegistry — any built-in
     * ("ideal", "baseuvm", "deepum", "flashneuron", "g10gds",
     * "g10host", "g10") or registered custom policy.
     */
    std::string design = "g10";

    int iterations = 2;
    double timingErrorPct = 0.0;
    std::uint64_t seed = 42;

    /** Fraction of GPU memory weights may fill at placement time. */
    double weightWatermark = 0.85;

    /**
     * Unified-page-table override: -1 = use the design's default
     * (G10 on, everything else off), 0 = force off, 1 = force on.
     */
    int uvmExtension = -1;
};

/**
 * One experiment's outcome plus the configuration that produced it —
 * the unit the report layer serializes to JSON/CSV.
 */
struct RunResult
{
    /** The configuration as passed in (pre-scaling echo). */
    ExperimentConfig config;

    /** Canonical display name of the resolved design, e.g. "G10". */
    std::string designName;

    ExecStats stats;

    bool ok() const { return !stats.failed; }
};

/** Run one experiment end to end. */
ExecStats runExperiment(const ExperimentConfig& config);

/**
 * Run one experiment against an already-built trace (lets callers
 * amortize trace construction across designs). The platform in
 * @p config.sys must already be scaled consistently with the trace.
 *
 * @param tracer optional observability hookup (see obs/tracer.h);
 *        nullptr runs untraced. A traced run returns bit-identical
 *        statistics — the tracer only observes.
 * @param design optional instance of @p config.design built by the
 *        caller (g10sim builds one to print the plan it replays);
 *        nullptr makes one through the registry.
 */
ExecStats runExperimentOnTrace(const KernelTrace& trace,
                               const ExperimentConfig& config,
                               Tracer* tracer = nullptr,
                               DesignInstance* design = nullptr);

/** runExperiment() bundled with its config echo. */
RunResult runExperimentResult(const ExperimentConfig& config);

/** runExperimentOnTrace() bundled with its config echo. */
RunResult runExperimentResultOnTrace(const KernelTrace& trace,
                                     const ExperimentConfig& config,
                                     Tracer* tracer = nullptr,
                                     DesignInstance* design = nullptr);

/**
 * Fluent construction of an ExperimentConfig for the common case —
 * model, batch, scale, design and platform; run() executes immediately
 * and returns the structured result. The remaining knobs (iterations,
 * seed, timing error, watermark, UVM override) are ExperimentConfig
 * fields: set them there and call runExperimentResult(). Obtain one
 * via Experiment().
 */
class ExperimentBuilder
{
  public:
    ExperimentBuilder& model(ModelKind m);
    ExperimentBuilder& batch(int batch_size);
    ExperimentBuilder& scaleDown(unsigned factor);

    /** Design by registry name (built-in or custom). */
    ExperimentBuilder& design(const std::string& name);

    /** Replace the whole platform description. */
    ExperimentBuilder& system(const SystemConfig& sys);

    /** The accumulated configuration. */
    const ExperimentConfig& config() const { return cfg_; }

    /** Build the trace, run, and return the structured result. */
    RunResult run() const;

    /**
     * Run against a pre-built trace; cfg_.sys must already be scaled
     * consistently with the trace.
     */
    RunResult runOnTrace(const KernelTrace& trace) const;

  private:
    ExperimentConfig cfg_;
};

/** Entry point of the fluent API. */
inline ExperimentBuilder
Experiment()
{
    return ExperimentBuilder();
}

}  // namespace g10

#endif  // G10_API_EXPERIMENT_H
