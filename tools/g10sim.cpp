/**
 * @file
 * g10sim -- config-driven single-experiment runner, the equivalent of
 * the paper artifact's `gpg <config>` workflow.
 *
 * Usage:
 *   g10sim [--format table|json|csv] <config-file>
 *   g10sim --mix <mix-file> [--format table|json|csv]
 *   g10sim --list-designs [--format table|json|csv]
 *   g10sim --dump-trace <model> <batch> <scale> <out.trace>
 *   g10sim --help
 *
 * Observability (see README "Observability"):
 *   --trace <out.json>   Chrome trace-event timeline of the run
 *   --metrics            print a g10.metrics.v1 counter document
 *   --attribution        per-kernel stall attribution table
 *   --log-level <l>      silent|warn|info|debug
 *
 * Config files are `key = value` lines ('#' comments). Unknown keys
 * and malformed values are rejected with a file:line diagnostic and
 * exit 1. `g10sim --help` lists the keys, generated from the
 * simConfigFormat() table in src/api/sim_config.h.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/g10.h"
#include "common/spec_reader.h"
#include "graph/trace_io.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/attribution.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10sim [--format table|json|csv] <config-file>\n"
          "       g10sim --mix <mix-file> [--format ...]\n"
          "       g10sim --list-designs [--format ...]\n"
          "       g10sim --dump-trace <model> <batch> <scale> <out>\n"
          "       g10sim --help\n"
          "\n"
          "Observability (config runs and --mix):\n"
          "  --trace <out.json>  write a Chrome trace-event timeline\n"
          "                      (load at chrome://tracing / Perfetto)\n"
          "  --metrics           print a g10.metrics.v1 JSON document\n"
          "  --attribution       per-kernel stall attribution table\n"
          "                      (config runs only)\n"
          "  --attribution-diff <design>\n"
          "                      also run <design> as a baseline on\n"
          "                      the same trace and print per-kernel\n"
          "                      per-cause savings (config runs only;\n"
          "                      see also g10trace diff)\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Config file: '#' comments; 'key = value' lines. Keys:\n";
    printSpecFormat(os, simConfigFormat());
    os << "\n"
          "Unknown keys and malformed values are errors.\n"
          "For multi-tenant mix files, see g10multi --help.\n";
    return code;
}

int
dumpTrace(const std::vector<std::string>& args)
{
    if (args.size() != 4)
        fatal("usage: g10sim --dump-trace <model> <batch> <scale> "
              "<out.trace>");
    ModelKind m = modelKindFromName(args[0]);
    const SpecLoc at{"--dump-trace"};
    const long long batch = parseSpecValue(kBatchKey, at, args[1]).i;
    const long long scale = parseSpecValue(kScaleKey, at, args[2]).i;
    KernelTrace trace = buildModelScaled(m, static_cast<int>(batch),
                                         static_cast<unsigned>(scale));
    saveTraceFile(args[3], trace);
    std::cout << "wrote " << trace.numKernels() << " kernels / "
              << trace.numTensors() << " tensors to " << args[3]
              << "\n";
    return 0;
}

int
runConfig(const std::string& path, const tools::CliArgs& args)
{
    const ReportFormat format = args.format;
    const SimConfig file = parseSimConfig(path);

    KernelTrace trace;
    ModelKind model = file.model;
    int batch = 0;
    if (!file.tracePath.empty()) {
        trace = loadTraceFile(file.tracePath);
        batch = trace.batchSize();
        // Keep the config echo honest: map the trace's model back to
        // the zoo when possible (synthetic traces stay unmapped).
        model = ModelKind::ResNet152;
        if (!tryModelKindFromName(trace.modelName(), &model))
            warn("trace model '%s' is not a zoo model; the config echo "
                 "reports %s",
                 trace.modelName().c_str(), modelName(model));
    } else {
        batch = file.batchSize > 0 ? file.batchSize
                                   : paperBatchSize(model);
        trace = buildModelScaled(model, batch, file.scaleDown);
    }

    const SystemConfig& sys = file.sys;
    ExperimentConfig cfg;
    cfg.model = model;
    cfg.batchSize = batch;
    cfg.sys = sys;
    cfg.scaleDown = file.scaleDown;
    cfg.design = file.design;
    const PolicyInfo& design =
        PolicyRegistry::instance().resolve(cfg.design);
    cfg.iterations = file.iterations;
    cfg.timingErrorPct = file.timingErrorPct;
    cfg.seed = file.seed;
    cfg.weightWatermark = file.weightWatermark;
    cfg.uvmExtension = file.uvmExtension;

    // The listing prints the plan the run replays: compile it once
    // with the design's own variant and run that instance.
    DesignInstance listed;
    if (file.listing > 0 && design.g10) {
        std::shared_ptr<const CompiledPlan> plan =
            compileFamilyPlan(*design.g10, trace, sys);
        printInstrumentedProgram(std::cout, *plan->vitality, plan->plan,
                                 0, file.listing);
        std::cout << "\n";
        listed = design.instance(std::move(plan));
    }

    // Observability: --attribution and --attribution-diff need the
    // event stream even when no --trace path was given, so they force
    // event collection.
    const std::string diffBase = args.valueOf("--attribution-diff");
    tools::CliObservers obs;
    obs.wantEvents = !args.tracePath.empty() ||
                     args.has("--attribution") || !diffBase.empty();
    obs.wantCounters = args.metrics;

    RunResult result = runExperimentResultOnTrace(
        trace, cfg, obs.tracerOrNull(),
        listed.policy != nullptr ? &listed : nullptr);
    int code = printRunResult(std::cout, result, format);
    if (args.has("--attribution")) {
        StallAttribution attr =
            buildStallAttribution(obs.sink.events());
        std::cout << "\n";
        printStallAttribution(std::cout, attr);
    }
    if (!diffBase.empty()) {
        // Baseline leg: same trace, same platform, only the design
        // swapped — so every delta is attributable to the design.
        ExperimentConfig baseCfg = cfg;
        baseCfg.design =
            PolicyRegistry::instance().resolve(diffBase).name;
        tools::CliObservers baseObs;
        baseObs.wantEvents = true;
        runExperimentResultOnTrace(trace, baseCfg,
                                   baseObs.tracerOrNull());
        DiffAttribution diff = diffStallAttribution(
            buildStallAttribution(baseObs.sink.events()),
            buildStallAttribution(obs.sink.events()),
            baseCfg.design, cfg.design);
        if (format == ReportFormat::Json) {
            writeDiffAttributionJson(std::cout, diff);
        } else {
            std::cout << "\n";
            printDiffAttribution(std::cout, diff);
        }
    }
    if (!args.tracePath.empty()) {
        std::map<int, std::string> names;
        names[0] = trace.modelName() + "-" +
                   std::to_string(trace.batchSize());
        tools::writeTraceFile(args.tracePath, obs.sink, names);
    }
    if (args.metrics)
        writeMetricsJson(std::cout, obs.counters);
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {"--mix", "--dump-trace", "--attribution"},
        {"--attribution-diff"});
    if (args.help)
        return usage(std::cout, 0);
    if (!args.error.empty()) {
        std::cerr << args.error << "\n";
        return usage(std::cerr, 1);
    }

    if (args.listDesigns) {
        if (!args.flags.empty() || !args.positional.empty())
            return usage(std::cerr, 1);
        printDesignList(std::cout, args.format);
        return 0;
    }
    if (args.has("--dump-trace"))
        return dumpTrace(args.positional);
    if (args.has("--mix")) {
        if (args.positional.size() != 1 ||
            args.has("--attribution") ||
            !args.valueOf("--attribution-diff").empty())
            return usage(std::cerr, 1);
        return tools::runMixCli(parseMixFile(args.positional[0]), args,
                                "g10sim --mix");
    }
    if (args.positional.size() != 1)
        return usage(std::cerr, 1);
    return runConfig(args.positional[0], args);
}
