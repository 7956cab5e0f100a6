/**
 * @file
 * g10serve -- open-loop serving simulator: a G10-managed GPU+SSD node
 * absorbing sustained request traffic with dynamic job churn.
 *
 * Usage:
 *   g10serve <serve-file> [--format table|json|csv] [--workers N]
 *   g10serve --demo [scale]    built-in 3-design x 3-rate scenario
 *   g10serve --list-designs [--format table|json|csv]
 *   g10serve --help
 *
 * Sweeps every design over every offered arrival rate and reports
 * SLO-centric metrics per cell: queueing delay and completion-latency
 * percentiles (p50/p95/p99), SLO attainment, sustained-throughput
 * capacity, and consolidated SSD write amplification under churn.
 * Results are deterministic for a given seed regardless of --workers.
 * `--format json` emits one `g10.serve_result.v1` document.
 *
 * Overrides: --partition static|proportional|ondemand,
 * --sweep-cache on|off and --speculate on|off set the serve-file keys
 * partition_policy, sweep_cache and speculate, in that key's grammar
 * (tools::kServeOverrides).
 *
 * Observability: --trace <out.json> (Chrome trace-event timeline of
 * the sweep's first cell), --metrics (g10.metrics.v1 counters merged
 * across every cell, worker-count independent), and
 * --log-level silent|warn|info|debug.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "api/g10.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10serve <serve-file> [--format table|json|csv] "
          "[--workers N]\n"
          "                [override ...]\n"
          "       g10serve --demo [scale] [override ...]\n"
          "       g10serve --list-designs [--format ...]\n"
          "       g10serve --help\n"
          "\n"
          "Overrides (each sets the serve-file key it names):\n";
    tools::printOverrideFlags(os, serveFileFormat(),
                              tools::kServeOverrides);
    os << "\n"
          "Observability:\n"
          "  --trace <out.json>  Chrome trace-event timeline of the\n"
          "                      sweep's first (design, rate) cell\n"
          "  --metrics           print a g10.metrics.v1 document with\n"
          "                      counters merged across every cell\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Serve file: '#' comments; 'key = value' lines.\n";
    printSpecFormat(os, serveFileFormat());
    os << "  models: BERT ViT Inceptionv3 ResNet152 SENet154\n"
          "\n"
          "Arrival trace (.arr):\n";
    printSpecFormat(os, arrivalTraceFormat());
    os << "\n"
          "Example: examples/elastic.serve\n";
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {"--demo"}, {"--workers"}, tools::kServeOverrides);
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

    ServeSpec spec;
    if (args.has("--demo")) {
        spec = demoServeSpec(args.demoScale > 0 ? args.demoScale : 32);
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        spec = parseServeFile(args.positional[0]);
    }
    tools::applyOverrides(spec, serveFileFormat(), tools::kServeOverrides,
                          args);

    if (args.format == ReportFormat::Table) {
        std::cout << "# g10serve: " << spec.designs.size()
                  << " designs x ";
        if (spec.ratesAuto)
            std::cout << "auto-bisected rates";
        else
            std::cout << spec.rates.size() << " rates";
        std::cout << ", arrival "
                  << arrivalKindName(spec.arrival.kind) << ", "
                  << spec.slots << " slots ("
                  << partitionPolicyName(spec.partitionPolicy)
                  << "), admission " << admitPolicyName(spec.admit)
                  << ", scale 1/" << spec.scaleDown << "\n\n";
    }

    ServeSweep sweep(spec);
    ExperimentEngine engine(args.workers);

    MemoryTraceSink sink;
    ServeObsRequest obs;
    obs.collectCounters = args.metrics;
    obs.sink = args.tracePath.empty() ? nullptr : &sink;

    ServeSweepResult res = sweep.run(engine, obs);
    int code = printServeResult(std::cout, res, args.format);
    if (!args.tracePath.empty())
        tools::writeTraceFile(args.tracePath, sink);
    if (args.metrics)
        writeMetricsJson(std::cout, res.counters);
    return code;
}
