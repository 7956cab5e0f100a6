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
 * Observability: --trace <out.json> (Chrome trace-event timeline of
 * the sweep's first cell), --metrics (g10.metrics.v1 counters merged
 * across every cell, worker-count independent), and
 * --log-level silent|warn|info|debug.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "common/parse_util.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10serve <serve-file> [--format table|json|csv] "
          "[--workers N]\n"
          "                [--partition static|proportional|ondemand]\n"
          "                [--sweep-cache on|off] [--speculate on|off]\n"
          "       g10serve --demo [scale] [--partition ...]\n"
          "       g10serve --list-designs [--format ...]\n"
          "       g10serve --help\n"
          "\n"
          "--partition overrides the scenario's partition_policy\n"
          "(elastic capacity: proportional equal-share of the active\n"
          "jobs, or ondemand split/merge with hysteresis).\n"
          "\n"
          "--sweep-cache on|off overrides the scenario's sweep_cache:\n"
          "the cross-probe plan-compile cache (on by default). Pure\n"
          "wall-clock; results are bit-identical either way.\n"
          "\n"
          "--speculate on|off overrides the scenario's speculate:\n"
          "speculative parallel knee probes on idle pool workers\n"
          "(rates = auto; on by default). Pure wall-clock; the\n"
          "decided search path is byte-identical either way.\n"
          "\n"
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

    // --workers, --partition and --sweep-cache are options with a
    // value; peel them off before the shared parser sees the
    // remaining flags.
    unsigned workers = 0;  // 0 = one per hardware thread
    bool have_partition = false;
    PartitionPolicy partition = PartitionPolicy::Static;
    bool have_sweep_cache = false;
    bool sweep_cache = true;
    bool have_speculate = false;
    bool speculate = true;
    std::vector<char*> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--sweep-cache") {
            if (i + 1 >= argc)
                fatal("--sweep-cache needs a value (on | off)");
            std::string v = argv[++i];
            if (v == "on")
                sweep_cache = true;
            else if (v == "off")
                sweep_cache = false;
            else
                fatal("unknown --sweep-cache '%s' (on | off)",
                      v.c_str());
            have_sweep_cache = true;
        } else if (std::string(argv[i]) == "--speculate") {
            if (i + 1 >= argc)
                fatal("--speculate needs a value (on | off)");
            std::string v = argv[++i];
            if (v == "on")
                speculate = true;
            else if (v == "off")
                speculate = false;
            else
                fatal("unknown --speculate '%s' (on | off)",
                      v.c_str());
            have_speculate = true;
        } else if (std::string(argv[i]) == "--workers") {
            if (i + 1 >= argc)
                fatal("--workers needs a value");
            long long v = 0;
            if (!parseIntStrict(argv[++i], &v) || v < 1)
                fatal("--workers must be a positive integer, got '%s'",
                      argv[i]);
            workers = static_cast<unsigned>(v);
        } else if (std::string(argv[i]) == "--partition") {
            if (i + 1 >= argc)
                fatal("--partition needs a value (static | "
                      "proportional | ondemand)");
            if (!partitionPolicyFromName(argv[++i], &partition))
                fatal("unknown --partition '%s' (static | "
                      "proportional | ondemand)",
                      argv[i]);
            have_partition = true;
        } else {
            rest.push_back(argv[i]);
        }
    }

    tools::CliArgs args = tools::parseCliArgs(
        static_cast<int>(rest.size()), rest.data(), {"--demo"});
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
        if (args.positional.size() > 1)
            return usage(std::cerr, 1);
        unsigned scale = 32;
        if (args.positional.size() == 1) {
            long long v = 0;
            if (!parseIntStrict(args.positional[0], &v) || v < 1)
                fatal("--demo scale must be a positive integer, got "
                      "'%s'",
                      args.positional[0].c_str());
            scale = static_cast<unsigned>(v);
        }
        spec = demoServeSpec(scale);
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        spec = parseServeFile(args.positional[0]);
    }

    if (have_partition)
        spec.partitionPolicy = partition;
    if (have_sweep_cache)
        spec.sweepPlanCache = sweep_cache;
    if (have_speculate)
        spec.speculativeProbes = speculate;

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
    ExperimentEngine engine(workers);

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
