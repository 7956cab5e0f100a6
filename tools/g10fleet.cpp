/**
 * @file
 * g10fleet -- fleet-scale serving: a router over N heterogeneous
 * GPU+SSD nodes, comparing placement policies on one arrival stream.
 *
 * Usage:
 *   g10fleet <fleet-file> [--format table|json|csv] [--workers N]
 *   g10fleet --demo [scale]    built-in heterogeneous 4-node fleet
 *   g10fleet --list-designs [--format table|json|csv]
 *   g10fleet --help
 *
 * Every node is a complete serving scenario (its own GPU/DRAM/SSD
 * platform, partition slots, and admission queue); the fleet spec
 * adds one shared seeded request stream and a sweep over placement
 * policies: join-shortest-queue, plan-aware placement by compiled
 * working-set footprint, and class-affinity routing that pins model
 * families to nodes for warm plan-cache hits. Reports fleet SLO
 * attainment, per-node utilization spread (min/max/Jain), capacity
 * per node, and consolidated write amplification. Results are
 * deterministic for a given seed regardless of --workers.
 * `--format json` emits one `g10.fleet_result.v1` document.
 *
 * Observability: --trace <out.json> (a streaming Chrome trace-event
 * timeline of the first placement policy, one process group per node),
 * --metrics (g10.metrics.v1 counters merged across every cell), and
 * --log-level silent|warn|info|debug.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "common/parse_util.h"
#include "obs/file_trace_sink.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10fleet <fleet-file> [--format table|json|csv] "
          "[--workers N]\n"
          "                [--placement jsq|planaware|affinity]\n"
          "                [--speculate on|off]\n"
          "       g10fleet --demo [scale] [--placement ...]\n"
          "       g10fleet --list-designs [--format ...]\n"
          "       g10fleet --help\n"
          "\n"
          "--placement restricts the sweep to one placement policy\n"
          "(the fleet file's `placements` list is the default sweep).\n"
          "\n"
          "--speculate on|off overrides the scenario's speculate:\n"
          "speculative parallel knee probes (rate = auto; on by\n"
          "default). Pure wall-clock; byte-identical either way.\n"
          "\n"
          "Observability:\n"
          "  --trace <out.json>  streaming Chrome trace-event timeline\n"
          "                      of the first placement policy, one\n"
          "                      process group per node\n"
          "  --metrics           print a g10.metrics.v1 document with\n"
          "                      counters merged across every cell\n"
          "  --forensics         per-node queue/occupancy series and\n"
          "                      an SLO-breach table attributing each\n"
          "                      miss to queue vs. stall vs. resize\n"
          "                      (first placement policy; see g10trace\n"
          "                      forensics for saved traces)\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Fleet file: '#' comments; 'key = value' lines.\n";
    printSpecFormat(os, fleetFileFormat());
    os << "  models: BERT ViT Inceptionv3 ResNet152 SENet154\n"
          "\n"
          "Example: examples/fleet.serve\n";
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    // --workers and --placement are options with a value; peel them
    // off before the shared parser sees the remaining flags.
    unsigned workers = 0;  // 0 = one per hardware thread
    bool have_placement = false;
    PlacementKind placement = PlacementKind::JoinShortestQueue;
    bool have_speculate = false;
    bool speculate = true;
    std::vector<char*> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--workers") {
            if (i + 1 >= argc)
                fatal("--workers needs a value");
            long long v = 0;
            if (!parseIntStrict(argv[++i], &v) || v < 1)
                fatal("--workers must be a positive integer, got '%s'",
                      argv[i]);
            workers = static_cast<unsigned>(v);
        } else if (std::string(argv[i]) == "--placement") {
            if (i + 1 >= argc)
                fatal("--placement needs a value (jsq | planaware | "
                      "affinity)");
            if (!placementKindFromName(argv[++i], &placement))
                fatal("unknown --placement '%s' (jsq | planaware | "
                      "affinity)",
                      argv[i]);
            have_placement = true;
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
        } else {
            rest.push_back(argv[i]);
        }
    }

    tools::CliArgs args = tools::parseCliArgs(
        static_cast<int>(rest.size()), rest.data(),
        {"--demo", "--forensics"});
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

    FleetSpec spec;
    if (args.has("--demo")) {
        if (args.positional.size() > 1)
            return usage(std::cerr, 1);
        unsigned scale = 64;
        if (args.positional.size() == 1) {
            long long v = 0;
            if (!parseIntStrict(args.positional[0], &v) || v < 1)
                fatal("--demo scale must be a positive integer, got "
                      "'%s'",
                      args.positional[0].c_str());
            scale = static_cast<unsigned>(v);
        }
        spec = demoFleetSpec(scale);
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        spec = parseFleetFile(args.positional[0]);
    }

    if (have_placement)
        spec.placements = {placement};
    if (have_speculate)
        spec.speculativeProbes = speculate;

    if (args.format == ReportFormat::Table) {
        std::cout << "# g10fleet: " << spec.nodes.size() << " nodes x "
                  << spec.placements.size() << " placements, "
                  << spec.requests << " requests at ";
        if (spec.ratesAuto)
            std::cout << "auto-bisected rate";
        else
            std::cout << spec.rate << " req/s";
        std::cout << " (" << arrivalKindName(spec.arrival.kind)
                  << "), design " << spec.design << ", scale 1/"
                  << spec.scaleDown << "\n\n";
    }

    FleetSim fleet(spec);
    ExperimentEngine engine(workers);

    // --trace streams straight to disk (FileTraceSink): a fleet sweep
    // can emit far more events than one serving cell.
    std::unique_ptr<FileTraceSink> traceSink;
    if (!args.tracePath.empty()) {
        traceSink = std::make_unique<FileTraceSink>(args.tracePath);
        // Request pids are node * stride + node-local index; label
        // each process row "<node>/req<global stream index>".
        RoutedStream routedFirst = fleet.routed(spec.placements[0]);
        for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
            const auto& globals = routedFirst.perNodeGlobal[n];
            for (std::size_t j = 0; j < globals.size(); ++j)
                traceSink->setProcessName(
                    static_cast<int>(n) * kFleetPidStride +
                        static_cast<int>(j),
                    spec.nodes[n].name + "/req" +
                        std::to_string(globals[j]));
        }
    }

    // --forensics needs the event stream in memory; with --trace too,
    // a tee feeds both the file and the analyzer from one pass.
    MemoryTraceSink memSink;
    TeeTraceSink teeSink(traceSink.get(),
                         args.has("--forensics") ? &memSink : nullptr);

    FleetObsRequest obs;
    obs.collectCounters = args.metrics;
    obs.sink = (traceSink || args.has("--forensics")) ? &teeSink
                                                      : nullptr;

    FleetResult res = fleet.run(engine, obs);
    int code = printFleetResult(std::cout, res, args.format);
    if (traceSink) {
        traceSink->finish();
        inform("wrote %llu trace events to %s",
               static_cast<unsigned long long>(
                   traceSink->eventsWritten()),
               traceSink->path().c_str());
    }
    if (args.has("--forensics")) {
        FleetForensics forensics = analyzeFleetForensics(
            memSink.events(), kFleetPidStride);
        if (args.format == ReportFormat::Json) {
            writeFleetForensicsJson(std::cout, forensics);
        } else {
            std::cout << "\n";
            printFleetForensics(std::cout, forensics);
        }
    }
    if (args.metrics) {
        if (traceSink)
            res.counters.add("trace.dropped_events",
                             traceSink->droppedEvents());
        writeMetricsJson(std::cout, res.counters);
    }
    return code;
}
