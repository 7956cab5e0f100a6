/**
 * @file
 * g10multi -- multi-tenant workload runner: N DNN training jobs
 * sharing one simulated GPU + host DRAM + SSD.
 *
 * Usage:
 *   g10multi <mix-file> [--format table|json|csv]
 *   g10multi --demo [scale]    ResNet152 + BERT consolidation demo
 *   g10multi --list-designs [--format table|json|csv]
 *   g10multi --help
 *
 * Observability: --trace <out.json> (Chrome trace-event timeline, one
 * track group per job), --metrics (g10.metrics.v1 document), and
 * --log-level silent|warn|info|debug.
 *
 * Prints per-job iteration time, slowdown vs. running alone on the
 * full machine, ANTT-style turnaround slowdown, and the shared SSD's
 * write amplification under consolidation. `--format json` emits one
 * machine-readable document instead of tables.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10multi <mix-file> [--format table|json|csv]\n"
          "       g10multi --demo [scale]\n"
          "       g10multi --list-designs [--format ...]\n"
          "       g10multi --help\n"
          "\n"
          "Observability:\n"
          "  --trace <out.json>  write a Chrome trace-event timeline\n"
          "  --metrics           print a g10.metrics.v1 JSON document\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Mix file: '#' comments; 'key = value' lines.\n";
    printSpecFormat(os, mixFileFormat());
    os << "  models : BERT ViT Inceptionv3 ResNet152 SENet154\n"
          "  designs: any registered name; run\n"
          "           'g10multi --list-designs' for the list\n"
          "\n"
          "Example: examples/demo.mix\n";
    return code;
}

WorkloadMix
demoMix(unsigned scale)
{
    WorkloadMix mix;
    mix.scaleDown = scale;
    JobSpec resnet;
    resnet.model = ModelKind::ResNet152;
    resnet.name = "resnet152";
    JobSpec bert;
    bert.model = ModelKind::BertBase;
    bert.name = "bert";
    mix.jobs = {resnet, bert};
    return mix;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(argc, argv, {"--demo"});
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

    WorkloadMix mix;
    if (args.has("--demo")) {
        mix = demoMix(args.demoScale > 0 ? args.demoScale : 16);
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        mix = parseMixFile(args.positional[0]);
    }
    return tools::runMixCli(mix, args, "g10multi");
}
