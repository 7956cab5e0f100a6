/**
 * @file
 * Multi-tenant quickstart: consolidate two training jobs onto one
 * simulated GPU + SSD and inspect what sharing costs each of them.
 *
 * Usage: multi_tenant_demo [scale_down]
 *   scale_down  divide batch + capacities by this (default 16)
 *
 * Equivalent CLI: `g10multi --demo [scale]`, or write a mix file (see
 * examples/demo.mix) and run `g10multi <mix-file>`.
 */

#include <cstdlib>
#include <iostream>

#include "api/g10.h"

int
main(int argc, char** argv)
{
    using namespace g10;

    unsigned scale = 16;
    if (argc > 1) {
        int v = std::atoi(argv[1]);
        if (v >= 1)
            scale = static_cast<unsigned>(v);
    }

    WorkloadMix mix;
    mix.scaleDown = scale;
    mix.sched = MixSched::RoundRobin;

    JobSpec resnet;
    resnet.model = ModelKind::ResNet152;
    resnet.name = "resnet152";

    JobSpec bert;
    bert.model = ModelKind::BertBase;
    bert.name = "bert";

    mix.jobs = {resnet, bert};

    std::cout << "Consolidating " << mix.jobs.size()
              << " jobs onto one GPU+SSD (scale 1/" << scale
              << ", " << mixSchedName(mix.sched) << ")...\n\n";

    MultiTenantSim sim(mix);
    MixResult res = sim.run();
    printMixResult(std::cout, res, ReportFormat::Table);

    std::cout << "\nReading the numbers: 'slowdown' compares each "
                 "job's steady-state iteration against running alone "
                 "on the whole machine; 'turnaround' additionally "
                 "counts time spent waiting for GPU share. The SSD "
                 "rows show the consolidated device's write "
                 "amplification -- tenant churn compounds on one "
                 "flash log.\n";
    return res.allSucceeded() ? 0 : 1;
}
