/**
 * @file
 * Consolidation study: what happens when N training jobs share one
 * GPU + host DRAM + SSD instead of each getting a machine?
 *
 * Sweeps the tenant count for a homogeneous ResNet152 mix and runs a
 * heterogeneous ResNet152+BERT mix under both schedulers, reporting
 * aggregate throughput, per-job slowdown, Jain fairness, GPU
 * utilization, and -- the part a per-job simulator cannot see -- the
 * shared SSD's write amplification under consolidated churn (§7.7).
 * All mixes run concurrently through the ExperimentEngine pool.
 */

#include "bench_util.h"

int
main()
{
    using namespace g10;
    using namespace g10::bench;

    unsigned scale = scaleFromEnv(32);
    banner("multi-tenant consolidation (shared GPU+DRAM+SSD)", scale);

    std::vector<WorkloadMix> mixes;
    std::vector<std::string> labels;

    // Homogeneous consolidation: 1, 2, 4 copies of ResNet152.
    for (int n : {1, 2, 4}) {
        WorkloadMix mix;
        mix.scaleDown = scale;
        for (int i = 0; i < n; ++i) {
            JobSpec job;
            job.model = ModelKind::ResNet152;
            mix.jobs.push_back(job);
        }
        mixes.push_back(mix);
        labels.push_back("resnet152 x" + std::to_string(n));
    }

    // Heterogeneous mix under both schedulers (BERT gets priority 4).
    for (MixSched sched : {MixSched::RoundRobin, MixSched::Priority}) {
        WorkloadMix mix;
        mix.scaleDown = scale;
        mix.sched = sched;
        JobSpec resnet;
        resnet.model = ModelKind::ResNet152;
        JobSpec bert;
        bert.model = ModelKind::BertBase;
        bert.priority = 4;
        mix.jobs = {resnet, bert};
        mixes.push_back(mix);
        labels.push_back(std::string("resnet152+bert ") +
                         mixSchedName(sched));
    }

    ExperimentEngine engine;
    std::vector<MixResult> results = engine.runMixes(mixes);

    Table table("consolidation vs. isolated execution");
    table.setHeader({"mix", "jobs", "ok", "agg_sps", "mean_slowdown",
                     "max_slowdown", "fairness", "gpu_util",
                     "ssd_waf", "ssd_nand_GB"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const MixResult& r = results[i];
        double mean_sd = 0.0, max_sd = 0.0;
        int measured = 0;
        int ok = 0;
        for (const JobResult& j : r.jobs) {
            if (!j.shared.failed)
                ++ok;  // a failed job hit its memory partition's OOM
            if (j.slowdown <= 0)
                continue;
            mean_sd += j.slowdown;
            max_sd = std::max(max_sd, j.slowdown);
            ++measured;
        }
        if (measured > 0)
            mean_sd /= measured;
        table.addRowOf(labels[i].c_str(),
                       static_cast<int>(r.jobs.size()), ok,
                       r.aggregateThroughput, mean_sd, max_sd,
                       r.fairness, r.gpuUtilization, r.ssd.waf(),
                       static_cast<double>(r.ssd.nandWriteBytes) / 1e9);
    }
    table.print(std::cout);

    std::cout << "\n";
    printMixResult(std::cout, results.back(), ReportFormat::Table);
    return 0;
}
