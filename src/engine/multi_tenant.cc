#include "multi_tenant.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/partition.h"
#include "policies/registry.h"

namespace g10 {

bool
MixResult::allSucceeded() const
{
    for (const JobResult& j : jobs)
        if (j.shared.failed)
            return false;
    return true;
}

MultiTenantSim::MultiTenantSim(const WorkloadMix& mix)
    : mix_(mix), scaledSys_(mix.sys.scaledDown(mix.scaleDown))
{
    if (mix_.jobs.empty())
        fatal("MultiTenantSim: mix has no jobs");
    traces_.reserve(mix_.jobs.size());
    for (JobSpec& spec : mix_.jobs) {
        if (spec.batchSize <= 0)
            spec.batchSize = paperBatchSize(spec.model);
        traces_.push_back(buildModelScaled(spec.model, spec.batchSize,
                                           mix_.scaleDown));
    }
}

MultiTenantSim::MultiTenantSim(const WorkloadMix& mix,
                               std::vector<KernelTrace> traces)
    : mix_(mix), traces_(std::move(traces)), scaledSys_(mix.sys)
{
    if (mix_.jobs.empty())
        fatal("MultiTenantSim: mix has no jobs");
    if (traces_.size() != mix_.jobs.size())
        fatal("MultiTenantSim: %zu traces for %zu jobs",
              traces_.size(), mix_.jobs.size());
}

namespace {

/** Scheduling weight of job @p spec (1 outside priority mode). */
std::int64_t
schedWeight(const JobSpec& spec, MixSched sched)
{
    if (sched != MixSched::Priority)
        return 1;
    return std::clamp<std::int64_t>(spec.priority, 1, 1000);
}

}  // namespace

int
MultiTenantSim::pickNext(
    const std::vector<std::unique_ptr<SimRuntime>>& rts,
    const std::vector<bool>& live)
{
    // Step the live job that is furthest behind in virtual time.
    // Round-robin: virtual time is the job's stream clock. Priority:
    // stride scheduling -- virtual time advances at 1/weight of the
    // job's clock, so a priority-p job receives ~p times the
    // interleaving share. Deterministic: ties break toward the lower
    // job index.
    //
    // A job has not arrived until every other tenant's clock reaches
    // its arrival time; stepping it earlier would let it reserve the
    // shared GPU/fabric timelines in the future and stall kernels that
    // are ready now (the GPU would sit modeled-idle over the arrival
    // gap). The job attaining the minimum clock always satisfies
    // arrival <= minNow, so the eligible set is never empty.
    TimeNs minNow = 0;
    bool haveMin = false;
    for (std::size_t i = 0; i < rts.size(); ++i) {
        if (!live[i])
            continue;
        if (!haveMin || rts[i]->now() < minNow) {
            minNow = rts[i]->now();
            haveMin = true;
        }
    }

    // Priority mode: admit newly arrived jobs into the stride queue.
    // A joiner's virtual time is seeded to the runnable set's current
    // minimum (CFS-style): it competes from here on at its weighted
    // share but gets no catch-up credit for the time before it
    // arrived -- otherwise a late joiner would monopolize the GPU and
    // starve incumbents until it "caught up".
    if (mix_.sched == MixSched::Priority) {
        for (std::size_t i = 0; i < rts.size(); ++i) {
            if (!live[i] || joined_[i] ||
                mix_.jobs[i].arrivalNs > minNow)
                continue;
            TimeNs min_num = 0;
            std::int64_t min_w = 1;
            bool found = false;
            for (std::size_t j = 0; j < rts.size(); ++j) {
                if (!live[j] || !joined_[j])
                    continue;
                TimeNs num = rts[j]->now() - vtBase_[j];
                std::int64_t w = schedWeight(mix_.jobs[j], mix_.sched);
                if (!found || num * min_w < min_num * w) {
                    min_num = num;
                    min_w = w;
                    found = true;
                }
            }
            std::int64_t wi = schedWeight(mix_.jobs[i], mix_.sched);
            vtBase_[i] = found
                ? rts[i]->now() - (min_num * wi) / min_w
                : rts[i]->now();
            joined_[i] = true;
        }
    }

    int best = -1;
    TimeNs best_num = 0;
    std::int64_t best_w = 1;
    for (std::size_t i = 0; i < rts.size(); ++i) {
        if (!live[i])
            continue;
        if (mix_.jobs[i].arrivalNs > minNow)
            continue;  // not yet arrived relative to the mix's progress
        std::int64_t w = 1;
        TimeNs num = rts[i]->now();
        if (mix_.sched == MixSched::Priority) {
            w = schedWeight(mix_.jobs[i], mix_.sched);
            num = rts[i]->now() - vtBase_[i];
        }
        // Compare num/w < best_num/best_w without division.
        if (best < 0 || num * best_w < best_num * w) {
            best = static_cast<int>(i);
            best_num = num;
            best_w = w;
        }
    }
    return best;
}

MixResult
MultiTenantSim::run()
{
    const std::size_t n = mix_.jobs.size();

    // Partition GPU and host memory by the jobs' memory weights; the
    // SSD and PCIe fabric stay fully shared (that is the experiment).
    // Every tenant keeps its share for the whole run (this engine has
    // no churn or resizing, so there are no leases to manage; the
    // serving engine leases/reclaims).
    double wsum = 0.0;
    for (const JobSpec& s : mix_.jobs)
        wsum += (s.memWeight > 0.0 ? s.memWeight : 1.0);

    SsdDevice sharedSsd(scaledSys_);
    FabricChannels channels;
    GpuComputeTimeline gpuTimeline;
    SharedResources shared;
    shared.ssd = &sharedSsd;
    shared.channels = &channels;
    shared.gpu = &gpuTimeline;

    std::vector<DesignInstance> designs;
    std::vector<std::unique_ptr<SimRuntime>> rts;
    designs.reserve(n);
    rts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const JobSpec& spec = mix_.jobs[i];
        double w = (spec.memWeight > 0.0 ? spec.memWeight : 1.0) / wsum;
        const SystemConfig jobSys = partitionShare(scaledSys_, w);

        designs.push_back(PolicyRegistry::instance().make(
            spec.design, traces_[i], jobSys));

        RunConfig rc;
        rc.sys = jobSys;
        rc.iterations = spec.iterations;
        rc.uvmExtension = designs.back().uvmExtension;
        rc.seed = mix_.seed + i;
        rc.startNs = spec.arrivalNs;
        rts.push_back(std::make_unique<SimRuntime>(
            traces_[i], *designs.back().policy, rc, shared));
        if (tracer_)
            rts.back()->setTracer(tracer_, static_cast<int>(i));
    }

    for (auto& rt : rts)
        rt->start();

    vtBase_.assign(n, 0);
    joined_.assign(n, false);
    std::vector<bool> live(n, true);
    std::size_t liveCount = n;
    while (liveCount > 0) {
        int i = pickNext(rts, live);
        if (i < 0)
            panic("multi-tenant scheduler found no live job");
        if (!rts[static_cast<std::size_t>(i)]->stepKernel()) {
            live[static_cast<std::size_t>(i)] = false;
            --liveCount;
        }
    }

    MixResult out;
    out.jobs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        JobResult& jr = out.jobs[i];
        jr.spec = mix_.jobs[i];
        jr.name = mix_.jobs[i].name;
        if (jr.name.empty()) {
            jr.name = traces_[i].modelName() + "-" +
                      std::to_string(traces_[i].batchSize()) + "#" +
                      std::to_string(i);
        }
        jr.shared = rts[i]->finalize();
        jr.lifetimeTraffic = rts[i]->fabric().traffic();
        jr.finishNs = rts[i]->now();
        out.makespanNs = std::max(out.makespanNs, jr.finishNs);
        if (!jr.shared.failed)
            out.aggregateThroughput += jr.shared.throughput();
    }
    out.gpuBusyNs = gpuTimeline.busyNs;
    if (out.makespanNs > 0)
        out.gpuUtilization = static_cast<double>(out.gpuBusyNs) /
                             static_cast<double>(out.makespanNs);
    out.ssd = sharedSsd.stats();

    // Per-job isolated baselines: the same job alone on the whole
    // machine (full memory, private fabric/SSD, exclusive GPU).
    std::vector<double> speeds;
    for (std::size_t i = 0; i < n; ++i) {
        JobResult& jr = out.jobs[i];
        if (mix_.isolatedBaseline) {
            DesignInstance design = PolicyRegistry::instance().make(
                mix_.jobs[i].design, traces_[i], scaledSys_);
            RunConfig rc;
            rc.sys = scaledSys_;
            rc.iterations = mix_.jobs[i].iterations;
            rc.uvmExtension = design.uvmExtension;
            rc.seed = mix_.seed + i;
            SimRuntime iso(traces_[i], *design.policy, rc);
            jr.isolated = iso.run();
            jr.isolatedRunNs = iso.now();
            if (!jr.shared.failed && !jr.isolated.failed &&
                jr.isolated.measuredIterationNs > 0) {
                jr.slowdown =
                    static_cast<double>(jr.shared.measuredIterationNs) /
                    static_cast<double>(jr.isolated.measuredIterationNs);
                if (jr.isolatedRunNs > 0) {
                    jr.turnaroundSlowdown =
                        static_cast<double>(jr.finishNs -
                                            jr.spec.arrivalNs) /
                        static_cast<double>(jr.isolatedRunNs);
                    speeds.push_back(1.0 / jr.turnaroundSlowdown);
                }
            }
        } else if (!jr.shared.failed) {
            speeds.push_back(jr.shared.normalizedPerf());
        }
    }
    if (!speeds.empty()) {
        double s = 0.0, s2 = 0.0;
        for (double x : speeds) {
            s += x;
            s2 += x * x;
        }
        out.fairness =
            (s * s) / (static_cast<double>(speeds.size()) * s2);
    }
    return out;
}

}  // namespace g10
