/** @file Unit tests for the multi-tenant workload engine. */

#include <gtest/gtest.h>

#include "engine/multi_tenant.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** A mix of @p n identical fwd+bwd jobs on a tiny shared machine. */
WorkloadMix
identicalMix(int n, const std::string& design = "baseuvm")
{
    WorkloadMix mix;
    mix.sys = test::tinySystem();
    mix.isolatedBaseline = true;
    for (int i = 0; i < n; ++i) {
        JobSpec job;
        job.design = design;
        job.iterations = 2;
        mix.jobs.push_back(job);
    }
    return mix;
}

std::vector<KernelTrace>
identicalTraces(int n, int stages = 16, Bytes bytes = 2 * MiB)
{
    std::vector<KernelTrace> traces;
    for (int i = 0; i < n; ++i)
        traces.push_back(
            test::makeFwdBwdTrace(stages, bytes, 500 * USEC));
    return traces;
}

TEST(MultiTenant, TwoIdenticalJobsGetSymmetricStats)
{
    WorkloadMix mix = identicalMix(2);
    MultiTenantSim sim(mix, identicalTraces(2));
    MixResult res = sim.run();

    ASSERT_EQ(res.jobs.size(), 2u);
    ASSERT_TRUE(res.allSucceeded());
    const JobResult& a = res.jobs[0];
    const JobResult& b = res.jobs[1];
    // Round-robin interleaving of equal jobs is symmetric: both see
    // the same measured iteration time, stall, and traffic.
    EXPECT_EQ(a.shared.measuredIterationNs,
              b.shared.measuredIterationNs);
    EXPECT_EQ(a.shared.totalStallNs, b.shared.totalStallNs);
    EXPECT_EQ(a.lifetimeTraffic.totalToGpu(),
              b.lifetimeTraffic.totalToGpu());
    EXPECT_EQ(a.lifetimeTraffic.totalFromGpu(),
              b.lifetimeTraffic.totalFromGpu());
    // Symmetric service: near-perfect fairness (the jobs' finish
    // times differ by at most one kernel slot).
    EXPECT_NEAR(res.fairness, 1.0, 0.01);
}

TEST(MultiTenant, SharingIsSlowerThanIsolatedButBounded)
{
    WorkloadMix mix = identicalMix(2);
    MultiTenantSim sim(mix, identicalTraces(2));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    for (const JobResult& j : res.jobs) {
        EXPECT_FALSE(j.isolated.failed);
        // Time-sharing one GPU between two compute-bound jobs costs
        // roughly 2x; contention can push past that, but never below
        // the isolated time.
        EXPECT_GE(j.slowdown, 1.0);
        EXPECT_LT(j.slowdown, 6.0);
    }
    EXPECT_GT(res.makespanNs, 0);
    EXPECT_GT(res.gpuUtilization, 0.0);
    EXPECT_LE(res.gpuUtilization, 1.0 + 1e-9);
}

TEST(MultiTenant, DeterministicAcrossRepeatedRuns)
{
    WorkloadMix mix = identicalMix(3);
    mix.jobs[1].arrivalNs = 2 * MSEC;
    mix.jobs[2].priority = 4;

    MultiTenantSim sim1(mix, identicalTraces(3));
    MultiTenantSim sim2(mix, identicalTraces(3));
    MixResult r1 = sim1.run();
    MixResult r2 = sim2.run();

    ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
    EXPECT_EQ(r1.makespanNs, r2.makespanNs);
    EXPECT_EQ(r1.gpuBusyNs, r2.gpuBusyNs);
    EXPECT_EQ(r1.ssd.hostWriteBytes, r2.ssd.hostWriteBytes);
    EXPECT_EQ(r1.ssd.nandWriteBytes, r2.ssd.nandWriteBytes);
    for (std::size_t i = 0; i < r1.jobs.size(); ++i) {
        EXPECT_EQ(r1.jobs[i].shared.measuredIterationNs,
                  r2.jobs[i].shared.measuredIterationNs);
        EXPECT_EQ(r1.jobs[i].lifetimeTraffic.totalToGpu(),
                  r2.jobs[i].lifetimeTraffic.totalToGpu());
        EXPECT_EQ(r1.jobs[i].finishNs, r2.jobs[i].finishNs);
    }
}

TEST(MultiTenant, SharedSsdWritesConserveAcrossJobs)
{
    // Starve host staging so evictions overflow to the shared SSD.
    WorkloadMix mix = identicalMix(2);
    mix.sys.hostMemBytes = 8 * MiB;
    MultiTenantSim sim(mix, identicalTraces(2, 32, 8 * MiB));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    Bytes perJobSsdWrites = 0;
    for (const JobResult& j : res.jobs)
        perJobSsdWrites += j.lifetimeTraffic.gpuToSsd;
    // Every byte the device absorbed came through some job's fabric
    // view: per-job accounting must exactly cover shared-device wear.
    EXPECT_GT(res.ssd.hostWriteBytes, 0u);
    EXPECT_EQ(perJobSsdWrites, res.ssd.hostWriteBytes);
    EXPECT_GE(res.ssd.waf(), 1.0);
}

TEST(MultiTenant, PrioritySchedulingFavorsHighPriorityJob)
{
    WorkloadMix mix = identicalMix(2);
    mix.sched = MixSched::Priority;
    mix.jobs[0].priority = 1;
    mix.jobs[1].priority = 8;
    MultiTenantSim sim(mix, identicalTraces(2));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    // The priority-8 job gets ~8x the kernel-interleaving share: it
    // completes well before its priority-1 peer, whose turnaround
    // absorbs the contention instead.
    EXPECT_LT(res.jobs[1].finishNs, res.jobs[0].finishNs);
    EXPECT_LT(res.jobs[1].turnaroundSlowdown,
              res.jobs[0].turnaroundSlowdown);
    // Unequal service means imperfect fairness.
    EXPECT_LT(res.fairness, 0.999);
}

TEST(MultiTenant, LateArrivalStartsLate)
{
    WorkloadMix mix = identicalMix(2);
    mix.jobs[1].arrivalNs = 50 * MSEC;
    MultiTenantSim sim(mix, identicalTraces(2));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    EXPECT_GE(res.jobs[1].finishNs, 50 * MSEC);
    EXPECT_GT(res.jobs[1].finishNs, res.jobs[0].finishNs);
}

TEST(MultiTenant, LateJoinerGetsNoCatchUpCredit)
{
    // Stride scheduling: a job joining mid-run starts at the runnable
    // set's current virtual time. With equal priorities the outcome
    // must match round-robin -- the incumbent is not starved while
    // the joiner "catches up" on time before its arrival.
    MixResult byShed[2];
    int idx = 0;
    for (MixSched sched : {MixSched::Priority, MixSched::RoundRobin}) {
        WorkloadMix mix = identicalMix(2);
        mix.sched = sched;
        mix.jobs[1].arrivalNs = 10 * MSEC;  // ~1/3 into job 0's run
        MultiTenantSim sim(mix, identicalTraces(2));
        byShed[idx++] = sim.run();
    }
    const MixResult& prio = byShed[0];
    const MixResult& rr = byShed[1];
    ASSERT_TRUE(prio.allSucceeded());
    // Both tenants share fairly from the join point on.
    EXPECT_NEAR(prio.fairness, 1.0, 0.02);
    EXPECT_NEAR(prio.jobs[0].turnaroundSlowdown,
                rr.jobs[0].turnaroundSlowdown, 0.05);
    EXPECT_NEAR(prio.jobs[1].turnaroundSlowdown,
                rr.jobs[1].turnaroundSlowdown, 0.05);
}

TEST(MultiTenant, FutureArrivalDoesNotReserveTheGpuEarly)
{
    // A high-priority job arriving after the first job's entire run
    // must not hold GPU-timeline reservations over the arrival gap:
    // job 0 runs alone at full speed and finishes before job 1 even
    // arrives.
    WorkloadMix mix = identicalMix(2);
    mix.sched = MixSched::Priority;
    mix.jobs[1].priority = 8;
    mix.jobs[1].arrivalNs = 1 * SEC;
    MultiTenantSim sim(mix, identicalTraces(2));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    EXPECT_LT(res.jobs[0].finishNs, mix.jobs[1].arrivalNs);
    // Job 0 keeps only its static memory partition (half the GPU),
    // but with the GPU timeline free of phantom reservations its
    // turnaround stays close to the isolated run -- nowhere near the
    // ~2x a blocked arrival gap would cost.
    EXPECT_NEAR(res.jobs[0].turnaroundSlowdown, 1.0, 0.10);
    EXPECT_GE(res.jobs[1].finishNs, mix.jobs[1].arrivalNs);
}

TEST(MultiTenant, FailedTenantDoesNotSinkTheOthers)
{
    // Job 1 runs FlashNeuron with a working set far beyond its memory
    // partition: it must fail while job 0 completes normally.
    WorkloadMix mix = identicalMix(2);
    mix.jobs[1].design = "flashneuron";
    std::vector<KernelTrace> traces;
    traces.push_back(test::makeFwdBwdTrace(16, 2 * MiB, 500 * USEC));
    traces.push_back(test::makeFwdBwdTrace(4, 40 * MiB, 500 * USEC));
    MultiTenantSim sim(mix, std::move(traces));
    MixResult res = sim.run();

    EXPECT_FALSE(res.jobs[0].shared.failed);
    EXPECT_TRUE(res.jobs[1].shared.failed);
    EXPECT_FALSE(res.allSucceeded());
}

TEST(MultiTenant, MemWeightSkewsThePartition)
{
    // Give job 0 three quarters of GPU memory: its oversubscribed
    // working set fits better and it should outperform job 1.
    WorkloadMix mix = identicalMix(2);
    mix.isolatedBaseline = false;
    mix.jobs[0].memWeight = 3.0;
    mix.jobs[1].memWeight = 1.0;
    MultiTenantSim sim(mix, identicalTraces(2, 24, 4 * MiB));
    MixResult res = sim.run();

    ASSERT_TRUE(res.allSucceeded());
    EXPECT_LE(res.jobs[0].shared.measuredIterationNs,
              res.jobs[1].shared.measuredIterationNs);
}

TEST(MultiTenantGolden, WeightedSplitIsBitIdenticalThroughTheManager)
{
    // Golden pin for the PartitionManager refactor: these exact
    // values were captured from the slot-bitmap manager before leases
    // became byte-accounted/resizable. Any change to the weighted-
    // split arithmetic (partitionShare) shows up here as a diff.
    WorkloadMix mix;
    mix.scaleDown = 64;
    mix.seed = 42;
    mix.isolatedBaseline = false;
    JobSpec a;
    a.model = ModelKind::ResNet152;
    a.batchSize = 512;
    a.design = "g10";
    a.memWeight = 3.0;
    JobSpec b;
    b.model = ModelKind::ResNet152;
    b.batchSize = 256;
    b.design = "baseuvm";
    b.memWeight = 1.0;
    JobSpec c;
    c.model = ModelKind::BertBase;
    c.design = "deepum";
    c.memWeight = 2.0;
    c.arrivalNs = 5 * MSEC;
    mix.jobs = {a, b, c};

    MixResult r = MultiTenantSim(mix).run();
    ASSERT_TRUE(r.allSucceeded());

    EXPECT_EQ(r.jobs[0].shared.measuredIterationNs, 1640126760);
    EXPECT_EQ(r.jobs[0].finishNs, 4273828996);
    EXPECT_EQ(r.jobs[0].shared.totalStallNs, 969417304);
    EXPECT_EQ(r.jobs[0].shared.pageFaultBatches, 78u);

    EXPECT_EQ(r.jobs[1].shared.measuredIterationNs, 1639461779);
    EXPECT_EQ(r.jobs[1].finishNs, 4280998319);
    EXPECT_EQ(r.jobs[1].shared.totalStallNs, 1300752307);
    EXPECT_EQ(r.jobs[1].shared.pageFaultBatches, 2443u);

    EXPECT_EQ(r.jobs[2].shared.measuredIterationNs, 1237278686);
    EXPECT_EQ(r.jobs[2].finishNs, 2685569490);
    EXPECT_EQ(r.jobs[2].shared.totalStallNs, 1161089015);
    EXPECT_EQ(r.jobs[2].shared.pageFaultBatches, 0u);

    EXPECT_EQ(r.makespanNs, 4280998319);
    EXPECT_EQ(r.gpuBusyNs, 2137597198);
    EXPECT_EQ(r.ssd.nandWriteBytes, 3586260992u);
    EXPECT_EQ(r.ssd.hostWriteBytes, 3572817920u);
}

}  // namespace
}  // namespace g10
