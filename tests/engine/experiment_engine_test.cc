/** @file Unit tests for the thread-pooled experiment engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "engine/experiment_engine.h"
#include "policies/registry.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** Run every config of @p grid against @p trace on @p engine's pool;
 *  results in input order. */
std::vector<ExecStats>
runOnPool(ExperimentEngine& engine, const KernelTrace& trace,
          const std::vector<ExperimentConfig>& grid)
{
    std::vector<ExecStats> results(grid.size());
    engine.parallelFor(grid.size(), [&](std::size_t i) {
        results[i] = runExperimentOnTrace(trace, grid[i]);
    });
    return results;
}

/** Instantiate every design of @p designs on @p engine's pool (the
 *  G10-family entries each run their compile pipeline). */
std::vector<DesignInstance>
compileDesigns(ExperimentEngine& engine, const KernelTrace& trace,
               const SystemConfig& sys,
               const std::vector<std::string>& designs)
{
    std::vector<DesignInstance> out(designs.size());
    engine.parallelFor(designs.size(), [&](std::size_t i) {
        out[i] = PolicyRegistry::instance().make(designs[i], trace, sys);
    });
    return out;
}

/** A small grid over designs x batch-ish trace sizes. */
std::vector<ExperimentConfig>
smallGrid()
{
    std::vector<ExperimentConfig> grid;
    std::uint64_t seed = 1000;
    for (const std::string& d :
         {"ideal", "baseuvm", "deepum", "g10"}) {
        ExperimentConfig cfg;
        cfg.sys = test::tinySystem();
        cfg.scaleDown = 1;
        cfg.design = d;
        cfg.seed = seed++;
        grid.push_back(cfg);
    }
    return grid;
}

TEST(ExperimentEngine, ParallelForCoversEveryIndexOnce)
{
    ExperimentEngine engine(4);
    EXPECT_EQ(engine.workers(), 4u);

    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits)
        h.store(0);
    engine.parallelFor(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExperimentEngine, ZeroTasksIsANoop)
{
    ExperimentEngine engine(2);
    engine.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ExperimentEngine, GridIsBitIdenticalAcrossPoolSizes)
{
    KernelTrace trace = test::makeFwdBwdTrace(24, 6 * MiB, 500 * USEC);
    std::vector<ExperimentConfig> grid = smallGrid();

    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    std::vector<ExecStats> s = runOnPool(serial, trace, grid);
    std::vector<ExecStats> p = runOnPool(pooled, trace, grid);

    ASSERT_EQ(s.size(), grid.size());
    ASSERT_EQ(p.size(), grid.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        // Results come back in input order...
        EXPECT_EQ(s[i].policyName, p[i].policyName) << i;
        // ...and are bit-identical regardless of worker count.
        EXPECT_EQ(s[i].failed, p[i].failed) << i;
        EXPECT_EQ(s[i].measuredIterationNs, p[i].measuredIterationNs)
            << i;
        EXPECT_EQ(s[i].totalStallNs, p[i].totalStallNs) << i;
        EXPECT_EQ(s[i].pageFaultBatches, p[i].pageFaultBatches) << i;
        EXPECT_EQ(s[i].traffic.totalToGpu(), p[i].traffic.totalToGpu())
            << i;
        EXPECT_EQ(s[i].ssd.nandWriteBytes, p[i].ssd.nandWriteBytes)
            << i;
    }
}

TEST(ExperimentEngine, PooledGridMatchesDirectCalls)
{
    KernelTrace trace = test::makeFwdBwdTrace(24, 6 * MiB, 500 * USEC);
    std::vector<ExperimentConfig> grid = smallGrid();

    ExperimentEngine pooled(3);
    std::vector<ExecStats> p = runOnPool(pooled, trace, grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ExecStats direct = runExperimentOnTrace(trace, grid[i]);
        EXPECT_EQ(direct.measuredIterationNs, p[i].measuredIterationNs)
            << i;
        EXPECT_EQ(direct.traffic.totalFromGpu(),
                  p[i].traffic.totalFromGpu())
            << i;
    }
}

TEST(ExperimentEngine, MixGridIsDeterministicAcrossPoolSizes)
{
    // Two small real-model mixes through the pool: same stats no
    // matter how many workers ran them.
    WorkloadMix mix;
    mix.scaleDown = 64;
    mix.sched = MixSched::RoundRobin;
    mix.isolatedBaseline = false;
    JobSpec a;
    a.model = ModelKind::ResNet152;
    a.iterations = 1;
    JobSpec b;
    b.model = ModelKind::BertBase;
    b.iterations = 1;
    mix.jobs = {a, b};
    std::vector<WorkloadMix> mixes = {mix, mix};

    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    std::vector<MixResult> s = serial.runMixes(mixes);
    std::vector<MixResult> p = pooled.runMixes(mixes);

    ASSERT_EQ(s.size(), 2u);
    ASSERT_EQ(p.size(), 2u);
    for (std::size_t m = 0; m < s.size(); ++m) {
        EXPECT_EQ(s[m].makespanNs, p[m].makespanNs) << m;
        EXPECT_EQ(s[m].gpuBusyNs, p[m].gpuBusyNs) << m;
        EXPECT_EQ(s[m].ssd.hostWriteBytes, p[m].ssd.hostWriteBytes)
            << m;
        ASSERT_EQ(s[m].jobs.size(), p[m].jobs.size());
        for (std::size_t j = 0; j < s[m].jobs.size(); ++j) {
            EXPECT_EQ(s[m].jobs[j].shared.measuredIterationNs,
                      p[m].jobs[j].shared.measuredIterationNs)
                << m << ":" << j;
        }
    }
    // Identical mixes in one grid produce identical results.
    EXPECT_EQ(s[0].makespanNs, s[1].makespanNs);
}

TEST(ExperimentEngine, ParallelDesignCompileIsDeterministic)
{
    // compileG10Plan is independent per design and plans are read-only
    // after build: compiling a design set through pools of different
    // sizes must produce plans whose replays are bit-identical.
    KernelTrace trace = test::makeFwdBwdTrace(24, 6 * MiB, 500 * USEC);
    SystemConfig sys = test::tinySystem();
    const std::vector<std::string> designs = {"ideal", "baseuvm",
                                              "deepum", "g10gds", "g10"};

    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    std::vector<DesignInstance> s =
        compileDesigns(serial, trace, sys, designs);
    std::vector<DesignInstance> p =
        compileDesigns(pooled, trace, sys, designs);

    ASSERT_EQ(s.size(), designs.size());
    ASSERT_EQ(p.size(), designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        ASSERT_NE(s[i].policy, nullptr) << designs[i];
        ASSERT_NE(p[i].policy, nullptr) << designs[i];
        // Results come back in input order...
        EXPECT_STREQ(s[i].policy->name(), p[i].policy->name())
            << designs[i];
        EXPECT_EQ(s[i].uvmExtension, p[i].uvmExtension) << designs[i];

        // ...and replaying each compiled plan gives identical stats.
        RunConfig rc;
        rc.sys = sys;
        rc.uvmExtension = s[i].uvmExtension;
        ExecStats ss = simulate(trace, *s[i].policy, rc);
        rc.uvmExtension = p[i].uvmExtension;
        ExecStats ps = simulate(trace, *p[i].policy, rc);
        EXPECT_EQ(ss.failed, ps.failed) << designs[i];
        EXPECT_EQ(ss.measuredIterationNs, ps.measuredIterationNs)
            << designs[i];
        EXPECT_EQ(ss.totalStallNs, ps.totalStallNs) << designs[i];
        EXPECT_EQ(ss.traffic.totalToGpu(), ps.traffic.totalToGpu())
            << designs[i];
    }
}

}  // namespace
}  // namespace g10
