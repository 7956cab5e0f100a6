/** @file Tests for the design-point policies and their factory. */

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "policies/baselines.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

TEST(DesignPoint, NamesMatchPaperLegend)
{
    PolicyRegistry& reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.resolve("baseuvm").name, "Base UVM");
    EXPECT_EQ(reg.resolve("deepum").name, "DeepUM+");
    EXPECT_EQ(reg.resolve("flashneuron").name, "FlashNeuron");
    EXPECT_EQ(reg.resolve("g10").name, "G10");
    EXPECT_TRUE(reg.resolve("g10").builtin);
    EXPECT_EQ(allDesignNames().size(), 6u);
    EXPECT_EQ(sweepDesignNames().size(), 4u);
}

TEST(DesignPoint, FactoryInstantiatesEveryDesign)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 8 * MiB, 1 * MSEC);
    SystemConfig sys = test::tinySystem();
    PolicyRegistry& reg = PolicyRegistry::instance();
    for (const std::string& d : allDesignNames()) {
        DesignInstance inst = reg.make(d, t, sys);
        ASSERT_NE(inst.policy, nullptr) << d;
        EXPECT_EQ(inst.policy->name(), designDisplayName(d));
    }
    // Only full G10 carries the UVM extension.
    EXPECT_TRUE(reg.make("g10", t, sys).uvmExtension);
    EXPECT_FALSE(reg.make("g10host", t, sys).uvmExtension);
    EXPECT_FALSE(reg.make("g10gds", t, sys).uvmExtension);
}

TEST(FlashNeuron, SelectsOnlyActivations)
{
    KernelTrace t =
        test::makeFwdBwdTrace(24, 8 * MiB, 1 * MSEC, 16 * MiB);
    SystemConfig sys = test::tinySystem();
    FlashNeuronPolicy pol(t, sys);
    EXPECT_GT(pol.selectedCount(), 0u);
    // FlashNeuron must shrink the plan peak vs. doing nothing.
    VitalityAnalysis v(t, sys.kernelLaunchOverheadNs);
    EXPECT_LT(pol.plannedPeakBytes(), v.peakMemoryBytes());
}

TEST(FlashNeuron, DoesNotTouchWeights)
{
    KernelTrace t =
        test::makeFwdBwdTrace(24, 8 * MiB, 1 * MSEC, 16 * MiB);
    SystemConfig sys = test::tinySystem();
    RunConfig rc;
    rc.sys = sys;
    FlashNeuronPolicy pol(t, sys);
    ExecStats st = simulate(t, pol, rc);
    if (!st.failed) {
        // Weight wrap-around migrations would show as host traffic;
        // FlashNeuron is GPU<->SSD only.
        EXPECT_EQ(st.traffic.gpuToHost, 0u);
        EXPECT_EQ(st.traffic.hostToGpu, 0u);
    }
}

TEST(G10Variants, GdsPlanNeverTargetsHost)
{
    KernelTrace t = test::makeFwdBwdTrace(24, 8 * MiB, 1 * MSEC);
    SystemConfig sys = test::tinySystem();
    DesignInstance gds = PolicyRegistry::instance().make("g10gds", t, sys);
    const auto& plan =
        static_cast<const G10Policy&>(*gds.policy).compiled();
    EXPECT_FALSE(plan.schedule.migrations.empty());
    for (const auto& m : plan.schedule.migrations)
        EXPECT_EQ(m.dest, MemLoc::Ssd);
}

TEST(G10Variants, OrderingOnOversubscribedWorkload)
{
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 2500 * USEC);
    SystemConfig sys = test::tinySystem();

    auto run = [&](const std::string& d) {
        ExperimentConfig cfg;
        cfg.sys = sys;
        cfg.scaleDown = 1;
        cfg.design = d;
        return runExperimentOnTrace(t, cfg).normalizedPerf();
    };
    double g10 = run("g10");
    double host = run("g10host");
    double gds = run("g10gds");
    double base = run("baseuvm");

    // Fig. 11's ablation ordering: G10 >= G10-Host >= G10-GDS > UVM.
    EXPECT_GE(g10 + 0.02, host);
    EXPECT_GE(host + 0.02, gds);
    EXPECT_GT(gds, base);
}

TEST(DeepUm, PrefetchesEliminateSteadyStateFaults)
{
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 800 * USEC);
    RunConfig rc;
    rc.sys = test::tinySystem();
    DeepUmPolicy pol(8);
    ExecStats st = simulate(t, pol, rc);
    EXPECT_FALSE(st.failed);
    BaseUvmPolicy base;
    ExecStats st_base = simulate(t, base, rc);
    EXPECT_LT(st.pageFaultBatches, st_base.pageFaultBatches);
    EXPECT_LT(st.measuredIterationNs, st_base.measuredIterationNs);
}

TEST(DeepUm, LongerLookaheadDoesNotCrash)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 8 * MiB, 500 * USEC);
    RunConfig rc;
    rc.sys = test::tinySystem();
    for (int w : {1, 4, 16, 64}) {
        DeepUmPolicy pol(w);
        ExecStats st = simulate(t, pol, rc);
        EXPECT_FALSE(st.failed) << "lookahead " << w;
    }
}

TEST(Ideal, NeverMigrates)
{
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    RunConfig rc;
    rc.sys = test::tinySystem();
    IdealPolicy pol;
    ExecStats st = simulate(t, pol, rc);
    EXPECT_EQ(st.traffic.totalToGpu() + st.traffic.totalFromGpu(), 0u);
}

}  // namespace
}  // namespace g10
