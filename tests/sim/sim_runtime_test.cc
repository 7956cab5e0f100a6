/** @file Unit tests for the end-to-end replay runtime. */

#include <gtest/gtest.h>

#include "policies/baselines.h"
#include "policies/g10_policy.h"
#include "sim/runtime/sim_runtime.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

RunConfig
runcfg()
{
    RunConfig rc;
    rc.sys = test::tinySystem();
    rc.iterations = 2;
    return rc;
}

TEST(SimRuntime, IdealMatchesIdealTimeExactly)
{
    KernelTrace t = test::makeChainTrace(10, 1 * MiB, 1 * MSEC);
    IdealPolicy pol;
    ExecStats st = simulate(t, pol, runcfg());
    EXPECT_FALSE(st.failed);
    EXPECT_EQ(st.measuredIterationNs, st.idealIterationNs);
    EXPECT_EQ(st.totalStallNs, 0);
    EXPECT_EQ(st.pageFaultBatches, 0u);
    EXPECT_DOUBLE_EQ(st.normalizedPerf(), 1.0);
}

TEST(SimRuntime, FittingWorkloadRunsAtIdealForEveryPolicy)
{
    KernelTrace t = test::makeFwdBwdTrace(4, 1 * MiB, 1 * MSEC);
    RunConfig rc = runcfg();
    BaseUvmPolicy base;
    DeepUmPolicy deep;
    for (Policy* p : std::initializer_list<Policy*>{&base, &deep}) {
        ExecStats st = simulate(t, *p, rc);
        EXPECT_FALSE(st.failed) << p->name();
        EXPECT_EQ(st.measuredIterationNs, st.idealIterationNs)
            << p->name();
    }
}

TEST(SimRuntime, OversubscribedBaseUvmPaysFaults)
{
    // 32 stages of 8 MiB on a 64 MiB GPU: must swap.
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    BaseUvmPolicy pol;
    ExecStats st = simulate(t, pol, runcfg());
    EXPECT_FALSE(st.failed);
    EXPECT_GT(st.pageFaultBatches, 0u);
    EXPECT_GT(st.measuredIterationNs, st.idealIterationNs);
    EXPECT_GT(st.traffic.totalFromGpu(), 0u);
    EXPECT_GT(st.traffic.totalToGpu(), 0u);
}

TEST(SimRuntime, G10BeatsBaseUvmOnOversubscription)
{
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    RunConfig rc = runcfg();
    BaseUvmPolicy base;
    ExecStats st_base = simulate(t, base, rc);
    auto g10 = makeG10(t, rc.sys);
    rc.uvmExtension = true;
    ExecStats st_g10 = simulate(t, *g10, rc);
    EXPECT_FALSE(st_g10.failed);
    EXPECT_LT(st_g10.measuredIterationNs, st_base.measuredIterationNs);
    // G10's planned migrations avoid almost all faults.
    EXPECT_LT(st_g10.pageFaultBatches, st_base.pageFaultBatches / 2);
}

TEST(SimRuntime, MeasuredIterationIsSteadyState)
{
    // Weights start partially on SSD; iteration 0 faults them in.
    // The measured (last) iteration must not repay that cost.
    KernelTrace t =
        test::makeFwdBwdTrace(16, 4 * MiB, 500 * USEC, 8 * MiB);
    BaseUvmPolicy pol;
    RunConfig rc = runcfg();
    rc.iterations = 3;
    ExecStats st3 = simulate(t, pol, rc);
    rc.iterations = 2;
    BaseUvmPolicy pol2;
    ExecStats st2 = simulate(t, pol2, rc);
    // Steady state: measured iterations agree across warmup counts.
    EXPECT_NEAR(static_cast<double>(st3.measuredIterationNs),
                static_cast<double>(st2.measuredIterationNs),
                static_cast<double>(st2.measuredIterationNs) * 0.02);
}

TEST(SimRuntime, KernelStatsCoverIteration)
{
    KernelTrace t = test::makeFwdBwdTrace(8, 2 * MiB, 1 * MSEC);
    IdealPolicy pol;
    ExecStats st = simulate(t, pol, runcfg());
    ASSERT_EQ(st.kernels.size(), t.numKernels());
    TimeNs sum = 0;
    for (const auto& ks : st.kernels) {
        EXPECT_GE(ks.actualNs, ks.idealNs);
        EXPECT_EQ(ks.stallNs, ks.actualNs - ks.idealNs);
        sum += ks.actualNs;
    }
    EXPECT_EQ(sum, st.measuredIterationNs);
}

TEST(SimRuntime, FlashNeuronFailsWhenWorkingSetExceedsCapacity)
{
    // One kernel needs 3 x 48 MiB > 64 MiB GPU: hard failure without
    // demand paging.
    KernelTrace t;
    t.setModelName("big");
    t.setBatchSize(1);
    TensorId a = t.addTensor("a", 48 * MiB, TensorKind::Activation);
    TensorId c = t.addTensor("c", 48 * MiB, TensorKind::Activation);
    {
        Kernel k;
        k.name = "mk_a";
        k.durationNs = 1 * MSEC;
        k.outputs = {a};
        t.addKernel(std::move(k));
    }
    {
        Kernel k;
        k.name = "big";
        k.durationNs = 1 * MSEC;
        k.inputs = {a};
        k.outputs = {c};
        TensorId ws = t.addTensor("ws", 48 * MiB, TensorKind::Workspace);
        k.workspace = {ws};
        t.addKernel(std::move(k));
    }
    RunConfig rc = runcfg();
    FlashNeuronPolicy pol(t, rc.sys);
    ExecStats st = simulate(t, pol, rc);
    EXPECT_TRUE(st.failed);
    // UVM-style demand paging also cannot satisfy it (the working set
    // genuinely exceeds memory), but the ideal baseline can.
    IdealPolicy ideal;
    ExecStats ok = simulate(t, ideal, runcfg());
    EXPECT_FALSE(ok.failed);
}

TEST(SimRuntime, TimingErrorPerturbsReplayOnly)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 4 * MiB, 1 * MSEC);
    RunConfig rc = runcfg();
    rc.timingErrorPct = 0.2;
    IdealPolicy pol;
    ExecStats noisy = simulate(t, pol, rc);
    // idealIterationNs stays unperturbed; the measured time moves.
    EXPECT_EQ(noisy.idealIterationNs,
              t.totalComputeNs() +
                  static_cast<TimeNs>(t.numKernels()) *
                      rc.sys.kernelLaunchOverheadNs);
    EXPECT_NE(noisy.measuredIterationNs, noisy.idealIterationNs);
    // Same seed, same noise: deterministic.
    IdealPolicy pol2;
    ExecStats again = simulate(t, pol2, rc);
    EXPECT_EQ(noisy.measuredIterationNs, again.measuredIterationNs);
}

TEST(SimRuntime, IntermediatesLiveFromFirstToLastUseGlobalsAlways)
{
    KernelTrace t = test::makeFwdBwdTrace(6, 1 * MiB, 1 * MSEC,
                                          /*weight=*/2 * MiB);
    BaseUvmPolicy pol;
    SimRuntime rt(t, pol, runcfg());
    rt.start();
    const auto& uses = t.useIndex().uses;
    const auto nk = static_cast<KernelId>(t.numKernels());
    for (KernelId step = 0; rt.stepKernel(); ++step) {
        const KernelId k = step % nk;
        for (const Tensor& ten : t.tensors()) {
            const auto& u = uses[static_cast<std::size_t>(ten.id)];
            const bool live = ten.isGlobal() ||
                              (u.front() <= k && k < u.back());
            EXPECT_EQ(rt.tensorState(ten.id).allocated, live)
                << ten.name << " after kernel " << k;
        }
    }
    EXPECT_FALSE(rt.finalize().failed);
}

TEST(SimRuntime, TrafficConservationEvictedComesBack)
{
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    RunConfig rc = runcfg();
    auto g10 = makeG10(t, rc.sys);
    ExecStats st = simulate(t, *g10, rc);
    // Steady state: every byte evicted in an iteration returns in it
    // (activations round trip; weights too via wrap periods).
    double out = static_cast<double>(st.traffic.totalFromGpu());
    double in = static_cast<double>(st.traffic.totalToGpu());
    EXPECT_NEAR(in / out, 1.0, 0.15);
}

TEST(SimRuntime, HostStagingNeverExceedsCapacity)
{
    KernelTrace t = test::makeFwdBwdTrace(48, 8 * MiB, 200 * USEC);
    RunConfig rc = runcfg();
    rc.sys.hostMemBytes = 32 * MiB;  // tiny host: must overflow to SSD
    BaseUvmPolicy pol;
    ExecStats st = simulate(t, pol, rc);
    EXPECT_FALSE(st.failed);
    EXPECT_GT(st.traffic.gpuToSsd, 0u);  // overflow happened
}

// ---- Dynamic memory budget (elastic partitions) -------------------

TEST(SimRuntimeResize, ShrinkEvictsDownToTheNewWatermark)
{
    // 8 stages of 8 MiB fill the 64 MiB GPU during the forward pass;
    // shrinking to 32 MiB mid-run must stage the excess out through
    // the migration machinery (largest kernel working set is 24 MiB,
    // so the run still completes).
    KernelTrace t = test::makeFwdBwdTrace(8, 8 * MiB, 1 * MSEC);
    BaseUvmPolicy pol;
    RunConfig rc = runcfg();
    SimRuntime rt(t, pol, rc);
    rt.start();
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(rt.stepKernel());

    SimRuntime::ResizeOutcome ro =
        rt.resizeMemoryBudget(32 * MiB, rc.sys.hostMemBytes);
    EXPECT_TRUE(ro.shrunk);
    EXPECT_GT(ro.evictedBytes, 0u);
    EXPECT_GE(ro.effectiveNs, rt.now());
    // The accounting honors the watermark as soon as resize returns:
    // free never reads past the new budget.
    EXPECT_LE(rt.gpuFreeBytes(), 32 * MiB);
    EXPECT_EQ(rt.resizeCount(), 1u);
    EXPECT_EQ(rt.resizeEvictedBytes(), ro.evictedBytes);

    while (rt.stepKernel()) {
    }
    ExecStats st = rt.finalize();
    EXPECT_FALSE(st.failed);
    // Evicted state came back through real transfers, never dropped.
    EXPECT_GT(st.traffic.totalToGpu() + st.traffic.totalFromGpu(), 0u);
}

TEST(SimRuntimeResize, GrowTakesEffectImmediately)
{
    // Start oversubscribed (16 MiB budget), grow to the full machine
    // mid-run: no eviction, and the remaining replay speeds up.
    KernelTrace t = test::makeFwdBwdTrace(8, 8 * MiB, 1 * MSEC);
    BaseUvmPolicy pol;
    RunConfig rc = runcfg();
    rc.sys.gpuMemBytes = 32 * MiB;
    SimRuntime rt(t, pol, rc);
    rt.start();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(rt.stepKernel());

    SimRuntime::ResizeOutcome ro =
        rt.resizeMemoryBudget(256 * MiB, rc.sys.hostMemBytes);
    EXPECT_FALSE(ro.shrunk);
    EXPECT_EQ(ro.evictedBytes, 0u);
    EXPECT_EQ(ro.effectiveNs, rt.now());
    EXPECT_GE(rt.gpuFreeBytes(), 256 * MiB - 64 * MiB);

    while (rt.stepKernel()) {
    }
    EXPECT_FALSE(rt.finalize().failed);
}

TEST(SimRuntimeResize, ShrinkBelowTheWorkingSetFailsExplicitly)
{
    // A shrink below the largest kernel working set (24 MiB here) is
    // an explicit hard OOM on the next kernel, never a silent drop.
    KernelTrace t = test::makeFwdBwdTrace(8, 8 * MiB, 1 * MSEC);
    BaseUvmPolicy pol;
    RunConfig rc = runcfg();
    SimRuntime rt(t, pol, rc);
    rt.start();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(rt.stepKernel());
    rt.resizeMemoryBudget(8 * MiB, rc.sys.hostMemBytes);
    while (rt.stepKernel()) {
    }
    ExecStats st = rt.finalize();
    EXPECT_TRUE(st.failed);
    EXPECT_NE(st.failReason.find("working set"), std::string::npos);
}

TEST(SimRuntimeResize, HostShrinkDrainsLazilyWithoutDataLoss)
{
    // Shrinking the host staging budget mid-run must not drop staged
    // bytes: the run completes, with evictions overflowing to SSD.
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    BaseUvmPolicy pol;
    RunConfig rc = runcfg();
    SimRuntime rt(t, pol, rc);
    rt.start();
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(rt.stepKernel());
    rt.resizeMemoryBudget(rc.sys.gpuMemBytes, 16 * MiB);
    while (rt.stepKernel()) {
    }
    ExecStats st = rt.finalize();
    EXPECT_FALSE(st.failed);
}

TEST(SimRuntimeResize, IdealBaselineIgnoresGpuShrink)
{
    KernelTrace t = test::makeChainTrace(10, 1 * MiB, 1 * MSEC);
    IdealPolicy pol;
    RunConfig rc = runcfg();
    SimRuntime rt(t, pol, rc);
    rt.start();
    ASSERT_TRUE(rt.stepKernel());
    SimRuntime::ResizeOutcome ro =
        rt.resizeMemoryBudget(1 * MiB, rc.sys.hostMemBytes);
    EXPECT_FALSE(ro.shrunk);
    EXPECT_EQ(rt.resizeCount(), 0u);
    while (rt.stepKernel()) {
    }
    ExecStats st = rt.finalize();
    EXPECT_FALSE(st.failed);
    EXPECT_EQ(st.measuredIterationNs, st.idealIterationNs);
}

TEST(SimRuntimeResize, PolicySwapReplansMidRun)
{
    // The elastic replan path: shrink the budget, recompile the G10
    // plan at the new capacity warm-started from the old schedule,
    // and swap it in mid-run.
    KernelTrace t = test::makeFwdBwdTrace(32, 8 * MiB, 500 * USEC);
    RunConfig rc = runcfg();
    auto before = makeG10(t, rc.sys);
    SimRuntime rt(t, *before, rc);
    rt.start();
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(rt.stepKernel());

    SystemConfig shrunk = rc.sys;
    shrunk.gpuMemBytes = rc.sys.gpuMemBytes / 2;
    rt.resizeMemoryBudget(shrunk.gpuMemBytes, shrunk.hostMemBytes);
    auto after =
        makeG10(t, shrunk, &before->compiled().schedule);
    EXPECT_GT(after->compiled().schedule.warmReplayed, 0u);
    rt.setPolicy(*after);

    while (rt.stepKernel()) {
    }
    ExecStats st = rt.finalize();
    EXPECT_FALSE(st.failed);
    EXPECT_STREQ(st.policyName.c_str(), "G10");
}

TEST(SimRuntimeResizeDeath, PolicySwapMustKeepTheMemoryModel)
{
    KernelTrace t = test::makeChainTrace(4, 1 * MiB, 1 * MSEC);
    BaseUvmPolicy base;
    IdealPolicy ideal;
    RunConfig rc = runcfg();
    SimRuntime rt(t, base, rc);
    rt.start();
    EXPECT_DEATH(rt.setPolicy(ideal), "memory model");
}

}  // namespace
}  // namespace g10
