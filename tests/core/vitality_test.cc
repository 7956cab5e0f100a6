/** @file Unit tests for tensor vitality analysis (§4.2). */

#include <gtest/gtest.h>

#include "core/vitality/vitality.h"
#include "models/model_zoo.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

constexpr TimeNs kOv = 10 * USEC;

TEST(Vitality, ChainHasNoInactivePeriods)
{
    // Each tensor is produced by kernel i and consumed by kernel i+1:
    // no gap, hence no inactive periods.
    KernelTrace t = test::makeChainTrace(6, 1 * MiB, 1 * MSEC);
    VitalityAnalysis v(t, kOv);
    EXPECT_TRUE(v.periods().empty());
}

TEST(Vitality, FwdBwdPeriodsMatchHourglass)
{
    // Activation a_i: produced by fwd_i, consumed by fwd_{i+1} and
    // bwd_i. Every a_i except the last has one inactive period from
    // fwd_{i+1} to bwd_i; earlier tensors have longer periods.
    const int n = 5;
    KernelTrace t = test::makeFwdBwdTrace(n, 1 * MiB, 1 * MSEC);
    VitalityAnalysis v(t, kOv);

    // a0..a_{n-2}: inactive from end(fwd_{i+1}) to start(bwd_i).
    EXPECT_EQ(v.periods().size(), static_cast<std::size_t>(n - 1));

    TimeNs prev_len = 0;
    std::vector<TimeNs> lens;
    for (const auto& p : v.periods()) {
        EXPECT_GT(p.endNs, p.startNs);
        EXPECT_FALSE(p.wrapsIteration);
        lens.push_back(p.lengthNs());
    }
    // Earlier activations (smaller tensor ids) have longer periods.
    for (std::size_t i = 1; i < lens.size(); ++i)
        EXPECT_GT(lens[i - 1], lens[i]);
    (void)prev_len;
}

TEST(Vitality, GlobalTensorGetsWrapAroundPeriod)
{
    KernelTrace t =
        test::makeFwdBwdTrace(4, 1 * MiB, 1 * MSEC, /*weight=*/2 * MiB);
    VitalityAnalysis v(t, kOv);
    const auto& lv =
        v.liveness()[0];  // the weight is the first tensor created
    ASSERT_TRUE(lv.isGlobal);
    bool has_wrap = false;
    for (const auto& p : v.periods()) {
        if (p.tensor == lv.tensor && p.wrapsIteration) {
            has_wrap = true;
            // end exceeds the iteration; next use is the first fwd.
            EXPECT_GE(p.endNs, v.iterationLengthNs());
            const auto& uses =
                t.useIndex().uses[static_cast<std::size_t>(lv.tensor)];
            EXPECT_EQ(p.nextUse, uses.front());
            EXPECT_EQ(p.lastUse, uses.back());
        }
    }
    EXPECT_TRUE(has_wrap);
}

TEST(Vitality, MemoryPressurePeaksAtFwdBwdBoundary)
{
    const int n = 6;
    const Bytes sz = 1 * MiB;
    KernelTrace t = test::makeFwdBwdTrace(n, sz, 1 * MSEC);
    VitalityAnalysis v(t, kOv);
    PressureCurve f = v.memoryPressure();

    // At the loss kernel all n activations plus the loss grad are live.
    Bytes peak = v.peakMemoryBytes();
    EXPECT_GE(peak, static_cast<Bytes>(n) * sz);
    // Pressure at the very start is just the first tensors.
    EXPECT_LT(f.valueAt(0), static_cast<std::int64_t>(peak));
}

TEST(Vitality, ActiveBytesPerKernelMatchesWorkingSets)
{
    KernelTrace t = test::makeChainTrace(4, 2 * MiB, 1 * MSEC);
    VitalityAnalysis v(t, kOv);
    auto active = v.activeBytesPerKernel();
    ASSERT_EQ(active.size(), 4u);
    EXPECT_EQ(active[0], 2 * MiB);  // only its output
    EXPECT_EQ(active[1], 4 * MiB);  // input + output
    EXPECT_EQ(active[3], 4 * MiB);
}

TEST(Vitality, LiveBytesAreAlwaysAtLeastActiveBytes)
{
    KernelTrace t = test::makeFwdBwdTrace(5, 1 * MiB, 1 * MSEC, 4 * MiB);
    VitalityAnalysis v(t, kOv);
    auto active = v.activeBytesPerKernel();
    auto live = v.liveBytesPerKernel();
    ASSERT_EQ(active.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        EXPECT_GE(live[i], active[i]) << "kernel " << i;
}

TEST(Vitality, PeriodTimesAlignWithKernelTimeline)
{
    KernelTrace t = test::makeFwdBwdTrace(3, 1 * MiB, 1 * MSEC);
    VitalityAnalysis v(t, kOv);
    for (const auto& p : v.periods()) {
        EXPECT_EQ(p.startNs, v.kernelEnd(p.lastUse));
        if (!p.wrapsIteration) {
            EXPECT_EQ(p.endNs,
                      v.kernelStart()[static_cast<std::size_t>(
                          p.nextUse)]);
        }
    }
}

TEST(Vitality, RealModelPeriodsAreWellFormed)
{
    KernelTrace t = buildModelScaled(ModelKind::ResNet152, 64, 16);
    VitalityAnalysis v(t, kOv);
    EXPECT_GT(v.periods().size(), 100u);
    for (const auto& p : v.periods()) {
        EXPECT_GE(p.startNs, 0);
        EXPECT_GT(p.endNs, p.startNs);
        EXPECT_GE(p.tensor, 0);
        EXPECT_LT(static_cast<std::size_t>(p.tensor), t.numTensors());
        if (!p.wrapsIteration)
            EXPECT_LE(p.endNs, v.iterationLengthNs());
    }
}

}  // namespace
}  // namespace g10
