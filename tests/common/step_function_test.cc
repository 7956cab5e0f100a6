/**
 * @file Unit tests for the piecewise-constant StepFunction (the
 * bandwidth timelines). The pressure-curve queries live in
 * pressure_curve_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/step_function.h"

namespace g10 {
namespace {

TEST(StepFunction, EmptyIsZeroEverywhere)
{
    StepFunction f;
    EXPECT_DOUBLE_EQ(f.valueAt(-100), 0.0);
    EXPECT_DOUBLE_EQ(f.valueAt(0), 0.0);
    EXPECT_DOUBLE_EQ(f.valueAt(1 << 30), 0.0);
    auto segs = f.segments(-100, 100);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_DOUBLE_EQ(segs[0].value, 0.0);
    EXPECT_EQ(f.breakpointCount(), 0u);
}

TEST(StepFunction, SingleRangeAdd)
{
    StepFunction f;
    f.add(10, 20, 5.0);
    EXPECT_DOUBLE_EQ(f.valueAt(9), 0.0);
    EXPECT_DOUBLE_EQ(f.valueAt(10), 5.0);
    EXPECT_DOUBLE_EQ(f.valueAt(19), 5.0);
    EXPECT_DOUBLE_EQ(f.valueAt(20), 0.0);  // half-open interval
}

TEST(StepFunction, OverlappingAddsAccumulate)
{
    StepFunction f;
    f.add(0, 100, 1.0);
    f.add(50, 150, 2.0);
    EXPECT_DOUBLE_EQ(f.valueAt(25), 1.0);
    EXPECT_DOUBLE_EQ(f.valueAt(75), 3.0);
    EXPECT_DOUBLE_EQ(f.valueAt(125), 2.0);
    EXPECT_DOUBLE_EQ(f.valueAt(150), 0.0);
}

TEST(StepFunction, NegativeAddCancels)
{
    StepFunction f;
    f.add(0, 100, 4.0);
    f.add(20, 40, -4.0);
    EXPECT_DOUBLE_EQ(f.valueAt(30), 0.0);
    EXPECT_DOUBLE_EQ(f.valueAt(10), 4.0);
    EXPECT_DOUBLE_EQ(f.valueAt(50), 4.0);
}

TEST(StepFunction, EmptyOrInvertedIntervalIsNoop)
{
    StepFunction f;
    f.add(10, 10, 3.0);
    f.add(20, 5, 3.0);
    EXPECT_EQ(f.breakpointCount(), 0u);
}

TEST(StepFunction, SegmentsCoverQueryWindow)
{
    StepFunction f;
    f.add(10, 20, 1.0);
    f.add(30, 40, 2.0);
    auto segs = f.segments(0, 50);
    ASSERT_FALSE(segs.empty());
    EXPECT_EQ(segs.front().begin, 0);
    EXPECT_EQ(segs.back().end, 50);
    // Segments must tile the window contiguously.
    for (std::size_t i = 1; i < segs.size(); ++i)
        EXPECT_EQ(segs[i - 1].end, segs[i].begin);
    // Value inside [30,40) is 2.
    bool found = false;
    for (const auto& s : segs)
        if (s.begin >= 30 && s.end <= 40) {
            EXPECT_DOUBLE_EQ(s.value, 2.0);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(StepFunction, CompactRemovesRedundantBreakpoints)
{
    StepFunction f;
    f.add(0, 100, 5.0);
    f.add(0, 100, -5.0);
    EXPECT_GT(f.breakpointCount(), 0u);
    f.compact();
    EXPECT_EQ(f.breakpointCount(), 0u);
}

TEST(StepFunction, ManyRangeAddsStayConsistent)
{
    StepFunction f;
    double expect_at_500 = 0.0;
    for (int i = 0; i < 200; ++i) {
        TimeNs lo = i * 7;
        TimeNs hi = lo + 400;
        f.add(lo, hi, 1.0);
        if (lo <= 500 && 500 < hi)
            expect_at_500 += 1.0;
    }
    EXPECT_DOUBLE_EQ(f.valueAt(500), expect_at_500);
}

TEST(StepFunction, CursorMatchesSegments)
{
    StepFunction f;
    f.add(10, 20, 1.0);
    f.add(15, 40, 2.5);
    f.add(30, 35, -1.0);
    for (auto [t0, t1] : {std::pair<TimeNs, TimeNs>{0, 50},
                          {12, 33},
                          {20, 20},   // empty window
                          {45, 60},   // past the support
                          {-5, 11}}) {
        auto segs = f.segments(t0, t1);
        std::size_t i = 0;
        for (auto c = f.cursor(t0, t1); !c.done(); c.next(), ++i) {
            ASSERT_LT(i, segs.size());
            EXPECT_EQ(c.begin(), segs[i].begin);
            EXPECT_EQ(c.end(), segs[i].end);
            EXPECT_DOUBLE_EQ(c.value(), segs[i].value);
        }
        EXPECT_EQ(i, segs.size());
    }
}

// ---- Complexity guarantees ------------------------------------------

TEST(StepFunction, BreakpointCountGrowsAtMostTwoPerAdd)
{
    StepFunction f;
    Rng rng(7);
    std::size_t adds = 0;
    for (int i = 0; i < 2000; ++i) {
        auto lo = static_cast<TimeNs>(rng.uniformInt(0, 100000));
        auto len = static_cast<TimeNs>(rng.uniformInt(1, 5000));
        f.add(lo, lo + len, 1.0);
        ++adds;
        // Each range add introduces at most its two endpoints.
        EXPECT_LE(f.breakpointCount(), 2 * adds);
    }
}

TEST(StepFunction, RepeatedSameRangeDoesNotGrow)
{
    StepFunction f;
    for (int i = 0; i < 1000; ++i)
        f.add(100, 200, 1.0);
    EXPECT_EQ(f.breakpointCount(), 2u);
    EXPECT_DOUBLE_EQ(f.valueAt(150), 1000.0);
}

TEST(StepFunction, CompactBoundsResidualBreakpoints)
{
    StepFunction f;
    // Reserve/release pairs (the bandwidth-model pattern): every pair
    // cancels exactly, so compaction must shrink the representation
    // back to nothing.
    for (int i = 0; i < 500; ++i) {
        TimeNs lo = i * 13;
        f.add(lo, lo + 1000, 3.0);
        f.add(lo, lo + 1000, -3.0);
    }
    EXPECT_GT(f.breakpointCount(), 0u);
    f.compact();
    EXPECT_EQ(f.breakpointCount(), 0u);
    EXPECT_DOUBLE_EQ(f.valueAt(500), 0.0);
}

// ---- Randomized differential test -----------------------------------

/**
 * Naive reference: a dense value-per-tick array over [0, kDomain).
 * Deltas are small integers so all arithmetic is exact and comparisons
 * can demand bit equality.
 */
class DenseReference
{
  public:
    static constexpr TimeNs kDomain = 512;

    void
    add(TimeNs t0, TimeNs t1, double delta)
    {
        if (t1 <= t0)
            return;
        for (TimeNs t = std::max<TimeNs>(0, t0);
             t < std::min<TimeNs>(kDomain, t1); ++t)
            v_[static_cast<std::size_t>(t)] += delta;
    }

    double
    valueAt(TimeNs t) const
    {
        if (t < 0 || t >= kDomain)
            return 0.0;
        return v_[static_cast<std::size_t>(t)];
    }

  private:
    double v_[kDomain] = {};
};

TEST(StepFunctionDifferential, ThousandsOfMixedOpsMatchNaive)
{
    StepFunction f;
    DenseReference ref;
    Rng rng(20260730);
    constexpr TimeNs T = DenseReference::kDomain;

    for (int op = 0; op < 4000; ++op) {
        int kind = rng.uniformInt(0, 5);
        auto t0 = static_cast<TimeNs>(rng.uniformInt(0, T - 1));
        auto t1 = static_cast<TimeNs>(rng.uniformInt(0, T));
        switch (kind) {
          case 0:
          case 1:
          case 2: {  // range add (occasionally inverted/empty)
            auto delta =
                static_cast<double>(rng.uniformInt(-3, 3));
            f.add(t0, t1, delta);
            ref.add(t0, t1, delta);
            break;
          }
          case 3:
            ASSERT_DOUBLE_EQ(f.valueAt(t0), ref.valueAt(t0)) << op;
            break;
          case 4:
            // The cursor tiles the window with the reference's values.
            for (auto c = f.cursor(t0, t1); !c.done(); c.next())
                for (TimeNs t = c.begin(); t < c.end(); ++t)
                    ASSERT_DOUBLE_EQ(c.value(), ref.valueAt(t))
                        << op << " @" << t;
            break;
          case 5:
            f.compact();  // must never change observable values
            break;
        }
    }

    // Final full sweep: the segment tiling must reproduce the dense
    // reference point for point.
    for (const auto& seg : f.segments(0, T))
        for (TimeNs t = seg.begin; t < seg.end; ++t)
            ASSERT_DOUBLE_EQ(seg.value, ref.valueAt(t)) << t;
}

}  // namespace
}  // namespace g10
