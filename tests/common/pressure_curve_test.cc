/**
 * @file
 * Unit and differential tests for the integer PressureCurve. The
 * differential tests drive it side by side with NaiveCurve, a flat
 * breakpoint list whose every query is a plain segment walk in
 * __int128, and demand exact equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/pressure_curve.h"
#include "common/rng.h"

namespace g10 {
namespace {

using Area = PressureCurve::Area;

/**
 * Naive reference: sorted (time, value) breakpoints updated eagerly,
 * value 0 before the first. Deliberately simple; must not be
 * optimized.
 */
class NaiveCurve
{
  public:
    void
    add(TimeNs t0, TimeNs t1, std::int64_t delta)
    {
        if (t1 <= t0 || delta == 0)
            return;
        const std::size_t i0 = ensure(t0);
        const std::size_t i1 = ensure(t1);
        for (std::size_t i = i0; i < i1; ++i)
            bps_[i].second += delta;
    }

    std::int64_t
    valueAt(TimeNs t) const
    {
        std::int64_t v = 0;
        for (const auto& [bt, bv] : bps_)
            if (bt <= t)
                v = bv;
        return v;
    }

    std::int64_t
    maxOver(TimeNs t0, TimeNs t1) const
    {
        if (t1 <= t0)
            return 0;
        std::int64_t best = valueAt(t0);
        for (const auto& [bt, bv] : bps_)
            if (t0 < bt && bt < t1)
                best = std::max(best, bv);
        return best;
    }

    std::int64_t
    maxValue() const
    {
        std::int64_t best = 0;
        for (const auto& bp : bps_)
            best = std::max(best, bp.second);
        return best;
    }

    Area
    integralAbove(TimeNs t0, TimeNs t1, std::int64_t thr,
                  std::int64_t cap) const
    {
        // Walk the segments tiling [t0, t1).
        Area area = 0;
        TimeNs at = t0;
        std::int64_t v = valueAt(t0);
        auto take = [&](TimeNs end) {
            const std::int64_t x = v - thr;
            if (x > 0)
                area += static_cast<Area>(std::min(x, cap)) * (end - at);
        };
        if (t1 <= t0)
            return 0;
        for (const auto& [bt, bv] : bps_) {
            if (bt <= t0 || bt >= t1)
                continue;
            take(bt);
            at = bt;
            v = bv;
        }
        take(t1);
        return area;
    }

    TimeNs
    earliestFit(TimeNs t_min, TimeNs t_latest, TimeNs t_end,
                std::int64_t delta, double limit) const
    {
        const auto fits = [&](std::int64_t v) {
            return static_cast<double>(v) + static_cast<double>(delta) <=
                limit;
        };
        if (t_latest < t_min)
            return t_latest;
        if (!fits(maxOver(t_latest, std::max(t_latest + 1, t_end))))
            return t_latest;
        // The answer starts right after the latest overflowing segment
        // that begins at or before t_latest (or at t_min).
        TimeNs start = t_min;
        if (!fits(0) && !bps_.empty())
            start = std::max(start, bps_.front().first);
        for (std::size_t i = 0; i + 1 < bps_.size(); ++i)
            if (bps_[i].first <= t_latest && !fits(bps_[i].second))
                start = std::max(start, bps_[i + 1].first);
        return std::min(start, t_latest);
    }

    const std::vector<std::pair<TimeNs, std::int64_t>>&
    breakpoints() const
    {
        return bps_;
    }

  private:
    std::size_t
    ensure(TimeNs t)
    {
        auto it = std::lower_bound(
            bps_.begin(), bps_.end(), t,
            [](const auto& bp, TimeNs x) { return bp.first < x; });
        if (it != bps_.end() && it->first == t)
            return static_cast<std::size_t>(it - bps_.begin());
        const std::int64_t v = (it == bps_.begin()) ? 0 : (it - 1)->second;
        it = bps_.insert(it, {t, v});
        return static_cast<std::size_t>(it - bps_.begin());
    }

    std::vector<std::pair<TimeNs, std::int64_t>> bps_;
};

/** Every observable of @p f against @p ref over [lo, hi). */
void
expectSameCurve(const PressureCurve& f, const NaiveCurve& ref, TimeNs lo,
                TimeNs hi)
{
    ASSERT_EQ(f.breakpoints(), ref.breakpoints());
    ASSERT_EQ(f.maxValue(), ref.maxValue());
    ASSERT_EQ(f.maxOver(lo, hi), ref.maxOver(lo, hi));
    for (std::int64_t thr : {-5, 0, 40, 100, 150, 300})
        for (std::int64_t cap : {1, 10, 60, 1000})
            ASSERT_EQ(f.integralAbove(lo, hi, thr, cap),
                      ref.integralAbove(lo, hi, thr, cap))
                << "thr " << thr << " cap " << cap;
}

TEST(PressureCurve, EmptyIsZeroEverywhere)
{
    PressureCurve f;
    EXPECT_EQ(f.valueAt(-100), 0);
    EXPECT_EQ(f.valueAt(1 << 30), 0);
    EXPECT_EQ(f.maxValue(), 0);
    EXPECT_EQ(f.maxOver(0, 100), 0);
    EXPECT_EQ(f.integralAbove(0, 100, 0, 10), 0);
    EXPECT_EQ(f.integralAbove(0, 100, -3, 10), 300);
    EXPECT_TRUE(f.breakpoints().empty());
    f.add(10, 10, 3);
    f.add(20, 5, 3);
    f.add(0, 10, 0);
    EXPECT_TRUE(f.breakpoints().empty());
}

TEST(PressureCurve, MaxValueFollowsRaisedAndLoweredPeaks)
{
    PressureCurve f;
    f.add(0, 100, 8);
    f.add(50, 60, 4);
    EXPECT_EQ(f.maxValue(), 12);
    f.add(40, 70, -6);  // lowers the span the peak lived in
    EXPECT_EQ(f.maxValue(), 8);
    f.add(0, 100, -20);
    EXPECT_EQ(f.maxValue(), 0);  // floored at the zero outside
}

TEST(PressureCurve, MaxOverRespectsBounds)
{
    PressureCurve f;
    f.add(100, 200, 10);
    EXPECT_EQ(f.maxOver(0, 100), 0);
    EXPECT_EQ(f.maxOver(0, 101), 10);
    EXPECT_EQ(f.maxOver(199, 300), 10);
    EXPECT_EQ(f.maxOver(200, 300), 0);
    EXPECT_EQ(f.maxOver(50, 50), 0);  // empty interval
}

TEST(PressureCurve, IntegralAboveBasic)
{
    PressureCurve f;
    f.add(0, 10, 8);
    // Area above threshold 5 over [0,10): (8-5)*10 = 30.
    EXPECT_EQ(f.integralAbove(0, 10, 5, 1'000'000), 30);
    // Per-instant cap of 2 clips it: 2*10 = 20.
    EXPECT_EQ(f.integralAbove(0, 10, 5, 2), 20);
    // Nothing above 8.
    EXPECT_EQ(f.integralAbove(0, 10, 8, 1'000'000), 0);
}

TEST(PressureCurve, IntegralAboveMultiSegment)
{
    PressureCurve f;
    f.add(0, 10, 4);
    f.add(10, 20, 10);
    f.add(20, 30, 6);
    // threshold 5: [10,20) contributes (10-5)*10 = 50 and [20,30)
    // contributes (6-5)*10 = 10.
    EXPECT_EQ(f.integralAbove(0, 30, 5, 1'000'000), 60);
    // Clipped window.
    EXPECT_EQ(f.integralAbove(15, 25, 5, 1'000'000), 30);
}

TEST(PressureCurve, IntegralAboveIsExactAtByteScale)
{
    // Tens of GB over seconds: the area needs more than 64 bits.
    PressureCurve f;
    const std::int64_t gb = 1'000'000'000;
    const TimeNs sec = 1'000'000'000;
    for (TimeNs t = 0; t < 1000; ++t)
        f.add(t * sec, (t + 1) * sec, 40 * gb + t);
    const Area area = f.integralAbove(0, 1000 * sec, 0, 80 * gb);
    Area expect = 0;
    for (TimeNs t = 0; t < 1000; ++t)
        expect += static_cast<Area>(40 * gb + t) * sec;
    EXPECT_TRUE(area == expect);
    EXPECT_GT(area, static_cast<Area>(INT64_MAX));
}

TEST(PressureCurve, EarliestFitFindsEarliestSlot)
{
    PressureCurve f;
    // Capacity 10; usage: 8 in [0,100), 3 in [100,200), 8 in [200,300).
    f.add(0, 100, 8);
    f.add(100, 200, 3);
    f.add(200, 300, 8);
    // Adding 5 up to t=200 fits in [100,200) (3+5=8<=10), not in
    // [0,100).
    EXPECT_EQ(f.earliestFit(0, 180, 200, 5, 10.0), 100);
}

TEST(PressureCurve, EarliestFitReturnsLatestWhenNothingFits)
{
    PressureCurve f;
    f.add(0, 1000, 9);
    EXPECT_EQ(f.earliestFit(0, 500, 600, 5, 10.0), 500);
}

TEST(PressureCurve, EarliestFitReachesLowerBound)
{
    PressureCurve f;  // empty: fits everywhere
    EXPECT_EQ(f.earliestFit(25, 400, 500, 1, 10.0), 25);
}

TEST(PressureCurve, EarliestFitComparesFractionalLimitsInDouble)
{
    PressureCurve f;
    f.add(0, 100, 9);
    f.add(100, 200, 5);
    EXPECT_EQ(f.earliestFit(0, 150, 150, 1, 9.5), 100);   // 10 > 9.5
    EXPECT_EQ(f.earliestFit(0, 150, 150, 1, 10.0), 0);    // 10 <= 10
}

TEST(PressureCurve, BreakpointCountGrowsAtMostTwoPerAdd)
{
    PressureCurve f;
    Rng rng(7);
    for (std::size_t adds = 1; adds <= 2000; ++adds) {
        auto lo = static_cast<TimeNs>(rng.uniformInt(0, 100000));
        auto len = static_cast<TimeNs>(rng.uniformInt(1, 5000));
        f.add(lo, lo + len, 1);
        EXPECT_LE(f.breakpoints().size(), 2 * adds);
    }
}

TEST(PressureCurve, ChunkAggregatesSurviveEveryMaintenancePath)
{
    // Drive each path that maintains the chunks' min and max in
    // sequence — appends that split chunks, a lazy add over every
    // chunk, partial adds inside one chunk and across a chunk boundary,
    // a prepend before the first breakpoint, an append past the last —
    // and cross-check everything against the naive curve after every
    // step. 4096 one-tick steps make ~100 chunks.
    PressureCurve f;
    NaiveCurve ref;
    auto both = [&](TimeNs t0, TimeNs t1, std::int64_t d) {
        f.add(t0, t1, d);
        ref.add(t0, t1, d);
    };
    for (TimeNs t = 0; t < 4096; ++t)
        both(t, t + 1, (t * 37) % 101);
    expectSameCurve(f, ref, 0, 4096);
    expectSameCurve(f, ref, 100, 3500);

    both(0, 4096, 50);  // covers every chunk: lazy adds
    expectSameCurve(f, ref, 0, 4096);
    both(10, 20, -30);  // inside one chunk, after its lazy add
    expectSameCurve(f, ref, 0, 64);
    both(31, 34, 40);   // straddles a chunk boundary
    expectSameCurve(f, ref, 0, 4096);
    both(-100, 7, 25);  // new first breakpoint: the curve was 0 before
    expectSameCurve(f, ref, -100, 4096);
    both(4000, 5000, 9);  // runs past the last breakpoint
    expectSameCurve(f, ref, -200, 6000);
    both(-100, 5000, -60);  // lowers everything, peak moves
    expectSameCurve(f, ref, -200, 6000);
    both(-300, 5000, 70);  // prepend, then a lazy add over its new span
    expectSameCurve(f, ref, -400, 6000);
}

TEST(PressureCurve, PrependWidensChunkBoundsBeforeALazyAdd)
{
    // A prepend carries the 0 in force before the first breakpoint into
    // chunk 0. An add that covers chunk 0 whole shifts its min and max
    // lazily, so they must already include that 0: first with chunk 0
    // holding only positive values, then only negative ones.
    for (std::int64_t sign : {1, -1}) {
        PressureCurve f;
        NaiveCurve ref;
        for (TimeNs t = 0; t < 100; ++t) {  // chunk 0 holds 0 .. 31
            f.add(t, t + 1, sign * (50 + t));
            ref.add(t, t + 1, sign * (50 + t));
        }
        f.add(-100, 35, sign * 10);  // chunk 0 whole, ends inside chunk 1
        ref.add(-100, 35, sign * 10);
        ASSERT_EQ(f.breakpoints(), ref.breakpoints());
        ASSERT_EQ(f.maxOver(-200, 120), ref.maxOver(-200, 120));
        for (std::int64_t thr : {-70, -20, -5, 0, 5, 20, 70})
            for (std::int64_t cap : {5, 20, 1000})
                ASSERT_EQ(f.integralAbove(-200, 120, thr, cap),
                          ref.integralAbove(-200, 120, thr, cap))
                    << sign << ": thr " << thr << " cap " << cap;
    }
}

TEST(PressureCurve, IntegralAboveSettlesEveryChunkClass)
{
    // 2048 one-tick steps with values in [100, 200]; each query puts
    // every chunk in one class: below the threshold and saturated are
    // settled from the chunk's max and min, the rest are scanned.
    PressureCurve f;
    NaiveCurve ref;
    for (TimeNs t = 0; t < 2048; ++t) {
        f.add(t, t + 1, 100 + (t * 37) % 101);
        ref.add(t, t + 1, 100 + (t * 37) % 101);
    }
    struct Query
    {
        std::int64_t thr, cap;
    };
    for (Query q : {Query{300, 50},    // below: every max <= thr
                    Query{40, 50},     // saturated: min - thr >= cap
                    Query{50, 1000},   // scanned: inside [thr, thr + cap]
                    Query{150, 20},    // scanned: straddling thr
                    Query{199, 50}})   // scanned: only the maxima > thr
        for (auto [t0, t1] : {std::pair<TimeNs, TimeNs>{0, 2048},
                              {13, 1999},       // partial edge chunks
                              {500, 501},       // inside one segment
                              {-500, 3000},     // past both ends
                              {2100, 2500},     // outside the support
                              {-90, -10}})
            ASSERT_EQ(f.integralAbove(t0, t1, q.thr, q.cap),
                      ref.integralAbove(t0, t1, q.thr, q.cap))
                << q.thr << "/" << q.cap << " [" << t0 << "," << t1 << ")";
    EXPECT_EQ(f.integralAbove(0, 2048, 40, 50), 50 * 2048);
    EXPECT_EQ(f.integralAbove(0, 2048, 300, 50), 0);
}

TEST(PressureCurveDifferential, ThousandsOfMixedOpsMatchNaive)
{
    // Byte-sized values and long spans over a wide time domain, so
    // chunks split, take lazy adds, and get prepended and appended to.
    PressureCurve f;
    NaiveCurve ref;
    Rng rng(20261017);
    constexpr TimeNs T = 1'000'000;
    auto time = [&] { return static_cast<TimeNs>(rng.uniformInt(-T / 10, T)); };

    for (int op = 0; op < 6000; ++op) {
        TimeNs t0 = time();
        TimeNs t1 = time();
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
          case 2: {  // range add (occasionally inverted)
            const std::int64_t d = rng.uniformInt(-(1 << 20), 1 << 20);
            f.add(t0, t1, d);
            ref.add(t0, t1, d);
            break;
          }
          case 3: {  // long add: most chunks covered whole
            const std::int64_t d = rng.uniformInt(-(1 << 24), 1 << 24);
            f.add(-T, 2 * T - t1, d);
            ref.add(-T, 2 * T - t1, d);
            break;
          }
          case 4:
            ASSERT_EQ(f.valueAt(t0), ref.valueAt(t0)) << op;
            break;
          case 5:
            ASSERT_EQ(f.maxOver(t0, t1), ref.maxOver(t0, t1)) << op;
            break;
          case 6:
          case 7: {
            // Thresholds near the curve, far below and far above it;
            // caps from tiny to unbounded; every other window short.
            if (op % 2)
                t1 = t0 + rng.uniformInt(1, 2000);
            const std::int64_t thr =
                ref.valueAt(time()) +
                rng.uniformInt(-(1 << 22), 1 << 22) *
                    rng.uniformInt(0, 8);
            const std::int64_t cap =
                std::int64_t{1} << rng.uniformInt(0, 40);
            ASSERT_EQ(f.integralAbove(t0, t1, thr, cap),
                      ref.integralAbove(t0, t1, thr, cap))
                << op;
            break;
          }
          case 8: {
            const TimeNs lo = std::min(t0, t1);
            const TimeNs hi = std::max(t0, t1);
            const std::int64_t d = rng.uniformInt(0, 1 << 22);
            const double limit =
                static_cast<double>(ref.valueAt(time())) +
                static_cast<double>(rng.uniformInt(0, 1 << 23)) + 0.5;
            ASSERT_EQ(f.earliestFit(lo, hi, hi + 8, d, limit),
                      ref.earliestFit(lo, hi, hi + 8, d, limit))
                << op;
            break;
          }
          case 9:
            ASSERT_EQ(f.maxValue(), ref.maxValue()) << op;
            break;
        }
    }
    ASSERT_GT(f.breakpoints().size(), 1000u);
    expectSameCurve(f, ref, -T, 2 * T);
}

TEST(PressureCurveDifferential, BuildMatchesOneAddPerInterval)
{
    // build() against add() per interval, on interval sets with
    // zero-length, inverted and zero-delta intervals and, on a short
    // time domain, many coincident endpoints.
    Rng rng(20261020);
    for (int round = 0; round < 60; ++round) {
        const TimeNs T = round % 3 == 0 ? 40 : 200'000;
        auto time = [&] {
            return static_cast<TimeNs>(rng.uniformInt(-T / 4, T));
        };
        std::vector<PressureCurve::Interval> intervals;
        const int n = static_cast<int>(rng.uniformInt(0, 300));
        for (int i = 0; i < n; ++i) {
            const TimeNs t0 = time();
            TimeNs t1 = t0 + rng.uniformInt(1, T / 4);
            switch (rng.uniformInt(0, 5)) {
              case 0: t1 = t0; break;      // zero length
              case 1: t1 = time(); break;  // maybe inverted
              default: break;
            }
            const std::int64_t d = rng.uniformInt(0, 6) == 0
                                       ? 0
                                       : rng.uniformInt(-(1 << 20), 1 << 30);
            intervals.push_back({t0, t1, d});
        }
        PressureCurve added;
        for (const PressureCurve::Interval& iv : intervals)
            added.add(iv.t0, iv.t1, iv.delta);
        PressureCurve built = PressureCurve::build(intervals);

        // A few adds after the build, so built chunks also split and
        // take lazy adds before the queries.
        for (int pass = 0; pass < 2; ++pass) {
            ASSERT_EQ(built.breakpoints(), added.breakpoints()) << round;
            ASSERT_EQ(built.maxValue(), added.maxValue()) << round;
            for (int q = 0; q < 100; ++q) {
                const TimeNs t0 = time();
                const TimeNs t1 = q % 2 ? t0 + rng.uniformInt(0, T / 8)
                                        : time();
                ASSERT_EQ(built.maxOver(t0, t1), added.maxOver(t0, t1));
                const std::int64_t thr = added.valueAt(time()) +
                                         rng.uniformInt(-(1 << 22), 1 << 22);
                const std::int64_t cap =
                    std::int64_t{1} << rng.uniformInt(0, 40);
                ASSERT_EQ(built.integralAbove(t0, t1, thr, cap),
                          added.integralAbove(t0, t1, thr, cap));
                const TimeNs lo = std::min(t0, t1);
                const TimeNs hi = std::max(t0, t1);
                const std::int64_t d = rng.uniformInt(0, 1 << 22);
                const double limit =
                    static_cast<double>(added.maxOver(lo, hi + 1)) +
                    static_cast<double>(rng.uniformInt(-(1 << 23), 1 << 23));
                ASSERT_EQ(built.earliestFit(lo, hi, hi + 8, d, limit),
                          added.earliestFit(lo, hi, hi + 8, d, limit));
            }
            for (int i = 0; i < 40; ++i) {
                const TimeNs t0 = time();
                const TimeNs t1 = t0 + rng.uniformInt(0, T / 2);
                const std::int64_t d = rng.uniformInt(-(1 << 20), 1 << 20);
                built.add(t0, t1, d);
                added.add(t0, t1, d);
            }
        }
    }
}

}  // namespace
}  // namespace g10
