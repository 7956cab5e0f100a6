/**
 * @file
 * Piecewise-constant double-valued function over simulated time: the
 * per-link bandwidth occupancy timelines (busy fraction vs. time) of
 * BandwidthModel. (The integer memory-pressure curve is PressureCurve.)
 *
 * Representation: flat sorted breakpoint arrays (structure-of-arrays:
 * `times_[i]` holds breakpoint i, `vals_[i]` the value on
 * [times_[i], times_[i+1])) instead of a node-based std::map. Lookups
 * are binary searches over a contiguous TimeNs array and range updates
 * touch a contiguous double span. Values are updated eagerly (no lazy
 * tags), so every operation reproduces the historical map-based
 * implementation's floating-point accumulation order bit for bit.
 * (BandwidthModel owns the regrouping its compact() cadence
 * introduces; the golden-determinism suite pins the combined result.)
 *
 * Iteration over segments goes through the allocation-free Cursor
 * instead of materializing a std::vector<Segment> per query; the
 * bandwidth model's drain walks exit early without ever building the
 * full horizon.
 */

#ifndef G10_COMMON_STEP_FUNCTION_H
#define G10_COMMON_STEP_FUNCTION_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "types.h"

namespace g10 {

/**
 * A function f : TimeNs -> double that is constant between breakpoints.
 * f is 0 everywhere initially. Mutations are range additions.
 */
class StepFunction
{
  public:
    /** A maximal constant segment [begin, end) with value. */
    struct Segment
    {
        TimeNs begin;
        TimeNs end;
        double value;
    };

    /**
     * Allocation-free forward iteration over the constant segments
     * covering a query window [t0, t1). The cursor yields the same
     * tiling segments(t0, t1) would materialize, one at a time:
     *
     *   for (auto c = f.cursor(t0, t1); !c.done(); c.next())
     *       use(c.begin(), c.end(), c.value());
     *
     * Must not outlive the StepFunction, and is invalidated by any
     * mutation of it.
     */
    class Cursor
    {
      public:
        /** True once the window is exhausted. */
        bool done() const { return cur_ >= t1_; }

        /** Start of the current segment (clamped to the window). */
        TimeNs begin() const { return cur_; }

        /** End of the current segment (clamped to the window). */
        TimeNs end() const { return segEnd_; }

        /** Value of f over [begin(), end()). */
        double value() const { return val_; }

        /** Advance to the next segment. */
        void
        next()
        {
            cur_ = segEnd_;
            if (idx_ < f_->times_.size() && f_->times_[idx_] == cur_) {
                val_ = f_->vals_[idx_];
                ++idx_;
            }
            segEnd_ = (idx_ < f_->times_.size())
                ? std::min<TimeNs>(f_->times_[idx_], t1_)
                : t1_;
        }

      private:
        friend class StepFunction;

        Cursor(const StepFunction& f, TimeNs t0, TimeNs t1)
            : f_(&f), idx_(f.upperBound(t0)), cur_(t0), t1_(t1)
        {
            val_ = (idx_ == 0) ? 0.0 : f.vals_[idx_ - 1];
            segEnd_ = (idx_ < f.times_.size())
                ? std::min<TimeNs>(f.times_[idx_], t1)
                : t1;
        }

        const StepFunction* f_;
        std::size_t idx_;  ///< next breakpoint index past cur_
        TimeNs cur_;
        TimeNs segEnd_;
        TimeNs t1_;
        double val_;
    };

    StepFunction() = default;

    /** Add @p delta over the half-open interval [t0, t1). */
    void add(TimeNs t0, TimeNs t1, double delta);

    /** Value at time @p t. */
    double valueAt(TimeNs t) const;

    /** Segment cursor over the window [t0, t1); see Cursor. */
    Cursor cursor(TimeNs t0, TimeNs t1) const
    {
        return Cursor(*this, t0, t1);
    }

    /** Dump all maximal segments intersecting [t0, t1). */
    std::vector<Segment> segments(TimeNs t0, TimeNs t1) const;

    /** Number of internal breakpoints (for complexity tests). */
    std::size_t breakpointCount() const { return times_.size(); }

    /** Remove breakpoints that no longer change the value. */
    void compact();

  private:
    /** Index of the first breakpoint with time > @p t. */
    std::size_t
    upperBound(TimeNs t) const
    {
        return static_cast<std::size_t>(
            std::upper_bound(times_.begin(), times_.end(), t) -
            times_.begin());
    }

    /**
     * Index of the breakpoint at exactly @p t, inserting one carrying
     * the current value if absent.
     */
    std::size_t ensureBreakpoint(TimeNs t);

    // Breakpoints ascending; vals_[i] is the value from times_[i] until
    // times_[i+1]. The value before times_[0] is 0.
    std::vector<TimeNs> times_;
    std::vector<double> vals_;
};

}  // namespace g10

#endif  // G10_COMMON_STEP_FUNCTION_H
