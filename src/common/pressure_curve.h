/**
 * @file
 * The GPU memory-pressure curve of G10's compile step: live bytes over
 * the ideal timeline (paper §4.3, Fig. 7).
 *
 * Every value is a sum of whole tensor sizes, so the curve is integer
 * valued (int64_t bytes) and the benefit area of Algorithm 1 is exact
 * (__int128 byte-nanoseconds).
 *
 * Representation: the sorted breakpoints live in a list of small
 * chunks (kChunk = 32 breakpoints each, split in two above
 * 2 * kChunk). Each chunk keeps the minimum and maximum of its values
 * plus a lazy add that applies to all of its stored values. A segment
 * belongs to the chunk of the breakpoint that starts it, so the last
 * segment of a chunk ends at the next chunk's first breakpoint.
 *
 *   - build() fills chunks of kChunk breakpoints from a sorted sweep.
 *   - add() shifts every fully covered chunk in O(1) (lazy, min and
 *     max move by the delta) and rescans only the two edge chunks.
 *   - A breakpoint insert goes into the chunk that holds the segment it
 *     splits (chunk 0 before the first breakpoint) and widens that
 *     chunk's min and max to the value it carries.
 *   - integralAbove() settles a chunk from its min and max: nothing
 *     above the threshold adds 0 and a saturated chunk adds cap × the
 *     span it covers, even where the window cuts it. The rest are
 *     scanned segment by segment.
 */

#ifndef G10_COMMON_PRESSURE_CURVE_H
#define G10_COMMON_PRESSURE_CURVE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types.h"

namespace g10 {

/**
 * A function f : TimeNs -> int64_t that is constant between
 * breakpoints. f is 0 everywhere initially. Mutations are range adds.
 */
class PressureCurve
{
  public:
    /** Exact area in value units × nanoseconds. */
    using Area = __int128;

    /** One range add of build(): @p delta over [t0, t1). */
    struct Interval
    {
        TimeNs t0;
        TimeNs t1;
        std::int64_t delta;
    };

    /**
     * The curve that add() of every interval in @p intervals builds,
     * made in one sorted sweep over their ±delta edges instead of one
     * add() each.
     */
    static PressureCurve build(const std::vector<Interval>& intervals);

    /** Add @p delta over the half-open interval [t0, t1). */
    void add(TimeNs t0, TimeNs t1, std::int64_t delta);

    /** Value at time @p t. */
    std::int64_t valueAt(TimeNs t) const;

    /** Maximum value over [t0, t1); 0 for empty intervals. */
    std::int64_t maxOver(TimeNs t0, TimeNs t1) const;

    /**
     * Global maximum (never below 0, the value outside the support):
     * one pass over the chunk maxima.
     */
    std::int64_t maxValue() const;

    /**
     * Integral over [t0, t1) of max(0, min(cap, f(t) − threshold)).
     *
     * With cap = tensor size this is exactly the paper's shaded
     * "benefit" area of evicting that tensor: the eviction cannot
     * lower pressure at an instant by more than the tensor's size.
     */
    Area integralAbove(TimeNs t0, TimeNs t1, std::int64_t threshold,
                       std::int64_t cap) const;

    /**
     * Latest t' <= t_latest such that f(t) + delta <= limit for all t in
     * [t', t_end). Returns t_latest if the condition already fails at
     * t_latest itself (the caller keeps the latest safe time), else the
     * earliest such t' bounded below by @p t_min. @p limit may be
     * fractional; the sums are compared in double.
     *
     * Used by the eager-prefetch pass (§4.4): search backward from the
     * latest safe prefetch time for the earliest time the whole tensor
     * fits under the capacity limit.
     */
    TimeNs earliestFit(TimeNs t_min, TimeNs t_latest, TimeNs t_end,
                       std::int64_t delta, double limit) const;

    /** Every (time, value) breakpoint in order (test seam). */
    std::vector<std::pair<TimeNs, std::int64_t>> breakpoints() const;

  private:
    /// Breakpoints per chunk after a split; a chunk splits above twice
    /// this.
    static constexpr std::size_t kChunk = 32;

    struct Chunk
    {
        Chunk();

        /** Recompute lo and hi from the stored values. */
        void rescan();

        std::vector<TimeNs> times;
        std::vector<std::int64_t> vals;  ///< stored without `lazy`
        std::int64_t lazy = 0;   ///< added to every stored value
        std::int64_t lo = 0;     ///< min value (lazy included)
        std::int64_t hi = 0;     ///< max value (lazy included)
    };

    /** A breakpoint position; {chunks_.size(), 0} is the end. */
    struct Pos
    {
        std::size_t c;
        std::size_t i;
    };

    /** First breakpoint with time > @p t (or >= when @p inclusive). */
    Pos find(TimeNs t, bool inclusive) const;
    Pos upperBound(TimeNs t) const { return find(t, false); }
    Pos lowerBound(TimeNs t) const { return find(t, true); }

    /** Value in force just before position @p p. */
    std::int64_t valueBefore(Pos p) const;

    /** Insert a breakpoint at @p t carrying the value in force there. */
    void ensureBreakpoint(TimeNs t);

    std::vector<Chunk> chunks_;
};

}  // namespace g10

#endif  // G10_COMMON_PRESSURE_CURVE_H
