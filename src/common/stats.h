/**
 * @file
 * Exact sample distributions (every sample kept; exact percentiles),
 * the statistics container used across the simulator.
 */

#ifndef G10_COMMON_STATS_H
#define G10_COMMON_STATS_H

#include <algorithm>
#include <vector>

#include "types.h"

namespace g10 {

/**
 * An exact sample distribution. Stores every sample; fine for the
 * per-kernel and per-period populations in this simulator (<= a few 10^5).
 */
class Distribution
{
  public:
    /** Record one sample. */
    void add(double v) { samples_.push_back(v); sorted_ = false; }

    /** Number of samples recorded. */
    std::size_t count() const { return samples_.size(); }

    /** Sum of all samples. */
    double sum() const;

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /**
     * Exact p-quantile with linear interpolation, p in [0,1].
     * 0 when empty.
     */
    double percentile(double p) const;

    /** Fraction of samples strictly greater than @p v. */
    double fractionAbove(double v) const;

    /** All samples, ascending (sorts lazily). */
    const std::vector<double>& sorted() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

}  // namespace g10

#endif  // G10_COMMON_STATS_H
