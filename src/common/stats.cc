#include "stats.h"

#include <numeric>

namespace g10 {

double
Distribution::sum() const
{
    return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double
Distribution::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum() / static_cast<double>(samples_.size());
}

double
Distribution::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Distribution::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

const std::vector<double>&
Distribution::sorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return samples_;
}

double
Distribution::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const auto& s = sorted();
    if (s.size() == 1)
        return s[0];
    double idx = p * static_cast<double>(s.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    auto hi = std::min(lo + 1, s.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double
Distribution::fractionAbove(double v) const
{
    if (samples_.empty())
        return 0.0;
    const auto& s = sorted();
    auto it = std::upper_bound(s.begin(), s.end(), v);
    return static_cast<double>(s.end() - it) /
           static_cast<double>(s.size());
}

}  // namespace g10
