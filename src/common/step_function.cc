#include "step_function.h"

#include <algorithm>

namespace g10 {

std::size_t
StepFunction::ensureBreakpoint(TimeNs t)
{
    auto it = std::lower_bound(times_.begin(), times_.end(), t);
    auto idx = static_cast<std::size_t>(it - times_.begin());
    if (it != times_.end() && *it == t)
        return idx;
    // A new breakpoint carries the value in force at t, so the function
    // itself is unchanged by the insertion.
    double prev = (idx == 0) ? 0.0 : vals_[idx - 1];
    times_.insert(it, t);
    vals_.insert(vals_.begin() + static_cast<std::ptrdiff_t>(idx), prev);
    return idx;
}

void
StepFunction::add(TimeNs t0, TimeNs t1, double delta)
{
    if (t1 <= t0 || delta == 0.0)
        return;

    std::size_t i0 = ensureBreakpoint(t0);
    std::size_t i1 = ensureBreakpoint(t1);  // i1 > i0 since t1 > t0

    for (std::size_t i = i0; i < i1; ++i)
        vals_[i] += delta;
}

double
StepFunction::valueAt(TimeNs t) const
{
    std::size_t idx = upperBound(t);
    return (idx == 0) ? 0.0 : vals_[idx - 1];
}

std::vector<StepFunction::Segment>
StepFunction::segments(TimeNs t0, TimeNs t1) const
{
    std::vector<Segment> out;
    if (t1 <= t0)
        return out;
    for (Cursor c = cursor(t0, t1); !c.done(); c.next())
        out.push_back(Segment{c.begin(), c.end(), c.value()});
    return out;
}

void
StepFunction::compact()
{
    // In-place two-pointer sweep keeping only breakpoints that change
    // the value: any dropped value is duplicated by the kept breakpoint
    // before it (or is the implicit leading 0).
    double prev = 0.0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < times_.size(); ++r) {
        if (vals_[r] == prev)
            continue;
        times_[w] = times_[r];
        vals_[w] = vals_[r];
        prev = vals_[w];
        ++w;
    }
    times_.resize(w);
    vals_.resize(w);
}

}  // namespace g10
