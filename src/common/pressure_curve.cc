#include "pressure_curve.h"

#include <algorithm>

namespace g10 {

PressureCurve::Pos
PressureCurve::find(TimeNs t, bool inclusive) const
{
    // The last chunk starting before t (at or before t for an upper
    // bound) holds the answer, or it is that chunk's successor's first.
    auto it = std::partition_point(
        chunks_.begin(), chunks_.end(), [&](const Chunk& ch) {
            return inclusive ? ch.times.front() < t : ch.times.front() <= t;
        });
    if (it == chunks_.begin())
        return {0, 0};
    const auto c = static_cast<std::size_t>(it - chunks_.begin()) - 1;
    const std::vector<TimeNs>& ts = chunks_[c].times;
    auto j = inclusive ? std::lower_bound(ts.begin(), ts.end(), t)
                       : std::upper_bound(ts.begin(), ts.end(), t);
    const auto i = static_cast<std::size_t>(j - ts.begin());
    if (i == ts.size())
        return {c + 1, 0};
    return {c, i};
}

std::int64_t
PressureCurve::valueBefore(Pos p) const
{
    if (p.i > 0)
        return chunks_[p.c].vals[p.i - 1] + chunks_[p.c].lazy;
    if (p.c > 0)
        return chunks_[p.c - 1].vals.back() + chunks_[p.c - 1].lazy;
    return 0;
}

PressureCurve::Chunk::Chunk()
{
    times.reserve(2 * kChunk + 1);
    vals.reserve(2 * kChunk + 1);
}

void
PressureCurve::Chunk::rescan()
{
    const auto [min, max] = std::minmax_element(vals.begin(), vals.end());
    lo = *min + lazy;
    hi = *max + lazy;
}

PressureCurve
PressureCurve::build(const std::vector<Interval>& intervals)
{
    // Every interval add() would apply puts a breakpoint at both ends;
    // in time order, the running sum of the edges' deltas is the value
    // from each breakpoint on (0 after the last).
    std::vector<std::pair<TimeNs, std::int64_t>> edges;
    edges.reserve(2 * intervals.size());
    for (const Interval& iv : intervals) {
        if (iv.t1 <= iv.t0 || iv.delta == 0)
            continue;  // add() ignores these
        edges.emplace_back(iv.t0, iv.delta);
        edges.emplace_back(iv.t1, -iv.delta);
    }
    std::sort(edges.begin(), edges.end());

    PressureCurve f;
    std::int64_t value = 0;
    for (std::size_t i = 0; i < edges.size();) {
        const TimeNs t = edges[i].first;
        for (; i < edges.size() && edges[i].first == t; ++i)
            value += edges[i].second;
        if (f.chunks_.empty() || f.chunks_.back().times.size() == kChunk)
            f.chunks_.emplace_back();
        f.chunks_.back().times.push_back(t);
        f.chunks_.back().vals.push_back(value);
    }
    for (Chunk& ch : f.chunks_)
        ch.rescan();
    return f;
}

void
PressureCurve::ensureBreakpoint(TimeNs t)
{
    if (chunks_.empty()) {
        Chunk& ch = chunks_.emplace_back();  // lo = hi = 0
        ch.times.push_back(t);
        ch.vals.push_back(0);
        return;
    }
    const Pos p = lowerBound(t);
    if (p.c < chunks_.size() && chunks_[p.c].times[p.i] == t)
        return;

    // The breakpoint goes into the chunk of the one before it (chunk 0
    // when it becomes the first) and carries the value in force at t:
    // that segment's value, or the 0 before the first breakpoint.
    const std::size_t c = (p.i > 0 || p.c == 0) ? p.c : p.c - 1;
    Chunk& ch = chunks_[c];
    const std::size_t i = (c == p.c) ? p.i : ch.times.size();
    const std::int64_t v = valueBefore(p);
    ch.lo = std::min(ch.lo, v);
    ch.hi = std::max(ch.hi, v);
    ch.times.insert(ch.times.begin() + static_cast<std::ptrdiff_t>(i), t);
    ch.vals.insert(ch.vals.begin() + static_cast<std::ptrdiff_t>(i),
                   v - ch.lazy);
    if (ch.times.size() <= 2 * kChunk)
        return;

    // Split an over-full chunk in two; both halves keep the lazy add.
    Chunk tail;
    tail.times.assign(ch.times.begin() + kChunk, ch.times.end());
    tail.vals.assign(ch.vals.begin() + kChunk, ch.vals.end());
    tail.lazy = ch.lazy;
    tail.rescan();
    ch.times.resize(kChunk);
    ch.vals.resize(kChunk);
    ch.rescan();
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                   std::move(tail));
}

void
PressureCurve::add(TimeNs t0, TimeNs t1, std::int64_t delta)
{
    if (t1 <= t0 || delta == 0)
        return;
    ensureBreakpoint(t0);
    ensureBreakpoint(t1);
    const Pos a = lowerBound(t0);
    const Pos b = lowerBound(t1);  // after a, since t1 > t0

    // Chunks a.c .. last hold the covered breakpoints; the ones covered
    // whole take the delta lazily, the (at most two) edges are rescanned.
    const std::size_t last = (b.i > 0) ? b.c : b.c - 1;
    for (std::size_t c = a.c; c <= last; ++c) {
        Chunk& ch = chunks_[c];
        const std::size_t i0 = (c == a.c) ? a.i : 0;
        const std::size_t i1 = (c == b.c) ? b.i : ch.times.size();
        if (i0 == 0 && i1 == ch.times.size()) {
            ch.lazy += delta;
            ch.lo += delta;
            ch.hi += delta;
            continue;
        }
        for (std::size_t i = i0; i < i1; ++i)
            ch.vals[i] += delta;
        ch.rescan();
    }
}

std::int64_t
PressureCurve::valueAt(TimeNs t) const
{
    return valueBefore(upperBound(t));
}

std::int64_t
PressureCurve::maxOver(TimeNs t0, TimeNs t1) const
{
    if (t1 <= t0)
        return 0;
    const Pos p = upperBound(t0);
    const Pos e = lowerBound(t1);
    std::int64_t best = valueBefore(p);
    for (std::size_t c = p.c; c < e.c || (c == e.c && e.i > 0); ++c) {
        const Chunk& ch = chunks_[c];
        const std::size_t i0 = (c == p.c) ? p.i : 0;
        const std::size_t i1 = (c == e.c) ? e.i : ch.times.size();
        if (i0 == 0 && i1 == ch.times.size()) {
            best = std::max(best, ch.hi);
            continue;
        }
        for (std::size_t i = i0; i < i1; ++i)
            best = std::max(best, ch.vals[i] + ch.lazy);
    }
    return best;
}

std::int64_t
PressureCurve::maxValue() const
{
    std::int64_t peak = 0;
    for (const Chunk& ch : chunks_)
        peak = std::max(peak, ch.hi);
    return peak;
}

PressureCurve::Area
PressureCurve::integralAbove(TimeNs t0, TimeNs t1, std::int64_t threshold,
                             std::int64_t cap) const
{
    if (t1 <= t0 || cap <= 0)
        return 0;

    // Head segment [t0, first breakpoint past t0), value in force at t0.
    const Pos p = upperBound(t0);
    const Pos e = lowerBound(t1);
    const TimeNs headEnd = (p.c < chunks_.size())
        ? std::min(chunks_[p.c].times[p.i], t1)
        : t1;
    const std::int64_t headExcess = valueBefore(p) - threshold;
    Area area = (headExcess > 0)
        ? static_cast<Area>(std::min(headExcess, cap)) * (headEnd - t0)
        : 0;

    // Body: breakpoints inside the window, chunk by chunk. A chunk's min
    // and max bound every segment it covers, so a chunk below the
    // threshold or saturated is settled in O(1) even where the window
    // cuts it; the rest are scanned segment by segment.
    for (std::size_t c = p.c; c < e.c || (c == e.c && e.i > 0); ++c) {
        const Chunk& ch = chunks_[c];
        if (ch.hi <= threshold)
            continue;  // nothing above the threshold
        const std::size_t i0 = (c == p.c) ? p.i : 0;
        const std::size_t i1 = (c == e.c) ? e.i : ch.times.size();
        if (i0 == i1)
            break;  // the window holds no breakpoint; the head covered it
        // Where the last covered segment ends: inside the chunk it is cut
        // by t1; the last breakpoint's segment (value 0) runs to t1.
        const bool next = i1 == ch.times.size() && c + 1 < chunks_.size();
        const TimeNs end =
            next ? std::min(chunks_[c + 1].times.front(), t1) : t1;
        if (ch.lo - threshold >= cap) {
            area += static_cast<Area>(cap) * (end - ch.times[i0]);
            continue;  // saturated
        }
        for (std::size_t i = i0; i < i1; ++i) {
            const std::int64_t excess = ch.vals[i] + ch.lazy - threshold;
            if (excess > 0)
                area += static_cast<Area>(std::min(excess, cap)) *
                    ((i + 1 < i1 ? ch.times[i + 1] : end) - ch.times[i]);
        }
    }
    return area;
}

TimeNs
PressureCurve::earliestFit(TimeNs t_min, TimeNs t_latest, TimeNs t_end,
                           std::int64_t delta, double limit) const
{
    if (t_latest < t_min)
        return t_latest;

    // The prefetch must fit from its issue time t' all the way to t_end
    // (when the tensor turns active and is accounted for by the kernel
    // itself). If even the latest position overflows, report t_latest
    // and let the caller keep the latest-safe schedule (capacity is then
    // handled at runtime by demand eviction).
    const double d = static_cast<double>(delta);
    if (static_cast<double>(maxOver(t_latest, std::max(t_latest + 1, t_end))) +
            d > limit)
        return t_latest;

    // Walk breakpoints at or before t_latest from the right; the answer
    // is the start of the earliest contiguous run whose value + delta
    // stays within limit.
    TimeNs candidate = t_latest;
    Pos q = upperBound(t_latest);
    while (true) {
        if (q.c == 0 && q.i == 0) {
            // Value is 0 all the way back to -inf.
            if (d <= limit)
                candidate = t_min;
            break;
        }
        if (q.i == 0) {
            // Entering the previous chunk from its end: take it whole
            // when every value fits and it starts after t_min.
            const Chunk& ch = chunks_[q.c - 1];
            if (static_cast<double>(ch.hi) + d <= limit &&
                ch.times.front() > t_min) {
                candidate = ch.times.front();
                q = {q.c - 1, 0};
                continue;
            }
            q = {q.c - 1, ch.times.size()};
        }
        --q.i;
        const Chunk& ch = chunks_[q.c];
        if (static_cast<double>(ch.vals[q.i] + ch.lazy) + d > limit)
            break;  // this segment would overflow
        candidate = std::max(t_min, ch.times[q.i]);
        if (ch.times[q.i] <= t_min)
            break;
    }
    return candidate;
}

std::vector<std::pair<TimeNs, std::int64_t>>
PressureCurve::breakpoints() const
{
    std::vector<std::pair<TimeNs, std::int64_t>> out;
    for (const Chunk& ch : chunks_)
        for (std::size_t i = 0; i < ch.times.size(); ++i)
            out.emplace_back(ch.times[i], ch.vals[i] + ch.lazy);
    return out;
}

}  // namespace g10
