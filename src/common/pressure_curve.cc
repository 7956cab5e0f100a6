#include "pressure_curve.h"

#include <algorithm>
#include <limits>

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

TimeNs
PressureCurve::segmentEnd(std::size_t c, std::size_t i) const
{
    const Chunk& ch = chunks_[c];
    if (i + 1 < ch.times.size())
        return ch.times[i + 1];
    if (c + 1 < chunks_.size())
        return chunks_[c + 1].times.front();
    return ch.times[i];
}

void
PressureCurve::rescan(std::size_t c)
{
    Chunk& ch = chunks_[c];
    ch.lo = std::numeric_limits<std::int64_t>::max();
    ch.hi = std::numeric_limits<std::int64_t>::min();
    ch.dur = 0;
    ch.area = 0;
    for (std::size_t i = 0; i < ch.times.size(); ++i) {
        const std::int64_t v = ch.vals[i] + ch.lazy;
        const TimeNs d = segmentEnd(c, i) - ch.times[i];
        ch.lo = std::min(ch.lo, v);
        ch.hi = std::max(ch.hi, v);
        ch.dur += d;
        ch.area += static_cast<Area>(v) * d;
    }
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
        if (f.chunks_.empty() || f.chunks_.back().times.size() == kChunk) {
            Chunk& ch = f.chunks_.emplace_back();
            ch.times.reserve(2 * kChunk + 1);
            ch.vals.reserve(2 * kChunk + 1);
        }
        f.chunks_.back().times.push_back(t);
        f.chunks_.back().vals.push_back(value);
    }
    for (std::size_t c = 0; c < f.chunks_.size(); ++c) {
        f.rescan(c);
        f.peak_ = std::max(f.peak_, f.chunks_[c].hi);
    }
    return f;
}

void
PressureCurve::ensureBreakpoint(TimeNs t)
{
    if (chunks_.empty()) {
        Chunk ch;
        ch.times.reserve(2 * kChunk + 1);
        ch.vals.reserve(2 * kChunk + 1);
        ch.times.push_back(t);
        ch.vals.push_back(0);
        chunks_.push_back(std::move(ch));
        return;
    }
    const Pos p = lowerBound(t);
    if (p.c < chunks_.size() && chunks_[p.c].times[p.i] == t)
        return;

    std::size_t c = 0;
    if (p.c == 0 && p.i == 0) {
        // Before the first breakpoint: the curve is 0 on [t, first).
        Chunk& ch = chunks_[0];
        ch.dur += ch.times.front() - t;
        ch.lo = std::min<std::int64_t>(ch.lo, 0);
        ch.hi = std::max<std::int64_t>(ch.hi, 0);
        ch.times.insert(ch.times.begin(), t);
        ch.vals.insert(ch.vals.begin(), -ch.lazy);
    } else {
        // Split the segment of the breakpoint just before p inside that
        // breakpoint's chunk: both halves keep its value, so the
        // chunk's aggregates stand — unless it was the last breakpoint,
        // whose zero-length segment (value 0) now runs to t.
        c = (p.i > 0) ? p.c : p.c - 1;
        Chunk& ch = chunks_[c];
        const std::size_t i = (p.i > 0) ? p.i : ch.times.size();
        if (c + 1 == chunks_.size() && i == ch.times.size())
            ch.dur += t - ch.times.back();
        const std::int64_t v = ch.vals[i - 1];
        ch.times.insert(ch.times.begin() + static_cast<std::ptrdiff_t>(i),
                        t);
        ch.vals.insert(ch.vals.begin() + static_cast<std::ptrdiff_t>(i), v);
    }

    if (chunks_[c].times.size() <= 2 * kChunk)
        return;
    // Split an over-full chunk in two; both halves keep the lazy add.
    Chunk tail;
    Chunk& head = chunks_[c];
    tail.times.reserve(2 * kChunk + 1);
    tail.vals.reserve(2 * kChunk + 1);
    tail.times.assign(head.times.begin() + kChunk, head.times.end());
    tail.vals.assign(head.vals.begin() + kChunk, head.vals.end());
    tail.lazy = head.lazy;
    head.times.resize(kChunk);
    head.vals.resize(kChunk);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                   std::move(tail));
    rescan(c);
    rescan(c + 1);
}

void
PressureCurve::addPartial(std::size_t c, std::size_t i0, std::size_t i1,
                          std::int64_t delta)
{
    Chunk& ch = chunks_[c];
    for (std::size_t i = i0; i < i1; ++i)
        ch.vals[i] += delta;
    rescan(c);
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
    std::int64_t before = std::numeric_limits<std::int64_t>::min();
    std::int64_t after = before;
    for (std::size_t c = a.c; c <= last; ++c) {
        Chunk& ch = chunks_[c];
        before = std::max(before, ch.hi);
        const std::size_t i0 = (c == a.c) ? a.i : 0;
        const std::size_t i1 = (c == b.c) ? b.i : ch.times.size();
        if (i0 == 0 && i1 == ch.times.size()) {
            ch.lazy += delta;
            ch.lo += delta;
            ch.hi += delta;
            ch.area += static_cast<Area>(delta) * ch.dur;
        } else {
            addPartial(c, i0, i1, delta);
        }
        after = std::max(after, ch.hi);
    }

    if (!peakDirty_) {
        if (delta > 0)
            peak_ = std::max(peak_, after);  // only the touched chunks grew
        else if (before >= peak_)
            peakDirty_ = true;  // the peak may have lived in the lowered span
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
    if (peakDirty_) {
        peak_ = 0;
        for (const Chunk& ch : chunks_)
            peak_ = std::max(peak_, ch.hi);
        peakDirty_ = false;
    }
    return peak_;
}

PressureCurve::Area
PressureCurve::scanArea(std::size_t c, std::size_t i0, std::size_t i1,
                        TimeNs t1, std::int64_t threshold,
                        std::int64_t cap) const
{
    const Chunk& ch = chunks_[c];
    Area area = 0;
    for (std::size_t i = i0; i < i1; ++i) {
        const std::int64_t excess = ch.vals[i] + ch.lazy - threshold;
        if (excess <= 0)
            continue;
        // The last breakpoint's segment (value 0) runs to the window end.
        const TimeNs end = (i + 1 < ch.times.size() || c + 1 < chunks_.size())
            ? std::min(segmentEnd(c, i), t1)
            : t1;
        area += static_cast<Area>(std::min(excess, cap)) *
            (end - ch.times[i]);
    }
    return area;
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
    // cuts it; Σ value × duration settles only a chunk covered whole.
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
        const bool whole =
            i0 == 0 && next && chunks_[c + 1].times.front() <= t1;
        if (whole && ch.lo >= threshold && ch.hi - threshold <= cap) {
            area += ch.area - static_cast<Area>(threshold) * ch.dur;
            continue;
        }
        area += scanArea(c, i0, i1, t1, threshold, cap);
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
