#include "obs/attribution.h"

#include <algorithm>

#include "common/table.h"

namespace g10 {

namespace {

double
toMs(TimeNs ns)
{
    return static_cast<double>(ns) / 1e6;
}

}  // namespace

StallAttribution
buildStallAttribution(const std::vector<TraceEvent>& events, int pid)
{
    auto counted = [pid](const TraceEvent& ev) {
        return ev.pid == pid &&
               traceArgOf(ev, TraceArgKey::Measured) != 0 &&
               (ev.category == TraceCategory::Kernel ||
                ev.category == TraceCategory::Stall);
    };
    StallAttribution out;
    std::int64_t maxK = -1;
    for (const TraceEvent& ev : events)
        if (counted(ev))
            maxK = std::max(maxK, traceArgOf(ev, TraceArgKey::K, -1));
    out.rows.resize(static_cast<std::size_t>(maxK + 1));
    for (std::size_t k = 0; k < out.rows.size(); ++k)
        out.rows[k].kernel = static_cast<KernelId>(k);

    for (const TraceEvent& ev : events) {
        if (!counted(ev))
            continue;
        auto k =
            static_cast<std::size_t>(traceArgOf(ev, TraceArgKey::K, -1));
        if (k >= out.rows.size())
            continue;
        StallAttributionRow& row = out.rows[k];
        if (ev.category == TraceCategory::Kernel) {
            row.idealNs += traceArgOf(ev, TraceArgKey::IdealNs);
            row.actualNs += traceArgOf(ev, TraceArgKey::ActualNs);
            if (row.name.empty())
                row.name = ev.name;
        } else {
            auto cause = traceArgOf(ev, TraceArgKey::Cause, -1);
            if (cause >= 0 && cause < kNumStallCauses)
                row.causeNs[cause] += ev.dur;
        }
    }
    for (const StallAttributionRow& r : out.rows) {
        out.idealNs += r.idealNs;
        out.measuredNs += r.actualNs;
        for (int c = 0; c < kNumStallCauses; ++c)
            out.causeNs[c] += r.causeNs[c];
        out.noiseNs += r.noiseNs();
    }
    return out;
}

void
printStallAttribution(std::ostream& os, const StallAttribution& a,
                      std::size_t top_n)
{
    Table table("per-kernel stall attribution (measured iteration, ms)");
    table.setHeader({"k", "kernel", "ideal", "actual", "stall", "alloc",
                     "fault", "queue", "data", "noise"});

    // Rank by total slip; keep only kernels that actually stalled.
    std::vector<const StallAttributionRow*> ranked;
    for (const StallAttributionRow& r : a.rows)
        if (r.actualNs - r.idealNs != 0)
            ranked.push_back(&r);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const StallAttributionRow* x,
                        const StallAttributionRow* y) {
                         return (x->actualNs - x->idealNs) >
                                (y->actualNs - y->idealNs);
                     });
    if (ranked.size() > top_n)
        ranked.resize(top_n);

    for (const StallAttributionRow* r : ranked)
        table.addRowOf(static_cast<long long>(r->kernel), r->name,
                       toMs(r->idealNs), toMs(r->actualNs),
                       toMs(r->actualNs - r->idealNs),
                       toMs(r->causeNs[0]), toMs(r->causeNs[1]),
                       toMs(r->causeNs[2]), toMs(r->causeNs[3]),
                       toMs(r->noiseNs()));
    table.addRowOf("total", "(all kernels)", toMs(a.idealNs),
                   toMs(a.measuredNs), toMs(a.measuredNs - a.idealNs),
                   toMs(a.causeNs[0]), toMs(a.causeNs[1]),
                   toMs(a.causeNs[2]), toMs(a.causeNs[3]),
                   toMs(a.noiseNs));
    table.print(os);

    os << "attribution check: alloc + fault + queue + data + noise = "
       << toMs(a.attributedNs() + a.noiseNs)
       << " ms; measured - ideal = " << toMs(a.measuredNs - a.idealNs)
       << " ms ("
       << (a.attributedNs() + a.noiseNs == a.measuredNs - a.idealNs
               ? "exact"
               : "MISMATCH")
       << ")\n";
}

}  // namespace g10
