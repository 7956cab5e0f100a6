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

/** Shared accumulation over pre-sized rows (names already set). */
void
accumulateStallEvents(const std::vector<TraceEvent>& events, int pid,
                      StallAttribution* out)
{
    for (const TraceEvent& ev : events) {
        if (ev.pid != pid || traceArgOf(ev, TraceArgKey::Measured) == 0)
            continue;
        auto k =
            static_cast<std::size_t>(traceArgOf(ev, TraceArgKey::K, -1));
        if (k >= out->rows.size())
            continue;
        if (ev.category == TraceCategory::Kernel) {
            out->rows[k].idealNs += traceArgOf(ev, TraceArgKey::IdealNs);
            out->rows[k].actualNs += traceArgOf(ev, TraceArgKey::ActualNs);
            if (out->rows[k].name.empty())
                out->rows[k].name = ev.name;
        } else if (ev.category == TraceCategory::Stall) {
            auto cause = traceArgOf(ev, TraceArgKey::Cause, -1);
            if (cause >= 0 && cause < kNumStallCauses)
                out->rows[k].causeNs[cause] += ev.dur;
        }
    }
    for (const StallAttributionRow& r : out->rows) {
        out->idealNs += r.idealNs;
        out->measuredNs += r.actualNs;
        for (int c = 0; c < kNumStallCauses; ++c)
            out->causeNs[c] += r.causeNs[c];
        out->noiseNs += r.noiseNs();
    }
}

}  // namespace

StallAttribution
buildStallAttribution(const std::vector<TraceEvent>& events,
                      const KernelTrace& trace, int pid)
{
    StallAttribution out;
    out.rows.resize(trace.numKernels());
    for (std::size_t k = 0; k < trace.numKernels(); ++k) {
        out.rows[k].kernel = static_cast<KernelId>(k);
        out.rows[k].name = trace.kernel(static_cast<KernelId>(k)).name;
    }

    accumulateStallEvents(events, pid, &out);
    return out;
}

StallAttribution
buildStallAttributionFromEvents(const std::vector<TraceEvent>& events,
                                int pid)
{
    StallAttribution out;
    std::int64_t maxK = -1;
    for (const TraceEvent& ev : events) {
        if (ev.pid != pid || traceArgOf(ev, TraceArgKey::Measured) == 0)
            continue;
        if (ev.category == TraceCategory::Kernel ||
            ev.category == TraceCategory::Stall)
            maxK = std::max(maxK, traceArgOf(ev, TraceArgKey::K, -1));
    }
    out.rows.resize(static_cast<std::size_t>(maxK + 1));
    for (std::size_t k = 0; k < out.rows.size(); ++k)
        out.rows[k].kernel = static_cast<KernelId>(k);
    accumulateStallEvents(events, pid, &out);
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
