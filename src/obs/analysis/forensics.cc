#include "obs/analysis/forensics.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/table.h"

namespace g10 {

namespace {

double
toMs(TimeNs ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Per-pid in-flight accounting while folding the stream. */
struct RequestState
{
    TimeNs admitNs = -1;
    TimeNs firstResizeNs = -1;  ///< first budget_shrink/split marker
    TimeNs stallNs = 0;         ///< stalls before the marker
    TimeNs resizeNs = 0;        ///< stalls at/after the marker
};

}  // namespace

const char*
SloBreach::dominantWait() const
{
    if (queueNs >= stallNs && queueNs >= resizeNs)
        return "queue";
    return stallNs >= resizeNs ? "stall" : "resize";
}

FleetForensics
analyzeFleetForensics(const std::vector<TraceEvent>& events,
                      int pid_stride)
{
    FleetForensics out;
    std::map<int, NodeSeries> nodes;
    std::map<int, std::vector<ForensicsPoint>> occupancyDeltas;
    std::map<int, RequestState> requests;

    auto nodeOf = [&](int pid) -> NodeSeries& {
        const int node = pid / pid_stride;
        NodeSeries& n = nodes[node];
        n.node = node;
        return n;
    };

    for (const TraceEvent& ev : events) {
        if (ev.category == TraceCategory::Stall &&
            ev.kind == TraceEventKind::Span) {
            RequestState& r = requests[ev.pid];
            if (r.firstResizeNs >= 0 && ev.ts >= r.firstResizeNs)
                r.resizeNs += ev.dur;
            else
                r.stallNs += ev.dur;
            continue;
        }
        if (ev.category == TraceCategory::Partition) {
            if (ev.name == "budget_shrink" || ev.name == "split") {
                RequestState& r = requests[ev.pid];
                if (r.firstResizeNs < 0)
                    r.firstResizeNs = ev.ts;
            }
            continue;
        }
        if (ev.category != TraceCategory::Serve)
            continue;

        NodeSeries& node = nodeOf(ev.pid);
        if (ev.name == "queue_depth") {
            const std::int64_t depth = traceArgOf(ev, TraceArgKey::Depth);
            node.queueDepth.push_back({ev.ts, depth});
            node.maxQueueDepth = std::max(node.maxQueueDepth, depth);
        } else if (ev.name == "admit") {
            ++node.admitted;
            requests[ev.pid].admitNs = ev.ts;
            occupancyDeltas[node.node].push_back({ev.ts, 1});
        } else if (ev.name == "reject") {
            ++node.rejected;
            ++out.rejections;
        } else if (ev.name == "depart" ||
                   ev.name == "depart_failed") {
            ++out.departures;
            ++node.departed;
            occupancyDeltas[node.node].push_back({ev.ts, -1});
            if (ev.name == "depart_failed") {
                ++out.failures;
                ++node.failed;
                continue;
            }
            const TimeNs sloLimit = traceArgOf(ev, TraceArgKey::SloLimitNs);
            if (sloLimit <= 0 ||
                traceArgOf(ev, TraceArgKey::SloMet, 1) != 0)
                continue;
            ++node.sloMissed;
            const RequestState& r = requests[ev.pid];
            SloBreach breach;
            breach.pid = ev.pid;
            breach.node = node.node;
            breach.cls = ev.detail;
            breach.arrivalNs =
                traceArgOf(ev, TraceArgKey::ArrivalNs, ev.ts);
            breach.departNs = ev.ts;
            breach.sloLimitNs = sloLimit;
            breach.queueNs = r.admitNs >= 0
                                 ? r.admitNs - breach.arrivalNs
                                 : 0;
            breach.stallNs = r.stallNs;
            breach.resizeNs = r.resizeNs;
            out.breaches.push_back(std::move(breach));
        }
    }

    // Occupancy = running sum of admit/depart deltas per node. The
    // traced placement streams each node sequentially, so deltas are
    // already time-ordered; the stable sort is belt and braces for
    // hand-built streams.
    for (auto& [nodeId, deltas] : occupancyDeltas) {
        std::stable_sort(deltas.begin(), deltas.end(),
                         [](const ForensicsPoint& a,
                            const ForensicsPoint& b) {
                             return a.ts < b.ts;
                         });
        NodeSeries& node = nodes[nodeId];
        std::int64_t inFlight = 0;
        for (const ForensicsPoint& d : deltas) {
            inFlight += d.value;
            node.occupancy.push_back({d.ts, inFlight});
            node.maxOccupancy =
                std::max(node.maxOccupancy, inFlight);
        }
    }

    out.nodes.reserve(nodes.size());
    for (auto& [nodeId, node] : nodes) {
        (void)nodeId;
        out.nodes.push_back(std::move(node));
    }
    return out;
}

void
printFleetForensics(std::ostream& os, const FleetForensics& f,
                    std::size_t top_n)
{
    Table nodeTable("per-node utilization");
    nodeTable.setHeader({"node", "admitted", "departed", "failed",
                         "rejected", "slo_missed", "max_queue",
                         "max_inflight"});
    for (const NodeSeries& n : f.nodes)
        nodeTable.addRowOf(
            static_cast<long long>(n.node), n.admitted, n.departed,
            n.failed, n.rejected, n.sloMissed,
            static_cast<long long>(n.maxQueueDepth),
            static_cast<long long>(n.maxOccupancy));
    nodeTable.print(os);

    std::vector<const SloBreach*> ranked;
    for (const SloBreach& b : f.breaches)
        ranked.push_back(&b);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const SloBreach* a, const SloBreach* b) {
                         return a->overshootNs() > b->overshootNs();
                     });
    if (ranked.size() > top_n)
        ranked.resize(top_n);

    Table breachTable("worst SLO breaches (ms)");
    breachTable.setHeader({"node", "pid", "class", "latency", "slo",
                           "overshoot", "queue", "stall", "resize",
                           "dominant"});
    for (const SloBreach* b : ranked)
        breachTable.addRowOf(
            static_cast<long long>(b->node),
            static_cast<long long>(b->pid), b->cls,
            toMs(b->latencyNs()), toMs(b->sloLimitNs),
            toMs(b->overshootNs()), toMs(b->queueNs),
            toMs(b->stallNs), toMs(b->resizeNs), b->dominantWait());
    breachTable.print(os);

    os << "forensics: " << f.departures << " departures, "
       << f.breaches.size() << " SLO breaches, " << f.failures
       << " failures, " << f.rejections << " rejections across "
       << f.nodes.size() << " node(s)\n";
}

}  // namespace g10
