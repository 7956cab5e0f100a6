/** @file Fleet forensics tests: per-node series and breach
 *  attribution on a hand-built multi-node serve stream, the
 *  queue/stall/resize dominance tie order, the self-contained
 *  departure event (args + serve.slo_missed counter), and the
 *  acceptance criterion that every analyzer is bit-identical across
 *  ExperimentEngine worker counts on a real fleet trace. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/report.h"
#include "engine/experiment_engine.h"
#include "fleet/fleet_sim.h"
#include "obs/analysis/critical_path.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/analysis/flame.h"
#include "obs/analysis/forensics.h"
#include "obs/tracer.h"

namespace g10 {
namespace {

constexpr int kStride = 10;  // small stride for hand-built streams

/** Two nodes' worth of serve traffic. Node 0: one breach dominated by
 *  a mid-flight budget shrink, one met request, one rejection, one
 *  failure. Node 1 (behind a PidOffsetSink, as in the fleet): one
 *  breach dominated by admission queueing. */
MemoryTraceSink
twoNodeStream()
{
    MemoryTraceSink sink;
    Tracer t0(&sink, nullptr);
    t0.queueDepth(2, 100);
    t0.queueDepth(5, 200);

    // pid 1: queue 300, stall 100, then a shrink marker turns the
    // 600 ns stall after it into resize time.
    t0.admission(1, "hi", 100, 400, 1024, true);
    t0.stallSpan(1, StallCause::Alloc, 0, 500, 100, true);
    t0.budgetResize(1, 1000, 800, 0, 700);  // "budget_shrink"
    t0.stallSpan(1, StallCause::Data, 0, 800, 600, true);
    t0.departure(1, "hi", 100, 2000, false, 1500, false);

    // pid 2: met its SLO.
    t0.admission(2, "lo", 150, 300, 1024, true);
    t0.departure(2, "lo", 150, 900, false, 2000, true);

    // pid 3: never admitted.
    t0.rejection(3, "lo", 120);

    // pid 4: failed in flight — not an SLO breach.
    t0.admission(4, "hi", 200, 250, 1024, false);
    t0.departure(4, "hi", 200, 1000, true, 1500, false);

    // Node 1, pids offset exactly the way FleetSim wires it.
    PidOffsetSink node1(&sink, 12);
    Tracer t1(&node1, nullptr);
    t1.admission(0, "hi", 1000, 2500, 1024, true);
    t1.stallSpan(0, StallCause::Alloc, 0, 2600, 200, true);
    t1.departure(0, "hi", 1000, 4200, false, 3000, false);
    return sink;
}

TEST(Forensics, BuildsPerNodeSeriesAndBreachTable)
{
    FleetForensics f =
        analyzeFleetForensics(twoNodeStream().events(), kStride);

    EXPECT_EQ(f.departures, 4u);
    EXPECT_EQ(f.failures, 1u);
    EXPECT_EQ(f.rejections, 1u);

    ASSERT_EQ(f.nodes.size(), 2u);
    const NodeSeries& n0 = f.nodes[0];
    EXPECT_EQ(n0.node, 0);
    EXPECT_EQ(n0.admitted, 3u);
    EXPECT_EQ(n0.departed, 3u);
    EXPECT_EQ(n0.failed, 1u);
    EXPECT_EQ(n0.rejected, 1u);
    EXPECT_EQ(n0.sloMissed, 1u);
    EXPECT_EQ(n0.maxQueueDepth, 5);
    ASSERT_EQ(n0.queueDepth.size(), 2u);
    EXPECT_EQ(n0.queueDepth[1].value, 5);

    // Occupancy is the prefix sum of admit/depart deltas in time
    // order: +1@250, +1@300, +1@400, -1@900, -1@1000, -1@2000.
    ASSERT_EQ(n0.occupancy.size(), 6u);
    EXPECT_EQ(n0.occupancy[0].ts, 250);
    EXPECT_EQ(n0.occupancy[2].value, 3);
    EXPECT_EQ(n0.occupancy[5].value, 0);
    EXPECT_EQ(n0.maxOccupancy, 3);

    const NodeSeries& n1 = f.nodes[1];
    EXPECT_EQ(n1.node, 1);
    EXPECT_EQ(n1.admitted, 1u);
    EXPECT_EQ(n1.sloMissed, 1u);
    EXPECT_EQ(n1.maxOccupancy, 1);

    ASSERT_EQ(f.breaches.size(), 2u);
    const SloBreach& b0 = f.breaches[0];
    EXPECT_EQ(b0.pid, 1);
    EXPECT_EQ(b0.node, 0);
    EXPECT_EQ(b0.cls, "hi");
    EXPECT_EQ(b0.latencyNs(), 1900);
    EXPECT_EQ(b0.overshootNs(), 400);
    EXPECT_EQ(b0.queueNs, 300);
    EXPECT_EQ(b0.stallNs, 100);
    EXPECT_EQ(b0.resizeNs, 600);
    EXPECT_STREQ(b0.dominantWait(), "resize");

    const SloBreach& b1 = f.breaches[1];
    EXPECT_EQ(b1.pid, 12);
    EXPECT_EQ(b1.node, 1);
    EXPECT_EQ(b1.queueNs, 1500);
    EXPECT_EQ(b1.stallNs, 200);
    EXPECT_EQ(b1.resizeNs, 0);
    EXPECT_STREQ(b1.dominantWait(), "queue");

    std::ostringstream os;
    printFleetForensics(os, f);
    const std::string text = os.str();
    EXPECT_NE(text.find("per-node utilization"), std::string::npos);
    EXPECT_NE(text.find("worst SLO breaches"), std::string::npos);
    EXPECT_NE(text.find("forensics: 4 departures, 2 SLO breaches"),
              std::string::npos)
        << text;
}

TEST(Forensics, DominantWaitTiesResolveQueueThenStallThenResize)
{
    SloBreach b;
    b.queueNs = 100;
    b.stallNs = 100;
    b.resizeNs = 100;
    EXPECT_STREQ(b.dominantWait(), "queue");
    b.queueNs = 50;
    EXPECT_STREQ(b.dominantWait(), "stall");
    b.stallNs = 80;
    b.resizeNs = 90;
    EXPECT_STREQ(b.dominantWait(), "resize");
}

TEST(Forensics, DepartureEventIsSelfContainedAndCounted)
{
    MemoryTraceSink sink;
    CounterRegistry reg;
    Tracer t(&sink, &reg);
    t.departure(0, "hi", 100, 900, false, 500, false);  // missed
    t.departure(0, "hi", 100, 400, false, 500, true);   // met
    t.departure(0, "hi", 100, 900, true, 500, false);   // failed
    t.departure(0, "lo", 100, 900, false, 0, false);    // no SLO

    EXPECT_EQ(reg.value("serve.departed"), 4u);
    EXPECT_EQ(reg.value("serve.failed"), 1u);
    // Only the real miss counts: not failures, not SLO-less classes.
    EXPECT_EQ(reg.value("serve.slo_missed"), 1u);

    const TraceEvent& miss = sink.events()[0];
    EXPECT_EQ(miss.name, std::string("depart"));
    EXPECT_EQ(miss.detail, "hi");
    EXPECT_EQ(traceArgOf(miss, TraceArgKey::ArrivalNs), 100);
    EXPECT_EQ(traceArgOf(miss, TraceArgKey::SloLimitNs), 500);
    EXPECT_EQ(traceArgOf(miss, TraceArgKey::SloMet), 0);
    EXPECT_EQ(sink.events()[2].name, std::string("depart_failed"));
}

/** Serialize all four analyzers over one event stream. */
std::string
analyzeAll(const std::vector<TraceEvent>& events)
{
    int kernelPid = 0;
    for (const TraceEvent& ev : events) {
        if (ev.kind == TraceEventKind::Span &&
            ev.category == TraceCategory::Kernel) {
            kernelPid = ev.pid;
            break;
        }
    }

    std::ostringstream os;
    writeFleetForensicsJson(
        os, analyzeFleetForensics(events, kFleetPidStride));
    writeCriticalPathJson(os, extractCriticalPath(events, kernelPid));
    writeFlameJson(os, aggregateFlame(events, kernelPid));
    StallAttribution a =
        buildStallAttribution(events, kernelPid);
    writeDiffAttributionJson(os,
                             diffStallAttribution(a, a, "a", "b"));
    return os.str();
}

TEST(Forensics, AnalyzersAreBitIdenticalAcrossWorkerCounts)
{
    FleetSpec spec = demoFleetSpec(64);

    MemoryTraceSink sink1;
    FleetObsRequest obs1;
    obs1.sink = &sink1;
    ExperimentEngine one(1);
    FleetSim(spec).run(one, obs1);

    MemoryTraceSink sink4;
    FleetObsRequest obs4;
    obs4.sink = &sink4;
    ExperimentEngine four(4);
    FleetSim(spec).run(four, obs4);

    ASSERT_FALSE(sink1.events().empty());
    const std::string a = analyzeAll(sink1.events());
    const std::string b = analyzeAll(sink4.events());
    EXPECT_EQ(a, b);

    // The fleet trace carries real serve traffic for the analyzers.
    FleetForensics f =
        analyzeFleetForensics(sink1.events(), kFleetPidStride);
    EXPECT_GT(f.departures, 0u);
    EXPECT_FALSE(f.nodes.empty());
}

}  // namespace
}  // namespace g10
