/** @file Streaming trace-sink tests: the on-disk document parses with
 *  the in-repo JSON parser, lazy metadata records precede each lane's
 *  first event, finish() is idempotent and drops late events, and a
 *  traced fleet demo writes a loadable multi-node timeline with
 *  per-node pid offsets. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "fleet/fleet_sim.h"
#include "obs/file_trace_sink.h"
#include "tests/json_value.h"

namespace g10 {
namespace {

std::string
tempPath(const std::string& tag)
{
    return ::testing::TempDir() + "g10_trace_" + tag + "_" +
           std::to_string(::getpid()) + ".json";
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

TraceEvent
span(int pid, TraceTrack track, TimeNs ts, TimeNs dur)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::Span;
    ev.category = TraceCategory::Kernel;
    ev.name = "k";
    ev.pid = pid;
    ev.track = track;
    ev.ts = ts;
    ev.dur = dur;
    return ev;
}

TEST(FileTraceSink, StreamsAValidDocumentWithLazyMetadata)
{
    std::string path = tempPath("lazy");
    {
        FileTraceSink sink(path);
        sink.setProcessName(0, "node-a");
        sink.onEvent(span(0, TraceTrack::Kernel, 1000, 500));
        sink.onEvent(span(1, TraceTrack::Kernel, 2000, 500));  // no name
        sink.onEvent(span(0, TraceTrack::Memory, 3000, 500));  // new lane
        EXPECT_EQ(sink.eventsWritten(), 3u);
        sink.finish();
    }

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(path), &doc, &err)) << err;
    std::remove(path.c_str());

    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    const JsonValue& evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.isArray());
    // 3 events + 2 process_name + 3 thread_name records.
    ASSERT_EQ(evs.items.size(), 8u);

    // Each lane's metadata is emitted before its first event, and the
    // unnamed pid falls back to "job <pid>".
    std::set<std::string> lanesSeen;  // "pid/tid" with M emitted
    std::set<int> pidsSeen;
    for (const JsonValue& ev : evs.items) {
        const int pid = static_cast<int>(ev.at("pid").number);
        if (ev.at("ph").str == "M") {
            if (ev.at("name").str == "process_name") {
                pidsSeen.insert(pid);
                EXPECT_EQ(ev.at("args").at("name").str,
                          pid == 0 ? "node-a" : "job 1");
            } else {
                lanesSeen.insert(std::to_string(pid) + "/" +
                                 std::to_string(static_cast<int>(
                                     ev.at("tid").number)));
            }
        } else {
            EXPECT_TRUE(pidsSeen.count(pid));
            EXPECT_TRUE(lanesSeen.count(
                std::to_string(pid) + "/" +
                std::to_string(
                    static_cast<int>(ev.at("tid").number))));
            EXPECT_EQ(ev.at("ph").str, "X");
            EXPECT_DOUBLE_EQ(ev.at("dur").number, 0.5);
        }
    }
}

TEST(FileTraceSink, FinishIsIdempotentAndDropsLateEvents)
{
    std::string path = tempPath("finish");
    FileTraceSink sink(path);
    sink.onEvent(span(0, TraceTrack::Kernel, 1000, 500));
    EXPECT_EQ(sink.droppedEvents(), 0u);
    sink.finish();
    sink.finish();  // no-op
    // Both dropped, and counted.
    sink.onEvent(span(0, TraceTrack::Kernel, 2000, 500));
    sink.onEvent(span(0, TraceTrack::Kernel, 3000, 500));
    EXPECT_EQ(sink.eventsWritten(), 1u);
    EXPECT_EQ(sink.droppedEvents(), 2u);
    sink.finish();  // still a no-op; warns about the drops once

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(path), &doc, &err)) << err;
    std::remove(path.c_str());
    // 1 event + process_name + thread_name.
    EXPECT_EQ(doc.at("traceEvents").items.size(), 3u);
}

TEST(FileTraceSink, EmptyStreamStillFinishesValidJson)
{
    std::string path = tempPath("empty");
    { FileTraceSink sink(path); }  // destructor finishes

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(path), &doc, &err)) << err;
    std::remove(path.c_str());
    EXPECT_TRUE(doc.at("traceEvents").items.empty());
}

TEST(FileTraceSink, TracedFleetDemoStreamsAMultiNodeTimeline)
{
    // End to end: a traced fleet run streams every node of the first
    // placement into one file, with request pids offset per node so
    // the viewer renders one process group per node.
    FleetSpec spec = demoFleetSpec(64);
    std::string path = tempPath("fleet");
    FleetObsRequest obs;
    FileTraceSink sink(path);
    obs.sink = &sink;

    ExperimentEngine engine(2);
    FleetSim fleet(spec);
    FleetResult traced = fleet.run(engine, obs);
    sink.finish();
    ASSERT_GT(sink.eventsWritten(), 0u);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(path), &doc, &err)) << err;
    std::remove(path.c_str());

    // Events from more than one node, each within its pid stride.
    std::set<int> nodeGroups;
    for (const JsonValue& ev : doc.at("traceEvents").items) {
        const int pid = static_cast<int>(ev.at("pid").number);
        ASSERT_GE(pid, 0);
        nodeGroups.insert(pid / kFleetPidStride);
    }
    EXPECT_GE(nodeGroups.size(), 2u);
    for (int g : nodeGroups)
        EXPECT_LT(g, static_cast<int>(spec.nodes.size()));

    // Observation is pure: the traced run matches the untraced one.
    FleetResult plain = FleetSim(spec).run(engine);
    ASSERT_EQ(traced.placements.size(), plain.placements.size());
    EXPECT_EQ(traced.placements[0].fleet.warmCompiles,
              plain.placements[0].fleet.warmCompiles);
    EXPECT_EQ(traced.placements[0].fleet.makespanNs,
              plain.placements[0].fleet.makespanNs);
    EXPECT_DOUBLE_EQ(traced.placements[0].fleet.sloAttainment,
                     plain.placements[0].fleet.sloAttainment);
}

}  // namespace
}  // namespace g10
