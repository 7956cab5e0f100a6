/** @file Golden-output tests for the Chrome trace-event exporter: the
 *  emitted document parses with the in-repo JSON parser, carries the
 *  metadata preamble and well-formed X/i events, and a real traced run
 *  of a small model × design exports a loadable timeline. */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/g10.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"
#include "tests/json_value.h"

namespace g10 {
namespace {

/** Export @p events and parse the result back (fails the test on
 *  malformed JSON). */
JsonValue
exportAndParse(const std::vector<TraceEvent>& events,
               const std::map<int, std::string>& names = {})
{
    std::ostringstream os;
    writeChromeTrace(os, events, names);
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    return doc;
}

TEST(ChromeTrace, GoldenHandBuiltDocument)
{
    std::vector<TraceEvent> events;
    TraceEvent span;
    span.kind = TraceEventKind::Span;
    span.category = TraceCategory::Kernel;
    span.name = "conv1";
    span.pid = 0;
    span.track = TraceTrack::Kernel;
    span.ts = 1500;  // 1.5 us
    span.dur = 2000;
    span.args.push_back({TraceArgKey::K, 0});
    events.push_back(span);

    TraceEvent inst;
    inst.kind = TraceEventKind::Instant;
    inst.category = TraceCategory::Evict;
    inst.name = "evict";
    inst.pid = 0;
    inst.track = TraceTrack::Memory;
    inst.ts = 4000;
    inst.detail = "t3";
    events.push_back(inst);

    JsonValue doc = exportAndParse(events, {{0, "toy"}});
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    const JsonValue& evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.isArray());

    // Deterministic preamble: one process_name, then one thread_name
    // per (pid, track) lane — here "kernel" before "memory".
    ASSERT_EQ(evs.items.size(), 5u);
    EXPECT_EQ(evs.items[0].at("ph").str, "M");
    EXPECT_EQ(evs.items[0].at("name").str, "process_name");
    EXPECT_EQ(evs.items[0].at("args").at("name").str, "toy");
    EXPECT_EQ(evs.items[1].at("name").str, "thread_name");
    EXPECT_EQ(evs.items[1].at("args").at("name").str, "kernel");
    EXPECT_EQ(evs.items[2].at("args").at("name").str, "memory");

    // The span: timestamps are microseconds.
    const JsonValue& x = evs.items[3];
    EXPECT_EQ(x.at("ph").str, "X");
    EXPECT_EQ(x.at("name").str, "conv1");
    EXPECT_EQ(x.at("cat").str, "kernel");
    EXPECT_DOUBLE_EQ(x.at("ts").number, 1.5);
    EXPECT_DOUBLE_EQ(x.at("dur").number, 2.0);
    EXPECT_DOUBLE_EQ(x.at("args").at("k").number, 0.0);

    // The instant: thread-scoped, carries its detail string.
    const JsonValue& i = evs.items[4];
    EXPECT_EQ(i.at("ph").str, "i");
    EXPECT_EQ(i.at("s").str, "t");
    EXPECT_EQ(i.at("args").at("detail").str, "t3");
}

TEST(ChromeTrace, TimesAreExactDecimalMicroseconds)
{
    // Three fraction digits unless the time is a whole microsecond, a
    // sign before the whole part, and exact at both ends of TimeNs.
    const std::vector<std::pair<TimeNs, std::string>> cases = {
        {0, "0"},
        {1, "0.001"},
        {999, "0.999"},
        {1000, "1"},
        {1500, "1.500"},
        {-1, "-0.001"},
        {-500, "-0.500"},
        {-1000, "-1"},
        {-1500, "-1.500"},
        {std::numeric_limits<TimeNs>::max(), "9223372036854775.807"},
        {std::numeric_limits<TimeNs>::min(), "-9223372036854775.808"},
    };
    for (const auto& [ns, token] : cases) {
        TraceEvent span;
        span.kind = TraceEventKind::Span;
        span.ts = ns;
        span.dur = ns;
        std::ostringstream os;
        writeChromeTrace(os, {span});
        EXPECT_NE(os.str().find("\"ts\":" + token + ",\"dur\":" + token +
                                ","),
                  std::string::npos)
            << ns << "\n"
            << os.str();
        JsonValue doc;
        std::string err;
        EXPECT_TRUE(parseJson(os.str(), &doc, &err)) << ns << ": " << err;
    }
}

TEST(ChromeTrace, EmptyStreamStillParses)
{
    JsonValue doc = exportAndParse({});
    EXPECT_TRUE(doc.at("traceEvents").isArray());
    EXPECT_TRUE(doc.at("traceEvents").items.empty());
}

TEST(ChromeTrace, TracedModelRunExportsLoadableTimeline)
{
    // A small but real model × design, traced end to end.
    KernelTrace trace = buildModelScaled(ModelKind::BertBase, 8, 64);
    ExperimentConfig cfg;
    cfg.model = ModelKind::BertBase;
    cfg.batchSize = 8;
    cfg.sys = SystemConfig().scaledDown(64);
    cfg.scaleDown = 1;
    cfg.design = "g10";

    MemoryTraceSink sink;
    CounterRegistry reg;
    Tracer tracer(&sink, &reg);
    ExecStats st = runExperimentOnTrace(trace, cfg, &tracer);
    ASSERT_FALSE(st.failed);
    ASSERT_FALSE(sink.events().empty());

    JsonValue doc = exportAndParse(sink.events(), {{0, "bert-8"}});
    const JsonValue& evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.isArray());

    // Every kernel of the measured iteration shows up as an X span on
    // the kernel lane, and every event is well-formed.
    std::size_t kernelSpans = 0;
    for (const JsonValue& ev : evs.items) {
        const std::string& ph = ev.at("ph").str;
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i") << ph;
        if (ph == "M")
            continue;
        EXPECT_TRUE(ev.at("ts").isNumber());
        EXPECT_GE(ev.at("ts").number, 0.0);
        if (ph == "X") {
            EXPECT_TRUE(ev.at("dur").isNumber());
            EXPECT_GE(ev.at("dur").number, 0.0);
        }
        if (ev.at("cat").str == "kernel" &&
            ev.at("args").at("measured").number != 0.0)
            ++kernelSpans;
    }
    EXPECT_EQ(kernelSpans, st.kernels.size());
}

}  // namespace
}  // namespace g10
