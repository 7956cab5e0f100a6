#include "obs/chrome_trace.h"

#include <set>
#include <utility>

#include "common/json_writer.h"

namespace g10 {

namespace {

/** Deterministic integer tid for each (pid, track) lane; TraceTrack
 *  is declared in name order, so tids follow (pid, track name). */
std::map<std::pair<int, TraceTrack>, int>
assignTids(const std::vector<TraceEvent>& events)
{
    std::map<std::pair<int, TraceTrack>, int> tids;
    for (const TraceEvent& ev : events)
        tids.emplace(std::make_pair(ev.pid, ev.track), 0);
    int next = 1;
    for (auto& [lane, tid] : tids)
        tid = next++;
    return tids;
}

/**
 * Integer nanoseconds as an exact decimal microsecond literal
 * ("1234.567"). value(double)'s %.12g would drop nanosecond digits
 * once a run passes ~16 minutes of simulated time; an exact token
 * keeps re-ingestion (readChromeTrace) lossless at any timestamp.
 */
std::string
microsecondsToken(TimeNs ns)
{
    char buf[40];
    const long long us = static_cast<long long>(ns) / 1000;
    const long long frac = static_cast<long long>(ns) % 1000;
    if (frac == 0)
        std::snprintf(buf, sizeof buf, "%lld", us);
    else
        std::snprintf(buf, sizeof buf, "%lld.%03lld", us, frac);
    return buf;
}

void
writeArgs(JsonWriter& w, const TraceEvent& ev)
{
    if (ev.args.empty() && ev.detail.empty())
        return;
    w.key("args").beginObject();
    for (const TraceArg& a : ev.args)
        w.field(traceName(a.key), a.value);
    if (!ev.detail.empty())
        w.field("detail", ev.detail);
    w.endObject();
}

}  // namespace

void
writeChromeMetaJson(JsonWriter& w, const char* meta_name, int pid,
                    int tid, const std::string& name)
{
    w.beginObject();
    w.field("ph", "M").field("name", meta_name);
    w.field("pid", static_cast<std::int64_t>(pid));
    w.field("tid", static_cast<std::int64_t>(tid));
    w.key("args").beginObject().field("name", name).endObject();
    w.endObject();
}

void
writeChromeEventJson(JsonWriter& w, const TraceEvent& ev, int tid)
{
    w.beginObject();
    w.field("name", ev.name);
    w.field("cat", traceName(ev.category));
    w.field("ph", ev.kind == TraceEventKind::Span ? "X" : "i");
    // Trace-event timestamps are microseconds; keep sub-us detail.
    w.key("ts").rawNumber(microsecondsToken(ev.ts));
    if (ev.kind == TraceEventKind::Span)
        w.key("dur").rawNumber(microsecondsToken(ev.dur));
    else
        w.field("s", "t");  // instant scope: thread
    w.field("pid", static_cast<std::int64_t>(ev.pid));
    w.field("tid", static_cast<std::int64_t>(tid));
    writeArgs(w, ev);
    w.endObject();
}

void
writeChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events,
                 const std::map<int, std::string>& process_names)
{
    auto tids = assignTids(events);

    JsonWriter w(os, 0);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Metadata first: process names, then thread (track) names sorted
    // by (pid, track) — a deterministic preamble for the golden test.
    std::set<int> pids;
    for (const auto& [lane, tid] : tids) {
        (void)tid;
        pids.insert(lane.first);
    }
    for (int pid : pids) {
        auto it = process_names.find(pid);
        std::string name = it != process_names.end()
                               ? it->second
                               : "job " + std::to_string(pid);
        writeChromeMetaJson(w, "process_name", pid, 0, name);
    }
    for (const auto& [lane, tid] : tids)
        writeChromeMetaJson(w, "thread_name", lane.first, tid,
                            traceName(lane.second));

    for (const TraceEvent& ev : events)
        writeChromeEventJson(w, ev, tids.at({ev.pid, ev.track}));

    w.endArray();
    w.endObject();
    os << "\n";
}

}  // namespace g10
