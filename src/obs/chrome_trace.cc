#include "obs/chrome_trace.h"

#include <charconv>
#include <cstdint>
#include <iterator>
#include <set>
#include <string_view>
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
 * ("1234.567", "-0.500"), written into @p buf. value(double)'s %.12g
 * would drop nanosecond digits once a run passes ~16 minutes of
 * simulated time; an exact token keeps re-ingestion (readChromeTrace)
 * lossless at any timestamp. The fraction keeps its three digits
 * ("1.500"); a whole number of microseconds has none.
 */
std::string_view
microsecondsToken(TimeNs ns, char (&buf)[32])
{
    char* p = buf;
    // The magnitude as unsigned, so that the most negative TimeNs
    // negates without overflow.
    std::uint64_t mag = static_cast<std::uint64_t>(ns);
    if (ns < 0) {
        *p++ = '-';
        mag = 0 - mag;
    }
    p = std::to_chars(p, std::end(buf), mag / 1000).ptr;
    if (const auto frac = static_cast<unsigned>(mag % 1000); frac != 0) {
        p[0] = '.';
        p[1] = static_cast<char>('0' + frac / 100);
        p[2] = static_cast<char>('0' + frac / 10 % 10);
        p[3] = static_cast<char>('0' + frac % 10);
        p += 4;
    }
    return {buf, static_cast<std::size_t>(p - buf)};
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
                    int tid, std::string_view name)
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
    char buf[32];
    w.key("ts").rawNumber(microsecondsToken(ev.ts, buf));
    if (ev.kind == TraceEventKind::Span)
        w.key("dur").rawNumber(microsecondsToken(ev.dur, buf));
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
