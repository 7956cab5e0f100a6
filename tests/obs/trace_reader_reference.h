/**
 * @file
 * Test-only reference Chrome-trace reader: the original two-pass
 * readChromeTrace kept verbatim — parseJson() builds the whole
 * document tree, then the records are walked with JsonValue::find.
 * The differential mutation test (trace_reader_mutation_test.cc)
 * feeds it and the streaming reader the same documents and requires
 * equal TraceDocuments or equal rejections, so it must not be
 * "fixed" or optimized.
 */

#ifndef G10_TESTS_OBS_TRACE_READER_REFERENCE_H
#define G10_TESTS_OBS_TRACE_READER_REFERENCE_H

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "obs/analysis/trace_reader.h"
#include "tests/json_value.h"

namespace g10 {
namespace test {

namespace reference_detail {

/** Exact nanoseconds from a parsed microsecond value. */
inline TimeNs
nanosecondsOf(double us)
{
    return static_cast<TimeNs>(std::llround(us * 1e3));
}

inline bool
fail(std::string* err, const std::string& msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Integer member lookup that tolerates absence (returns false). */
inline bool
intMemberOf(const JsonValue& rec, const char* key, int* out)
{
    const JsonValue* v = rec.find(key);
    if (!v || !v->isNumber())
        return false;
    *out = static_cast<int>(v->number);
    return true;
}

/** parseTraceName() that reports an unknown @p what as an error. */
template <typename E>
bool
parseNameOf(const std::string& name, const char* what,
            const std::string& where, E* out, std::string* err)
{
    if (parseTraceName(name, out))
        return true;
    return fail(err, where + "unknown " + what + " '" + name + "'");
}

}  // namespace reference_detail

inline bool
referenceReadChromeTrace(const std::string& text, TraceDocument* out,
                         std::string* err = nullptr)
{
    using namespace reference_detail;
    JsonValue doc;
    std::string parseErr;
    if (!parseJson(text, &doc, &parseErr))
        return fail(err, "not valid JSON: " + parseErr);
    const JsonValue* records = doc.find("traceEvents");
    if (!records || !records->isArray())
        return fail(err, "missing 'traceEvents' array");

    TraceDocument result;
    std::map<std::pair<int, int>, TraceTrack> tracks;  // (pid,tid)
    for (std::size_t i = 0; i < records->items.size(); ++i) {
        const JsonValue& rec = records->items[i];
        const std::string where =
            "record " + std::to_string(i) + ": ";
        if (!rec.isObject())
            return fail(err, where + "not an object");
        const JsonValue* ph = rec.find("ph");
        if (!ph || !ph->isString())
            return fail(err, where + "missing 'ph'");

        if (ph->str == "M") {
            const JsonValue* metaName = rec.find("name");
            const JsonValue* args = rec.find("args");
            const JsonValue* name =
                args ? args->find("name") : nullptr;
            int pid = 0;
            int tid = 0;
            if (!metaName || !name || !name->isString() ||
                !intMemberOf(rec, "pid", &pid) ||
                !intMemberOf(rec, "tid", &tid))
                return fail(err, where + "malformed metadata");
            if (metaName->str == "process_name")
                result.processNames[pid] = name->str;
            else if (metaName->str != "thread_name")
                return fail(err, where + "unknown metadata '" +
                                     metaName->str + "'");
            else if (!parseNameOf(name->str, "track", where,
                                  &tracks[{pid, tid}], err))
                return false;
            continue;
        }
        if (ph->str != "X" && ph->str != "i")
            return fail(err, where + "unsupported phase '" + ph->str +
                                 "'");

        TraceEvent ev;
        ev.kind = ph->str == "X" ? TraceEventKind::Span
                                 : TraceEventKind::Instant;
        const JsonValue* name = rec.find("name");
        const JsonValue* cat = rec.find("cat");
        const JsonValue* ts = rec.find("ts");
        if (!name || !name->isString() || !cat || !cat->isString() ||
            !ts || !ts->isNumber())
            return fail(err, where + "missing name/cat/ts");
        ev.name = name->str;
        if (!parseNameOf(cat->str, "category", where, &ev.category,
                         err))
            return false;
        ev.ts = nanosecondsOf(ts->number);
        int tid = 0;
        if (!intMemberOf(rec, "pid", &ev.pid) ||
            !intMemberOf(rec, "tid", &tid))
            return fail(err, where + "missing pid/tid");
        if (ev.kind == TraceEventKind::Span) {
            const JsonValue* dur = rec.find("dur");
            if (!dur || !dur->isNumber())
                return fail(err, where + "span without 'dur'");
            ev.dur = nanosecondsOf(dur->number);
        }
        const auto lane = tracks.find({ev.pid, tid});
        if (lane == tracks.end())
            return fail(err, where + "event before its thread_name");
        ev.track = lane->second;
        if (const JsonValue* args = rec.find("args")) {
            for (const auto& [key, value] : args->members) {
                if (key == "detail") {
                    ev.detail = value.str;
                    continue;
                }
                if (!value.isNumber())
                    return fail(err, where + "non-numeric arg '" +
                                         key + "'");
                TraceArg& arg = ev.args.emplace_back();
                if (!parseNameOf(key, "arg key", where, &arg.key, err))
                    return false;
                arg.value = std::llround(value.number);
            }
        }
        result.events.push_back(std::move(ev));
    }
    *out = std::move(result);
    return true;
}

}  // namespace test
}  // namespace g10

#endif  // G10_TESTS_OBS_TRACE_READER_REFERENCE_H
