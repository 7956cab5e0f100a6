#include "obs/analysis/trace_reader.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/json_writer.h"

namespace g10 {

namespace {

/** Exact nanoseconds from a parsed microsecond value; false when
 *  they fall outside TimeNs range. */
bool
nanosecondsOf(double us, TimeNs* out)
{
    // 2^63 is an exact double, and every double below it rounds to a
    // TimeNs; ±inf and the rest fail the comparisons.
    const double ns = us * 1e3;
    if (!(ns >= -0x1p63 && ns < 0x1p63))
        return false;
    *out = static_cast<TimeNs>(std::llround(ns));
    return true;
}

bool
fail(std::string* err, const std::string& msg)
{
    if (err)
        *err = msg;
    return false;
}

/** @p v as a @p T when it is a whole number in @p T's range. */
template <typename T>
bool
integerOf(double v, T* out)
{
    // -min is a power of two, so both bounds are exact doubles; NaN
    // fails the comparisons.
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    if (!(v >= lo && v < -lo) || std::trunc(v) != v)
        return false;
    *out = static_cast<T>(v);
    return true;
}

/**
 * A string the cursor read, kept until the next record: a view into
 * the document when the literal had no escape, else a decoded copy.
 * The copy is selected by a flag rather than viewed, so a Text may
 * move (the args vector grows) without dangling.
 */
class Text
{
  public:
    void
    keep(const JsonCursor& cur, std::string_view s)
    {
        decoded_ = !cur.viewsText(s);
        if (decoded_)
            copy_.assign(s);
        else
            view_ = s;
    }

    void
    clear()
    {
        view_ = {};
        decoded_ = false;
    }

    std::string_view
    get() const
    {
        return decoded_ ? std::string_view(copy_) : view_;
    }

  private:
    std::string_view view_;
    std::string copy_;
    bool decoded_ = false;
};

/** One member value as a JsonValue would hold it: the number for a
 *  number, the text for a string, an empty text for anything else. */
struct Field
{
    bool present = false;
    JsonToken kind = JsonToken::Null;
    double number = 0.0;
    Text text;

    std::string_view str() const { return text.get(); }
    bool isString() const { return present && kind == JsonToken::String; }
    bool isNumber() const { return present && kind == JsonToken::Number; }
};

/** One member of a record's "args", in document order. */
struct ArgField
{
    Text key;
    Field value;
};

/**
 * The members of one traceEvents record the reader looks at. A key
 * that repeats keeps its first value, as JsonValue::find does; every
 * member of the first "args" object is kept, in order. Reused across
 * records so its args entries and decoded strings keep their capacity.
 */
struct Record
{
    Field ph, name, cat, ts, dur, pid, tid;
    bool hasArgs = false;
    std::vector<ArgField> args;
    std::size_t numArgs = 0;  ///< args[0, numArgs) belong to this record
};

/** Read the value under @p cur into @p f unless @p f is already set. */
void
readField(JsonCursor& cur, Field* f)
{
    JsonToken kind = JsonToken::Null;
    if (f->present || !cur.peek(&kind)) {
        cur.skipValue();
        return;
    }
    f->present = true;
    f->kind = kind;
    std::string_view text;
    if (kind == JsonToken::String && cur.string(&text)) {
        f->text.keep(cur, text);
        return;
    }
    f->text.clear();
    if (kind == JsonToken::Number)
        cur.number(&f->number);
    else if (kind != JsonToken::String)
        cur.skipValue();
}

/** Read the args value under @p cur into @p rec (objects only: any
 *  other value has no members, as in JsonValue). */
void
readArgs(JsonCursor& cur, Record* rec)
{
    JsonToken kind = JsonToken::Null;
    if (!cur.peek(&kind) || kind != JsonToken::Object) {
        cur.skipValue();
        return;
    }
    cur.beginObject();
    std::string_view key;
    while (cur.nextMember(&key)) {
        if (rec->numArgs == rec->args.size())
            rec->args.emplace_back();
        ArgField& arg = rec->args[rec->numArgs++];
        arg.key.keep(cur, key);
        arg.value.present = false;
        readField(cur, &arg.value);
    }
}

/** Read the record object under @p cur into @p rec. */
void
readRecord(JsonCursor& cur, Record* rec)
{
    for (Field* f : {&rec->ph, &rec->name, &rec->cat, &rec->ts, &rec->dur,
                     &rec->pid, &rec->tid})
        f->present = false;
    rec->hasArgs = false;
    rec->numArgs = 0;

    cur.beginObject();
    std::string_view key;
    while (cur.nextMember(&key)) {
        Field* f = key == "ph"     ? &rec->ph
                   : key == "name" ? &rec->name
                   : key == "cat"  ? &rec->cat
                   : key == "ts"   ? &rec->ts
                   : key == "dur"  ? &rec->dur
                   : key == "pid"  ? &rec->pid
                   : key == "tid"  ? &rec->tid
                                   : nullptr;
        if (f) {
            readField(cur, f);
        } else if (key == "args" && !rec->hasArgs) {
            rec->hasArgs = true;
            readArgs(cur, rec);
        } else {
            cur.skipValue();
        }
    }
}

/** parseTraceName() that reports an unknown @p what in @p why. */
template <typename E>
bool
parseNameOf(std::string_view name, const char* what, E* out,
            std::string* why)
{
    if (parseTraceName(name, out))
        return true;
    return fail(why, std::string("unknown ") + what + " '" +
                         std::string(name) + "'");
}

using Lanes = std::map<std::pair<int, int>, TraceTrack>;  // (pid,tid)

constexpr const char* kTimeRange = "ts/dur is outside the TimeNs range";

/**
 * Fold one record into @p doc: "M" records name processes and lanes,
 * "X"/"i" records become events. On a malformed record, @p why
 * receives the reason (without the record number).
 */
bool
applyRecord(const Record& rec, Lanes* tracks, TraceDocument* doc,
            std::string* why)
{
    if (!rec.ph.isString())
        return fail(why, "missing 'ph'");
    const std::string_view ph = rec.ph.str();

    if (ph == "M") {
        const Field* name = nullptr;
        for (std::size_t i = 0; i < rec.numArgs && !name; ++i)
            if (rec.args[i].key.get() == "name")
                name = &rec.args[i].value;
        if (!rec.name.present || !name || !name->isString() ||
            !rec.pid.isNumber() || !rec.tid.isNumber())
            return fail(why, "malformed metadata");
        int pid = 0;
        int tid = 0;
        if (!integerOf(rec.pid.number, &pid) ||
            !integerOf(rec.tid.number, &tid))
            return fail(why, "pid/tid is not a 32-bit integer");
        if (rec.name.str() == "process_name") {
            doc->processNames[pid] = name->str();
            return true;
        }
        if (rec.name.str() != "thread_name")
            return fail(why, "unknown metadata '" +
                                 std::string(rec.name.str()) + "'");
        return parseNameOf(name->str(), "track", &(*tracks)[{pid, tid}],
                           why);
    }
    if (ph != "X" && ph != "i")
        return fail(why, "unsupported phase '" + std::string(ph) + "'");

    TraceEvent ev;
    ev.kind = ph == "X" ? TraceEventKind::Span : TraceEventKind::Instant;
    if (!rec.name.isString() || !rec.cat.isString() || !rec.ts.isNumber())
        return fail(why, "missing name/cat/ts");
    if (!parseNameOf(rec.cat.str(), "category", &ev.category, why))
        return false;
    if (!nanosecondsOf(rec.ts.number, &ev.ts))
        return fail(why, kTimeRange);
    if (!rec.pid.isNumber() || !rec.tid.isNumber())
        return fail(why, "missing pid/tid");
    int tid = 0;
    if (!integerOf(rec.pid.number, &ev.pid) ||
        !integerOf(rec.tid.number, &tid))
        return fail(why, "pid/tid is not a 32-bit integer");
    if (ev.kind == TraceEventKind::Span) {
        if (!rec.dur.isNumber())
            return fail(why, "span without 'dur'");
        if (!nanosecondsOf(rec.dur.number, &ev.dur))
            return fail(why, kTimeRange);
    }
    const auto lane = tracks->find({ev.pid, tid});
    if (lane == tracks->end())
        return fail(why, "event before its thread_name");
    ev.track = lane->second;
    ev.args.reserve(rec.numArgs);
    for (std::size_t i = 0; i < rec.numArgs; ++i) {
        const ArgField& a = rec.args[i];
        const std::string_view key = a.key.get();
        if (key == "detail") {
            ev.detail = a.value.str();
            continue;
        }
        if (!a.value.isNumber())
            return fail(why, "non-numeric arg '" + std::string(key) + "'");
        TraceArg& arg = ev.args.emplace_back();
        if (!parseNameOf(key, "arg key", &arg.key, why))
            return false;
        if (!integerOf(a.value.number, &arg.value))
            return fail(why, "arg '" + std::string(key) +
                                 "' is not a 64-bit integer");
    }
    ev.name = rec.name.str();
    doc->events.push_back(std::move(ev));
    return true;
}

}  // namespace

bool
readChromeTrace(const std::string& text, TraceDocument* out,
                std::string* err)
{
    // One pass over the text. After the first malformed record the
    // walk goes on, validating only: a JSON syntax error anywhere
    // outranks it, as when the whole document was parsed first.
    JsonCursor cur(text);
    TraceDocument result;
    // The writers' event records average ~150 bytes, so one event per
    // 128 bytes of text holds a whole trace without a regrowth copy.
    result.events.reserve(text.size() / 128);
    Lanes tracks;
    Record rec;
    std::string recordErr;
    bool haveEvents = false;

    JsonToken kind = JsonToken::Null;
    if (cur.peek(&kind) && kind == JsonToken::Object) {
        cur.beginObject();
        bool seenKey = false;  // only the first "traceEvents" counts
        std::string_view key;
        while (cur.nextMember(&key)) {
            if (key != "traceEvents" || seenKey) {
                cur.skipValue();
                continue;
            }
            seenKey = true;
            if (!cur.peek(&kind) || kind != JsonToken::Array) {
                cur.skipValue();
                continue;
            }
            haveEvents = true;
            cur.beginArray();
            for (std::size_t i = 0; cur.nextItem(); ++i) {
                std::string why;
                if (!recordErr.empty() || !cur.peek(&kind)) {
                    cur.skipValue();
                    continue;
                }
                if (kind != JsonToken::Object) {
                    why = "not an object";
                    cur.skipValue();
                } else {
                    readRecord(cur, &rec);
                    if (cur.ok())
                        applyRecord(rec, &tracks, &result, &why);
                }
                if (!why.empty())
                    recordErr = "record " + std::to_string(i) + ": " + why;
            }
        }
    } else {
        cur.skipValue();
    }
    if (!cur.finish())
        return fail(err, "not valid JSON: " + cur.error());
    if (!haveEvents)
        return fail(err, "missing 'traceEvents' array");
    if (!recordErr.empty())
        return fail(err, recordErr);
    *out = std::move(result);
    return true;
}

bool
readChromeTraceFile(const std::string& path, TraceDocument* out,
                    std::string* err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(err, "cannot open '" + path + "'");
    // Append straight into one string, reserved to the size of a
    // regular file (a pipe has none), so the text is copied once.
    std::string text;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec)
        text.reserve(static_cast<std::size_t>(size));
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0)
        text.append(buf, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        return fail(err, "error reading '" + path + "'");
    std::string parseErr;
    if (!readChromeTrace(text, out, &parseErr))
        return fail(err, path + ": " + parseErr);
    return true;
}

}  // namespace g10
