/**
 * @file
 * Chrome-trace re-ingestion: parse a trace-event JSON document (the
 * output of writeChromeTrace or FileTraceSink) back into the typed
 * TraceEvent stream the analyzers consume.
 *
 * This is the inverse of chrome_trace.h up to lane bookkeeping: "M"
 * metadata records rebuild the (pid, tid) -> track mapping and the
 * process-name table, "X"/"i" records become Span/Instant events with
 * nanosecond timestamps recovered from the exact decimal microsecond
 * literals the writer emits. Category, track and argument-key names
 * map back to their enum values through trace_event.h's name tables,
 * so re-ingested events compare equal (field by field) to the
 * originals — the round-trip golden test pins this.
 *
 * The document is read in one streaming pass: a JsonCursor walks the
 * text straight into TraceEvents, one record at a time, and no JSON
 * tree is built. Records keep the member lookup of the tests' JSON
 * tree (JsonValue::find in tests/json_value.h) — unknown keys are
 * skipped and a repeated key keeps its first value — and a
 * JSON syntax error anywhere outranks a malformed record, as if the
 * whole document had been parsed first.
 */

#ifndef G10_OBS_ANALYSIS_TRACE_READER_H
#define G10_OBS_ANALYSIS_TRACE_READER_H

#include <map>
#include <string>
#include <vector>

#include "obs/trace_event.h"

namespace g10 {

/** A re-ingested trace: the event stream plus display metadata. */
struct TraceDocument
{
    std::vector<TraceEvent> events;
    std::map<int, std::string> processNames;  ///< pid -> display name
};

/**
 * Parse the chrome-trace document in @p text into @p out. Events keep
 * file order (the writer emits them in emission order). Unknown
 * record types ("C", "B"/"E", ...) and category, track or arg-key
 * names outside trace_event.h's tables fail, and so do a pid or tid
 * that is not a whole number in int range, an arg value that is not
 * one in int64 range, and a ts or dur whose nanoseconds fall outside
 * TimeNs range — the reader only accepts what the in-repo writers
 * produce.
 *
 * @param err when non-null, receives a description of the first
 *        error: "not valid JSON: <cursor message>" for a syntax error,
 *        "record <N>: <reason>" for the first malformed record
 * @return false on malformed input
 */
bool readChromeTrace(const std::string& text, TraceDocument* out,
                     std::string* err = nullptr);

/** readChromeTrace over the contents of @p path, read into one
 *  string sized from the file. */
bool readChromeTraceFile(const std::string& path, TraceDocument* out,
                         std::string* err = nullptr);

}  // namespace g10

#endif  // G10_OBS_ANALYSIS_TRACE_READER_H
