/**
 * @file
 * Chrome trace-event JSON exporter: turns a collected event buffer
 * into a document loadable by chrome://tracing and Perfetto
 * (https://ui.perfetto.dev, "Open trace file").
 *
 * Layout follows the trace-event format: one *process* per simulated
 * job (pid) and one *thread* per resource track within it ("kernel",
 * "stall", "pcie.in", ...), so the UI renders one lane per
 * job × resource. Spans become "X" (complete) events, instants "i";
 * timestamps are simulated time converted to microseconds.
 */

#ifndef G10_OBS_CHROME_TRACE_H
#define G10_OBS_CHROME_TRACE_H

#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.h"

namespace g10 {

class JsonWriter;

/**
 * Write @p events as `{"traceEvents": [...]}`.
 *
 * @param process_names optional display name per pid; pids without an
 *        entry render as "job <pid>"
 */
void writeChromeTrace(std::ostream& os,
                      const std::vector<TraceEvent>& events,
                      const std::map<int, std::string>& process_names = {});

// ---- Per-element serialization (shared with the streaming sink) -----

/** Emit one "M" metadata record (@p meta_name is "process_name" or
 *  "thread_name") onto a writer positioned inside the traceEvents
 *  array. */
void writeChromeMetaJson(JsonWriter& w, const char* meta_name, int pid,
                         int tid, std::string_view name);

/** Emit one event record ("X" span / "i" instant) onto a writer
 *  positioned inside the traceEvents array. */
void writeChromeEventJson(JsonWriter& w, const TraceEvent& ev, int tid);

}  // namespace g10

#endif  // G10_OBS_CHROME_TRACE_H
