/**
 * @file
 * Streaming Chrome-trace sink: writes each event to disk as it is
 * emitted, so fleet-scale sweeps can be traced without MemoryTraceSink
 * holding the whole timeline in memory (the PR 6 follow-up in
 * ROADMAP.md).
 *
 * The file is a valid trace-event document the moment finish() runs
 * (the destructor calls it): `{"displayTimeUnit": "ms",
 * "traceEvents": [ <one compact record per line> ]}`. Metadata is
 * interleaved lazily — the first event of a pid emits its
 * process_name record, the first event of a (pid, track) lane emits
 * its thread_name record with the next tid — which the trace-event
 * format explicitly allows (M records may appear anywhere).
 *
 * onEvent() is mutex-guarded so concurrently simulated cells *may*
 * share one sink, but interleaved timelines from unrelated cells are
 * rarely useful — producers (ServeSweep, FleetSim) stream one
 * placement sequentially instead.
 */

#ifndef G10_OBS_FILE_TRACE_SINK_H
#define G10_OBS_FILE_TRACE_SINK_H

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/tracer.h"

namespace g10 {

/** A TraceSink that appends each event to a trace file on arrival. */
class FileTraceSink : public TraceSink
{
  public:
    /** Opens @p path for writing; fatal() when it cannot. */
    explicit FileTraceSink(const std::string& path);

    /** Finishes the document if finish() was not called. */
    ~FileTraceSink() override;

    FileTraceSink(const FileTraceSink&) = delete;
    FileTraceSink& operator=(const FileTraceSink&) = delete;

    /**
     * Display name for @p pid's process row. Effective for pids whose
     * first event has not arrived yet; later calls re-emit the
     * metadata record (last one wins in the viewer). Pids without a
     * name render as "job <pid>".
     */
    void setProcessName(int pid, const std::string& name);

    void onEvent(TraceEvent ev) override;

    /**
     * Write the document tail and close the file (idempotent; the
     * destructor calls it). Events arriving after finish() are
     * dropped — but counted (droppedEvents()), and the next finish()
     * call (typically the destructor's) emits a one-line warn so a
     * truncated trace is detectable. fatal() when the stream errored.
     */
    void finish();

    /** Events written so far (metadata records not counted). */
    std::uint64_t eventsWritten() const { return events_; }

    /** Events that arrived after finish() and were not written. The
     *  CLIs surface this as the `trace.dropped_events` counter. */
    std::uint64_t droppedEvents() const { return dropped_; }

    const std::string& path() const { return path_; }

  private:
    /** Emit lazy process/thread metadata for @p ev; returns its tid. */
    int lanesFor(const TraceEvent& ev);

    /** Comma/newline separation between array elements. */
    void separator();

    std::string path_;
    std::ofstream out_;
    std::mutex mutex_;
    std::map<int, std::string> names_;             ///< pid -> name
    std::map<int, bool> announced_;                ///< pid M written
    std::map<std::pair<int, TraceTrack>, int> tids_;
    int nextTid_ = 1;
    std::uint64_t events_ = 0;
    std::uint64_t dropped_ = 0;  ///< events seen after finish()
    bool first_ = true;     ///< no array element written yet
    bool finished_ = false;
    bool warnedDrops_ = false;
};

}  // namespace g10

#endif  // G10_OBS_FILE_TRACE_SINK_H
