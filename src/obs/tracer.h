/**
 * @file
 * TraceSink + Tracer: the emission side of the observability layer.
 *
 * A Tracer bundles an optional event sink with an optional counter
 * registry and exposes one typed method per observable occurrence.
 * Producers hold a `Tracer*` that is nullptr when observability is
 * off, so every emit site compiles to a single branch on a null
 * pointer — the zero-overhead-when-off contract pinned by the perf
 * trajectory and by the tracer-on/off bit-identity test. The Tracer
 * itself never touches simulation state; methods only read their
 * arguments and append to the sink/registry.
 */

#ifndef G10_OBS_TRACER_H
#define G10_OBS_TRACER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/sched/schedule_types.h"
#include "obs/counters.h"
#include "obs/trace_event.h"
#include "sim/interconnect/fabric.h"

namespace g10 {

/** Receives events as they are emitted. Implementations must not
 *  assume any ordering beyond per-producer emission order. Events come
 *  by value: the Tracer moves each one in, and a sink that keeps or
 *  forwards it moves it on, so no event is copied on its way. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onEvent(TraceEvent ev) = 0;
};

/** A sink that buffers every event in memory, for export or analysis. */
class MemoryTraceSink : public TraceSink
{
  public:
    void onEvent(TraceEvent ev) override
    {
        events_.push_back(std::move(ev));
    }

    const std::vector<TraceEvent>& events() const { return events_; }

  private:
    std::vector<TraceEvent> events_;
};

/**
 * A sink adapter that shifts every event's pid by a fixed offset
 * before forwarding. The fleet layer wraps one of these around the
 * shared sink per node, so request pids from different nodes land in
 * disjoint ranges of one trace (node i's jobs at i * stride + req).
 */
class PidOffsetSink : public TraceSink
{
  public:
    PidOffsetSink(TraceSink* inner, int offset)
        : inner_(inner), offset_(offset)
    {
    }

    void onEvent(TraceEvent ev) override
    {
        ev.pid += offset_;
        inner_->onEvent(std::move(ev));
    }

  private:
    TraceSink* inner_;
    int offset_;
};

/**
 * A sink adapter that forwards every event to two inner sinks. The
 * fleet CLI uses one to stream a trace to disk (FileTraceSink) while
 * buffering the same events in memory for --forensics analysis.
 */
class TeeTraceSink : public TraceSink
{
  public:
    TeeTraceSink(TraceSink* first, TraceSink* second)
        : first_(first), second_(second)
    {
    }

    void onEvent(TraceEvent ev) override
    {
        if (first_ && second_)
            first_->onEvent(ev);  // the one copy: both sinks get it
        else if (first_)
            first_->onEvent(std::move(ev));
        if (second_)
            second_->onEvent(std::move(ev));
    }

  private:
    TraceSink* first_;
    TraceSink* second_;
};

/**
 * The facade producers emit through. Either half may be absent: a
 * Tracer with only a CounterRegistry costs no event allocations, and
 * one with only a sink keeps no aggregates.
 */
class Tracer
{
  public:
    Tracer(TraceSink* sink, CounterRegistry* counters)
        : sink_(sink), counters_(counters)
    {
    }

    TraceSink* sink() const { return sink_; }
    CounterRegistry* counters() const { return counters_; }

    // ---- runtime events (emitted by SimRuntime) ----

    /**
     * One kernel execution. @p ideal_ns / @p actual_ns are the
     * kernel's contribution to the ideal and measured iteration time;
     * their difference is exactly the sum of the stall spans emitted
     * for the same kernel (the attribution invariant).
     */
    void kernelSpan(int pid, const std::string& name, KernelId k,
                    TimeNs start, TimeNs dur, bool measured,
                    TimeNs ideal_ns, TimeNs actual_ns);

    /** One stall window attributed to @p cause for kernel @p k. */
    void stallSpan(int pid, StallCause cause, KernelId k, TimeNs start,
                   TimeNs dur, bool measured);

    /** One migration hop over a fabric channel. */
    void transfer(int pid, TransferCause cause, MemLoc src, MemLoc dst,
                  Bytes bytes, TimeNs start, TimeNs complete);

    /** The allocator picked a victim tensor under pressure. */
    void evictionPick(int pid, TensorId t, MemLoc dest, Bytes bytes,
                      TimeNs ts);

    /** SSD garbage collection ran (device-level, attributed to the
     *  traced writer that observed it). */
    void ssdGc(int pid, std::uint64_t runs, std::uint64_t erases,
               TimeNs ts);

    /** The runtime's GPU memory budget was resized (elastic capacity). */
    void budgetResize(int pid, Bytes from_bytes, Bytes to_bytes,
                      Bytes evicted, TimeNs ts);

    // ---- serving events (emitted by ServeSim) ----

    /** A request was admitted onto the GPU. */
    void admission(int pid, const std::string& cls, TimeNs arrival,
                   TimeNs admit, Bytes gpu_bytes, bool warm_plan);

    /**
     * A request finished (or failed) and left the GPU. The event is
     * self-contained for post-hoc SLO forensics: it carries the
     * request's arrival time, the class's SLO deadline
     * (@p slo_limit_ns, 0 when the class has no usable unloaded
     * baseline), and whether the deadline was met — so a saved trace
     * can attribute every breach without the in-memory result.
     */
    void departure(int pid, const std::string& cls, TimeNs arrival,
                   TimeNs ts, bool failed, TimeNs slo_limit_ns,
                   bool slo_met);

    /** A request was rejected (queue overflow / admission policy). */
    void rejection(int pid, const std::string& cls, TimeNs ts);

    /** A partition-manager action: "resize", "split", or "merge". */
    void partitionEvent(const char* what, int pid, Bytes to_bytes,
                        TimeNs ts);

    /** A warm-start replan after an elastic resize. */
    void warmReplan(int pid, std::uint64_t replayed,
                    std::uint64_t dropped, TimeNs ts);

    /** Plan-cache lookup outcome for an admission compile. */
    void planCacheLookup(bool hit);

    /** Sample of the admission queue depth at an arrival. */
    void queueDepth(std::size_t depth, TimeNs ts);

  private:
    void emit(TraceEvent&& ev)
    {
        if (sink_)
            sink_->onEvent(std::move(ev));
    }

    TraceSink* sink_;
    CounterRegistry* counters_;
};

}  // namespace g10

#endif  // G10_OBS_TRACER_H
