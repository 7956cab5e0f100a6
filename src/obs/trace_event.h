/**
 * @file
 * The typed event record at the bottom of the observability layer.
 *
 * Every observable occurrence in a simulation — a kernel executing, a
 * stall with its cause, a migration hop over a fabric channel, an
 * eviction pick, SSD garbage collection, serving admission/departure,
 * a partition resize — becomes one TraceEvent stamped in *simulated*
 * time. Events are plain data: producers (SimRuntime, ServeSim, ...)
 * emit them through the Tracer facade, sinks collect them, and
 * exporters (chrome_trace.h) or analyses (attribution.h) consume them
 * after the run. Nothing here feeds back into simulation state, which
 * is what keeps traced and untraced runs bit-identical.
 */

#ifndef G10_OBS_TRACE_EVENT_H
#define G10_OBS_TRACE_EVENT_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace g10 {

/** Shape of one event on a track. */
enum class TraceEventKind : std::uint8_t
{
    Span,     ///< has a duration (kernel exec, transfer, stall window)
    Instant,  ///< a point in time (eviction pick, GC, admission)
};

/** Event taxonomy bucket (the categories README documents). */
enum class TraceCategory : std::uint8_t
{
    Kernel, Stall, Transfer, Evict, Ssd, Serve, Partition
};

/**
 * Resource lane within a job: one Chrome/Perfetto thread per
 * job × track. Declared in name order, so ordering lanes by value
 * orders them by name — the exporters' tid assignment relies on it.
 */
enum class TraceTrack : std::uint8_t
{
    Kernel, Memory, PcieIn, PcieOut, Serve, Stall
};

/** Key of one numeric event argument. */
enum class TraceArgKey : std::uint8_t
{
    K, Measured, IdealNs, ActualNs, Cause, Bytes, Tensor, Runs, Erases,
    FromBytes, ToBytes, EvictedBytes, ArrivalNs, GpuBytes, WarmPlan,
    SloLimitNs, SloMet, Replayed, Dropped, Depth
};

/**
 * The one name table of each trace enum, indexed by value: writers
 * emit these names and the reader accepts only these names.
 */
template <typename E>
struct TraceNames;

template <>
struct TraceNames<TraceCategory>
{
    static constexpr std::string_view kNames[] = {
        "kernel", "stall", "xfer", "evict", "ssd", "serve", "partition"};
};

template <>
struct TraceNames<TraceTrack>
{
    static constexpr std::string_view kNames[] = {
        "kernel", "memory", "pcie.in", "pcie.out", "serve", "stall"};
};

template <>
struct TraceNames<TraceArgKey>
{
    static constexpr std::string_view kNames[] = {
        "k", "measured", "ideal_ns", "actual_ns", "cause", "bytes",
        "tensor", "runs", "erases", "from_bytes", "to_bytes",
        "evicted_bytes", "arrival_ns", "gpu_bytes", "warm_plan",
        "slo_limit_ns", "slo_met", "replayed", "dropped", "depth"};
};

static_assert(std::size(TraceNames<TraceCategory>::kNames) ==
              static_cast<std::size_t>(TraceCategory::Partition) + 1);
static_assert(std::size(TraceNames<TraceTrack>::kNames) ==
              static_cast<std::size_t>(TraceTrack::Stall) + 1);
static_assert(std::size(TraceNames<TraceArgKey>::kNames) ==
              static_cast<std::size_t>(TraceArgKey::Depth) + 1);

/** Exported name of a category, track or arg key. */
template <typename E>
constexpr std::string_view
traceName(E value)
{
    return TraceNames<E>::kNames[static_cast<std::size_t>(value)];
}

/** Inverse of traceName(); false when @p name is not in E's table. */
template <typename E>
bool
parseTraceName(std::string_view name, E* out)
{
    const auto& names = TraceNames<E>::kNames;
    for (std::size_t i = 0; i < std::size(names); ++i) {
        if (name == names[i]) {
            *out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** One numeric argument attached to an event. */
struct TraceArg
{
    TraceArgKey key;
    std::int64_t value;
};

/**
 * One trace event in simulated time. `pid` identifies the job (tenant /
 * request); `track` names the resource lane within that job ("kernel",
 * "pcie.in", ...), so exporters can render one track per job × resource
 * exactly as the paper's per-kernel timelines do.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Instant;
    TraceCategory category = TraceCategory::Kernel;
    std::string name;           ///< display name (kernel name, cause)
    int pid = 0;                ///< job id (0 for single-job runs)
    TraceTrack track = TraceTrack::Kernel;
    TimeNs ts = 0;              ///< simulated start time
    TimeNs dur = 0;             ///< simulated duration (Span only)
    std::vector<TraceArg> args; ///< numeric payload
    std::string detail;         ///< optional string payload ("host→gpu")
};

/** Why a kernel's completion slipped past its ideal time. */
enum class StallCause : std::uint8_t
{
    Alloc = 0,         ///< waiting for eviction DMA to free space
    Fault = 1,         ///< demand-paging faults on the critical path
    ComputeQueue = 2,  ///< time-shared GPU busy with co-tenants
    Data = 3,          ///< planned prefetch still in flight at the end
};

/** Stable display/counter name of a stall cause. */
const char* stallCauseName(StallCause cause);

/** Number of StallCause values (for dense tables). */
inline constexpr int kNumStallCauses = 4;

/** Lookup of one numeric arg by key; @p def when absent. */
inline std::int64_t
traceArgOf(const TraceEvent& ev, TraceArgKey key, std::int64_t def = 0)
{
    for (const TraceArg& a : ev.args)
        if (a.key == key)
            return a.value;
    return def;
}

}  // namespace g10

#endif  // G10_OBS_TRACE_EVENT_H
