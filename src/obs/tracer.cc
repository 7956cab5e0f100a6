#include "obs/tracer.h"

namespace g10 {

namespace {

const char*
transferCauseName(TransferCause cause)
{
    switch (cause) {
      case TransferCause::PageFault: return "page_fault";
      case TransferCause::Prefetch: return "prefetch";
      case TransferCause::PreEvict: return "pre_evict";
      case TransferCause::CapacityEvict: return "capacity_evict";
      case TransferCause::FaultEvict: return "fault_evict";
    }
    return "?";
}

/** Lowercase location name for stable counter keys. */
const char*
memLocKey(MemLoc loc)
{
    switch (loc) {
      case MemLoc::Gpu: return "gpu";
      case MemLoc::Host: return "host";
      case MemLoc::Ssd: return "ssd";
    }
    return "?";
}

using Key = TraceArgKey;

/** A span with the fields every emit site sets. */
TraceEvent
span(TraceCategory category, TraceTrack track, int pid, std::string name,
     TimeNs ts, TimeNs dur)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::Span;
    ev.category = category;
    ev.name = std::move(name);
    ev.pid = pid;
    ev.track = track;
    ev.ts = ts;
    ev.dur = dur;
    return ev;
}

/** An instant with the fields every emit site sets. */
TraceEvent
instant(TraceCategory category, TraceTrack track, int pid,
        std::string name, TimeNs ts)
{
    TraceEvent ev = span(category, track, pid, std::move(name), ts, 0);
    ev.kind = TraceEventKind::Instant;
    return ev;
}

}  // namespace

const char*
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::Alloc: return "alloc";
      case StallCause::Fault: return "fault";
      case StallCause::ComputeQueue: return "compute_queue";
      case StallCause::Data: return "data";
    }
    return "?";
}

void
Tracer::kernelSpan(int pid, const std::string& name, KernelId k,
                   TimeNs start, TimeNs dur, bool measured,
                   TimeNs ideal_ns, TimeNs actual_ns)
{
    if (counters_ && measured) {
        counters_->add("kernel.measured");
        counters_->sample("kernel.stall_ns",
                          static_cast<double>(actual_ns - ideal_ns));
    }
    if (!sink_)
        return;
    TraceEvent ev = span(TraceCategory::Kernel, TraceTrack::Kernel, pid,
                         name, start, dur);
    ev.args = {{Key::K, static_cast<std::int64_t>(k)},
               {Key::Measured, measured ? 1 : 0},
               {Key::IdealNs, ideal_ns},
               {Key::ActualNs, actual_ns}};
    emit(std::move(ev));
}

void
Tracer::stallSpan(int pid, StallCause cause, KernelId k, TimeNs start,
                  TimeNs dur, bool measured)
{
    if (counters_ && measured) {
        counters_->add(std::string("stall.") + stallCauseName(cause) +
                           ".ns",
                       static_cast<std::uint64_t>(dur));
        counters_->add("stall.total.ns", static_cast<std::uint64_t>(dur));
    }
    if (!sink_)
        return;
    TraceEvent ev = span(TraceCategory::Stall, TraceTrack::Stall, pid,
                         stallCauseName(cause), start, dur);
    ev.args = {{Key::K, static_cast<std::int64_t>(k)},
               {Key::Measured, measured ? 1 : 0},
               {Key::Cause, static_cast<std::int64_t>(cause)}};
    emit(std::move(ev));
}

void
Tracer::transfer(int pid, TransferCause cause, MemLoc src, MemLoc dst,
                 Bytes bytes, TimeNs start, TimeNs complete)
{
    if (counters_) {
        counters_->add(std::string("xfer.") + memLocKey(src) + "_to_" +
                           memLocKey(dst) + ".bytes",
                       bytes);
        counters_->add("xfer.ops");
    }
    if (!sink_)
        return;
    // One track per fabric channel direction, like the paper's
    // per-channel migration timelines.
    TraceEvent ev = span(
        TraceCategory::Transfer,
        dst == MemLoc::Gpu ? TraceTrack::PcieIn : TraceTrack::PcieOut,
        pid, transferCauseName(cause), start, complete - start);
    ev.args = {{Key::Bytes, static_cast<std::int64_t>(bytes)},
               {Key::Cause, static_cast<std::int64_t>(cause)}};
    ev.detail = std::string(memLocName(src)) + "->" + memLocName(dst);
    emit(std::move(ev));
}

void
Tracer::evictionPick(int pid, TensorId t, MemLoc dest, Bytes bytes,
                     TimeNs ts)
{
    if (counters_) {
        counters_->add("evict.picks");
        counters_->add("evict.bytes", bytes);
    }
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Evict, TraceTrack::Memory, pid,
                            "evict_pick", ts);
    ev.args = {{Key::Tensor, static_cast<std::int64_t>(t)},
               {Key::Bytes, static_cast<std::int64_t>(bytes)}};
    ev.detail = std::string("-> ") + memLocName(dest);
    emit(std::move(ev));
}

void
Tracer::ssdGc(int pid, std::uint64_t runs, std::uint64_t erases,
              TimeNs ts)
{
    if (counters_) {
        counters_->add("ssd.gc.runs", runs);
        counters_->add("ssd.gc.erases", erases);
    }
    if (!sink_)
        return;
    TraceEvent ev =
        instant(TraceCategory::Ssd, TraceTrack::Memory, pid, "gc", ts);
    ev.args = {{Key::Runs, static_cast<std::int64_t>(runs)},
               {Key::Erases, static_cast<std::int64_t>(erases)}};
    emit(std::move(ev));
}

void
Tracer::budgetResize(int pid, Bytes from_bytes, Bytes to_bytes,
                     Bytes evicted, TimeNs ts)
{
    if (counters_) {
        counters_->add("resize.count");
        counters_->add("resize.evicted_bytes", evicted);
    }
    if (!sink_)
        return;
    TraceEvent ev = instant(
        TraceCategory::Partition, TraceTrack::Memory, pid,
        to_bytes >= from_bytes ? "budget_grow" : "budget_shrink", ts);
    ev.args = {{Key::FromBytes, static_cast<std::int64_t>(from_bytes)},
               {Key::ToBytes, static_cast<std::int64_t>(to_bytes)},
               {Key::EvictedBytes, static_cast<std::int64_t>(evicted)}};
    emit(std::move(ev));
}

void
Tracer::admission(int pid, const std::string& cls, TimeNs arrival,
                  TimeNs admit, Bytes gpu_bytes, bool warm_plan)
{
    if (counters_) {
        counters_->add("serve.admitted");
        counters_->sample("serve.queue_delay_ms",
                          static_cast<double>(admit - arrival) / 1e6);
    }
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Serve, TraceTrack::Serve, pid,
                            "admit", admit);
    ev.args = {{Key::ArrivalNs, arrival},
               {Key::GpuBytes, static_cast<std::int64_t>(gpu_bytes)},
               {Key::WarmPlan, warm_plan ? 1 : 0}};
    ev.detail = cls;
    emit(std::move(ev));
}

void
Tracer::departure(int pid, const std::string& cls, TimeNs arrival,
                  TimeNs ts, bool failed, TimeNs slo_limit_ns,
                  bool slo_met)
{
    if (counters_) {
        counters_->add("serve.departed");
        if (failed)
            counters_->add("serve.failed");
        if (!failed && slo_limit_ns > 0 && !slo_met)
            counters_->add("serve.slo_missed");
    }
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Serve, TraceTrack::Serve, pid,
                            failed ? "depart_failed" : "depart", ts);
    ev.args = {{Key::ArrivalNs, arrival},
               {Key::SloLimitNs, slo_limit_ns},
               {Key::SloMet, slo_met ? 1 : 0}};
    ev.detail = cls;
    emit(std::move(ev));
}

void
Tracer::rejection(int pid, const std::string& cls, TimeNs ts)
{
    if (counters_)
        counters_->add("serve.rejected");
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Serve, TraceTrack::Serve, pid,
                            "reject", ts);
    ev.detail = cls;
    emit(std::move(ev));
}

void
Tracer::partitionEvent(const char* what, int pid, Bytes to_bytes,
                       TimeNs ts)
{
    if (counters_)
        counters_->add(std::string("partition.") + what);
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Partition, TraceTrack::Serve,
                            pid, what, ts);
    ev.args = {{Key::ToBytes, static_cast<std::int64_t>(to_bytes)}};
    emit(std::move(ev));
}

void
Tracer::warmReplan(int pid, std::uint64_t replayed,
                   std::uint64_t dropped, TimeNs ts)
{
    if (counters_) {
        counters_->add("replan.count");
        counters_->add("replan.warm_replayed", replayed);
        counters_->add("replan.warm_dropped", dropped);
    }
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Partition, TraceTrack::Serve,
                            pid, "warm_replan", ts);
    ev.args = {{Key::Replayed, static_cast<std::int64_t>(replayed)},
               {Key::Dropped, static_cast<std::int64_t>(dropped)}};
    emit(std::move(ev));
}

void
Tracer::planCacheLookup(bool hit)
{
    if (counters_)
        counters_->add(hit ? "plan_cache.hit" : "plan_cache.miss");
}

void
Tracer::queueDepth(std::size_t depth, TimeNs ts)
{
    if (counters_)
        counters_->sample("serve.queue_depth",
                          static_cast<double>(depth));
    if (!sink_)
        return;
    TraceEvent ev = instant(TraceCategory::Serve, TraceTrack::Serve, 0,
                            "queue_depth", ts);
    ev.args = {{Key::Depth, static_cast<std::int64_t>(depth)}};
    emit(std::move(ev));
}

}  // namespace g10
