#include "obs/analysis/flame.h"

#include <map>

namespace g10 {

namespace {

/** "layer1_0_c_conv" + cause -> "layer1;0;c;conv;alloc". */
std::string
collapsedKey(const std::string& kernel_name, const char* cause)
{
    std::string frames;
    frames.reserve(kernel_name.size() + 16);
    for (char c : kernel_name)
        frames += (c == '_') ? ';' : c;
    frames += ';';
    frames += cause;
    return frames;
}

}  // namespace

FlameAggregation
aggregateFlame(const std::vector<TraceEvent>& events, int pid)
{
    FlameAggregation out;
    out.pid = pid;

    // Stall spans carry the kernel id, not the name: remember the
    // most recent name per id (stable across iterations).
    std::map<std::int64_t, std::string> kernelNames;
    std::map<std::string, std::uint64_t> stacks;
    for (const TraceEvent& ev : events) {
        if (ev.pid != pid || ev.kind != TraceEventKind::Span)
            continue;
        if (ev.category == TraceCategory::Kernel) {
            kernelNames[traceArgOf(ev, TraceArgKey::K, -1)] = ev.name;
            continue;
        }
        if (ev.category != TraceCategory::Stall ||
            traceArgOf(ev, TraceArgKey::Measured) == 0 || ev.dur <= 0)
            continue;
        const auto cause = traceArgOf(ev, TraceArgKey::Cause, -1);
        if (cause < 0 || cause >= kNumStallCauses)
            continue;
        const auto name =
            kernelNames.find(traceArgOf(ev, TraceArgKey::K, -1));
        const std::string key = collapsedKey(
            name != kernelNames.end() ? name->second : "(unknown)",
            stallCauseName(static_cast<StallCause>(cause)));
        stacks[key] += static_cast<std::uint64_t>(ev.dur);
        out.totalStallNs += static_cast<std::uint64_t>(ev.dur);
    }

    out.stacks.reserve(stacks.size());
    for (const auto& [frames, ns] : stacks)
        out.stacks.push_back({frames, ns});
    return out;
}

void
writeCollapsedStacks(std::ostream& os, const FlameAggregation& f)
{
    for (const FlameStack& s : f.stacks)
        os << s.frames << " " << s.stallNs << "\n";
}

}  // namespace g10
