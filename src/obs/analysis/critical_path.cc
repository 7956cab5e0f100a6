#include "obs/analysis/critical_path.h"

#include <algorithm>
#include <utility>

#include "common/table.h"

namespace g10 {

namespace {

double
toMs(TimeNs ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Longest consecutive run of stalled steps, by total stall time. */
StallChain
longestChain(const std::vector<CriticalPathStep>& steps)
{
    StallChain best;
    TimeNs bestNs = 0;
    std::size_t runBegin = 0;
    bool inRun = false;
    auto consider = [&](std::size_t begin, std::size_t end) {
        TimeNs total = 0;
        for (std::size_t i = begin; i < end; ++i)
            total += steps[i].stallNs();
        if (total <= bestNs)
            return;
        bestNs = total;
        best.steps.assign(steps.begin() +
                              static_cast<std::ptrdiff_t>(begin),
                          steps.begin() +
                              static_cast<std::ptrdiff_t>(end));
        for (int c = 0; c < kNumStallCauses; ++c) {
            best.causeNs[c] = 0;
            for (std::size_t i = begin; i < end; ++i)
                best.causeNs[c] += steps[i].causeNs[c];
        }
    };
    for (std::size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].stallNs() > 0) {
            if (!inRun) {
                runBegin = i;
                inRun = true;
            }
        } else if (inRun) {
            consider(runBegin, i);
            inRun = false;
        }
    }
    if (inRun)
        consider(runBegin, steps.size());
    return best;
}

}  // namespace

int
CriticalPathReport::worstIteration() const
{
    int worst = -1;
    TimeNs worstNs = 0;
    for (std::size_t i = 0; i < iterations.size(); ++i) {
        if (worst < 0 || iterations[i].stallNs() > worstNs) {
            worst = static_cast<int>(i);
            worstNs = iterations[i].stallNs();
        }
    }
    return worst;
}

CriticalPathReport
extractCriticalPath(const std::vector<TraceEvent>& events, int pid)
{
    CriticalPathReport out;
    out.pid = pid;

    std::vector<CriticalPathStep> steps;
    TimeNs begin = 0;
    TimeNs end = 0;

    auto finalize = [&] {
        if (steps.empty())
            return;
        IterationPath iter;
        iter.index = static_cast<int>(out.iterations.size());
        iter.beginNs = begin;
        iter.endNs = end;
        iter.kernels = static_cast<int>(steps.size());
        for (const CriticalPathStep& s : steps) {
            iter.computeNs += s.durNs;
            for (int c = 0; c < kNumStallCauses; ++c)
                iter.causeNs[c] += s.causeNs[c];
        }
        iter.chain = longestChain(steps);
        out.iterations.push_back(std::move(iter));
        steps.clear();
    };

    for (const TraceEvent& ev : events) {
        if (ev.pid != pid || ev.kind != TraceEventKind::Span)
            continue;
        const auto k =
            static_cast<KernelId>(traceArgOf(ev, TraceArgKey::K, -1));
        if (ev.category == TraceCategory::Kernel) {
            if (!steps.empty() && k <= steps.back().kernel)
                finalize();
            if (steps.empty()) {
                begin = ev.ts;
                end = ev.ts;
            }
            CriticalPathStep step;
            step.kernel = k;
            step.name = ev.name;
            step.startNs = ev.ts;
            step.durNs = ev.dur;
            steps.push_back(std::move(step));
            end = std::max(end, ev.ts + ev.dur);
        } else if (ev.category == TraceCategory::Stall) {
            const auto cause = traceArgOf(ev, TraceArgKey::Cause, -1);
            if (cause < 0 || cause >= kNumStallCauses)
                continue;
            // Stall spans follow their kernel span, so binding walks
            // back at most a few steps (usually zero).
            for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
                if (it->kernel == k) {
                    it->causeNs[cause] += ev.dur;
                    end = std::max(end, ev.ts + ev.dur);
                    break;
                }
            }
        }
    }
    finalize();
    return out;
}

void
printCriticalPath(std::ostream& os, const CriticalPathReport& r,
                  std::size_t top_n)
{
    Table iterTable("per-iteration critical path (ms)");
    iterTable.setHeader({"iter", "kernels", "span", "compute",
                         "stall", "alloc", "fault", "queue", "data",
                         "chain_len", "chain_stall"});
    for (const IterationPath& it : r.iterations)
        iterTable.addRowOf(
            static_cast<long long>(it.index),
            static_cast<long long>(it.kernels), toMs(it.spanNs()),
            toMs(it.computeNs), toMs(it.stallNs()),
            toMs(it.causeNs[0]), toMs(it.causeNs[1]),
            toMs(it.causeNs[2]), toMs(it.causeNs[3]),
            static_cast<long long>(it.chain.steps.size()),
            toMs(it.chain.totalNs()));
    iterTable.print(os);

    const int worst = r.worstIteration();
    if (worst < 0) {
        os << "critical path: no kernel spans for pid " << r.pid
           << "\n";
        return;
    }
    const IterationPath& it =
        r.iterations[static_cast<std::size_t>(worst)];
    os << "worst iteration " << it.index << ": "
       << toMs(it.stallNs()) << " ms stalled of " << toMs(it.spanNs())
       << " ms; longest stall chain spans "
       << it.chain.steps.size() << " kernel(s), "
       << toMs(it.chain.totalNs()) << " ms\n";

    std::vector<const CriticalPathStep*> ranked;
    for (const CriticalPathStep& s : it.chain.steps)
        ranked.push_back(&s);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const CriticalPathStep* a,
                        const CriticalPathStep* b) {
                         return a->stallNs() > b->stallNs();
                     });
    if (ranked.size() > top_n)
        ranked.resize(top_n);

    Table chainTable("stall chain of iteration " +
                     std::to_string(it.index) + " (ms)");
    chainTable.setHeader({"k", "kernel", "exec", "stall", "alloc",
                          "fault", "queue", "data"});
    for (const CriticalPathStep* s : ranked)
        chainTable.addRowOf(static_cast<long long>(s->kernel),
                            s->name, toMs(s->durNs),
                            toMs(s->stallNs()), toMs(s->causeNs[0]),
                            toMs(s->causeNs[1]), toMs(s->causeNs[2]),
                            toMs(s->causeNs[3]));
    chainTable.print(os);
}

}  // namespace g10
