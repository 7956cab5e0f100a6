#include "eviction_scheduler.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace g10 {

EvictionScheduler::EvictionScheduler(const VitalityAnalysis& vitality,
                                     const SystemConfig& config,
                                     EvictionSchedulerParams params)
    : vitality_(vitality), config_(config), params_(params),
      bandwidth_(config)
{
    if (!params_.allowSsd && !params_.allowHost)
        fatal("eviction scheduler needs at least one destination");
}

double
EvictionScheduler::scorePeriod(std::size_t pi,
                               const PressureCurve& pressure,
                               std::int64_t cap,
                               TimeNs* evict_complete,
                               TimeNs* prefetch_latest) const
{
    const InactivePeriod& p = vitality_.periods()[pi];
    const Tensor& t = vitality_.trace().tensor(p.tensor);
    const Bytes size = t.bytes;

    // Conservative duration estimates use the slower allowed path so the
    // benefit window is valid for either destination.
    MemLoc slow_dest = params_.allowSsd ? MemLoc::Ssd : MemLoc::Host;
    TimeNs evict_dur = bandwidth_.evictDuration(size, slow_dest);
    TimeNs prefetch_dur = bandwidth_.prefetchDuration(size, slow_dest);

    TimeNs t_free = p.startNs + evict_dur;
    TimeNs t_pf = p.endNs - prefetch_dur - params_.prefetchSafetyNs;
    if (evict_complete)
        *evict_complete = t_free;
    if (prefetch_latest)
        *prefetch_latest = t_pf;

    if (t_pf <= t_free)
        return -1.0;  // period too short to hide the round trip

    // Paper Fig. 7: benefit = area of pressure above capacity that this
    // eviction removes; per-instant removal is capped by tensor size.
    const PressureCurve::Area area = pressure.integralAbove(
        t_free, t_pf, cap, static_cast<std::int64_t>(size));
    if (area <= 0)
        return 0.0;

    double cost_ns = static_cast<double>(evict_dur + prefetch_dur);
    return static_cast<double>(area) / cost_ns;
}

bool
EvictionScheduler::tryCommit(std::size_t pi, double host_cap,
                             EvictionSchedule* out)
{
    const InactivePeriod& p = vitality_.periods()[pi];
    const Tensor& t = vitality_.trace().tensor(p.tensor);
    const Bytes size = t.bytes;

    // ---- Destination choice (Algorithm 1 lines 7-17). ----
    // SSD first for capacity; divert to host when the flash path is
    // under pressure in either the eviction window or the planned
    // prefetch window (a tensor written to the SSD must also come
    // *back* through the saturated read path in time).
    TimeNs pf_ssd = std::max(
        p.startNs,
        p.endNs - bandwidth_.prefetchDuration(size, MemLoc::Ssd) -
            params_.prefetchSafetyNs);
    MemLoc dest = MemLoc::Ssd;
    if (!params_.allowSsd) {
        dest = MemLoc::Host;
    } else if (params_.allowHost &&
               (bandwidth_.ssdEvictSaturated(p.startNs, size) ||
                bandwidth_.ssdPrefetchSaturated(pf_ssd, size))) {
        dest = MemLoc::Host;
    }
    if (dest == MemLoc::Host) {
        // Host staging must have room for the whole inactive period.
        double host_peak =
            static_cast<double>(hostMemUse_.maxOver(p.startNs, p.endNs)) +
            static_cast<double>(size);
        if (host_peak > host_cap) {
            if (params_.allowSsd) {
                dest = MemLoc::Ssd;  // fall back to SSD
            } else {
                return false;  // host-only mode and host is full
            }
        }
    }

    // ---- Feasibility under contention. ----
    FlowSchedule evict_flow = bandwidth_.planEvict(p.startNs, size,
                                                   dest);
    TimeNs deadline = p.endNs - params_.prefetchSafetyNs;
    TimeNs pf_latest =
        bandwidth_.latestPrefetchStart(deadline, size, dest);
    if (pf_latest <= evict_flow.complete) {
        // The round trip cannot be fully hidden any more. When the
        // program is bandwidth-bound this is true for *all* the
        // remaining excess; planned-but-late streaming still beats
        // demand faulting and allocator thrash, so commit with the
        // prefetch as late as possible: it will arrive past its
        // deadline (contention), but it must not return earlier
        // than necessary and re-inflate memory pressure.
        pf_latest = std::max(
            evict_flow.complete + 1,
            deadline - bandwidth_.prefetchDuration(size, dest));
    }

    // ---- Commit. ----
    ScheduledMigration m;
    m.periodIndex = pi;
    m.tensor = p.tensor;
    m.bytes = size;
    m.dest = dest;
    m.evictStart = evict_flow.start;
    m.evictComplete = evict_flow.complete;
    m.prefetchLatest = pf_latest;
    m.prefetchStart = pf_latest;
    FlowSchedule pf_flow =
        bandwidth_.planPrefetch(pf_latest, size, dest);
    m.prefetchComplete = pf_flow.complete;
    m.prefetchDuration = pf_flow.duration();
    m.wrapsIteration = p.wrapsIteration;

    out->pressure.add(m.evictComplete, m.prefetchStart,
                      -static_cast<std::int64_t>(size));
    bandwidth_.reserveEvict(evict_flow, size, dest);
    bandwidth_.reservePrefetch(pf_flow, size, dest);
    if (dest == MemLoc::Host) {
        hostMemUse_.add(p.startNs, p.endNs,
                        static_cast<std::int64_t>(size));
        out->bytesToHost += size;
    } else {
        out->bytesToSsd += size;
    }
    out->migrations.push_back(m);
    return true;
}

EvictionSchedule
EvictionScheduler::run()
{
    const auto& periods = vitality_.periods();
    const auto cap = static_cast<std::int64_t>(config_.gpuMemBytes);
    const double host_cap = static_cast<double>(config_.hostMemBytes) *
                            params_.hostMemFraction;

    EvictionSchedule out;
    out.pressure = vitality_.memoryPressure();
    out.initialPeakBytes =
        static_cast<Bytes>(out.pressure.maxValue());
    out.scheduledForGpuBytes = config_.gpuMemBytes;

    std::vector<bool> committed(periods.size(), false);

    // Warm-start replay: re-validate the previous schedule's picks
    // against the new vitality analysis and capacity, committing the
    // ones that are still beneficial. Period indices line up when the
    // topology is unchanged (same model, different batch or partition
    // capacity). A capacity shrink leaves every pick beneficial (more
    // pressure sits above the lower cap); a capacity grow makes a
    // tail of them unnecessary — the replay stops as soon as pressure
    // fits and drops the rest. Entries that no longer match the
    // topology or no longer help are dropped individually. Either
    // way, the greedy search below only runs for whatever pressure
    // the delta left uncovered.
    // The pressure peak only moves when tryCommit() lands a migration,
    // so every convergence check below reuses this hoisted value and
    // refreshes it exactly once per successful commit instead of
    // re-asking the (possibly dirty) curve each iteration.
    std::int64_t peak = out.pressure.maxValue();

    if (params_.warmStart != nullptr) {
        const auto& prior = params_.warmStart->migrations;
        for (std::size_t wi = 0; wi < prior.size(); ++wi) {
            const ScheduledMigration& wm = prior[wi];
            if (peak <= cap) {
                // Capacity grew past the remaining picks' benefit.
                out.warmDropped += prior.size() - wi;
                break;
            }
            std::size_t pi = wm.periodIndex;
            if (pi >= periods.size() ||
                periods[pi].tensor != wm.tensor) {
                ++out.warmDropped;  // topology drifted
                continue;
            }
            const InactivePeriod& p = periods[pi];
            const Tensor& t = vitality_.trace().tensor(p.tensor);
            if (t.bytes < params_.minTensorBytes ||
                p.lengthNs() < params_.minPeriodNs) {
                ++out.warmDropped;
                continue;
            }
            double s = scorePeriod(pi, out.pressure, cap, nullptr,
                                   nullptr);
            ++out.evaluations;
            if (s <= 0.0) {
                ++out.warmDropped;
                continue;
            }
            if (tryCommit(pi, host_cap, &out)) {
                committed[pi] = true;
                ++out.warmReplayed;
                peak = out.pressure.maxValue();
            } else {
                ++out.warmDropped;
            }
        }
    }

    // When pressure already fits under capacity — the model simply
    // fits, or the replayed warm start brought it under — the greedy
    // search has nothing to do: the loop below would discard every
    // candidate unpopped, so skip seeding the heap (and its
    // O(periods) scoring scans) entirely.
    const bool search = peak > cap;

    // Seed the lazy-greedy heap with optimistic scores.
    auto cmp = [](const Candidate& a, const Candidate& b) {
        return a.staleScore < b.staleScore;
    };
    std::priority_queue<Candidate, std::vector<Candidate>, decltype(cmp)>
        heap(cmp);

    if (search) {
        for (std::size_t i = 0; i < periods.size(); ++i) {
            if (committed[i])
                continue;  // already replayed from the warm start
            const InactivePeriod& p = periods[i];
            const Tensor& t = vitality_.trace().tensor(p.tensor);
            if (t.bytes < params_.minTensorBytes)
                continue;
            if (p.lengthNs() < params_.minPeriodNs)
                continue;
            double s = scorePeriod(i, out.pressure, cap, nullptr,
                                   nullptr);
            ++out.evaluations;
            if (s > 0.0)
                heap.push(Candidate{i, s});
        }
    }

    while (!heap.empty()) {
        if (peak <= cap)
            break;  // memory pressure fits; Algorithm 1 line 3

        Candidate top = heap.top();
        heap.pop();
        if (committed[top.periodIndex])
            continue;

        TimeNs evict_complete = 0;
        TimeNs prefetch_latest = 0;
        double fresh = scorePeriod(top.periodIndex, out.pressure, cap,
                                   &evict_complete, &prefetch_latest);
        ++out.evaluations;
        if (fresh <= 0.0)
            continue;  // no longer beneficial
        if (!heap.empty() && fresh + 1e-12 < heap.top().staleScore) {
            // Stale: someone else may now be better; reinsert.
            heap.push(Candidate{top.periodIndex, fresh});
            continue;
        }

        if (tryCommit(top.periodIndex, host_cap, &out)) {
            committed[top.periodIndex] = true;
            peak = out.pressure.maxValue();
        }
    }

    out.finalPeakBytes = static_cast<Bytes>(peak);
    std::sort(out.migrations.begin(), out.migrations.end(),
              [](const ScheduledMigration& a, const ScheduledMigration& b) {
                  return a.evictStart < b.evictStart;
              });
    return out;
}

}  // namespace g10
