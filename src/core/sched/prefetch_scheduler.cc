#include "prefetch_scheduler.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace g10 {

PrefetchStats
schedulePrefetches(EvictionSchedule& schedule, BandwidthModel& bandwidth,
                   const SystemConfig& config,
                   PrefetchSchedulerParams params)
{
    PrefetchStats stats;
    const double limit = static_cast<double>(config.gpuMemBytes) *
                         params.capacityFraction;

    // Traverse in latest-safe-prefetch-time order (§4.4).
    std::vector<std::size_t> order(schedule.migrations.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return schedule.migrations[a].prefetchLatest <
                         schedule.migrations[b].prefetchLatest;
              });

    for (std::size_t idx : order) {
        ScheduledMigration& m = schedule.migrations[idx];
        // Earliest the tensor could return: once its eviction finished.
        TimeNs t_min = m.evictComplete;
        TimeNs t_latest = m.prefetchLatest;
        if (t_latest <= t_min)
            continue;

        const auto bytes = static_cast<std::int64_t>(m.bytes);
        TimeNs chosen = schedule.pressure.earliestFit(
            t_min, t_latest, t_latest, bytes, limit);
        if (chosen >= t_latest)
            continue;  // no earlier slot fits; keep the latest-safe time

        // Move the prefetch: the tensor is resident from `chosen` on.
        schedule.pressure.add(chosen, t_latest, bytes);
        FlowSchedule old{m.prefetchStart, m.prefetchComplete};
        bandwidth.releasePrefetch(old, m.bytes, m.dest);
        FlowSchedule moved = bandwidth.planPrefetch(chosen, m.bytes,
                                                    m.dest);
        bandwidth.reservePrefetch(moved, m.bytes, m.dest);
        stats.totalSlackGainedNs += t_latest - chosen;
        m.prefetchStart = moved.start;
        m.prefetchComplete = moved.complete;
        m.prefetchDuration = moved.duration();
        ++stats.rescheduled;
    }

    schedule.finalPeakBytes =
        static_cast<Bytes>(schedule.pressure.maxValue());
    return stats;
}

}  // namespace g10
