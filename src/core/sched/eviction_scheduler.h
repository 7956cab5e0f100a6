/**
 * @file
 * Smart tensor eviction scheduling (paper §4.3, Algorithm 1).
 *
 * Iteratively selects the inactive period whose eviction yields the
 * highest benefit/cost ratio -- benefit being the area of the
 * memory-pressure curve above GPU capacity that the eviction removes
 * (Fig. 7's shaded region), cost being the eviction + prefetch I/O time
 * -- commits it, updates the pressure curve and per-channel bandwidth
 * timelines, and repeats until pressure fits under capacity or no
 * beneficial candidate remains.
 *
 * Destination choice follows Algorithm 1: SSD first (capacity), host
 * memory when the SSD write path is saturated in the eviction window and
 * the host still has room for the tensor over its inactive period.
 *
 * Candidate selection uses a lazy-greedy priority queue: benefits only
 * shrink as evictions are committed (pressure only decreases), so a
 * popped candidate whose recomputed score still dominates the next
 * entry's stale score is globally best. This keeps the loop near
 * O(P log P) instead of Algorithm 1's literal O(P^2) re-sort without
 * changing its choices.
 */

#ifndef G10_CORE_SCHED_EVICTION_SCHEDULER_H
#define G10_CORE_SCHED_EVICTION_SCHEDULER_H

#include <vector>

#include "common/pressure_curve.h"
#include "common/system_config.h"
#include "core/sched/bandwidth_model.h"
#include "core/sched/schedule_types.h"
#include "core/vitality/vitality.h"

namespace g10 {

struct EvictionSchedule;

/** Tunables for the eviction pass. */
struct EvictionSchedulerParams
{
    /** Safety margin subtracted from the latest safe prefetch time. */
    TimeNs prefetchSafetyNs = 50 * USEC;

    /** Ignore periods shorter than this (not worth a migration). */
    TimeNs minPeriodNs = 100 * USEC;

    /** Ignore tensors smaller than this (page-compaction territory). */
    Bytes minTensorBytes = 64 * KiB;

    /** Allow evictions to the SSD (G10, G10-GDS). */
    bool allowSsd = true;

    /** Allow evictions to host memory (G10, G10-Host). */
    bool allowHost = true;

    /**
     * Fraction of host DRAM available for staging tensors (the rest
     * belongs to the OS/framework).
     */
    double hostMemFraction = 1.0;

    /**
     * Optional warm start for incremental re-planning (TENSILE-style):
     * a schedule previously compiled for the *same model topology* at a
     * different batch size or GPU capacity (elastic partition resizes
     * replay a schedule compiled at capacity C against capacity C′).
     * Its (tensor, period) picks are re-validated against the new
     * vitality analysis and committed first; the greedy search then
     * only runs for the pressure the capacity/topology delta left
     * uncovered — when the replayed picks already fit under capacity
     * the O(P log P) search is skipped entirely. On a shrink (C′ < C)
     * every prior pick stays beneficial and replays; on a grow
     * (C′ > C) the replay stops as soon as pressure fits and the
     * now-unnecessary tail is dropped. The replay outcome is reported
     * in EvictionSchedule::{warmReplayed, warmDropped}. Borrowed
     * pointer; the schedule must outlive run(). nullptr = cold compile
     * (bit-identical to the pre-warm-start behavior).
     */
    const EvictionSchedule* warmStart = nullptr;
};

/** Output of the eviction pass (prefetches still at their latest time). */
struct EvictionSchedule
{
    std::vector<ScheduledMigration> migrations;

    /**
     * Pressure curve after all committed evictions, handed to
     * schedulePrefetches(). compileG10Plan() drops it once that pass is
     * done, so compiled (and cached) plans do not carry it.
     */
    PressureCurve pressure;

    /** Peak pressure before any eviction. */
    Bytes initialPeakBytes = 0;

    /** Peak pressure after scheduling. */
    Bytes finalPeakBytes = 0;

    /** Planned eviction traffic per destination. */
    Bytes bytesToSsd = 0;
    Bytes bytesToHost = 0;

    /** Number of candidate evaluations (for complexity tests). */
    std::uint64_t evaluations = 0;

    /** GPU capacity this schedule was compiled against (the C in a
     *  later "replay at C′" warm start). */
    Bytes scheduledForGpuBytes = 0;

    /** Warm-start replay outcome: prior picks recommitted vs. prior
     *  picks the capacity/topology delta invalidated or made
     *  unnecessary. Both zero on cold compiles. */
    std::uint64_t warmReplayed = 0;
    std::uint64_t warmDropped = 0;

    /** Fraction of the prior schedule that replayed (0 when cold). */
    double warmHitRate() const
    {
        const std::uint64_t total = warmReplayed + warmDropped;
        return total > 0
            ? static_cast<double>(warmReplayed) /
                  static_cast<double>(total)
            : 0.0;
    }
};

/** Runs Algorithm 1 over one iteration's vitality analysis. */
class EvictionScheduler
{
  public:
    EvictionScheduler(const VitalityAnalysis& vitality,
                      const SystemConfig& config,
                      EvictionSchedulerParams params = {});

    /** Execute the scheduling loop and return the committed schedule. */
    EvictionSchedule run();

    /** The bandwidth model after run() (prefetch pass continues on it). */
    BandwidthModel& bandwidth() { return bandwidth_; }

  private:
    struct Candidate
    {
        std::size_t periodIndex;
        double staleScore;
    };

    /**
     * Benefit/cost of evicting the tensor of period @p pi right now.
     * @return score, plus the window/durations via out-params.
     */
    double scorePeriod(std::size_t pi, const PressureCurve& pressure,
                       std::int64_t cap, TimeNs* evict_complete,
                       TimeNs* prefetch_latest) const;

    /**
     * Choose a destination, check feasibility, and commit period @p pi
     * (Algorithm 1 lines 7-17 plus the bandwidth/pressure updates).
     * @return false when no destination has room (nothing committed)
     */
    bool tryCommit(std::size_t pi, double host_cap,
                   EvictionSchedule* out);

    const VitalityAnalysis& vitality_;
    SystemConfig config_;
    EvictionSchedulerParams params_;
    BandwidthModel bandwidth_;

    // Host staging occupancy over planned time (bytes).
    PressureCurve hostMemUse_;
};

}  // namespace g10

#endif  // G10_CORE_SCHED_EVICTION_SCHEDULER_H
