/**
 * @file
 * Per-kernel stall attribution (the paper's Fig. 12/13 evidence):
 * decompose measured − ideal iteration time into named causes, per
 * kernel, from the event stream of a traced run.
 *
 * The runtime emits, for every measured kernel, one kernel span
 * carrying its ideal/actual contribution and up to four stall spans
 * (alloc, fault, compute_queue, data). Those four cover the kernel's
 * slip past its *replayed* duration exactly; any remainder against the
 * unperturbed ideal is the timing-noise residual (non-zero only with
 * `timing_error > 0`), reported as its own column so the table always
 * sums to measured − ideal.
 */

#ifndef G10_OBS_ATTRIBUTION_H
#define G10_OBS_ATTRIBUTION_H

#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace_event.h"

namespace g10 {

/** One measured kernel's decomposition. */
struct StallAttributionRow
{
    KernelId kernel = 0;
    std::string name;
    TimeNs idealNs = 0;
    TimeNs actualNs = 0;
    TimeNs causeNs[kNumStallCauses] = {0, 0, 0, 0};

    /** Sum of the four attributed causes. */
    TimeNs attributedNs() const
    {
        TimeNs s = 0;
        for (TimeNs c : causeNs)
            s += c;
        return s;
    }

    /** (actual − ideal) − attributed: kernel-duration noise. */
    TimeNs noiseNs() const
    {
        return actualNs - idealNs - attributedNs();
    }
};

/** Whole-iteration decomposition. */
struct StallAttribution
{
    std::vector<StallAttributionRow> rows;  ///< one per kernel id
    TimeNs idealNs = 0;
    TimeNs measuredNs = 0;
    TimeNs causeNs[kNumStallCauses] = {0, 0, 0, 0};
    TimeNs noiseNs = 0;

    TimeNs attributedNs() const
    {
        TimeNs s = 0;
        for (TimeNs c : causeNs)
            s += c;
        return s;
    }
};

/**
 * Aggregate the measured-iteration kernel/stall spans of @p events
 * into a per-kernel table. Kernel display names come from the kernel
 * spans themselves and the table is sized by the largest kernel id
 * seen, so a re-ingested --trace file needs no model/config context.
 * Only events with pid == @p pid contribute (multi-job traces carry
 * several jobs' spans).
 */
StallAttribution buildStallAttribution(
    const std::vector<TraceEvent>& events, int pid = 0);

/**
 * Print the attribution as an aligned table: the @p top_n kernels by
 * stall time plus a totals row, followed by a one-line invariant check
 * (causes + noise == measured − ideal).
 */
void printStallAttribution(std::ostream& os, const StallAttribution& a,
                           std::size_t top_n = 20);

}  // namespace g10

#endif  // G10_OBS_ATTRIBUTION_H
