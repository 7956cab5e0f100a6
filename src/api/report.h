/**
 * @file
 * Structured result reporting: one place that turns RunResult /
 * MixResult / serve and fleet results into human tables, CSV, or
 * machine-readable JSON (the `--format` surface of g10sim/g10multi).
 *
 * JSON documents carry a `schema` tag (`g10.run_result.v1`,
 * `g10.mix_result.v1`, `g10.serve_result.v1`,
 * `g10.fleet_result.v1`, `g10.metrics.v1`) so downstream tooling can
 * dispatch without sniffing fields.
 */

#ifndef G10_API_REPORT_H
#define G10_API_REPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "common/json_writer.h"
#include "engine/multi_tenant.h"
#include "fleet/fleet_sim.h"
#include "obs/analysis/critical_path.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/analysis/flame.h"
#include "obs/analysis/forensics.h"
#include "obs/counters.h"
#include "serve/serve_sim.h"

namespace g10 {

/** Output encodings supported by the CLIs. */
enum class ReportFormat
{
    Table,  ///< aligned human-readable tables (default)
    Json,   ///< one machine-readable JSON document
    Csv,    ///< RFC-4180-ish CSV of the same tables
};

/**
 * Parse a `--format` value (case-insensitive); fatal() listing the
 * valid names on unknown input.
 */
ReportFormat reportFormatFromName(const std::string& name);

// ---- JSON serialization ---------------------------------------------

/** Serialize @p stats as a nested object onto an open writer. */
void writeJson(JsonWriter& w, const ExecStats& stats);

/** Serialize @p result (config echo + stats) as a complete document. */
void writeRunResultJson(std::ostream& os, const RunResult& result);

/** Serialize a consolidated multi-tenant result. */
void writeMixResultJson(std::ostream& os, const MixResult& result);

/** Serialize a serving sweep (`g10.serve_result.v1`). */
void writeServeResultJson(std::ostream& os,
                          const ServeSweepResult& result);

/** Serialize a fleet run (`g10.fleet_result.v1`). */
void writeFleetResultJson(std::ostream& os, const FleetResult& result);

/**
 * Serialize a CounterRegistry snapshot (`g10.metrics.v1`): every
 * monotonic counter by name, and per-distribution summary stats
 * (count/sum/mean/min/max and p50/p95/p99/p999). The `--metrics`
 * surface of the CLIs.
 */
void writeMetricsJson(std::ostream& os, const CounterRegistry& reg);

/**
 * Serialize one Distribution summary as a nested object onto an open
 * writer. An empty distribution emits `{"count": 0}` only, so the
 * absence of samples is distinguishable from a degenerate all-zero
 * distribution.
 */
void writeDistributionJson(JsonWriter& w, const Distribution& dist);

// ---- Trace-analysis documents (`g10.trace_analysis.v1`) -------------
//
// All four analyzers share one schema tag and carry an `analysis`
// discriminator ("critical_path", "diff", "flame", "forensics") so
// tooling can dispatch on the pair. Times are integer nanoseconds.

/** Serialize a critical-path report (`analysis: "critical_path"`). */
void writeCriticalPathJson(std::ostream& os,
                           const CriticalPathReport& report);

/** Serialize a differential attribution (`analysis: "diff"`). */
void writeDiffAttributionJson(std::ostream& os,
                              const DiffAttribution& diff);

/** Serialize a flame aggregation (`analysis: "flame"`). */
void writeFlameJson(std::ostream& os, const FlameAggregation& flame);

/** Serialize fleet forensics (`analysis: "forensics"`). */
void writeFleetForensicsJson(std::ostream& os,
                             const FleetForensics& forensics);

// ---- Format-dispatched printers -------------------------------------

/**
 * Print one run in @p format. Returns the suggested process exit code
 * (0 ok, 2 when the run failed) so the CLIs stay one-liners.
 */
int printRunResult(std::ostream& os, const RunResult& result,
                   ReportFormat format);

/** Print one consolidated mix in @p format (exit code as above). */
int printMixResult(std::ostream& os, const MixResult& result,
                   ReportFormat format);

/** Print one serving sweep in @p format (exit code as above). */
int printServeResult(std::ostream& os, const ServeSweepResult& result,
                     ReportFormat format);

/** Print one fleet run in @p format (exit code as above). */
int printFleetResult(std::ostream& os, const FleetResult& result,
                     ReportFormat format);

/**
 * Print the PolicyRegistry contents (name, aliases, description) —
 * the `--list-designs` surface.
 */
void printDesignList(std::ostream& os, ReportFormat format);

}  // namespace g10

#endif  // G10_API_REPORT_H
