/**
 * @file
 * Request arrival processes for the open-loop serving simulator.
 *
 * Serving load is generated open-loop: arrival times do not depend on
 * how fast the system serves (a user does not wait for other users'
 * jobs before submitting). Three processes are modeled:
 *
 *  - Poisson: memoryless arrivals at a fixed rate, the classic
 *    steady-traffic model.
 *  - Bursty: an on/off modulated Poisson process — arrivals come at
 *    the given rate during ON windows and pause during OFF windows,
 *    modeling diurnal spikes and batch submissions.
 *  - Trace: a replayable arrival-trace file (one request per line,
 *    parsed as strictly as the mix-file format).
 *
 * All generation is seeded and uses raw engine draws converted with
 * fixed arithmetic (never std::*_distribution, whose algorithms are
 * implementation-defined), so a (seed, rate) pair replays the exact
 * same arrival sequence everywhere.
 */

#ifndef G10_SERVE_ARRIVAL_H
#define G10_SERVE_ARRIVAL_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "common/types.h"
#include "models/model_zoo.h"

namespace g10 {

/** Supported arrival processes. */
enum class ArrivalKind
{
    Poisson,  ///< memoryless arrivals at a fixed rate
    Bursty,   ///< Poisson modulated by on/off windows
    Trace,    ///< replayed from an arrival-trace file
};

/** Display/CLI name ("poisson", "bursty", "trace"). */
const char* arrivalKindName(ArrivalKind kind);

/** Parse an arrival kind name; false on unknown input. */
bool arrivalKindFromName(const std::string& name, ArrivalKind* out);

/** Arrival-process description (the serve file's `arrival` keys). */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** ON-window length for Bursty, seconds. */
    double burstOnSec = 0.05;

    /** OFF-window length for Bursty, seconds. */
    double burstOffSec = 0.05;

    /** Arrival-trace file for Trace. */
    std::string tracePath;
};

/**
 * Uniform double in (0, 1] from one raw engine draw — fixed 53-bit
 * conversion, identical on every platform (unlike
 * std::uniform_real_distribution). Exposed for deterministic weighted
 * picks elsewhere in the serving engine.
 */
double unitInterval(std::mt19937_64& engine);

/**
 * Generate @p count arrival times for a Poisson or Bursty process at
 * @p rate_per_sec (the ON-window rate for Bursty). Deterministic for a
 * (spec, rate, seed) triple; times are non-decreasing. fatal() when
 * called for ArrivalKind::Trace (replay the parsed file instead) or
 * with a non-positive rate.
 */
std::vector<TimeNs> generateArrivals(const ArrivalSpec& spec,
                                     double rate_per_sec, int count,
                                     std::uint64_t seed);

/** One request replayed from an arrival-trace file. */
struct TraceRequest
{
    TimeNs arrivalNs = 0;
    ModelKind model = ModelKind::ResNet152;

    /** Paper-scale batch size; 0 = the model's Fig. 11 batch. */
    int batchSize = 0;

    int iterations = 1;
    int priority = 1;
};

/** The arrival-trace (`.arr`) format: one `req =` line per request. */
const SpecFormat<std::vector<TraceRequest>>& arrivalTraceFormat();

/**
 * Parse an arrival-trace file (arrivalTraceFormat()). Unknown keys,
 * malformed values, decreasing timestamps, and empty traces are fatal
 * (exit 1) with file/line diagnostics. Format:
 *
 *   # '#' comments and blank lines are ignored
 *   # one request per line: "req = <arrival_ms> <Model> key=value ..."
 *   req = 0.0 ResNet152 batch=256
 *   req = 1.5 BERT iterations=2 priority=4
 *
 * Arrival times are non-decreasing milliseconds from simulation start.
 */
std::vector<TraceRequest> parseArrivalTrace(const std::string& path);

}  // namespace g10

#endif  // G10_SERVE_ARRIVAL_H
