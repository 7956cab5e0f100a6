/**
 * @file
 * Serving-scenario description: the job classes a node serves, the
 * arrival process that offers them, the admission policy and partition
 * slot count, the SLO definition, and the two sweep axes (designs ×
 * arrival rates) — plus a strict `key = value` serve-file parser for
 * the g10serve CLI, following the mix-file format conventions.
 */

#ifndef G10_SERVE_SERVE_SPEC_H
#define G10_SERVE_SERVE_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "common/system_config.h"
#include "common/types.h"
#include "models/model_zoo.h"
#include "serve/admission.h"
#include "serve/arrival.h"

namespace g10 {

/**
 * One class of requests the node serves (a model fine-tuning /
 * training job shape users submit repeatedly).
 */
struct ServeJobClass
{
    /** Display name; defaults to "<model>-<batch>". */
    std::string name;

    ModelKind model = ModelKind::ResNet152;

    /** Paper-scale batch size; 0 = the model's Fig. 11 batch. */
    int batchSize = 0;

    /** Training iterations per request. */
    int iterations = 1;

    /** Admission priority (AdmitPolicy::Priority). */
    int priority = 1;

    /** Relative share of the arrival mix (probability weight). */
    double weight = 1.0;
};

/**
 * How the serving node divides its memory among concurrent jobs.
 *
 *  - Static: `slots` fixed equal partitions, leased and reclaimed
 *    whole (the original behavior; compiled plans are maximally
 *    reusable because every lease has the same geometry).
 *  - Proportional: up to maxActive concurrent jobs share the whole
 *    machine equally — each admission shrinks the incumbents to
 *    1/(k+1) and each departure grows the survivors back (growth is
 *    hysteresis-gated). A lone job gets the entire machine.
 *  - OnDemand: arrivals take a static-slot-sized grant from the free
 *    pool while one exists, then split the largest live lease in
 *    half (never below half a slot); departures return capacity to
 *    the pool and hysteresis-gated grows top the smallest leases
 *    back up toward a full slot.
 */
enum class PartitionPolicy
{
    Static,
    Proportional,
    OnDemand,
};

/** CLI/file name of a partition policy ("static", "proportional",
 *  "ondemand"). */
const char* partitionPolicyName(PartitionPolicy policy);

/** Parse a partition policy name; false on unknown input. */
bool partitionPolicyFromName(const std::string& name,
                             PartitionPolicy* out);

/** A class with its defaults filled in: the model's Fig. 11 batch
 *  when none is set, and the name "<model>-<batch>" when none is set. */
ServeJobClass resolvedClass(ServeJobClass cls);

/** The demo class mix of the serve and fleet demos: ResNet152 at
 *  batch 512 and 256 (twice the weight) plus BERT. */
std::vector<ServeJobClass> demoClassMix();

/**
 * What a serving scenario shares between serve and fleet files: the
 * platform, the node defaults, the arrival stream, the SLO, the knee
 * search bracket and the job classes. Each of these keys is declared
 * once, in scenarioFormat().
 */
struct ScenarioSpec
{
    /** Platform before scaling (Table 2 defaults). */
    SystemConfig sys;

    /** Divide batches and capacities by this factor (1 = paper scale). */
    unsigned scaleDown = 16;

    /** Base RNG seed (arrivals, class picks, per-job perturbations). */
    std::uint64_t seed = 42;

    /** Concurrent partition slots (jobs actively sharing the GPU).
     *  Elastic policies use this as the equal-split reference size. */
    int slots = 2;

    /** How capacity is divided among concurrent jobs. */
    PartitionPolicy partitionPolicy = PartitionPolicy::Static;

    /**
     * Minimum relative capacity change that triggers a *growth*
     * resize of a live job (elastic policies). Shrinks needed to
     * admit an arrival are always applied; growth below the
     * hysteresis is deferred so departures don't thrash leases.
     */
    double resizeHysteresis = 0.25;

    /** Admission queue bound; arrivals beyond it are rejected. */
    std::size_t queueCapacity = 8;

    AdmitPolicy admit = AdmitPolicy::Fifo;

    /** Priority starvation-guard window; <= 0 disables the guard. */
    TimeNs starvationNs = 500 * MSEC;

    /**
     * A request meets its SLO when its completion latency (finish -
     * arrival) is within sloFactor × its class's unloaded latency (the
     * same job alone on one partition slot).
     */
    double sloFactor = 3.0;

    /** Requests offered per cell (Poisson/Bursty). */
    int requests = 32;

    ArrivalSpec arrival;

    /** First probe rate of the auto search; 0 = 0.05 req/s. */
    double rateLo = 0.0;

    /** Optional auto-search ceiling; 0 = unbounded (probe-limited). */
    double rateHi = 0.0;

    /** Max probes (cells) per search lane in auto mode. */
    int rateProbes = 10;

    /**
     * Speculatively evaluate the auto search's possible next probes
     * on idle pool workers while the decided probe runs
     * (`speculate = on|off`). Pure wall-clock, like sweep_cache: the
     * decided bisection path only *reads* memoized probe results in
     * sequential order, so the knee, every cell, and the serialized
     * document are byte-identical either way (and at any worker
     * count). Inert on pools with fewer than two workers.
     */
    bool speculativeProbes = true;

    /** The auto search's actual first probe rate: rateLo, defaulted,
     *  and clamped under the rateHi ceiling when one is set. */
    double resolvedRateLo() const
    {
        double lo = rateLo > 0.0 ? rateLo : 0.05;
        if (rateHi > 0.0 && lo > rateHi)
            lo = rateHi;
        return lo;
    }

    /** Job classes (Poisson/Bursty; trace files carry their own). */
    std::vector<ServeJobClass> classes;
};

/**
 * The keys and `class =` line serve and fleet files share.
 * @p traceArrivals: whether `arrival = trace` is accepted (fleet
 * arrivals are one shared generated stream).
 */
SpecFormat<ScenarioSpec> scenarioFormat(bool traceArrivals);

/**
 * The scenario checks serve and fleet specs share (requests >= 1,
 * rate_hi >= rate_lo); checkServeSpec and checkFleetSpec call it.
 */
void checkScenarioSpec(const ScenarioSpec& spec, const SpecLoc& at);

/** Everything one serving experiment needs. */
struct ServeSpec : ScenarioSpec
{
    /**
     * Elastic concurrency cap: most jobs simultaneously holding a
     * lease. 0 = derive (slots for proportional, 2*slots for
     * ondemand; static always uses slots).
     */
    int maxActive = 0;

    /** The cap after derivation (what the engine actually uses). */
    int resolvedMaxActive() const
    {
        if (partitionPolicy == PartitionPolicy::Static)
            return slots;
        if (maxActive > 0)
            return maxActive;
        return partitionPolicy == PartitionPolicy::OnDemand ? 2 * slots
                                                            : slots;
    }

    /**
     * Sweep axis: offered arrival rates in requests/second
     * (Poisson/Bursty). For trace arrivals each value is a time-scale
     * multiplier instead: rate 2 replays the trace twice as fast.
     * Empty iff ratesAuto (capacity-knee bisection).
     */
    std::vector<double> rates;

    /**
     * `rates = auto`: instead of sweeping a hand-guessed rate axis,
     * bisect per design for the sustained-throughput knee — grow the
     * probe rate geometrically until the bounded queue overflows,
     * then bisect the bracket. sustainedRate becomes the knee.
     */
    bool ratesAuto = false;

    /**
     * Memoize G10-family plan compiles across the whole sweep — rate
     * probes, grid cells, and the unloaded-baseline compiles share
     * one cache (`sweep_cache = on|off`). Pure wall-clock: results
     * are bit-identical either way (the compiler is deterministic, so
     * a cache hit returns exactly the plan a recompile would build),
     * which is what makes the auto-knee bisection cheap — probe N+1
     * replays probe N's per-model compile chain from the cache.
     */
    bool sweepPlanCache = true;

    /** Sweep axis: memory-management designs, by registry name. */
    std::vector<std::string> designs;
};

/** The serve-file format: scenarioFormat(true) plus max_active,
 *  trace, rates, sweep_cache and designs. */
const SpecFormat<ServeSpec>& serveFileFormat();

/**
 * Every cross-key check of a serve scenario (designs, rates, slots,
 * max_active, the rate bracket, trace path and job classes): an
 * inconsistent spec fails at @p at and exits 1. parseServeFile and
 * the ServeSweep constructor both call it, so file, demo, CLI-
 * overridden and code-built specs are held to the same rules. Design
 * names are not looked up here: the `designs` key resolves them in a
 * file, and ServeSweep resolves a code-built spec's once, before
 * this check.
 */
void checkServeSpec(const ServeSpec& spec, const SpecLoc& at = {});

/**
 * Parse a serve file (serveFileFormat(); `g10serve --help` lists the
 * keys). Unknown keys, malformed values, and inconsistent scenarios
 * (checkServeSpec) are fatal (exit 1) with file/line diagnostics.
 * Example:
 *
 *   scale = 32
 *   slots = 2
 *   partition_policy = ondemand
 *   rates = 5,10,20            # or: rates = auto (capacity knee)
 *   designs = baseuvm,deepum,g10
 *   class = ResNet152 batch=256 weight=2
 *   class = BERT iterations=2 priority=4
 */
ServeSpec parseServeFile(const std::string& path);

/**
 * The built-in demo scenario (g10serve --demo and the CI smoke run):
 * two ResNet batches + BERT under Poisson traffic, three designs at
 * three rates, at platform scale 1/@p scale.
 */
ServeSpec demoServeSpec(unsigned scale);

}  // namespace g10

#endif  // G10_SERVE_SERVE_SPEC_H
