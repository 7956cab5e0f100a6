/**
 * @file
 * Fleet-scale serving simulator: N heterogeneous GPU+SSD nodes behind
 * a router absorbing one shared open-loop arrival stream.
 *
 * Each node is a complete ServeSim scenario — its own SystemConfig,
 * partition slots, admission queue, plan cache, and SSD — and the
 * fleet layer adds what a cluster front-end adds in production: one
 * seeded request stream, a placement policy that maps each request to
 * a node at arrival time (join-shortest-queue, plan-aware by compiled
 * working-set footprint, or class-affinity pinning model families),
 * and fleet-level metrics: SLO attainment over the whole stream,
 * per-node utilization spread (min/max/mean/Jain), throughput
 * capacity per node, and consolidated SSD write amplification.
 *
 * Determinism: the stream is generated once from the fleet seed
 * (node-count independent), each node's per-job perturbation seed is
 * split from the fleet seed with fleetNodeSeed() (so adding a node
 * never perturbs another node's simulation), routing draws no
 * randomness, and the (placement × node) cells simulate concurrently
 * on ExperimentEngine's pool with per-cell counter registries merged
 * in grid order — results are bit-identical for a given spec
 * regardless of worker count.
 */

#ifndef G10_FLEET_FLEET_SIM_H
#define G10_FLEET_FLEET_SIM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/experiment_engine.h"
#include "fleet/fleet_spec.h"
#include "fleet/router.h"
#include "serve/serve_sim.h"

namespace g10 {

/** Fleet-level aggregates of one placement policy. */
struct FleetMetrics
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;

    /** Fraction of the *fleet's* offered requests that met their SLO
     *  (a node's SLO reference is its own unloaded latency). */
    double sloAttainment = 0.0;

    /** Completed requests per second of fleet makespan. */
    double throughputRps = 0.0;

    /** throughputRps / node count: the consolidation scorecard. */
    double capacityPerNodeRps = 0.0;

    /** Last finish on any node - first fleet arrival. */
    TimeNs makespanNs = 0;

    // Per-node GPU utilization spread, every utilization normalized
    // to the *fleet* makespan so idle nodes count as zero.
    double utilMin = 0.0;
    double utilMax = 0.0;
    double utilMean = 0.0;
    double utilJain = 0.0;  ///< Jain fairness index of the spread

    /** Plan-cache outcomes summed over the nodes (the number class-
     *  affinity routing exists to maximize). */
    std::uint64_t warmCompiles = 0;
    std::uint64_t coldCompiles = 0;

    /** Fleet-consolidated WAF: sum of NAND writes over sum of host
     *  writes across every node's SSD. */
    double consolidatedWaf = 1.0;

    /** Per-node SSD wear summed across the fleet. */
    SsdStats ssd;
};

/** One placement policy's outcome over the shared stream. */
struct FleetPlacementResult
{
    PlacementKind kind = PlacementKind::JoinShortestQueue;

    /** Per node: a full serving cell over the node's substream. A
     *  node the policy routed nothing to has an empty cell (zero
     *  offered, zero metrics). */
    std::vector<ServeCellResult> nodeCells;

    /** How many fleet requests each node was offered. */
    std::vector<std::uint64_t> nodeOffered;

    FleetMetrics fleet;

    /**
     * Auto-knee mode (FleetSpec::ratesAuto): the bisected fleet
     * capacity knee — the highest probed offered rate every node
     * sustained (0 when even the lowest probe overloaded some node;
     * nodeCells then record that lowest probe). In fixed-rate mode
     * the knee stays 0 and rateProbes 0.
     */
    double kneeRatePerS = 0.0;

    /** Probes the auto search spent on this placement. */
    std::uint64_t rateProbes = 0;
};

/** Whole-fleet outcome (what g10fleet reports). */
struct FleetResult
{
    FleetSpec spec;

    /** Display names of the job classes, by class index. */
    std::vector<std::string> classNames;

    /** Node names, by node index (spec order). */
    std::vector<std::string> nodeNames;

    /** Unloaded latencies, [node][class] — each node's SLO reference
     *  on one of its own idle partition slots. */
    std::vector<std::vector<ServeClassBaseline>> baselines;

    /** One entry per spec placement, in spec order. */
    std::vector<FleetPlacementResult> placements;

    /** Fleet-wide observability counters (empty unless the run
     *  collected them): per-cell registries merged in
     *  (placement, node) order, worker-count independent. In
     *  auto-knee mode, decided probes merge in probe order per
     *  placement — wasted speculation is dropped wholesale. */
    CounterRegistry counters;

    /** Auto-knee probe-scheduler totals (all zero in fixed-rate
     *  mode). Reporting-only, like the serve sweep's: speculation
     *  depends on pool timing, the decided path never does. */
    std::uint64_t probesIssued = 0;
    std::uint64_t probesSpeculative = 0;
    std::uint64_t probeSpecUsed = 0;
    std::uint64_t probeSpecWasted = 0;
    std::uint64_t probeCacheHits = 0;

    /** True when no node cell had failed (crashed) jobs. */
    bool allSucceeded() const;
};

/** Observability hookup for one fleet run (all fields optional). */
struct FleetObsRequest
{
    /** Merge every cell's CounterRegistry into the result. */
    bool collectCounters = false;

    /**
     * Event sink for the *first* placement's cells. Nodes stream into
     * it with per-node pid offsets (node i's request pids start at
     * i * kFleetPidStride), so one Chrome trace renders the whole
     * fleet with one process group per node. The traced cells run
     * in node order inside one pool task (sinks are not thread-safe),
     * beside the other placements' cells; results are bit-identical
     * either way.
     */
    TraceSink* sink = nullptr;

    bool any() const { return collectCounters || sink != nullptr; }
};

/** Pid stride between nodes in a fleet trace (request pids are
 *  node * stride + node-local request index). */
inline constexpr int kFleetPidStride = 100000;

/** Simulates one fleet spec across its placement policies. */
class FleetSim
{
  public:
    explicit FleetSim(const FleetSpec& spec);
    ~FleetSim();  // defined where SweepPlanCache is complete

    /** Run every (placement, node) cell through @p engine's pool. */
    FleetResult run(ExperimentEngine& engine);

    /** run() with observability (counters merged in grid order). */
    FleetResult run(ExperimentEngine& engine,
                    const FleetObsRequest& obs);

    // ---- Introspection (tests and tools) -----------------------------

    /** The shared fleet arrival stream (node-count independent). */
    const std::vector<ServeRequest>& stream() const { return stream_; }

    /** Resolved job classes (batch sizes and names defaulted). */
    const std::vector<ServeJobClass>& classes() const
    {
        return classes_;
    }

    /** Node @p i's resolved ServeSpec (seed split from the fleet). */
    const ServeSpec& nodeServeSpec(std::size_t i) const
    {
        return nodeSpecs_.at(i);
    }

    /** Route the shared stream under @p kind (pure, repeatable). */
    RoutedStream routed(PlacementKind kind) const
    {
        return router_->route(kind, stream_);
    }

  private:
    FleetSpec spec_;
    const PolicyInfo& design_;            ///< spec_.design resolved
    std::vector<ServeJobClass> classes_;  ///< resolved classes
    std::vector<KernelTrace> traces_;     ///< per-class, scaled
    std::vector<Bytes> floors_;           ///< per-class capacity floors
    std::vector<TimeNs> serviceEst_;      ///< per-class plan estimates
    std::vector<ServeSpec> nodeSpecs_;    ///< stable: ServeSim holds refs
    std::vector<ServeRequest> stream_;    ///< the shared fleet stream
    std::unique_ptr<Router> router_;

    /** One compile cache for the whole fleet: identical nodes compile
     *  each (model, capacity, seed-chain) plan once, and every
     *  placement's grid reuses it (keys fingerprint the node's system
     *  config, so heterogeneous nodes coexist). */
    std::unique_ptr<SweepPlanCache> planCache_;

    /** Per-node unloaded baselines [node][class]. */
    std::vector<std::vector<ServeClassBaseline>>
    computeBaselines(ExperimentEngine& engine) const;

    /** Aggregate one placement's node cells into fleet metrics.
     *  @p firstArrival anchors the makespan: the shared stream's
     *  first arrival in fixed-rate mode, the knee probe's in auto
     *  mode (each probed rate redraws arrival times). */
    FleetMetrics aggregate(const FleetPlacementResult& placement,
                           TimeNs firstArrival) const;

    /** The cell of a node the router sent nothing at @p rate (the
     *  spread metrics still see the idle machine). */
    ServeCellResult idleCell(double rate) const;

    /**
     * `rate = auto`: per placement, bisect the fleet-wide offered
     * rate for the capacity knee through runKneeSearch (one lane per
     * placement). One probe = route the re-timed stream, then run
     * every node sequentially inside the probe; one SweepPlanCache
     * spans all nodes, placements and probes.
     */
    void runKnee(ExperimentEngine& engine, const FleetObsRequest& obs,
                 FleetResult* out);
};

}  // namespace g10

#endif  // G10_FLEET_FLEET_SIM_H
