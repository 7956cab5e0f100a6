/**
 * @file
 * Fleet-scenario description: N heterogeneous GPU+SSD serving nodes
 * behind one router. Each node is a full ServeSim scenario (its own
 * SystemConfig, partition slots, and admission queue); the fleet spec
 * adds the shared arrival stream, the single design under test, the
 * placement-policy sweep axis, and per-node capacity overrides —
 * plus a strict `key = value` fleet-file parser for the g10fleet CLI,
 * following the serve-file format conventions.
 */

#ifndef G10_FLEET_FLEET_SPEC_H
#define G10_FLEET_FLEET_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_spec.h"

namespace g10 {

/**
 * How the router maps one fleet request onto a node.
 *
 *  - JoinShortestQueue: least estimated backlog per slot at arrival
 *    time (classic JSQ, normalized so heterogeneous slot counts
 *    compare fairly).
 *  - PlanAware: by compiled working-set footprint — only nodes whose
 *    partition slot fits the class's capacity floor are eligible, and
 *    among them the one with the least in-flight footprint per GPU
 *    byte wins (big models land on big nodes, small models fill the
 *    gaps).
 *  - ClassAffinity: one home node per model family (ModelKind), so a
 *    node's plan cache sees the same model repeatedly and nearly
 *    every admission compile is a warm start. Pins come from the
 *    node specs (`families = ...`); unpinned families are assigned
 *    in first-appearance order to the emptiest node.
 */
enum class PlacementKind
{
    JoinShortestQueue,
    PlanAware,
    ClassAffinity,
};

/** CLI/file name of a placement policy ("jsq", "planaware",
 *  "affinity"). */
const char* placementKindName(PlacementKind kind);

/** Parse a placement-policy name; false on unknown input. */
bool placementKindFromName(const std::string& name, PlacementKind* out);

/**
 * One node of the fleet. Zero-valued knobs inherit the fleet-level
 * value, so a homogeneous fleet is just N named lines.
 */
struct FleetNodeSpec
{
    /** Display name (unique within the fleet). */
    std::string name;

    /** Platform overrides, pre-scaling; 0 = inherit FleetSpec::sys. */
    double gpuGb = 0.0;
    double hostGb = 0.0;
    double ssdGbps = 0.0;
    double pcieGbps = 0.0;

    /** Concurrent partition slots; 0 = inherit FleetSpec::slots. */
    int slots = 0;

    /** Admission queue bound; -1 = inherit FleetSpec::queueCapacity. */
    long long queue = -1;

    /** Model families pinned to this node (ClassAffinity only). A
     *  family may be pinned to at most one node. */
    std::vector<ModelKind> families;
};

/**
 * Everything one fleet experiment needs: the shared scenario (node
 * defaults, the one arrival stream, SLO, knee-search bracket, classes)
 * plus the fleet's own rate, design, placements and nodes. The seed
 * drives the shared stream; every node's ServeSpec seed is split from
 * it (fleetNodeSeed).
 */
struct FleetSpec : ScenarioSpec
{
    /** By default 24 requests are offered to the whole fleet. */
    FleetSpec() { requests = 24; }

    /** Fleet-wide offered arrival rate in requests/second. */
    double rate = 1.0;

    /**
     * `rate = auto`: instead of evaluating one hand-guessed rate,
     * bisect per placement for the fleet's sustained-throughput knee
     * — grow the offered rate geometrically until some node's queue
     * overflows, then bisect the bracket. Probes share one plan cache
     * and one probe cache across all nodes and placements, and run
     * through the same speculative scheduler as the serve sweep.
     */
    bool ratesAuto = false;

    /** The design every node runs (registry name). */
    std::string design = "g10";

    /** Sweep axis: placement policies to route the same stream by. */
    std::vector<PlacementKind> placements;

    /** The nodes. */
    std::vector<FleetNodeSpec> nodes;

    /** Node @p i's platform: fleet sys with the node's overrides. */
    SystemConfig nodeSystem(std::size_t i) const;

    /** Node @p i's full ServeSim scenario: the fleet scenario with the
     *  node platform, the inherited/overridden slots and queue bound,
     *  and the seed split from the fleet seed — independent of every
     *  other node. */
    ServeSpec nodeServeSpec(std::size_t i) const;
};

/** The fleet-file format: scenarioFormat(false) plus rate, design,
 *  placements and `node =` lines. */
const SpecFormat<FleetSpec>& fleetFileFormat();

/**
 * Node @p node's RNG seed, split from the fleet seed with a splitmix64
 * finalizer. The split is a pure function of (fleetSeed, node), so a
 * node keeps its seed — and its per-job perturbations — no matter how
 * many nodes the fleet has (pinned by a golden test).
 */
std::uint64_t fleetNodeSeed(std::uint64_t fleetSeed, std::size_t node);

/**
 * Every cross-key check of a fleet scenario (nodes, placements,
 * classes, rate, arrival kind, the rate bracket, node slots, unique
 * node names, and each family pinned to at most one node): an
 * inconsistent spec fails at @p at and exits 1. parseFleetFile and
 * the FleetSim constructor both call it. The design name is resolved
 * by the `design` key in a file and by FleetSim, once, in code.
 */
void checkFleetSpec(const FleetSpec& spec, const SpecLoc& at = {});

/**
 * Parse a fleet file (fleetFileFormat(); `g10fleet --help` lists the
 * keys). Unknown keys, malformed values, and inconsistent scenarios
 * (checkFleetSpec) are fatal (exit 1) with file/line diagnostics.
 * Example:
 *
 *   scale = 32
 *   rate = 1.0                 # or: rate = auto (fleet knee)
 *   design = g10
 *   placements = jsq,planaware,affinity
 *   class = ResNet152 batch=256 weight=2
 *   node = big0 gpu_gb=40 slots=2
 *   node = small0 gpu_gb=16 slots=1 families=BERT
 */
FleetSpec parseFleetFile(const std::string& path);

/**
 * The built-in demo fleet (g10fleet --demo and the CI smoke run):
 * a heterogeneous 4-node fleet (two big nodes, one mid-size, one
 * small node with the BERT family pinned) absorbing the serve demo's
 * class mix under Poisson traffic, compared across all three
 * placement policies, at platform scale 1/@p scale.
 */
FleetSpec demoFleetSpec(unsigned scale);

}  // namespace g10

#endif  // G10_FLEET_FLEET_SPEC_H
