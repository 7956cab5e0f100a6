#include "fleet_spec.h"

#include <set>

#include "policies/registry.h"

namespace g10 {

const char*
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::JoinShortestQueue:
        return "jsq";
      case PlacementKind::PlanAware:
        return "planaware";
      case PlacementKind::ClassAffinity:
        return "affinity";
    }
    return "?";
}

bool
placementKindFromName(const std::string& name, PlacementKind* out)
{
    if (name == "jsq")
        *out = PlacementKind::JoinShortestQueue;
    else if (name == "planaware")
        *out = PlacementKind::PlanAware;
    else if (name == "affinity")
        *out = PlacementKind::ClassAffinity;
    else
        return false;
    return true;
}

std::uint64_t
fleetNodeSeed(std::uint64_t fleetSeed, std::size_t node)
{
    // splitmix64 finalizer over the node's slice of the golden-ratio
    // sequence: well-mixed, portable, and a pure function of
    // (fleetSeed, node) — adding nodes never moves an existing seed.
    std::uint64_t z = fleetSeed + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(node) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SystemConfig
FleetSpec::nodeSystem(std::size_t i) const
{
    const FleetNodeSpec& node = nodes.at(i);
    SystemConfig out = sys;
    if (node.gpuGb > 0.0)
        out.gpuMemBytes = static_cast<Bytes>(node.gpuGb * 1e9);
    if (node.hostGb > 0.0)
        out.hostMemBytes = static_cast<Bytes>(node.hostGb * 1e9);
    if (node.ssdGbps > 0.0)
        out.setSsdBandwidthGBps(node.ssdGbps);
    if (node.pcieGbps > 0.0)
        out.pcieGBps = node.pcieGbps;
    return out;
}

ServeSpec
FleetSpec::nodeServeSpec(std::size_t i) const
{
    const FleetNodeSpec& node = nodes.at(i);
    ServeSpec out;
    static_cast<ScenarioSpec&>(out) = *this;
    out.sys = nodeSystem(i);
    out.seed = fleetNodeSeed(seed, i);
    out.slots = node.slots > 0 ? node.slots : slots;
    out.queueCapacity = node.queue >= 0
                            ? static_cast<std::size_t>(node.queue)
                            : queueCapacity;
    out.rates = {rate};
    out.designs = {design};
    return out;
}

const SpecFormat<FleetSpec>&
fleetFileFormat()
{
    using S = FleetSpec;
    using N = FleetNodeSpec;
    using T = SpecType;
    static const SpecFormat<S> format = [] {
        SpecFormat<S> f =
            inheritFormat<S>("fleet file", scenarioFormat(false));
        f.keys.push_back(specKey<S>(
            {"rate", T::Number, above(0), "3",
             "fleet-wide offered req/s, or auto (fleet knee)", "auto", true},
            [](S& s, const SpecValue& v) {
                s.ratesAuto = v.keyword;
                if (!v.keyword)
                    s.rate = v.d;
            }));
        f.keys.push_back(
            designKey(&S::design, "the design every node runs"));
        f.keys.push_back(specKey<S>(
            {"placements", T::Words, {}, "jsq,affinity",
             "jsq | planaware | affinity (sweep axis)", nullptr, true},
            [](S& s, const SpecValue& v) {
                PlacementKind kind = PlacementKind::JoinShortestQueue;
                if (!placementKindFromName(v.text, &kind))
                    v.unknown("placement", "jsq | planaware | affinity");
                if (v.item == 0)
                    s.placements.clear();
                s.placements.push_back(kind);
            }));
        f.lines.push_back(specLine<S, N>(
            {"node", "<name>", "node", "one serving node of the fleet"},
            {
                fieldKey({"gpu_gb", T::Number, above(0), "40",
                          "GPU memory override, GB"},
                         &N::gpuGb),
                fieldKey({"host_gb", T::Number, above(0), "96",
                          "host DRAM override, GB"},
                         &N::hostGb),
                fieldKey(kSsdGbpsKey, &N::ssdGbps),
                fieldKey(kPcieGbpsKey, &N::pcieGbps),
                fieldKey({"slots", T::Int, within(1), "1",
                          "partition slots override"},
                         &N::slots),
                fieldKey({"queue", T::Int, within(0), "16",
                          "admission queue bound override"},
                         &N::queue),
                specKey<N>({"families", T::Words, {}, "BERT,ViT",
                            "model families pinned here (affinity)"},
                           [](N& n, const SpecValue& v) {
                               n.families.push_back(modelKindOf(v));
                           }),
            },
            [](S& s, N node, const SpecLineArgs& args) {
                node.name = args.heads[0];
                s.nodes.push_back(std::move(node));
            }));
        return f;
    }();
    return format;
}

void
checkFleetSpec(const FleetSpec& spec, const SpecLoc& at)
{
    if (spec.nodes.empty())
        at.fail("fleet needs at least one node");
    if (spec.placements.empty())
        at.fail("fleet needs at least one placement policy");
    if (spec.classes.empty())
        at.fail("fleet needs at least one job class");
    if (spec.rate <= 0.0)
        at.fail("fleet needs rate > 0");
    if (spec.arrival.kind == ArrivalKind::Trace)
        at.fail("fleet arrivals must be poisson or bursty");
    checkScenarioSpec(spec, at);

    std::set<std::string> names;
    std::set<int> pinned;
    for (const FleetNodeSpec& node : spec.nodes) {
        if ((node.slots > 0 ? node.slots : spec.slots) < 1)
            at.fail("fleet node '%s' needs slots >= 1", node.name.c_str());
        if (!names.insert(node.name).second)
            at.fail("duplicate node name '%s'", node.name.c_str());
        for (ModelKind fam : node.families)
            if (!pinned.insert(static_cast<int>(fam)).second)
                at.fail("family '%s' is pinned to two nodes",
                        modelName(fam));
    }
}

FleetSpec
parseFleetFile(const std::string& path)
{
    FleetSpec spec;
    readSpecFile(path, fleetFileFormat(), spec);
    checkFleetSpec(spec, SpecLoc{path});
    return spec;
}

FleetSpec
demoFleetSpec(unsigned scale)
{
    FleetSpec spec;
    spec.scaleDown = scale;
    spec.requests = 24;
    // Loaded enough that queues build and JSQ actually balances (at
    // low rates every arrival finds an idle fleet and ties break to
    // node 0), yet safely inside every node's capacity: no
    // rejections, no failures at the CI smoke scales.
    spec.rate = 3.0;
    spec.design = "g10";
    spec.placements = {PlacementKind::JoinShortestQueue,
                       PlacementKind::PlanAware,
                       PlacementKind::ClassAffinity};
    spec.classes = demoClassMix();
    // Heterogeneous 4-node fleet: two big 40 GB nodes, a mid-size
    // 28 GB node, and a small single-slot 20 GB node that affinity
    // routing keeps warm with the BERT family.
    FleetNodeSpec big0;
    big0.name = "big0";
    big0.gpuGb = 40.0;
    big0.slots = 2;
    FleetNodeSpec big1;
    big1.name = "big1";
    big1.gpuGb = 40.0;
    big1.slots = 2;
    FleetNodeSpec mid0;
    mid0.name = "mid0";
    mid0.gpuGb = 28.0;
    mid0.hostGb = 96.0;
    mid0.slots = 2;
    FleetNodeSpec small0;
    small0.name = "small0";
    small0.gpuGb = 20.0;
    small0.hostGb = 64.0;
    small0.slots = 1;
    small0.families = {ModelKind::BertBase};
    spec.nodes = {big0, big1, mid0, small0};
    return spec;
}

}  // namespace g10
