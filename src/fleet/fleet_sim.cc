#include "fleet_sim.h"

#include <algorithm>

#include "engine/partition.h"
#include "obs/tracer.h"
#include "policies/registry.h"
#include "serve/plan_cache.h"
#include "serve/probe_scheduler.h"

namespace g10 {

bool
FleetResult::allSucceeded() const
{
    for (const FleetPlacementResult& p : placements)
        for (const ServeCellResult& cell : p.nodeCells)
            if (cell.metrics.failed > 0)
                return false;
    return true;
}

FleetSim::FleetSim(const FleetSpec& spec)
    : spec_(spec), design_(PolicyRegistry::instance().resolve(spec.design))
{
    checkFleetSpec(spec_);

    for (const ServeJobClass& cls : spec_.classes)
        classes_.push_back(resolvedClass(cls));

    traces_.reserve(classes_.size());
    for (const ServeJobClass& cls : classes_)
        traces_.push_back(buildModelScaled(cls.model, cls.batchSize,
                                           spec_.scaleDown));

    // Per-class capacity floors and plan service estimates, once per
    // fleet. The page size and launch overhead are platform constants
    // (scaling divides capacities only), so both are node-independent.
    const SystemConfig scaled = spec_.sys.scaledDown(spec_.scaleDown);
    floors_.reserve(traces_.size());
    serviceEst_.reserve(traces_.size());
    for (std::size_t c = 0; c < traces_.size(); ++c) {
        floors_.push_back(
            serveClassGpuFloor(traces_[c], scaled.pageBytes));
        serviceEst_.push_back(planServiceEstimateNs(
            traces_[c], scaled, classes_[c].iterations));
    }

    // Per-node ServeSpecs, in stable storage: ServeSim keeps a
    // reference to its spec for the lifetime of the cell.
    nodeSpecs_.reserve(spec_.nodes.size());
    for (std::size_t n = 0; n < spec_.nodes.size(); ++n)
        nodeSpecs_.push_back(spec_.nodeServeSpec(n));

    // The shared fleet stream, drawn once from the fleet seed the way
    // a serve sweep draws its own (drawRequestStream). It never looks
    // at the node list, so it is node-count independent by
    // construction. Auto-knee probes redraw it at each probed rate:
    // the class sequence stays identical — only arrival spacing
    // changes.
    stream_ = drawRequestStream(
        spec_, classes_,
        spec_.ratesAuto ? spec_.resolvedRateLo() : spec_.rate);

    router_ = std::make_unique<Router>(spec_, classes_, serviceEst_,
                                       floors_);
    planCache_ = std::make_unique<SweepPlanCache>();
}

FleetSim::~FleetSim() = default;

ServeCellResult
FleetSim::idleCell(double rate) const
{
    ServeCellResult cell;
    cell.design = spec_.design;
    cell.designName = design_.name;
    cell.rate = rate;
    return cell;
}

std::vector<std::vector<ServeClassBaseline>>
FleetSim::computeBaselines(ExperimentEngine& engine) const
{
    // Each node's SLO reference: every class alone on one idle
    // partition slot *of that node* — heterogeneous nodes have
    // heterogeneous unloaded latencies, and a node's attainment is
    // judged against what it could do unloaded.
    const std::size_t nn = spec_.nodes.size();
    const std::size_t nc = classes_.size();
    std::vector<std::vector<ServeClassBaseline>> baselines(
        nn, std::vector<ServeClassBaseline>(nc));
    // G10-family plans go through the fleet's plan cache under the key
    // of each node cell's first admission compile.
    engine.parallelFor(nn * nc, [&](std::size_t i) {
        const std::size_t n = i / nc;
        const std::size_t c = i % nc;
        const ServeSpec& ns = nodeSpecs_[n];
        const SystemConfig nodeScaled = ns.sys.scaledDown(ns.scaleDown);
        const SystemConfig slotSys = partitionShare(
            nodeScaled, 1.0 / static_cast<double>(ns.slots));
        baselines[n][c] =
            unloadedBaseline(design_, traces_[c], classes_[c],
                             ns.scaleDown, slotSys, ns.seed,
                             planCache_.get());
    });
    return baselines;
}

FleetMetrics
FleetSim::aggregate(const FleetPlacementResult& placement,
                    TimeNs firstArrival) const
{
    const std::size_t nn = placement.nodeCells.size();
    FleetMetrics m;
    TimeNs lastFinish = 0;
    std::uint64_t sloMet = 0;
    std::vector<double> busy(nn, 0.0);

    for (std::size_t n = 0; n < nn; ++n) {
        const ServeCellResult& cell = placement.nodeCells[n];
        const ServeMetrics& cm = cell.metrics;
        m.offered += cm.offered;
        m.admitted += cm.admitted;
        m.rejected += cm.rejected;
        m.completed += cm.completed;
        m.failed += cm.failed;
        m.warmCompiles += cm.warmCompiles;
        m.coldCompiles += cm.coldCompiles;
        m.ssd.hostReadBytes += cell.ssd.hostReadBytes;
        m.ssd.hostWriteBytes += cell.ssd.hostWriteBytes;
        m.ssd.nandWriteBytes += cell.ssd.nandWriteBytes;
        m.ssd.gcRuns += cell.ssd.gcRuns;
        m.ssd.blockErases += cell.ssd.blockErases;
        m.ssd.relocatedPages += cell.ssd.relocatedPages;
        for (const ServeJobOutcome& o : cell.jobs) {
            if (o.sloMet)
                ++sloMet;
            if (o.finishNs > lastFinish)
                lastFinish = o.finishNs;
        }
        busy[n] = cm.gpuUtilization *
                  static_cast<double>(cm.makespanNs);
    }

    m.sloAttainment =
        m.offered > 0 ? static_cast<double>(sloMet) /
                            static_cast<double>(m.offered)
                      : 0.0;
    if (lastFinish > firstArrival) {
        m.makespanNs = lastFinish - firstArrival;
        m.throughputRps = static_cast<double>(m.completed) /
                          (static_cast<double>(m.makespanNs) / SEC);
    }
    m.capacityPerNodeRps =
        m.throughputRps / static_cast<double>(nn);
    m.consolidatedWaf = m.ssd.waf();

    // Utilization spread over *fleet* time: an idle node drags the
    // min and the Jain index down — exactly the signal a consolidating
    // placement trades against its warm-hit wins.
    double sum = 0.0, sumSq = 0.0;
    m.utilMin = 0.0;
    m.utilMax = 0.0;
    for (std::size_t n = 0; n < nn; ++n) {
        const double u =
            m.makespanNs > 0
                ? busy[n] / static_cast<double>(m.makespanNs)
                : 0.0;
        if (n == 0) {
            m.utilMin = u;
            m.utilMax = u;
        } else {
            m.utilMin = std::min(m.utilMin, u);
            m.utilMax = std::max(m.utilMax, u);
        }
        sum += u;
        sumSq += u * u;
    }
    m.utilMean = nn > 0 ? sum / static_cast<double>(nn) : 0.0;
    m.utilJain = sumSq > 0.0
                     ? (sum * sum) /
                           (static_cast<double>(nn) * sumSq)
                     : 1.0;  // all idle: trivially even
    return m;
}

FleetResult
FleetSim::run(ExperimentEngine& engine)
{
    return run(engine, FleetObsRequest{});
}

FleetResult
FleetSim::run(ExperimentEngine& engine, const FleetObsRequest& obs)
{
    FleetResult out;
    out.spec = spec_;
    for (const ServeJobClass& cls : classes_)
        out.classNames.push_back(cls.name);
    for (const FleetNodeSpec& node : spec_.nodes)
        out.nodeNames.push_back(node.name);

    out.baselines = computeBaselines(engine);

    if (spec_.ratesAuto) {
        runKnee(engine, obs, &out);
        return out;
    }

    const std::size_t np = spec_.placements.size();
    const std::size_t nn = spec_.nodes.size();

    // Route once per placement (pure, no randomness), then simulate
    // the (placement × node) grid. Per-cell registries merged in grid
    // order keep the totals worker-count independent.
    std::vector<RoutedStream> routedStreams;
    routedStreams.reserve(np);
    for (PlacementKind kind : spec_.placements)
        routedStreams.push_back(router_->route(kind, stream_));

    out.placements.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
        out.placements[p].kind = spec_.placements[p];
        out.placements[p].nodeCells.resize(nn);
        out.placements[p].nodeOffered.resize(nn);
        for (std::size_t n = 0; n < nn; ++n)
            out.placements[p].nodeOffered[n] =
                routedStreams[p].perNode[n].size();
    }

    std::vector<CounterRegistry> regs(np * nn);
    auto runCell = [&](std::size_t p, std::size_t n, TraceSink* sink) {
        ServeCellResult& cell = out.placements[p].nodeCells[n];
        const std::vector<ServeRequest>& reqs =
            routedStreams[p].perNode[n];
        if (reqs.empty()) {
            cell = idleCell(spec_.rate);
            return;
        }
        ServeSim sim(nodeSpecs_[n], spec_.design, spec_.rate, traces_,
                     classes_, floors_, reqs, out.baselines[n]);
        sim.setObservers(
            sink, obs.collectCounters ? &regs[p * nn + n] : nullptr);
        sim.setPlanCache(planCache_.get());
        cell = sim.run();
    };

    if (obs.sink != nullptr) {
        // Traced runs stream the first placement's nodes in node order
        // from one task (sinks are not thread-safe) with per-node pid
        // offsets; that chain is task 0, so the pool runs the other
        // placements' cells beside it.
        engine.parallelFor(1 + (np - 1) * nn, [&](std::size_t i) {
            if (i > 0) {
                runCell(1 + (i - 1) / nn, (i - 1) % nn, nullptr);
                return;
            }
            for (std::size_t n = 0; n < nn; ++n) {
                PidOffsetSink offset(
                    obs.sink, static_cast<int>(n) * kFleetPidStride);
                runCell(0, n, &offset);
            }
        });
    } else {
        engine.parallelFor(np * nn, [&](std::size_t i) {
            runCell(i / nn, i % nn, nullptr);
        });
    }

    if (obs.collectCounters)
        for (CounterRegistry& reg : regs)
            out.counters.merge(reg);

    for (std::size_t p = 0; p < np; ++p)
        out.placements[p].fleet =
            aggregate(out.placements[p], stream_.front().arrivalNs);
    return out;
}

void
FleetSim::runKnee(ExperimentEngine& engine, const FleetObsRequest& obs,
                  FleetResult* out)
{
    const std::size_t np = spec_.placements.size();
    const std::size_t nn = spec_.nodes.size();
    const double rootRate = spec_.resolvedRateLo();

    // One probe = the whole fleet at one offered rate: re-time the
    // shared stream, route it, and run every node sequentially inside
    // the probe (node counters accumulate in node order into the
    // probe's registry — same order the fixed-rate grid merges). Each
    // placement is one search lane of runKneeSearch; one
    // SweepPlanCache spans all nodes, placements and probes. The knees
    // and every node cell are byte-identical at any worker count,
    // speculation on or off. The event sink observes only placement
    // 0's root probe (nodes stream into it sequentially with the usual
    // pid offsets).
    auto probeFn = [&](std::uint32_t p, double rate) -> ProbeResult {
        ProbeResult pr;
        std::vector<ServeRequest> stream =
            drawRequestStream(spec_, classes_, rate);
        pr.firstArrivalNs = stream.front().arrivalNs;
        RoutedStream routed =
            router_->route(spec_.placements[p], stream);
        const bool traced =
            obs.sink != nullptr && p == 0 && rate == rootRate;
        pr.cells.resize(nn);
        pr.sustained = true;
        for (std::size_t n = 0; n < nn; ++n) {
            ServeCellResult& cell = pr.cells[n];
            const std::vector<ServeRequest>& reqs = routed.perNode[n];
            if (reqs.empty()) {
                cell = idleCell(rate);
                continue;
            }
            ServeSim sim(nodeSpecs_[n], spec_.design, rate, traces_,
                         classes_, floors_, reqs, out->baselines[n]);
            PidOffsetSink offset(obs.sink,
                                 static_cast<int>(n) * kFleetPidStride);
            sim.setObservers(
                traced ? &offset : nullptr,
                obs.collectCounters ? &pr.counters : nullptr);
            sim.setPlanCache(planCache_.get());
            cell = sim.run();
            if (!cell.sustained())
                pr.sustained = false;
        }
        return pr;
    };

    const KneeSearch search = runKneeSearch(engine, np, spec_, probeFn);
    out->placements.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
        const KneeLane& lane = search.lanes[p];
        FleetPlacementResult& pr = out->placements[p];
        pr.kind = spec_.placements[p];
        pr.kneeRatePerS = lane.knee;
        pr.rateProbes = lane.probes;
        // The most recent sustained probe is always the current knee
        // (lo only ever moves up to the probed rate), so the reported
        // cells are the knee probe's — or the lowest probe's when
        // nothing sustained.
        std::shared_ptr<const ProbeResult> rep;
        for (const auto& probe : lane.decided)
            if (probe->sustained)
                rep = probe;
        if (rep == nullptr && !lane.decided.empty())
            rep = lane.decided.front();
        TimeNs firstArrival = stream_.front().arrivalNs;
        if (rep != nullptr) {
            pr.nodeCells = rep->cells;
            firstArrival = rep->firstArrivalNs;
        } else {
            // Zero probe budget: report an idle fleet.
            pr.nodeCells.assign(nn, idleCell(rootRate));
        }
        pr.nodeOffered.resize(nn);
        for (std::size_t n = 0; n < nn; ++n)
            pr.nodeOffered[n] = pr.nodeCells[n].jobs.size();
        pr.fleet = aggregate(pr, firstArrival);
    }
    search.report(out, obs.collectCounters);
}

}  // namespace g10
