/** @file Speculative probe scheduler: KneeCursor replay fidelity
 *  against an inline sequential-reference oracle, probe-memo
 *  semantics, speculation accounting invariants, runKneeSearch,
 *  byte-identity of full sweep documents with speculation on
 *  vs off across pool sizes, and which --metrics counters may depend
 *  on the pool size. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/report.h"
#include "engine/experiment_engine.h"
#include "fleet/fleet_sim.h"
#include "fleet/fleet_spec.h"
#include "serve/probe_scheduler.h"
#include "serve/serve_sim.h"
#include "serve/serve_spec.h"

namespace g10 {
namespace {

std::string
toJson(const ServeSweepResult& r)
{
    std::ostringstream os;
    writeServeResultJson(os, r);
    return os.str();
}

/** One search's observable behavior: every probed rate in order, the
 *  knee it settled on, and the probes it spent. */
struct SearchLog
{
    std::vector<double> rates;
    double knee = 0.0;
    int used = 0;
};

/**
 * The historical sequential auto-knee loop, written out longhand:
 * phase-1 ×4 growth from rateLo (ceiling- and budget-clamped), then
 * phase-2 bisection to ~5% of the knee. KneeCursor must replay this
 * step for step — this reference is the bit-identity contract.
 */
SearchLog
sequentialReference(double rateLo, double rateHi, int budget,
                    const std::function<bool(double)>& sustainedAt)
{
    SearchLog log;
    double lo = 0.0;
    double hi = 0.0;
    double rate = rateLo;
    bool bisecting = false;
    while (log.used < budget) {
        log.rates.push_back(rate);
        const bool s = sustainedAt(rate);
        ++log.used;
        if (!bisecting) {
            if (s) {
                lo = rate;
                if (rateHi > 0.0 && rate >= rateHi)
                    break;  // sustained at the ceiling
                rate *= 4.0;
                if (rateHi > 0.0)
                    rate = std::min(rate, rateHi);
            } else {
                hi = rate;
                bisecting = true;
            }
        } else {
            if (s)
                lo = rate;
            else
                hi = rate;
        }
        if (bisecting) {
            if (hi <= 0.0 || hi - lo <= 0.05 * hi)
                break;  // bracket tight enough
            rate = 0.5 * (lo + hi);
        }
    }
    log.knee = lo;
    return log;
}

/** The same search driven through the cursor automaton. */
SearchLog
cursorWalk(double rateLo, double rateHi, int budget,
           const std::function<bool(double)>& sustainedAt)
{
    SearchLog log;
    KneeCursor cur(rateLo, rateHi, budget);
    while (!cur.done()) {
        log.rates.push_back(cur.next());
        cur.advance(sustainedAt(cur.next()));
    }
    log.knee = cur.knee();
    log.used = cur.used();
    return log;
}

TEST(KneeCursor, ReplaysTheSequentialSearchStepForStep)
{
    // Capacity thresholds straddling every regime: below the first
    // probe (instant bisection against lo = 0), inside phase-1 growth,
    // above the ceiling, and far beyond any budget.
    const double capacities[] = {0.03, 0.1, 0.3, 1.7, 12.0, 1e6};
    const double ceilings[] = {0.0, 8.0};
    const int budgets[] = {1, 2, 3, 6, 10, 16};

    for (double cap : capacities) {
        auto pred = [cap](double r) { return r <= cap; };
        for (double hi : ceilings) {
            for (int budget : budgets) {
                SCOPED_TRACE(::testing::Message()
                             << "cap=" << cap << " hi=" << hi
                             << " budget=" << budget);
                const SearchLog ref =
                    sequentialReference(0.05, hi, budget, pred);
                const SearchLog got = cursorWalk(0.05, hi, budget, pred);
                ASSERT_EQ(got.rates.size(), ref.rates.size());
                for (std::size_t i = 0; i < ref.rates.size(); ++i)
                    EXPECT_EQ(rateBitsOf(got.rates[i]),
                              rateBitsOf(ref.rates[i]))
                        << "probe " << i;
                EXPECT_EQ(rateBitsOf(got.knee), rateBitsOf(ref.knee));
                EXPECT_EQ(got.used, ref.used);
                EXPECT_LE(got.used, budget);
            }
        }
    }
}

TEST(KneeCursor, ZeroBudgetIsDoneBeforeTheFirstProbe)
{
    KneeCursor cur(0.05, 0.0, 0);
    EXPECT_TRUE(cur.done());
    EXPECT_EQ(cur.used(), 0);
    EXPECT_EQ(cur.knee(), 0.0);
}

TEST(ProbeKey, OrderingDistinguishesEveryField)
{
    ProbeKey a;
    a.lane = 1;
    a.rateBits = rateBitsOf(0.5);

    ProbeKey b = a;
    EXPECT_FALSE(a < b);
    EXPECT_FALSE(b < a);

    for (int field = 0; field < 2; ++field) {
        ProbeKey c = a;
        switch (field) {
          case 0: c.lane = 2; break;
          case 1: c.rateBits = rateBitsOf(0.25); break;
        }
        EXPECT_TRUE(a < c || c < a) << "field " << field;
    }
}

TEST(ExperimentEngineSubmit, TryRunOneDrainsQueueWhileWorkersAreBusy)
{
    // Declared before the engine: its destructor joins the parked
    // worker, whose task still reads `gate` and `started`.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<int> started{0};
    std::atomic<int> ran{0};
    ExperimentEngine engine(1);

    // Park the only worker on a gate so the queue state is ours.
    engine.submit([&] {
        started.fetch_add(1);
        gate.wait();
    });
    while (started.load() == 0)
        std::this_thread::yield();

    EXPECT_FALSE(engine.tryRunOne());  // queue empty, worker busy

    engine.submit([&] { ran.fetch_add(1); });
    EXPECT_TRUE(engine.tryRunOne());  // caller pitch-in drains it
    EXPECT_EQ(ran.load(), 1);

    release.set_value();
}

TEST(ProbeScheduler, SameKeyResolvesToTheSameImmutableResult)
{
    ExperimentEngine engine(1);  // < 2 workers: speculation inert
    std::atomic<int> calls{0};

    ProbeScheduler::ProbeFn fn = [&](std::uint32_t lane, double rate) {
        calls.fetch_add(1);
        ProbeResult pr;
        ServeCellResult cell;
        cell.design = "probe";
        cell.rate = rate;
        pr.cells.push_back(cell);
        pr.sustained = rate <= 1.0;
        (void)lane;
        return pr;
    };

    KneeCursor cur(0.5, 0.0, 4);
    ProbeScheduler sched(engine, fn, true);
    std::shared_ptr<const ProbeResult> first = sched.acquire(0, cur);
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first->sustained);
    EXPECT_EQ(calls.load(), 1);

    ProbeStats s = sched.stats();
    EXPECT_EQ(s.decided, 1u);
    EXPECT_EQ(s.issued, 1u);
    EXPECT_EQ(s.speculated, 0u);  // 1-worker pool: inert

    // Re-reading the same (lane, rate) returns the memoized probe:
    // pointer-identical result, no new simulation.
    auto again = sched.acquire(0, cur);
    EXPECT_EQ(again.get(), first.get());
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(sched.stats().cacheHits, 1u);

    // A different lane is a different probe, even at the same rate.
    auto other = sched.acquire(1, cur);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(calls.load(), 2);
}

TEST(ProbeScheduler, FullWalkAccountingHoldsAcrossPoolSizes)
{
    // A synthetic probe function (no simulator) so the walk's shape is
    // exactly the cursor's; verdict = capacity threshold.
    const double cap = 3.7;
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        ExperimentEngine engine(workers);
        std::atomic<int> calls{0};
        ProbeScheduler::ProbeFn fn = [&](std::uint32_t, double rate) {
            calls.fetch_add(1);
            ProbeResult pr;
            pr.sustained = rate <= cap;
            return pr;
        };

        ProbeStats stats;
        SearchLog got;
        {
            ProbeScheduler sched(engine, fn, true);
            KneeCursor cur(0.05, 0.0, 10);
            while (!cur.done()) {
                auto res = sched.acquire(0, cur);
                got.rates.push_back(cur.next());
                cur.advance(res->sustained);
            }
            got.knee = cur.knee();
            got.used = cur.used();
            stats = sched.stats();
        }

        // The decided path is the sequential search, verbatim.
        const SearchLog ref = sequentialReference(
            0.05, 0.0, 10, [cap](double r) { return r <= cap; });
        ASSERT_EQ(got.rates.size(), ref.rates.size());
        for (std::size_t i = 0; i < ref.rates.size(); ++i)
            EXPECT_EQ(rateBitsOf(got.rates[i]), rateBitsOf(ref.rates[i]));
        EXPECT_EQ(rateBitsOf(got.knee), rateBitsOf(ref.knee));

        // Accounting: every issue ran exactly once; a knee walk never
        // revisits a rate, so decided splits into decided-issues plus
        // consumed speculation, and waste is the mispredicted rest.
        EXPECT_EQ(static_cast<std::uint64_t>(calls.load()), stats.issued);
        EXPECT_EQ(stats.decided, static_cast<std::uint64_t>(got.used));
        EXPECT_EQ(stats.speculated,
                  stats.speculationUsed + stats.speculationWasted);
        EXPECT_EQ(stats.issued, stats.decided + stats.speculationWasted);
        if (workers < 2) {
            EXPECT_EQ(stats.speculated, 0u);
            EXPECT_EQ(stats.issued, stats.decided);
        } else {
            // The first acquire holds the cache lock while it issues
            // the decided probe and both level-1 successors (the
            // in-flight cap is workers + 1 >= 3), so the second
            // acquire always consumes a speculated probe.
            EXPECT_GT(stats.speculationUsed, 0u);
        }
    }
}

TEST(ProbeScheduler, SpeculationOffNeverIssuesAheadOfTheDecision)
{
    ExperimentEngine engine(8);
    std::atomic<int> calls{0};
    ProbeScheduler::ProbeFn fn = [&](std::uint32_t, double rate) {
        calls.fetch_add(1);
        ProbeResult pr;
        pr.sustained = rate <= 0.9;
        return pr;
    };

    ProbeScheduler sched(engine, fn, false);
    KneeCursor cur(0.05, 0.0, 8);
    while (!cur.done()) {
        auto res = sched.acquire(0, cur);
        cur.advance(res->sustained);
    }
    const ProbeStats stats = sched.stats();
    EXPECT_EQ(stats.speculated, 0u);
    EXPECT_EQ(stats.issued, stats.decided);
    EXPECT_EQ(static_cast<std::uint64_t>(calls.load()), stats.issued);
}

TEST(ProbeScheduler, KneeSearchReplaysEveryLaneSequentially)
{
    // Three lanes with different capacities share one scheduler; each
    // lane's decided walk must be its own sequential search, verbatim,
    // at every pool size with speculation on.
    const std::vector<double> caps = {0.3, 3.7, 40.0};
    ScenarioSpec knobs;
    knobs.rateLo = 0.05;
    knobs.rateProbes = 10;
    knobs.speculativeProbes = true;

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        ExperimentEngine engine(workers);
        std::atomic<int> calls{0};
        const KneeSearch search = runKneeSearch(
            engine, caps.size(), knobs,
            [&](std::uint32_t lane, double rate) {
                calls.fetch_add(1);
                ProbeResult pr;
                ServeCellResult cell;
                cell.rate = rate;
                pr.cells.push_back(cell);
                pr.sustained = rate <= caps[lane];
                return pr;
            });

        ASSERT_EQ(search.lanes.size(), caps.size());
        std::uint64_t decided = 0;
        for (std::size_t l = 0; l < caps.size(); ++l) {
            SCOPED_TRACE(::testing::Message() << "lane=" << l);
            const KneeLane& lane = search.lanes[l];
            const double cap = caps[l];
            const SearchLog ref = sequentialReference(
                0.05, 0.0, 10, [cap](double r) { return r <= cap; });
            ASSERT_EQ(lane.decided.size(), ref.rates.size());
            for (std::size_t i = 0; i < ref.rates.size(); ++i)
                EXPECT_EQ(rateBitsOf(lane.decided[i]->cells.front().rate),
                          rateBitsOf(ref.rates[i]));
            EXPECT_EQ(rateBitsOf(lane.knee), rateBitsOf(ref.knee));
            EXPECT_EQ(lane.probes, static_cast<std::uint64_t>(ref.used));
            decided += lane.probes;
        }
        // Every probe ran once and the scheduler is drained on return.
        EXPECT_EQ(search.stats.decided, decided);
        EXPECT_EQ(static_cast<std::uint64_t>(calls.load()),
                  search.stats.issued);
        EXPECT_EQ(search.stats.issued,
                  decided + search.stats.speculationWasted);
    }
}

TEST(ProbeScheduler, KneeSearchMergesDecidedCountersAndProbeTotals)
{
    ScenarioSpec knobs;
    knobs.rateLo = 1.0;
    knobs.rateProbes = 3;
    knobs.speculativeProbes = false;
    ExperimentEngine engine(1);
    const KneeSearch search = runKneeSearch(
        engine, 2, knobs, [](std::uint32_t lane, double rate) {
            ProbeResult pr;
            pr.counters.add("probe.lane" + std::to_string(lane));
            pr.counters.sample("probe.rate", rate);
            pr.sustained = true;
            return pr;
        });

    CounterRegistry reg;
    search.mergeCounters(&reg);
    EXPECT_EQ(reg.value("probe.lane0"), 3u);
    EXPECT_EQ(reg.value("probe.lane1"), 3u);
    ASSERT_NE(reg.distribution("probe.rate"), nullptr);
    EXPECT_EQ(reg.distribution("probe.rate")->count(), 6u);
    EXPECT_EQ(reg.value("sweep.probe.decided"), 6u);
    EXPECT_EQ(reg.value("sweep.probe.issued"), 6u);
    EXPECT_EQ(reg.value("sweep.probe.speculated"), 0u);
}

/** The plan-cache suite's tiny auto-knee scenario. */
ServeSpec
autoKneeSpec()
{
    ServeSpec spec = demoServeSpec(64);
    spec.requests = 8;
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 6;
    spec.designs = {"g10", "g10host"};
    return spec;
}

TEST(ProbeScheduler, SweepDocumentIsByteIdenticalToSequential)
{
    // Reference: speculation off on a 1-worker pool — the historical
    // strictly-sequential search.
    ServeSpec seq = autoKneeSpec();
    seq.speculativeProbes = false;
    ExperimentEngine serial(1);
    const ServeSweepResult ref = ServeSweep(seq).run(serial);
    const std::string refDoc = toJson(ref);

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        ServeSpec spec = autoKneeSpec();
        spec.speculativeProbes = true;
        ExperimentEngine engine(workers);
        const ServeSweepResult got = ServeSweep(spec).run(engine);
        EXPECT_EQ(toJson(got), refDoc);

        // Probe accounting is reporting-only but self-consistent.
        EXPECT_EQ(got.probesSpeculative,
                  got.probeSpecUsed + got.probeSpecWasted);
        std::uint64_t decided = 0;
        for (std::uint64_t p : got.rateProbes)
            decided += p;
        EXPECT_EQ(got.probesIssued, decided + got.probeSpecWasted);
        if (workers < 2)
            EXPECT_EQ(got.probesSpeculative, 0u);
    }
}

/** The sweep.probe.* counters whose values depend on the pool size
 *  (speculation runs only on idle workers). */
const char* const kPoolDependentCounters[] = {
    "sweep.probe.issued",
    "sweep.probe.speculated",
    "sweep.probe.speculation_used",
    "sweep.probe.speculation_wasted",
    "sweep.probe.cache_hits",
};

/** writeMetricsJson of @p reg (one field per line) without the lines
 *  of the pool-dependent counters. */
std::string
metricsWithoutPoolDependentCounters(const CounterRegistry& reg)
{
    std::ostringstream os;
    writeMetricsJson(os, reg);
    std::istringstream in(os.str());
    std::string kept, line;
    while (std::getline(in, line)) {
        bool drop = false;
        for (const char* c : kPoolDependentCounters)
            drop = drop || line.find(std::string("\"") + c + "\":") !=
                               std::string::npos;
        if (!drop)
            kept += line + "\n";
    }
    return kept;
}

TEST(ProbeScheduler, MetricsDependOnWorkersOnlyInSpeculationCounters)
{
    ServeObsRequest serveObs;
    serveObs.collectCounters = true;
    FleetObsRequest fleetObs;
    fleetObs.collectCounters = true;
    FleetSpec fleet = demoFleetSpec(64);
    fleet.requests = 8;
    fleet.ratesAuto = true;
    fleet.rateProbes = 4;
    fleet.placements = {PlacementKind::JoinShortestQueue};

    std::vector<std::string> serveDocs, fleetDocs;
    for (unsigned workers : {1u, 4u}) {
        ExperimentEngine engine(workers);
        const ServeSweepResult s =
            ServeSweep(autoKneeSpec()).run(engine, serveObs);
        EXPECT_GT(s.counters.value("sweep.probe.decided"), 0u);
        serveDocs.push_back(metricsWithoutPoolDependentCounters(s.counters));
        const FleetResult f = FleetSim(fleet).run(engine, fleetObs);
        EXPECT_GT(f.counters.value("sweep.probe.decided"), 0u);
        fleetDocs.push_back(metricsWithoutPoolDependentCounters(f.counters));
    }
    EXPECT_EQ(serveDocs[0], serveDocs[1]);
    EXPECT_EQ(fleetDocs[0], fleetDocs[1]);
}

}  // namespace
}  // namespace g10
