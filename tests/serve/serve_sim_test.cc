/** @file Integration tests for the open-loop serving simulator. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/report.h"
#include "serve/plan_cache.h"
#include "serve/serve_sim.h"

namespace g10 {
namespace {

/** A small, fast scenario: two ResNet batches + BERT at 1/64 scale
 *  (at 1/128 a BERT slot partition genuinely OOMs — covered by
 *  HardOomSurfacesAsFailedJobs below). */
ServeSpec
tinySpec()
{
    ServeSpec spec = demoServeSpec(64);
    spec.requests = 10;
    spec.rates = {0.5};
    spec.designs = {"g10"};
    return spec;
}

/** Serialize a sweep result to a string (deep-compare helper). */
std::string
toJson(const ServeSweepResult& r)
{
    std::ostringstream os;
    writeServeResultJson(os, r);
    return os.str();
}

TEST(ServeSim, ConservationAndChurn)
{
    ServeSpec spec = tinySpec();
    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);

    ASSERT_EQ(res.cells.size(), 1u);
    const ServeCellResult& cell = res.cells[0];
    const ServeMetrics& m = cell.metrics;

    EXPECT_EQ(m.offered, 10u);
    EXPECT_EQ(m.admitted + m.rejected, m.offered);
    EXPECT_EQ(m.completed + m.failed, m.admitted);
    // More jobs completed than the node has slots: real churn —
    // partitions and SSD log space were reclaimed and re-leased.
    EXPECT_GT(m.completed,
              static_cast<std::uint64_t>(spec.slots));

    for (const ServeJobOutcome& o : cell.jobs) {
        if (o.rejected)
            continue;
        EXPECT_GE(o.admitNs, o.arrivalNs);
        EXPECT_GT(o.finishNs, o.admitNs);
        EXPECT_GE(o.latencyNs(), o.queueNs());
    }
}

TEST(ServeSim, UnloadedRequestsMeetTheSlo)
{
    // At a rate far below capacity every request runs essentially
    // alone: slowdown stays near 1 and the SLO (3x unloaded) holds.
    ServeSpec spec = tinySpec();
    spec.rates = {0.05};
    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);

    const ServeCellResult& cell = res.cells[0];
    EXPECT_TRUE(cell.sustained());
    EXPECT_DOUBLE_EQ(cell.metrics.sloAttainment, 1.0);
    for (const ServeJobOutcome& o : cell.jobs) {
        ASSERT_FALSE(o.rejected);
        EXPECT_TRUE(o.sloMet);
        // Near the unloaded latency. Warm-started plans may beat the
        // cold-compiled baseline slightly, so the floor is loose.
        EXPECT_GE(o.slowdown, 0.8);
        EXPECT_LE(o.slowdown, spec.sloFactor);
    }
    EXPECT_EQ(res.sustainedRate[0], 0.05);
}

TEST(ServeSim, OverloadShedsLoadAndClearsSustainedRate)
{
    ServeSpec spec = tinySpec();
    spec.queueCapacity = 1;
    spec.rates = {1000.0};  // far beyond capacity
    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);

    const ServeCellResult& cell = res.cells[0];
    EXPECT_GT(cell.metrics.rejected, 0u);
    EXPECT_FALSE(cell.sustained());
    EXPECT_EQ(res.sustainedRate[0], 0.0);
    // Rejections are load shedding, not failures.
    EXPECT_TRUE(res.allSucceeded());
    // Shed requests never held a slot: bounded queue, bounded work.
    EXPECT_LE(cell.metrics.maxQueueDepth, spec.queueCapacity);
}

TEST(ServeSim, WarmStartReplansG10AcrossBatchSizes)
{
    // The demo classes include ResNet152 at two batch sizes: after
    // the first compile of each model, every further G10 admission
    // warm-starts from the cached schedule.
    ServeSpec spec = tinySpec();
    spec.designs = {"g10", "baseuvm"};
    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);

    const ServeCellResult& g10cell = res.cells[0];
    const ServeCellResult& uvmcell = res.cells[1];
    EXPECT_GT(g10cell.metrics.warmCompiles, 0u);
    EXPECT_EQ(g10cell.metrics.warmCompiles +
                  g10cell.metrics.coldCompiles,
              g10cell.metrics.admitted);
    // Non-G10 designs have no compile pipeline to warm-start.
    EXPECT_EQ(uvmcell.metrics.warmCompiles, 0u);
}

TEST(ServeSim, SweepIsBitIdenticalAcrossPoolSizes)
{
    ServeSpec spec = tinySpec();
    spec.designs = {"baseuvm", "g10"};
    spec.rates = {0.5, 50.0};

    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    ServeSweepResult a = ServeSweep(spec).run(serial);
    ServeSweepResult b = ServeSweep(spec).run(pooled);

    // The serialized documents (every metric, every job outcome that
    // feeds them) must match byte for byte.
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(ServeSim, HigherLoadNeverImprovesAttainment)
{
    ServeSpec spec = tinySpec();
    spec.rates = {0.05, 5.0};
    ServeSweep sweep(spec);
    ExperimentEngine engine(2);
    ServeSweepResult res = sweep.run(engine);

    ASSERT_EQ(res.cells.size(), 2u);
    EXPECT_GE(res.cells[0].metrics.sloAttainment,
              res.cells[1].metrics.sloAttainment);
    EXPECT_LE(res.cells[0].metrics.queueP95Ns,
              res.cells[1].metrics.queueP95Ns);
}

TEST(ServeSim, HardOomSurfacesAsFailedJobs)
{
    // At 1/128 scale a BERT job's working set genuinely exceeds its
    // 160 MiB slot partition: the run fails, the failure is reported
    // per job and in the aggregate, and the slot is still reclaimed
    // (later arrivals run).
    ServeSpec spec;
    spec.scaleDown = 128;
    spec.slots = 2;
    spec.requests = 4;
    spec.rates = {0.2};
    spec.designs = {"g10"};
    ServeJobClass bert;
    bert.model = ModelKind::BertBase;
    spec.classes = {bert};

    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);

    const ServeMetrics& m = res.cells[0].metrics;
    EXPECT_EQ(m.offered, 4u);
    EXPECT_EQ(m.failed, 4u);  // every BERT request OOMs
    EXPECT_EQ(m.completed, 0u);
    EXPECT_FALSE(res.cells[0].sustained());
    EXPECT_FALSE(res.allSucceeded());
    EXPECT_EQ(res.sustainedRate[0], 0.0);
}

TEST(ServeSim, TraceArrivalsReplayEndToEnd)
{
    std::string path = ::testing::TempDir() + "g10_serve_trace_" +
                       std::to_string(::getpid()) + ".arr";
    {
        std::ofstream f(path);
        f << "req = 0 ResNet152 batch=512\n"
             "req = 5 ResNet152 batch=256\n"
             "req = 10 ResNet152 batch=512\n"
             "req = 400 ResNet152 batch=256\n";
    }

    ServeSpec spec;
    spec.scaleDown = 128;
    spec.slots = 2;
    spec.designs = {"g10"};
    spec.rates = {1.0, 2.0};  // trace replay multipliers
    spec.arrival.kind = ArrivalKind::Trace;
    spec.arrival.tracePath = path;

    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);
    std::remove(path.c_str());

    // Classes derive from the trace's distinct request shapes.
    ASSERT_EQ(res.classNames.size(), 2u);
    ASSERT_EQ(res.cells.size(), 2u);
    for (const ServeCellResult& cell : res.cells)
        EXPECT_EQ(cell.metrics.offered, 4u);

    // Rate multiplier 2 replays the same trace twice as fast.
    EXPECT_EQ(res.cells[0].jobs[3].arrivalNs, 400 * MSEC);
    EXPECT_EQ(res.cells[1].jobs[3].arrivalNs, 200 * MSEC);
}

TEST(ServeSim, SimultaneousArrivalsFillIdleSlotsBeforeShedding)
{
    // Four requests land at the same instant on an idle node with two
    // slots and a one-deep queue: two admit directly, one queues, and
    // exactly one is shed. (Regression: all four used to be offered
    // to the queue first, shedding requests while slots sat idle.)
    std::string path = ::testing::TempDir() + "g10_serve_burst_" +
                       std::to_string(::getpid()) + ".arr";
    {
        std::ofstream f(path);
        for (int i = 0; i < 4; ++i)
            f << "req = 10 ResNet152 batch=256\n";
    }

    ServeSpec spec;
    spec.scaleDown = 64;
    spec.slots = 2;
    spec.queueCapacity = 1;
    spec.designs = {"g10"};
    spec.rates = {1.0};
    spec.arrival.kind = ArrivalKind::Trace;
    spec.arrival.tracePath = path;

    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);
    std::remove(path.c_str());

    const ServeMetrics& m = res.cells[0].metrics;
    EXPECT_EQ(m.offered, 4u);
    EXPECT_EQ(m.admitted, 3u);
    EXPECT_EQ(m.rejected, 1u);
    // The two direct admissions started at the arrival instant.
    EXPECT_EQ(res.cells[0].jobs[0].queueNs(), 0);
    EXPECT_EQ(res.cells[0].jobs[1].queueNs(), 0);
    EXPECT_GT(res.cells[0].jobs[2].queueNs(), 0);
}

TEST(ServeSim, SameInstantArrivalsAreHandledInRequestOrder)
{
    // Two requests at the same instant, one slot, no queue: the first
    // in request order takes the slot and the second is shed.
    std::string path = ::testing::TempDir() + "g10_serve_tie_" +
                       std::to_string(::getpid()) + ".arr";
    {
        std::ofstream f(path);
        f << "req = 10 ResNet152 batch=256\n"
             "req = 10 ResNet152 batch=256\n";
    }

    ServeSpec spec;
    spec.scaleDown = 64;
    spec.slots = 1;
    spec.queueCapacity = 0;
    spec.designs = {"g10"};
    spec.rates = {1.0};
    spec.arrival.kind = ArrivalKind::Trace;
    spec.arrival.tracePath = path;

    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);
    std::remove(path.c_str());

    const std::vector<ServeJobOutcome>& jobs = res.cells[0].jobs;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_FALSE(jobs[0].rejected);
    EXPECT_EQ(jobs[0].admitNs, 10 * MSEC);
    EXPECT_TRUE(jobs[1].rejected);
}

TEST(ServeSimDeath, DecreasingArrivalTimesPanic)
{
    // The cell walks its requests with a cursor, so it refuses an
    // offered sequence that is not in time order.
    ServeSpec spec;
    std::vector<KernelTrace> traces;
    std::vector<ServeJobClass> classes;
    std::vector<Bytes> minGpu;
    std::vector<ServeClassBaseline> baselines;
    std::vector<ServeRequest> requests(2);
    requests[0].arrivalNs = 2 * MSEC;
    requests[1].arrivalNs = 1 * MSEC;
    EXPECT_DEATH(ServeSim(spec, "g10", 1.0, traces, classes, minGpu,
                          requests, baselines),
                 "request 1 arrives before request 0");
}

TEST(ServeSim, PriorityAdmissionStillServesEveryone)
{
    ServeSpec spec = tinySpec();
    spec.admit = AdmitPolicy::Priority;
    spec.starvationNs = 10 * MSEC;
    spec.rates = {5.0};  // force queueing so ordering matters
    ServeSweep sweep(spec);
    ExperimentEngine engine(1);
    ServeSweepResult res = sweep.run(engine);
    const ServeMetrics& m = res.cells[0].metrics;
    EXPECT_EQ(m.completed + m.failed + m.rejected, m.offered);
    EXPECT_EQ(m.failed, 0u);
}

// ---- Elastic partitions ------------------------------------------

/** Sum of one elastic counter across a sweep's cells. */
template <typename Fn>
std::uint64_t
sumCells(const ServeSweepResult& r, Fn&& get)
{
    std::uint64_t total = 0;
    for (const ServeCellResult& c : r.cells)
        total += get(c.metrics);
    return total;
}

TEST(ServeSimElastic, StaticPolicyReportsNoElasticActivity)
{
    ServeSpec spec = tinySpec();
    spec.rates = {0.5, 5.0};
    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);
    EXPECT_EQ(sumCells(res, [](const ServeMetrics& m) {
                  return m.resizes + m.splits + m.replans +
                         m.resizeWarmHits + m.resizeGrows +
                         m.resizeShrinks;
              }),
              0u);
}

TEST(ServeSimElastic, ProportionalRebalancesAndServesEveryone)
{
    ServeSpec spec = tinySpec();
    spec.partitionPolicy = PartitionPolicy::Proportional;
    spec.rates = {0.5};
    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);
    const ServeMetrics& m = res.cells[0].metrics;
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.completed, m.offered);
    // Overlapping jobs forced equal-share shrinks and departures grew
    // the survivors back.
    EXPECT_GT(m.resizes, 0u);
    EXPECT_GT(m.resizeShrinks, 0u);
    EXPECT_GT(m.resizeGrows, 0u);
    // G10 jobs replanned at the new capacities with warm starts.
    EXPECT_GT(m.replans, 0u);
    EXPECT_GT(m.resizeWarmHits, 0u);
}

TEST(ServeSimElastic, ProportionalLoneJobIsNoSlowerThanAStaticSlot)
{
    // At a near-idle rate every request runs alone; proportional
    // grants it the whole machine, so completion latency can only
    // improve on the static slot (which defines the baseline).
    ServeSpec spec = tinySpec();
    spec.rates = {0.05};
    ExperimentEngine engine(1);
    ServeSweepResult st = ServeSweep(spec).run(engine);

    spec.partitionPolicy = PartitionPolicy::Proportional;
    ServeSweepResult el = ServeSweep(spec).run(engine);

    EXPECT_LE(el.cells[0].metrics.latencyP50Ns,
              st.cells[0].metrics.latencyP50Ns);
    EXPECT_DOUBLE_EQ(el.cells[0].metrics.sloAttainment, 1.0);
}

TEST(ServeSimElastic, OnDemandMatchesStaticUntilOverload)
{
    // Below the shedding point ondemand admissions are whole slots —
    // the cell is metric-identical to static (splits are an overload
    // escape valve, not a steady-state behavior).
    ServeSpec spec = tinySpec();
    spec.rates = {0.5};
    ExperimentEngine engine(1);
    ServeSweepResult st = ServeSweep(spec).run(engine);
    spec.partitionPolicy = PartitionPolicy::OnDemand;
    ServeSweepResult od = ServeSweep(spec).run(engine);
    EXPECT_EQ(st.cells[0].metrics.latencyP95Ns,
              od.cells[0].metrics.latencyP95Ns);
    EXPECT_EQ(od.cells[0].metrics.splits, 0u);
}

TEST(ServeSimElastic, OnDemandSplitsUnderOverloadAndShedsLess)
{
    ServeSpec spec = tinySpec();
    spec.queueCapacity = 1;
    spec.rates = {50.0};  // heavy burst pressure
    ExperimentEngine engine(1);
    ServeSweepResult st = ServeSweep(spec).run(engine);

    spec.partitionPolicy = PartitionPolicy::OnDemand;
    ServeSweepResult od = ServeSweep(spec).run(engine);

    EXPECT_GT(od.cells[0].metrics.splits, 0u);
    EXPECT_LT(od.cells[0].metrics.rejected,
              st.cells[0].metrics.rejected);
    EXPECT_EQ(od.cells[0].metrics.failed, 0u);
}

TEST(ServeSimElastic, HysteresisBoundsResizeChurn)
{
    ServeSpec spec = tinySpec();
    spec.partitionPolicy = PartitionPolicy::Proportional;
    spec.rates = {1.0};
    ExperimentEngine engine(1);

    spec.resizeHysteresis = 0.0;
    std::uint64_t eager = sumCells(
        ServeSweep(spec).run(engine),
        [](const ServeMetrics& m) { return m.resizes; });

    spec.resizeHysteresis = 0.9;
    std::uint64_t damped = sumCells(
        ServeSweep(spec).run(engine),
        [](const ServeMetrics& m) { return m.resizes; });

    EXPECT_LE(damped, eager);
    EXPECT_GT(eager, 0u);
}

TEST(ServeSimElastic, ElasticSweepsAreBitIdenticalAcrossPoolSizes)
{
    // The elastic golden determinism pin: proportional and ondemand
    // serving results (every metric, every resize decision) must not
    // depend on the worker pool.
    for (PartitionPolicy p : {PartitionPolicy::Proportional,
                              PartitionPolicy::OnDemand}) {
        ServeSpec spec = tinySpec();
        spec.partitionPolicy = p;
        spec.designs = {"baseuvm", "g10"};
        spec.rates = {0.5, 20.0};
        spec.queueCapacity = 2;

        ExperimentEngine serial(1);
        ExperimentEngine pooled(4);
        ServeSweepResult a = ServeSweep(spec).run(serial);
        ServeSweepResult b = ServeSweep(spec).run(pooled);
        EXPECT_EQ(toJson(a), toJson(b))
            << partitionPolicyName(p);
    }
}

TEST(ServeSimElastic, DemoCapacityKneesMatchTheReadmeTable)
{
    // The README's elastic-capacity table: the demo mix at 1/16 scale,
    // knees auto-bisected under static slots and then under ondemand
    // partitions.
    ServeSpec spec = demoServeSpec(16);
    spec.designs = {"baseuvm", "g10"};
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 14;

    ExperimentEngine engine;
    spec.partitionPolicy = PartitionPolicy::Static;
    const ServeSweepResult st = ServeSweep(spec).run(engine);
    spec.partitionPolicy = PartitionPolicy::OnDemand;
    const ServeSweepResult el = ServeSweep(spec).run(engine);

    ASSERT_EQ(st.sustainedRate.size(), 2u);
    ASSERT_EQ(el.sustainedRate.size(), 2u);
    // Exact bisection results; the README prints them rounded (the
    // static baseuvm knee is one ulp above the literal 0.725).
    EXPECT_EQ(st.sustainedRate[0], 0x1.7333333333334p-1);  // 0.725
    EXPECT_EQ(st.sustainedRate[1], 0x1.f99999999999ap-1);  // 0.9875
    EXPECT_EQ(el.sustainedRate[0], 0x1.1p+0);              // 1.0625
    EXPECT_EQ(el.sustainedRate[1], 0x1.499999999999ap+0);  // 1.2875
}

// ---- Serve-file keys for elastic partitions / auto rates ---------

/** Write @p text to a fresh temp serve file and return its path. */
std::string
writeServeFile(const std::string& tag, const std::string& text)
{
    std::string path = ::testing::TempDir() + "g10_" + tag + "_" +
                       std::to_string(::getpid()) + ".serve";
    std::ofstream f(path);
    f << text;
    return path;
}

TEST(ServeSpecParser, ParsesElasticAndAutoRateKeys)
{
    std::string path = writeServeFile(
        "elastic",
        "scale = 64\n"
        "slots = 2\n"
        "partition_policy = ondemand\n"
        "resize_hysteresis = 0.5\n"
        "max_active = 6\n"
        "rates = auto\n"
        "rate_lo = 0.1\n"
        "rate_hi = 9\n"
        "rate_probes = 7\n"
        "designs = g10\n"
        "class = ResNet152 batch=256\n");
    ServeSpec spec = parseServeFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(spec.partitionPolicy, PartitionPolicy::OnDemand);
    EXPECT_DOUBLE_EQ(spec.resizeHysteresis, 0.5);
    EXPECT_EQ(spec.maxActive, 6);
    EXPECT_EQ(spec.resolvedMaxActive(), 6);
    EXPECT_TRUE(spec.ratesAuto);
    EXPECT_TRUE(spec.rates.empty());
    EXPECT_DOUBLE_EQ(spec.rateLo, 0.1);
    EXPECT_DOUBLE_EQ(spec.rateHi, 9.0);
    EXPECT_EQ(spec.rateProbes, 7);
}

TEST(ServeSpecParser, MaxActiveDerivesFromThePolicy)
{
    ServeSpec spec;
    spec.slots = 3;
    EXPECT_EQ(spec.resolvedMaxActive(), 3);  // static
    spec.partitionPolicy = PartitionPolicy::Proportional;
    EXPECT_EQ(spec.resolvedMaxActive(), 3);
    spec.partitionPolicy = PartitionPolicy::OnDemand;
    EXPECT_EQ(spec.resolvedMaxActive(), 6);  // 2x slots
}

TEST(ServeSpecParserDeath, RejectsUnknownPartitionPolicy)
{
    std::string path = writeServeFile(
        "badpol",
        "partition_policy = elastic\n"
        "rates = 1\n"
        "designs = g10\n"
        "class = ResNet152\n");
    EXPECT_EXIT(parseServeFile(path),
                ::testing::ExitedWithCode(1),
                "unknown partition_policy");
    std::remove(path.c_str());
}

TEST(ServeSpecParserDeath, RejectsMaxActiveBelowSlots)
{
    std::string path = writeServeFile(
        "badmax",
        "slots = 4\n"
        "max_active = 2\n"
        "rates = 1\n"
        "designs = g10\n"
        "class = ResNet152\n");
    EXPECT_EXIT(parseServeFile(path),
                ::testing::ExitedWithCode(1),
                "max_active");
    std::remove(path.c_str());
}

TEST(ServeSpecParserDeath, RejectsHysteresisOutsideUnitInterval)
{
    std::string path = writeServeFile(
        "badhyst",
        "resize_hysteresis = 1.5\n"
        "rates = 1\n"
        "designs = g10\n"
        "class = ResNet152\n");
    EXPECT_EXIT(parseServeFile(path),
                ::testing::ExitedWithCode(1),
                "resize_hysteresis");
    std::remove(path.c_str());
}

// ---- Capacity-knee bisection (rates = auto) ----------------------

TEST(ServeSweepAuto, BisectsTheSustainedThroughputKnee)
{
    ServeSpec spec = tinySpec();
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 8;
    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);

    ASSERT_EQ(res.sustainedRate.size(), 1u);
    ASSERT_EQ(res.rateProbes.size(), 1u);
    // The knee exists and the search respected its probe budget.
    EXPECT_GT(res.sustainedRate[0], 0.0);
    EXPECT_LE(res.rateProbes[0], 8u);
    EXPECT_EQ(res.cells.size(),
              static_cast<std::size_t>(res.rateProbes[0]));
    // The knee is the highest probed rate that sustained, and some
    // probe above it overloaded (otherwise there was no bracket).
    double best_sustained = 0.0;
    bool overloaded_above = false;
    for (const ServeCellResult& c : res.cells) {
        if (c.sustained())
            best_sustained = std::max(best_sustained, c.rate);
        else if (c.rate > res.sustainedRate[0])
            overloaded_above = true;
    }
    EXPECT_DOUBLE_EQ(best_sustained, res.sustainedRate[0]);
    EXPECT_TRUE(overloaded_above);
}

TEST(ServeSweepAuto, AutoSearchIsBitIdenticalAcrossPoolSizes)
{
    ServeSpec spec = tinySpec();
    spec.designs = {"baseuvm", "g10"};
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 6;
    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    ServeSweepResult a = ServeSweep(spec).run(serial);
    ServeSweepResult b = ServeSweep(spec).run(pooled);
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(ServeSweepAuto, RespectsTheRateCeiling)
{
    // No rate_lo: the default first probe (0.05) exceeds the ceiling
    // and must be clamped under it (regression: the first probe used
    // to ignore rate_hi and report a knee above the ceiling).
    ServeSpec spec = tinySpec();
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateHi = 0.04;  // ceiling below the node's real knee
    spec.rateProbes = 6;
    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);
    for (const ServeCellResult& c : res.cells)
        EXPECT_LE(c.rate, 0.04);
    EXPECT_DOUBLE_EQ(res.sustainedRate[0], 0.04);
}

TEST(ServeSweepAuto, UnservableClassShedsInsteadOfStalling)
{
    // A class whose working-set floor exceeds the whole scaled
    // machine must behave like static slots do — admit, fail with
    // the explicit hard OOM — not wedge the serve loop behind a
    // permanently un-admittable queue head (regression: proportional
    // gating used to panic 'serve loop stalled').
    ServeSpec spec;
    spec.scaleDown = 256;  // BERT's working set tops the 160 MiB node
    spec.slots = 2;
    spec.partitionPolicy = PartitionPolicy::Proportional;
    spec.requests = 4;
    spec.rates = {0.2};
    spec.designs = {"g10"};
    ServeJobClass bert;
    bert.model = ModelKind::BertBase;
    spec.classes = {bert};

    ExperimentEngine engine(1);
    ServeSweepResult res = ServeSweep(spec).run(engine);
    const ServeMetrics& m = res.cells[0].metrics;
    EXPECT_EQ(m.offered, 4u);
    EXPECT_EQ(m.admitted, 4u);
    EXPECT_EQ(m.failed, 4u);  // explicit OOM, static-parity semantics
    EXPECT_FALSE(res.allSucceeded());
}

TEST(ServeSweepDeath, CodeBuiltSpecsGetTheFileChecks)
{
    // checkServeSpec runs in the constructor too, so a spec built in
    // code (or changed by a CLI override) fails like a file would.
    ServeSpec spec = tinySpec();
    spec.rateLo = 2.0;
    spec.rateHi = 1.0;
    EXPECT_EXIT(ServeSweep sweep(spec), ::testing::ExitedWithCode(1),
                "rate_hi must be >= rate_lo");

    spec = tinySpec();
    spec.arrival.kind = ArrivalKind::Trace;
    EXPECT_EXIT(ServeSweep sweep(spec), ::testing::ExitedWithCode(1),
                "needs 'trace = <file>'");

    spec = tinySpec();
    spec.designs.push_back("no-such-design");
    EXPECT_EXIT(ServeSweep sweep(spec), ::testing::ExitedWithCode(1),
                "unknown design 'no-such-design' \\(registered: ");
}

}  // namespace
}  // namespace g10
