/**
 * @file
 * The four benchmark workloads. Each op calls the library's public
 * API exactly as a user of g10sim, g10serve, g10fleet or g10trace
 * would; the traced variants split the same work at module boundaries
 * from here, without touching the library.
 */

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "api/experiment.h"
#include "api/report.h"
#include "core/g10_compiler.h"
#include "engine/experiment_engine.h"
#include "fleet/fleet_sim.h"
#include "fleet/fleet_spec.h"
#include "models/model_zoo.h"
#include "obs/analysis/critical_path.h"
#include "obs/analysis/flame.h"
#include "obs/analysis/forensics.h"
#include "obs/analysis/trace_reader.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"
#include "policies/registry.h"
#include "serve/serve_sim.h"
#include "serve/serve_spec.h"
#include "sim/runtime/sim_runtime.h"

#include "bench.h"

namespace perfbench {

namespace {

using namespace g10;

void
digestStats(Digest& d, const ExecStats& s)
{
    d.str(s.policyName).str(s.modelName).i64(s.batchSize);
    d.u64(s.failed ? 1 : 0).str(s.failReason);
    d.i64(s.idealIterationNs).i64(s.measuredIterationNs);
    d.i64(s.totalStallNs).u64(s.pageFaultBatches);
    const TrafficStats& t = s.traffic;
    d.u64(t.ssdToGpu).u64(t.gpuToSsd).u64(t.hostToGpu).u64(t.gpuToHost);
    d.u64(t.faultBatches).u64(t.migrationOps);
    const SsdStats& ssd = s.ssd;
    d.u64(ssd.hostReadBytes).u64(ssd.hostWriteBytes);
    d.u64(ssd.nandWriteBytes).u64(ssd.gcRuns).u64(ssd.blockErases);
    d.u64(ssd.relocatedPages);
    d.u64(s.kernels.size());
    for (const KernelStat& k : s.kernels)
        d.i64(k.idealNs).i64(k.actualNs).i64(k.stallNs);
}

/** Sum of the SSD counters of a set of serve cells. */
void
addSsd(SsdStats* acc, const SsdStats& s)
{
    acc->hostReadBytes += s.hostReadBytes;
    acc->hostWriteBytes += s.hostWriteBytes;
    acc->nandWriteBytes += s.nandWriteBytes;
    acc->gcRuns += s.gcRuns;
    acc->blockErases += s.blockErases;
    acc->relocatedPages += s.relocatedPages;
}

void
reportSsd(const SsdStats& s, LayerMetrics* out)
{
    const double page = static_cast<double>(SsdDevice::Geometry().flashPageBytes);
    (*out)["ssd.host_write_pages"] += static_cast<double>(s.hostWriteBytes) / page;
    (*out)["ssd.gc_runs"] += static_cast<double>(s.gcRuns);
    (*out)["ssd.block_erases"] += static_cast<double>(s.blockErases);
    (*out)["ssd.relocated_pages"] += static_cast<double>(s.relocatedPages);
}

/** Serve-layer counters shared by knee_search and fleet_trace. */
void
reportCells(const std::vector<ServeCellResult>& cells, LayerMetrics* out)
{
    SsdStats ssd;
    for (const ServeCellResult& c : cells) {
        (*out)["serve.cells"] += 1;
        (*out)["serve.warm_compiles"] += static_cast<double>(c.metrics.warmCompiles);
        (*out)["serve.cold_compiles"] += static_cast<double>(c.metrics.coldCompiles);
        (*out)["serve.resizes"] += static_cast<double>(c.metrics.resizes);
        (*out)["serve.splits"] += static_cast<double>(c.metrics.splits);
        (*out)["serve.replans"] += static_cast<double>(c.metrics.replans);
        addSsd(&ssd, c.ssd);
    }
    reportSsd(ssd, out);
    (*out)["ssd.waf"] = ssd.waf();
}

template <typename Result>
void
reportProbes(const Result& r, LayerMetrics* out)
{
    (*out)["probe.issued"] = static_cast<double>(r.probesIssued);
    (*out)["probe.speculative"] = static_cast<double>(r.probesSpeculative);
    (*out)["probe.spec_used"] = static_cast<double>(r.probeSpecUsed);
    (*out)["probe.spec_wasted"] = static_cast<double>(r.probeSpecWasted);
    (*out)["probe.cache_hits"] = static_cast<double>(r.probeCacheHits);
    (*out)["probe.spec_useful_ratio"] =
        r.probesSpeculative > 0
            ? static_cast<double>(r.probeSpecUsed) /
                  static_cast<double>(r.probesSpeculative)
            : 0.0;
}

// ---------------------------------------------------------------------
// paper_zoo and ssd_gc: single-model compile + replay through
// runExperiment(), traced as a staged compile plus a stepped replay.

class ReplayWorkload : public Workload
{
  public:
    explicit ReplayWorkload(std::vector<ExperimentConfig> cases)
        : cases_(std::move(cases))
    {}

    std::string
    reference() override
    {
        // simulate() on a freshly built trace: the one-call replay the
        // timed op (runExperiment) and the traced stepping both match.
        Digest d;
        for (const ExperimentConfig& cfg : cases_) {
            KernelTrace trace =
                buildModelScaled(cfg.model, cfg.batchSize, cfg.scaleDown);
            const SystemConfig sys = cfg.sys.scaledDown(cfg.scaleDown);
            DesignInstance design =
                PolicyRegistry::instance().make(cfg.design, trace, sys);
            digestStats(d, simulate(trace, *design.policy,
                                    runConfig(cfg, sys, design)));
        }
        return d.hex();
    }

    void
    run() override
    {
        results_.clear();
        for (const ExperimentConfig& cfg : cases_)
            results_.push_back(runExperiment(cfg));
    }

    void
    runTraced(SpanLog& log, LayerMetrics* out, double* extraS) override
    {
        results_.clear();
        std::vector<double> stepNs;
        double stepS = 0.0;
        Bytes nandBytes = 0, hostBytes = 0;
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            const ExperimentConfig& cfg = cases_[i];
            KernelTrace trace;
            (*out)["models.build_s"] += timed(&log, "models.build", [&] {
                trace = buildModelScaled(cfg.model, cfg.batchSize,
                                         cfg.scaleDown);
            });
            (*out)["models.kernels"] += static_cast<double>(trace.numKernels());
            const SystemConfig sys = cfg.sys.scaledDown(cfg.scaleDown);

            *extraS += stagedCompile(log, i, trace, sys, out);

            DesignInstance design;
            (*out)["policies.make_s"] += timed(&log, "policies.make", [&] {
                design = PolicyRegistry::instance().make(cfg.design,
                                                         trace, sys);
            });

            const RunConfig rc = runConfig(cfg, sys, design);
            std::unique_ptr<SsdDevice> ssd;
            std::unique_ptr<SimRuntime> rt;
            timed(&log, "runtime.init", [&] {
                ssd = std::make_unique<SsdDevice>(rc.sys);
                SharedResources shared;
                shared.ssd = ssd.get();
                rt = std::make_unique<SimRuntime>(trace, *design.policy, rc,
                                                  shared);
            });
            (*out)["runtime.start_s"] +=
                timed(&log, "runtime.start", [&] { rt->start(); });

            double gcStepS = 0.0;
            (*out)["runtime.step_s"] += timed(&log, "runtime.step", [&] {
                std::uint64_t erases = ssd->stats().blockErases;
                for (;;) {
                    const double t0 = wallNow();
                    if (!rt->stepKernel())
                        break;
                    const double dt = wallNow() - t0;
                    stepS += dt;
                    stepNs.push_back(dt * 1e9);
                    if (ssd->stats().blockErases != erases) {
                        erases = ssd->stats().blockErases;
                        gcStepS += dt;
                    }
                }
            });
            ExecStats stats;
            (*out)["runtime.finalize_s"] +=
                timed(&log, "runtime.finalize",
                      [&] { stats = rt->finalize(); });

            (*out)["ssd.gc_step_s"] += gcStepS;
            reportSsd(ssd->stats(), out);
            nandBytes += ssd->stats().nandWriteBytes;
            hostBytes += ssd->stats().hostWriteBytes;
            const TrafficStats& t = rt->fabric().traffic();
            (*out)["fabric.migration_ops"] += static_cast<double>(t.migrationOps);
            (*out)["fabric.fault_batches"] += static_cast<double>(t.faultBatches);
            (*out)["fabric.ssd_bytes"] +=
                static_cast<double>(t.ssdToGpu + t.gpuToSsd);
            (*out)["fabric.host_bytes"] +=
                static_cast<double>(t.hostToGpu + t.gpuToHost);
            timed(&log, "runtime.release", [&] {
                rt.reset();
                ssd.reset();
                design = DesignInstance();
            });
            timed(&log, "models.release", [&] { trace = KernelTrace(); });
            results_.push_back(std::move(stats));
        }
        (*out)["runtime.kernels_stepped"] = static_cast<double>(stepNs.size());
        (*out)["runtime.step_ns.p50"] = quantile(stepNs, 0.50);
        (*out)["runtime.step_ns.p99"] = quantile(stepNs, 0.99);
        (*out)["runtime.ns_per_sim_kernel"] =
            stepNs.empty() ? 0.0 : stepS * 1e9 / static_cast<double>(stepNs.size());
        (*out)["ssd.gc_step_share"] =
            stepS > 0.0 ? (*out)["ssd.gc_step_s"] / stepS : 0.0;
        (*out)["ssd.waf"] = hostBytes > 0
            ? static_cast<double>(nandBytes) / static_cast<double>(hostBytes)
            : 1.0;
    }

    std::string
    digest() const override
    {
        Digest d;
        for (const ExecStats& s : results_)
            digestStats(d, s);
        return d.hex();
    }

  private:
    static RunConfig
    runConfig(const ExperimentConfig& cfg, const SystemConfig& sys,
              const DesignInstance& design)
    {
        // Mirrors runExperimentOnTrace().
        RunConfig rc;
        rc.sys = sys;
        rc.iterations = cfg.iterations;
        rc.uvmExtension = cfg.uvmExtension < 0 ? design.uvmExtension
                                                : (cfg.uvmExtension != 0);
        rc.timingErrorPct = cfg.timingErrorPct;
        rc.seed = cfg.seed;
        rc.weightWatermark = cfg.weightWatermark;
        return rc;
    }

    /**
     * compileG10Plan()'s four stages called one at a time, so each gets
     * its own span. Verification-only work: the registry compiles again
     * inside policies.make. Returns the seconds spent.
     */
    double
    stagedCompile(SpanLog& log, std::size_t i, const KernelTrace& trace,
                  const SystemConfig& sys, LayerMetrics* out)
    {
        const double t0 = wallNow();
        G10CompilerOptions opt;
        opt.eviction.allowHost =
            PolicyRegistry::normalizeKey(cases_[i].design) != "g10gds";

        std::unique_ptr<VitalityAnalysis> va;
        (*out)["vitality.analyze_s"] += timed(&log, "vitality.analyze", [&] {
            va = std::make_unique<VitalityAnalysis>(
                trace, sys.kernelLaunchOverheadNs);
        });
        (*out)["vitality.periods"] += static_cast<double>(va->periods().size());
        EvictionSchedule schedule;
        std::unique_ptr<EvictionScheduler> evictor;
        (*out)["sched.evict_s"] += timed(&log, "sched.evict", [&] {
            evictor = std::make_unique<EvictionScheduler>(*va, sys,
                                                          opt.eviction);
            schedule = evictor->run();
        });
        (*out)["sched.prefetch_s"] += timed(&log, "sched.prefetch", [&] {
            schedulePrefetches(schedule, evictor->bandwidth(), sys,
                               opt.prefetch);
        });
        MigrationPlan plan;
        (*out)["sched.plan_s"] += timed(&log, "sched.plan", [&] {
            plan = buildMigrationPlan(*va, schedule);
        });
        (*out)["sched.migrations"] += static_cast<double>(schedule.migrations.size());

        // The one-call pipeline must agree with the staged one; checked
        // once per case and remembered.
        if (expectedMigrations_.size() <= i)
            timed(&log, "verify.compile", [&] {
                const CompiledPlan ref = compileG10Plan(trace, sys, opt);
                expectedMigrations_.push_back(ref.schedule.migrations.size());
                expectedInstrs_.push_back(ref.plan.size());
            });
        if (schedule.migrations.size() != expectedMigrations_[i] ||
            plan.size() != expectedInstrs_[i])
            throw std::runtime_error(
                "staged compile disagrees with compileG10Plan");
        return wallNow() - t0;
    }

    std::vector<ExperimentConfig> cases_;
    std::vector<ExecStats> results_;
    std::vector<std::size_t> expectedMigrations_;
    std::vector<std::size_t> expectedInstrs_;
};

/** splitmix64: a fixed, portable stream for input generation. */
std::uint64_t
splitmix(std::uint64_t* state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::unique_ptr<Workload>
makePaperZoo(std::uint64_t seed)
{
    // Every model at its paper batch, full scale, G10, 2 iterations.
    // The seed picks the order the models run in.
    std::vector<ModelKind> models = allModels();
    std::uint64_t state = seed;
    for (std::size_t i = models.size(); i > 1; --i)
        std::swap(models[i - 1], models[splitmix(&state) % i]);
    std::vector<ExperimentConfig> cases;
    for (ModelKind m : models) {
        ExperimentConfig c;
        c.model = m;
        c.batchSize = paperBatchSize(m);
        c.scaleDown = 1;
        c.design = "g10";
        c.iterations = 2;
        c.seed = seed;
        cases.push_back(c);
    }
    return std::make_unique<ReplayWorkload>(std::move(cases));
}

std::unique_ptr<Workload>
makeSsdGc(std::uint64_t seed)
{
    // Long enough for the flash log to fill (around iteration 17) and
    // garbage collection to run.
    ExperimentConfig c;
    c.model = ModelKind::ResNet152;
    c.batchSize = paperBatchSize(ModelKind::ResNet152);
    c.scaleDown = 8;
    c.design = "g10gds";
    c.iterations = 24;
    c.seed = seed;
    return std::make_unique<ReplayWorkload>(std::vector<ExperimentConfig>{c});
}

// ---------------------------------------------------------------------
// knee_search: capacity-knee bisection over examples/elastic.serve.

class KneeSearchWorkload : public Workload
{
  public:
    explicit KneeSearchWorkload(const std::string& specPath)
        : spec_(parseServeFile(specPath))
    {}

    std::string
    reference() override
    {
        ServeSpec seq = spec_;
        seq.speculativeProbes = false;
        ServeSweep sweep(seq);
        ExperimentEngine engine(1);
        return docDigest(sweep.run(engine));
    }

    void
    run() override
    {
        ServeSweep sweep(spec_);
        ExperimentEngine engine(kWorkers);
        result_ = sweep.run(engine);
    }

    void
    runTraced(SpanLog& log, LayerMetrics* out, double* extraS) override
    {
        std::unique_ptr<ServeSweep> sweep;
        (*out)["serve.sweep_build_s"] = timed(&log, "serve.sweep_build", [&] {
            sweep = std::make_unique<ServeSweep>(spec_);
        });
        double runS = 0.0;
        timed(&log, "engine.run", [&] {
            ExperimentEngine engine(kWorkers);
            runS = timed(&log, "serve.sweep_run",
                         [&] { result_ = sweep->run(engine); });
        });
        (*out)["serve.sweep_run_s"] = runS;
        reportCells(result_.cells, out);
        (*out)["plan_cache.hits"] = static_cast<double>(result_.planCacheHits);
        (*out)["plan_cache.misses"] = static_cast<double>(result_.planCacheMisses);
        const double lookups = static_cast<double>(result_.planCacheHits +
                                                   result_.planCacheMisses);
        (*out)["plan_cache.hit_ratio"] =
            lookups > 0 ? static_cast<double>(result_.planCacheHits) / lookups : 0.0;
        reportProbes(result_, out);

        // The same search with speculation off, same worker count: the
        // mechanism's speed-up, and a check that it changes nothing.
        const double t0 = wallNow();
        ServeSpec seq = spec_;
        seq.speculativeProbes = false;
        ServeSweep off(seq);
        ExperimentEngine engine(kWorkers);
        ServeSweepResult offResult;
        const double offS = timed(&log, "verify.speculation_off",
                                  [&] { offResult = off.run(engine); });
        (*out)["probe.speculation_speedup"] = offS / runS;
        if (docDigest(offResult) != docDigest(result_))
            throw std::runtime_error("speculation changed the serve result");
        *extraS += wallNow() - t0;
    }

    std::string digest() const override { return docDigest(result_); }

  private:
    static constexpr unsigned kWorkers = 3;

    static std::string
    docDigest(const ServeSweepResult& r)
    {
        std::ostringstream os;
        writeServeResultJson(os, r);
        return Digest().str(os.str()).hex();
    }

    ServeSpec spec_;
    ServeSweepResult result_;
};

// ---------------------------------------------------------------------
// fleet_trace: traced fleet sweep, Chrome export, re-read, analyzers.

class FleetTraceWorkload : public Workload
{
  public:
    explicit FleetTraceWorkload(const std::string& specPath)
        : spec_(parseFleetFile(specPath))
    {}

    std::string
    reference() override
    {
        const FleetSpec saved = spec_;
        spec_.speculativeProbes = false;
        run();
        spec_ = saved;
        return digest();
    }

    void
    run() override
    {
        FleetSim sim(spec_);
        ExperimentEngine engine(1);
        MemoryTraceSink sink;
        FleetObsRequest obs;
        obs.collectCounters = true;
        obs.sink = &sink;
        result_ = sim.run(engine, obs);
        events_ = sink.events().size();
        std::ostringstream os;
        writeChromeTrace(os, sink.events());
        TraceDocument doc;
        std::string err;
        if (!readChromeTrace(os.str(), &doc, &err))
            throw std::runtime_error("readChromeTrace: " + err);
        analyze(doc);
    }

    void
    runTraced(SpanLog& log, LayerMetrics* out, double* extraS) override
    {
        std::unique_ptr<FleetSim> sim;
        (*out)["fleet.build_s"] = timed(&log, "fleet.build", [&] {
            sim = std::make_unique<FleetSim>(spec_);
        });
        // Routing happens inside run(); route each placement once more
        // on its own to time the router alone.
        *extraS += (*out)["fleet.route_s"] = timed(&log, "fleet.route", [&] {
            for (PlacementKind kind : spec_.placements)
                sim->routed(kind);
        });
        MemoryTraceSink sink;
        const double runS = timed(&log, "fleet.run", [&] {
            ExperimentEngine engine(1);
            FleetObsRequest obs;
            obs.collectCounters = true;
            obs.sink = &sink;
            result_ = sim->run(engine, obs);
        });
        (*out)["fleet.run_s"] = runS;
        events_ = sink.events().size();
        (*out)["obs.events"] = static_cast<double>(events_);

        std::string text;
        (*out)["obs.export_s"] = timed(&log, "obs.export", [&] {
            std::ostringstream os;
            writeChromeTrace(os, sink.events());
            text = os.str();
        });
        (*out)["obs.export_mb"] = static_cast<double>(text.size()) / 1e6;
        TraceDocument doc;
        bool ok = false;
        std::string err;
        (*out)["obs.read_s"] = timed(&log, "obs.read", [&] {
            ok = readChromeTrace(text, &doc, &err);
        });
        if (!ok)
            throw std::runtime_error("readChromeTrace: " + err);
        (*out)["obs.analyze_s"] =
            timed(&log, "obs.analyze", [&] { analyze(doc); });

        std::uint64_t nodeCells = 0;
        std::vector<ServeCellResult> cells;
        for (const FleetPlacementResult& p : result_.placements) {
            nodeCells += p.nodeCells.size();
            cells.insert(cells.end(), p.nodeCells.begin(), p.nodeCells.end());
        }
        (*out)["fleet.node_cells"] = static_cast<double>(nodeCells);
        reportCells(cells, out);
        const double hits = static_cast<double>(result_.counters.value("plan_cache.hit"));
        const double misses = static_cast<double>(result_.counters.value("plan_cache.miss"));
        (*out)["plan_cache.hits"] = hits;
        (*out)["plan_cache.misses"] = misses;
        (*out)["plan_cache.hit_ratio"] =
            hits + misses > 0 ? hits / (hits + misses) : 0.0;
        reportProbes(result_, out);

        // The same fleet run without a sink: what capturing costs, and a
        // check that observing changes no result.
        // Only run() is timed on both sides: the traced side builds its
        // FleetSim under fleet.build.
        const double t0 = wallNow();
        FleetSim again(spec_);
        FleetResult plain;
        const double plainS = timed(&log, "verify.untraced_run", [&] {
            ExperimentEngine engine(1);
            plain = again.run(engine);
        });
        (*out)["obs.capture_overhead"] = runS / plainS;
        if (docDigest(plain) != docDigest(result_))
            throw std::runtime_error("tracing changed the fleet result");
        *extraS += wallNow() - t0;
    }

    std::string
    digest() const override
    {
        Digest d;
        d.str(docDigest(result_)).u64(events_);
        d.u64(forensics_.departures).u64(forensics_.failures);
        d.u64(forensics_.rejections).u64(forensics_.breaches.size());
        for (const NodeSeries& n : forensics_.nodes) {
            d.i64(n.node).i64(n.maxQueueDepth).i64(n.maxOccupancy);
            d.u64(n.admitted).u64(n.departed).u64(n.sloMissed);
        }
        d.i64(pathPid_).u64(path_.iterations.size());
        for (const IterationPath& it : path_.iterations)
            d.i64(it.spanNs()).i64(it.stallNs()).u64(it.chain.steps.size());
        d.u64(flame_.stacks.size()).u64(flame_.totalStallNs);
        return d.hex();
    }

  private:
    static std::string
    docDigest(const FleetResult& r)
    {
        std::ostringstream os;
        writeFleetResultJson(os, r);
        return Digest().str(os.str()).hex();
    }

    /**
     * The g10trace flow: forensics over the whole fleet, then the
     * critical path and flame stacks of the request that overshot its
     * SLO the most (or the first request when none did).
     */
    void
    analyze(const TraceDocument& doc)
    {
        forensics_ = analyzeFleetForensics(doc.events, kFleetPidStride);
        pathPid_ = doc.events.empty() ? 0 : doc.events.front().pid;
        TimeNs worst = 0;
        for (const SloBreach& b : forensics_.breaches)
            if (b.overshootNs() > worst) {
                worst = b.overshootNs();
                pathPid_ = b.pid;
            }
        path_ = extractCriticalPath(doc.events, pathPid_);
        flame_ = aggregateFlame(doc.events, pathPid_);
    }

    FleetSpec spec_;
    FleetResult result_;
    std::uint64_t events_ = 0;
    FleetForensics forensics_;
    int pathPid_ = 0;
    CriticalPathReport path_;
    FlameAggregation flame_;
};

}  // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const WorkloadInputs& in)
{
    if (name == "paper_zoo")
        return makePaperZoo(in.seed);
    if (name == "ssd_gc")
        return makeSsdGc(in.seed);
    if (name == "knee_search")
        return std::make_unique<KneeSearchWorkload>(in.serveSpecPath);
    if (name == "fleet_trace")
        return std::make_unique<FleetTraceWorkload>(in.fleetSpecPath);
    return nullptr;
}

}  // namespace perfbench
