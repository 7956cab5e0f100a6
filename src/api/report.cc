#include "report.h"

#include <cctype>

#include "common/logging.h"
#include "common/table.h"

namespace g10 {

ReportFormat
reportFormatFromName(const std::string& name)
{
    std::string s = name;
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "table")
        return ReportFormat::Table;
    if (s == "json")
        return ReportFormat::Json;
    if (s == "csv")
        return ReportFormat::Csv;
    fatal("unknown format '%s' (valid: table, json, csv)",
          name.c_str());
}

namespace {

double
seconds(TimeNs ns)
{
    return static_cast<double>(ns) / 1e9;
}

void
writeTrafficJson(JsonWriter& w, const TrafficStats& t)
{
    w.beginObject();
    w.field("ssd_to_gpu_bytes", static_cast<std::uint64_t>(t.ssdToGpu));
    w.field("gpu_to_ssd_bytes", static_cast<std::uint64_t>(t.gpuToSsd));
    w.field("host_to_gpu_bytes",
            static_cast<std::uint64_t>(t.hostToGpu));
    w.field("gpu_to_host_bytes",
            static_cast<std::uint64_t>(t.gpuToHost));
    w.field("fault_batches", t.faultBatches);
    w.field("migration_ops", t.migrationOps);
    w.endObject();
}

void
writeSsdJson(JsonWriter& w, const SsdStats& s)
{
    w.beginObject();
    w.field("host_read_bytes",
            static_cast<std::uint64_t>(s.hostReadBytes));
    w.field("host_write_bytes",
            static_cast<std::uint64_t>(s.hostWriteBytes));
    w.field("nand_write_bytes",
            static_cast<std::uint64_t>(s.nandWriteBytes));
    w.field("waf", s.waf());
    w.field("gc_runs", s.gcRuns);
    w.field("block_erases", s.blockErases);
    w.field("relocated_pages", s.relocatedPages);
    w.endObject();
}

void
writeSystemJson(JsonWriter& w, const SystemConfig& sys)
{
    w.beginObject();
    w.field("gpu_mem_bytes", static_cast<std::uint64_t>(sys.gpuMemBytes));
    w.field("host_mem_bytes",
            static_cast<std::uint64_t>(sys.hostMemBytes));
    w.field("ssd_capacity_bytes",
            static_cast<std::uint64_t>(sys.ssdCapacityBytes));
    w.field("pcie_gbps", sys.pcieGBps);
    w.field("ssd_read_gbps", sys.ssdReadGBps);
    w.field("ssd_write_gbps", sys.ssdWriteGBps);
    w.endObject();
}

void
writeConfigJson(JsonWriter& w, const ExperimentConfig& cfg)
{
    w.beginObject();
    w.field("model", modelName(cfg.model));
    w.field("batch", static_cast<std::int64_t>(cfg.batchSize));
    w.field("scale_down", static_cast<std::uint64_t>(cfg.scaleDown));
    w.field("design", cfg.design);
    w.field("iterations", static_cast<std::int64_t>(cfg.iterations));
    w.field("timing_error", cfg.timingErrorPct);
    w.field("seed", static_cast<std::uint64_t>(cfg.seed));
    w.field("weight_watermark", cfg.weightWatermark);
    w.key("uvm_extension");
    if (cfg.uvmExtension < 0)
        w.value("auto");
    else
        w.value(cfg.uvmExtension != 0);
    w.key("system");
    writeSystemJson(w, cfg.sys);
    w.endObject();
}

/** The per-run key/value table shared by table and CSV output. */
Table
runResultTable(const RunResult& r)
{
    const ExecStats& st = r.stats;
    Table out("g10sim result");
    out.setHeader({"key", "value"});
    out.addRowOf("model", st.modelName.c_str());
    out.addRowOf("batch", st.batchSize);
    out.addRowOf("design", st.policyName.c_str());
    if (st.failed) {
        out.addRowOf("status", "FAILED");
        out.addRowOf("reason", st.failReason.c_str());
        return out;
    }
    out.addRowOf("status", "ok");
    out.addRowOf("iteration_s", seconds(st.measuredIterationNs));
    out.addRowOf("ideal_s", seconds(st.idealIterationNs));
    out.addRowOf("normalized_perf", st.normalizedPerf());
    out.addRowOf("throughput_sps", st.throughput());
    out.addRowOf("stall_s", seconds(st.totalStallNs));
    out.addRowOf("fault_batches",
                 static_cast<unsigned long long>(st.pageFaultBatches));
    out.addRowOf("gpu_ssd_GB",
                 static_cast<double>(st.traffic.gpuToSsd +
                                     st.traffic.ssdToGpu) / 1e9);
    out.addRowOf("gpu_host_GB",
                 static_cast<double>(st.traffic.gpuToHost +
                                     st.traffic.hostToGpu) / 1e9);
    out.addRowOf("ssd_waf", st.ssd.waf());
    return out;
}

Table
mixJobsTable(const MixResult& result)
{
    Table jobs("per-job results (shared GPU + host DRAM + SSD)");
    jobs.setHeader({"job", "design", "prio", "arrive_ms", "status",
                    "iter_s", "isolated_s", "slowdown", "turnaround",
                    "finish_s"});
    for (const JobResult& j : result.jobs) {
        if (j.shared.failed) {
            jobs.addRowOf(j.name.c_str(),
                          j.shared.policyName.c_str(), j.spec.priority,
                          static_cast<double>(j.spec.arrivalNs) / 1e6,
                          "FAILED", j.shared.failReason.c_str(), "-",
                          "-", "-", "-");
            continue;
        }
        jobs.addRowOf(
            j.name.c_str(), j.shared.policyName.c_str(),
            j.spec.priority,
            static_cast<double>(j.spec.arrivalNs) / 1e6, "ok",
            seconds(j.shared.measuredIterationNs),
            j.isolated.measuredIterationNs > 0
                ? Table::formatCell(
                      seconds(j.isolated.measuredIterationNs))
                : std::string("-"),
            j.slowdown > 0 ? Table::formatCell(j.slowdown)
                           : std::string("-"),
            j.turnaroundSlowdown > 0
                ? Table::formatCell(j.turnaroundSlowdown)
                : std::string("-"),
            seconds(j.finishNs));
    }
    return jobs;
}

Table
mixAggregateTable(const MixResult& result)
{
    Table agg("mix aggregate");
    agg.setHeader({"metric", "value"});
    agg.addRowOf("jobs", static_cast<int>(result.jobs.size()));
    agg.addRowOf("makespan_s", seconds(result.makespanNs));
    agg.addRowOf("gpu_utilization", result.gpuUtilization);
    agg.addRowOf("aggregate_throughput_sps",
                 result.aggregateThroughput);
    agg.addRowOf("fairness_jain", result.fairness);
    agg.addRowOf("ssd_host_write_GB",
                 static_cast<double>(result.ssd.hostWriteBytes) / 1e9);
    agg.addRowOf("ssd_nand_write_GB",
                 static_cast<double>(result.ssd.nandWriteBytes) / 1e9);
    agg.addRowOf("ssd_waf", result.ssd.waf());
    agg.addRowOf("ssd_gc_runs",
                 static_cast<unsigned long long>(result.ssd.gcRuns));
    return agg;
}

double
milliseconds(TimeNs ns)
{
    return static_cast<double>(ns) / 1e6;
}

void
writeServeSpecJson(JsonWriter& w, const ServeSweepResult& r)
{
    const ServeSpec& s = r.spec;
    w.beginObject();
    w.field("scale_down", static_cast<std::uint64_t>(s.scaleDown));
    w.field("seed", static_cast<std::uint64_t>(s.seed));
    w.field("slots", static_cast<std::int64_t>(s.slots));
    w.field("partition_policy",
            partitionPolicyName(s.partitionPolicy));
    if (s.partitionPolicy != PartitionPolicy::Static) {
        w.field("resize_hysteresis", s.resizeHysteresis);
        w.field("max_active",
                static_cast<std::int64_t>(s.resolvedMaxActive()));
    }
    w.field("queue_capacity",
            static_cast<std::uint64_t>(s.queueCapacity));
    w.field("admission", admitPolicyName(s.admit));
    w.field("starvation_ms", milliseconds(s.starvationNs));
    w.field("slo_factor", s.sloFactor);
    w.field("arrival", arrivalKindName(s.arrival.kind));
    if (s.arrival.kind == ArrivalKind::Bursty) {
        w.field("burst_on_ms", s.arrival.burstOnSec * 1e3);
        w.field("burst_off_ms", s.arrival.burstOffSec * 1e3);
    }
    if (s.arrival.kind == ArrivalKind::Trace)
        w.field("trace", s.arrival.tracePath);
    else
        w.field("requests", static_cast<std::int64_t>(s.requests));
    w.field("rate_search", s.ratesAuto ? "auto" : "list");
    if (s.ratesAuto) {
        w.field("rate_lo", s.resolvedRateLo());
        if (s.rateHi > 0.0)
            w.field("rate_hi", s.rateHi);
        w.field("rate_probes",
                static_cast<std::int64_t>(s.rateProbes));
    }
    w.key("rates");
    w.beginArray();
    for (double r2 : s.rates)
        w.value(r2);
    w.endArray();
    w.key("designs");
    w.beginArray();
    for (const std::string& d : s.designs)
        w.value(d);
    w.endArray();
    w.key("classes");
    w.beginArray();
    for (const std::string& c : r.classNames)
        w.value(c);
    w.endArray();
    w.key("system");
    writeSystemJson(w, s.sys);
    w.endObject();
}

void
writeServeCellJson(JsonWriter& w, const ServeCellResult& cell)
{
    const ServeMetrics& m = cell.metrics;
    w.beginObject();
    w.field("design", cell.design);
    w.field("design_name", cell.designName);
    w.field("rate_per_s", cell.rate);
    w.field("sustained", cell.sustained());
    w.field("offered", m.offered);
    w.field("admitted", m.admitted);
    w.field("rejected", m.rejected);
    w.field("completed", m.completed);
    w.field("failed", m.failed);
    w.key("queue_delay_ms");
    w.beginObject();
    w.field("p50", milliseconds(m.queueP50Ns));
    w.field("p95", milliseconds(m.queueP95Ns));
    w.field("p99", milliseconds(m.queueP99Ns));
    w.field("max", milliseconds(m.queueMaxNs));
    w.field("mean", m.queueMeanNs / 1e6);
    w.endObject();
    w.key("latency_ms");
    w.beginObject();
    w.field("p50", milliseconds(m.latencyP50Ns));
    w.field("p95", milliseconds(m.latencyP95Ns));
    w.field("p99", milliseconds(m.latencyP99Ns));
    w.field("mean", m.latencyMeanNs / 1e6);
    w.endObject();
    w.key("slowdown");
    w.beginObject();
    w.field("mean", m.slowdownMean);
    w.field("p95", m.slowdownP95);
    w.endObject();
    w.field("slo_attainment", m.sloAttainment);
    w.field("throughput_rps", m.throughputRps);
    w.field("makespan_s", seconds(m.makespanNs));
    w.field("gpu_utilization", m.gpuUtilization);
    w.field("max_queue_depth",
            static_cast<std::uint64_t>(m.maxQueueDepth));
    w.field("starvation_promotions", m.starvationPromotions);
    w.field("cold_compiles", m.coldCompiles);
    w.field("warm_compiles", m.warmCompiles);
    w.key("elastic");
    w.beginObject();
    w.field("resizes", m.resizes);
    w.field("shrinks", m.resizeShrinks);
    w.field("grows", m.resizeGrows);
    w.field("splits", m.splits);
    w.field("replans", m.replans);
    w.field("resize_warm_hits", m.resizeWarmHits);
    w.field("warm_replayed_migrations", m.warmReplayedMigrations);
    w.field("warm_dropped_migrations", m.warmDroppedMigrations);
    w.field("resize_evicted_gb",
            static_cast<double>(m.resizeEvictedBytes) / 1e9);
    w.endObject();
    w.key("ssd");
    writeSsdJson(w, cell.ssd);
    w.endObject();
}

void
writeJobJson(JsonWriter& w, const JobResult& j)
{
    w.beginObject();
    w.field("name", j.name);
    w.field("model", modelName(j.spec.model));
    w.field("batch", static_cast<std::int64_t>(j.spec.batchSize));
    w.field("design", j.spec.design);
    w.field("priority", static_cast<std::int64_t>(j.spec.priority));
    w.field("arrival_ms",
            static_cast<double>(j.spec.arrivalNs) / 1e6);
    w.field("status", j.shared.failed ? "failed" : "ok");
    if (j.shared.failed)
        w.field("fail_reason", j.shared.failReason);
    w.field("iteration_time_s", seconds(j.shared.measuredIterationNs));
    w.key("isolated_iteration_s");
    if (j.isolated.measuredIterationNs > 0)
        w.value(seconds(j.isolated.measuredIterationNs));
    else
        w.null();
    w.key("slowdown");
    if (j.slowdown > 0)
        w.value(j.slowdown);
    else
        w.null();
    w.key("turnaround_slowdown");
    if (j.turnaroundSlowdown > 0)
        w.value(j.turnaroundSlowdown);
    else
        w.null();
    w.field("finish_s", seconds(j.finishNs));
    w.key("stats");
    writeJson(w, j.shared);
    w.endObject();
}

}  // namespace

void
writeJson(JsonWriter& w, const ExecStats& stats)
{
    w.beginObject();
    w.field("model", stats.modelName);
    w.field("batch", static_cast<std::int64_t>(stats.batchSize));
    w.field("design", stats.policyName);
    w.field("status", stats.failed ? "failed" : "ok");
    if (stats.failed)
        w.field("fail_reason", stats.failReason);
    w.field("iteration_time_s", seconds(stats.measuredIterationNs));
    w.field("ideal_iteration_s", seconds(stats.idealIterationNs));
    w.field("normalized_perf", stats.normalizedPerf());
    w.field("throughput_sps", stats.throughput());
    w.field("stall_s", seconds(stats.totalStallNs));
    w.field("fault_batches", stats.pageFaultBatches);
    w.field("kernels",
            static_cast<std::uint64_t>(stats.kernels.size()));
    w.key("traffic");
    writeTrafficJson(w, stats.traffic);
    w.key("ssd");
    writeSsdJson(w, stats.ssd);
    w.endObject();
}

void
writeRunResultJson(std::ostream& os, const RunResult& result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.run_result.v1");
    w.field("design", result.designName);
    w.key("config");
    writeConfigJson(w, result.config);
    w.key("result");
    writeJson(w, result.stats);
    w.endObject();
    os << "\n";
}

void
writeMixResultJson(std::ostream& os, const MixResult& result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.mix_result.v1");
    w.key("jobs");
    w.beginArray();
    for (const JobResult& j : result.jobs)
        writeJobJson(w, j);
    w.endArray();
    w.key("aggregate");
    w.beginObject();
    w.field("makespan_s", seconds(result.makespanNs));
    w.field("gpu_busy_s", seconds(result.gpuBusyNs));
    w.field("gpu_utilization", result.gpuUtilization);
    w.field("aggregate_throughput_sps", result.aggregateThroughput);
    w.field("fairness_jain", result.fairness);
    w.key("ssd");
    writeSsdJson(w, result.ssd);
    w.endObject();
    w.endObject();
    os << "\n";
}

void
writeDistributionJson(JsonWriter& w, const Distribution& dist)
{
    w.beginObject();
    w.field("count", static_cast<std::uint64_t>(dist.count()));
    if (dist.count() > 0) {
        w.field("sum", dist.sum());
        w.field("mean", dist.mean());
        w.field("min", dist.min());
        w.field("max", dist.max());
        w.field("p50", dist.percentile(0.50));
        w.field("p95", dist.percentile(0.95));
        w.field("p99", dist.percentile(0.99));
        w.field("p999", dist.percentile(0.999));
    }
    w.endObject();
}

void
writeMetricsJson(std::ostream& os, const CounterRegistry& reg)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.metrics.v1");
    w.key("counters");
    w.beginObject();
    for (const auto& [name, value] : reg.counters())
        w.field(name, value);
    w.endObject();
    w.key("distributions");
    w.beginObject();
    for (const auto& [name, dist] : reg.distributions()) {
        w.key(name);
        writeDistributionJson(w, dist);
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

namespace {

/** Dense stall-cause table as an object keyed by cause name. */
void
writeCauseNsJson(JsonWriter& w, const TimeNs (&cause)[kNumStallCauses])
{
    w.beginObject();
    for (int c = 0; c < kNumStallCauses; ++c)
        w.field(stallCauseName(static_cast<StallCause>(c)),
                static_cast<std::int64_t>(cause[c]));
    w.endObject();
}

void
writeForensicsSeriesJson(JsonWriter& w,
                         const std::vector<ForensicsPoint>& series)
{
    w.beginArray();
    for (const ForensicsPoint& p : series) {
        w.beginObject();
        w.field("ts_ns", static_cast<std::int64_t>(p.ts));
        w.field("value", p.value);
        w.endObject();
    }
    w.endArray();
}

}  // namespace

void
writeCriticalPathJson(std::ostream& os, const CriticalPathReport& report)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.trace_analysis.v1");
    w.field("analysis", "critical_path");
    w.field("pid", static_cast<std::int64_t>(report.pid));
    w.field("worst_iteration",
            static_cast<std::int64_t>(report.worstIteration()));
    w.key("iterations");
    w.beginArray();
    for (const IterationPath& it : report.iterations) {
        w.beginObject();
        w.field("index", static_cast<std::int64_t>(it.index));
        w.field("begin_ns", static_cast<std::int64_t>(it.beginNs));
        w.field("end_ns", static_cast<std::int64_t>(it.endNs));
        w.field("compute_ns",
                static_cast<std::int64_t>(it.computeNs));
        w.field("stall_ns", static_cast<std::int64_t>(it.stallNs()));
        w.field("kernels", static_cast<std::int64_t>(it.kernels));
        w.key("stall_by_cause_ns");
        writeCauseNsJson(w, it.causeNs);
        w.key("chain");
        w.beginObject();
        w.field("stall_ns",
                static_cast<std::int64_t>(it.chain.totalNs()));
        w.key("stall_by_cause_ns");
        writeCauseNsJson(w, it.chain.causeNs);
        w.key("steps");
        w.beginArray();
        for (const CriticalPathStep& s : it.chain.steps) {
            w.beginObject();
            w.field("k", static_cast<std::int64_t>(s.kernel));
            w.field("kernel", s.name);
            w.field("start_ns",
                    static_cast<std::int64_t>(s.startNs));
            w.field("dur_ns", static_cast<std::int64_t>(s.durNs));
            w.field("stall_ns",
                    static_cast<std::int64_t>(s.stallNs()));
            w.key("stall_by_cause_ns");
            writeCauseNsJson(w, s.causeNs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeDiffAttributionJson(std::ostream& os, const DiffAttribution& diff)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.trace_analysis.v1");
    w.field("analysis", "diff");
    w.field("base", diff.baseLabel);
    w.field("test", diff.testLabel);
    w.field("base_measured_ns",
            static_cast<std::int64_t>(diff.baseMeasuredNs));
    w.field("test_measured_ns",
            static_cast<std::int64_t>(diff.testMeasuredNs));
    w.field("delta_ns", static_cast<std::int64_t>(diff.deltaNs()));
    w.field("ideal_delta_ns",
            static_cast<std::int64_t>(diff.idealDeltaNs));
    w.key("cause_delta_ns");
    writeCauseNsJson(w, diff.causeDeltaNs);
    w.field("noise_delta_ns",
            static_cast<std::int64_t>(diff.noiseDeltaNs));
    w.field("exact", diff.exact());
    w.key("kernels");
    w.beginArray();
    for (const DiffAttributionRow& r : diff.rows) {
        if (r.deltaNs() == 0 && r.idealDeltaNs == 0)
            continue;  // untouched kernels would dominate the doc
        w.beginObject();
        w.field("k", static_cast<std::int64_t>(r.kernel));
        w.field("kernel", r.name);
        w.field("base_ns",
                static_cast<std::int64_t>(r.baseActualNs));
        w.field("test_ns",
                static_cast<std::int64_t>(r.testActualNs));
        w.field("delta_ns", static_cast<std::int64_t>(r.deltaNs()));
        w.field("ideal_delta_ns",
                static_cast<std::int64_t>(r.idealDeltaNs));
        w.key("cause_delta_ns");
        writeCauseNsJson(w, r.causeDeltaNs);
        w.field("noise_delta_ns",
                static_cast<std::int64_t>(r.noiseDeltaNs));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeFlameJson(std::ostream& os, const FlameAggregation& flame)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.trace_analysis.v1");
    w.field("analysis", "flame");
    w.field("pid", static_cast<std::int64_t>(flame.pid));
    w.field("total_stall_ns", flame.totalStallNs);
    w.key("stacks");
    w.beginArray();
    for (const FlameStack& s : flame.stacks) {
        w.beginObject();
        w.field("frames", s.frames);
        w.field("stall_ns", s.stallNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeFleetForensicsJson(std::ostream& os,
                        const FleetForensics& forensics)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.trace_analysis.v1");
    w.field("analysis", "forensics");
    w.field("departures", forensics.departures);
    w.field("failures", forensics.failures);
    w.field("rejections", forensics.rejections);
    w.key("nodes");
    w.beginArray();
    for (const NodeSeries& n : forensics.nodes) {
        w.beginObject();
        w.field("node", static_cast<std::int64_t>(n.node));
        w.field("admitted", n.admitted);
        w.field("departed", n.departed);
        w.field("failed", n.failed);
        w.field("rejected", n.rejected);
        w.field("slo_missed", n.sloMissed);
        w.field("max_queue_depth", n.maxQueueDepth);
        w.field("max_inflight", n.maxOccupancy);
        w.key("queue_depth");
        writeForensicsSeriesJson(w, n.queueDepth);
        w.key("occupancy");
        writeForensicsSeriesJson(w, n.occupancy);
        w.endObject();
    }
    w.endArray();
    w.key("breaches");
    w.beginArray();
    for (const SloBreach& b : forensics.breaches) {
        w.beginObject();
        w.field("pid", static_cast<std::int64_t>(b.pid));
        w.field("node", static_cast<std::int64_t>(b.node));
        w.field("class", b.cls);
        w.field("arrival_ns",
                static_cast<std::int64_t>(b.arrivalNs));
        w.field("depart_ns", static_cast<std::int64_t>(b.departNs));
        w.field("latency_ns",
                static_cast<std::int64_t>(b.latencyNs()));
        w.field("slo_limit_ns",
                static_cast<std::int64_t>(b.sloLimitNs));
        w.field("overshoot_ns",
                static_cast<std::int64_t>(b.overshootNs()));
        w.field("queue_ns", static_cast<std::int64_t>(b.queueNs));
        w.field("stall_ns", static_cast<std::int64_t>(b.stallNs));
        w.field("resize_ns", static_cast<std::int64_t>(b.resizeNs));
        w.field("dominant", b.dominantWait());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeServeResultJson(std::ostream& os, const ServeSweepResult& result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.serve_result.v1");
    w.key("spec");
    writeServeSpecJson(w, result);
    w.key("baselines");
    w.beginArray();
    for (std::size_t d = 0; d < result.baselines.size(); ++d) {
        w.beginObject();
        w.field("design", result.spec.designs[d]);
        w.key("unloaded_latency_ms");
        w.beginObject();
        for (std::size_t c = 0; c < result.baselines[d].size(); ++c) {
            const ServeClassBaseline& b = result.baselines[d][c];
            w.key(result.classNames[c]);
            if (b.failed)
                w.null();
            else
                w.value(milliseconds(b.unloadedNs));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("cells");
    w.beginArray();
    for (const ServeCellResult& cell : result.cells)
        writeServeCellJson(w, cell);
    w.endArray();
    w.key("capacity");
    w.beginArray();
    for (std::size_t d = 0; d < result.sustainedRate.size(); ++d) {
        w.beginObject();
        w.field("design", result.spec.designs[d]);
        w.field("sustained_rate_per_s", result.sustainedRate[d]);
        if (d < result.rateProbes.size())
            w.field("probes", result.rateProbes[d]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

int
printRunResult(std::ostream& os, const RunResult& result,
               ReportFormat format)
{
    switch (format) {
      case ReportFormat::Json:
        writeRunResultJson(os, result);
        break;
      case ReportFormat::Csv:
        runResultTable(result).printCsv(os);
        break;
      case ReportFormat::Table:
        runResultTable(result).print(os);
        break;
    }
    return result.ok() ? 0 : 2;
}

namespace {

Table
serveCellsTable(const ServeSweepResult& result)
{
    Table t("served load (designs x offered rates)");
    t.setHeader({"design", "rate", "ok", "offered", "rej", "fail",
                 "queue_p95_ms", "lat_p50_ms", "lat_p95_ms",
                 "lat_p99_ms", "slo", "tput_rps", "resz", "rwarm",
                 "waf"});
    for (const ServeCellResult& c : result.cells) {
        const ServeMetrics& m = c.metrics;
        t.addRowOf(c.designName.c_str(), c.rate,
                   c.sustained() ? "yes" : "NO",
                   static_cast<unsigned long long>(m.offered),
                   static_cast<unsigned long long>(m.rejected),
                   static_cast<unsigned long long>(m.failed),
                   milliseconds(m.queueP95Ns),
                   milliseconds(m.latencyP50Ns),
                   milliseconds(m.latencyP95Ns),
                   milliseconds(m.latencyP99Ns), m.sloAttainment,
                   m.throughputRps,
                   static_cast<unsigned long long>(m.resizes),
                   static_cast<unsigned long long>(m.resizeWarmHits),
                   c.ssd.waf());
    }
    return t;
}

Table
serveCapacityTable(const ServeSweepResult& result)
{
    const bool probed = !result.rateProbes.empty();
    Table t(probed
                ? "sustained-throughput capacity (bisected knee)"
                : "sustained-throughput capacity (max rate, bounded "
                  "queue)");
    if (probed)
        t.setHeader({"design", "sustained_rate_per_s", "probes"});
    else
        t.setHeader({"design", "sustained_rate_per_s"});
    for (std::size_t d = 0; d < result.sustainedRate.size(); ++d) {
        if (probed)
            t.addRowOf(result.spec.designs[d].c_str(),
                       result.sustainedRate[d],
                       static_cast<unsigned long long>(
                           result.rateProbes[d]));
        else
            t.addRowOf(result.spec.designs[d].c_str(),
                       result.sustainedRate[d]);
    }
    return t;
}

}  // namespace

int
printServeResult(std::ostream& os, const ServeSweepResult& result,
                 ReportFormat format)
{
    switch (format) {
      case ReportFormat::Json:
        writeServeResultJson(os, result);
        break;
      case ReportFormat::Csv:
        serveCellsTable(result).printCsv(os);
        os << "\n";
        serveCapacityTable(result).printCsv(os);
        break;
      case ReportFormat::Table:
        serveCellsTable(result).print(os);
        os << "\n";
        serveCapacityTable(result).print(os);
        break;
    }
    return result.allSucceeded() ? 0 : 2;
}

int
printMixResult(std::ostream& os, const MixResult& result,
               ReportFormat format)
{
    switch (format) {
      case ReportFormat::Json:
        writeMixResultJson(os, result);
        break;
      case ReportFormat::Csv:
        mixJobsTable(result).printCsv(os);
        os << "\n";
        mixAggregateTable(result).printCsv(os);
        break;
      case ReportFormat::Table:
        mixJobsTable(result).print(os);
        os << "\n";
        mixAggregateTable(result).print(os);
        break;
    }
    return result.allSucceeded() ? 0 : 2;
}

// ---- Fleet reporting ------------------------------------------------

namespace {

void
writeFleetSpecJson(JsonWriter& w, const FleetResult& r)
{
    const FleetSpec& s = r.spec;
    w.beginObject();
    w.field("scale_down", static_cast<std::uint64_t>(s.scaleDown));
    w.field("seed", static_cast<std::uint64_t>(s.seed));
    w.field("slots", static_cast<std::int64_t>(s.slots));
    w.field("queue_capacity",
            static_cast<std::uint64_t>(s.queueCapacity));
    w.field("partition_policy",
            partitionPolicyName(s.partitionPolicy));
    w.field("admission", admitPolicyName(s.admit));
    w.field("starvation_ms", milliseconds(s.starvationNs));
    w.field("slo_factor", s.sloFactor);
    w.field("requests", static_cast<std::int64_t>(s.requests));
    w.field("arrival", arrivalKindName(s.arrival.kind));
    if (s.arrival.kind == ArrivalKind::Bursty) {
        w.field("burst_on_ms", s.arrival.burstOnSec * 1e3);
        w.field("burst_off_ms", s.arrival.burstOffSec * 1e3);
    }
    if (s.ratesAuto) {
        w.field("rate_search", "auto");
        w.field("rate_lo", s.resolvedRateLo());
        if (s.rateHi > 0.0)
            w.field("rate_hi", s.rateHi);
        w.field("rate_probes",
                static_cast<std::int64_t>(s.rateProbes));
    } else {
        w.field("rate_per_s", s.rate);
    }
    w.field("design", s.design);
    w.key("placements");
    w.beginArray();
    for (PlacementKind kind : s.placements)
        w.value(placementKindName(kind));
    w.endArray();
    w.key("classes");
    w.beginArray();
    for (const std::string& c : r.classNames)
        w.value(c);
    w.endArray();
    w.key("system");
    writeSystemJson(w, s.sys);
    w.key("nodes");
    w.beginArray();
    for (std::size_t n = 0; n < s.nodes.size(); ++n) {
        const FleetNodeSpec& node = s.nodes[n];
        w.beginObject();
        w.field("name", node.name);
        w.field("slots", static_cast<std::int64_t>(
                             node.slots > 0 ? node.slots : s.slots));
        w.field("queue_capacity",
                static_cast<std::uint64_t>(
                    node.queue >= 0
                        ? static_cast<std::size_t>(node.queue)
                        : s.queueCapacity));
        w.field("seed", fleetNodeSeed(s.seed, n));
        w.key("families");
        w.beginArray();
        for (ModelKind fam : node.families)
            w.value(modelName(fam));
        w.endArray();
        w.key("system");
        writeSystemJson(w, s.nodeSystem(n));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeFleetMetricsJson(JsonWriter& w, const FleetMetrics& m)
{
    w.beginObject();
    w.field("offered", m.offered);
    w.field("admitted", m.admitted);
    w.field("rejected", m.rejected);
    w.field("completed", m.completed);
    w.field("failed", m.failed);
    w.field("slo_attainment", m.sloAttainment);
    w.field("throughput_rps", m.throughputRps);
    w.field("capacity_per_node_rps", m.capacityPerNodeRps);
    w.field("makespan_s", seconds(m.makespanNs));
    w.key("utilization");
    w.beginObject();
    w.field("min", m.utilMin);
    w.field("max", m.utilMax);
    w.field("mean", m.utilMean);
    w.field("jain", m.utilJain);
    w.endObject();
    w.field("warm_compiles", m.warmCompiles);
    w.field("cold_compiles", m.coldCompiles);
    w.field("consolidated_waf", m.consolidatedWaf);
    w.key("ssd");
    writeSsdJson(w, m.ssd);
    w.endObject();
}

Table
fleetSummaryTable(const FleetResult& result)
{
    // Auto-knee runs lead with the bisected capacity; fixed-rate
    // runs keep the historical columns.
    const bool knee = !result.placements.empty() &&
                      result.placements.front().rateProbes > 0;
    Table t(knee ? "fleet capacity knees (placement policies, "
                   "bisected offered rate)"
                 : "fleet summary (placement policies over one "
                   "stream)");
    if (knee) {
        t.setHeader({"placement", "knee_rate_per_s", "probes",
                     "offered", "rej", "fail", "slo", "tput_rps",
                     "cap_per_node", "jain", "warm", "cold", "waf"});
        for (const FleetPlacementResult& p : result.placements) {
            const FleetMetrics& m = p.fleet;
            t.addRowOf(placementKindName(p.kind), p.kneeRatePerS,
                       static_cast<unsigned long long>(p.rateProbes),
                       static_cast<unsigned long long>(m.offered),
                       static_cast<unsigned long long>(m.rejected),
                       static_cast<unsigned long long>(m.failed),
                       m.sloAttainment, m.throughputRps,
                       m.capacityPerNodeRps, m.utilJain,
                       static_cast<unsigned long long>(m.warmCompiles),
                       static_cast<unsigned long long>(m.coldCompiles),
                       m.consolidatedWaf);
        }
        return t;
    }
    t.setHeader({"placement", "offered", "rej", "fail", "slo",
                 "tput_rps", "cap_per_node", "util_min", "util_max",
                 "jain", "warm", "cold", "waf"});
    for (const FleetPlacementResult& p : result.placements) {
        const FleetMetrics& m = p.fleet;
        t.addRowOf(placementKindName(p.kind),
                   static_cast<unsigned long long>(m.offered),
                   static_cast<unsigned long long>(m.rejected),
                   static_cast<unsigned long long>(m.failed),
                   m.sloAttainment, m.throughputRps,
                   m.capacityPerNodeRps, m.utilMin, m.utilMax,
                   m.utilJain,
                   static_cast<unsigned long long>(m.warmCompiles),
                   static_cast<unsigned long long>(m.coldCompiles),
                   m.consolidatedWaf);
    }
    return t;
}

Table
fleetNodesTable(const FleetResult& result)
{
    Table t("per-node cells (placement x node)");
    t.setHeader({"placement", "node", "offered", "rej", "fail", "slo",
                 "lat_p95_ms", "util", "warm", "cold", "waf"});
    for (const FleetPlacementResult& p : result.placements) {
        for (std::size_t n = 0; n < p.nodeCells.size(); ++n) {
            const ServeCellResult& c = p.nodeCells[n];
            const ServeMetrics& m = c.metrics;
            // The node's share of fleet time, matching the spread.
            const double util =
                p.fleet.makespanNs > 0
                    ? m.gpuUtilization *
                          static_cast<double>(m.makespanNs) /
                          static_cast<double>(p.fleet.makespanNs)
                    : 0.0;
            t.addRowOf(placementKindName(p.kind),
                       result.nodeNames[n].c_str(),
                       static_cast<unsigned long long>(m.offered),
                       static_cast<unsigned long long>(m.rejected),
                       static_cast<unsigned long long>(m.failed),
                       m.sloAttainment,
                       milliseconds(m.latencyP95Ns), util,
                       static_cast<unsigned long long>(m.warmCompiles),
                       static_cast<unsigned long long>(m.coldCompiles),
                       c.ssd.waf());
        }
    }
    return t;
}

}  // namespace

void
writeFleetResultJson(std::ostream& os, const FleetResult& result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "g10.fleet_result.v1");
    w.key("spec");
    writeFleetSpecJson(w, result);
    w.key("baselines");
    w.beginArray();
    for (std::size_t n = 0; n < result.baselines.size(); ++n) {
        w.beginObject();
        w.field("node", result.nodeNames[n]);
        w.key("unloaded_latency_ms");
        w.beginObject();
        for (std::size_t c = 0; c < result.baselines[n].size(); ++c) {
            const ServeClassBaseline& b = result.baselines[n][c];
            w.key(result.classNames[c]);
            if (b.failed)
                w.null();
            else
                w.value(milliseconds(b.unloadedNs));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("placements");
    w.beginArray();
    for (const FleetPlacementResult& p : result.placements) {
        w.beginObject();
        w.field("placement", placementKindName(p.kind));
        if (p.rateProbes > 0) {
            w.field("knee_rate_per_s", p.kneeRatePerS);
            w.field("probes", p.rateProbes);
        }
        w.key("fleet");
        writeFleetMetricsJson(w, p.fleet);
        w.key("nodes");
        w.beginArray();
        for (std::size_t n = 0; n < p.nodeCells.size(); ++n) {
            w.beginObject();
            w.field("node", result.nodeNames[n]);
            w.field("offered", p.nodeOffered[n]);
            w.key("cell");
            writeServeCellJson(w, p.nodeCells[n]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

int
printFleetResult(std::ostream& os, const FleetResult& result,
                 ReportFormat format)
{
    switch (format) {
      case ReportFormat::Json:
        writeFleetResultJson(os, result);
        break;
      case ReportFormat::Csv:
        fleetSummaryTable(result).printCsv(os);
        os << "\n";
        fleetNodesTable(result).printCsv(os);
        break;
      case ReportFormat::Table:
        fleetSummaryTable(result).print(os);
        os << "\n";
        fleetNodesTable(result).print(os);
        break;
    }
    return result.allSucceeded() ? 0 : 2;
}

void
printDesignList(std::ostream& os, ReportFormat format)
{
    auto designs = PolicyRegistry::instance().registeredDesigns();

    if (format == ReportFormat::Json) {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", "g10.designs.v1");
        w.key("designs");
        w.beginArray();
        for (const PolicyInfo* d : designs) {
            w.beginObject();
            w.field("name", d->name);
            w.field("key", d->key);
            w.key("aliases");
            w.beginArray();
            for (const std::string& a : d->aliases)
                w.value(a);
            w.endArray();
            w.field("description", d->description);
            w.field("builtin", d->builtin);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        return;
    }

    Table t("registered designs");
    t.setHeader({"name", "key", "aliases", "description"});
    for (const PolicyInfo* d : designs) {
        std::string aliases;
        for (const std::string& a : d->aliases) {
            if (!aliases.empty())
                aliases += " ";
            aliases += a;
        }
        if (aliases.empty())
            aliases = "-";
        t.addRowOf(d->name.c_str(), d->key.c_str(), aliases.c_str(),
                   d->description.c_str());
    }
    if (format == ReportFormat::Csv)
        t.printCsv(os);
    else
        t.print(os);
}

}  // namespace g10
