/** @file Tests for the observability emission layer: attaching a
 *  tracer never changes simulation results (the read-only contract),
 *  stall spans cover ExecStats::totalStallNs exactly, and counter
 *  registries merge deterministically — including across
 *  ExperimentEngine worker counts driving a serve sweep. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/report.h"
#include "engine/experiment_engine.h"
#include "obs/tracer.h"
#include "policies/registry.h"
#include "serve/serve_sim.h"
#include "sim/runtime/sim_runtime.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** A trace whose working set overflows tinySystem()'s 64 MiB GPU, so
 *  every design actually migrates (and stalls). */
KernelTrace
pressuredTrace()
{
    return test::makeFwdBwdTrace(16, 8 * MiB, 200 * USEC, 4 * MiB);
}

ExecStats
runOnce(const std::string& design, Tracer* tracer)
{
    KernelTrace trace = pressuredTrace();
    SystemConfig sys = test::tinySystem();
    DesignInstance d = PolicyRegistry::instance().make(design, trace,
                                                       sys);
    RunConfig rc;
    rc.sys = sys;
    rc.iterations = 2;
    rc.uvmExtension = d.uvmExtension;
    SimRuntime rt(trace, *d.policy, rc);
    if (tracer)
        rt.setTracer(tracer);
    return rt.run();
}

/** Field-by-field equality of two ExecStats (bit-identity check). */
void
expectStatsIdentical(const ExecStats& a, const ExecStats& b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.idealIterationNs, b.idealIterationNs);
    EXPECT_EQ(a.measuredIterationNs, b.measuredIterationNs);
    EXPECT_EQ(a.totalStallNs, b.totalStallNs);
    EXPECT_EQ(a.pageFaultBatches, b.pageFaultBatches);
    EXPECT_EQ(a.traffic.ssdToGpu, b.traffic.ssdToGpu);
    EXPECT_EQ(a.traffic.gpuToSsd, b.traffic.gpuToSsd);
    EXPECT_EQ(a.traffic.hostToGpu, b.traffic.hostToGpu);
    EXPECT_EQ(a.traffic.gpuToHost, b.traffic.gpuToHost);
    EXPECT_EQ(a.traffic.faultBatches, b.traffic.faultBatches);
    EXPECT_EQ(a.traffic.migrationOps, b.traffic.migrationOps);
    EXPECT_EQ(a.ssd.hostWriteBytes, b.ssd.hostWriteBytes);
    EXPECT_EQ(a.ssd.nandWriteBytes, b.ssd.nandWriteBytes);
    EXPECT_EQ(a.ssd.gcRuns, b.ssd.gcRuns);
    EXPECT_EQ(a.ssd.blockErases, b.ssd.blockErases);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].idealNs, b.kernels[i].idealNs) << i;
        EXPECT_EQ(a.kernels[i].actualNs, b.kernels[i].actualNs) << i;
        EXPECT_EQ(a.kernels[i].stallNs, b.kernels[i].stallNs) << i;
    }
}

TEST(Tracer, OnOffBitIdentity)
{
    for (const char* design : {"baseuvm", "deepum", "g10"}) {
        SCOPED_TRACE(design);
        ExecStats off = runOnce(design, nullptr);

        MemoryTraceSink sink;
        CounterRegistry reg;
        Tracer tracer(&sink, &reg);
        ExecStats on = runOnce(design, &tracer);

        expectStatsIdentical(off, on);
        EXPECT_FALSE(sink.events().empty());
        EXPECT_FALSE(reg.empty());
    }
}

TEST(Tracer, MeasuredStallSpansCoverTotalStall)
{
    MemoryTraceSink sink;
    CounterRegistry reg;
    Tracer tracer(&sink, &reg);
    ExecStats st = runOnce("g10", &tracer);
    ASSERT_FALSE(st.failed);
    ASSERT_GT(st.totalStallNs, 0);

    // With timing_error = 0 the replayed duration equals the ideal
    // one, so the per-kernel cause spans of the measured iteration sum
    // exactly to the ExecStats stall total.
    TimeNs sum = 0;
    std::size_t measuredKernels = 0;
    for (const TraceEvent& ev : sink.events()) {
        if (ev.category == TraceCategory::Stall &&
            traceArgOf(ev, TraceArgKey::Measured) != 0)
            sum += ev.dur;
        if (ev.category == TraceCategory::Kernel &&
            traceArgOf(ev, TraceArgKey::Measured) != 0)
            ++measuredKernels;
    }
    EXPECT_EQ(sum, st.totalStallNs);
    EXPECT_EQ(measuredKernels, st.kernels.size());

    // The counter mirror of the same total.
    EXPECT_EQ(reg.value("stall.total.ns"),
              static_cast<std::uint64_t>(st.totalStallNs));

    // Migration traffic shows up as transfer events and counters.
    EXPECT_GT(reg.value("xfer.ops"), 0u);
}

TEST(CounterRegistry, BasicsAndMerge)
{
    CounterRegistry a;
    EXPECT_TRUE(a.empty());
    a.add("x");
    a.add("x", 4);
    a.sample("d", 1.0);
    a.sample("d", 3.0);
    EXPECT_EQ(a.value("x"), 5u);
    EXPECT_EQ(a.value("absent"), 0u);
    ASSERT_NE(a.distribution("d"), nullptr);
    EXPECT_EQ(a.distribution("d")->count(), 2u);
    EXPECT_EQ(a.distribution("absent"), nullptr);

    CounterRegistry b;
    b.add("x", 2);
    b.add("y", 7);
    b.sample("d", 2.0);
    a.merge(b);
    EXPECT_EQ(a.value("x"), 7u);
    EXPECT_EQ(a.value("y"), 7u);
    EXPECT_EQ(a.distribution("d")->count(), 3u);
    EXPECT_DOUBLE_EQ(a.distribution("d")->sum(), 6.0);
}

/** Serialize a registry for deep comparison. */
std::string
snapshot(const CounterRegistry& reg)
{
    std::ostringstream os;
    writeMetricsJson(os, reg);
    return os.str();
}

TEST(CounterRegistry, MergeIsOrderIndependent)
{
    auto mk = [](std::uint64_t n, double s) {
        CounterRegistry r;
        r.add("c", n);
        r.add("only" + std::to_string(n), 1);
        r.sample("d", s);
        return r;
    };
    CounterRegistry r1 = mk(1, 3.0);
    CounterRegistry r2 = mk(2, 1.0);
    CounterRegistry r3 = mk(3, 2.0);

    CounterRegistry fwd;
    fwd.merge(r1);
    fwd.merge(r2);
    fwd.merge(r3);
    CounterRegistry rev;
    rev.merge(r3);
    rev.merge(r1);
    rev.merge(r2);
    EXPECT_EQ(snapshot(fwd), snapshot(rev));
    EXPECT_EQ(fwd.value("c"), 6u);
}

TEST(ServeSweepObs, CounterMergeDeterministicAcrossWorkerCounts)
{
    ServeSpec spec = demoServeSpec(64);
    spec.requests = 8;
    spec.rates = {0.5, 2.0};
    spec.designs = {"baseuvm", "g10"};

    ServeObsRequest obs;
    obs.collectCounters = true;

    ExperimentEngine one(1);
    ServeSweepResult a = ServeSweep(spec).run(one, obs);
    ExperimentEngine four(4);
    ServeSweepResult b = ServeSweep(spec).run(four, obs);

    EXPECT_FALSE(a.counters.empty());
    EXPECT_EQ(snapshot(a.counters), snapshot(b.counters));

    // Serving lifecycle counters agree with the cell metrics.
    std::uint64_t admitted = 0;
    for (const ServeCellResult& c : a.cells)
        admitted += c.metrics.admitted;
    EXPECT_EQ(a.counters.value("serve.admitted"), admitted);
}

}  // namespace
}  // namespace g10
