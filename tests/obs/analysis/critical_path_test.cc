/** @file Critical-path extractor tests: marker-free iteration
 *  segmentation, stall-to-kernel binding, longest-chain selection on
 *  hand-built streams, and agreement with ExecStats on a real traced
 *  run. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/g10.h"
#include "api/report.h"
#include "obs/analysis/critical_path.h"
#include "obs/tracer.h"
#include "tests/json_value.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** Two iterations of a three-kernel schedule. Iteration 0 stalls on
 *  kernel 0 (alloc) and kernel 2 (data) with a clean kernel between;
 *  iteration 1 stalls on kernels 0 and 1 back to back. */
MemoryTraceSink
twoIterationStream()
{
    MemoryTraceSink sink;
    Tracer t(&sink, nullptr);

    // Iteration 0.
    t.kernelSpan(0, "conv1", 0, 1000, 500, true, 500, 700);
    t.stallSpan(0, StallCause::Alloc, 0, 1500, 200, true);
    t.kernelSpan(0, "conv2", 1, 1700, 300, true, 300, 300);
    t.kernelSpan(0, "fc", 2, 2000, 100, true, 100, 150);
    t.stallSpan(0, StallCause::Data, 2, 2100, 50, true);

    // Kernel id resets: iteration 1.
    t.kernelSpan(0, "conv1", 0, 3000, 500, true, 500, 900);
    t.stallSpan(0, StallCause::Fault, 0, 3500, 400, true);
    t.kernelSpan(0, "conv2", 1, 4000, 300, true, 300, 400);
    t.stallSpan(0, StallCause::ComputeQueue, 1, 4300, 100, true);
    t.kernelSpan(0, "fc", 2, 4400, 100, true, 100, 100);

    // Another job's kernel must not leak into pid 0's path.
    t.kernelSpan(7, "other", 0, 1000, 9999, true, 9999, 9999);
    return sink;
}

TEST(CriticalPath, SegmentsIterationsOnKernelIdReset)
{
    CriticalPathReport r =
        extractCriticalPath(twoIterationStream().events(), 0);

    ASSERT_EQ(r.iterations.size(), 2u);
    const IterationPath& i0 = r.iterations[0];
    EXPECT_EQ(i0.index, 0);
    EXPECT_EQ(i0.kernels, 3);
    EXPECT_EQ(i0.beginNs, 1000);
    EXPECT_EQ(i0.endNs, 2150);  // trailing stall extends the span
    EXPECT_EQ(i0.computeNs, 900);
    EXPECT_EQ(i0.causeNs[0], 200);  // alloc
    EXPECT_EQ(i0.causeNs[3], 50);   // data
    EXPECT_EQ(i0.stallNs(), 250);

    const IterationPath& i1 = r.iterations[1];
    EXPECT_EQ(i1.kernels, 3);
    EXPECT_EQ(i1.causeNs[1], 400);  // fault
    EXPECT_EQ(i1.causeNs[2], 100);  // compute queue
    EXPECT_EQ(i1.stallNs(), 500);
}

TEST(CriticalPath, LongestChainIsTheConsecutiveStalledRun)
{
    CriticalPathReport r =
        extractCriticalPath(twoIterationStream().events(), 0);
    ASSERT_EQ(r.iterations.size(), 2u);

    // Iteration 0: the clean conv2 breaks the run, so the chain is
    // the single heaviest stalled kernel.
    const StallChain& c0 = r.iterations[0].chain;
    ASSERT_EQ(c0.steps.size(), 1u);
    EXPECT_EQ(c0.steps[0].name, "conv1");
    EXPECT_EQ(c0.totalNs(), 200);

    // Iteration 1: kernels 0 and 1 stall back to back.
    const StallChain& c1 = r.iterations[1].chain;
    ASSERT_EQ(c1.steps.size(), 2u);
    EXPECT_EQ(c1.steps[0].name, "conv1");
    EXPECT_EQ(c1.steps[1].name, "conv2");
    EXPECT_EQ(c1.totalNs(), 500);

    EXPECT_EQ(r.worstIteration(), 1);
}

TEST(CriticalPath, EmptyStreamHasNoIterations)
{
    std::vector<TraceEvent> none;
    CriticalPathReport r = extractCriticalPath(none, 0);
    EXPECT_TRUE(r.iterations.empty());
    EXPECT_EQ(r.worstIteration(), -1);

    std::ostringstream os;
    printCriticalPath(os, r);
    EXPECT_NE(os.str().find("no kernel spans"), std::string::npos);
}

TEST(CriticalPath, RealRunStallsMatchExecStats)
{
    KernelTrace trace =
        test::makeFwdBwdTrace(16, 8 * MiB, 200 * USEC, 4 * MiB);
    ExperimentConfig cfg;
    cfg.sys = test::tinySystem();
    cfg.scaleDown = 1;
    cfg.design = "g10";

    MemoryTraceSink sink;
    Tracer tracer(&sink, nullptr);
    ExecStats st = runExperimentOnTrace(trace, cfg, &tracer);
    ASSERT_FALSE(st.failed);

    CriticalPathReport r = extractCriticalPath(sink.events(), 0);
    ASSERT_FALSE(r.iterations.empty());

    // The measured iteration is the last one in the stream; its stall
    // decomposition must agree with the runtime's own accounting.
    const IterationPath& last = r.iterations.back();
    EXPECT_EQ(last.stallNs(), st.totalStallNs);
    EXPECT_GT(last.computeNs, 0);
    EXPECT_GE(last.spanNs(), last.computeNs);
    EXPECT_GT(last.chain.steps.size(), 0u);
    EXPECT_LE(last.chain.totalNs(), last.stallNs());

    std::ostringstream table;
    printCriticalPath(table, r);
    EXPECT_NE(table.str().find("worst iteration"), std::string::npos);

    std::ostringstream js;
    writeCriticalPathJson(js, r);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(js.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.trace_analysis.v1");
    EXPECT_EQ(doc.at("analysis").str, "critical_path");
    EXPECT_EQ(doc.at("iterations").items.size(), r.iterations.size());
    EXPECT_DOUBLE_EQ(doc.at("worst_iteration").number,
                     static_cast<double>(r.worstIteration()));
}

}  // namespace
}  // namespace g10
