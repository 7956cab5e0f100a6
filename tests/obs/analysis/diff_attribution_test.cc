/** @file Differential attribution tests: kernel-by-kernel alignment
 *  with zero-fill for mismatched row counts, the inherited exactness
 *  of the decomposition (delta == Δideal + ΣΔcause + Δnoise in
 *  integer ns), the trace-only attribution builder agreeing with the
 *  KernelTrace-aware one, and the CI-gated reconciliation line. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/g10.h"
#include "api/report.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/tracer.h"
#include "tests/json_value.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

StallAttributionRow
row(KernelId k, const char* name, TimeNs ideal, TimeNs actual,
    StallCause cause, TimeNs stall)
{
    StallAttributionRow r;
    r.kernel = k;
    r.name = name;
    r.idealNs = ideal;
    r.actualNs = actual;
    r.causeNs[static_cast<int>(cause)] = stall;
    return r;
}

/** Rebuild the whole-run totals from the rows (keeps the fixtures
 *  honest: the invariant holds by construction, as in real runs). */
StallAttribution
attributionOf(std::vector<StallAttributionRow> rows)
{
    StallAttribution a;
    a.rows = std::move(rows);
    for (const StallAttributionRow& r : a.rows) {
        a.idealNs += r.idealNs;
        a.measuredNs += r.actualNs;
        for (int c = 0; c < kNumStallCauses; ++c)
            a.causeNs[c] += r.causeNs[c];
        a.noiseNs += r.noiseNs();
    }
    return a;
}

TEST(DiffAttribution, AlignsRunsWithDifferentKernelCounts)
{
    // Base: two kernels, stalls on alloc and data.
    StallAttribution base = attributionOf(
        {row(0, "conv1", 100, 150, StallCause::Alloc, 50),
         row(1, "conv2", 200, 260, StallCause::Data, 60)});
    // Test: three kernels (an extra fused epilogue), lighter stalls.
    StallAttribution test = attributionOf(
        {row(0, "conv1", 100, 120, StallCause::Fault, 20),
         row(1, "conv2", 200, 210, StallCause::Data, 10),
         row(2, "epilogue", 50, 50, StallCause::Alloc, 0)});

    DiffAttribution d =
        diffStallAttribution(base, test, "baseuvm", "g10");

    EXPECT_EQ(d.baseLabel, "baseuvm");
    EXPECT_EQ(d.testLabel, "g10");
    ASSERT_EQ(d.rows.size(), 3u);  // max of the two row counts

    EXPECT_EQ(d.deltaNs(), 410 - 380);
    EXPECT_EQ(d.idealDeltaNs, 300 - 350);
    EXPECT_EQ(d.causeDeltaNs[0], 50);    // alloc: 50 - 0
    EXPECT_EQ(d.causeDeltaNs[1], -20);   // fault: 0 - 20
    EXPECT_EQ(d.causeDeltaNs[3], 50);    // data: 60 - 10
    EXPECT_EQ(d.noiseDeltaNs, 0);
    EXPECT_TRUE(d.exact());

    // The row the base run lacks counts as zero on the base side.
    const DiffAttributionRow& extra = d.rows[2];
    EXPECT_EQ(extra.kernel, 2);
    EXPECT_EQ(extra.name, "epilogue");
    EXPECT_EQ(extra.baseActualNs, 0);
    EXPECT_EQ(extra.testActualNs, 50);
    EXPECT_EQ(extra.idealDeltaNs, -50);

    // Per-row deltas sum to the whole-run totals.
    TimeNs rowDelta = 0;
    for (const DiffAttributionRow& r : d.rows)
        rowDelta += r.deltaNs();
    EXPECT_EQ(rowDelta, d.deltaNs());
}

TEST(DiffAttribution, PrintedReconciliationLineIsExact)
{
    StallAttribution base = attributionOf(
        {row(0, "conv1", 100, 180, StallCause::Alloc, 80)});
    StallAttribution test = attributionOf(
        {row(0, "conv1", 100, 110, StallCause::Alloc, 10)});
    DiffAttribution d = diffStallAttribution(base, test, "a", "b");

    std::ostringstream os;
    printDiffAttribution(os, d);
    const std::string text = os.str();
    EXPECT_NE(text.find("diff check:"), std::string::npos) << text;
    EXPECT_NE(text.find("(exact)"), std::string::npos) << text;
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos) << text;
}

struct TracedRun
{
    KernelTrace trace;
    MemoryTraceSink sink;
    ExecStats stats;
};

void
runTraced(TracedRun* out, const std::string& design)
{
    out->trace =
        test::makeFwdBwdTrace(16, 8 * MiB, 200 * USEC, 4 * MiB);
    ExperimentConfig cfg;
    cfg.sys = test::tinySystem();
    cfg.scaleDown = 1;
    cfg.design = design;

    Tracer tracer(&out->sink, nullptr);
    out->stats = runExperimentOnTrace(out->trace, cfg, &tracer);
    ASSERT_FALSE(out->stats.failed) << design;
}

TEST(DiffAttribution, BuilderNamesEveryKernelFromItsSpans)
{
    TracedRun run;
    runTraced(&run, "g10");

    // The builder sees only events (g10trace has no KernelTrace), yet
    // its rows are the trace's kernels, in order, by name.
    StallAttribution a = buildStallAttribution(run.sink.events());
    EXPECT_EQ(a.measuredNs, run.stats.measuredIterationNs);
    EXPECT_EQ(a.idealNs, run.stats.idealIterationNs);
    ASSERT_EQ(a.rows.size(), run.trace.numKernels());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].kernel, static_cast<KernelId>(i));
        EXPECT_EQ(a.rows[i].name,
                  run.trace.kernel(static_cast<KernelId>(i)).name)
            << i;
        EXPECT_EQ(a.rows[i].actualNs, run.stats.kernels[i].actualNs)
            << i;
    }
}

TEST(DiffAttribution, RealBaseuvmVsG10DecomposesExactly)
{
    TracedRun base, test;
    runTraced(&base, "baseuvm");
    runTraced(&test, "g10");

    DiffAttribution d = diffStallAttribution(
        buildStallAttribution(base.sink.events()),
        buildStallAttribution(test.sink.events()),
        "baseuvm", "g10");

    EXPECT_TRUE(d.exact());
    EXPECT_EQ(d.baseMeasuredNs, base.stats.measuredIterationNs);
    EXPECT_EQ(d.testMeasuredNs, test.stats.measuredIterationNs);
    // Same trace, so the ideal time cancels out of the delta.
    EXPECT_EQ(d.idealDeltaNs, 0);

    std::ostringstream js;
    writeDiffAttributionJson(js, d);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(js.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.trace_analysis.v1");
    EXPECT_EQ(doc.at("analysis").str, "diff");
    EXPECT_EQ(doc.at("base").str, "baseuvm");
    EXPECT_TRUE(doc.at("exact").boolean);
    EXPECT_DOUBLE_EQ(doc.at("delta_ns").number,
                     static_cast<double>(d.deltaNs()));
}

}  // namespace
}  // namespace g10
