/** @file Tests for per-kernel stall attribution: every row's causes +
 *  noise equal its actual − ideal slip, the totals reconcile exactly
 *  with ExecStats, and the printed table carries the invariant check
 *  line the CI smoke greps for. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/g10.h"
#include "obs/attribution.h"
#include "obs/tracer.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

struct TracedRun
{
    KernelTrace trace;
    MemoryTraceSink sink;
    ExecStats stats;
};

/** One memory-pressured g10 run with events collected. */
void
runTraced(TracedRun* out, double timingError = 0.0)
{
    out->trace = test::makeFwdBwdTrace(16, 8 * MiB, 200 * USEC, 4 * MiB);
    ExperimentConfig cfg;
    cfg.model = ModelKind::ResNet152;  // echo only; the trace rules
    cfg.batchSize = 1;
    cfg.sys = test::tinySystem();
    cfg.scaleDown = 1;
    cfg.design = "g10";
    cfg.timingErrorPct = timingError;

    Tracer tracer(&out->sink, nullptr);
    out->stats = runExperimentOnTrace(out->trace, cfg, &tracer);
    ASSERT_FALSE(out->stats.failed);
}

TEST(Attribution, RowsDecomposeExactly)
{
    TracedRun run;
    runTraced(&run);
    StallAttribution a =
        buildStallAttribution(run.sink.events());

    ASSERT_FALSE(a.rows.empty());
    for (const StallAttributionRow& row : a.rows) {
        for (TimeNs c : row.causeNs)
            EXPECT_GE(c, 0) << row.name;
        // Exact per-kernel invariant: causes + noise == actual − ideal.
        EXPECT_EQ(row.attributedNs() + row.noiseNs(),
                  row.actualNs - row.idealNs)
            << row.name;
        // No timing noise was configured, so noise must be zero.
        EXPECT_EQ(row.noiseNs(), 0) << row.name;
    }
}

TEST(Attribution, TotalsMatchExecStats)
{
    TracedRun run;
    runTraced(&run);
    StallAttribution a =
        buildStallAttribution(run.sink.events());

    EXPECT_EQ(a.rows.size(), run.stats.kernels.size());
    EXPECT_EQ(a.measuredNs, run.stats.measuredIterationNs);
    EXPECT_EQ(a.idealNs, run.stats.idealIterationNs);
    EXPECT_EQ(a.attributedNs() + a.noiseNs, a.measuredNs - a.idealNs);
    // timing_error = 0: the attributed causes are exactly the stall
    // total the runtime measured.
    EXPECT_EQ(a.noiseNs, 0);
    EXPECT_EQ(a.attributedNs(), run.stats.totalStallNs);
}

TEST(Attribution, TimingNoiseLandsInNoiseColumn)
{
    TracedRun run;
    runTraced(&run, 0.2);
    StallAttribution a =
        buildStallAttribution(run.sink.events());

    // The decomposition still sums exactly; the perturbed-duration
    // residual is carried by the noise column, not smeared into the
    // named causes.
    EXPECT_EQ(a.attributedNs() + a.noiseNs, a.measuredNs - a.idealNs);
    EXPECT_NE(a.noiseNs, 0);
}

TEST(Attribution, PrintedTableCarriesInvariantCheck)
{
    TracedRun run;
    runTraced(&run);
    StallAttribution a =
        buildStallAttribution(run.sink.events());

    std::ostringstream os;
    printStallAttribution(os, a);
    const std::string text = os.str();
    EXPECT_NE(text.find("stall attribution"), std::string::npos);
    EXPECT_NE(text.find("attribution check:"), std::string::npos);
    EXPECT_NE(text.find("exact"), std::string::npos) << text;
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos) << text;
}

}  // namespace
}  // namespace g10
