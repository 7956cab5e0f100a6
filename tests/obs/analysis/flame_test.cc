/** @file Flame aggregation tests: kernel names collapse into
 *  ';'-joined stacks with the stall cause as leaf frame, unmeasured
 *  and zero-length stalls are excluded, stacks sort lexicographically
 *  regardless of event order, and a real traced run's total matches
 *  ExecStats. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/g10.h"
#include "api/report.h"
#include "obs/analysis/flame.h"
#include "obs/tracer.h"
#include "tests/json_value.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

TEST(Flame, CollapsesKernelNamesWithCauseLeaf)
{
    MemoryTraceSink sink;
    Tracer t(&sink, nullptr);
    t.kernelSpan(0, "layer1_0_c_conv", 0, 1000, 500, true, 500, 700);
    t.stallSpan(0, StallCause::Alloc, 0, 1500, 100, true);
    t.kernelSpan(0, "loss_fwd", 1, 1700, 200, true, 200, 230);
    t.stallSpan(0, StallCause::Data, 1, 1900, 30, true);
    // Same kernel stalls again next iteration: one stack accumulates.
    t.kernelSpan(0, "layer1_0_c_conv", 0, 3000, 500, true, 500, 650);
    t.stallSpan(0, StallCause::Alloc, 0, 3500, 50, true);
    // A stall for a kernel id with no span lands under "(unknown)".
    t.stallSpan(0, StallCause::Fault, 99, 4000, 7, true);

    FlameAggregation f = aggregateFlame(sink.events(), 0);
    ASSERT_EQ(f.stacks.size(), 3u);
    // Lexicographic: '(' sorts before letters.
    EXPECT_EQ(f.stacks[0].frames, "(unknown);fault");
    EXPECT_EQ(f.stacks[0].stallNs, 7u);
    EXPECT_EQ(f.stacks[1].frames, "layer1;0;c;conv;alloc");
    EXPECT_EQ(f.stacks[1].stallNs, 150u);
    EXPECT_EQ(f.stacks[2].frames, "loss;fwd;data");
    EXPECT_EQ(f.stacks[2].stallNs, 30u);
    EXPECT_EQ(f.totalStallNs, 187u);
}

TEST(Flame, ExcludesUnmeasuredAndEmptyStallsAndOtherPids)
{
    MemoryTraceSink sink;
    Tracer t(&sink, nullptr);
    t.kernelSpan(0, "conv", 0, 1000, 500, true, 500, 500);
    t.stallSpan(0, StallCause::Alloc, 0, 1500, 100, false);  // warmup
    t.stallSpan(0, StallCause::Alloc, 0, 1600, 0, true);     // empty
    t.stallSpan(3, StallCause::Alloc, 0, 1700, 100, true);   // other job

    FlameAggregation f = aggregateFlame(sink.events(), 0);
    EXPECT_TRUE(f.stacks.empty());
    EXPECT_EQ(f.totalStallNs, 0u);

    std::ostringstream os;
    writeCollapsedStacks(os, f);
    EXPECT_TRUE(os.str().empty());
}

TEST(Flame, CollapsedStackFileIsOneLinePerStack)
{
    FlameAggregation f;
    f.stacks = {{"a;b;alloc", 10}, {"a;c;data", 20}};
    f.totalStallNs = 30;

    std::ostringstream os;
    writeCollapsedStacks(os, f);
    EXPECT_EQ(os.str(), "a;b;alloc 10\na;c;data 20\n");
}

TEST(Flame, RealRunTotalMatchesExecStats)
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

    FlameAggregation f = aggregateFlame(sink.events(), 0);
    ASSERT_FALSE(f.stacks.empty());
    // Measured stalls only — exactly what ExecStats accounts.
    EXPECT_EQ(f.totalStallNs,
              static_cast<std::uint64_t>(st.totalStallNs));

    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < f.stacks.size(); ++i) {
        sum += f.stacks[i].stallNs;
        if (i > 0)
            EXPECT_LT(f.stacks[i - 1].frames, f.stacks[i].frames);
    }
    EXPECT_EQ(sum, f.totalStallNs);

    std::ostringstream js;
    writeFlameJson(js, f);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(js.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.trace_analysis.v1");
    EXPECT_EQ(doc.at("analysis").str, "flame");
    EXPECT_EQ(doc.at("stacks").items.size(), f.stacks.size());
    EXPECT_DOUBLE_EQ(doc.at("total_stall_ns").number,
                     static_cast<double>(f.totalStallNs));
}

}  // namespace
}  // namespace g10
