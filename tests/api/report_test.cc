/** @file Tests for the structured report layer: RunResult/MixResult
 *  JSON serialization round-trips through the validating parser and
 *  carries the measured fields the acceptance tooling reads. */

#include <gtest/gtest.h>

#include <sstream>

#include "api/report.h"
#include "tests/json_value.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** One small but real ResNet run shared by the JSON tests. */
const RunResult&
smallResNetRun()
{
    static const RunResult r = [] {
        ExperimentConfig cfg;
        cfg.model = ModelKind::ResNet152;
        cfg.batchSize = 256;
        cfg.scaleDown = 64;
        cfg.design = "g10";
        cfg.seed = 11;
        return runExperimentResult(cfg);
    }();
    return r;
}

TEST(ReportFormat, NamesRoundTrip)
{
    EXPECT_EQ(reportFormatFromName("json"), ReportFormat::Json);
    EXPECT_EQ(reportFormatFromName("TABLE"), ReportFormat::Table);
    EXPECT_EQ(reportFormatFromName("Csv"), ReportFormat::Csv);
}

TEST(ReportFormatDeathTest, UnknownFormatListsValidNames)
{
    EXPECT_EXIT(reportFormatFromName("xml"),
                ::testing::ExitedWithCode(1),
                "unknown format 'xml' \\(valid: table, json, csv\\)");
}

TEST(Report, RunResultJsonRoundTrip)
{
    const RunResult& r = smallResNetRun();
    ASSERT_FALSE(r.stats.failed);

    std::ostringstream os;
    writeRunResultJson(os, r);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err))
        << err << "\n" << os.str();

    EXPECT_EQ(doc.at("schema").str, "g10.run_result.v1");
    EXPECT_EQ(doc.at("design").str, "G10");

    // Config echo.
    const JsonValue& cfg = doc.at("config");
    EXPECT_EQ(cfg.at("model").str, "ResNet152");
    EXPECT_DOUBLE_EQ(cfg.at("batch").number, 256.0);
    EXPECT_DOUBLE_EQ(cfg.at("scale_down").number, 64.0);
    EXPECT_EQ(cfg.at("design").str, "g10");
    EXPECT_DOUBLE_EQ(cfg.at("seed").number, 11.0);
    EXPECT_EQ(cfg.at("uvm_extension").str, "auto");

    // Measured result: the fields downstream tooling depends on.
    const JsonValue& res = doc.at("result");
    EXPECT_EQ(res.at("status").str, "ok");
    EXPECT_NEAR(res.at("iteration_time_s").number,
                static_cast<double>(r.stats.measuredIterationNs) / 1e9,
                1e-9);
    EXPECT_NEAR(res.at("normalized_perf").number,
                r.stats.normalizedPerf(), 1e-9);
    EXPECT_NEAR(res.at("throughput_sps").number, r.stats.throughput(),
                1e-6);

    const JsonValue& traffic = res.at("traffic");
    EXPECT_DOUBLE_EQ(traffic.at("ssd_to_gpu_bytes").number,
                     static_cast<double>(r.stats.traffic.ssdToGpu));
    EXPECT_DOUBLE_EQ(traffic.at("gpu_to_ssd_bytes").number,
                     static_cast<double>(r.stats.traffic.gpuToSsd));
    EXPECT_DOUBLE_EQ(traffic.at("host_to_gpu_bytes").number,
                     static_cast<double>(r.stats.traffic.hostToGpu));

    const JsonValue& ssd = res.at("ssd");
    EXPECT_DOUBLE_EQ(ssd.at("nand_write_bytes").number,
                     static_cast<double>(r.stats.ssd.nandWriteBytes));
    EXPECT_NEAR(ssd.at("waf").number, r.stats.ssd.waf(), 1e-9);
}

TEST(Report, RunResultTableAndCsvCarryTheSameVerdict)
{
    const RunResult& r = smallResNetRun();

    std::ostringstream table, csv;
    EXPECT_EQ(printRunResult(table, r, ReportFormat::Table), 0);
    EXPECT_EQ(printRunResult(csv, r, ReportFormat::Csv), 0);
    EXPECT_NE(table.str().find("normalized_perf"), std::string::npos);
    EXPECT_NE(csv.str().find("normalized_perf"), std::string::npos);
    EXPECT_NE(csv.str().find("key,value"), std::string::npos);
}

TEST(Report, FailedRunSerializesReasonAndExitCode)
{
    RunResult r;
    r.designName = "FlashNeuron";
    r.config.design = "flashneuron";
    r.stats.policyName = "FlashNeuron";
    r.stats.modelName = "ResNet152";
    r.stats.failed = true;
    r.stats.failReason = "working set exceeds GPU memory";

    std::ostringstream os;
    EXPECT_EQ(printRunResult(os, r, ReportFormat::Json), 2);

    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), &doc));
    EXPECT_EQ(doc.at("result").at("status").str, "failed");
    EXPECT_EQ(doc.at("result").at("fail_reason").str,
              "working set exceeds GPU memory");
}

TEST(Report, MixResultJsonRoundTrip)
{
    WorkloadMix mix;
    mix.sys = test::tinySystem();
    mix.isolatedBaseline = true;
    JobSpec a;
    a.name = "jobA";
    a.design = "baseuvm";
    a.batchSize = 1;
    JobSpec b;
    b.name = "jobB";
    b.design = "baseuvm";
    b.batchSize = 1;
    mix.jobs = {a, b};

    std::vector<KernelTrace> traces;
    traces.push_back(test::makeFwdBwdTrace(12, 6 * MiB, 500 * USEC));
    traces.push_back(test::makeFwdBwdTrace(12, 6 * MiB, 500 * USEC));

    MixResult res = MultiTenantSim(mix, std::move(traces)).run();

    std::ostringstream os;
    writeMixResultJson(os, res);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;

    EXPECT_EQ(doc.at("schema").str, "g10.mix_result.v1");
    ASSERT_EQ(doc.at("jobs").items.size(), 2u);
    const JsonValue& job = doc.at("jobs").items[0];
    EXPECT_EQ(job.at("name").str, "jobA");
    EXPECT_EQ(job.at("design").str, "baseuvm");
    EXPECT_EQ(job.at("status").str, "ok");
    const JsonValue& agg = doc.at("aggregate");
    EXPECT_NEAR(agg.at("makespan_s").number,
                static_cast<double>(res.makespanNs) / 1e9, 1e-9);
    EXPECT_NEAR(agg.at("fairness_jain").number, res.fairness, 1e-9);
    EXPECT_NEAR(agg.at("ssd").at("waf").number, res.ssd.waf(), 1e-9);
}

TEST(Report, DesignListPrintsEveryRegisteredDesign)
{
    std::ostringstream table, json;
    printDesignList(table, ReportFormat::Table);
    printDesignList(json, ReportFormat::Json);

    for (const char* key :
         {"ideal", "baseuvm", "deepum", "flashneuron", "g10gds",
          "g10host", "g10"})
        EXPECT_NE(table.str().find(key), std::string::npos) << key;

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.designs.v1");
    ASSERT_GE(doc.at("designs").items.size(), 7u);
    EXPECT_EQ(doc.at("designs").items[0].at("name").str, "Ideal");
    EXPECT_TRUE(doc.at("designs").items[0].at("builtin").boolean);
}

TEST(Report, MetricsDistributionsCarryTailPercentiles)
{
    CounterRegistry reg;
    reg.add("c", 3);
    for (int i = 1; i <= 1000; ++i)
        reg.sample("lat", static_cast<double>(i));

    std::ostringstream os;
    writeMetricsJson(os, reg);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.metrics.v1");
    const JsonValue& lat = doc.at("distributions").at("lat");
    EXPECT_DOUBLE_EQ(lat.at("count").number, 1000.0);
    EXPECT_DOUBLE_EQ(lat.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(lat.at("max").number, 1000.0);
    // p999 sits between p99 and max — the tail the SLO forensics read.
    EXPECT_GT(lat.at("p999").number, lat.at("p99").number);
    EXPECT_LE(lat.at("p999").number, lat.at("max").number);
}

TEST(Report, EmptyDistributionSerializesAsCountZeroOnly)
{
    // CounterRegistry never creates empty distributions (sample()
    // is the only constructor path), but writeDistributionJson is
    // public for the analysis tooling and must not fabricate zeros.
    Distribution empty;
    std::ostringstream os;
    {
        JsonWriter w(os);
        writeDistributionJson(w, empty);
    }
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    EXPECT_DOUBLE_EQ(doc.at("count").number, 0.0);
    EXPECT_EQ(doc.find("min"), nullptr);
    EXPECT_EQ(doc.find("p999"), nullptr);
}

}  // namespace
}  // namespace g10
