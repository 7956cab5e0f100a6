/** @file Validates the g10.serve_result.v1 document with the JSON
 *  parser (the same check CI's smoke step relies on). */

#include <gtest/gtest.h>

#include <sstream>

#include "api/report.h"
#include "serve/serve_sim.h"
#include "tests/json_value.h"

namespace g10 {
namespace {

ServeSweepResult
smallSweep()
{
    ServeSpec spec = demoServeSpec(64);
    spec.requests = 8;
    spec.rates = {0.5, 50.0};
    spec.designs = {"baseuvm", "g10"};
    ServeSweep sweep(spec);
    ExperimentEngine engine(2);
    return sweep.run(engine);
}

TEST(ServeReport, JsonDocumentParsesAndCarriesTheSchema)
{
    ServeSweepResult res = smallSweep();
    std::ostringstream os;
    writeServeResultJson(os, res);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.serve_result.v1");

    // Spec echo.
    const JsonValue& spec = doc.at("spec");
    EXPECT_EQ(spec.at("scale_down").number, 64.0);
    EXPECT_EQ(spec.at("designs").items.size(), 2u);
    EXPECT_EQ(spec.at("rates").items.size(), 2u);
    EXPECT_EQ(spec.at("admission").str, "fifo");
    EXPECT_EQ(spec.at("arrival").str, "poisson");

    // One cell per (design, rate), design-major.
    const JsonValue& cells = doc.at("cells");
    ASSERT_TRUE(cells.isArray());
    ASSERT_EQ(cells.items.size(), 4u);
    EXPECT_EQ(cells.items[0].at("design").str, "baseuvm");
    EXPECT_EQ(cells.items[3].at("design").str, "g10");
    for (const JsonValue& cell : cells.items) {
        EXPECT_TRUE(cell.at("latency_ms").isObject());
        EXPECT_TRUE(cell.at("queue_delay_ms").isObject());
        EXPECT_TRUE(cell.at("latency_ms").at("p99").isNumber());
        EXPECT_TRUE(cell.at("slo_attainment").isNumber());
        EXPECT_TRUE(cell.at("ssd").at("waf").isNumber());
        double offered = cell.at("offered").number;
        double accounted = cell.at("completed").number +
                           cell.at("failed").number +
                           cell.at("rejected").number;
        EXPECT_EQ(offered, accounted);
    }

    // Capacity summary: one entry per design.
    const JsonValue& cap = doc.at("capacity");
    ASSERT_TRUE(cap.isArray());
    ASSERT_EQ(cap.items.size(), 2u);
    EXPECT_EQ(cap.items[1].at("design").str, "g10");
    EXPECT_TRUE(cap.items[1].at("sustained_rate_per_s").isNumber());

    // Baselines: unloaded latency per (design, class).
    const JsonValue& base = doc.at("baselines");
    ASSERT_EQ(base.items.size(), 2u);
    EXPECT_EQ(base.items[0]
                  .at("unloaded_latency_ms")
                  .members.size(),
              res.classNames.size());
}

TEST(ServeReport, TableAndCsvFormatsPrint)
{
    ServeSweepResult res = smallSweep();
    std::ostringstream table, csv;
    EXPECT_EQ(printServeResult(table, res, ReportFormat::Table), 0);
    EXPECT_EQ(printServeResult(csv, res, ReportFormat::Csv), 0);
    EXPECT_NE(table.str().find("served load"), std::string::npos);
    EXPECT_NE(table.str().find("sustained-throughput"),
              std::string::npos);
    EXPECT_NE(csv.str().find("design"), std::string::npos);
}

}  // namespace
}  // namespace g10
