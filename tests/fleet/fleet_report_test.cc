/** @file Fleet report tests: the g10.fleet_result.v1 document parses
 *  with the in-repo JSON parser and carries the spec echo, baselines,
 *  and per-placement fleet/node sections; table and CSV render. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/report.h"
#include "fleet/fleet_sim.h"
#include "tests/json_value.h"

namespace g10 {
namespace {

/** One shared demo run for every assertion in this file. */
const FleetResult&
demoResult()
{
    static const FleetResult res = [] {
        ExperimentEngine engine(4);
        return FleetSim(demoFleetSpec(64)).run(engine);
    }();
    return res;
}

TEST(FleetReport, JsonDocumentParsesAndCarriesTheSchema)
{
    std::ostringstream os;
    writeFleetResultJson(os, demoResult());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str, "g10.fleet_result.v1");

    // Spec echo: the node list with resolved slots/seeds/systems.
    const JsonValue& spec = doc.at("spec");
    EXPECT_EQ(spec.at("design").str, "g10");
    EXPECT_DOUBLE_EQ(spec.at("rate_per_s").number, 3.0);
    const JsonValue& nodes = spec.at("nodes");
    ASSERT_TRUE(nodes.isArray());
    ASSERT_EQ(nodes.items.size(), 4u);
    EXPECT_EQ(nodes.items[0].at("name").str, "big0");
    EXPECT_DOUBLE_EQ(nodes.items[0].at("slots").number, 2.0);
    EXPECT_DOUBLE_EQ(
        nodes.items[3].at("slots").number, 1.0);
    EXPECT_EQ(nodes.items[3].at("families").items.size(), 1u);
    EXPECT_GT(nodes.items[0].at("system").at("gpu_mem_bytes").number,
              nodes.items[3].at("system").at("gpu_mem_bytes").number);

    ASSERT_TRUE(spec.at("placements").isArray());
    EXPECT_EQ(spec.at("placements").items.size(), 3u);
}

TEST(FleetReport, JsonCarriesBaselinesAndPlacements)
{
    std::ostringstream os;
    writeFleetResultJson(os, demoResult());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;

    // Baselines: one entry per node, one latency per class.
    const JsonValue& baselines = doc.at("baselines");
    ASSERT_TRUE(baselines.isArray());
    ASSERT_EQ(baselines.items.size(), 4u);
    const JsonValue& b0 = baselines.items[0];
    EXPECT_EQ(b0.at("node").str, "big0");
    const JsonValue& lat = b0.at("unloaded_latency_ms");
    ASSERT_EQ(lat.members.size(), 3u);
    for (const auto& [cls, ms] : lat.members) {
        ASSERT_TRUE(ms.isNumber()) << cls;
        EXPECT_GT(ms.number, 0.0) << cls;
    }

    // Placements: fleet aggregates + per-node serving cells.
    const JsonValue& placements = doc.at("placements");
    ASSERT_TRUE(placements.isArray());
    ASSERT_EQ(placements.items.size(), 3u);
    EXPECT_EQ(placements.items[0].at("placement").str, "jsq");
    EXPECT_EQ(placements.items[2].at("placement").str, "affinity");
    for (const JsonValue& p : placements.items) {
        const JsonValue& fleet = p.at("fleet");
        EXPECT_DOUBLE_EQ(fleet.at("offered").number, 24.0);
        EXPECT_GT(fleet.at("throughput_rps").number, 0.0);
        const JsonValue& util = fleet.at("utilization");
        EXPECT_GE(util.at("max").number, util.at("min").number);
        EXPECT_GT(util.at("jain").number, 0.0);
        EXPECT_LE(util.at("jain").number, 1.0);

        const JsonValue& nodes = p.at("nodes");
        ASSERT_TRUE(nodes.isArray());
        ASSERT_EQ(nodes.items.size(), 4u);
        double offered = 0.0;
        for (const JsonValue& n : nodes.items) {
            offered += n.at("offered").number;
            // Each node embeds a full serving cell document.
            EXPECT_EQ(n.at("cell").at("design").str, "g10");
            EXPECT_TRUE(n.at("cell").at("slo_attainment").isNumber());
        }
        EXPECT_DOUBLE_EQ(offered, 24.0);
    }
}

TEST(FleetReport, TableAndCsvRenderEveryPlacement)
{
    std::ostringstream table;
    EXPECT_EQ(printFleetResult(table, demoResult(),
                               ReportFormat::Table),
              0);
    EXPECT_NE(table.str().find("fleet summary"), std::string::npos);
    EXPECT_NE(table.str().find("per-node cells"), std::string::npos);
    for (const char* name : {"jsq", "planaware", "affinity"})
        EXPECT_NE(table.str().find(name), std::string::npos) << name;
    for (const char* node : {"big0", "big1", "mid0", "small0"})
        EXPECT_NE(table.str().find(node), std::string::npos) << node;

    std::ostringstream csv;
    EXPECT_EQ(
        printFleetResult(csv, demoResult(), ReportFormat::Csv), 0);
    EXPECT_NE(csv.str().find("placement,offered"), std::string::npos);
    EXPECT_NE(csv.str().find("affinity,"), std::string::npos);
}

}  // namespace
}  // namespace g10
