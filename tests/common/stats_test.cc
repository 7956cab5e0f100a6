/** @file Unit tests for Distribution / Table / Rng. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace g10 {
namespace {

TEST(Distribution, EmptyIsZeroes)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, BasicMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.add(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 10.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
}

TEST(Distribution, PercentileInterpolates)
{
    Distribution d;
    for (double v : {10.0, 20.0, 30.0, 40.0, 50.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.25), 20.0);
    // Clamped out-of-range p.
    EXPECT_DOUBLE_EQ(d.percentile(2.0), 50.0);
}

TEST(Distribution, FractionAbove)
{
    Distribution d;
    for (int i = 1; i <= 10; ++i)
        d.add(i);
    EXPECT_DOUBLE_EQ(d.fractionAbove(5.0), 0.5);
    EXPECT_DOUBLE_EQ(d.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.fractionAbove(10.0), 0.0);
}

TEST(Distribution, AddAfterSortKeepsConsistency)
{
    Distribution d;
    d.add(3.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 3.0);  // forces a sort
    d.add(1.0);
    d.add(2.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 3.0);
}

TEST(Table, PrintsAlignedRowsAndCsv)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    t.addRowOf("x", 1.5);
    t.addRowOf("longer", 2);
    std::ostringstream pretty;
    t.print(pretty);
    EXPECT_NE(pretty.str().find("demo"), std::string::npos);
    EXPECT_NE(pretty.str().find("longer"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("a,b"), std::string::npos);
    EXPECT_NE(csv.str().find("x,1.500"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableDeath, MismatchedRowWidthPanics)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "width");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, UniformIntInRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace g10
