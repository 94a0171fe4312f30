/**
 * @file
 * Unit tests for the stat registry and the table printer.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/table.hh"

namespace nvmr
{
namespace
{

TEST(Stats, ScalarArithmetic)
{
    Scalar s("n", "a counter");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, GroupLookup)
{
    Scalar a("a", ""), b("b", "");
    StatGroup g;
    g.add(&a);
    g.add(&b);
    a += 7;
    EXPECT_EQ(g.find("a"), &a);
    EXPECT_EQ(g.find("zzz"), nullptr);
    EXPECT_DOUBLE_EQ(g.get("a"), 7.0);
    EXPECT_DOUBLE_EQ(g.get("zzz"), 0.0);
}

TEST(Stats, HasReportsExistenceAcrossKinds)
{
    Scalar a("a", "");
    Histogram h("h", "");
    StatGroup g;
    g.add(&a);
    g.add(&h);
    EXPECT_TRUE(g.has("a"));
    EXPECT_TRUE(g.has("h"));
    EXPECT_FALSE(g.has("zzz"));
    EXPECT_EQ(g.findHistogram("h"), &h);
    // Kind-checked lookups reject the wrong shape.
    EXPECT_EQ(g.find("h"), nullptr);
    EXPECT_EQ(g.findHistogram("a"), nullptr);
    EXPECT_EQ(g.findStat("h"), &h);
}

TEST(StatsDeathTest, ValuePanicsOnMissingStat)
{
    Scalar a("a", "");
    StatGroup g;
    g.add(&a);
    EXPECT_DOUBLE_EQ(g.value("a"), 0.0);
    EXPECT_DEATH(g.value("renamed_counter"), "renamed_counter");
}

TEST(Stats, GroupResetAll)
{
    Scalar a("a", ""), b("b", "");
    StatGroup g;
    g.add(&a);
    g.add(&b);
    a += 1;
    b += 2;
    g.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, PreservesRegistrationOrder)
{
    Scalar a("a", ""), b("b", ""), c("c", "");
    StatGroup g;
    g.add(&b);
    g.add(&a);
    g.add(&c);
    ASSERT_EQ(g.all().size(), 3u);
    EXPECT_EQ(g.all()[0], &b);
    EXPECT_EQ(g.all()[1], &a);
}

TEST(Table, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_NE(out.find("|--------|-------|"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::num(-1.5, 1), "-1.5");
}

TEST(Table, ShortRowsPadWithEmptyCells)
{
    TablePrinter t({"a", "b", "c"});
    t.addRow({"1"});
    std::string out = t.render();
    EXPECT_NE(out.find("| 1 |   |   |"), std::string::npos);
}

} // namespace
} // namespace nvmr
