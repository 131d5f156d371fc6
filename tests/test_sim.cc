/**
 * @file
 * Tests for the simulation kernel: statistics and SimObject naming.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace ovl
{
namespace
{

TEST(Stats, CounterAccumulates)
{
    stats::Group group("g");
    stats::Counter c(&group, "c", "a counter");
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GaugeMovesBothWays)
{
    stats::Group group("g");
    stats::Gauge g(&group, "g", "a gauge");
    g += 5;
    g -= 2;
    EXPECT_EQ(g.value(), 3);
    g.set(-7);
    EXPECT_EQ(g.value(), -7);
}

TEST(Stats, HistogramMoments)
{
    stats::Group group("g");
    stats::Histogram h(&group, "h", "hist", 10, 10);
    h.sample(5);
    h.sample(15);
    h.sample(1000); // overflow bucket
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.minValue(), 5u);
    EXPECT_EQ(h.maxValue(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), (5.0 + 15.0 + 1000.0) / 3.0);
}

TEST(Stats, GroupDumpContainsNamesAndValues)
{
    stats::Group group("sys.cache");
    stats::Counter c(&group, "hits", "cache hits");
    c += 42;
    std::ostringstream os;
    group.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("cache hits"), std::string::npos);
}

TEST(Stats, GroupResetClearsEverything)
{
    stats::Group group("g");
    stats::Counter c(&group, "c", "");
    stats::Histogram h(&group, "h", "", 1, 4);
    c += 3;
    h.sample(2);
    group.resetStats();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(SimObject, NamePropagatesToStats)
{
    struct Obj : SimObject
    {
        explicit Obj(std::string n) : SimObject(std::move(n)) {}
    };
    Obj obj("system.widget");
    EXPECT_EQ(obj.name(), "system.widget");
    EXPECT_EQ(obj.statGroup().name(), "system.widget");
}

} // namespace
} // namespace ovl
