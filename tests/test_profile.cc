/**
 * @file
 * Tests for the host-time attribution profiler (src/sim/profile.hh) and
 * the golden-stats forensics diff (src/sim/stats_diff.hh). The profiler
 * contracts under test:
 *
 *  - idle scopes are inert: no state, no tree growth, empty reports;
 *  - nesting builds per-path rollups (the same zone under different
 *    parents stays separate) and reentrant same-zone chains work;
 *  - self time never exceeds total, parents precede children (DFS);
 *  - collect(reset) opens a fresh attribution window;
 *  - a busy window attributes >= 80% of wall time to non-root zones
 *    (the acceptance gate's property, on a controlled workload);
 *  - scopes on worker threads merge into the one report;
 *  - an enabled profiler never moves simulated time or any golden stat
 *    (the never-moves-a-tick invariant; exercised for real under
 *    -DOVL_PROFILE=ON, trivially true in a default build).
 *
 * Note the tests drive prof::ScopedTimer directly rather than through
 * OVL_PROF_SCOPE: the class is always compiled, only the hot-path call
 * sites are macro-gated, so the subsystem is testable in every build.
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/profile.hh"
#include "sim/stats_diff.hh"
#include "system/config.hh"
#include "workload/forkbench.hh"

using namespace ovl;

namespace
{

/** Spin for @p ms of host wall time (the profiler measures host time,
 *  so tests need real elapsed time, not simulated ticks). */
void
spinFor(double ms)
{
    using clock = std::chrono::steady_clock;
    clock::time_point end =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
    while (clock::now() < end) {
    }
}

const prof::ZoneRow *
findRow(const prof::Report &report, const std::string &path)
{
    for (const prof::ZoneRow &row : report.rows) {
        if (row.path == path)
            return &row;
    }
    return nullptr;
}

/** The golden-figures slice: libq scaled down by 8, short epochs. */
ForkBenchParams
libqSlice()
{
    ForkBenchParams params = forkBenchByName("libq");
    params.warmupInstructions = 60'000;
    params.postForkInstructions = 300'000;
    params.footprintPages /= 8;
    params.hotPages /= 8;
    params.dirtyPages /= 8;
    return params;
}

} // namespace

TEST(Profile, ZoneNamesAreStableSlugs)
{
    EXPECT_STREQ(prof::zoneName(prof::Zone::TlbWalk), "tlb_walk");
    EXPECT_STREQ(prof::zoneName(prof::Zone::OmsAlloc), "oms_alloc");
    EXPECT_STREQ(prof::zoneName(prof::Zone::FunctionalFf),
                 "functional_ff");
    EXPECT_STREQ(prof::zoneName(prof::Zone::TlbMaint), "tlb_maint");
}

TEST(Profile, IdleScopesAreInertAndReportsEmpty)
{
    prof::collect(true); // flush any residue from earlier tests
    ASSERT_FALSE(prof::active());
    {
        prof::ScopedTimer t1(prof::Zone::Access);
        prof::ScopedTimer t2(prof::Zone::Dram);
    }
    prof::Report report = prof::collect();
    EXPECT_TRUE(report.rows.empty());
    EXPECT_EQ(report.attributedSeconds, 0.0);
    EXPECT_EQ(report.attributedFraction(), 0.0);
}

TEST(Profile, NestingBuildsPerPathRollups)
{
    prof::enable();
    for (int i = 0; i < 3; ++i) {
        prof::ScopedTimer access(prof::Zone::Access);
        {
            prof::ScopedTimer cache(prof::Zone::CacheLookup);
            prof::ScopedTimer dram(prof::Zone::Dram);
        }
        {
            prof::ScopedTimer omt(prof::Zone::OmtWalk);
            prof::ScopedTimer dram(prof::Zone::Dram);
        }
    }
    prof::disable();
    prof::Report report = prof::collect(true);

    const prof::ZoneRow *access = findRow(report, "access");
    ASSERT_NE(access, nullptr);
    EXPECT_EQ(access->count, 3u);
    EXPECT_EQ(access->depth, 1u);

    // The same zone under two different parents rolls up separately.
    const prof::ZoneRow *d1 = findRow(report, "access;cache_lookup;dram");
    const prof::ZoneRow *d2 = findRow(report, "access;omt_walk;dram");
    ASSERT_NE(d1, nullptr);
    ASSERT_NE(d2, nullptr);
    EXPECT_EQ(d1->count, 3u);
    EXPECT_EQ(d2->count, 3u);
    EXPECT_EQ(d1->depth, 3u);
    EXPECT_EQ(findRow(report, "dram"), nullptr);

    for (const prof::ZoneRow &row : report.rows) {
        EXPECT_GE(row.selfSeconds, 0.0) << row.path;
        EXPECT_GE(row.totalSeconds, row.selfSeconds) << row.path;
        EXPECT_GE(row.maxSeconds, 0.0) << row.path;
    }

    // DFS order: a parent path precedes every path it prefixes.
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        const std::string &path = report.rows[i].path;
        std::size_t cut = path.rfind(';');
        if (cut == std::string::npos)
            continue;
        std::string parent = path.substr(0, cut);
        bool seen = false;
        for (std::size_t j = 0; j < i; ++j)
            seen = seen || report.rows[j].path == parent;
        EXPECT_TRUE(seen) << "parent of " << path << " after child";
    }
}

TEST(Profile, ReentrantSameZoneChainsNest)
{
    prof::enable();
    {
        prof::ScopedTimer a(prof::Zone::Promote);
        {
            prof::ScopedTimer b(prof::Zone::Promote);
            prof::ScopedTimer c(prof::Zone::Promote);
        }
        {
            prof::ScopedTimer d(prof::Zone::Promote);
        }
    }
    prof::disable();
    prof::Report report = prof::collect(true);

    const prof::ZoneRow *top = findRow(report, "promote");
    const prof::ZoneRow *mid = findRow(report, "promote;promote");
    const prof::ZoneRow *leaf =
        findRow(report, "promote;promote;promote");
    ASSERT_NE(top, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(top->count, 1u);
    EXPECT_EQ(mid->count, 2u);
    EXPECT_EQ(leaf->count, 1u);
}

TEST(Profile, CollectWithResetStartsAFreshWindow)
{
    prof::enable();
    {
        prof::ScopedTimer t(prof::Zone::Fork);
    }
    prof::Report first = prof::collect(true);
    ASSERT_NE(findRow(first, "fork"), nullptr);

    {
        prof::ScopedTimer t(prof::Zone::Teardown);
    }
    prof::disable();
    prof::Report second = prof::collect(true);
    EXPECT_EQ(findRow(second, "fork"), nullptr);
    ASSERT_NE(findRow(second, "teardown"), nullptr);
    EXPECT_EQ(findRow(second, "teardown")->count, 1u);
}

TEST(Profile, BusyWindowAttributesMostOfWallTime)
{
    prof::enable();
    {
        prof::ScopedTimer access(prof::Zone::Access);
        spinFor(30.0);
    }
    prof::disable();
    prof::Report report = prof::collect(true);

    ASSERT_GT(report.wallSeconds, 0.0);
    ASSERT_NE(findRow(report, "access"), nullptr);
    EXPECT_GT(findRow(report, "access")->totalSeconds, 0.02);
    // The acceptance gate's property: a window dominated by scoped work
    // attributes at least 80% of wall time to non-root zones.
    EXPECT_GE(report.attributedFraction(), 0.8);
    EXPECT_LE(report.attributedFraction(), 1.2); // sane calibration
}

TEST(Profile, WorkerThreadTreesMergeIntoOneReport)
{
    prof::enable();
    {
        prof::ScopedTimer main_scope(prof::Zone::Access);
        spinFor(2.0);
    }
    std::thread worker([] {
        prof::ScopedTimer walk(prof::Zone::OmtWalk);
        prof::ScopedTimer dram(prof::Zone::Dram);
        spinFor(2.0);
    });
    worker.join();
    prof::disable();
    prof::Report report = prof::collect(true);

    EXPECT_NE(findRow(report, "access"), nullptr);
    const prof::ZoneRow *walk = findRow(report, "omt_walk");
    const prof::ZoneRow *dram = findRow(report, "omt_walk;dram");
    ASSERT_NE(walk, nullptr);
    ASSERT_NE(dram, nullptr);
    EXPECT_EQ(walk->count, 1u);
    EXPECT_EQ(dram->count, 1u);
}

TEST(Profile, JsonAndCollapsedWritersAreWellFormed)
{
    prof::enable();
    {
        prof::ScopedTimer access(prof::Zone::Access);
        prof::ScopedTimer cache(prof::Zone::CacheLookup);
        spinFor(5.0);
    }
    prof::disable();
    prof::Report report = prof::collect(true);

    std::ostringstream json;
    prof::writeJson(json, report);
    std::string text = json.str();
    EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(text.find("\"attributed_fraction\":"), std::string::npos);
    EXPECT_NE(text.find("\"zones\":"), std::string::npos);
    EXPECT_NE(text.find("\"access;cache_lookup\""), std::string::npos);
    // Balanced braces/brackets — the writer emits one JSON object.
    int depth = 0;
    for (char ch : text) {
        if (ch == '{' || ch == '[')
            ++depth;
        if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    std::ostringstream folded;
    prof::writeCollapsed(folded, report, "libq/cow");
    std::string line;
    std::istringstream lines(folded.str());
    bool saw_scope = false, saw_untracked = false;
    while (std::getline(lines, line)) {
        // "frame;frame <integer>" — value separated by one space.
        std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.rfind("libq/cow", 0) == 0 ||
                      line.find("(untracked)") != std::string::npos,
                  true)
            << line;
        for (std::size_t i = space + 1; i < line.size(); ++i)
            EXPECT_TRUE(std::isdigit(line[i])) << line;
        saw_scope = saw_scope ||
                    line.rfind("libq/cow;access;cache_lookup ", 0) == 0;
        saw_untracked =
            saw_untracked || line.find("(untracked)") != std::string::npos;
    }
    EXPECT_TRUE(saw_scope);
}

TEST(Profile, EnabledRunIsTickAndGoldenStatsIdenticalToPlain)
{
    ForkBenchParams params = libqSlice();

    std::ostringstream plain_stats;
    ForkBenchResult plain =
        runForkBench(params, ForkMode::OverlayOnWrite, SystemConfig{},
                     nullptr, nullptr, nullptr, &plain_stats);

    prof::enable();
    std::ostringstream profiled_stats;
    ForkBenchResult profiled =
        runForkBench(params, ForkMode::OverlayOnWrite, SystemConfig{},
                     nullptr, nullptr, nullptr, &profiled_stats);
    prof::disable();
    prof::Report report = prof::collect(true);

    // The never-moves-a-tick invariant: simulated results and the full
    // golden-stats dump are byte-identical with the profiler enabled.
    EXPECT_EQ(plain.cpi, profiled.cpi);
    EXPECT_EQ(plain.additionalMemoryMB, profiled.additionalMemoryMB);
    EXPECT_EQ(plain.forkLatency, profiled.forkLatency);
    EXPECT_EQ(plain.cowFaults, profiled.cowFaults);
    EXPECT_EQ(plain.overlayingWrites, profiled.overlayingWrites);
    EXPECT_EQ(plain_stats.str(), profiled_stats.str());

#ifdef OVL_PROFILE
    // With the call sites compiled in, the run populated real zones.
    EXPECT_FALSE(report.rows.empty());
    EXPECT_NE(findRow(report, "access"), nullptr);
#else
    EXPECT_TRUE(report.rows.empty());
#endif
}

// ----- stats-diff forensics --------------------------------------------

namespace
{

/** Write @p text to a temp file and return its path. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream os(path);
    os << text;
    return path;
}

} // namespace

TEST(StatsDiff, IdenticalDocsCompareEqual)
{
    const char *text = "{\"system\": {\"accesses\": 100, \"bad\": null},"
                       " \"dram\": {\"rowHits\": 7.5}}";
    statsdiff::Doc a = statsdiff::parseStatsJson(text);
    statsdiff::Doc b = statsdiff::parseStatsJson(text);
    statsdiff::DiffResult result = statsdiff::diff(a, b);
    EXPECT_TRUE(result.identical);
    EXPECT_EQ(result.diffCount, 0u);
    EXPECT_EQ(result.comparedCount, 3u);
}

TEST(StatsDiff, PinpointsAnInjectedSingleCounterPerturbation)
{
    const char *base = "{\"system\": {\"accesses\": 100, \"forks\": 1},"
                       " \"dram\": {\"reads\": 40, \"writes\": 10},"
                       " \"tlb\": {\"hits\": {\"buckets\": {\"0\": 3}}}}";
    const char *bumped = "{\"system\": {\"accesses\": 100, \"forks\": 1},"
                         " \"dram\": {\"reads\": 41, \"writes\": 10},"
                         " \"tlb\": {\"hits\": {\"buckets\": {\"0\": 3}}}}";
    statsdiff::Doc a = statsdiff::parseStatsJson(base);
    statsdiff::Doc b = statsdiff::parseStatsJson(bumped);
    statsdiff::DiffResult result = statsdiff::diff(a, b);
    EXPECT_FALSE(result.identical);
    EXPECT_EQ(result.diffCount, 1u);
    EXPECT_EQ(result.firstPath, "dram.reads");
    EXPECT_EQ(result.aValue, 40.0);
    EXPECT_EQ(result.bValue, 41.0);
}

TEST(StatsDiff, ReportsScalarsMissingFromEitherSide)
{
    statsdiff::Doc a =
        statsdiff::parseStatsJson("{\"g\": {\"x\": 1, \"y\": 2}}");
    statsdiff::Doc b =
        statsdiff::parseStatsJson("{\"g\": {\"x\": 1, \"z\": 3}}");
    statsdiff::DiffResult result = statsdiff::diff(a, b);
    EXPECT_FALSE(result.identical);
    EXPECT_EQ(result.firstPath, "g.y");
    EXPECT_TRUE(result.firstOnlyInA);
    EXPECT_EQ(result.diffCount, 2u); // g.y missing in b, g.z missing in a
}

TEST(StatsDiff, NullVsNumberDiverges)
{
    statsdiff::Doc a = statsdiff::parseStatsJson("{\"g\": {\"x\": null}}");
    statsdiff::Doc b = statsdiff::parseStatsJson("{\"g\": {\"x\": 0}}");
    statsdiff::DiffResult result = statsdiff::diff(a, b);
    EXPECT_FALSE(result.identical);
    EXPECT_EQ(result.firstPath, "g.x");
    EXPECT_TRUE(result.aNull);
    EXPECT_FALSE(result.bNull);
}

TEST(StatsDiff, ParserRejectsNonStatsGrammar)
{
    EXPECT_THROW(statsdiff::parseStatsJson("{\"a\": [1, 2]}"),
                 std::runtime_error);
    EXPECT_THROW(statsdiff::parseStatsJson("{\"a\": \"str\"}"),
                 std::runtime_error);
    EXPECT_THROW(statsdiff::parseStatsJson("{\"a\": 1,}"),
                 std::runtime_error);
    EXPECT_THROW(statsdiff::parseStatsJson("not json"),
                 std::runtime_error);
}

TEST(StatsDiff, CliRunnerRoundTripsThroughFiles)
{
    std::string a = writeTemp(
        "sd_a.json", "{\"system\": {\"accesses\": 100, \"forks\": 1}}\n");
    std::string b = writeTemp(
        "sd_b.json", "{\"system\": {\"accesses\": 100, \"forks\": 2}}\n");
    std::string junk = writeTemp("sd_junk.json", "{broken\n");

    // Exit codes: 0 identical, 1 differing, 2 unreadable/unparseable.
    EXPECT_EQ(statsdiff::runStatsDiff(a, a, nullptr), 0);
    EXPECT_EQ(statsdiff::runStatsDiff(a, b, nullptr), 1);
    EXPECT_EQ(statsdiff::runStatsDiff(a, junk, nullptr), 2);
    EXPECT_EQ(statsdiff::runStatsDiff(a, a + ".missing", nullptr), 2);

    // The human-readable report names the diverging scalar.
    std::string report_path = testing::TempDir() + "sd_report.txt";
    std::FILE *report = std::fopen(report_path.c_str(), "w+");
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(statsdiff::runStatsDiff(a, b, report), 1);
    std::fclose(report);
    std::ifstream is(report_path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("system.forks"), std::string::npos);
    EXPECT_NE(text.find("a: 1"), std::string::npos);
    EXPECT_NE(text.find("b: 2"), std::string::npos);
}
