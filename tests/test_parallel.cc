/** @file Tests for the parallel sweep runner (src/sim/parallel.hh). */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel.hh"
#include "sim/trace.hh"
#include "workload/forkbench.hh"

using namespace ovl;

TEST(Parallel, EmptyInputReturnsEmpty)
{
    std::vector<int> serial =
        parallelMap(0, [](std::size_t) { return 1; }, 1);
    EXPECT_TRUE(serial.empty());
    std::vector<int> parallel =
        parallelMap(0, [](std::size_t) { return 1; }, 8);
    EXPECT_TRUE(parallel.empty());
}

TEST(Parallel, SingleItemRunsInline)
{
    std::vector<std::size_t> out =
        parallelMap(1, [](std::size_t i) { return i + 41; }, 8);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 41u);
}

TEST(Parallel, ResultsAreInInputOrder)
{
    constexpr std::size_t kItems = 257;
    auto square = [](std::size_t i) { return i * i; };
    std::vector<std::size_t> serial = parallelMap(kItems, square, 1);
    for (unsigned jobs : {2u, 4u, 8u}) {
        std::vector<std::size_t> parallel =
            parallelMap(kItems, square, jobs);
        EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
    }
}

TEST(Parallel, MoreJobsThanItemsIsFine)
{
    std::vector<std::size_t> out =
        parallelMap(3, [](std::size_t i) { return i; }, 64);
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Parallel, NonTrivialResultType)
{
    std::vector<std::string> out = parallelMap(
        50, [](std::size_t i) { return std::string(i, 'x'); }, 4);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].size(), i);
}

TEST(Parallel, WorkerExceptionPropagates)
{
    auto fn = [](std::size_t i) {
        if (i == 7)
            throw std::runtime_error("item 7 failed");
        return int(i);
    };
    EXPECT_THROW({ parallelMap(16, fn, 4); }, std::runtime_error);
    EXPECT_THROW({ parallelMap(16, fn, 1); }, std::runtime_error);
}

TEST(Parallel, LowestIndexExceptionWins)
{
    // Multiple failures: the rethrown exception is the lowest-index one,
    // matching what a serial run would hit first.
    auto fn = [](std::size_t i) -> int {
        if (i % 2 == 0)
            throw std::runtime_error("item " + std::to_string(i));
        return int(i);
    };
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelMap(10, fn, jobs);
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "item 0") << "jobs=" << jobs;
        }
    }
}

TEST(Parallel, AllItemsRunExactlyOnce)
{
    constexpr std::size_t kItems = 500;
    std::vector<std::atomic<unsigned>> hits(kItems);
    parallelMap(
        kItems,
        [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            return 0;
        },
        8);
    for (std::size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "item " << i;
}

TEST(Parallel, JobsFromCommandLineParsesForms)
{
    {
        const char *argv[] = {"prog", "--jobs", "3"};
        EXPECT_EQ(jobsFromCommandLine(3, const_cast<char **>(argv)), 3u);
    }
    {
        const char *argv[] = {"prog"};
        EXPECT_GE(jobsFromCommandLine(1, const_cast<char **>(argv)), 1u);
    }
}

TEST(ParallelDeathTest, JobsFromCommandLineRejectsMalformedValues)
{
    // A strtoul-based parser turns these into 4294967295, 1 and 4 jobs.
    for (const char *value : {"-1", "4294967297", " 4"}) {
        const char *argv[] = {"prog", "--jobs", value};
        EXPECT_EXIT(jobsFromCommandLine(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1), "--jobs expects")
            << "value '" << value << "'";
    }
}

TEST(Parallel, ProgressFlagParsesAndEnables)
{
    setProgressEnabled(false);
    const char *argv[] = {"prog", "--progress", "--jobs", "2"};
    EXPECT_EQ(jobsFromCommandLine(4, const_cast<char **>(argv)), 2u);
    EXPECT_TRUE(progressEnabled());
    setProgressEnabled(false);
    EXPECT_FALSE(progressEnabled());
}

namespace
{

/** Run a labelled sweep capturing stderr; returns the progress text. */
std::string
sweepWithProgress(unsigned jobs, std::vector<std::size_t> &out)
{
    testing::internal::CaptureStderr();
    out = parallelMap(
        5, [](std::size_t i) { return i * 3; }, jobs,
        [](std::size_t i) { return "item-" + std::to_string(i); });
    return testing::internal::GetCapturedStderr();
}

} // namespace

TEST(Parallel, ProgressReportsEveryItemOnStderrOnly)
{
    setProgressEnabled(true);
    for (unsigned jobs : {1u, 4u}) {
        std::vector<std::size_t> results;
        std::string err = sweepWithProgress(jobs, results);
        // Results are unaffected by progress reporting.
        EXPECT_EQ(results, (std::vector<std::size_t>{0, 3, 6, 9, 12}))
            << "jobs=" << jobs;
        // One line per item, plus one telemetry summary per worker on
        // the threaded path; k counts completions so [5/5] always
        // appears, and every label appears exactly once.
        std::size_t lines = 0;
        for (char c : err)
            lines += c == '\n';
        std::size_t worker_lines = jobs > 1 ? jobs : 0;
        EXPECT_EQ(lines, 5u + worker_lines) << "jobs=" << jobs << "\n"
                                            << err;
        EXPECT_NE(err.find("[5/5]"), std::string::npos) << err;
        for (unsigned i = 0; i < 5; ++i) {
            std::string label = "item-" + std::to_string(i) + " done";
            EXPECT_NE(err.find(label), std::string::npos)
                << "jobs=" << jobs << "\n" << err;
        }
    }
    setProgressEnabled(false);
}

TEST(Parallel, ProgressStderrStaysWellFormedWhenAWorkerThrows)
{
    // A worker throwing mid-sweep must not deadlock the pool, must still
    // rethrow on the caller, and every stderr line the reporter did
    // print stays whole (one fprintf per line, no interleaving).
    setProgressEnabled(true);
    testing::internal::CaptureStderr();
    auto fn = [](std::size_t i) {
        if (i == 3)
            throw std::runtime_error("item 3 failed");
        return int(i);
    };
    EXPECT_THROW(
        {
            parallelMap(12, fn, 4, [](std::size_t i) {
                return "item-" + std::to_string(i);
            });
        },
        std::runtime_error);
    std::string err = testing::internal::GetCapturedStderr();
    setProgressEnabled(false);

    // Every line is one complete record: an item-done line, or a
    // worker-telemetry summary. The thrown item reports no done line.
    std::size_t item_lines = 0, worker_lines = 0, pos = 0;
    while (pos < err.size()) {
        std::size_t eol = err.find('\n', pos);
        ASSERT_NE(eol, std::string::npos) << "unterminated line: "
                                          << err.substr(pos);
        std::string line = err.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("[worker ", 0) == 0) {
            ++worker_lines;
            EXPECT_NE(line.find("busy"), std::string::npos) << line;
            EXPECT_NE(line.find("idle"), std::string::npos) << line;
        } else {
            ++item_lines;
            EXPECT_EQ(line.rfind("[", 0), 0u) << line;
            EXPECT_NE(line.find(" done (wall "), std::string::npos)
                << line;
        }
    }
    EXPECT_EQ(item_lines, 11u) << err; // 12 items, one threw
    EXPECT_EQ(err.find("item-3 done"), std::string::npos) << err;
    EXPECT_EQ(worker_lines, 4u) << err;
}

TEST(Parallel, WorkerTelemetryAccountsForEveryItem)
{
    setProgressEnabled(true);
    testing::internal::CaptureStderr();
    parallelMap(
        9, [](std::size_t i) { return i; }, 3,
        [](std::size_t i) { return "t-" + std::to_string(i); });
    std::string err = testing::internal::GetCapturedStderr();
    setProgressEnabled(false);

    // One "[worker w/3] N items, busy Bs, idle Is" line per worker, and
    // the per-worker item counts sum to the sweep size.
    std::size_t total_items = 0, worker_lines = 0, pos = 0;
    while ((pos = err.find("[worker ", pos)) != std::string::npos) {
        ++worker_lines;
        std::size_t bracket = err.find(']', pos);
        ASSERT_NE(bracket, std::string::npos);
        EXPECT_NE(err.find("/3]", pos), std::string::npos);
        total_items +=
            std::strtoull(err.c_str() + bracket + 1, nullptr, 10);
        pos = bracket;
    }
    EXPECT_EQ(worker_lines, 3u) << err;
    EXPECT_EQ(total_items, 9u) << err;

    // The serial path (jobs=1) prints item lines but no worker summary.
    testing::internal::CaptureStderr();
    setProgressEnabled(true);
    parallelMap(
        3, [](std::size_t i) { return i; }, 1,
        [](std::size_t i) { return "s-" + std::to_string(i); });
    std::string serial_err = testing::internal::GetCapturedStderr();
    setProgressEnabled(false);
    EXPECT_EQ(serial_err.find("[worker "), std::string::npos)
        << serial_err;
}

TEST(Parallel, ProgressSilentWhenDisabledOrUnlabelled)
{
    setProgressEnabled(false);
    std::vector<std::size_t> results;
    std::string err = sweepWithProgress(4, results);
    EXPECT_EQ(err, "");

    // Enabled but the sweep provides no labels: nothing to report.
    setProgressEnabled(true);
    testing::internal::CaptureStderr();
    parallelMap(4, [](std::size_t i) { return i; }, 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    setProgressEnabled(false);
}

namespace
{

void
expectSameResult(const ForkBenchResult &a, const ForkBenchResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_DOUBLE_EQ(a.additionalMemoryMB, b.additionalMemoryMB);
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.cowFaults, b.cowFaults);
    EXPECT_EQ(a.overlayingWrites, b.overlayingWrites);
    EXPECT_EQ(a.forkLatency, b.forkLatency);
}

} // namespace

/**
 * The determinism contract end to end: a fig09-style sweep (independent
 * Systems per item) produces identical ForkBenchResults serial and
 * parallel — every simulated tick and stat, not just the printed text.
 */
TEST(Parallel, ForkSweepIsDeterministicAcrossJobCounts)
{
    ForkBenchParams params = forkBenchByName("mcf");
    params.warmupInstructions = 20'000;
    params.postForkInstructions = 100'000;
    params.footprintPages /= 16;
    params.hotPages /= 16;
    params.dirtyPages /= 16;

    auto runOne = [&params](std::size_t i) {
        ForkMode mode =
            i % 2 ? ForkMode::OverlayOnWrite : ForkMode::CopyOnWrite;
        return runForkBench(params, mode, SystemConfig{});
    };
    std::vector<ForkBenchResult> serial = parallelMap(4, runOne, 1);
    std::vector<ForkBenchResult> parallel = parallelMap(4, runOne, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("item " + std::to_string(i));
        expectSameResult(serial[i], parallel[i]);
    }
}

/**
 * Trace sinks belong to jobs: parallel items each open and bind their
 * own sink, and every file is byte-identical to the same item traced at
 * jobs 1 — no interleaving, no thread identity in the events.
 */
TEST(Parallel, ItemsTraceToTheirOwnSinks)
{
    std::vector<ForkBenchParams> items;
    for (const char *name : {"libq", "mcf", "milc", "omnet"}) {
        ForkBenchParams params = forkBenchByName(name);
        params.warmupInstructions = 5'000;
        params.postForkInstructions = 20'000;
        params.footprintPages /= 16;
        params.hotPages /= 16;
        params.dirtyPages /= 16;
        items.push_back(params);
    }

    auto path = [](unsigned jobs, std::size_t i) {
        return testing::TempDir() + "/ovl_item_trace_j" +
               std::to_string(jobs) + "_" + std::to_string(i) + ".json";
    };
    auto traceItems = [&](unsigned jobs) {
        return parallelMap(
            items.size(),
            [&](std::size_t i) {
                trace::Sink sink(path(jobs, i));
                trace::Sink::Bind bind(&sink);
                ForkMode mode = i % 2 ? ForkMode::OverlayOnWrite
                                      : ForkMode::CopyOnWrite;
                runForkBench(items[i], mode, SystemConfig{});
                return sink.eventCount();
            },
            jobs);
    };
    auto slurp = [](const std::string &file) {
        std::ifstream is(file, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    std::vector<std::uint64_t> serial_events = traceItems(1);
    EXPECT_EQ(traceItems(4), serial_events);
    for (std::size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE(items[i].name);
        EXPECT_GT(serial_events[i], 0u);
        EXPECT_EQ(slurp(path(4, i)), slurp(path(1, i)));
        std::remove(path(1, i).c_str());
        std::remove(path(4, i).c_str());
    }
}
