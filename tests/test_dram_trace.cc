/**
 * @file
 * Trace-identity guard for the DRAM fast path: runs a fixed workload
 * with the Chrome trace sink active and pins a digest of every event in
 * the "dram" category (`row_hit` / `row_activate` / `row_conflict` /
 * `wb_drain`). The DRAM controller's host-side fast paths (cached
 * bank/row decode, precomputed latency constants, batched drains) must
 * leave the trace output byte-identical: same events, same order, same
 * timestamps, same args.
 *
 * The pinned digest and exemplar lines were captured from the tree
 * before the fast paths landed; a mismatch means the "optimization"
 * moved a simulated timestamp or reordered events and must be fixed,
 * not re-pinned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "sim/trace.hh"
#include "system/system.hh"

using namespace ovl;

namespace
{

constexpr Addr kBase = 0x100000;

/** FNV-1a 64-bit over the concatenated (newline-joined) dram lines. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct DramTraceDigest
{
    std::vector<std::string> lines; ///< dram-category event records
    std::uint64_t hash = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowClosed = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t drains = 0;
};

/**
 * Deterministic mini-workload chosen to exercise every dram trace
 * point: a random 2:1 read/write mix over 16 MiB (row conflicts and
 * activates), a sequential write lap (row hits), then a full cache
 * flush plus an explicit drain (wb_drain bursts incl. a partial one).
 */
DramTraceDigest
runTracedWorkload(const std::string &trace_path)
{
    DramTraceDigest d;
    {
        trace::Sink sink(trace_path);
        trace::Sink::Bind bind(&sink);
        System sys;
        Asid p = sys.createProcess();
        constexpr std::uint64_t kBufBytes = 16ull << 20;
        sys.mapAnon(p, kBase, kBufBytes);

        Rng rng(42);
        Tick t = 0;
        for (unsigned i = 0; i < 2048; ++i) {
            Addr va = kBase + lineBase(rng.below(kBufBytes));
            t = sys.access(p, va, i % 3 == 2, t);
        }
        for (unsigned i = 0; i < 1024; ++i)
            t = sys.access(p, kBase + Addr(i) * kLineSize, true, t);
        sys.caches().flushAll(t);
        sys.dramController().drainWrites(t);

        d.rowHits = sys.dramController().dram().rowHits();
        d.rowClosed = sys.dramController().dram().rowClosed();
        d.rowConflicts = sys.dramController().dram().rowConflicts();
        d.drains = sys.dramController().drains();
    }

    std::ifstream in(trace_path);
    std::string line;
    std::string joined;
    while (std::getline(in, line)) {
        if (line.find("\"cat\":\"dram\"") == std::string::npos)
            continue;
        // Strip the JSON-array separator so the digest is insensitive
        // to whether a dram event happens to be the trace's last event.
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        d.lines.push_back(line);
        joined += line;
        joined += '\n';
    }
    d.hash = fnv1a(joined);
    return d;
}

} // namespace

TEST(DramTrace, RowAndDrainEventsAreByteIdentical)
{
    std::string path = testing::TempDir() + "dram_trace_golden.json";
    DramTraceDigest d = runTracedWorkload(path);

    // The workload must exercise every row outcome and the drain path,
    // or the identity pin below would not be load-bearing.
    EXPECT_GT(d.rowHits, 0u);
    EXPECT_GT(d.rowClosed, 0u);
    EXPECT_GT(d.rowConflicts, 0u);
    EXPECT_GT(d.drains, 0u);

    // Captured from the pre-fast-path tree. To inspect a mismatch, diff
    // the file left at `path` against a run of the last-good commit.
    EXPECT_EQ(d.lines.size(), 3770u) << "trace file: " << path;
    EXPECT_EQ(d.hash, 17769249026016036339ull) << "trace file: " << path;

    ASSERT_FALSE(d.lines.empty());
    EXPECT_EQ(d.lines.front(),
              "{\"name\":\"row_activate\",\"cat\":\"dram\",\"ph\":\"X\","
              "\"ts\":1034,\"dur\":90,\"pid\":0,\"tid\":1,"
              "\"args\":{\"bank\":4,\"row\":25,\"write\":0}}");
    EXPECT_EQ(d.lines.back(),
              "{\"name\":\"wb_drain\",\"cat\":\"dram\",\"ph\":\"X\","
              "\"ts\":2189623,\"dur\":6930,\"pid\":0,\"tid\":1,"
              "\"args\":{\"writes\":42}}");
}

/** Same workload, same process: the digest must reproduce exactly. */
TEST(DramTrace, DigestIsStableAcrossRuns)
{
    std::string path_a = testing::TempDir() + "dram_trace_a.json";
    std::string path_b = testing::TempDir() + "dram_trace_b.json";
    DramTraceDigest a = runTracedWorkload(path_a);
    DramTraceDigest b = runTracedWorkload(path_b);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.lines.size(), b.lines.size());
}

/**
 * A sink is bound to the thread that runs the job, and its events carry
 * no thread identity: the same workload traced on the main thread and on
 * a fresh thread must give the pinned digest both times.
 */
TEST(DramTrace, DigestIsIndependentOfTheEmittingThread)
{
    std::string main_path = testing::TempDir() + "dram_trace_main.json";
    std::string thread_path = testing::TempDir() + "dram_trace_thread.json";
    DramTraceDigest on_main = runTracedWorkload(main_path);
    DramTraceDigest on_thread;
    std::thread worker(
        [&] { on_thread = runTracedWorkload(thread_path); });
    worker.join();
    EXPECT_EQ(on_main.hash, 17769249026016036339ull);
    EXPECT_EQ(on_thread.hash, 17769249026016036339ull)
        << "trace file: " << thread_path;
    EXPECT_FALSE(trace::active()); // the binding ended with the job
}
