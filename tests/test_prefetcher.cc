/**
 * @file
 * Tests for the multi-stream prefetcher (16 streams, degree 4,
 * distance 24, trained on L2 misses; Table 2).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/prefetcher.hh"
#include "common/random.hh"
#include "common/set_kernel.hh"

namespace ovl
{
namespace
{

std::vector<Addr>
missAt(StreamPrefetcher &pf, Addr line_index)
{
    std::vector<Addr> out;
    pf.notifyMiss(line_index << kLineShift, out);
    return out;
}

TEST(Prefetcher, FirstMissOnlyAllocates)
{
    StreamPrefetcher pf("pf", PrefetcherParams{});
    EXPECT_TRUE(missAt(pf, 100).empty());
}

TEST(Prefetcher, SecondMissEstablishesStreamAndPrefetches)
{
    StreamPrefetcher pf("pf", PrefetcherParams{});
    missAt(pf, 100);
    std::vector<Addr> out = missAt(pf, 101);
    ASSERT_EQ(out.size(), 4u); // degree = 4
    EXPECT_EQ(out[0], Addr(102) << kLineShift);
    EXPECT_EQ(out[1], Addr(103) << kLineShift);
    EXPECT_EQ(out[2], Addr(104) << kLineShift);
    EXPECT_EQ(out[3], Addr(105) << kLineShift);
}

TEST(Prefetcher, DescendingStreams)
{
    StreamPrefetcher pf("pf", PrefetcherParams{});
    missAt(pf, 200);
    std::vector<Addr> out = missAt(pf, 199);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], Addr(198) << kLineShift);
    EXPECT_EQ(out[3], Addr(195) << kLineShift);
}

TEST(Prefetcher, DistanceCapsRunahead)
{
    PrefetcherParams params;
    params.distance = 6;
    StreamPrefetcher pf("pf", params);
    missAt(pf, 10);
    missAt(pf, 11); // prefetches 12..15
    std::vector<Addr> out = missAt(pf, 12); // head at 16, limit 12+6=18
    // Prefetch head may not run more than `distance` lines ahead.
    for (Addr a : out)
        EXPECT_LE(a >> kLineShift, 12u + 6u);
}

TEST(Prefetcher, DisabledEmitsNothing)
{
    PrefetcherParams params;
    params.enabled = false;
    StreamPrefetcher pf("pf", params);
    missAt(pf, 100);
    EXPECT_TRUE(missAt(pf, 101).empty());
    EXPECT_EQ(pf.issued(), 0u);
}

TEST(Prefetcher, IndependentStreamsCoexist)
{
    StreamPrefetcher pf("pf", PrefetcherParams{});
    missAt(pf, 1000);
    missAt(pf, 5000);
    EXPECT_FALSE(missAt(pf, 1001).empty());
    EXPECT_FALSE(missAt(pf, 5001).empty());
}

TEST(Prefetcher, StreamTableEvictsLru)
{
    PrefetcherParams params;
    params.numStreams = 2;
    StreamPrefetcher pf("pf", params);
    missAt(pf, 1000);
    missAt(pf, 5000);
    EXPECT_FALSE(missAt(pf, 1001).empty()); // train + refresh 1000-stream
    missAt(pf, 9000); // evicts the LRU stream (5000)
    // The 1000-stream survived and keeps prefetching.
    EXPECT_FALSE(missAt(pf, 1002).empty());
    // The 5000-stream was evicted: a miss at 5001 re-allocates (no
    // prefetches on the allocation miss).
    EXPECT_TRUE(missAt(pf, 5001).empty());
}

TEST(Prefetcher, RepeatMissSameLineEmitsNothing)
{
    StreamPrefetcher pf("pf", PrefetcherParams{});
    missAt(pf, 100);
    missAt(pf, 101);
    EXPECT_TRUE(missAt(pf, 101).empty());
}

TEST(Prefetcher, StreamVictimMatchesReferenceLoop)
{
    // Streams 2^20 lines apart never train each other. A miss one line
    // past a stream's last line trains it if resident (and prefetches); a
    // miss on an absent stream allocates (and prefetches nothing). The
    // reference table allocates into the first free entry, else the
    // first entry holding the smallest recency stamp.
    for (unsigned streams : {1u, 4u, 12u, 16u, 64u}) {
        PrefetcherParams params;
        params.numStreams = streams;
        StreamPrefetcher pf("pf", params);
        constexpr Addr kNone = ~Addr(0);
        std::vector<Addr> ref_head(streams, kNone);
        std::vector<std::uint64_t> ref_stamp(streams, 0);
        std::uint64_t counter = 0;
        std::vector<Addr> next_offset(2 * streams, 0);
        Rng rng(streams);
        for (unsigned step = 0; step < 8000; ++step) {
            Addr head = rng.below(2 * streams);
            Addr line = (head << 20) + next_offset[head]++;
            unsigned slot = streams;
            for (unsigned i = 0; i < streams; ++i) {
                if (ref_head[i] == head)
                    slot = i;
            }
            bool resident = slot < streams;
            if (!resident) {
                slot = 0;
                for (unsigned i = 0; i < streams; ++i) {
                    if (ref_head[i] == kNone) {
                        slot = i;
                        break;
                    }
                    if (ref_stamp[i] < ref_stamp[slot])
                        slot = i;
                }
                ref_head[slot] = head;
            }
            ref_stamp[slot] = ++counter;
            ASSERT_EQ(!missAt(pf, line).empty(), resident)
                << streams << " streams, step " << step;
        }
    }
}

/**
 * Reference: the ordered scan firstInWindow() replaced. The first valid
 * entry, in table order, whose last line is within @p window of @p line.
 */
int
orderedWindowScan(const std::vector<std::uint64_t> &last, std::uint64_t valid,
                  std::uint64_t line, std::uint64_t window)
{
    for (unsigned i = 0; i < last.size(); ++i) {
        if ((valid >> i & 1) == 0)
            continue;
        std::int64_t delta = std::int64_t(line) - std::int64_t(last[i]);
        if (delta < 0)
            delta = -delta;
        if (delta <= std::int64_t(window))
            return int(i);
    }
    return -1;
}

template <unsigned W>
void
expectWindowMatchesScan(const std::vector<std::uint64_t> &last,
                        std::uint64_t valid, std::uint64_t line,
                        std::uint64_t window)
{
    const int want = orderedWindowScan(last, valid, line, window);
    ASSERT_EQ(firstInWindow<W>(last.data(), valid, line, window,
                               unsigned(last.size())),
              want)
        << "line " << line << ", window " << window;
}

TEST(Prefetcher, WindowMaskMatchesOrderedScan)
{
    // Line indices are addresses >> 6, so below 2^58.
    constexpr std::uint64_t kTop = (std::uint64_t(1) << 58) - 1;
    Rng rng(11);
    for (unsigned entries : {1u, 5u, 16u, 64u}) {
        const std::uint64_t all =
            entries == 64 ? ~std::uint64_t(0)
                          : (std::uint64_t(1) << entries) - 1;
        std::vector<std::uint64_t> last(entries);
        for (std::uint64_t window :
             {std::uint64_t(0), std::uint64_t(1), std::uint64_t(4),
              std::uint64_t(1000), (std::uint64_t(1) << 32) - 1}) {
            for (unsigned trial = 0; trial < 3000; ++trial) {
                // Lines near 0, near the top and anywhere, with the
                // entries clustered around them so several fall inside
                // the window (and some just outside it).
                const std::uint64_t line =
                    trial % 3 == 0   ? rng.below(8)
                    : trial % 3 == 1 ? kTop - rng.below(8)
                                     : rng.below(kTop);
                for (auto &l : last) {
                    const std::uint64_t off = rng.below(3 * window + 3);
                    l = rng.below(2) != 0 ? (line > kTop - off ? kTop
                                                               : line + off)
                                          : (line < off ? 0 : line - off);
                }
                const std::uint64_t valid = rng.next() & all;
                if (entries == 16)
                    expectWindowMatchesScan<16>(last, valid, line, window);
                expectWindowMatchesScan<0>(last, valid, line, window);
                ASSERT_FALSE(HasFatalFailure())
                    << entries << " entries, trial " << trial;
            }
        }
    }
}

TEST(Prefetcher, LowerIndexWinsTwoStreamsInOneWindow)
{
    // Two valid entries within the window of line 6: entry 3 one line
    // above, entry 9 two lines below. The lower index wins, whichever is
    // nearer, as does entry 0 at distance 4 once it is valid.
    std::vector<std::uint64_t> last(16, 1000);
    last[0] = 2;
    last[3] = 7;
    last[9] = 4;
    const std::uint64_t valid = (1u << 3) | (1u << 9);
    EXPECT_EQ(firstInWindow<16>(last.data(), valid, 6, 4, 16), 3);
    EXPECT_EQ(firstInWindow<0>(last.data(), valid, 6, 4, 16), 3);
    EXPECT_EQ(firstInWindow<16>(last.data(), valid | 1, 6, 4, 16), 0);
    // Near 0 the difference to a high line wraps and must not match:
    // line 1 is within 4 of lines 0..5 only.
    last.assign(16, (std::uint64_t(1) << 58) - 1);
    last[5] = 5;
    last[6] = 6;
    EXPECT_EQ(firstInWindow<16>(last.data(), 0xffff, 1, 4, 16), 5);
    EXPECT_EQ(firstInWindow<16>(last.data(), 0xffff, 0, 4, 16), -1);

    // Through the prefetcher: stream 0 runs up from 100 to 104 and
    // stream 1 is allocated at 110. A miss at 107 is within 4 of both;
    // stream 0 trains and prefetches upwards (stream 1 would have
    // confirmed a descending direction and prefetched below 107).
    StreamPrefetcher pf("pf", PrefetcherParams{});
    missAt(pf, 100);
    missAt(pf, 110);
    missAt(pf, 104);
    std::vector<Addr> out = missAt(pf, 107);
    ASSERT_FALSE(out.empty());
    EXPECT_GT(out.front(), Addr(107) << kLineShift);
}

} // namespace
} // namespace ovl
