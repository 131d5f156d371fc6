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
    for (unsigned streams : {4u, 16u, 64u}) {
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

} // namespace
} // namespace ovl
