/**
 * @file
 * Tests for the Overlay Memory Store: segment geometry (Figure 7),
 * per-segment slot metadata, and the free-space allocator with
 * splitting, OS refills, and optional buddy coalescing (§4.4).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.hh"
#include "overlay/oms_allocator.hh"
#include "overlay/oms_segment.hh"

namespace ovl
{
namespace
{

TEST(OmsSegment, ClassGeometry)
{
    EXPECT_EQ(segClassBytes(SegClass::Seg256B), 256u);
    EXPECT_EQ(segClassBytes(SegClass::Seg4KB), 4096u);
    // Figure 7: a 256 B segment stores up to three overlay lines (one
    // line is metadata).
    EXPECT_EQ(segClassCapacity(SegClass::Seg256B), 3u);
    EXPECT_EQ(segClassCapacity(SegClass::Seg512B), 7u);
    EXPECT_EQ(segClassCapacity(SegClass::Seg1KB), 15u);
    EXPECT_EQ(segClassCapacity(SegClass::Seg2KB), 31u);
    // A 4 KB segment has no metadata line and holds the full page.
    EXPECT_EQ(segClassCapacity(SegClass::Seg4KB), 64u);
}

TEST(OmsSegment, SmallestFittingClass)
{
    EXPECT_EQ(segClassFor(1), SegClass::Seg256B);
    EXPECT_EQ(segClassFor(3), SegClass::Seg256B);
    EXPECT_EQ(segClassFor(4), SegClass::Seg512B);
    EXPECT_EQ(segClassFor(16), SegClass::Seg2KB);
    EXPECT_EQ(segClassFor(31), SegClass::Seg2KB);
    EXPECT_EQ(segClassFor(32), SegClass::Seg4KB);
    EXPECT_EQ(segClassFor(64), SegClass::Seg4KB);
}

TEST(OmsSegment, MetadataFitsInOneCacheLine)
{
    // §4.4.1: 64 x 5-bit pointers + 32-bit free vector = 352 bits.
    EXPECT_LE(64 * 5 + 32, 512);
}

TEST(OmsSegment, SlotAllocationAndAddressing)
{
    OmsSegment seg;
    seg.baseAddr = 0x10000;
    seg.cls = SegClass::Seg256B;
    seg.meta.initFree(seg.cls);

    std::uint8_t s0 = seg.meta.allocSlot();
    std::uint8_t s1 = seg.meta.allocSlot();
    std::uint8_t s2 = seg.meta.allocSlot();
    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 1);
    EXPECT_EQ(s2, 2);
    EXPECT_EQ(seg.meta.allocSlot(), kInvalidSlot); // full

    seg.meta.slotOf[5] = s0;
    seg.meta.slotOf[60] = s1;
    // Slot s occupies line s+1 (line 0 is metadata).
    EXPECT_EQ(seg.lineAddr(5), 0x10000u + 1 * kLineSize);
    EXPECT_EQ(seg.lineAddr(60), 0x10000u + 2 * kLineSize);
    EXPECT_TRUE(seg.hasSlot(5));
    EXPECT_FALSE(seg.hasSlot(6));
    EXPECT_EQ(seg.usedSlots(), 2u);
}

TEST(OmsSegment, FreeSlotReturnsToPool)
{
    OmsSegment seg;
    seg.cls = SegClass::Seg256B;
    seg.meta.initFree(seg.cls);
    std::uint8_t s = seg.meta.allocSlot();
    seg.meta.allocSlot();
    seg.meta.allocSlot();
    EXPECT_EQ(seg.meta.allocSlot(), kInvalidSlot);
    seg.meta.freeSlot(s);
    EXPECT_EQ(seg.meta.allocSlot(), s);
}

TEST(OmsSegment, FourKbSegmentUsesDirectOffsets)
{
    // §4.4.1: a 4 KB segment stores each line at its in-page offset.
    OmsSegment seg;
    seg.baseAddr = 0x20000;
    seg.cls = SegClass::Seg4KB;
    for (unsigned l : {0u, 17u, 63u}) {
        EXPECT_TRUE(seg.hasSlot(l));
        EXPECT_EQ(seg.lineAddr(l), 0x20000u + Addr(l) * kLineSize);
    }
}

/** Page-bump allocator hook for the devirtualized PageAllocFn. */
Addr
bumpPage(void *ctx)
{
    return *static_cast<Addr *>(ctx) += kPageSize;
}

class OmsAllocatorTest : public ::testing::Test
{
  protected:
    OmsAllocatorTest()
        : alloc("oms", OmsAllocatorParams{4, 4, false},
                PageAllocFn{&bumpPage, &nextPage_})
    {
    }

    Addr nextPage_ = 0;
    OmsAllocator alloc;
};

TEST_F(OmsAllocatorTest, StartupPagesPreallocated)
{
    // §4.4.3: the OS proactively hands the controller a chunk of pages.
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB), 4u);
    EXPECT_EQ(alloc.osBytesProvided(), 4 * kPageSize);
}

TEST_F(OmsAllocatorTest, SplittingFeedsSmallClasses)
{
    Addr seg = alloc.allocate(SegClass::Seg256B);
    (void)seg;
    // One 4 KB page was split down: 4K -> 2x2K -> ... -> 2x256.
    EXPECT_EQ(alloc.freeCount(SegClass::Seg2KB), 1u);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg1KB), 1u);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg512B), 1u);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg256B), 1u);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB), 3u);
}

TEST_F(OmsAllocatorTest, SplitHalvesAreAdjacent)
{
    Addr a = alloc.allocate(SegClass::Seg2KB);
    Addr b = alloc.allocate(SegClass::Seg2KB);
    EXPECT_EQ(b, a + 2048); // the buddy half
}

TEST_F(OmsAllocatorTest, ReleaseMakesSegmentReusable)
{
    Addr a = alloc.allocate(SegClass::Seg512B);
    alloc.release(a, SegClass::Seg512B);
    EXPECT_EQ(alloc.allocate(SegClass::Seg512B), a);
}

TEST_F(OmsAllocatorTest, OsRefillWhenExhausted)
{
    for (int i = 0; i < 4; ++i)
        alloc.allocate(SegClass::Seg4KB);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB), 0u);
    alloc.allocate(SegClass::Seg4KB); // triggers refill of 4 pages
    EXPECT_EQ(alloc.osBytesProvided(), 8 * kPageSize);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB), 3u);
}

TEST_F(OmsAllocatorTest, OsBytesProvidedSurvivesAStatsReset)
{
    // The OS pages stay with the OMS when a phase boundary zeroes the
    // statistics (System::resetStats), so their byte count must too.
    for (int i = 0; i < 5; ++i)
        alloc.allocate(SegClass::Seg4KB); // the fifth triggers a refill
    alloc.resetStats();
    EXPECT_EQ(alloc.osBytesProvided(), 8 * kPageSize);
}

TEST(OmsAllocatorCoalesce, BuddiesMergeBackUp)
{
    Addr next = 0;
    OmsAllocatorParams params{4, 4, true}; // coalescing on (extension)
    OmsAllocator alloc("oms", params, PageAllocFn{&bumpPage, &next});
    Addr a = alloc.allocate(SegClass::Seg2KB);
    Addr b = alloc.allocate(SegClass::Seg2KB);
    std::size_t big_before = alloc.freeCount(SegClass::Seg4KB);
    alloc.release(a, SegClass::Seg2KB);
    alloc.release(b, SegClass::Seg2KB);
    // The two 2 KB buddies coalesced into a 4 KB segment.
    EXPECT_EQ(alloc.freeCount(SegClass::Seg2KB), 0u);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB), big_before + 1);
}

TEST(OmsAllocatorProperty, RandomChurnConservesBytes)
{
    // Property: allocated + free bytes always equals what the OS
    // provided, under arbitrary allocate/release sequences.
    Addr next = 0;
    OmsAllocator alloc("oms", OmsAllocatorParams{8, 8, false},
                       PageAllocFn{&bumpPage, &next});
    Rng rng(3);
    std::vector<std::pair<Addr, SegClass>> live;
    std::uint64_t live_bytes = 0;
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.chance(0.6)) {
            auto cls = SegClass(rng.below(kNumSegClasses));
            live.push_back({alloc.allocate(cls), cls});
            live_bytes += segClassBytes(cls);
        } else {
            std::size_t idx = rng.below(live.size());
            auto [base, cls] = live[idx];
            live[idx] = live.back();
            live.pop_back();
            alloc.release(base, cls);
            live_bytes -= segClassBytes(cls);
        }
        std::uint64_t free_bytes = 0;
        for (unsigned c = 0; c < kNumSegClasses; ++c) {
            free_bytes += alloc.freeCount(SegClass(c)) *
                          segClassBytes(SegClass(c));
        }
        ASSERT_EQ(live_bytes + free_bytes, alloc.osBytesProvided());
    }
}

TEST(OmsAllocatorProperty, SplitCoalesceRoundTripsConserveBytes)
{
    // Satellite property for the intrusive free lists: with coalescing
    // enabled, arbitrary allocate/release churn (a) conserves bytes and
    // (b) costs a bounded number of free-list touches per operation —
    // no linear scans hiding in release() or tryCoalesce(). The worst
    // single op is an allocate that splits 4K->256 (4 splits) or a
    // release that coalesces 256->4K (4 merges), each touching a
    // constant number of list nodes.
    constexpr std::uint64_t kMaxTouchesPerOp = 16;
    Addr next = 0;
    OmsAllocator alloc("oms", OmsAllocatorParams{4, 4, true},
                       PageAllocFn{&bumpPage, &next});
    Rng rng(17);
    std::vector<std::pair<Addr, SegClass>> live;
    std::uint64_t live_bytes = 0;
    for (int step = 0; step < 4000; ++step) {
        std::uint64_t touches_before = alloc.listTouches();
        if (live.empty() || rng.chance(0.55)) {
            auto cls = SegClass(rng.below(kNumSegClasses));
            live.push_back({alloc.allocate(cls), cls});
            live_bytes += segClassBytes(cls);
        } else {
            std::size_t idx = rng.below(live.size());
            auto [base, cls] = live[idx];
            live[idx] = live.back();
            live.pop_back();
            alloc.release(base, cls);
            live_bytes -= segClassBytes(cls);
        }
        ASSERT_LE(alloc.listTouches() - touches_before, kMaxTouchesPerOp)
            << "free-list op not O(1) at step " << step;
        std::uint64_t free_bytes = 0;
        for (unsigned c = 0; c < kNumSegClasses; ++c) {
            free_bytes += alloc.freeCount(SegClass(c)) *
                          segClassBytes(SegClass(c));
        }
        ASSERT_EQ(live_bytes + free_bytes, alloc.osBytesProvided());
    }
    // Drain everything: coalescing must reconstitute whole pages.
    for (auto &[base, cls] : live)
        alloc.release(base, cls);
    EXPECT_EQ(alloc.freeCount(SegClass::Seg4KB) * kPageSize,
              alloc.osBytesProvided());
    for (unsigned c = 0; c + 1 < kNumSegClasses; ++c)
        EXPECT_EQ(alloc.freeCount(SegClass(c)), 0u);
}

TEST(OmsAllocatorProperty, NoOverlappingLiveSegments)
{
    Addr next = 0;
    OmsAllocator alloc("oms", OmsAllocatorParams{8, 8, false},
                       PageAllocFn{&bumpPage, &next});
    Rng rng(9);
    std::vector<std::pair<Addr, SegClass>> live;
    for (int step = 0; step < 500; ++step) {
        auto cls = SegClass(rng.below(kNumSegClasses));
        Addr base = alloc.allocate(cls);
        for (const auto &[obase, ocls] : live) {
            bool disjoint = base + segClassBytes(cls) <= obase ||
                            obase + segClassBytes(ocls) <= base;
            ASSERT_TRUE(disjoint)
                << "segment overlap at " << std::hex << base;
        }
        live.push_back({base, cls});
    }
}

} // namespace
} // namespace ovl
