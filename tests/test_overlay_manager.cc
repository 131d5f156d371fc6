/**
 * @file
 * Tests for the overlay engine: functional overlay contents, lazy OMS
 * slot allocation on writeback (§4.3.3), segment growth/migration
 * (§4.4.2), discard, and the OMT side of the overlaying-read-exclusive
 * message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "dram/dram.hh"
#include "overlay/overlay_manager.hh"
#include "sim/snapshot.hh"
#include "system/system.hh"

namespace ovl
{
namespace
{

/** Page-bump allocator hook for the devirtualized PageAllocFn. */
Addr
bumpPage(void *ctx)
{
    return *static_cast<Addr *>(ctx) += kPageSize;
}

class OverlayManagerTest : public ::testing::Test
{
  protected:
    OverlayManagerTest()
        : dram("dram", DramTimingParams{}),
          ovm("ovm", OverlayManagerParams{}, dram,
              PageAllocFn{&bumpPage, &nextPage_})
    {
    }

    static LineData
    pattern(std::uint8_t seed)
    {
        LineData d;
        for (std::size_t i = 0; i < d.size(); ++i)
            d[i] = std::uint8_t(seed + i);
        return d;
    }

    /** Overlay line address for (opn, line). */
    static Addr
    lineAddr(Opn opn, unsigned line)
    {
        return (opn << kPageShift) | (Addr(line) << kLineShift);
    }

    Addr nextPage_ = 0x100'0000;
    DramController dram;
    OverlayManager ovm;
};

constexpr Opn kOpn = (Addr(1) << 51) | 0x1234; // an overlay-space page

TEST_F(OverlayManagerTest, EmptyOverlayReportsNothing)
{
    EXPECT_FALSE(ovm.hasOverlay(kOpn));
    EXPECT_TRUE(ovm.obitvector(kOpn).none());
}

TEST_F(OverlayManagerTest, WriteThenReadLineData)
{
    LineData in = pattern(7);
    ovm.writeLineData(kOpn, 13, in);
    EXPECT_TRUE(ovm.hasOverlay(kOpn));
    EXPECT_TRUE(ovm.obitvector(kOpn).test(13));
    LineData out{};
    ovm.readLineData(kOpn, 13, out);
    EXPECT_EQ(out, in);
}

TEST_F(OverlayManagerTest, ZeroLinesAllocateNoLineArray)
{
    ovm.writeLineData(kOpn, 3, LineData{});
    std::uint64_t host = ovm.hostBytes();
    ovm.writeLineData(kOpn, 9, LineData{});
    EXPECT_TRUE(ovm.hasLineData(kOpn, 3));
    EXPECT_EQ(ovm.lineStoreBytes(), 0u);
    EXPECT_EQ(ovm.hostBytes(), host);
    LineData out = pattern(5);
    ovm.readLineData(kOpn, 3, out);
    EXPECT_EQ(out, LineData{});

    // The first nonzero line reserves the smallest store (4 lines, the
    // 256 B segment size) and nothing else; zero lines still read as
    // zero beside it.
    ovm.writeLineData(kOpn, 4, pattern(1));
    EXPECT_EQ(ovm.lineStoreBytes(), 4 * kLineSize);
    EXPECT_EQ(ovm.hostBytes(), host + 4 * kLineSize);
    ovm.readLineData(kOpn, 9, out);
    EXPECT_EQ(out, LineData{});
    ovm.readLineData(kOpn, 4, out);
    EXPECT_EQ(out, pattern(1));
}

TEST_F(OverlayManagerTest, RestoredZeroLinesAllocateNoLineArray)
{
    Opn other = kOpn + 1;
    ovm.writeLineData(kOpn, 3, LineData{});
    ovm.writeLineData(other, 0, pattern(2));
    snapshot::Writer w;
    snapshot::visit(ovm, w);

    Addr next_page = 0x200'0000;
    DramController dram2("dram2", DramTimingParams{});
    OverlayManager restored("ovm", OverlayManagerParams{}, dram2,
                            PageAllocFn{&bumpPage, &next_page});
    snapshot::Reader r(w.buffer());
    snapshot::visit(restored, r);
    EXPECT_EQ(restored.lineStoreBytes(), 4 * kLineSize);
    LineData out = pattern(5);
    restored.readLineData(kOpn, 3, out);
    EXPECT_EQ(out, LineData{});
    restored.readLineData(other, 0, out);
    EXPECT_EQ(out, pattern(2));
    snapshot::Writer again;
    snapshot::visit(restored, again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

TEST_F(OverlayManagerTest, LineStoreGrowsWithTheLinesWritten)
{
    // Lines arrive out of order; the store keeps them in line order and
    // grows through the segment sizes, 4 to 64 lines.
    std::vector<unsigned> order;
    for (unsigned i = 0; i < kLinesPerPage; ++i)
        order.push_back((i * 37 + 11) % kLinesPerPage);
    for (unsigned i = 0; i < kLinesPerPage; ++i) {
        ovm.writeLineData(kOpn, order[i], pattern(std::uint8_t(order[i])));
        std::uint64_t lines = std::max(4u, std::bit_ceil(i + 1));
        EXPECT_EQ(ovm.lineStoreBytes(), lines * kLineSize)
            << "after " << (i + 1) << " lines";
    }
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        LineData out{};
        ovm.readLineData(kOpn, l, out);
        EXPECT_EQ(out, pattern(std::uint8_t(l))) << "line " << l;
    }
    // Rewriting a stored line, even to zero, updates it in place.
    ovm.writeLineData(kOpn, 17, LineData{});
    LineData out = pattern(1);
    ovm.readLineData(kOpn, 17, out);
    EXPECT_EQ(out, LineData{});
    EXPECT_EQ(ovm.lineStoreBytes(), kPageSize);
}

TEST_F(OverlayManagerTest, RecycledPageStartsWithoutLines)
{
    for (unsigned l = 0; l < 8; ++l)
        ovm.writeLineData(kOpn, l, pattern(std::uint8_t(l + 1)));
    EXPECT_EQ(ovm.lineStoreBytes(), 8 * kLineSize);
    ovm.discardOverlay(kOpn);

    // The next overlay reuses the page slot but none of its lines, so
    // its snapshot holds no lines and restores no line storage.
    Opn other = kOpn + 1;
    ovm.writeLineData(other, 2, LineData{});
    EXPECT_EQ(ovm.lineStoreBytes(), 0u);
    LineData out = pattern(9);
    ovm.readLineData(other, 2, out);
    EXPECT_EQ(out, LineData{});
    snapshot::Writer w;
    snapshot::visit(ovm, w);
    snapshot::Reader r(w.buffer());
    Addr next_page = 0x200'0000;
    DramController dram2("dram2", DramTimingParams{});
    OverlayManager restored("ovm", OverlayManagerParams{}, dram2,
                            PageAllocFn{&bumpPage, &next_page});
    snapshot::visit(restored, r);
    EXPECT_EQ(restored.lineStoreBytes(), 0u);
}

TEST_F(OverlayManagerTest, DiscardFreesThePageAndItsSnapshotBytes)
{
    constexpr unsigned kOverlays = 8;
    for (unsigned o = 0; o < kOverlays; ++o) {
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            ovm.writeLineData(kOpn + o, l, pattern(std::uint8_t(o + l + 1)));
    }
    snapshot::Writer live;
    snapshot::visit(ovm, live);
    const std::uint64_t host = ovm.hostBytes();

    // Each discard frees the overlay's 4 KiB of lines at once (the OMT
    // free list's own growth aside).
    for (unsigned o = 0; o < kOverlays; ++o) {
        const std::uint64_t before = ovm.hostBytes();
        ovm.discardOverlay(kOpn + o);
        EXPECT_EQ(ovm.lineStoreBytes(), (kOverlays - 1 - o) * kPageSize);
        EXPECT_LT(ovm.hostBytes(), before) << "discard " << o;
    }
    EXPECT_GE(host, ovm.hostBytes() + kOverlays * kPageSize);

    // A discarded overlay is not written: the image sheds every page.
    snapshot::Writer freed;
    snapshot::visit(ovm, freed);
    EXPECT_GE(live.buffer().size(),
              freed.buffer().size() + kOverlays * kPageSize);

    // The emptied table restores as empty and takes a new overlay.
    Addr next_page = 0x200'0000;
    DramController dram2("dram2", DramTimingParams{});
    OverlayManager restored("ovm", OverlayManagerParams{}, dram2,
                            PageAllocFn{&bumpPage, &next_page});
    snapshot::Reader r(freed.buffer());
    snapshot::visit(restored, r);
    snapshot::Writer again;
    snapshot::visit(restored, again);
    EXPECT_EQ(again.buffer(), freed.buffer());
    restored.writeLineData(kOpn + 100, 5, pattern(3));
    ovm.writeLineData(kOpn + 100, 5, pattern(3));
    snapshot::Writer a, b;
    snapshot::visit(restored, a);
    snapshot::visit(ovm, b);
    EXPECT_EQ(a.buffer(), b.buffer());
}

TEST_F(OverlayManagerTest, SnapshotDependsOnTheOverlaysNotTheirHistory)
{
    // Overlays A and B reached directly, and after a full-page overlay C
    // was written and discarded, with B rewritten and A's lines written
    // in another order. All three share one OMT window, so its node
    // pages sit at the same addresses in both engines.
    const Opn a = kOpn;
    const Opn b = kOpn + 1;
    const Opn c = kOpn + 2;
    ovm.writeLineData(a, 3, pattern(1));
    ovm.writeLineData(a, 7, LineData{});
    ovm.writeLineData(b, 0, pattern(2));

    Addr next_page = 0x100'0000;
    DramController dram2("dram2", DramTimingParams{});
    OverlayManager churned("ovm", OverlayManagerParams{}, dram2,
                           PageAllocFn{&bumpPage, &next_page});
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        churned.writeLineData(c, l, pattern(std::uint8_t(l)));
    churned.writeLineData(b, 0, pattern(5));
    churned.writeLineData(b, 0, pattern(2));
    churned.writeLineData(a, 7, LineData{});
    churned.writeLineData(a, 3, pattern(1));
    churned.discardOverlay(c);

    snapshot::Writer want, got;
    snapshot::visit(ovm, want);
    snapshot::visit(churned, got);
    EXPECT_EQ(got.buffer(), want.buffer());
}

TEST_F(OverlayManagerTest, NoOmsSpaceUntilWriteback)
{
    // §4.3.3: memory is allocated lazily on dirty-line eviction.
    ovm.writeLineData(kOpn, 0, pattern(1));
    EXPECT_EQ(ovm.omsBytesInUse(), 0u);
    ovm.writebackLine(lineAddr(kOpn, 0), 0);
    EXPECT_EQ(ovm.omsBytesInUse(), segClassBytes(SegClass::Seg256B));
}

TEST_F(OverlayManagerTest, SegmentGrowsThroughAllClasses)
{
    // Writing back more and more lines migrates the overlay up the
    // segment classes: 256 B (3 lines) -> 512 B (7) -> 1 KB (15) ->
    // 2 KB (31) -> 4 KB (64).
    Tick t = 0;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        ovm.writeLineData(kOpn, l, pattern(std::uint8_t(l)));
        t = ovm.writebackLine(lineAddr(kOpn, l), t);
        std::uint64_t expected =
            segClassBytes(segClassFor(l + 1));
        EXPECT_EQ(ovm.omsBytesInUse(), expected)
            << "after " << (l + 1) << " lines";
    }
    EXPECT_EQ(ovm.migrations(), 4u);
    // Contents survived every migration.
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        LineData out{};
        ovm.readLineData(kOpn, l, out);
        EXPECT_EQ(out, pattern(std::uint8_t(l)));
    }
}

TEST_F(OverlayManagerTest, RepeatedWritebackReusesSlot)
{
    ovm.writeLineData(kOpn, 5, pattern(1));
    ovm.writebackLine(lineAddr(kOpn, 5), 0);
    std::uint64_t bytes = ovm.omsBytesInUse();
    ovm.writebackLine(lineAddr(kOpn, 5), 1000);
    EXPECT_EQ(ovm.omsBytesInUse(), bytes); // no second slot
}

TEST_F(OverlayManagerTest, ReadLineGoesThroughOmtAndDram)
{
    ovm.writeLineData(kOpn, 3, pattern(2));
    ovm.writebackLine(lineAddr(kOpn, 3), 0);
    Tick done = ovm.readLine(lineAddr(kOpn, 3), 10'000);
    EXPECT_GT(done, 10'000u);
}

TEST_F(OverlayManagerTest, OmtCacheHitIsCheaperThanWalk)
{
    ovm.writeLineData(kOpn, 3, pattern(2));
    ovm.writebackLine(lineAddr(kOpn, 3), 0);
    ovm.omtCache().invalidate(kOpn);
    Tick cold = ovm.omtAccess(kOpn, 1'000'000) - 1'000'000;
    Tick warm = ovm.omtAccess(kOpn, 2'000'000) - 2'000'000;
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, ovm.omtCache().params().hitLatency);
}

TEST_F(OverlayManagerTest, DiscardFreesEverything)
{
    for (unsigned l = 0; l < 10; ++l) {
        ovm.writeLineData(kOpn, l, pattern(std::uint8_t(l)));
        ovm.writebackLine(lineAddr(kOpn, l), 0);
    }
    EXPECT_GT(ovm.omsBytesInUse(), 0u);
    ovm.discardOverlay(kOpn);
    EXPECT_FALSE(ovm.hasOverlay(kOpn));
    EXPECT_EQ(ovm.omsBytesInUse(), 0u);
    EXPECT_TRUE(ovm.obitvector(kOpn).none());
}

TEST_F(OverlayManagerTest, WritebackAfterDiscardIsDropped)
{
    ovm.writeLineData(kOpn, 4, pattern(1));
    ovm.discardOverlay(kOpn);
    // A stale dirty line arriving from the caches is squashed.
    Tick t = ovm.writebackLine(lineAddr(kOpn, 4), 100);
    EXPECT_GE(t, 100u);
    EXPECT_EQ(ovm.omsBytesInUse(), 0u);
}

TEST_F(OverlayManagerTest, ClearLineFreesSlotForReuse)
{
    for (unsigned l = 0; l < 3; ++l) {
        ovm.writeLineData(kOpn, l, pattern(std::uint8_t(l)));
        ovm.writebackLine(lineAddr(kOpn, l), 0);
    }
    std::uint64_t bytes = ovm.omsBytesInUse();
    ovm.clearLine(kOpn, 1);
    EXPECT_FALSE(ovm.obitvector(kOpn).test(1));
    // A new line reuses the freed slot: no growth.
    ovm.writeLineData(kOpn, 9, pattern(9));
    ovm.writebackLine(lineAddr(kOpn, 9), 0);
    EXPECT_EQ(ovm.omsBytesInUse(), bytes);
}

TEST_F(OverlayManagerTest, OverlayingReadExclusiveSetsOmtBit)
{
    Tick done = ovm.overlayingReadExclusive(kOpn, 22, 50);
    EXPECT_GE(done, 50u);
    EXPECT_TRUE(ovm.obitvector(kOpn).test(22));
}

TEST_F(OverlayManagerTest, DistinctOverlaysAreIndependent)
{
    Opn other = kOpn + 1;
    ovm.writeLineData(kOpn, 0, pattern(1));
    ovm.writeLineData(other, 0, pattern(2));
    LineData a{}, b{};
    ovm.readLineData(kOpn, 0, a);
    ovm.readLineData(other, 0, b);
    EXPECT_EQ(a, pattern(1));
    EXPECT_EQ(b, pattern(2));
    ovm.discardOverlay(kOpn);
    EXPECT_TRUE(ovm.hasOverlay(other));
}

TEST_F(OverlayManagerTest, SegmentCountsByClass)
{
    ovm.writeLineData(kOpn, 0, pattern(1));
    ovm.writebackLine(lineAddr(kOpn, 0), 0);
    EXPECT_EQ(ovm.segmentCount(SegClass::Seg256B), 1u);
    EXPECT_EQ(ovm.segmentCount(SegClass::Seg4KB), 0u);
}

TEST(OverlayHostMemory, ForkChurnHoldsOnlyLiveOverlays)
{
    // Fork overlay-on-write, write 8 lines of each of 64 pages in the
    // child, tear it down; repeat. Every child has its own ASID and so
    // its own OPN window, but the engine's host memory must follow the
    // live overlays: what a retired ASID leaves behind is its OMT chunk
    // record and radix-node map entries, well under 1 KiB.
    constexpr Addr kBase = 0x100000;
    constexpr unsigned kPages = 64;
    constexpr unsigned kCycles = 2000;
    constexpr unsigned kMeasureFrom = 100;
    System sys;
    const Asid parent = sys.createProcess();
    sys.mapAnon(parent, kBase, kPages * kPageSize);
    Tick t = 0;
    for (unsigned pg = 0; pg < kPages; ++pg) {
        std::uint64_t v = pg;
        t = sys.write(parent, kBase + pg * kPageSize, &v, sizeof(v), t);
    }
    auto addr = [&](unsigned pg, unsigned i, unsigned cycle) {
        unsigned line = (cycle + i * 7) % kLinesPerPage;
        return kBase + pg * kPageSize + line * kLineSize;
    };

    std::uint64_t host_at_measure = 0;
    for (unsigned c = 1; c <= kCycles; ++c) {
        Tick done = t;
        const Asid child =
            sys.fork(parent, ForkMode::OverlayOnWrite, t, &done);
        t = done;
        for (unsigned pg = 0; pg < kPages; ++pg) {
            for (unsigned i = 0; i < 8; ++i) {
                std::uint64_t v = (std::uint64_t(c) << 32) | (pg << 8) | i;
                t = sys.write(child, addr(pg, i, c), &v, sizeof(v), t);
            }
        }
        if (c % 16 == 0) {
            for (unsigned pg = 0; pg < kPages; ++pg) {
                for (unsigned i = 0; i < 8; ++i) {
                    Addr a = addr(pg, i, c);
                    std::uint64_t in_child = 0;
                    std::uint64_t in_parent = 0;
                    sys.peek(child, a, &in_child, sizeof(in_child));
                    sys.peek(parent, a, &in_parent, sizeof(in_parent));
                    ASSERT_EQ(in_child,
                              (std::uint64_t(c) << 32) | (pg << 8) | i)
                        << "cycle " << c << " page " << pg;
                    ASSERT_EQ(in_parent, a == kBase + pg * kPageSize ? pg : 0)
                        << "cycle " << c << " page " << pg;
                }
            }
        }
        sys.destroyProcess(child, t);
        if (c == kMeasureFrom)
            host_at_measure = sys.overlayManager().hostBytes();
    }
    std::uint64_t growth =
        sys.overlayManager().hostBytes() - host_at_measure;
    EXPECT_LE(growth, std::uint64_t(kCycles - kMeasureFrom) * 1024)
        << "host bytes per retired ASID: "
        << double(growth) / (kCycles - kMeasureFrom);
    EXPECT_EQ(sys.overlayManager().omt().slotArrayBytes(), 0u);
}

} // namespace
} // namespace ovl
