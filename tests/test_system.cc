/**
 * @file
 * Tests for the full System: the access semantics of Figure 2, the three
 * memory operations of §4.3 (read / simple write / overlaying write),
 * the CoW baseline fault path, fork (including overlay copying, §4.1),
 * overlay promotion (§4.3.4), and the metadata instructions (§5.3.4).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "overlay/hw_cost.hh"
#include "system/system.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;

class SystemTest : public ::testing::Test
{
  protected:
    SystemTest() : sys(SystemConfig{})
    {
        asid = sys.createProcess();
    }

    System sys;
    Asid asid = 0;
};

TEST_F(SystemTest, PokePeekRoundTrip)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint64_t magic = 0xA5A5'5A5A'DEAD'BEEF;
    sys.poke(asid, kBase + 1000, &magic, 8);
    std::uint64_t got = 0;
    sys.peek(asid, kBase + 1000, &got, 8);
    EXPECT_EQ(got, magic);
}

TEST_F(SystemTest, TimedWriteReadRoundTrip)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint32_t value = 0xCAFE;
    Tick t = sys.write(asid, kBase, &value, 4, 0);
    std::uint32_t got = 0;
    Tick t2 = sys.read(asid, kBase, &got, 4, t);
    EXPECT_EQ(got, value);
    EXPECT_GT(t2, t);
}

TEST_F(SystemTest, FirstAccessWalksThenTlbHits)
{
    sys.mapAnon(asid, kBase, kPageSize);
    AccessOutcome out;
    sys.access(asid, kBase, false, 0, &out);
    EXPECT_TRUE(out.tlbWalk);
    sys.access(asid, kBase + 64, false, 10'000, &out);
    EXPECT_FALSE(out.tlbWalk);
}

TEST_F(SystemTest, Figure2Semantics)
{
    // A page with both a physical page and an overlay: lines in the
    // overlay come from the overlay, the rest from the physical page.
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    double v1 = 1.5, v3 = 3.5;
    sys.poke(asid, kBase + 1 * kLineSize, &v1, 8); // line 1 -> overlay
    sys.poke(asid, kBase + 3 * kLineSize, &v3, 8); // line 3 -> overlay

    BitVector64 obv = sys.pageObv(asid, kBase);
    EXPECT_TRUE(obv.test(1));
    EXPECT_TRUE(obv.test(3));
    EXPECT_EQ(obv.count(), 2u);

    double got = -1;
    sys.peek(asid, kBase + 1 * kLineSize, &got, 8);
    EXPECT_EQ(got, 1.5);
    sys.peek(asid, kBase + 2 * kLineSize, &got, 8);
    EXPECT_EQ(got, 0.0); // zero physical page
    sys.peek(asid, kBase + 3 * kLineSize, &got, 8);
    EXPECT_EQ(got, 3.5);
}

TEST_F(SystemTest, OverlayingWriteMovesLineNotPage)
{
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    AccessOutcome out;
    sys.access(asid, kBase + 5 * kLineSize, true, 0, &out);
    EXPECT_TRUE(out.overlayingWrite);
    EXPECT_FALSE(out.cowFault);
    EXPECT_TRUE(sys.lineInOverlay(asid, kBase + 5 * kLineSize));
    EXPECT_FALSE(sys.lineInOverlay(asid, kBase + 6 * kLineSize));
    EXPECT_EQ(sys.overlayingWrites(), 1u);
    // No frame was allocated: the paper's capacity saving.
    EXPECT_EQ(sys.vmm().cowBreaks(), 0u);
}

TEST_F(SystemTest, SecondWriteToSameLineIsSimpleWrite)
{
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    sys.access(asid, kBase, true, 0);
    AccessOutcome out;
    sys.access(asid, kBase + 8, true, 10'000, &out);
    EXPECT_FALSE(out.overlayingWrite);
    EXPECT_TRUE(out.overlayLine);
    EXPECT_EQ(sys.overlayingWrites(), 1u);
}

TEST_F(SystemTest, OverlayingWriteIsCheaperThanCowFault)
{
    // Two processes sharing a page, one in each mode.
    SystemConfig cfg;
    System cow_sys(cfg), ovl_sys(cfg);
    Asid a = cow_sys.createProcess();
    cow_sys.mapAnon(a, kBase, kPageSize);
    Tick warm = cow_sys.access(a, kBase, false, 0);
    cow_sys.fork(a, ForkMode::CopyOnWrite, warm, &warm);

    Asid b = ovl_sys.createProcess();
    ovl_sys.mapAnon(b, kBase, kPageSize);
    Tick warm2 = ovl_sys.access(b, kBase, false, 0);
    ovl_sys.fork(b, ForkMode::OverlayOnWrite, warm2, &warm2);

    AccessOutcome cow_out, ovl_out;
    Tick cow_lat = cow_sys.access(a, kBase, true, warm, &cow_out) - warm;
    Tick ovl_lat = ovl_sys.access(b, kBase, true, warm2, &ovl_out) - warm2;
    EXPECT_TRUE(cow_out.cowFault);
    EXPECT_TRUE(ovl_out.overlayingWrite);
    // Figure 3: no copy, no shootdown on the overlay path.
    EXPECT_LT(ovl_lat, cow_lat / 4);
}

TEST_F(SystemTest, CowFaultCopiesPageAndUnshares)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint64_t magic = 0x1122334455667788;
    sys.poke(asid, kBase + 8, &magic, 8);

    Tick t = 0;
    Asid child = sys.fork(asid, ForkMode::CopyOnWrite, 0, &t);

    AccessOutcome out;
    sys.access(asid, kBase, true, t, &out);
    EXPECT_TRUE(out.cowFault);
    EXPECT_EQ(sys.cowFaults(), 1u);

    // Parent and child now have distinct frames with equal contents.
    Pte *ppte = sys.vmm().resolve(asid, pageNumber(kBase));
    Pte *cpte = sys.vmm().resolve(child, pageNumber(kBase));
    EXPECT_NE(ppte->ppn, cpte->ppn);
    std::uint64_t got = 0;
    sys.peek(child, kBase + 8, &got, 8);
    EXPECT_EQ(got, magic);
    sys.peek(asid, kBase + 8, &got, 8);
    EXPECT_EQ(got, magic);
}

TEST_F(SystemTest, ForkChildSeesParentDataThroughOverlayMode)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint32_t before = 111;
    sys.poke(asid, kBase, &before, 4);
    Tick t = 0;
    Asid child = sys.fork(asid, ForkMode::OverlayOnWrite, 0, &t);

    // Parent diverges one line.
    std::uint32_t after = 222;
    sys.write(asid, kBase, &after, 4, t);

    std::uint32_t got = 0;
    sys.peek(child, kBase, &got, 4);
    EXPECT_EQ(got, 111u); // child unaffected
    sys.peek(asid, kBase, &got, 4);
    EXPECT_EQ(got, 222u);
    // Both processes still share the single physical frame.
    EXPECT_EQ(sys.vmm().resolve(asid, pageNumber(kBase))->ppn,
              sys.vmm().resolve(child, pageNumber(kBase))->ppn);
}

TEST_F(SystemTest, ForkCopiesParentOverlays)
{
    // §4.1: overlays are never shared, so fork must duplicate them.
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    double v = 42.0;
    sys.poke(asid, kBase, &v, 8);
    Tick t = 0;
    Asid child = sys.fork(asid, ForkMode::OverlayOnWrite, 0, &t);
    EXPECT_TRUE(sys.lineInOverlay(child, kBase));
    double got = 0;
    sys.peek(child, kBase, &got, 8);
    EXPECT_EQ(got, 42.0);
    // And they are independent afterwards.
    double v2 = 43.0;
    sys.poke(asid, kBase, &v2, 8);
    sys.peek(child, kBase, &got, 8);
    EXPECT_EQ(got, 42.0);
}

TEST_F(SystemTest, PromoteCopyAndCommitMergesAndFrees)
{
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    double v = 7.25;
    sys.poke(asid, kBase + 2 * kLineSize, &v, 8);
    Tick t = sys.promoteOverlay(asid, kBase, PromoteAction::CopyAndCommit,
                                100);
    EXPECT_GT(t, 100u);
    // Overlay is gone; data persists in the new private frame.
    EXPECT_TRUE(sys.pageObv(asid, kBase).none());
    Pte *pte = sys.vmm().resolve(asid, pageNumber(kBase));
    EXPECT_NE(pte->ppn, PhysicalMemory::kZeroFrame);
    EXPECT_FALSE(pte->cow);
    double got = 0;
    sys.peek(asid, kBase + 2 * kLineSize, &got, 8);
    EXPECT_EQ(got, 7.25);
}

TEST_F(SystemTest, PromoteCommitWritesIntoExistingFrame)
{
    sys.mapAnon(asid, kBase, kPageSize);
    Pte *pte = sys.vmm().resolve(asid, pageNumber(kBase));
    Addr frame = pte->ppn;
    // Arm overlay capture on the private page (checkpoint-style).
    pte->cow = true;
    pte->overlayEnabled = true;
    double v = 9.5;
    sys.poke(asid, kBase + kLineSize, &v, 8);
    EXPECT_TRUE(sys.lineInOverlay(asid, kBase + kLineSize));

    sys.promoteOverlay(asid, kBase, PromoteAction::Commit, 0);
    EXPECT_TRUE(sys.pageObv(asid, kBase).none());
    EXPECT_EQ(sys.vmm().resolve(asid, pageNumber(kBase))->ppn, frame);
    double got = 0;
    sys.peek(asid, kBase + kLineSize, &got, 8);
    EXPECT_EQ(got, 9.5);
}

TEST_F(SystemTest, PromoteDiscardRevertsToPhysicalPage)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint64_t original = 1234;
    sys.poke(asid, kBase, &original, 8);
    Pte *pte = sys.vmm().resolve(asid, pageNumber(kBase));
    pte->cow = true;
    pte->overlayEnabled = true;

    std::uint64_t speculative = 5678;
    sys.poke(asid, kBase, &speculative, 8);
    std::uint64_t got = 0;
    sys.peek(asid, kBase, &got, 8);
    EXPECT_EQ(got, 5678u);

    sys.promoteOverlay(asid, kBase, PromoteAction::Discard, 0);
    sys.peek(asid, kBase, &got, 8);
    EXPECT_EQ(got, 1234u); // the physical page was never touched
}

TEST_F(SystemTest, PromotionPolicyConvertsDensePages)
{
    SystemConfig cfg;
    cfg.promoteThresholdLines = 8;
    System s(cfg);
    Asid a = s.createProcess();
    s.mapZeroOverlay(a, kBase, kPageSize);
    Tick t = 0;
    for (unsigned l = 0; l < 10; ++l)
        t = s.access(a, kBase + Addr(l) * kLineSize, true, t);
    // The 8th overlaying write crossed the threshold: page promoted.
    Pte *pte = s.vmm().resolve(a, pageNumber(kBase));
    EXPECT_NE(pte->ppn, PhysicalMemory::kZeroFrame);
    EXPECT_TRUE(s.pageObv(a, kBase).none());
}

TEST_F(SystemTest, AllZeroPromotionAllocatesNoHostBuffers)
{
    // Promoting an overlay of zero lines over a never-written page
    // merges 64 zero lines into the new frame: it maps onto the zero
    // page, and the zero overlay lines never held line storage.
    SystemConfig cfg;
    cfg.promoteThresholdLines = 8;
    System s(cfg);
    Asid a = s.createProcess();
    s.mapAnon(a, kBase, kPageSize);
    Tick t = s.access(a, kBase, true, 0);
    s.fork(a, ForkMode::OverlayOnWrite, t, &t);
    for (unsigned l = 0; l < 7; ++l)
        t = s.access(a, kBase + Addr(l) * kLineSize, true, t);
    EXPECT_EQ(s.overlayManager().lineStoreBytes(), 0u); // 7 zero lines
    t = s.access(a, kBase + 7 * kLineSize, true, t);
    EXPECT_TRUE(s.pageObv(a, kBase).none()) << "page was not promoted";
    EXPECT_EQ(s.physMem().pageBuffersInUse(), 0u);
    EXPECT_EQ(s.overlayManager().lineStoreBytes(), 0u);
    LineData got{};
    got.fill(0xFF);
    s.peek(a, kBase + 3 * kLineSize, got.data(), got.size());
    EXPECT_EQ(got, LineData{});
}

TEST_F(SystemTest, OverlaysDisabledFallsBackToCow)
{
    SystemConfig cfg;
    cfg.overlaysEnabled = false; // the §3.3 off switch
    System s(cfg);
    Asid a = s.createProcess();
    s.mapAnon(a, kBase, kPageSize);
    Tick t = 0;
    s.fork(a, ForkMode::OverlayOnWrite, 0, &t);
    AccessOutcome out;
    s.access(a, kBase, true, t, &out);
    EXPECT_TRUE(out.cowFault);
    EXPECT_FALSE(out.overlayingWrite);
    EXPECT_EQ(s.overlayingWrites(), 0u);
}

TEST_F(SystemTest, AdditionalMemoryTracksCowCopies)
{
    sys.mapAnon(asid, kBase, 4 * kPageSize);
    Tick t = 0;
    sys.fork(asid, ForkMode::CopyOnWrite, 0, &t);
    sys.markMemoryBaseline();
    for (unsigned p = 0; p < 4; ++p)
        t = sys.access(asid, kBase + p * kPageSize, true, t);
    EXPECT_EQ(sys.additionalMemoryBytes(), 4 * kPageSize);
}

TEST_F(SystemTest, AdditionalMemoryTracksOverlays)
{
    sys.mapAnon(asid, kBase, 4 * kPageSize);
    Tick t = 0;
    sys.fork(asid, ForkMode::OverlayOnWrite, 0, &t);
    sys.markMemoryBaseline();
    for (unsigned p = 0; p < 4; ++p)
        t = sys.access(asid, kBase + p * kPageSize, true, t);
    // Materialize OMS segments (as dirty evictions would).
    sys.caches().flushAll(t);
    // Four one-line overlays occupy four minimal 256 B segments; no
    // frames were copied.
    EXPECT_EQ(sys.overlayManager().omsBytesInUse(), 4 * 256u);
    EXPECT_EQ(sys.vmm().cowBreaks(), 0u);
    // The accounted additional memory includes the (page-granular) OMT
    // radix nodes, which dominate at this tiny scale but amortize over
    // real footprints (Figure 8).
    EXPECT_GE(sys.additionalMemoryBytes(), 4 * 256u);
}

TEST_F(SystemTest, MetadataInstructionsUseShadowSpace)
{
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint64_t data = 77;
    sys.poke(asid, kBase, &data, 8);

    Pte *pte = sys.vmm().resolve(asid, pageNumber(kBase));
    pte->overlayEnabled = true;
    pte->metadataMode = true;

    std::uint8_t taint = 1;
    sys.metadataPoke(asid, kBase, &taint, 1);
    // Regular loads still see the data, not the metadata (§5.3.4).
    std::uint64_t got = 0;
    sys.peek(asid, kBase, &got, 8);
    EXPECT_EQ(got, 77u);
    // Metadata loads see the shadow byte.
    std::uint8_t shadow = 0;
    sys.metadataPeek(asid, kBase, &shadow, 1);
    EXPECT_EQ(shadow, 1);
    // Unwritten shadow reads as zero.
    sys.metadataPeek(asid, kBase + 8, &shadow, 1);
    EXPECT_EQ(shadow, 0);
}

TEST_F(SystemTest, MetadataTimedAccess)
{
    sys.mapAnon(asid, kBase, kPageSize);
    Pte *pte = sys.vmm().resolve(asid, pageNumber(kBase));
    pte->overlayEnabled = true;
    pte->metadataMode = true;
    Tick t = sys.metadataAccess(asid, kBase, true, 0);
    EXPECT_GT(t, 0u);
    Tick t2 = sys.metadataAccess(asid, kBase, false, t);
    EXPECT_GT(t2, t);
}

TEST_F(SystemTest, TlbCoherenceKeepsCachedObvFresh)
{
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    // Load the translation into the TLB (empty OBitVector).
    sys.access(asid, kBase, false, 0);
    EXPECT_FALSE(sys.tlb().l1().probe(asid, pageNumber(kBase))
                     ->obv.test(0));
    // The overlaying write updates the cached entry via the ORE message,
    // not a shootdown.
    sys.access(asid, kBase, true, 1000);
    EXPECT_TRUE(sys.tlb().l1().probe(asid, pageNumber(kBase))
                    ->obv.test(0));
}

TEST_F(SystemTest, HardwareCostMatchesPaper)
{
    // §4.5: 4 KB (OMT cache) + 8.5 KB (TLBs) + 82 KB (tags) = 94.5 KB.
    HwCost cost = computeHwCost(HwCostParams{});
    EXPECT_EQ(cost.omtCacheBytes, 4096u);
    EXPECT_EQ(cost.tlbExtensionBytes, 8704u);
    EXPECT_EQ(cost.cacheTagExtensionBytes, 83968u);
    EXPECT_EQ(cost.totalBytes(), 96768u); // 94.5 KiB
    EXPECT_DOUBLE_EQ(double(cost.totalBytes()) / 1024.0, 94.5);
}

} // namespace
} // namespace ovl
