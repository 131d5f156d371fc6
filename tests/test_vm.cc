/**
 * @file
 * Tests for the functional VM layer: physical memory (frames, refcounts,
 * zero frame), page tables, and the Vmm (mapping, fork, CoW breaks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/snapshot.hh"
#include "vm/vmm.hh"

namespace ovl
{
namespace
{

TEST(PhysicalMemory, FreshFramesReadAsZero)
{
    PhysicalMemory mem("mem", 64_MiB);
    Addr frame = mem.allocFrame();
    LineData line;
    mem.readLine(frame << kPageShift, line);
    for (std::uint8_t b : line)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, WriteReadRoundTrip)
{
    PhysicalMemory mem("mem", 64_MiB);
    Addr frame = mem.allocFrame();
    Addr paddr = (frame << kPageShift) + 100;
    std::uint32_t value = 0xDEADBEEF;
    mem.writeBytes(paddr, &value, sizeof(value));
    std::uint32_t got = 0;
    mem.readBytes(paddr, &got, sizeof(got));
    EXPECT_EQ(got, value);
}

TEST(PhysicalMemory, RefcountLifecycle)
{
    PhysicalMemory mem("mem", 64_MiB);
    Addr frame = mem.allocFrame();
    EXPECT_EQ(mem.refCount(frame), 1u);
    mem.addRef(frame);
    EXPECT_EQ(mem.refCount(frame), 2u);
    mem.release(frame);
    EXPECT_EQ(mem.refCount(frame), 1u);
    std::uint64_t in_use = mem.framesInUse();
    mem.release(frame);
    EXPECT_EQ(mem.refCount(frame), 0u);
    EXPECT_EQ(mem.framesInUse(), in_use - 1);
}

TEST(PhysicalMemory, FreedFramesAreRecycledWithZeroContents)
{
    PhysicalMemory mem("mem", 64_MiB);
    Addr frame = mem.allocFrame();
    std::uint8_t junk = 0xAB;
    mem.writeBytes(frame << kPageShift, &junk, 1);
    mem.release(frame);
    Addr again = mem.allocFrame();
    EXPECT_EQ(again, frame); // LIFO free list
    std::uint8_t got = 0xFF;
    mem.readBytes(again << kPageShift, &got, 1);
    EXPECT_EQ(got, 0);
}

// Regression: alloc -> dirty the whole page -> release -> alloc must
// hand back a frame that reads as zero in every byte, even when the
// allocator recycles backing storage instead of freeing it.
TEST(PhysicalMemory, RecycledFramesAreFullyZeroed)
{
    PhysicalMemory mem("mem", 64_MiB);
    std::vector<Addr> frames;
    for (int i = 0; i < 4; ++i) {
        Addr f = mem.allocFrame();
        std::vector<std::uint8_t> junk(kPageSize, 0xCD);
        mem.writeBytes(f << kPageShift, junk.data(), junk.size());
        frames.push_back(f);
    }
    for (Addr f : frames)
        mem.release(f);
    for (int i = 0; i < 4; ++i) {
        Addr f = mem.allocFrame();
        std::vector<std::uint8_t> got(kPageSize, 0xFF);
        mem.readBytes(f << kPageShift, got.data(), got.size());
        for (unsigned off = 0; off < kPageSize; ++off)
            ASSERT_EQ(got[off], 0) << "frame " << f << " byte " << off;
    }
}

TEST(PhysicalMemory, ZeroFrameNeverDies)
{
    PhysicalMemory mem("mem", 64_MiB);
    mem.release(PhysicalMemory::kZeroFrame);
    EXPECT_GE(mem.refCount(PhysicalMemory::kZeroFrame), 1u);
}

TEST(PhysicalMemory, CopyFrameDuplicatesContents)
{
    PhysicalMemory mem("mem", 64_MiB);
    Addr a = mem.allocFrame();
    Addr b = mem.allocFrame();
    std::uint64_t magic = 0x123456789ABCDEF0;
    mem.writeBytes((a << kPageShift) + 8, &magic, 8);
    mem.copyFrame(b, a);
    std::uint64_t got = 0;
    mem.readBytes((b << kPageShift) + 8, &got, 8);
    EXPECT_EQ(got, magic);
}

TEST(PhysicalMemory, ZeroWritesMapTheZeroPage)
{
    // Zeros stored into a frame that reads as zero allocate no buffer,
    // yet the frame counts as materialized: it serializes as a 4 KB
    // page of zeros, exactly as a zero-filled private buffer would.
    PhysicalMemory mem("mem", 64_MiB);
    Addr untouched = mem.allocFrame();
    Addr zeroed = mem.allocFrame();
    const LineData zeros{};
    mem.writeLine(zeroed << kPageShift, zeros);
    EXPECT_EQ(mem.pageBuffersInUse(), 0u);
    snapshot::Writer with_page;
    snapshot::visit(mem, with_page);

    PhysicalMemory bare("mem", 64_MiB);
    bare.allocFrame();
    bare.allocFrame();
    snapshot::Writer without_page;
    snapshot::visit(bare, without_page);
    EXPECT_EQ(with_page.buffer().size(),
              without_page.buffer().size() + 8 + kPageSize);

    // A nonzero write then gives the frame its own buffer.
    std::uint8_t one = 1;
    mem.writeBytes((zeroed << kPageShift) + 5, &one, 1);
    EXPECT_EQ(mem.pageBuffersInUse(), 1u);
    LineData got{};
    mem.readLine(zeroed << kPageShift, got);
    EXPECT_EQ(got[5], 1);
    EXPECT_EQ(got[4], 0);
    mem.readLine(untouched << kPageShift, got);
    EXPECT_EQ(got, zeros);
}

TEST(PhysicalMemory, RestoredZeroPagesAllocateNothing)
{
    // One frame holds a private buffer of zeros (written, then zeroed),
    // one the zero page: both restore onto the zero page, and the
    // restored memory serializes to the same bytes.
    PhysicalMemory mem("mem", 64_MiB);
    Addr a = mem.allocFrame();
    Addr b = mem.allocFrame();
    std::uint64_t value = 0xC0FFEE;
    mem.writeBytes(a << kPageShift, &value, 8);
    value = 0;
    mem.writeBytes(a << kPageShift, &value, 8);
    mem.writeBytes(b << kPageShift, &value, 8);
    EXPECT_EQ(mem.pageBuffersInUse(), 1u);
    snapshot::Writer w;
    snapshot::visit(mem, w);

    PhysicalMemory restored("mem", 64_MiB);
    snapshot::Reader r(w.buffer());
    snapshot::visit(restored, r);
    EXPECT_EQ(restored.pageBuffersInUse(), 0u);
    snapshot::Writer again;
    snapshot::visit(restored, again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(PageTable, SetFindErase)
{
    PageTable pt;
    EXPECT_EQ(pt.find(5), nullptr);
    Pte pte;
    pte.ppn = 9;
    pte.present = true;
    pt.set(5, pte);
    ASSERT_NE(pt.find(5), nullptr);
    EXPECT_EQ(pt.find(5)->ppn, 9u);
    pt.erase(5);
    EXPECT_EQ(pt.find(5), nullptr);
}

// ---- PageTable against a reference std::map --------------------------

/** VPN of @p offset within the 512-entry leaf chunk @p chunk. */
Addr
vpnOf(Addr chunk, Addr offset)
{
    return (chunk << 9) | offset;
}

/**
 * A page table driven in lockstep with a std::map<vpn, ppn>: every
 * mutation goes to both, and check() compares every probe VPN's find()
 * and the full ascending iteration.
 */
class RefTable
{
  public:
    explicit RefTable(std::vector<Addr> chunks) : chunks_(std::move(chunks))
    {
        // Probe the leaf edges and a middle entry of every chunk, plus
        // chunks below, between and above the directory.
        std::vector<Addr> probe_chunks = chunks_;
        probe_chunks.push_back(0);
        probe_chunks.push_back(chunks_.back() + 1);
        probe_chunks.push_back(chunks_.back() + 1000);
        for (Addr c = chunks_.front(); c <= chunks_.back(); ++c)
            probe_chunks.push_back(c);
        for (Addr c : probe_chunks) {
            for (Addr off : kOffsets)
                probes_.push_back(vpnOf(c, off));
        }
    }

    /** Offsets a chunk's VPNs use: few, so leaves empty and refill. */
    static constexpr Addr kOffsets[] = {0, 1, 200, 511};

    void
    set(Addr vpn, Addr ppn)
    {
        Pte pte;
        pte.ppn = ppn;
        pte.present = true;
        pte.writable = (ppn & 1) != 0;
        pt.set(vpn, pte);
        ref[vpn] = ppn;
    }

    void
    erase(Addr vpn)
    {
        pt.erase(vpn);
        ref.erase(vpn);
    }

    void
    fillChunk(Addr chunk)
    {
        for (Addr off : kOffsets)
            set(vpnOf(chunk, off), chunk * 1000 + off);
    }

    void
    eraseChunk(Addr chunk)
    {
        for (Addr off : kOffsets)
            erase(vpnOf(chunk, off));
    }

    /** Random set/erase/find over the table's chunks for @p steps. */
    void
    randomOps(Rng &rng, unsigned steps)
    {
        for (unsigned i = 0; i < steps; ++i) {
            Addr vpn = vpnOf(chunks_[rng.below(chunks_.size())],
                             kOffsets[rng.below(std::size(kOffsets))]);
            switch (rng.below(3)) {
              case 0:
                set(vpn, rng.below(1u << 20));
                break;
              case 1:
                erase(vpn);
                break;
              default:
                expectFind(vpn);
                break;
            }
            if (i % 64 == 0)
                check();
        }
        check();
    }

    void
    expectFind(Addr vpn) const
    {
        const Pte *pte = std::as_const(pt).find(vpn);
        auto it = ref.find(vpn);
        if (it == ref.end()) {
            EXPECT_EQ(pte, nullptr) << "vpn " << vpn;
        } else {
            ASSERT_NE(pte, nullptr) << "vpn " << vpn;
            EXPECT_EQ(pte->ppn, it->second) << "vpn " << vpn;
        }
    }

    /** Every probe VPN and the whole iteration agree with the map. */
    void
    check() const
    {
        ASSERT_EQ(pt.size(), ref.size());
        for (Addr vpn : probes_)
            expectFind(vpn);
        auto it = ref.begin();
        for (auto &&[vpn, pte] : pt) {
            ASSERT_NE(it, ref.end());
            EXPECT_EQ(vpn, it->first);
            EXPECT_EQ(pte.ppn, it->second);
            ++it;
        }
        EXPECT_EQ(it, ref.end());
    }

    PageTable pt;
    std::map<Addr, Addr> ref;

  private:
    std::vector<Addr> chunks_;
    std::vector<Addr> probes_;
};

TEST(PageTable, MatchesReferenceMapWithoutGaps)
{
    RefTable t({7, 8, 9, 10, 11, 12, 13, 14});
    for (Addr c = 7; c <= 14; ++c)
        t.fillChunk(c);
    t.check();
    Rng rng(21);
    t.randomOps(rng, 4000);
}

TEST(PageTable, MatchesReferenceMapWithGaps)
{
    RefTable t({3, 4, 5, 9, 10, 20, 100});
    Rng rng(22);
    t.randomOps(rng, 4000);
}

TEST(PageTable, ErasingTheFirstLeafMovesTheIndexBase)
{
    RefTable t({7, 8, 9, 10});
    for (Addr c = 7; c <= 10; ++c)
        t.fillChunk(c);
    t.eraseChunk(7); // directory now starts at chunk 8
    t.check();
    t.eraseChunk(8);
    t.check();
    t.fillChunk(7); // back below the base: a gap at chunk 8
    t.check();
}

TEST(PageTable, RefilledGapIsFoundAgain)
{
    RefTable t({7, 8, 9, 10});
    for (Addr c = 7; c <= 10; ++c)
        t.fillChunk(c);
    t.eraseChunk(9);
    t.check();
    t.fillChunk(9);
    t.check();
}

TEST(PageTable, SnapshotRoundTripKeepsTheMapping)
{
    RefTable t({3, 4, 5, 9, 10, 20});
    Rng rng(23);
    t.randomOps(rng, 1000);
    snapshot::Writer w;
    snapshot::visit(t.pt, w);

    RefTable restored({3, 4, 5, 9, 10, 20});
    restored.ref = t.ref;
    snapshot::Reader r(w.buffer());
    snapshot::visit(restored.pt, r);
    restored.check();
    snapshot::Writer again;
    snapshot::visit(restored.pt, again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

/** The PTE of @p vpn's flag combination @p flags (bit 0 writable, 1 cow,
 *  2 overlayEnabled, 3 metadataMode). */
Pte
flaggedPte(Addr ppn, unsigned flags)
{
    Pte pte;
    pte.ppn = ppn;
    pte.present = true;
    pte.writable = flags & 1;
    pte.cow = (flags >> 1) & 1;
    pte.overlayEnabled = (flags >> 2) & 1;
    pte.metadataMode = (flags >> 3) & 1;
    return pte;
}

TEST(PageTable, SnapshotKeepsEveryFlagCombination)
{
    // Two leaves: every flag combination at scattered offsets with ppns
    // of one to five varint bytes, and an odd PTE count so the last
    // flags byte is half padding.
    PageTable pt;
    std::map<Addr, Pte> ref;
    for (unsigned i = 0; i < 33; ++i) {
        Addr vpn = (Addr(5) << 9 | (i * 97) % 512) + (i >= 16 ? 512 * 7 : 0);
        Pte pte = flaggedPte(Addr(1) << (i % 33), i % 16);
        pt.set(vpn, pte);
        ref[vpn] = pte;
    }
    snapshot::Writer w;
    snapshot::visit(pt, w);
    PageTable restored;
    snapshot::Reader r(w.buffer());
    snapshot::visit(restored, r);
    ASSERT_EQ(restored.size(), ref.size());
    auto it = ref.begin();
    for (auto &&[vpn, pte] : restored) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(vpn, it->first);
        EXPECT_EQ(pte.ppn, it->second.ppn);
        EXPECT_TRUE(pte.present);
        EXPECT_EQ(pte.writable, it->second.writable) << "vpn " << vpn;
        EXPECT_EQ(pte.cow, it->second.cow) << "vpn " << vpn;
        EXPECT_EQ(pte.overlayEnabled, it->second.overlayEnabled);
        EXPECT_EQ(pte.metadataMode, it->second.metadataMode);
        ++it;
    }
    EXPECT_EQ(it, ref.end());
    snapshot::Writer again;
    snapshot::visit(restored, again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(PageTable, RestoreRejectsAnEmptyLeafAndFlagPadding)
{
    // One leaf mapping three PTEs. PGTB body: leaf count (u64), leaf id
    // (u64), the 64-byte present bitmap, one varint per present ppn
    // (one byte each here), then the 4-bit flags packed two to a byte.
    PageTable pt;
    for (Addr off : {2, 40, 300})
        pt.set((Addr(3) << 9) | off, flaggedPte(off / 4 + 1, 0xF));
    snapshot::Writer w;
    snapshot::visit(pt, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();
    const std::size_t bitmap = 12 + 8 + 8;
    const std::size_t flags = bitmap + 64 + 3;
    ASSERT_EQ(good.size(), flags + 2);
    ASSERT_EQ(good[flags], 0xFFu);
    ASSERT_EQ(good[flags + 1], 0x0Fu);

    auto throws = [](const std::vector<std::uint8_t> &bytes) {
        PageTable fresh;
        snapshot::Reader r(bytes);
        try {
            snapshot::visit(fresh, r);
        } catch (const snapshot::SnapshotError &) {
            return true;
        }
        return false;
    };
    EXPECT_FALSE(throws(good));

    std::vector<std::uint8_t> empty = good;
    std::fill(empty.begin() + long(bitmap), empty.begin() + long(bitmap + 64),
              std::uint8_t(0));
    EXPECT_TRUE(throws(empty)) << "leaf with an empty bitmap";

    std::vector<std::uint8_t> padded = good;
    padded[flags + 1] = 0x1F;
    EXPECT_TRUE(throws(padded)) << "nonzero padding in the flags";
}

class VmmTest : public ::testing::Test
{
  protected:
    VmmTest() : mem("mem", 256_MiB), vmm("vmm", mem) {}

    PhysicalMemory mem;
    Vmm vmm;
};

TEST_F(VmmTest, MapAnonAllocatesPrivateFrames)
{
    Asid pid = vmm.createProcess();
    vmm.mapAnon(pid, 0x10000, 4 * kPageSize);
    for (unsigned i = 0; i < 4; ++i) {
        Pte *pte = vmm.resolve(pid, pageNumber(0x10000) + i);
        ASSERT_NE(pte, nullptr);
        EXPECT_TRUE(pte->present);
        EXPECT_TRUE(pte->writable);
        EXPECT_FALSE(pte->cow);
        EXPECT_EQ(mem.refCount(pte->ppn), 1u);
    }
}

TEST_F(VmmTest, MapZeroCowMapsSharedZeroFrame)
{
    Asid pid = vmm.createProcess();
    vmm.mapZeroCow(pid, 0x10000, kPageSize, true);
    Pte *pte = vmm.resolve(pid, pageNumber(0x10000));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->ppn, PhysicalMemory::kZeroFrame);
    EXPECT_TRUE(pte->cow);
    EXPECT_TRUE(pte->overlayEnabled);
}

TEST_F(VmmTest, ForkSharesFramesCopyOnWrite)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, 2 * kPageSize);
    Addr ppn0 = vmm.resolve(parent, pageNumber(0x10000))->ppn;

    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    Pte *parent_pte = vmm.resolve(parent, pageNumber(0x10000));
    Pte *child_pte = vmm.resolve(child, pageNumber(0x10000));
    ASSERT_NE(child_pte, nullptr);
    EXPECT_EQ(parent_pte->ppn, child_pte->ppn);
    EXPECT_EQ(child_pte->ppn, ppn0);
    EXPECT_TRUE(parent_pte->cow);
    EXPECT_TRUE(child_pte->cow);
    EXPECT_FALSE(parent_pte->overlayEnabled);
    EXPECT_EQ(mem.refCount(ppn0), 2u);
}

TEST_F(VmmTest, ForkOverlayModeSetsOverlayBit)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize);
    Asid child = vmm.fork(parent, ForkMode::OverlayOnWrite);
    EXPECT_TRUE(vmm.resolve(parent, pageNumber(0x10000))->overlayEnabled);
    EXPECT_TRUE(vmm.resolve(child, pageNumber(0x10000))->overlayEnabled);
}

TEST_F(VmmTest, ForkSkipsReadOnlyPagesForCow)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize, /*writable=*/false);
    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    EXPECT_FALSE(vmm.resolve(parent, pageNumber(0x10000))->cow);
    EXPECT_FALSE(vmm.resolve(child, pageNumber(0x10000))->cow);
    // Still shared (read-only sharing needs no CoW).
    EXPECT_EQ(vmm.resolve(parent, pageNumber(0x10000))->ppn,
              vmm.resolve(child, pageNumber(0x10000))->ppn);
}

TEST_F(VmmTest, BreakCowCopiesWhenShared)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize);
    std::uint64_t magic = 0xFEEDFACE;
    Pte *pte = vmm.resolve(parent, pageNumber(0x10000));
    mem.writeBytes(pte->ppn << kPageShift, &magic, 8);

    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    Addr shared_ppn = pte->ppn;
    bool copied = false;
    Addr new_ppn = vmm.breakCow(child, pageNumber(0x10000), &copied);
    EXPECT_TRUE(copied);
    EXPECT_NE(new_ppn, shared_ppn);
    // Contents were carried over.
    std::uint64_t got = 0;
    mem.readBytes(new_ppn << kPageShift, &got, 8);
    EXPECT_EQ(got, magic);
    // The parent still maps the original, now with refcount 1.
    EXPECT_EQ(vmm.resolve(parent, pageNumber(0x10000))->ppn, shared_ppn);
    EXPECT_EQ(mem.refCount(shared_ppn), 1u);
    EXPECT_FALSE(vmm.resolve(child, pageNumber(0x10000))->cow);
}

TEST_F(VmmTest, CowFaultOnNeverWrittenFrameAllocatesNoBuffer)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize);
    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    bool copied = false;
    Addr ppn = vmm.breakCow(child, pageNumber(0x10000), &copied);
    EXPECT_TRUE(copied);
    EXPECT_EQ(mem.pageBuffersInUse(), 0u);
    LineData line{};
    line.fill(0xFF);
    mem.readLine(ppn << kPageShift, line);
    EXPECT_EQ(line, LineData{});
}

TEST_F(VmmTest, CowCopySharesItsBufferUntilWritten)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize);
    Addr parent_ppn = vmm.resolve(parent, pageNumber(0x10000))->ppn;
    std::uint64_t magic = 0xFEEDFACE;
    mem.writeBytes(parent_ppn << kPageShift, &magic, 8);
    EXPECT_EQ(mem.pageBuffersInUse(), 1u);

    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    Addr child_ppn = vmm.breakCow(child, pageNumber(0x10000));
    ASSERT_NE(child_ppn, parent_ppn);
    EXPECT_EQ(mem.pageBuffersInUse(), 1u); // the copy shares the buffer
    std::uint64_t got = 0;
    mem.readBytes(child_ppn << kPageShift, &got, 8);
    EXPECT_EQ(got, magic);

    std::uint64_t other = 0xBADC0DE;
    mem.writeBytes((child_ppn << kPageShift) + 4, &other, 8);
    EXPECT_EQ(mem.pageBuffersInUse(), 2u); // the first write copied it
    mem.readBytes(parent_ppn << kPageShift, &got, 8);
    EXPECT_EQ(got, magic);
    std::uint64_t child_got = 0;
    mem.readBytes((child_ppn << kPageShift) + 4, &child_got, 8);
    EXPECT_EQ(child_got, other);
}

TEST_F(VmmTest, BreakCowLastSharerKeepsFrame)
{
    Asid parent = vmm.createProcess();
    vmm.mapAnon(parent, 0x10000, kPageSize);
    Asid child = vmm.fork(parent, ForkMode::CopyOnWrite);
    vmm.breakCow(child, pageNumber(0x10000));
    // Parent is now the last sharer: no copy needed.
    Addr parent_ppn = vmm.resolve(parent, pageNumber(0x10000))->ppn;
    bool copied = true;
    Addr got = vmm.breakCow(parent, pageNumber(0x10000), &copied);
    EXPECT_FALSE(copied);
    EXPECT_EQ(got, parent_ppn);
}

TEST_F(VmmTest, BreakCowOnZeroFrameAllocatesZeroedPage)
{
    Asid pid = vmm.createProcess();
    vmm.mapZeroCow(pid, 0x10000, kPageSize, false);
    bool copied = false;
    Addr ppn = vmm.breakCow(pid, pageNumber(0x10000), &copied);
    EXPECT_TRUE(copied);
    EXPECT_NE(ppn, PhysicalMemory::kZeroFrame);
    LineData line;
    mem.readLine(ppn << kPageShift, line);
    for (std::uint8_t b : line)
        EXPECT_EQ(b, 0);
}

TEST_F(VmmTest, UnmapReleasesFrames)
{
    Asid pid = vmm.createProcess();
    vmm.mapAnon(pid, 0x10000, 2 * kPageSize);
    std::uint64_t before = mem.framesInUse();
    vmm.unmap(pid, 0x10000, 2 * kPageSize);
    EXPECT_EQ(mem.framesInUse(), before - 2);
    EXPECT_EQ(vmm.resolve(pid, pageNumber(0x10000)), nullptr);
}

TEST_F(VmmTest, ProtectTogglesWritable)
{
    Asid pid = vmm.createProcess();
    vmm.mapAnon(pid, 0x10000, kPageSize);
    vmm.protect(pid, 0x10000, kPageSize, false);
    EXPECT_FALSE(vmm.resolve(pid, pageNumber(0x10000))->writable);
    vmm.protect(pid, 0x10000, kPageSize, true);
    EXPECT_TRUE(vmm.resolve(pid, pageNumber(0x10000))->writable);
}

} // namespace
} // namespace ovl
