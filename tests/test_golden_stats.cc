/**
 * @file
 * Golden-determinism guard: runs a small fixed-seed workload (fork +
 * overlaying writes + a sparse SpMV slice + promotion + teardown) and
 * pins the exact simulated tick totals and key counters. Host-side
 * performance refactors must keep the timing model bit-for-bit
 * identical; if this test fails after an "optimization", the change
 * altered simulated behavior and must be fixed, not re-pinned.
 *
 * The pinned constants were captured from the pre-optimization tree
 * (PR 2) after iteration orders were normalized to ascending VPN; they
 * are independent of host compiler, standard library and container
 * iteration order by construction.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "system/system.hh"

using namespace ovl;

namespace
{

constexpr Addr kHeap = 0x100000;
constexpr Addr kSparse = 0x4000000;

/** Everything the guard pins, gathered in one struct for readability. */
struct Golden
{
    Tick finalTick;
    std::uint64_t accesses;
    std::uint64_t cowFaults;
    std::uint64_t overlayingWrites;
    std::uint64_t l1Hits;
    std::uint64_t l2Hits;
    std::uint64_t l3Hits;
    std::uint64_t dramRowHits;
    std::uint64_t framesInUse;
    std::uint64_t omsBytes;
};

Golden
runOverlayWorkload()
{
    System sys;
    Asid parent = sys.createProcess();
    constexpr unsigned kPages = 32;
    sys.mapAnon(parent, kHeap, kPages * kPageSize);

    // Warm the heap: write every line with a recognizable pattern.
    Tick t = 0;
    for (unsigned pg = 0; pg < kPages; ++pg) {
        for (unsigned l = 0; l < kLinesPerPage; l += 2) {
            std::uint64_t v = pg * 100 + l;
            t = sys.write(parent, kHeap + pg * kPageSize + l * kLineSize,
                          &v, sizeof(v), t);
        }
    }

    // Fork overlay-on-write; the child diverges a deterministic sparse
    // subset of lines (every 5th line of every 3rd page).
    Asid child = sys.fork(parent, ForkMode::OverlayOnWrite, t, &t);
    for (unsigned pg = 0; pg < kPages; pg += 3) {
        for (unsigned l = 0; l < kLinesPerPage; l += 5) {
            std::uint64_t v = ~std::uint64_t(pg * 100 + l);
            t = sys.write(child, kHeap + pg * kPageSize + l * kLineSize,
                          &v, sizeof(v), t);
        }
    }

    // Parent reads its view back (must still see the original pattern).
    for (unsigned pg = 0; pg < kPages; pg += 4) {
        std::uint64_t v = 0;
        t = sys.read(parent, kHeap + pg * kPageSize, &v, sizeof(v), t);
        EXPECT_EQ(v, std::uint64_t(pg * 100));
    }

    // Sparse SpMV slice: zero-backed overlay region, scattered writes,
    // then a row sweep with a deterministic RNG-driven access mix.
    constexpr unsigned kSparsePages = 16;
    sys.mapZeroOverlay(parent, kSparse, kSparsePages * kPageSize);
    Rng rng(2024);
    for (unsigned pg = 0; pg < kSparsePages; ++pg) {
        for (unsigned l = pg % 7; l < kLinesPerPage; l += 7) {
            double val = pg * 1000.0 + l;
            t = sys.write(parent, kSparse + pg * kPageSize + l * kLineSize,
                          &val, sizeof(val), t);
        }
    }
    for (unsigned i = 0; i < 2000; ++i) {
        Addr va = kSparse +
                  lineBase(rng.below(kSparsePages * kPageSize));
        double out = 0;
        t = sys.read(parent, va, &out, sizeof(out), t);
    }

    // Promote one densely-overlaid page back to a regular page.
    t = sys.promoteOverlay(child, kHeap, PromoteAction::CopyAndCommit, t);

    // Tear the child down: unmap, frame recycling, cache invalidations.
    sys.destroyProcess(child, t);

    // Flush dirty lines to the controller so the sparse region's dirty
    // overlay lines hit the lazy OMS slot-allocation path (§4.3.3) and
    // omsBytes pins a non-trivial allocator state.
    sys.caches().flushAll(t);

    Golden g{};
    g.finalTick = t;
    g.accesses = sys.caches().l1().hits() + sys.caches().l1().misses();
    g.cowFaults = sys.cowFaults();
    g.overlayingWrites = sys.overlayingWrites();
    g.l1Hits = sys.caches().l1().hits();
    g.l2Hits = sys.caches().l2().hits();
    g.l3Hits = sys.caches().l3().hits();
    g.dramRowHits = sys.dramController().dram().rowHits();
    g.framesInUse = sys.physMem().framesInUse();
    g.omsBytes = sys.overlayManager().omsBytesInUse();
    return g;
}

Golden
runCowWorkload()
{
    SystemConfig cfg;
    cfg.overlaysEnabled = false;
    System sys(cfg);
    Asid parent = sys.createProcess();
    constexpr unsigned kPages = 16;
    sys.mapAnon(parent, kHeap, kPages * kPageSize);

    Tick t = 0;
    for (unsigned pg = 0; pg < kPages; ++pg) {
        std::uint64_t v = pg;
        t = sys.write(parent, kHeap + pg * kPageSize, &v, sizeof(v), t);
    }
    Asid child = sys.fork(parent, ForkMode::CopyOnWrite, t, &t);
    for (unsigned pg = 0; pg < kPages; pg += 2) {
        std::uint64_t v = ~std::uint64_t(pg);
        t = sys.write(child, kHeap + pg * kPageSize, &v, sizeof(v), t);
    }
    sys.destroyProcess(child, t);

    Golden g{};
    g.finalTick = t;
    g.accesses = sys.caches().l1().hits() + sys.caches().l1().misses();
    g.cowFaults = sys.cowFaults();
    g.overlayingWrites = sys.overlayingWrites();
    g.l1Hits = sys.caches().l1().hits();
    g.l2Hits = sys.caches().l2().hits();
    g.l3Hits = sys.caches().l3().hits();
    g.dramRowHits = sys.dramController().dram().rowHits();
    g.framesInUse = sys.physMem().framesInUse();
    g.omsBytes = sys.overlayManager().omsBytesInUse();
    return g;
}

/**
 * Miniature random_mix slice: the bench workload's exact access
 * recipe (fixed-seed 2:1 read/write mix, same Rng stream) over a
 * smaller footprint, timing path only. Extends the tick-identity gate
 * to the workload the DRAM fast paths target.
 */
Golden
runRandomMixSlice()
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 2ull << 20;
    sys.mapAnon(p, kHeap, kBufBytes);

    Rng rng(12345);
    Tick t = 0;
    for (unsigned i = 0; i < 3000; ++i) {
        Addr va = kHeap + lineBase(rng.below(kBufBytes));
        t = sys.access(p, va, i % 3 == 2, t);
    }
    sys.caches().flushAll(t);

    Golden g{};
    g.finalTick = t;
    g.accesses = sys.caches().l1().hits() + sys.caches().l1().misses();
    g.cowFaults = sys.cowFaults();
    g.overlayingWrites = sys.overlayingWrites();
    g.l1Hits = sys.caches().l1().hits();
    g.l2Hits = sys.caches().l2().hits();
    g.l3Hits = sys.caches().l3().hits();
    g.dramRowHits = sys.dramController().dram().rowHits();
    g.framesInUse = sys.physMem().framesInUse();
    g.omsBytes = sys.overlayManager().omsBytesInUse();
    return g;
}

/** Miniature seq_write slice: wrapping sequential line writes. */
Golden
runSeqWriteSlice()
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 1ull << 20;
    sys.mapAnon(p, kHeap, kBufBytes);

    Tick t = 0;
    for (unsigned i = 0; i < 3000; ++i) {
        Addr va = kHeap + (Addr(i) * kLineSize) % kBufBytes;
        t = sys.access(p, va, true, t);
    }
    sys.caches().flushAll(t);

    Golden g{};
    g.finalTick = t;
    g.accesses = sys.caches().l1().hits() + sys.caches().l1().misses();
    g.cowFaults = sys.cowFaults();
    g.overlayingWrites = sys.overlayingWrites();
    g.l1Hits = sys.caches().l1().hits();
    g.l2Hits = sys.caches().l2().hits();
    g.l3Hits = sys.caches().l3().hits();
    g.dramRowHits = sys.dramController().dram().rowHits();
    g.framesInUse = sys.physMem().framesInUse();
    g.omsBytes = sys.overlayManager().omsBytesInUse();
    return g;
}

} // namespace

TEST(GoldenStats, RandomMixSliceIsBitForBitStable)
{
    Golden g = runRandomMixSlice();
    EXPECT_EQ(g.finalTick, 958075u);
    EXPECT_EQ(g.accesses, 3000u);
    EXPECT_EQ(g.cowFaults, 0u);
    EXPECT_EQ(g.overlayingWrites, 0u);
    EXPECT_EQ(g.l1Hits, 73u);
    EXPECT_EQ(g.l2Hits, 63u);
    EXPECT_EQ(g.l3Hits, 0u);
    EXPECT_EQ(g.dramRowHits, 108u);
    EXPECT_EQ(g.framesInUse, 576u);
    EXPECT_EQ(g.omsBytes, 0u);
}

TEST(GoldenStats, SeqWriteSliceIsBitForBitStable)
{
    Golden g = runSeqWriteSlice();
    EXPECT_EQ(g.finalTick, 161587u);
    EXPECT_EQ(g.accesses, 3000u);
    EXPECT_EQ(g.cowFaults, 0u);
    EXPECT_EQ(g.overlayingWrites, 0u);
    EXPECT_EQ(g.l1Hits, 0u);
    EXPECT_EQ(g.l2Hits, 0u);
    EXPECT_EQ(g.l3Hits, 2998u);
    EXPECT_EQ(g.dramRowHits, 1079u);
    EXPECT_EQ(g.framesInUse, 320u);
    EXPECT_EQ(g.omsBytes, 0u);
}

TEST(GoldenStats, OverlayWorkloadIsBitForBitStable)
{
    Golden g = runOverlayWorkload();
    EXPECT_EQ(g.finalTick, 185699u);
    EXPECT_EQ(g.accesses, 3509u);
    EXPECT_EQ(g.cowFaults, 0u);
    EXPECT_EQ(g.overlayingWrites, 290u);
    EXPECT_EQ(g.l1Hits, 2014u);
    EXPECT_EQ(g.l2Hits, 101u);
    EXPECT_EQ(g.l3Hits, 1313u);
    EXPECT_EQ(g.dramRowHits, 902u);
    EXPECT_EQ(g.framesInUse, 104u);
    EXPECT_EQ(g.omsBytes, 16384u);
}

TEST(GoldenStats, CowWorkloadIsBitForBitStable)
{
    Golden g = runCowWorkload();
    EXPECT_EQ(g.finalTick, 90450u);
    EXPECT_EQ(g.accesses, 1048u);
    EXPECT_EQ(g.cowFaults, 8u);
    EXPECT_EQ(g.overlayingWrites, 0u);
    EXPECT_EQ(g.l1Hits, 10u);
    EXPECT_EQ(g.l2Hits, 6u);
    EXPECT_EQ(g.l3Hits, 818u);
    EXPECT_EQ(g.dramRowHits, 671u);
    EXPECT_EQ(g.framesInUse, 80u);
    EXPECT_EQ(g.omsBytes, 0u);
}

/** Two independent runs in one process must agree exactly. */
TEST(GoldenStats, RepeatRunsAreIdentical)
{
    Golden a = runOverlayWorkload();
    Golden b = runOverlayWorkload();
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
    EXPECT_EQ(a.framesInUse, b.framesInUse);
    EXPECT_EQ(a.omsBytes, b.omsBytes);
}
