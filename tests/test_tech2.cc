/**
 * @file
 * Second-wave technique tests: checkpoint restore (rollback to any
 * captured state), backing-store accounting, overlay-matrix dynamic
 * deletion, and cross-technique interactions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "sparse/overlay_matrix.hh"
#include "tech/checkpoint.hh"
#include "tech/speculation.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x400000;

class RestoreTest : public ::testing::Test
{
  protected:
    RestoreTest() : sys(SystemConfig{}), ckpt(sys, asid = sys.createProcess())
    {
        sys.mapAnon(asid, kBase, 4 * kPageSize);
        std::uint64_t v = 100;
        sys.poke(asid, kBase, &v, 8);
        ckpt.addRange(kBase, 4 * kPageSize);
    }

    std::uint64_t
    value(Addr addr = kBase)
    {
        std::uint64_t v = 0;
        sys.peek(asid, addr, &v, 8);
        return v;
    }

    void
    store(std::uint64_t v, Addr addr = kBase)
    {
        sys.poke(asid, addr, &v, 8);
    }

    System sys;
    Asid asid;
    tech::CheckpointManager ckpt;
};

TEST_F(RestoreTest, RestoreToBaseDiscardsEverything)
{
    store(200);
    ckpt.takeCheckpoint(0);
    store(300);
    ckpt.takeCheckpoint(1000);
    store(999); // uncheckpointed tail

    ckpt.restore(0, 2000);
    EXPECT_EQ(value(), 100u);
}

TEST_F(RestoreTest, RestoreToIntermediateCheckpoint)
{
    store(200);
    ckpt.takeCheckpoint(0);
    store(300);
    ckpt.takeCheckpoint(1000);

    ckpt.restore(2, 2000);
    EXPECT_EQ(value(), 300u);
    ckpt.restore(1, 3000);
    EXPECT_EQ(value(), 200u);
    // Rolling back to 1 destroyed checkpoint 2 (linear history).
    EXPECT_EQ(ckpt.checkpointsTaken(), 1u);
}

TEST_F(RestoreTest, UncapturedTailIsDropped)
{
    store(200);
    ckpt.takeCheckpoint(0);
    store(555); // never checkpointed
    EXPECT_EQ(value(), 555u);
    ckpt.restore(1, 1000);
    EXPECT_EQ(value(), 200u);
}

TEST_F(RestoreTest, CaptureContinuesAfterRestore)
{
    store(200);
    ckpt.takeCheckpoint(0);
    ckpt.restore(0, 1000);
    store(777);
    tech::CheckpointStats stats = ckpt.takeCheckpoint(2000);
    EXPECT_EQ(stats.dirtyLines, 1u);
    EXPECT_EQ(value(), 777u);
}

TEST_F(RestoreTest, MultiLineMultiPageRoundTrip)
{
    Rng rng(5);
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    for (unsigned i = 0; i < 50; ++i) {
        Addr addr = kBase + rng.below(4 * kPageSize / 8) * 8;
        std::uint64_t v = rng.next();
        store(v, addr);
        writes.push_back({addr, v});
    }
    ckpt.takeCheckpoint(0);
    // Scramble everything.
    for (auto &[addr, v] : writes)
        store(0xDEAD, addr);
    ckpt.restore(1, 1000);
    for (auto &[addr, v] : writes) {
        // Later writes in the list may overwrite earlier ones at the
        // same address; verify against a replayed host model instead.
        (void)addr;
        (void)v;
    }
    // Replay host-side to compute the expected state.
    std::vector<std::uint64_t> expect(4 * kPageSize / 8, 0);
    expect[0] = 100;
    for (auto &[addr, v] : writes)
        expect[(addr - kBase) / 8] = v;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(value(kBase + i * 8), expect[i]) << "slot " << i;
    }
}

TEST_F(RestoreTest, BackingStoreBytesGrowWithDeltas)
{
    std::uint64_t base_bytes = ckpt.backingStoreBytes();
    EXPECT_EQ(base_bytes, 4 * kPageSize); // the arm-time image
    store(1);
    ckpt.takeCheckpoint(0);
    EXPECT_EQ(ckpt.backingStoreBytes(), base_bytes + kLineSize);
}

// --------------------- overlay-matrix dynamic delete --------------------

TEST(OverlayMatrixDelete, RemoveReclaimsWholeZeroLines)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    OverlayMatrix m(sys, asid, 0x1000'0000);

    CooMatrix coo;
    coo.rows = 2;
    coo.cols = 16;
    coo.entries = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 3, 3.0}};
    coo.canonicalize();
    m.build(coo);

    // Line (0, 0..7) holds two non-zeros; removing one keeps the line.
    m.remove(0, 0, 0);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_TRUE(sys.lineInOverlay(asid, m.addrOf(0, 0)));

    // Removing the last non-zero reclaims the line.
    m.remove(0, 1, 1000);
    EXPECT_FALSE(sys.lineInOverlay(asid, m.addrOf(0, 0)));
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);

    // The other row's line is untouched.
    EXPECT_DOUBLE_EQ(m.at(1, 3), 3.0);
}

TEST(OverlayMatrixDelete, InsertAfterRemoveWorks)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    OverlayMatrix m(sys, asid, 0x1000'0000);
    CooMatrix coo;
    coo.rows = 1;
    coo.cols = 8;
    coo.entries = {{0, 2, 5.0}};
    m.build(coo);

    m.remove(0, 2, 0);
    EXPECT_FALSE(sys.lineInOverlay(asid, m.addrOf(0, 2)));
    m.insert(0, 4, 6.0, 1000);
    EXPECT_TRUE(sys.lineInOverlay(asid, m.addrOf(0, 4)));
    EXPECT_DOUBLE_EQ(m.at(0, 4), 6.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

// --------------------- technique interaction ---------------------------

TEST(TechInteraction, SpeculationInsideCheckpointInterval)
{
    // A speculative region over a checkpointed range: the abort must not
    // disturb the checkpoint capture.
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    std::uint64_t v = 5;
    sys.poke(asid, kBase, &v, 8);

    tech::CheckpointManager ckpt(sys, asid);
    ckpt.addRange(kBase, kPageSize);

    std::uint64_t v2 = 6;
    sys.poke(asid, kBase, &v2, 8); // captured update

    tech::CheckpointStats stats = ckpt.takeCheckpoint(0);
    EXPECT_EQ(stats.dirtyLines, 1u);

    // Now speculate over the same page and abort.
    tech::SpeculativeRegion region(sys, asid);
    region.begin(kBase, kPageSize);
    std::uint64_t v3 = 99;
    sys.poke(asid, kBase, &v3, 8);
    region.abort(1000);

    std::uint64_t got = 0;
    sys.peek(asid, kBase, &got, 8);
    EXPECT_EQ(got, 6u);

    // Restore to the checkpoint still works.
    // Note: SpeculativeRegion::disarm cleared the page's capture bits, so
    // re-arm via a fresh restore (restore re-arms internally).
    ckpt.restore(0, 2000);
    sys.peek(asid, kBase, &got, 8);
    EXPECT_EQ(got, 5u);
}

} // namespace
} // namespace ovl
