/**
 * @file
 * Tests for the Overlay Mapping Table and the memory-controller OMT
 * cache (§4.2, §4.4.4).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "overlay/omt.hh"
#include "sim/snapshot.hh"

#include "ref_lru.hh"

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

class OmtTest : public ::testing::Test
{
  protected:
    Addr next_ = 0x100000;
    Omt omt{"omt", PageAllocFn{&bumpPage, &next_}};
};

TEST_F(OmtTest, FindOrCreateAndErase)
{
    EXPECT_EQ(omt.find(42), nullptr);
    OmtEntry &e = omt.findOrCreate(42);
    e.obv.set(3);
    ASSERT_NE(omt.find(42), nullptr);
    EXPECT_TRUE(omt.find(42)->obv.test(3));
    EXPECT_EQ(omt.size(), 1u);
    omt.erase(42);
    EXPECT_EQ(omt.find(42), nullptr);
    EXPECT_EQ(omt.size(), 0u);
}

TEST_F(OmtTest, WalkTouchesFourLevelsForExistingEntries)
{
    // Walks never allocate: an absent subtree terminates immediately...
    std::vector<Addr> walk;
    omt.walkAddresses(0x12345, walk);
    EXPECT_TRUE(walk.empty());
    // ...while entry creation materializes the full radix path.
    omt.findOrCreate(0x12345);
    omt.walkAddresses(0x12345, walk);
    EXPECT_EQ(walk.size(), Omt::kWalkLevels);
}

TEST_F(OmtTest, WalkOfNeighbouringAbsentEntryStopsAtSharedLevels)
{
    omt.findOrCreate(0x12345);
    // A nearby OPN shares the upper levels but has no deeper nodes of
    // its own (same leaf range here, so the walk reaches the leaf).
    std::vector<Addr> walk;
    omt.walkAddresses(0x12346, walk);
    EXPECT_EQ(walk.size(), Omt::kWalkLevels);
    // A distant OPN diverges at the root's child: only the root exists.
    omt.walkAddresses(Addr(1) << 40, walk);
    EXPECT_LT(walk.size(), Omt::kWalkLevels);
}

TEST_F(OmtTest, NearbyOpnsShareUpperLevels)
{
    omt.findOrCreate(0x1000);
    omt.findOrCreate(0x1001);
    std::vector<Addr> walk_a, walk_b;
    omt.walkAddresses(0x1000, walk_a);
    omt.walkAddresses(0x1001, walk_b);
    ASSERT_EQ(walk_a.size(), Omt::kWalkLevels);
    ASSERT_EQ(walk_b.size(), Omt::kWalkLevels);
    // Adjacent OPNs share the root and differ (at most) in the leaf.
    EXPECT_EQ(walk_a[0], walk_b[0]);
    EXPECT_EQ(walk_a[1], walk_b[1]);
    EXPECT_EQ(walk_a[2], walk_b[2]);
}

TEST_F(OmtTest, DistantOpnsDivergeEarly)
{
    omt.findOrCreate(0x0);
    omt.findOrCreate(Addr(1) << 35);
    std::vector<Addr> walk_a, walk_b;
    omt.walkAddresses(0x0, walk_a);
    omt.walkAddresses(Addr(1) << 35, walk_b);
    ASSERT_EQ(walk_a.size(), Omt::kWalkLevels);
    ASSERT_EQ(walk_b.size(), Omt::kWalkLevels);
    EXPECT_NE(walk_a[3], walk_b[3]);
}

TEST_F(OmtTest, NodeBytesGrowWithFootprint)
{
    omt.findOrCreate(0);
    std::uint64_t first = omt.nodeBytes();
    EXPECT_GT(first, 0u);
    omt.findOrCreate(Addr(1) << 40);
    EXPECT_GT(omt.nodeBytes(), first);
}

TEST_F(OmtTest, EraseOfMruCachedEntryIsVisibleImmediately)
{
    // Regression guard for the one-entry MRU cache: erasing the OPN that
    // is currently cached must drop the cached pointer, or the very next
    // find() would resurrect the dead entry.
    OmtEntry &e = omt.findOrCreate(77); // 77 is now the MRU entry
    e.obv.set(5);
    omt.erase(77);
    EXPECT_EQ(omt.find(77), nullptr);
    // Re-creating it must yield a pristine entry, not the stale payload.
    OmtEntry &fresh = omt.findOrCreate(77);
    EXPECT_FALSE(fresh.obv.test(5));
}

TEST_F(OmtTest, EraseThenArenaReuseCannotAliasTheMru)
{
    // The erased entry's arena slot is recycled by the next creation; a
    // stale MRU pointer for the erased OPN would alias the new OPN's
    // entry. find(old) after the reuse must still say "gone".
    omt.findOrCreate(100).obv.set(1);
    omt.erase(100);
    OmtEntry &reused = omt.findOrCreate(200); // recycles 100's slot
    reused.obv.set(2);
    EXPECT_EQ(omt.find(100), nullptr);
    ASSERT_NE(omt.find(200), nullptr);
    EXPECT_TRUE(omt.find(200)->obv.test(2));
    EXPECT_FALSE(omt.find(200)->obv.test(1));
}

/** Bytes of one chunk's slot array: 512 four-byte arena indices. */
constexpr std::uint64_t kSlotArrayBytes = 512 * 4;

TEST_F(OmtTest, RetiredChunksFreeTheirSlotArraysAndKeepTheirWalks)
{
    // Three 512-OPN windows, far enough apart to differ in every level
    // but the root; a few entries each, plus one OPN never populated.
    const Opn windows[] = {Opn(8) << 9, Opn(9) << 9, Opn(1) << 30};
    const unsigned offsets[] = {0, 7, 100, 300, 511};
    std::vector<Opn> opns;
    for (Opn base : windows) {
        for (unsigned off : offsets) {
            omt.findOrCreate(base + off).obv.set(off & 63);
            opns.push_back(base + off);
        }
    }
    std::vector<Opn> probes = opns;
    probes.push_back(windows[0] + 200);
    EXPECT_EQ(omt.slotArrayBytes(), 3 * kSlotArrayBytes);

    std::vector<std::vector<Addr>> walks(probes.size());
    std::vector<Addr> last;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        omt.walkAddresses(probes[i], walks[i]);
        ASSERT_EQ(walks[i].size(), Omt::kWalkLevels);
        last.push_back(omt.walkLastAddr(probes[i]));
    }
    std::uint64_t node_bytes = omt.nodeBytes();
    std::uint64_t host = omt.hostBytes();

    for (Opn opn : opns)
        omt.erase(opn);
    EXPECT_EQ(omt.size(), 0u);
    EXPECT_EQ(omt.chunkCount(), 3u);
    EXPECT_EQ(omt.slotArrayBytes(), 0u);
    EXPECT_LT(omt.hostBytes(), host);
    EXPECT_EQ(omt.nodeBytes(), node_bytes); // node pages are never freed

    std::vector<Addr> walk;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(omt.find(probes[i]), nullptr);
        omt.walkAddresses(probes[i], walk);
        EXPECT_EQ(walk, walks[i]) << "OPN " << probes[i];
        EXPECT_EQ(omt.walkLastAddr(probes[i]), last[i]);
    }

    // A retired table saves each window with a live count of zero and
    // restores without slot arrays, byte for byte.
    snapshot::Writer w;
    snapshot::visit(omt, w);
    Addr next = 0x900000;
    Omt restored("omt", PageAllocFn{&bumpPage, &next});
    snapshot::Reader r(w.buffer());
    snapshot::visit(restored, r);
    EXPECT_EQ(restored.slotArrayBytes(), 0u);
    EXPECT_EQ(restored.chunkCount(), 3u);
    snapshot::Writer again;
    snapshot::visit(restored, again);
    EXPECT_EQ(again.buffer(), w.buffer());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        restored.walkAddresses(probes[i], walk);
        EXPECT_EQ(walk, walks[i]) << "OPN " << probes[i];
    }

    // Re-creating an entry in a retired window brings back one slot
    // array and no node page.
    omt.findOrCreate(opns[1]).obv.set(9);
    ASSERT_NE(omt.find(opns[1]), nullptr);
    EXPECT_TRUE(omt.find(opns[1])->obv.test(9));
    EXPECT_FALSE(omt.find(opns[1])->obv.test(7));
    EXPECT_EQ(omt.find(opns[0]), nullptr);
    EXPECT_EQ(omt.slotArrayBytes(), kSlotArrayBytes);
    EXPECT_EQ(omt.nodeBytes(), node_bytes);
    omt.walkAddresses(opns[1], walk);
    EXPECT_EQ(walk, walks[1]);
}

/** The snapshot bytes of @p omt. */
std::vector<std::uint8_t>
saved(const Omt &omt)
{
    snapshot::Writer w;
    snapshot::visit(omt, w);
    return w.takeBuffer();
}

TEST(OmtSnapshot, BytesDependOnTheMappingNotItsHistory)
{
    // The same entries reached directly and through creates and erases
    // in another order serialize alike: no arena index or free list is
    // written. The windows are first populated in the same order in
    // both histories, so their node pages sit at the same addresses.
    const Opn x = Opn(8) << 9;
    const Opn y = Opn(9) << 9;
    Addr next_direct = 0x100000;
    Addr next_churned = 0x100000;
    Omt direct("omt", PageAllocFn{&bumpPage, &next_direct});
    Omt churned("omt", PageAllocFn{&bumpPage, &next_churned});

    direct.findOrCreate(x + 5).obv.set(1);
    churned.findOrCreate(x + 400).obv.set(9);
    churned.findOrCreate(x + 5).obv.set(1);
    churned.erase(x + 400);
    EXPECT_EQ(saved(churned), saved(direct)) << "one entry";

    direct.findOrCreate(x + 17).obv.set(2);
    direct.findOrCreate(y + 3).obv.set(3);
    churned.findOrCreate(x + 300).obv.set(9);
    churned.findOrCreate(y + 9).obv.set(9);
    churned.findOrCreate(y + 3).obv.set(3);
    churned.erase(x + 300);
    churned.findOrCreate(x + 17).obv.set(2);
    churned.erase(y + 9);
    const std::vector<std::uint8_t> bytes = saved(direct);
    EXPECT_EQ(saved(churned), bytes) << "entries in two windows";

    // Restore rebuilds the arena compactly and saves the same bytes.
    Addr next = 0x900000;
    Omt restored("omt", PageAllocFn{&bumpPage, &next});
    snapshot::Reader r(bytes);
    snapshot::visit(restored, r);
    EXPECT_EQ(restored.size(), 3u);
    EXPECT_EQ(saved(restored), bytes);
    EXPECT_LT(restored.hostBytes(), churned.hostBytes());
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(bytes[at + i]) << (8 * i);
    return v;
}

template <class T>
void
putLe(std::vector<std::uint8_t> &bytes, std::size_t at, T v)
{
    for (unsigned i = 0; i < sizeof(T); ++i)
        bytes[at + i] = std::uint8_t(std::uint64_t(v) >> (8 * i));
}

TEST_F(OmtTest, RestoreRejectsChunksOutOfOrderOrOffTheNodeMap)
{
    // One entry in window 8, two in window 9.
    const Opn x = Opn(8) << 9;
    const Opn y = Opn(9) << 9;
    omt.findOrCreate(x + 3);
    omt.findOrCreate(y + 5);
    omt.findOrCreate(y + 17);
    const std::vector<std::uint8_t> good = saved(omt);

    // "OMT " body: the node map (u64 count, 16-byte {key, base} records),
    // the chunk count, then per chunk its id (u64) and live count (u16)
    // and per entry its slot offset (u16) and a 25-byte body (obv, no
    // segment, present and stored bitmaps, no stored lines).
    constexpr std::size_t kEntry = 2 + 25;
    const std::size_t chunks = 12 + 8 + 16 * getU64(good, 12);
    const std::size_t first_id = chunks + 8;
    const std::size_t second_id = first_id + 8 + 2 + kEntry;
    const std::size_t last_offset = second_id + 8 + 2 + kEntry;
    ASSERT_EQ(getU64(good, chunks), 2u);
    ASSERT_EQ(getU64(good, first_id), 8u);
    ASSERT_EQ(getU64(good, second_id), 9u);
    ASSERT_EQ(good[last_offset], 17u);
    ASSERT_EQ(good.size(), last_offset + kEntry);

    auto throws = [](const std::vector<std::uint8_t> &bytes) {
        Addr next = 0x900000;
        Omt fresh("omt", PageAllocFn{&bumpPage, &next});
        snapshot::Reader r(bytes);
        try {
            snapshot::visit(fresh, r);
        } catch (const snapshot::SnapshotError &) {
            return true;
        }
        return false;
    };
    EXPECT_FALSE(throws(good));

    for (auto [what, first, second] :
         {std::tuple{"repeated chunk id", 8u, 8u},
          std::tuple{"descending chunk ids", 9u, 8u},
          std::tuple{"chunk without a leaf node", 8u, 10u}}) {
        std::vector<std::uint8_t> bad = good;
        putLe(bad, first_id, std::uint64_t(first));
        putLe(bad, second_id, std::uint64_t(second));
        EXPECT_TRUE(throws(bad)) << what;
    }
    for (auto [what, value] :
         {std::pair{"repeated slot offset", 5u},
          std::pair{"descending slot offset", 4u},
          std::pair{"slot offset past the chunk", 512u}}) {
        std::vector<std::uint8_t> bad = good;
        putLe(bad, last_offset, std::uint16_t(value));
        EXPECT_TRUE(throws(bad)) << what;
    }
}

TEST(OmtSparsity, ScatteredOpnsStayCompactAndCorrect)
{
    // Property: OPNs scattered across the full 51-bit overlay space must
    // not blow the table up — storage is one small chunk per populated
    // 512-OPN window, never a dense index over the OPN itself. (A dense
    // table over 2^51 OPNs would fail this test by running out of
    // memory long before it finished.)
    Addr next = 0x100000;
    Omt omt("omt", PageAllocFn{&bumpPage, &next});
    Rng rng(21);
    std::vector<Opn> opns;
    for (int i = 0; i < 1000; ++i) {
        Opn opn = (Opn(1) << 50) | (rng.next() & ((Opn(1) << 50) - 1));
        if (omt.find(opn) != nullptr)
            continue; // rare collision
        omt.findOrCreate(opn).obv.set(unsigned(opn) & 63);
        opns.push_back(opn);
    }
    EXPECT_EQ(omt.size(), opns.size());
    // Every populated window holds at least one live entry.
    EXPECT_LE(omt.chunkCount(), opns.size());

    std::vector<Addr> walk;
    for (Opn opn : opns) {
        ASSERT_NE(omt.find(opn), nullptr);
        EXPECT_TRUE(omt.find(opn)->obv.test(unsigned(opn) & 63));
        // Created entries have a full radix path, and the cached-chunk
        // walk must agree with the generic node-map walk's last level.
        omt.walkAddresses(opn, walk);
        ASSERT_EQ(walk.size(), Omt::kWalkLevels);
        EXPECT_EQ(omt.walkLastAddr(opn), walk.back());
    }

    // Erase half; the survivors must be unaffected.
    for (std::size_t i = 0; i < opns.size(); i += 2)
        omt.erase(opns[i]);
    for (std::size_t i = 0; i < opns.size(); ++i) {
        if (i % 2 == 0) {
            EXPECT_EQ(omt.find(opns[i]), nullptr);
        } else {
            ASSERT_NE(omt.find(opns[i]), nullptr);
            EXPECT_TRUE(
                omt.find(opns[i])->obv.test(unsigned(opns[i]) & 63));
        }
    }
}

TEST(OmtCache, HitAfterMiss)
{
    OmtCache cache("omtc", OmtCacheParams{});
    EXPECT_FALSE(cache.lookupAllocate(7).hit);
    EXPECT_TRUE(cache.lookupAllocate(7).hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(OmtCache, Is64EntriesAnd4KBofSram)
{
    // §4.5: 64 entries x 512 bits = 4 KB.
    OmtCache cache("omtc", OmtCacheParams{});
    EXPECT_EQ(cache.params().entries, 64u);
    EXPECT_EQ(cache.storageBits(), 64u * 512u);
    EXPECT_EQ(cache.storageBits() / 8, 4096u);
}

TEST(OmtCache, EvictionWritesBackModifiedEntries)
{
    OmtCacheParams params;
    params.entries = 4;
    params.associativity = 2; // 2 sets
    OmtCache cache("omtc", params);

    // Fill set 0 (even OPNs) and modify one entry.
    cache.lookupAllocate(0);
    cache.lookupAllocate(2);
    cache.markModified(0);
    // Next even OPN evicts the LRU (0), which is modified.
    auto res = cache.lookupAllocate(4);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.needsWriteback);
    EXPECT_EQ(res.writebackOpn, 0u);
}

TEST(OmtCache, CleanEvictionNeedsNoWriteback)
{
    OmtCacheParams params;
    params.entries = 4;
    params.associativity = 2;
    OmtCache cache("omtc", params);
    cache.lookupAllocate(0);
    cache.lookupAllocate(2);
    auto res = cache.lookupAllocate(4);
    EXPECT_FALSE(res.needsWriteback);
}

TEST(OmtCache, InvalidateReportsModified)
{
    OmtCache cache("omtc", OmtCacheParams{});
    cache.lookupAllocate(9);
    cache.markModified(9);
    EXPECT_TRUE(cache.isPresent(9));
    EXPECT_TRUE(cache.invalidate(9));
    EXPECT_FALSE(cache.isPresent(9));
    EXPECT_FALSE(cache.invalidate(9)); // already gone
}

TEST(OmtCache, LruWithinSet)
{
    OmtCacheParams params;
    params.entries = 4;
    params.associativity = 2;
    OmtCache cache("omtc", params);
    cache.lookupAllocate(0);
    cache.lookupAllocate(2);
    cache.lookupAllocate(0); // refresh 0
    cache.lookupAllocate(4); // evicts 2
    EXPECT_TRUE(cache.isPresent(0));
    EXPECT_FALSE(cache.isPresent(2));
    EXPECT_TRUE(cache.isPresent(4));
}

TEST(OmtCache, VictimMatchesReferenceLoop)
{
    // 4 and 8 ways scan at a compile-time width; the rest at run time.
    for (unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 64u}) {
        const unsigned entries = 4 * ways; // four sets
        OmtCacheParams params;
        params.entries = entries;
        params.associativity = ways;
        OmtCache cache("omtc", params);
        test::RefLru ref(entries, ways);
        std::vector<bool> modified(entries, false);
        Rng rng(entries + ways);
        unsigned writebacks = 0;
        for (unsigned step = 0; step < 8000; ++step) {
            const Opn opn = rng.below(3 * entries);
            switch (rng.below(5)) {
              case 0: {
                // Invalidations leave invalid ways mid-set.
                bool was_modified = false;
                if (const int w = ref.erase(opn); w >= 0) {
                    was_modified = modified[std::size_t(w)];
                    modified[std::size_t(w)] = false;
                }
                ASSERT_EQ(cache.invalidate(opn), was_modified)
                    << ways << " ways, step " << step;
                break;
              }
              case 1:
                cache.markModified(opn);
                if (const int w = ref.find(opn); w >= 0)
                    modified[std::size_t(w)] = true;
                break;
              default: {
                const bool modify = rng.below(2) != 0;
                const auto got = modify ? cache.lookupAllocateModify(opn)
                                        : cache.lookupAllocate(opn);
                const test::RefLru::Claim c = ref.claim(opn);
                const bool writeback = !c.hit &&
                                       c.displaced != test::RefLru::kEmpty &&
                                       modified[c.way];
                modified[c.way] = (c.hit && modified[c.way]) || modify;
                writebacks += writeback;
                ASSERT_EQ(got.hit, c.hit) << ways << " ways, step " << step;
                ASSERT_EQ(got.needsWriteback, writeback)
                    << ways << " ways, step " << step;
                if (writeback) {
                    ASSERT_EQ(got.writebackOpn, c.displaced)
                        << ways << " ways, step " << step;
                }
                break;
              }
            }
            if (step % 64 == 0) {
                for (Opn o = 0; o < 3 * entries; ++o) {
                    ASSERT_EQ(cache.isPresent(o), ref.find(o) >= 0)
                        << ways << " ways, step " << step << ", opn " << o;
                }
            }
        }
        EXPECT_GT(writebacks, 100u) << ways << " ways";
    }
}

TEST(OmtCacheDeathTest, AssociativityOutOfRangeIsRejected)
{
    OmtCacheParams zero;
    zero.associativity = 0;
    EXPECT_DEATH(OmtCache("omtc", zero), "associativity");
    OmtCacheParams wide;
    wide.entries = 130;
    wide.associativity = 65;
    EXPECT_DEATH(OmtCache("omtc", wide), "associativity");
}

} // namespace
} // namespace ovl
