/**
 * @file
 * Tests for the two-level TLB with OBitVector extension and the
 * overlaying-read-exclusive coherence hook (§4.3.3).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "sim/snapshot.hh"
#include "tlb/tlb.hh"

#include "ref_lru.hh"

namespace ovl
{
namespace
{

TlbEntryData
entry(Addr ppn)
{
    TlbEntryData d;
    d.ppn = ppn;
    d.writable = true;
    return d;
}

TEST(Tlb, MissThenHit)
{
    Tlb tlb("tlb", TlbParams{64, 4, 1});
    EXPECT_EQ(tlb.lookup(1, 100), nullptr);
    tlb.insert(1, 100, entry(7));
    TlbEntryData *e = tlb.lookup(1, 100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, 7u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, AsidsAreDisjoint)
{
    Tlb tlb("tlb", TlbParams{64, 4, 1});
    tlb.insert(1, 100, entry(7));
    EXPECT_EQ(tlb.lookup(2, 100), nullptr);
    tlb.insert(2, 100, entry(9));
    EXPECT_EQ(tlb.lookup(1, 100)->ppn, 7u);
    EXPECT_EQ(tlb.lookup(2, 100)->ppn, 9u);
}

TEST(Tlb, InsertEvictsLruWithinSet)
{
    Tlb tlb("tlb", TlbParams{8, 2, 1}); // 4 sets, 2 ways
    // Same set: VPNs congruent mod 4.
    tlb.insert(1, 0, entry(10));
    tlb.insert(1, 4, entry(11));
    tlb.lookup(1, 0); // refresh vpn 0
    tlb.insert(1, 8, entry(12)); // evicts vpn 4
    EXPECT_NE(tlb.lookup(1, 0), nullptr);
    EXPECT_EQ(tlb.lookup(1, 4), nullptr);
    EXPECT_NE(tlb.lookup(1, 8), nullptr);
}

TEST(Tlb, ReinsertUpdatesInPlace)
{
    Tlb tlb("tlb", TlbParams{8, 2, 1});
    tlb.insert(1, 0, entry(10));
    tlb.insert(1, 0, entry(20));
    EXPECT_EQ(tlb.lookup(1, 0)->ppn, 20u);
}

TEST(Tlb, InvalidateAsidDropsOnlyThatProcess)
{
    Tlb tlb("tlb", TlbParams{64, 4, 1});
    tlb.insert(1, 5, entry(1));
    tlb.insert(2, 5, entry(2));
    tlb.invalidateAsid(1);
    EXPECT_EQ(tlb.lookup(1, 5), nullptr);
    EXPECT_NE(tlb.lookup(2, 5), nullptr);
}

TEST(Tlb, CoherenceUpdatesObvBit)
{
    Tlb tlb("tlb", TlbParams{64, 4, 1});
    tlb.insert(1, 5, entry(1));
    EXPECT_TRUE(tlb.updateObvBit(1, 5, 13, true));
    EXPECT_TRUE(tlb.lookup(1, 5)->obv.test(13));
    EXPECT_TRUE(tlb.updateObvBit(1, 5, 13, false));
    EXPECT_FALSE(tlb.lookup(1, 5)->obv.test(13));
    // Absent mappings report false (no TLB holds the page).
    EXPECT_FALSE(tlb.updateObvBit(1, 99, 0, true));
}

TEST(TwoLevelTlb, L1HitLatency)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    tlb.fill(1, 42, entry(3));
    TlbAccessResult res = tlb.access(1, 42);
    ASSERT_NE(res.entry, nullptr);
    EXPECT_FALSE(res.needsWalk);
    EXPECT_EQ(res.latency, 1u);
}

TEST(TwoLevelTlb, L2HitPromotesToL1)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    tlb.fill(1, 42, entry(3));
    tlb.l1().invalidate(1, 42);
    TlbAccessResult res = tlb.access(1, 42);
    ASSERT_NE(res.entry, nullptr);
    EXPECT_EQ(res.latency, 1u + 10u); // L1 miss + L2 hit
    // Promoted: next access is an L1 hit.
    EXPECT_EQ(tlb.access(1, 42).latency, 1u);
}

TEST(TwoLevelTlb, FullMissChargesWalk)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    TlbAccessResult res = tlb.access(1, 42);
    EXPECT_TRUE(res.needsWalk);
    EXPECT_EQ(res.entry, nullptr);
    EXPECT_EQ(res.latency, 1u + 10u + 1000u); // Table 2: miss = 1000
}

TEST(TwoLevelTlb, CoherenceReachesBothLevels)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    tlb.fill(1, 42, entry(3));
    EXPECT_TRUE(tlb.updateObvBit(1, 42, 7, true));
    EXPECT_TRUE(tlb.l1().probe(1, 42)->obv.test(7));
    EXPECT_TRUE(tlb.l2().probe(1, 42)->obv.test(7));
}

TEST(TwoLevelTlb, InvalidateDropsBothLevels)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    tlb.fill(1, 42, entry(3));
    tlb.invalidate(1, 42);
    EXPECT_TRUE(tlb.access(1, 42).needsWalk);
}

TEST(TwoLevelTlb, ReturnedEntryPointsIntoL1)
{
    // Coherence updates through the returned pointer must be the copy
    // the core actually reads (the L1 entry).
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    TlbEntryData *filled = tlb.fill(1, 42, entry(3));
    filled->obv.set(11);
    EXPECT_TRUE(tlb.l1().probe(1, 42)->obv.test(11));
}

TEST(TwoLevelTlb, FillMatchesInsertThenLookup)
{
    // fill() is the L2 insert plus the fused L1 insertAndLookup; it must
    // leave both levels byte-identical to the unfused insert + lookup.
    TwoLevelTlb fused("tlb", TlbHierarchyParams{});
    TwoLevelTlb unfused("tlb", TlbHierarchyParams{});
    Rng rng(11);
    for (unsigned i = 0; i < 5000; ++i) {
        Asid asid = Asid(1 + rng.below(3));
        Addr vpn = rng.below(4096);
        fused.access(asid, vpn);
        unfused.access(asid, vpn);
        TlbEntryData data = entry(vpn + 1);
        EXPECT_EQ(fused.fill(asid, vpn, data)->ppn, vpn + 1);
        unfused.l2().insert(asid, vpn, data);
        unfused.l1().insert(asid, vpn, data);
        ASSERT_NE(unfused.l1().lookup(asid, vpn), nullptr);
    }
    snapshot::Writer a, b;
    snapshot::visit(fused, a);
    snapshot::visit(unfused, b);
    EXPECT_EQ(a.buffer(), b.buffer());
    EXPECT_EQ(fused.l1().hits(), unfused.l1().hits());
    EXPECT_EQ(fused.l1().misses(), unfused.l1().misses());
}

TEST(Tlb, VictimMatchesReferenceLoop)
{
    // 4 and 8 ways scan at a compile-time width; the rest at run time.
    for (unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 64u}) {
        Tlb tlb("tlb", TlbParams{ways, ways, 1}); // one set
        test::RefLru ref(ways, ways);
        Rng rng(ways);
        unsigned fills_with_empty = 0, fills_when_full = 0;
        for (unsigned step = 0; step < 6000; ++step) {
            Addr vpn = rng.below(3 * ways);
            switch (rng.below(4)) {
              case 0:
                ASSERT_EQ(tlb.lookup(1, vpn) != nullptr, ref.lookup(vpn) >= 0)
                    << ways << " ways, step " << step;
                break;
              case 1:
                // Invalidations leave empty ways mid-set.
                tlb.invalidate(1, vpn);
                ref.erase(vpn);
                break;
              default: {
                tlb.insert(1, vpn, entry(vpn));
                const test::RefLru::Claim c = ref.claim(vpn);
                if (!c.hit) {
                    fills_with_empty += c.displaced == test::RefLru::kEmpty;
                    fills_when_full += c.displaced != test::RefLru::kEmpty;
                }
                break;
              }
            }
            for (Addr v = 0; v < 3 * ways; ++v) {
                ASSERT_EQ(tlb.probe(1, v) != nullptr, ref.find(v) >= 0)
                    << ways << " ways, step " << step << ", vpn " << v;
            }
        }
        EXPECT_GT(fills_with_empty, 100u);
        EXPECT_GT(fills_when_full, 100u);
    }
}

// ----- snapshots ----------------------------------------------------------

/**
 * Translations of three ASIDs with varied flags and OBitVectors, with
 * single and per-ASID invalidations leaving empty ways between resident
 * ones, and coherence bit updates.
 */
void
tlbTraffic(TwoLevelTlb &tlb, std::uint64_t seed, unsigned ops)
{
    Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        const Asid asid = Asid(1 + rng.below(3));
        const Addr vpn = (Addr(1) << 30) + rng.below(4096);
        switch (rng.below(16)) {
          case 0:
            tlb.invalidate(asid, vpn);
            break;
          case 1:
            if (rng.below(8) == 0)
                tlb.invalidateAsid(asid);
            break;
          case 2:
            tlb.updateObvBit(asid, vpn, unsigned(rng.below(64)),
                             rng.below(2) != 0);
            break;
          default:
            if (tlb.access(asid, vpn).needsWalk) {
                TlbEntryData d;
                d.ppn = rng.below(1ull << 40);
                d.writable = rng.below(2) != 0;
                d.cow = rng.below(2) != 0;
                d.overlayEnabled = rng.below(2) != 0;
                d.metadataMode = rng.below(4) == 0;
                d.obv = BitVector64(rng.next() & rng.next());
                tlb.fill(asid, vpn, d);
            }
            break;
        }
    }
}

template <class T>
std::vector<std::uint8_t>
saveTlb(const T &tlb)
{
    snapshot::Writer w;
    snapshot::visit(tlb, w);
    return w.takeBuffer();
}

TEST(TlbSnapshot, RoundTripsExactlyAndKeepsChoosingTheSameVictims)
{
    TwoLevelTlb tlb("tlb", TlbHierarchyParams{});
    tlbTraffic(tlb, 3, 20000);
    const std::vector<std::uint8_t> bytes = saveTlb(tlb);

    TwoLevelTlb restored("tlb", TlbHierarchyParams{});
    snapshot::Reader r(bytes);
    snapshot::visit(restored, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(saveTlb(restored), bytes);
    for (Asid asid = 0; asid < 5; ++asid) {
        EXPECT_EQ(restored.l1().holdsAsid(asid), tlb.l1().holdsAsid(asid));
        EXPECT_EQ(restored.l2().holdsAsid(asid), tlb.l2().holdsAsid(asid));
    }

    const std::uint64_t hits = tlb.l2().hits();
    tlbTraffic(tlb, 4, 20000);
    tlbTraffic(restored, 4, 20000);
    EXPECT_EQ(saveTlb(restored), saveTlb(tlb));
    EXPECT_EQ(restored.l2().hits(), tlb.l2().hits() - hits);
}

/** True if loading @p bytes into a fresh 64-entry 4-way TLB throws. */
bool
tlbRejects(const std::vector<std::uint8_t> &bytes)
{
    Tlb fresh("tlb", TlbParams{64, 4, 1});
    snapshot::Reader r(bytes);
    try {
        snapshot::visit(fresh, r);
    } catch (const snapshot::SnapshotError &) {
        return true;
    }
    return false;
}

/**
 * A TLB section for a 64-entry 4-way TLB (16 sets) holding counter
 * @p counter and one resident way, way 0 of set 0, written as varint
 * @p first (1 + tag) with stamp age @p age; @p trailing extra bytes.
 */
std::vector<std::uint8_t>
tlbSection(std::uint64_t first, std::uint64_t counter, std::uint64_t age,
           unsigned trailing = 0)
{
    snapshot::Writer w;
    w.section("TLB ", [&] {
        w.u64(64);
        w.u64(counter);
        w.varint(first);
        for (unsigned i = 1; i < 64; ++i)
            w.varint(0);
        w.packed(1, 4, [](std::size_t) { return 1u; }); // writable
        w.varint(7);                                     // ppn
        w.varint(0);                                     // OBitVector
        w.varint(age);
        for (unsigned i = 0; i < trailing; ++i)
            w.u8(0);
    });
    return w.takeBuffer();
}

TEST(TlbSnapshot, MalformedSectionsAreRejected)
{
    // Control: ASID 2, VPN 0x30 (set 0) is key (2 << 44) | 0x30, tag
    // key >> 4.
    const std::uint64_t tag = ((std::uint64_t(2) << 44) | 0x30) >> 4;
    const std::vector<std::uint8_t> good = tlbSection(1 + tag, 9, 4);
    Tlb tlb("tlb", TlbParams{64, 4, 1});
    snapshot::Reader r(good);
    snapshot::visit(tlb, r);
    ASSERT_NE(tlb.probe(2, 0x30), nullptr);
    EXPECT_EQ(tlb.probe(2, 0x30)->ppn, 7u);
    EXPECT_TRUE(tlb.holdsAsid(2));

    // A key wider than 16 ASID bits + 44 VPN bits once shifted back.
    EXPECT_FALSE(tlbRejects(tlbSection(1 + ((1ull << 56) - 1), 9, 4)));
    EXPECT_TRUE(tlbRejects(tlbSection(1 + (1ull << 56), 9, 4)));
    // A stamp age above the counter.
    EXPECT_FALSE(tlbRejects(tlbSection(1 + tag, 9, 9)));
    EXPECT_TRUE(tlbRejects(tlbSection(1 + tag, 9, 10)));
    // Bytes after the last field.
    EXPECT_TRUE(tlbRejects(tlbSection(1 + tag, 9, 4, 1)));
}

TEST(TlbDeathTest, AssociativityOutOfRangeIsRejected)
{
    EXPECT_DEATH(Tlb("tlb", TlbParams{64, 0, 1}), "associativity");
    EXPECT_DEATH(Tlb("tlb", TlbParams{130, 65, 1}), "associativity");
}

} // namespace
} // namespace ovl
