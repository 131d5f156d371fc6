/**
 * @file
 * Tests for the set-associative cache: hit/miss behaviour, dirty
 * evictions, retagging (the overlaying-write tag update, §4.3.3), and a
 * parameterized sweep over sizes/associativities/policies.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "sim/snapshot.hh"

namespace ovl
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 4 * 1024; // 64 lines
    p.associativity = 4;    // 16 sets
    return p;
}

TEST(Cache, MissThenHit)
{
    SetAssocCache cache("c", smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, HitLatencyParallelVsSerial)
{
    CacheParams par = smallCache();
    par.tagLatency = 2;
    par.dataLatency = 8;
    par.parallelTagData = true;
    EXPECT_EQ(par.hitLatency(), 8u);
    par.parallelTagData = false;
    EXPECT_EQ(par.hitLatency(), 10u);
    EXPECT_EQ(par.missDetectLatency(), 2u);
}

TEST(Cache, WriteMarksDirtyAndEvictionReportsIt)
{
    SetAssocCache cache("c", smallCache());
    cache.access(0x0, true); // dirty
    // Fill the rest of set 0: same set = stride of numSets lines.
    Addr stride = Addr(cache.numSets()) * kLineSize;
    for (unsigned i = 1; i < 4; ++i)
        cache.access(Addr(i) * stride, false);
    // Next conflicting access evicts the LRU line (the dirty one).
    auto res = cache.access(4 * stride, false);
    ASSERT_TRUE(res.eviction.has_value());
    EXPECT_EQ(res.eviction->lineAddr, 0u);
    EXPECT_TRUE(res.eviction->dirty);
}

TEST(Cache, CleanEvictionIsNotDirty)
{
    SetAssocCache cache("c", smallCache());
    Addr stride = Addr(cache.numSets()) * kLineSize;
    for (unsigned i = 0; i < 5; ++i)
        cache.access(Addr(i) * stride, false);
    // The first line was clean; it must have been evicted clean.
    EXPECT_FALSE(cache.isPresent(0));
}

TEST(Cache, FillDoesNotCountAsDemand)
{
    SetAssocCache cache("c", smallCache());
    cache.fill(0x2000, false);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_TRUE(cache.isPresent(0x2000));
}

TEST(Cache, FillMergesDirtyBit)
{
    SetAssocCache cache("c", smallCache());
    cache.fill(0x2000, false);
    cache.fill(0x2000, true); // upgrade to dirty
    auto ev = cache.invalidate(0x2000);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
}

TEST(Cache, PrefetchTracking)
{
    SetAssocCache cache("c", smallCache());
    cache.fill(0x3000, false, true);
    EXPECT_TRUE(cache.isPrefetched(0x3000));
    cache.access(0x3000, false); // demand hit clears the prefetch mark
    EXPECT_FALSE(cache.isPrefetched(0x3000));
}

TEST(Cache, InvalidateRemovesLine)
{
    SetAssocCache cache("c", smallCache());
    cache.access(0x1000, true);
    auto ev = cache.invalidate(0x1000);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(cache.isPresent(0x1000));
    EXPECT_FALSE(cache.invalidate(0x1000).has_value());
}

TEST(Cache, RetagSameSetPreservesDirtiness)
{
    SetAssocCache cache("c", smallCache());
    cache.access(0x0, true);
    // Same set index: add a multiple of numSets lines.
    Addr same_set = Addr(cache.numSets()) * kLineSize * 8;
    SetAssocCache::MoveResult mv = cache.moveLine(0x0, same_set);
    EXPECT_TRUE(mv.found);
    EXPECT_FALSE(mv.eviction.has_value());
    EXPECT_FALSE(cache.isPresent(0x0));
    ASSERT_TRUE(cache.isPresent(same_set));
    auto ev = cache.invalidate(same_set);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
}

TEST(Cache, MoveLineDifferentSetFillsDestination)
{
    // The destination indexes another set: no in-place retag, but an
    // explicit copy — the source leaves, the destination is filled
    // with the source's dirtiness.
    SetAssocCache cache("c", smallCache());
    cache.access(0x0, true);
    SetAssocCache::MoveResult mv = cache.moveLine(0x0, 0x40);
    EXPECT_TRUE(mv.found);
    EXPECT_FALSE(mv.eviction.has_value()); // the destination set had room
    EXPECT_FALSE(cache.isPresent(0x0));
    ASSERT_TRUE(cache.isPresent(0x40));
    auto ev = cache.invalidate(0x40);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
}

TEST(Cache, MoveLineCrossSetFillReturnsVictim)
{
    SetAssocCache cache("c", smallCache());
    Addr stride = Addr(cache.numSets()) * kLineSize;
    for (unsigned i = 0; i < 4; ++i)
        cache.access(0x40 + i * stride, true); // fill 0x40's set
    cache.access(0x0, false);
    SetAssocCache::MoveResult mv = cache.moveLine(0x0, 0x40 + 4 * stride);
    EXPECT_TRUE(mv.found);
    ASSERT_TRUE(mv.eviction.has_value());
    EXPECT_TRUE(mv.eviction->dirty);
    EXPECT_EQ(mv.eviction->lineAddr, Addr(0x40)); // LRU way
    EXPECT_TRUE(cache.isPresent(0x40 + 4 * stride));
}

TEST(Cache, RetagMissingLineFails)
{
    SetAssocCache cache("c", smallCache());
    SetAssocCache::MoveResult mv = cache.moveLine(0x0, 0x1000);
    EXPECT_FALSE(mv.found);
    EXPECT_FALSE(mv.eviction.has_value());
    EXPECT_FALSE(cache.isPresent(0x1000));
}

TEST(Cache, WritebackAllVisitsEveryDirtyLine)
{
    SetAssocCache cache("c", smallCache());
    cache.access(0x0, true);
    cache.access(0x40, false);
    cache.access(0x80, true);
    std::vector<Addr> written;
    cache.writebackAll([&](Addr a) { written.push_back(a); });
    EXPECT_EQ(written.size(), 2u);
    EXPECT_FALSE(cache.isPresent(0x0));
    EXPECT_FALSE(cache.isPresent(0x40));
}

TEST(Cache, OverlayAddressesCoexistWithPhysical)
{
    // Overlay-space tags (bit 63 set) are just wider tags (§4.5): both
    // versions of "the same" line index live side by side.
    SetAssocCache cache("c", smallCache());
    Addr phys = 0x5000;
    Addr overlay = phys | (Addr(1) << 63);
    cache.access(phys, false);
    cache.access(overlay, false);
    EXPECT_TRUE(cache.isPresent(phys));
    EXPECT_TRUE(cache.isPresent(overlay));
}

// ---------------- parameterized sweep: size x assoc x policy ------------

using SweepParam = std::tuple<std::uint64_t, unsigned, ReplPolicy>;

class CacheSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(CacheSweep, SequentialFootprintSmallerThanCacheAlwaysRehits)
{
    auto [size, assoc, policy] = GetParam();
    CacheParams p;
    p.sizeBytes = size;
    p.associativity = assoc;
    p.replPolicy = policy;
    SetAssocCache cache("c", p);

    std::uint64_t lines = size / kLineSize;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * kLineSize, false);
    // Second pass: everything must still be resident (no conflict
    // possible when the footprint exactly matches the capacity and the
    // fill order is sequential).
    std::uint64_t hits_before = cache.hits();
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * kLineSize, false);
    EXPECT_EQ(cache.hits() - hits_before, lines);
}

TEST_P(CacheSweep, OverCapacityFootprintEvicts)
{
    auto [size, assoc, policy] = GetParam();
    CacheParams p;
    p.sizeBytes = size;
    p.associativity = assoc;
    p.replPolicy = policy;
    SetAssocCache cache("c", p);

    std::uint64_t lines = 2 * size / kLineSize;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * kLineSize, false);
    // At most capacity lines can be resident.
    std::uint64_t resident = 0;
    for (std::uint64_t i = 0; i < lines; ++i)
        resident += cache.isPresent(i * kLineSize);
    EXPECT_LE(resident, size / kLineSize);
    EXPECT_GE(cache.misses(), lines / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Combine(
        ::testing::Values(std::uint64_t(4096), std::uint64_t(16384),
                          std::uint64_t(65536)),
        ::testing::Values(1u, 4u, 8u),
        ::testing::Values(ReplPolicy::LRU, ReplPolicy::SRRIP,
                          ReplPolicy::DRRIP, ReplPolicy::Random)));

// ----- snapshots of the per-policy replacement arrays ---------------------

constexpr ReplPolicy kAllPolicies[] = {ReplPolicy::LRU, ReplPolicy::Random,
                                       ReplPolicy::SRRIP, ReplPolicy::BRRIP,
                                       ReplPolicy::DRRIP};

/** Conflict-heavy traffic: 4 sets' worth of lines cycling through 16 sets. */
void
churn(SetAssocCache &cache, unsigned rounds)
{
    for (unsigned i = 0; i < rounds; ++i) {
        Addr line = Addr((i * 7) % 96) * kLineSize * 16;
        cache.access(line, i % 3 == 0);
    }
}

std::vector<std::uint8_t>
save(const SetAssocCache &cache)
{
    snapshot::Writer w;
    snapshot::visit(cache, w);
    return w.takeBuffer();
}

TEST(CacheSnapshot, EveryPolicyRoundTripsByteIdentically)
{
    for (ReplPolicy policy : kAllPolicies) {
        SCOPED_TRACE(replPolicyName(policy));
        CacheParams p = smallCache();
        p.replPolicy = policy;
        SetAssocCache cache("c", p);
        churn(cache, 500);
        const std::vector<std::uint8_t> bytes = save(cache);

        SetAssocCache restored("c", p);
        snapshot::Reader r(bytes);
        snapshot::visit(restored, r);
        EXPECT_EQ(save(restored), bytes);

        // Both copies keep choosing the same victims.
        churn(cache, 300);
        churn(restored, 300);
        EXPECT_EQ(save(restored), save(cache));
    }
}

TEST(CacheSnapshot, NonzeroUnusedReplacementFieldIsRejected)
{
    // CACH body: line count (u64), tags (u64 each), {dirty, prefetched}
    // flag pairs, then one {lruSeq u64, rrpv u8} pair per line.
    constexpr std::size_t kSectionHeader = 12;
    const std::size_t lines = smallCache().sizeBytes / kLineSize;
    const std::size_t pairs = kSectionHeader + 8 + 8 * lines + 2 * lines;
    const std::size_t last = pairs + 9 * (lines - 1);
    for (ReplPolicy policy : kAllPolicies) {
        SCOPED_TRACE(replPolicyName(policy));
        CacheParams p = smallCache();
        p.replPolicy = policy;
        SetAssocCache cache("c", p);
        churn(cache, 500);
        const std::vector<std::uint8_t> good = save(cache);

        const bool lru_unused = policy != ReplPolicy::LRU;
        const bool rrpv_unused = policy == ReplPolicy::LRU ||
                                 policy == ReplPolicy::Random;
        std::vector<std::size_t> unused_at;
        if (lru_unused)
            unused_at.push_back(last);
        if (rrpv_unused)
            unused_at.push_back(last + 8);
        for (std::size_t at : unused_at) {
            ASSERT_EQ(good[at], 0u) << "offset " << at;
            std::vector<std::uint8_t> bad = good;
            bad[at] = 1;
            SetAssocCache fresh("c", p);
            snapshot::Reader r(bad);
            EXPECT_THROW(snapshot::visit(fresh, r), snapshot::SnapshotError)
                << "offset " << at;
        }
    }
}

TEST(CacheDeathTest, AssociativityOutOfRangeIsRejected)
{
    CacheParams zero = smallCache();
    zero.associativity = 0;
    EXPECT_DEATH(SetAssocCache("c", zero), "associativity");
    CacheParams wide = smallCache();
    wide.sizeBytes = 130 * kLineSize;
    wide.associativity = 65;
    EXPECT_DEATH(SetAssocCache("c", wide), "associativity");
}

} // namespace
} // namespace ovl
