/**
 * @file
 * Tests for the set-associative cache: hit/miss behaviour, dirty
 * evictions, retagging (the overlaying-write tag update, §4.3.3), and a
 * parameterized sweep over sizes/associativities/policies.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"
#include "overlay/overlay_addr.hh"
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

/**
 * Traffic over regular and overlay-space lines (tags up to bit 63):
 * demand reads and writes, prefetch fills, invalidations that leave
 * empty ways between resident ones, and overlaying-write retags.
 */
void
mixedTraffic(SetAssocCache &cache, std::uint64_t seed, unsigned ops)
{
    Rng rng(seed);
    const std::uint64_t lines =
        3ull * cache.numSets() * cache.params().associativity;
    for (unsigned i = 0; i < ops; ++i) {
        Addr line = Addr(rng.below(lines)) * kLineSize;
        if (rng.below(2) != 0)
            line |= overlay_addr::kOverlayBit | (Addr(rng.below(4)) << 48);
        switch (rng.below(8)) {
          case 0:
            cache.fill(line, rng.below(2) != 0, true);
            break;
          case 1:
            cache.invalidate(line);
            break;
          case 2:
            cache.moveLine(line, line ^ overlay_addr::kOverlayBit);
            break;
          default:
            cache.access(line, rng.below(3) == 0);
            break;
        }
    }
}

TEST(CacheSnapshot, EveryPolicyRoundTripsByteIdentically)
{
    for (ReplPolicy policy : kAllPolicies) {
        for (unsigned ways : {1u, 4u, 16u, 64u}) {
            SCOPED_TRACE(std::string(replPolicyName(policy)) + ", " +
                         std::to_string(ways) + " ways");
            CacheParams p;
            p.sizeBytes = 16 * ways * kLineSize; // 16 sets
            p.associativity = ways;
            p.replPolicy = policy;
            const unsigned ops = 40 * 16 * ways;
            SetAssocCache cache("c", p);
            mixedTraffic(cache, 1, ops);
            const std::vector<std::uint8_t> bytes = save(cache);

            SetAssocCache restored("c", p);
            snapshot::Reader r(bytes);
            snapshot::visit(restored, r);
            EXPECT_TRUE(r.atEnd());
            EXPECT_EQ(save(restored), bytes);

            // Both copies keep hitting and choosing victims alike.
            const std::uint64_t hits = cache.hits();
            mixedTraffic(cache, 2, ops);
            mixedTraffic(restored, 2, ops);
            EXPECT_EQ(save(restored), save(cache));
            EXPECT_EQ(restored.hits(), cache.hits() - hits);
        }
    }
}

// ----- rejection of malformed v2 line records ----------------------------

/** A section framed as the Writer frames it: tag, u64 length, body. */
std::vector<std::uint8_t>
framed(const char tag[4], const std::vector<std::uint8_t> &body)
{
    snapshot::Writer w;
    w.section(tag, [&] {
        for (std::uint8_t b : body)
            w.u8(b);
    });
    return w.takeBuffer();
}

/**
 * A CACH section of smallCache() (LRU, 16 sets x 4 ways) whose line
 * records are @p lines: a fresh cache's line count and engine (LRU
 * counter 0, the 56 bytes before the way varints), then @p lines.
 */
std::vector<std::uint8_t>
cachWithLines(const std::vector<std::uint8_t> &lines)
{
    const std::vector<std::uint8_t> fresh = save(SetAssocCache("c",
                                                               smallCache()));
    // Header 12, count 8, engine 48, then one zero byte per empty way.
    EXPECT_EQ(fresh.size(), 12u + 56 + 64);
    std::vector<std::uint8_t> body(fresh.begin() + 12, fresh.begin() + 68);
    body.insert(body.end(), lines.begin(), lines.end());
    return framed("CACH", body);
}

/**
 * Line records with way 0 of set 0 written as varint @p first (0 for
 * empty, else 1 + tag) and the other 63 ways empty; a resident way
 * adds its flags (clean, not prefetched) and stamp age @p age.
 */
std::vector<std::uint8_t>
oneLine(std::uint64_t first, std::uint64_t age)
{
    snapshot::Writer w;
    w.varint(first);
    for (unsigned i = 1; i < 64; ++i)
        w.varint(0);
    if (first != 0) {
        w.packed(1, 2, [](std::size_t) { return 0u; });
        w.varint(age);
    }
    return w.takeBuffer();
}

/** True if loading @p bytes into a fresh smallCache() throws. */
bool
rejected(const std::vector<std::uint8_t> &bytes,
         CacheParams p = smallCache())
{
    SetAssocCache fresh("c", p);
    snapshot::Reader r(bytes);
    try {
        snapshot::visit(fresh, r);
    } catch (const snapshot::SnapshotError &) {
        return true;
    }
    return false;
}

TEST(CacheSnapshot, OverLongVarintIsRejected)
{
    EXPECT_FALSE(rejected(cachWithLines(oneLine(0, 0))));

    // Way 0 as {0x80, 0x00}: zero padded to two bytes.
    std::vector<std::uint8_t> padded = oneLine(0, 0);
    padded.insert(padded.begin(), 0x80);
    EXPECT_TRUE(rejected(cachWithLines(padded)));
}

TEST(CacheSnapshot, TagOverflowingTheAddressIsRejected)
{
    // smallCache() shifts a tag left past 4 set and 6 offset bits.
    const std::vector<std::uint8_t> bytes = cachWithLines(oneLine(1 + 5, 0));
    SetAssocCache cache("c", smallCache());
    snapshot::Reader r(bytes);
    snapshot::visit(cache, r);
    EXPECT_TRUE(cache.isPresent(Addr(5) << 10));

    // Tags below 2^54 fit.
    EXPECT_FALSE(rejected(cachWithLines(oneLine(1 + ((1ull << 54) - 1), 0))));
    EXPECT_TRUE(rejected(cachWithLines(oneLine(1 + (1ull << 54), 0))));
    EXPECT_TRUE(rejected(cachWithLines(oneLine(~0ull, 0))));
}

TEST(CacheSnapshot, StampAgeAboveTheCounterIsRejected)
{
    // The fresh engine's counter is 0, so the only valid age is 0.
    EXPECT_FALSE(rejected(cachWithLines(oneLine(1, 0))));
    EXPECT_TRUE(rejected(cachWithLines(oneLine(1, 1))));

    // A saved cache whose last resident way's age is raised past the
    // counter the ages are written against.
    SetAssocCache cache("c", smallCache());
    churn(cache, 500);
    std::vector<std::uint8_t> bytes = save(cache);
    // The ages are the section's last varints: a small last age is its
    // final byte. The counter is the first field after the line count.
    ASSERT_LT(bytes.back(), 0x80);
    std::uint64_t counter = 0;
    for (unsigned i = 0; i < 8; ++i)
        counter |= std::uint64_t(bytes[20 + i]) << (8 * i);
    std::vector<std::uint8_t> body(bytes.begin() + 12, bytes.end() - 1);
    snapshot::Writer age;
    age.varint(counter);
    body.insert(body.end(), age.buffer().begin(), age.buffer().end());
    EXPECT_FALSE(rejected(framed("CACH", body)));
    body.resize(body.size() - age.buffer().size());
    age = snapshot::Writer();
    age.varint(counter + 1);
    body.insert(body.end(), age.buffer().begin(), age.buffer().end());
    EXPECT_TRUE(rejected(framed("CACH", body)));
}

TEST(CacheSnapshot, NonzeroPaddingBitsAreRejected)
{
    // One resident way: its 2-bit flags field leaves 6 padding bits.
    std::vector<std::uint8_t> lines = oneLine(1, 0);
    lines[64] |= 0x04;
    EXPECT_TRUE(rejected(cachWithLines(lines)));
}

TEST(CacheSnapshot, TrailingBytesInTheSectionAreRejected)
{
    for (ReplPolicy policy : kAllPolicies) {
        SCOPED_TRACE(replPolicyName(policy));
        CacheParams p = smallCache();
        p.replPolicy = policy;
        SetAssocCache cache("c", p);
        churn(cache, 500);
        const std::vector<std::uint8_t> good = save(cache);
        EXPECT_FALSE(rejected(good, p));
        std::vector<std::uint8_t> body(good.begin() + 12, good.end());
        body.push_back(0);
        EXPECT_TRUE(rejected(framed("CACH", body), p));
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
