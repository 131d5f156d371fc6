/**
 * @file
 * Tests for the replacement policies: LRU, Random, SRRIP, BRRIP and
 * set-dueling DRRIP [27]. The engine operates on the cache's split
 * per-line metadata arrays (LRU sequence numbers / RRIP values), by
 * line index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/replacement.hh"
#include "common/random.hh"
#include "common/set_kernel.hh"

namespace ovl
{
namespace
{

/** One set's worth of replacement metadata in the cache's split layout. */
template <unsigned Ways> struct Set
{
    std::uint64_t lru[Ways] = {};
    std::uint8_t rrpv[Ways] = {};
};

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "LRU");
    EXPECT_STREQ(replPolicyName(ReplPolicy::DRRIP), "DRRIP");
}

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    ReplacementEngine engine(ReplPolicy::LRU, 64);
    Set<4> set;
    for (unsigned w = 0; w < 4; ++w)
        engine.onInsert(set.lru, set.rrpv, w, 0, false);
    // Touch everything except way 2.
    engine.onHit(set.lru, set.rrpv, 0);
    engine.onHit(set.lru, set.rrpv, 1);
    engine.onHit(set.lru, set.rrpv, 3);
    EXPECT_EQ(engine.selectVictim(set.lru, set.rrpv, 0, 4), 2u);
}

TEST(Replacement, LruHitRefreshesRecency)
{
    ReplacementEngine engine(ReplPolicy::LRU, 64);
    Set<2> set;
    engine.onInsert(set.lru, set.rrpv, 0, 0, false);
    engine.onInsert(set.lru, set.rrpv, 1, 0, false);
    engine.onHit(set.lru, set.rrpv, 0); // 0 is now more recent than 1
    EXPECT_EQ(engine.selectVictim(set.lru, set.rrpv, 0, 2), 1u);
}

TEST(Replacement, RandomStaysInRange)
{
    ReplacementEngine engine(ReplPolicy::Random, 64);
    Set<8> set;
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(engine.selectVictim(set.lru, set.rrpv, 0, 8), 8u);
}

TEST(Replacement, SrripHitPromotesToNearImmediate)
{
    ReplacementEngine engine(ReplPolicy::SRRIP, 64);
    Set<1> set;
    engine.onInsert(set.lru, set.rrpv, 0, 0, false);
    EXPECT_EQ(set.rrpv[0], 2); // long re-reference on insert
    engine.onHit(set.lru, set.rrpv, 0);
    EXPECT_EQ(set.rrpv[0], 0);
}

TEST(Replacement, SrripVictimIsDistantLine)
{
    ReplacementEngine engine(ReplPolicy::SRRIP, 64);
    Set<4> set;
    for (unsigned w = 0; w < 4; ++w)
        engine.onInsert(set.lru, set.rrpv, w, 0, false);
    engine.onHit(set.lru, set.rrpv, 0);
    engine.onHit(set.lru, set.rrpv, 1);
    engine.onHit(set.lru, set.rrpv, 2);
    // Lines 0-2 have RRPV 0; line 3 has RRPV 2 and ages to 3 first.
    EXPECT_EQ(engine.selectVictim(set.lru, set.rrpv, 0, 4), 3u);
}

TEST(Replacement, SrripAgingTerminates)
{
    ReplacementEngine engine(ReplPolicy::SRRIP, 64);
    Set<16> set;
    for (unsigned w = 0; w < 16; ++w) {
        engine.onInsert(set.lru, set.rrpv, w, 0, false);
        engine.onHit(set.lru, set.rrpv, w); // everything at RRPV 0
    }
    unsigned victim = engine.selectVictim(set.lru, set.rrpv, 0, 16);
    EXPECT_LT(victim, 16u);
    // Aging must have raised the victim to the distant value.
    EXPECT_GE(set.rrpv[victim], 3);
}

TEST(Replacement, RripSinglePassMatchesRoundBasedAging)
{
    // The engine replaces the round-based aging loop ("increment every
    // RRPV until one reaches 3, pick the first such way") with one pass
    // of byte-lane arithmetic (rripVictim). Check the two formulations
    // agree on every 4-way RRPV combination.
    for (unsigned combo = 0; combo < 4 * 4 * 4 * 4; ++combo) {
        std::uint8_t ref[4], ours[4];
        std::uint64_t lru[4] = {};
        for (unsigned w = 0; w < 4; ++w)
            ref[w] = ours[w] = std::uint8_t((combo >> (2 * w)) & 3);

        // Reference: the literal aging loop.
        unsigned ref_victim = 4;
        while (ref_victim == 4) {
            for (unsigned w = 0; w < 4 && ref_victim == 4; ++w) {
                if (ref[w] >= 3)
                    ref_victim = w;
            }
            if (ref_victim == 4) {
                for (unsigned w = 0; w < 4; ++w)
                    ++ref[w];
            }
        }

        ReplacementEngine engine(ReplPolicy::SRRIP, 64);
        unsigned victim = engine.selectVictim(lru, ours, 0, 4);
        EXPECT_EQ(victim, ref_victim) << "combo " << combo;
        for (unsigned w = 0; w < 4; ++w)
            EXPECT_EQ(ours[w], ref[w]) << "combo " << combo << " way " << w;
    }
}

TEST(Replacement, BrripMostlyInsertsDistant)
{
    ReplacementEngine engine(ReplPolicy::BRRIP, 64);
    unsigned distant = 0;
    for (int i = 0; i < 320; ++i) {
        std::uint64_t lru = 0;
        std::uint8_t rrpv = 0;
        engine.onInsert(&lru, &rrpv, 0, 0, false);
        distant += (rrpv == 3);
    }
    // 31 of every 32 inserts are distant.
    EXPECT_GT(distant, 280u);
    EXPECT_LT(distant, 320u);
}

TEST(Replacement, DrripLeaderSetsAreDisjoint)
{
    ReplacementEngine engine(ReplPolicy::DRRIP, 2048);
    unsigned srrip = 0, brrip = 0;
    for (unsigned set = 0; set < 2048; ++set) {
        EXPECT_FALSE(engine.isSrripLeader(set) && engine.isBrripLeader(set));
        srrip += engine.isSrripLeader(set);
        brrip += engine.isBrripLeader(set);
    }
    EXPECT_EQ(srrip, 2048u / 32);
    EXPECT_EQ(brrip, 2048u / 32);
}

TEST(Replacement, DrripDuelingMovesPsel)
{
    ReplacementEngine engine(ReplPolicy::DRRIP, 2048);
    bool initial = engine.brripWinning();
    // Misses in SRRIP leader sets vote for BRRIP.
    for (int i = 0; i < 600; ++i)
        engine.onMiss(0); // set 0 is an SRRIP leader
    EXPECT_TRUE(engine.brripWinning());
    // Misses in BRRIP leader sets vote for SRRIP.
    for (int i = 0; i < 1200; ++i)
        engine.onMiss(16); // set 16 is a BRRIP leader
    EXPECT_FALSE(engine.brripWinning());
    (void)initial;
}

TEST(Replacement, DrripFollowerInsertsTrackWinner)
{
    ReplacementEngine engine(ReplPolicy::DRRIP, 2048);
    for (int i = 0; i < 1200; ++i)
        engine.onMiss(16); // push toward SRRIP
    std::uint64_t lru = 0;
    std::uint8_t rrpv = 0;
    engine.onInsert(&lru, &rrpv, 0, 1, false); // set 1 is a follower
    EXPECT_EQ(rrpv, 2);                   // SRRIP-style insert
}

TEST(Replacement, DrripPrefetchesInsertDistant)
{
    ReplacementEngine engine(ReplPolicy::DRRIP, 2048);
    std::uint64_t lru = 0;
    std::uint8_t rrpv = 0;
    engine.onInsert(&lru, &rrpv, 0, 1, true);
    EXPECT_EQ(rrpv, 3);
}

// ---- packed-key victim choice against plain reference loops ----------

/** Reference: the first way holding the smallest stamp. */
unsigned
firstMinLoop(const std::uint64_t *stamps, unsigned ways)
{
    unsigned victim = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    return victim;
}

/** Reference: the first way holding the largest RRPV. */
unsigned
firstMaxLoop(const std::uint8_t *rrpvs, unsigned ways)
{
    unsigned victim = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (rrpvs[w] > rrpvs[victim])
            victim = w;
    }
    return victim;
}

TEST(Replacement, LruVictimMatchesFirstMinLoop)
{
    Rng rng(5);
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        ReplacementEngine engine(ReplPolicy::LRU, 64);
        std::vector<std::uint64_t> stamps(ways);
        std::vector<std::uint8_t> rrpvs(ways);
        for (unsigned trial = 0; trial < 2000; ++trial) {
            // Wide stamps, then every pick refreshes the victim the way
            // a cache fill does; narrow ones force ties (lowest way).
            std::uint64_t span = trial % 2 ? (std::uint64_t(1) << 40) : 3;
            for (auto &stamp : stamps)
                stamp = rng.below(span);
            unsigned expect = firstMinLoop(stamps.data(), ways);
            EXPECT_EQ(engine.selectVictim(stamps.data(), rrpvs.data(), 0,
                                          ways),
                      expect)
                << ways << " ways, trial " << trial;
            // Table 2's L1 and L2 instantiations.
            if (ways == 4) {
                EXPECT_EQ((engine.selectVictim<4, ReplPolicy::LRU>(
                              stamps.data(), rrpvs.data(), 0, ways)),
                          expect);
            } else if (ways == 8) {
                EXPECT_EQ((engine.selectVictim<8, ReplPolicy::LRU>(
                              stamps.data(), rrpvs.data(), 0, ways)),
                          expect);
            }
        }
        // A running set: insert into every way, then evict-and-refill
        // with random hits in between.
        for (unsigned w = 0; w < ways; ++w)
            engine.onInsert(stamps.data(), rrpvs.data(), w, 0, false);
        for (unsigned step = 0; step < 2000; ++step) {
            engine.onHit(stamps.data(), rrpvs.data(), rng.below(ways));
            unsigned expect = firstMinLoop(stamps.data(), ways);
            unsigned victim =
                engine.selectVictim(stamps.data(), rrpvs.data(), 0, ways);
            ASSERT_EQ(victim, expect) << ways << " ways, step " << step;
            engine.onInsert(stamps.data(), rrpvs.data(), victim, 0, false);
        }
    }
}

TEST(Replacement, DrripVictimMatchesFirstMaxLoop)
{
    constexpr unsigned kWays = 16;
    Rng rng(6);
    ReplacementEngine engine(ReplPolicy::DRRIP, 2048);
    for (unsigned trial = 0; trial < 5000; ++trial) {
        std::uint64_t lru[kWays] = {};
        std::uint8_t rrpvs[kWays], expect_rrpvs[kWays];
        for (unsigned w = 0; w < kWays; ++w)
            rrpvs[w] = expect_rrpvs[w] = std::uint8_t(rng.below(4));
        unsigned expect = firstMaxLoop(expect_rrpvs, kWays);
        std::uint8_t delta = std::uint8_t(3 - expect_rrpvs[expect]);
        for (auto &rrpv : expect_rrpvs)
            rrpv = std::uint8_t(rrpv + delta);

        // The run-time hook and Table 2's L3 instantiation alike.
        std::uint8_t fixed[kWays];
        std::copy(rrpvs, rrpvs + kWays, fixed);
        ASSERT_EQ(engine.selectVictim(lru, rrpvs, 0, kWays), expect)
            << "trial " << trial;
        ASSERT_EQ((engine.selectVictim<kWays, ReplPolicy::DRRIP>(
                      lru, fixed, 0, kWays)),
                  expect)
            << "trial " << trial;
        for (unsigned w = 0; w < kWays; ++w) {
            EXPECT_EQ(rrpvs[w], expect_rrpvs[w]) << "trial " << trial;
            EXPECT_EQ(fixed[w], expect_rrpvs[w]) << "trial " << trial;
        }
    }
}

/**
 * Reference: the RRIP victim choice the SWAR kernel replaced. The first
 * way holding the largest RRPV is a maximum over 16-bit keys
 * (value << 8) | (255 - way); every way then ages by 3 - max.
 */
unsigned
firstMaxAgingVictim(std::uint8_t *rrpvs, unsigned ways)
{
    std::uint16_t best = 0;
    for (unsigned w = 0; w < ways; ++w)
        best = std::max(best, std::uint16_t((rrpvs[w] << 8) | (255 - w)));
    const unsigned victim = 255u - (best & 255u);
    const std::uint8_t max = std::uint8_t(best >> 8);
    if (max < 3) {
        for (unsigned w = 0; w < ways; ++w)
            rrpvs[w] = std::uint8_t(rrpvs[w] + 3 - max);
    }
    return victim;
}

/**
 * Check rripVictim at compile-time width W and at run-time width (W = 0)
 * against the reference on the set @p values. The kernel reads heap
 * copies of exactly the set's size, so a read or write past the set
 * shows under ASan.
 */
template <unsigned W>
void
expectRripMatchesReference(const std::vector<std::uint8_t> &values)
{
    std::vector<std::uint8_t> expect = values;
    const unsigned victim = firstMaxAgingVictim(expect.data(), W);
    std::vector<std::uint8_t> fixed = values;
    std::vector<std::uint8_t> runtime = values;
    ASSERT_EQ(rripVictim<W>(fixed.data(), W), victim);
    ASSERT_EQ(rripVictim<0>(runtime.data(), W), victim);
    ASSERT_EQ(fixed, expect);
    ASSERT_EQ(runtime, expect);
}

/** Every one of the 4^W sets of W RRPVs. */
template <unsigned W>
void
expectRripMatchesOnEverySet()
{
    std::vector<std::uint8_t> values(W);
    for (std::uint32_t combo = 0; combo < (1u << (2 * W)); ++combo) {
        for (unsigned w = 0; w < W; ++w)
            values[w] = std::uint8_t((combo >> (2 * w)) & 3);
        expectRripMatchesReference<W>(values);
        if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << W << " ways, combo " << combo;
            return;
        }
    }
}

TEST(Replacement, SwarRripMatchesFirstMaxAgingOnEverySmallSet)
{
    [&]<unsigned... W>(std::integer_sequence<unsigned, W...>) {
        (expectRripMatchesOnEverySet<W + 1>(), ...);
    }(std::make_integer_sequence<unsigned, 8>{});
}

/**
 * Random sets of W RRPVs (values drawn below 1 to 4, so low maxima and
 * ties are common), plus the edge cases: every way equal, and the
 * maximum held only by the last way.
 */
template <unsigned W>
void
expectRripMatchesOnWideSets(Rng &rng)
{
    std::vector<std::uint8_t> values(W);
    for (unsigned trial = 0; trial < 4000; ++trial) {
        const std::uint64_t bound = 1 + trial % 4;
        for (auto &v : values)
            v = std::uint8_t(rng.below(bound));
        expectRripMatchesReference<W>(values);
        if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << W << " ways, trial " << trial;
            return;
        }
    }
    for (std::uint8_t v = 0; v <= 3; ++v) {
        values.assign(W, v);
        expectRripMatchesReference<W>(values);
        for (std::uint8_t max = std::uint8_t(v + 1); max <= 3; ++max) {
            values.assign(W, v);
            values[W - 1] = max;
            expectRripMatchesReference<W>(values);
            ASSERT_FALSE(::testing::Test::HasFatalFailure())
                << W << " ways, " << int(v) << " then " << int(max);
        }
    }
}

TEST(Replacement, SwarRripMatchesFirstMaxAgingOnWideSets)
{
    Rng rng(9);
    expectRripMatchesOnWideSets<12>(rng);
    expectRripMatchesOnWideSets<16>(rng);
    expectRripMatchesOnWideSets<17>(rng);
    expectRripMatchesOnWideSets<24>(rng);
    expectRripMatchesOnWideSets<32>(rng);
    expectRripMatchesOnWideSets<48>(rng);
    expectRripMatchesOnWideSets<63>(rng);
    expectRripMatchesOnWideSets<64>(rng);
}

TEST(Replacement, PackedPicksCoverEveryWayOfAWideSet)
{
    // 64 ways is the widest set a packed key addresses: the pick must
    // land on each way, including 63, when that way holds the extremum.
    std::vector<std::uint64_t> stamps(kMaxWays, 100);
    std::vector<std::uint8_t> rrpvs(kMaxWays, 1);
    for (unsigned w = 0; w < kMaxWays; ++w) {
        stamps[w] = 7;
        EXPECT_EQ(lruVictim<0>(stamps.data(), kMaxWays), w);
        EXPECT_EQ(lruVictim<kMaxWays>(stamps.data(), kMaxWays), w);
        stamps[w] = 100;
        for (bool fixed : {false, true}) {
            rrpvs.assign(kMaxWays, 1);
            rrpvs[w] = 2;
            EXPECT_EQ(fixed ? rripVictim<kMaxWays>(rrpvs.data(), kMaxWays)
                            : rripVictim<0>(rrpvs.data(), kMaxWays),
                      w);
            EXPECT_EQ(rrpvs[w], 3); // aged by one, as every way
            EXPECT_EQ(rrpvs[(w + 1) % kMaxWays], 2);
        }
    }
}

} // namespace
} // namespace ovl
