/**
 * @file
 * Tests for the replacement policies: LRU, Random, SRRIP, BRRIP and
 * set-dueling DRRIP [27]. The engine operates on the cache's split
 * per-line metadata arrays (LRU sequence numbers / RRIP values), by
 * line index.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/random.hh"
#include "common/victim.hh"

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
    // RRPV until one reaches 3, pick the first such way") with a single
    // first-max scan plus a uniform delta. Check the two formulations
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

        ASSERT_EQ(engine.selectVictim(lru, rrpvs, 0, kWays), expect)
            << "trial " << trial;
        for (unsigned w = 0; w < kWays; ++w)
            EXPECT_EQ(rrpvs[w], expect_rrpvs[w]) << "trial " << trial;
    }
}

TEST(Replacement, PackedPicksCoverEveryWayOfAWideSet)
{
    // 64 ways is the widest set a packed key addresses: the pick must
    // land on each way, including 63, when that way holds the extremum.
    std::vector<std::uint64_t> stamps(kMaxWays, 100);
    std::vector<std::uint8_t> rrpvs(kMaxWays, 1);
    for (unsigned w = 0; w < kMaxWays; ++w) {
        stamps[w] = 7;
        rrpvs[w] = 2;
        EXPECT_EQ(lruVictim(stamps.data(), kMaxWays), w);
        FirstMax max = firstMax(rrpvs.data(), kMaxWays);
        EXPECT_EQ(max.way, w);
        EXPECT_EQ(max.value, 2);
        stamps[w] = 100;
        rrpvs[w] = 1;
    }
}

} // namespace
} // namespace ovl
