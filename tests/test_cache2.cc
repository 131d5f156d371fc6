/**
 * @file
 * Second-wave cache tests: randomized residency invariants (contents are
 * always a subset of inserted lines, never duplicated within a set, and
 * bounded by capacity), writeback conservation (every dirtied line is
 * either resident-dirty or was written back exactly once), and retag
 * interaction with the replacement state.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/cache.hh"
#include "common/random.hh"

namespace ovl
{
namespace
{

CacheParams
smallCache(ReplPolicy policy)
{
    CacheParams p;
    p.sizeBytes = 8 * 1024;
    p.associativity = 4;
    p.replPolicy = policy;
    return p;
}

class CacheFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, ReplPolicy>>
{
};

TEST_P(CacheFuzz, DirtyDataIsNeverLost)
{
    auto [seed, policy] = GetParam();
    SetAssocCache cache("c", smallCache(policy));
    Rng rng(seed);

    // Host model: which lines are logically dirty and not yet written
    // back. A dirty line disappears from the model only via an eviction
    // or invalidation that reports dirty=true.
    std::set<Addr> dirty;
    auto handle_eviction = [&](const std::optional<Eviction> &ev) {
        if (!ev)
            return;
        if (ev->dirty) {
            ASSERT_EQ(dirty.erase(ev->lineAddr), 1u)
                << "writeback of a line never dirtied: " << std::hex
                << ev->lineAddr;
        } else {
            ASSERT_EQ(dirty.count(ev->lineAddr), 0u)
                << "clean eviction of a dirty line: " << std::hex
                << ev->lineAddr;
        }
    };

    for (int step = 0; step < 20'000; ++step) {
        Addr addr = rng.below(1024) << kLineShift; // 4x the capacity
        switch (rng.below(4)) {
          case 0: { // read
            handle_eviction(cache.access(addr, false).eviction);
            break;
          }
          case 1: { // write
            auto res = cache.access(addr, true);
            handle_eviction(res.eviction);
            dirty.insert(addr);
            break;
          }
          case 2: { // clean fill (e.g., prefetch)
            handle_eviction(cache.fill(addr, false, rng.chance(0.5)));
            break;
          }
          case 3: { // invalidate
            if (rng.chance(0.2))
                handle_eviction(cache.invalidate(addr));
            break;
          }
        }
    }
    // Whatever the model says is dirty must still be resident.
    for (Addr addr : dirty)
        ASSERT_TRUE(cache.isPresent(addr)) << std::hex << addr;
    // And flushing surrenders exactly those lines.
    std::set<Addr> flushed;
    cache.writebackAll([&](Addr a) { flushed.insert(a); });
    EXPECT_EQ(flushed, dirty);
}

TEST_P(CacheFuzz, ResidencyNeverExceedsCapacity)
{
    auto [seed, policy] = GetParam();
    SetAssocCache cache("c", smallCache(policy));
    Rng rng(seed + 17);
    std::set<Addr> inserted;
    for (int step = 0; step < 10'000; ++step) {
        Addr addr = rng.below(4096) << kLineShift;
        cache.access(addr, rng.chance(0.3));
        inserted.insert(addr);
    }
    std::uint64_t resident = 0;
    for (Addr addr : inserted)
        resident += cache.isPresent(addr);
    EXPECT_LE(resident, smallCache(policy).sizeBytes / kLineSize);
    // Nothing is resident that was never inserted (spot probes).
    for (int probe = 0; probe < 100; ++probe) {
        Addr addr = (4096 + rng.below(4096)) << kLineShift;
        EXPECT_FALSE(cache.isPresent(addr));
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, CacheFuzz,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(ReplPolicy::LRU,
                                         ReplPolicy::DRRIP,
                                         ReplPolicy::Random)));

TEST(CacheRetag, RetaggedLineIsEvictableNormally)
{
    SetAssocCache cache("c", smallCache(ReplPolicy::LRU));
    cache.access(0x0, true);
    Addr overlay = Addr(0x0) | (Addr(1) << 63);
    ASSERT_TRUE(cache.moveLine(0x0, overlay).found);
    // Fill the set; the retagged line must participate in replacement
    // and surface its dirtiness when displaced.
    Addr stride = Addr(cache.numSets()) * kLineSize;
    bool saw_dirty_overlay = false;
    for (unsigned i = 1; i <= 4; ++i) {
        auto res = cache.access(Addr(i) * stride, false);
        if (res.eviction && res.eviction->lineAddr == overlay) {
            EXPECT_TRUE(res.eviction->dirty);
            saw_dirty_overlay = true;
        }
    }
    EXPECT_TRUE(saw_dirty_overlay);
}

TEST(CacheRetag, MoveToResidentDestinationFoldsDirtiness)
{
    // The destination is already resident in the same set: the source
    // is dropped and its dirtiness folds into the destination line.
    SetAssocCache cache("c", smallCache(ReplPolicy::LRU));
    Addr overlay = Addr(0x0) | (Addr(1) << 63);
    cache.access(0x0, true);
    cache.access(overlay, false);
    SetAssocCache::MoveResult mv = cache.moveLine(0x0, overlay);
    EXPECT_TRUE(mv.found);
    EXPECT_FALSE(mv.eviction.has_value());
    EXPECT_FALSE(cache.isPresent(0x0));
    ASSERT_TRUE(cache.isPresent(overlay));
    auto ev = cache.invalidate(overlay);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
}

} // namespace
} // namespace ovl
