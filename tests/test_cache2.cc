/**
 * @file
 * Second-wave cache tests: randomized residency invariants (contents are
 * always a subset of inserted lines, never duplicated within a set, and
 * bounded by capacity), writeback conservation (every dirtied line is
 * either resident-dirty or was written back exactly once), retag
 * interaction with the replacement state, and a reference model that
 * every set shape and policy must match operation for operation.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "overlay/overlay_addr.hh"
#include "sim/snapshot.hh"

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


// ----- reference model -----------------------------------------------------

std::vector<std::uint8_t>
snapshotOf(const SetAssocCache &cache)
{
    snapshot::Writer w;
    snapshot::visit(cache, w);
    return w.takeBuffer();
}

/**
 * A plain set-associative cache with the behaviour SetAssocCache must
 * keep, written with straightforward per-way loops and one struct per
 * line: first-empty fills, first-oldest LRU, the literal RRIP aging loop
 * ("increment every RRPV until one reaches 3"), DRRIP set dueling over
 * leader sets 0 and 16 mod 32, and the same Random stream. It writes its
 * state in the CACH record layout (DESIGN.md §11.2), so its bytes can be
 * compared with the real cache's.
 */
class RefCache
{
  public:
    struct Line
    {
        Addr tag = kInvalidAddr;
        bool dirty = false;
        bool prefetched = false;
        std::uint64_t stamp = 0;
        std::uint8_t rrpv = 0;
    };

    struct Counters
    {
        std::uint64_t hits = 0, misses = 0, writebacks = 0,
                      prefetchFills = 0, prefetchHits = 0, retags = 0;
    };

    explicit RefCache(const CacheParams &p)
        : policy_(p.replPolicy), ways_(p.associativity),
          sets_(unsigned(p.sizeBytes / kLineSize / p.associativity)),
          lines_(std::size_t(sets_) * ways_), rng_(1)
    {
    }

    /** Result of access(): hit, and the eviction of a miss fill. */
    struct Access
    {
        bool hit;
        std::optional<Eviction> eviction;
    };

    Access
    access(Addr addr, bool is_write)
    {
        if (Line *line = find(addr)) {
            ++counters_.hits;
            if (line->prefetched) {
                ++counters_.prefetchHits;
                line->prefetched = false;
            }
            touch(*line);
            line->dirty = line->dirty || is_write;
            return Access{true, std::nullopt};
        }
        ++counters_.misses;
        const unsigned set = setOf(addr);
        if (policy_ == ReplPolicy::DRRIP) {
            if (set % 32 == 0 && psel_ < 1023)
                ++psel_;
            else if (set % 32 == 16 && psel_ > 0)
                --psel_;
        }
        return Access{false, insert(addr, is_write, false)};
    }

    std::optional<Eviction>
    fill(Addr addr, bool dirty, bool is_prefetch)
    {
        if (Line *line = find(addr)) {
            line->dirty = line->dirty || dirty;
            return std::nullopt;
        }
        return insert(addr, dirty, is_prefetch);
    }

    /** The way a fill of absent @p addr takes if its set has room. */
    unsigned
    firstEmptyWay(Addr addr)
    {
        Line *set = &lines_[std::size_t(setOf(addr)) * ways_];
        unsigned w = 0;
        while (w < ways_ && set[w].tag != kInvalidAddr)
            ++w;
        return w;
    }

    std::optional<Eviction>
    invalidate(Addr addr)
    {
        Line *line = find(addr);
        if (line == nullptr)
            return std::nullopt;
        Eviction ev{line->tag, line->dirty};
        line->tag = kInvalidAddr;
        line->dirty = false;
        return ev;
    }

    SetAssocCache::MoveResult
    moveLine(Addr from, Addr to)
    {
        Line *src = find(from);
        if (src == nullptr)
            return SetAssocCache::MoveResult{};
        if (setOf(from) == setOf(to)) {
            if (Line *dst = find(to)) {
                dst->dirty = dst->dirty || src->dirty;
                src->tag = kInvalidAddr;
                src->dirty = false;
            } else {
                src->tag = to;
                ++counters_.retags;
            }
            return SetAssocCache::MoveResult{true, std::nullopt};
        }
        const bool dirty = src->dirty;
        src->tag = kInvalidAddr;
        src->dirty = false;
        return SetAssocCache::MoveResult{true, fill(to, dirty, false)};
    }

    bool isPresent(Addr addr) { return find(addr) != nullptr; }

    bool
    isPrefetched(Addr addr)
    {
        Line *line = find(addr);
        return line != nullptr && line->prefetched;
    }

    const Counters &counters() const { return counters_; }

    /** Write the CACH record of this state to @p w. */
    void
    save(snapshot::Writer &w) const
    {
        const bool lru = policy_ == ReplPolicy::LRU;
        const bool rrip = policy_ == ReplPolicy::SRRIP ||
                          policy_ == ReplPolicy::BRRIP ||
                          policy_ == ReplPolicy::DRRIP;
        const unsigned drop = kLineShift + floorLog2(sets_);
        std::vector<const Line *> resident;
        for (const Line &line : lines_) {
            if (line.tag != kInvalidAddr)
                resident.push_back(&line);
        }
        w.section("CACH", [&] {
            w.expectEq(lines_.size(), "lines");
            w.u64(lruCounter_);
            w.u32(throttle_);
            w.u32(psel_);
            for (std::uint64_t word : rng_.rawState())
                w.u64(word);
            w.varints(lines_.size(), [&](std::size_t i) {
                const Addr tag = lines_[i].tag;
                return tag == kInvalidAddr ? 0 : (tag >> drop) + 1;
            });
            w.packed(resident.size(), 2, [&](std::size_t k) {
                return unsigned(resident[k]->dirty) |
                       unsigned(resident[k]->prefetched) << 1;
            });
            if (rrip) {
                w.packed(resident.size(), 2, [&](std::size_t k) {
                    return resident[k]->rrpv;
                });
            }
            if (lru) {
                w.varints(resident.size(), [&](std::size_t k) {
                    return lruCounter_ - resident[k]->stamp;
                });
            }
        });
    }

  private:
    unsigned setOf(Addr addr) const
    {
        return unsigned((addr >> kLineShift) % sets_);
    }

    Line *
    find(Addr addr)
    {
        Line *set = &lines_[std::size_t(setOf(addr)) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].tag == addr)
                return &set[w];
        }
        return nullptr;
    }

    void
    touch(Line &line)
    {
        if (policy_ == ReplPolicy::LRU)
            line.stamp = ++lruCounter_;
        else if (policy_ != ReplPolicy::Random)
            line.rrpv = 0;
    }

    /** BRRIP's insertion: distant (3), except one in 32 long (2). */
    std::uint8_t
    bimodal()
    {
        if (++throttle_ >= 32) {
            throttle_ = 0;
            return 2;
        }
        return 3;
    }

    unsigned
    victim(Line *set)
    {
        switch (policy_) {
          case ReplPolicy::LRU: {
            unsigned oldest = 0;
            for (unsigned w = 1; w < ways_; ++w) {
                if (set[w].stamp < set[oldest].stamp)
                    oldest = w;
            }
            return oldest;
          }
          case ReplPolicy::Random:
            return unsigned(rng_.below(ways_));
          default:
            for (;;) {
                for (unsigned w = 0; w < ways_; ++w) {
                    if (set[w].rrpv == 3)
                        return w;
                }
                for (unsigned w = 0; w < ways_; ++w)
                    ++set[w].rrpv;
            }
        }
    }

    std::optional<Eviction>
    insert(Addr addr, bool dirty, bool is_prefetch)
    {
        const unsigned set_idx = setOf(addr);
        Line *set = &lines_[std::size_t(set_idx) * ways_];
        std::optional<Eviction> evicted;
        unsigned way = firstEmptyWay(addr);
        if (way == ways_) {
            way = victim(set);
            evicted = Eviction{set[way].tag, set[way].dirty};
            counters_.writebacks += set[way].dirty;
        }
        Line &line = set[way];
        line.tag = addr;
        line.dirty = dirty;
        line.prefetched = is_prefetch;
        counters_.prefetchFills += is_prefetch;
        switch (policy_) {
          case ReplPolicy::LRU: line.stamp = ++lruCounter_; break;
          case ReplPolicy::Random: break;
          case ReplPolicy::SRRIP: line.rrpv = 2; break;
          case ReplPolicy::BRRIP: line.rrpv = bimodal(); break;
          case ReplPolicy::DRRIP:
            if (is_prefetch)
                line.rrpv = 3;
            else if (set_idx % 32 == 0)
                line.rrpv = 2;
            else if (set_idx % 32 == 16 || psel_ > 511)
                line.rrpv = bimodal();
            else
                line.rrpv = 2;
            break;
        }
        return evicted;
    }

    ReplPolicy policy_;
    unsigned ways_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::uint64_t lruCounter_ = 0;
    unsigned throttle_ = 0;
    unsigned psel_ = 512;
    Rng rng_;
    Counters counters_;
};

/** A cache's counters by name, as its stat group registers them. */
std::map<std::string, std::uint64_t>
counterValues(const SetAssocCache &cache)
{
    std::map<std::string, std::uint64_t> values;
    for (const stats::Info *info : cache.statGroup().infos()) {
        info->eachScalar([&](const char *, double value, bool) {
            values[info->name()] = std::uint64_t(value);
        });
    }
    return values;
}

std::map<std::string, std::uint64_t>
counterValues(const RefCache &ref)
{
    const RefCache::Counters &c = ref.counters();
    return {{"hits", c.hits},
            {"misses", c.misses},
            {"writebacks", c.writebacks},
            {"prefetchFills", c.prefetchFills},
            {"prefetchHits", c.prefetchHits},
            {"retags", c.retags}};
}

void
expectSameEviction(const std::optional<Eviction> &got,
                   const std::optional<Eviction> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
        ASSERT_EQ(got->lineAddr, want->lineAddr);
        ASSERT_EQ(got->dirty, want->dirty);
    }
}

/**
 * @p ops random operations over regular and overlay-space lines (tags
 * up to bit 63), three times the cache's capacity of them, applied to
 * both models: demand reads and writes, prefetch and writeback fills,
 * probe + fillProbed, same-set retags and cross-set moves,
 * invalidations and presence checks. Every result must match; the
 * counters and the snapshot bytes are compared every 512 operations and
 * at the end.
 */
void
expectMatchesReference(const CacheParams &p, std::uint64_t seed,
                       unsigned ops)
{
    SetAssocCache cache("c", p);
    RefCache ref(p);
    Rng rng(seed);
    const std::uint64_t lines =
        3ull * cache.numSets() * p.associativity;
    auto pick = [&] {
        Addr line = Addr(rng.below(lines)) * kLineSize;
        if (rng.below(2) != 0)
            line |= overlay_addr::kOverlayBit | (Addr(rng.below(4)) << 48);
        return line;
    };
    for (unsigned i = 0; i < ops; ++i) {
        const Addr line = pick();
        switch (rng.below(12)) {
          case 0: {
            const bool dirty = rng.below(2) != 0;
            const bool prefetch = rng.below(2) != 0;
            expectSameEviction(cache.fill(line, dirty, prefetch),
                               ref.fill(line, dirty, prefetch));
            break;
          }
          case 1: {
            SetAssocCache::ProbeResult probe = cache.probe(line);
            ASSERT_EQ(probe.present, ref.isPresent(line)) << "op " << i;
            if (!probe.present) {
                ASSERT_EQ(probe.invalidWay, ref.firstEmptyWay(line));
                const bool prefetch = rng.below(4) != 0;
                expectSameEviction(
                    cache.fillProbed(line, probe.invalidWay, false, prefetch),
                    ref.fill(line, false, prefetch));
            }
            break;
          }
          case 2:
            expectSameEviction(cache.invalidate(line), ref.invalidate(line));
            break;
          case 3: {
            // Flipping the overlay bit keeps the set (a retag); another
            // line index usually moves it to a different set.
            const Addr to = rng.below(2) != 0
                                ? line ^ overlay_addr::kOverlayBit
                                : pick();
            SetAssocCache::MoveResult got = cache.moveLine(line, to);
            SetAssocCache::MoveResult want = ref.moveLine(line, to);
            ASSERT_EQ(got.found, want.found) << "op " << i;
            expectSameEviction(got.eviction, want.eviction);
            break;
          }
          case 4:
            ASSERT_EQ(cache.isPresent(line), ref.isPresent(line));
            ASSERT_EQ(cache.isPrefetched(line), ref.isPrefetched(line));
            break;
          default: {
            const bool write = rng.below(3) == 0;
            CacheAccessResult got = cache.access(line, write);
            RefCache::Access want = ref.access(line, write);
            ASSERT_EQ(got.hit, want.hit) << "op " << i;
            expectSameEviction(got.eviction, want.eviction);
            break;
          }
        }
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "op " << i;
        if (i % 512 == 511 || i + 1 == ops) {
            ASSERT_EQ(counterValues(cache), counterValues(ref)) << "op " << i;
            snapshot::Writer want;
            ref.save(want);
            ASSERT_EQ(snapshotOf(cache), want.takeBuffer()) << "op " << i;
        }
    }
    // The traffic reached full sets and their victim choice.
    EXPECT_GT(ref.counters().writebacks, 0u);
}

TEST(CacheReference, EveryShapeAndPolicyMatchesThePlainModel)
{
    // 4-way LRU, 8-way LRU and 16-way DRRIP are Table 2's shapes, which
    // run compile-time bodies; every other pair runs the generic one.
    // 32 sets hold one SRRIP and one BRRIP leader set for DRRIP.
    for (unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 64u}) {
        for (ReplPolicy policy : {ReplPolicy::LRU, ReplPolicy::Random,
                                  ReplPolicy::SRRIP, ReplPolicy::BRRIP,
                                  ReplPolicy::DRRIP}) {
            SCOPED_TRACE(std::to_string(ways) + " ways, " +
                         replPolicyName(policy));
            CacheParams p;
            p.sizeBytes = 32 * ways * kLineSize;
            p.associativity = ways;
            p.replPolicy = policy;
            expectMatchesReference(p, ways * 10 + unsigned(policy),
                                   std::max(20000u, 20 * 32 * ways));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace ovl
