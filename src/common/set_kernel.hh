/**
 * @file
 * The set kernel: way scan, first-empty pick and victim choice shared by
 * the set-associative structures (the caches and the prefetcher's stream
 * table, and through LruTable the TLBs and the OMT cache). Every
 * function is templated on a compile-time associativity W, so the way
 * loops of the Table 2 shapes have a constant trip count the compiler
 * unrolls; W = 0 reads the width from the `ways` argument instead
 * (DESIGN.md §13.3).
 *
 * Victim choices are branch-free. An LRU victim is a minimum over packed
 * keys (stamp << 6) | way, so equal stamps pick the lowest way. An RRIP
 * victim is found with byte-lane arithmetic (SWAR) on 64-bit words of
 * the set's prediction values: it returns exactly the way the round-
 * based aging loop returns, and ages the set as that loop does.
 */

#ifndef OVERLAYSIM_COMMON_SET_KERNEL_HH
#define OVERLAYSIM_COMMON_SET_KERNEL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

namespace ovl
{

/** Low bits of a packed LRU key that hold the way index. */
inline constexpr unsigned kWayBits = 6;
/** Widest set a packed key can address. */
inline constexpr unsigned kMaxWays = 1u << kWayBits;

/**
 * Sets in a structure of @p entries entries and @p associativity ways,
 * validating the associativity before dividing by it.
 */
inline unsigned
setCount(std::uint64_t entries, unsigned associativity)
{
    ovl_assert(associativity >= 1 && associativity <= kMaxWays,
               "associativity must be in [1, 64]");
    return unsigned(entries / associativity);
}

/** Ways in a set of compile-time width @p W, or @p ways when W is 0. */
template <unsigned W>
constexpr unsigned
wayCount(unsigned ways)
{
    static_assert(W <= kMaxWays);
    return W != 0 ? W : ways;
}

/**
 * Packed LRU key of way @p way with recency @p stamp. Stamps come from a
 * per-structure counter and stay far below 2^58, so the shift loses
 * nothing; a smaller key is an older way, ties broken by lower way.
 */
constexpr std::uint64_t
lruKey(std::uint64_t stamp, unsigned way)
{
    return (stamp << kWayBits) | way;
}

/**
 * Packed LRU key of a way that may be empty. An empty way keys as stamp
 * 0, below every resident stamp (each structure bumps its counter
 * before storing a stamp, so resident stamps are at least 1): a minimum
 * then picks the first empty way, else the least recently used one.
 */
constexpr std::uint64_t
lruKeyOrEmpty(std::uint64_t stamp, bool resident, unsigned way)
{
    return lruKey(stamp & -std::uint64_t(resident), way);
}

/** Way index of a packed LRU key. */
constexpr unsigned
lruKeyWay(std::uint64_t key)
{
    return unsigned(key & (kMaxWays - 1));
}

/** Way of @p tags holding @p key, or the way count; stops at a match. */
template <unsigned W, class Key>
inline unsigned
findWay(const Key *tags, Key key, unsigned ways)
{
    const unsigned n = wayCount<W>(ways);
    for (unsigned w = 0; w < n; ++w) {
        if (tags[w] == key)
            return w;
    }
    return n;
}

/** What one scan of a set found; a field equal to the way count is "none". */
struct WayScan
{
    unsigned hit;   ///< way holding the key
    unsigned empty; ///< first empty way (meaningful only on a miss)
};

/**
 * One pass over a set: the way holding @p key and, on a miss, the first
 * way holding @p empty. Stops at a match, so a hit reads only the ways
 * before it.
 */
template <unsigned W, class Key>
inline WayScan
scanWays(const Key *tags, Key key, Key empty, unsigned ways)
{
    const unsigned n = wayCount<W>(ways);
    unsigned first_empty = n;
    for (unsigned w = 0; w < n; ++w) {
        if (tags[w] == key)
            return WayScan{w, first_empty};
        if (tags[w] == empty && first_empty == n)
            first_empty = w;
    }
    return WayScan{n, first_empty};
}

/** First way holding the smallest of @p stamps[0, ways). */
template <unsigned W>
inline unsigned
lruVictim(const std::uint64_t *stamps, unsigned ways)
{
    const unsigned n = wayCount<W>(ways);
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < n; ++w)
        best = std::min(best, lruKey(stamps[w], w));
    return lruKeyWay(best);
}

/** What claimWay() found: the way, and whether it already held the key. */
struct ClaimedWay
{
    unsigned way;
    bool hit;
};

/**
 * The way of @p keys holding @p key; if none does, the set's first
 * empty way, else its least recently used way by @p stamps. One pass
 * that stops at a match; the miss pick is one packed-key minimum with
 * empty ways keyed as stamp 0.
 */
template <unsigned W>
inline ClaimedWay
claimWay(const std::uint64_t *keys, std::uint64_t key, std::uint64_t empty,
         const std::uint64_t *stamps, unsigned ways)
{
    const unsigned n = wayCount<W>(ways);
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < n; ++w) {
        if (keys[w] == key)
            return ClaimedWay{w, true};
        best = std::min(best,
                        lruKeyOrEmpty(stamps[w], keys[w] != empty, w));
    }
    return ClaimedWay{lruKeyWay(best), false};
}

/** The largest RRPV (re-reference prediction value, DRRIP [27]). */
inline constexpr std::uint8_t kMaxRrpv = 3;

/**
 * RRIP victim of the set @p rrpvs[0, ways), whose values are all at most
 * kMaxRrpv: the first way holding the set's largest value. Every way
 * ages by kMaxRrpv minus that value, which is what "increment every
 * RRPV until one reaches 3" leaves behind.
 *
 * Byte-lane arithmetic on 64-bit words of 8 ways: x & (x >> 1) & 0x01..
 * marks the lanes holding 3, x & 0x02.. those holding 2 or 3, and
 * x & 0x01.. the odd ones, so three ORs give the set's maximum. One add
 * of (3 - max) * 0x01.. ages a word (no lane can carry: each ends at 3
 * or below), and the first lane now holding 3 is the victim. A word is
 * copied in and out with memcpy of only the set's own bytes, so a
 * partial word reads and writes nothing past the set.
 */
template <unsigned W>
inline unsigned
rripVictim(std::uint8_t *rrpvs, unsigned ways)
{
    static_assert(std::endian::native == std::endian::little,
                  "byte lane i of a word is way 8 * word + i");
    constexpr std::uint64_t kLanes = 0x0101010101010101ull;
    constexpr unsigned kMaxWords = kMaxWays / 8;
    const unsigned n = wayCount<W>(ways);
    const unsigned words = (n + 7) / 8;
    std::uint64_t x[W != 0 ? (W + 7) / 8 : kMaxWords];
    std::uint64_t threes = 0, highs = 0, odds = 0;
    for (unsigned i = 0; i < words; ++i) {
        x[i] = 0;
        std::memcpy(&x[i], rrpvs + 8 * i, std::min(8u, n - 8 * i));
        threes |= x[i] & (x[i] >> 1) & kLanes;
        highs |= x[i] & (kLanes << 1);
        odds |= x[i] & kLanes;
    }
    // The maximum's high bit is set if any value is 2 or 3; its low bit
    // then comes from a 3, else from any odd value (a 1).
    const unsigned high = highs != 0;
    const unsigned max =
        high << 1 | unsigned(threes != 0) | (unsigned(odds != 0) & (high ^ 1));
    const std::uint64_t age = std::uint64_t(kMaxRrpv - max) * kLanes;
    unsigned victim = n;
    for (unsigned i = words; i-- > 0;) {
        const std::uint64_t y = x[i] + age;
        std::memcpy(rrpvs + 8 * i, &y, std::min(8u, n - 8 * i));
        const std::uint64_t hit = y & (y >> 1) & kLanes;
        // Lanes past the set hold 0 + age, which is 3 only if every way
        // of the set was 0 and so already matched in a lower lane.
        victim = hit != 0 ? 8 * i + unsigned(std::countr_zero(hit)) / 8
                          : victim;
    }
    return victim;
}

/**
 * The lowest entry i of @p last[0, entries) with bit i of @p valid set
 * and @p line within @p window of last[i] (|line - last[i]| <= window),
 * or -1. Entry i matches when line - last[i] + window <= 2 * window in
 * wrapping 64-bit arithmetic: the set of differences in [-window,
 * window] shifted to [0, 2 * window], which cannot wrap while the window
 * is below 2^32. All entries are tested at once into a bit mask, and the
 * first set bit is the match the ordered scan would return.
 */
template <unsigned W>
inline int
firstInWindow(const std::uint64_t *last, std::uint64_t valid,
              std::uint64_t line, std::uint64_t window, unsigned entries)
{
    const unsigned n = wayCount<W>(entries);
    std::uint64_t near = 0;
    for (unsigned i = 0; i < n; ++i)
        near |= std::uint64_t(line - last[i] + window <= 2 * window) << i;
    near &= valid;
    return near != 0 ? std::countr_zero(near) : -1;
}

} // namespace ovl

#endif // OVERLAYSIM_COMMON_SET_KERNEL_HH
