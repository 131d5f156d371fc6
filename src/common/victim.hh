/**
 * @file
 * Branch-free victim choice for the set-associative structures (caches,
 * TLBs, the prefetcher's stream table, the OMT cache). Each way's
 * ordering value — an LRU stamp or an RRIP prediction — is packed above
 * its way index, so one min (or max) over the packed keys returns the
 * first way holding the smallest (largest) value: exactly the way a
 * first-min / first-max scan picks, but as a reduction the compiler
 * turns into conditional moves instead of a compare-and-branch per way
 * that mispredicts on random traffic (DESIGN.md §13.3).
 */

#ifndef OVERLAYSIM_COMMON_VICTIM_HH
#define OVERLAYSIM_COMMON_VICTIM_HH

#include <algorithm>
#include <cstdint>

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

/** First way holding the smallest of @p stamps[0, ways). */
inline unsigned
lruVictim(const std::uint64_t *stamps, unsigned ways)
{
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < ways; ++w)
        best = std::min(best, lruKey(stamps[w], w));
    return lruKeyWay(best);
}

/** Result of firstMax(): the first way holding the maximum, and it. */
struct FirstMax
{
    unsigned way;
    std::uint8_t value;
};

/**
 * First way holding the largest of @p values[0, ways): a maximum over
 * 16-bit keys (value << 8) | (255 - way), so among equal values the
 * lowest way wins.
 */
inline FirstMax
firstMax(const std::uint8_t *values, unsigned ways)
{
    std::uint16_t best = 0;
    for (unsigned w = 0; w < ways; ++w) {
        best = std::max(best,
                        std::uint16_t((values[w] << 8) | (255 - w)));
    }
    return FirstMax{255u - (best & 255u), std::uint8_t(best >> 8)};
}

} // namespace ovl

#endif // OVERLAYSIM_COMMON_VICTIM_HH
