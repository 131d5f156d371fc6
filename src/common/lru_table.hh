/**
 * @file
 * The keyed-LRU way table behind the TLB levels and the OMT cache (the
 * memory controller caches OMT entries as a TLB caches PTEs, §4.3). Key
 * k lives in set k mod sets; a claim takes the way holding the key, else
 * the set's first empty way, else its LRU way (DESIGN.md §13.3). The
 * owner keeps its key packing, statistics and payload fields.
 */

#ifndef OVERLAYSIM_COMMON_LRU_TABLE_HH
#define OVERLAYSIM_COMMON_LRU_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/set_kernel.hh"
// Only io() uses the snapshot archive; its owners link ovl_sim.
#include "sim/snapshot.hh"

namespace ovl
{

template <class Payload>
class LruTable
{
  public:
    /** An empty way's key; every real key must differ from it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    LruTable(unsigned entries, unsigned ways)
        : ways_(ways), sets_(setCount(entries, ways)),
          keys_(entries, kEmpty), stamps_(entries, 0), payloads_(entries)
    {
        ovl_assert(entries % ways == 0,
                   "entries must divide evenly into sets");
        ovl_assert(isPowerOf2(sets_), "set count must be a power of two");
    }

    /** The payload of the way holding @p key, or nullptr. */
    Payload *
    find(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        return i != kNone ? &payloads_[i] : nullptr;
    }

    const Payload *
    find(std::uint64_t key) const
    {
        return const_cast<LruTable *>(this)->find(key);
    }

    /** find(), also making the way its set's most recently used. */
    Payload *
    touch(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        return i != kNone ? &use(i) : nullptr;
    }

    struct Claim
    {
        std::size_t way;
        bool hit;
        /** The key evicted on a miss; kEmpty if the way was empty. */
        std::uint64_t displaced;
    };

    /**
     * Put @p key in its set (claimWay()) and make its way the most
     * recently used. A miss leaves the way's old payload for the caller
     * to read and overwrite.
     */
    Claim
    claim(std::uint64_t key)
    {
        const std::size_t base = setBase(key);
        const ClaimedWay c = withWays([&](auto ways) {
            return claimWay<decltype(ways)::value>(
                &keys_[base], key, kEmpty, &stamps_[base], ways_);
        });
        const std::size_t i = base + c.way;
        const std::uint64_t displaced =
            c.hit ? kEmpty : std::exchange(keys_[i], key);
        use(i);
        return Claim{i, c.hit, displaced};
    }

    /** Make @p way its set's most recently used; returns its payload. */
    Payload &
    use(std::size_t way)
    {
        stamps_[way] = ++counter_;
        return payloads_[way];
    }

    Payload &payload(std::size_t way) { return payloads_[way]; }
    const Payload &payload(std::size_t way) const { return payloads_[way]; }
    std::uint64_t key(std::size_t way) const { return keys_[way]; }

    /** Empty the way holding @p key; its payload, or nullptr. */
    Payload *
    erase(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        if (i == kNone)
            return nullptr;
        keys_[i] = kEmpty;
        return &payloads_[i];
    }

    template <class Pred>
    void
    eraseIf(Pred &&pred)
    {
        for (std::uint64_t &key : keys_) {
            if (key != kEmpty && pred(key))
                key = kEmpty;
        }
    }

    void clear() { std::fill(keys_.begin(), keys_.end(), kEmpty); }

    /**
     * The way record (DESIGN.md §11.2): the way count, the counter, the
     * way keys (snapshot::wayKeys; a key must fit in @p key_bits bits),
     * @p fields(resident) for the owner's fields of the resident ways,
     * then their stamp ages. Empty ways restore fresh.
     */
    template <class Self, class Ar, class Fields>
    static void
    io(Self &self, Ar &ar, unsigned key_bits, const std::string &what,
       Fields &&fields)
    {
        ar.expectEq(self.keys_.size(), what + " way count");
        ar.u64(self.counter_);
        if constexpr (Ar::kLoading) {
            std::fill(self.payloads_.begin(), self.payloads_.end(),
                      Payload{});
            std::fill(self.stamps_.begin(), self.stamps_.end(), 0);
        }
        const unsigned set_bits = floorLog2(self.sets_);
        const std::vector<std::uint32_t> resident =
            snapshot::wayKeys(ar, self.keys_, kEmpty, self.ways_, set_bits,
                              set_bits, key_bits, what);
        fields(resident);
        snapshot::stampAges(ar, resident, self.stamps_, self.counter_,
                            what);
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t(0);

    std::size_t
    setBase(std::uint64_t key) const
    {
        return std::size_t(unsigned(key) & (sets_ - 1)) * ways_;
    }

    /** The way holding @p key, or kNone. */
    std::size_t
    indexOf(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        const unsigned way = withWays([&](auto ways) {
            return findWay<decltype(ways)::value>(&keys_[base], key, ways_);
        });
        return way < ways_ ? base + way : kNone;
    }

    /**
     * Call @p fn with the set width as a std::integral_constant: 4 and 8
     * (Table 2's L1 TLB and OMT cache, and its L2 TLB) are constants;
     * any other width passes 0, read at run time by the set kernel.
     */
    template <class Fn>
    decltype(auto)
    withWays(Fn &&fn) const
    {
        switch (ways_) {
          case 4: return fn(std::integral_constant<unsigned, 4>{});
          case 8: return fn(std::integral_constant<unsigned, 8>{});
          default: return withAnyWays(fn);
        }
    }

    /** withWays() at a run-time width, out of line: Table 2 never runs it. */
    template <class Fn>
    [[gnu::noinline]] static decltype(auto)
    withAnyWays(Fn &fn)
    {
        return fn(std::integral_constant<unsigned, 0>{});
    }

    unsigned ways_;
    unsigned sets_;
    /** Keys alone, so a way scan reads 8 bytes per way. */
    std::vector<std::uint64_t> keys_;
    /** LRU stamps, parallel to keys_: a victim choice reads only these. */
    std::vector<std::uint64_t> stamps_;
    /** Parallel to keys_: only a hit or a fill touches a payload. */
    std::vector<Payload> payloads_;
    std::uint64_t counter_ = 0;
};

} // namespace ovl

#endif // OVERLAYSIM_COMMON_LRU_TABLE_HH
