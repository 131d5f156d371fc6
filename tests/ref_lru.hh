/**
 * @file
 * A plain keyed-LRU reference for the tables built on LruTable (the TLB
 * levels and the OMT cache): keys and recency stamps per way, with the
 * policy written as the loop that states it. A claim takes the way
 * holding the key, else the set's first empty way, else the first way
 * holding the set's smallest stamp.
 */

#ifndef OVERLAYSIM_TESTS_REF_LRU_HH
#define OVERLAYSIM_TESTS_REF_LRU_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ovl::test
{

class RefLru
{
  public:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    RefLru(unsigned entries, unsigned ways)
        : ways_(ways), sets_(entries / ways), keys_(entries, kEmpty),
          stamps_(entries, 0)
    {
    }

    /** Index of the way holding @p key, or -1. */
    int
    find(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (keys_[w] == key)
                return int(w);
        }
        return -1;
    }

    /** find(), making a found way the most recently used. */
    int
    lookup(std::uint64_t key)
    {
        const int w = find(key);
        if (w >= 0)
            stamps_[std::size_t(w)] = ++counter_;
        return w;
    }

    struct Claim
    {
        std::size_t way;
        bool hit;
        std::uint64_t displaced; ///< kEmpty on a hit or an empty way
    };

    Claim
    claim(std::uint64_t key)
    {
        if (const int w = lookup(key); w >= 0)
            return Claim{std::size_t(w), true, kEmpty};
        const std::size_t base = setBase(key);
        std::size_t victim = base;
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (keys_[w] == kEmpty) {
                victim = w;
                break;
            }
            if (stamps_[w] < stamps_[victim])
                victim = w;
        }
        const Claim c{victim, false, keys_[victim]};
        keys_[victim] = key;
        stamps_[victim] = ++counter_;
        return c;
    }

    /** Empty the way holding @p key; its index, or -1. */
    int
    erase(std::uint64_t key)
    {
        const int w = find(key);
        if (w >= 0)
            keys_[std::size_t(w)] = kEmpty;
        return w;
    }

  private:
    std::size_t
    setBase(std::uint64_t key) const
    {
        return std::size_t(key % sets_) * ways_;
    }

    std::size_t ways_;
    std::uint64_t sets_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t counter_ = 0;
};

} // namespace ovl::test

#endif // OVERLAYSIM_TESTS_REF_LRU_HH
