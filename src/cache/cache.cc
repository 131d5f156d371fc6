#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/set_kernel.hh"
#include "sim/snapshot.hh"

namespace ovl
{

SetAssocCache::SetAssocCache(std::string name, CacheParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(setCount(params.sizeBytes / kLineSize, params.associativity)),
      ways_(params.associativity),
      shape_(shapeOf(params)),
      tags_(std::size_t(numSets_) * ways_, kInvalidAddr),
      state_(std::size_t(numSets_) * ways_),
      repl_(params.replPolicy, numSets_),
      hits_(&statGroup(), "hits", "demand hits"),
      misses_(&statGroup(), "misses", "demand misses"),
      writebacks_(&statGroup(), "writebacks", "dirty lines displaced"),
      prefetchFills_(&statGroup(), "prefetchFills", "lines filled by prefetch"),
      prefetchHits_(&statGroup(), "prefetchHits",
                    "demand hits on prefetched lines"),
      retags_(&statGroup(), "retags",
              "lines retagged in place (overlaying writes)")
{
    ovl_assert(params.sizeBytes % (kLineSize * params.associativity) == 0,
               "cache size must be a whole number of sets");
    ovl_assert(isPowerOf2(numSets_), "set count must be a power of two");
    if (repl_.usesLru())
        replLru_.assign(tags_.size(), 0);
    if (repl_.usesRrpv())
        replRrpv_.assign(tags_.size(), 0);
}

SetAssocCache::Shape
SetAssocCache::shapeOf(const CacheParams &params)
{
    if (params.associativity == 4 && params.replPolicy == ReplPolicy::LRU)
        return Shape::Lru4;
    if (params.associativity == 8 && params.replPolicy == ReplPolicy::LRU)
        return Shape::Lru8;
    if (params.associativity == 16 && params.replPolicy == ReplPolicy::DRRIP)
        return Shape::Drrip16;
    return Shape::Generic;
}

std::optional<Eviction>
SetAssocCache::invalidate(Addr line_addr)
{
    std::size_t i = withShape([&](auto shape) {
        return findIn<decltype(shape)::kWays>(line_addr);
    });
    if (i == kNotFound)
        return std::nullopt;
    Eviction ev{tags_[i], state_[i].dirty};
    tags_[i] = kInvalidAddr;
    state_[i].dirty = false;
    return ev;
}

void
SetAssocCache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidAddr);
    std::fill(state_.begin(), state_.end(), LineState{});
}

template <class Self, class Ar>
void
SetAssocCache::io(Self &self, Ar &ar)
{
    // Only state that decides behaviour is written (DESIGN.md §11.2):
    // an empty way is one zero byte, and a resident way its tag, its
    // flags and the one replacement field its policy reads. Restore
    // rebuilds every resident way exactly and every empty way as a
    // fresh one (a victim is chosen only in a full set).
    ar.section("CACH", [&] {
        const std::string what = "cache '" + self.name() + "'";
        ar.expectEq(self.tags_.size(), what + " line count");
        // The engine comes first: the stamps are written against its
        // counter.
        snapshot::visit(self.repl_, ar);
        if constexpr (Ar::kLoading) {
            std::fill(self.state_.begin(), self.state_.end(), LineState{});
            std::fill(self.replLru_.begin(), self.replLru_.end(), 0);
            std::fill(self.replRrpv_.begin(), self.replRrpv_.end(), 0);
        }
        const unsigned set_bits = floorLog2(self.numSets_);
        const std::vector<std::uint32_t> resident =
            snapshot::wayKeys(ar, self.tags_, kInvalidAddr, self.ways_,
                              kLineShift + set_bits, set_bits, 64, what);
        const std::size_t n = resident.size();
        if constexpr (Ar::kLoading) {
            ar.packed(n, 2, [&](std::size_t k, std::uint8_t bits) {
                self.state_[resident[k]] =
                    LineState{(bits & 1) != 0, (bits & 2) != 0};
            });
        } else {
            ar.packed(n, 2, [&](std::size_t k) {
                const LineState &st = self.state_[resident[k]];
                return unsigned(st.dirty) | unsigned(st.prefetched) << 1;
            });
        }
        if (self.repl_.usesRrpv()) {
            if constexpr (Ar::kLoading) {
                ar.packed(n, 2, [&](std::size_t k, std::uint8_t rrpv) {
                    self.replRrpv_[resident[k]] = rrpv;
                });
            } else {
                ar.packed(n, 2, [&](std::size_t k) {
                    return self.replRrpv_[resident[k]];
                });
            }
        }
        if (self.repl_.usesLru()) {
            snapshot::stampAges(ar, resident, self.replLru_,
                                self.repl_.lruCounter(), what);
        }
    });
}

OVL_SNAPSHOT_IO(SetAssocCache);

} // namespace ovl
