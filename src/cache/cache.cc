#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/victim.hh"
#include "sim/snapshot.hh"

namespace ovl
{

SetAssocCache::SetAssocCache(std::string name, CacheParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(setCount(params.sizeBytes / kLineSize, params.associativity)),
      ways_(params.associativity),
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

std::optional<Eviction>
SetAssocCache::invalidate(Addr line_addr)
{
    std::size_t i = findIndex(line_addr);
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
    ar.section("CACH", [&] {
        ar.expectEq(self.tags_.size(),
                    "cache '" + self.name() + "' line count");
        for (auto &tag : self.tags_)
            ar.u64(tag);
        for (auto &st : self.state_) {
            ar.b(st.dirty);
            ar.b(st.prefetched);
        }
        // The interleaved {lruSeq, rrpv} pairs of the pre-split layout
        // keep snapshots byte-compatible across the layout change; the
        // field the policy does not allocate is written as 0 and must
        // load as 0.
        const bool has_lru = !self.replLru_.empty();
        const bool has_rrpv = !self.replRrpv_.empty();
        for (std::size_t i = 0; i < self.tags_.size(); ++i) {
            std::uint64_t lru = has_lru ? self.replLru_[i] : 0;
            std::uint8_t rrpv = has_rrpv ? self.replRrpv_[i] : 0;
            ar.u64(lru);
            ar.u8(rrpv);
            if constexpr (Ar::kLoading) {
                if ((!has_lru && lru != 0) || (!has_rrpv && rrpv != 0)) {
                    ar.fail("cache '" + self.name() + "' line " +
                            std::to_string(i) + " sets a replacement field "
                            "its policy does not use");
                }
                if (has_lru)
                    self.replLru_[i] = lru;
                if (has_rrpv)
                    self.replRrpv_[i] = rrpv;
            }
        }
        snapshot::visit(self.repl_, ar);
    });
}

OVL_SNAPSHOT_IO(SetAssocCache);

} // namespace ovl
