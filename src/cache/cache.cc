#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

SetAssocCache::SetAssocCache(std::string name, CacheParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(unsigned(params.sizeBytes / kLineSize / params.associativity)),
      ways_(params.associativity),
      tags_(std::size_t(numSets_) * ways_, kInvalidAddr),
      state_(std::size_t(numSets_) * ways_),
      replLru_(std::size_t(numSets_) * ways_, 0),
      replRrpv_(std::size_t(numSets_) * ways_, 0),
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
        // keep snapshots byte-compatible across the layout change.
        for (std::size_t i = 0; i < self.replLru_.size(); ++i) {
            ar.u64(self.replLru_[i]);
            ar.u8(self.replRrpv_[i]);
        }
        snapshot::visit(self.repl_, ar);
    });
}

OVL_SNAPSHOT_IO(SetAssocCache);

} // namespace ovl
