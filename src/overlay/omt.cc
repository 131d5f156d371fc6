#include "omt.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

Omt::Omt(std::string name, PageAllocFn node_page_alloc)
    : SimObject(std::move(name)), nodePageAlloc_(node_page_alloc),
      entriesCreated_(&statGroup(), "entriesCreated", "OMT entries created"),
      entriesErased_(&statGroup(), "entriesErased", "OMT entries erased"),
      nodeBytes_(&statGroup(), "nodeBytes", "bytes of OMT radix nodes")
{
    ovl_assert(nodePageAlloc_, "OMT needs a node allocator");
    nodes_.reserve(256);
}

Omt::Chunk &
Omt::ensureChunk(std::uint64_t chunk_id)
{
    if (chunk_id == cachedChunkId_)
        return *cachedChunk_;
    auto it = std::lower_bound(
        chunks_.begin(), chunks_.end(), chunk_id,
        [](const auto &e, std::uint64_t id) { return e.first < id; });
    if (it == chunks_.end() || it->first != chunk_id) {
        // Chunk creation is rare (once per populated 512-OPN window, e.g.
        // once per forked process); the sorted insert is off the hot path.
        it = chunks_.insert(
            it, {chunk_id, std::make_unique<Chunk>()});
    }
    cachedChunkId_ = chunk_id;
    cachedChunk_ = it->second.get();
    return *cachedChunk_;
}

void
Omt::fillChunkWalkCache(std::uint64_t chunk_id, Chunk &chunk)
{
    // Levels 0..2 are functions of the chunk id alone: every OPN in the
    // window shares them. The leaf node page is the chunk itself.
    Opn first_opn = Opn(chunk_id << kChunkBits);
    for (unsigned level = 0; level + 1 < kWalkLevels; ++level)
        chunk.upperLines[level] = nodeLineAddr(level, first_opn, false);
    std::uint64_t key =
        (std::uint64_t(kWalkLevels - 1) << 56) ^ chunk_id;
    auto it = nodes_.find(key);
    ovl_assert(it != nodes_.end(), "leaf node missing after path creation");
    chunk.leafBase = it->second;
}

OmtEntry &
Omt::findOrCreate(Opn opn)
{
    if (opn == cachedOpn_)
        return *cachedEntry_;
    Chunk &chunk = ensureChunk(opn >> kChunkBits);
    std::uint32_t &slot = chunk.slots[opn & (kChunkSize - 1)];
    if (slot == kNoEntry) {
        ++entriesCreated_;
        if (chunk.leafBase == kInvalidAddr) {
            // First entry of this 512-OPN window: materialize the radix
            // path and cache the chunk's walk lines. Every other OPN in
            // the window shares all four node pages (levels 0..2 are
            // functions of the chunk id; the leaf page is the chunk), so
            // a filled walk cache proves ensureNodePath would be a no-op.
            ensureNodePath(opn);
            fillChunkWalkCache(opn >> kChunkBits, chunk);
        }
        if (!freeEntries_.empty()) {
            slot = freeEntries_.back();
            freeEntries_.pop_back();
            arena_[slot] = OmtEntry();
        } else {
            slot = std::uint32_t(arena_.size());
            arena_.emplace_back();
        }
        ++chunk.live;
        ++size_;
    }
    cachedOpn_ = opn;
    cachedEntry_ = &arena_[slot];
    return *cachedEntry_;
}

void
Omt::erase(Opn opn)
{
    // Drop the MRU entry first: after the slot is recycled the cached
    // pointer would alias whatever OPN claims the arena slot next.
    if (opn == cachedOpn_) {
        cachedOpn_ = kInvalidAddr;
        cachedEntry_ = nullptr;
    }
    Chunk *chunk = findChunk(opn >> kChunkBits);
    if (chunk == nullptr)
        return;
    std::uint32_t &slot = chunk->slots[opn & (kChunkSize - 1)];
    if (slot == kNoEntry)
        return;
    freeEntries_.push_back(slot);
    slot = kNoEntry;
    --chunk->live;
    --size_;
    ++entriesErased_;
    // Chunks (and their radix nodes) are retained: table nodes are never
    // freed, so walks of erased OPNs still see the full path, exactly as
    // a hardware table walk would.
}

Addr
Omt::nodeLineAddr(unsigned level, Opn opn, bool create)
{
    // Radix layout: level L is indexed by the OPN's top (L+1)*9 bits; each
    // node is one page of 512 8-byte slots, so consecutive prefixes share
    // node pages realistically.
    constexpr unsigned kBitsPerLevel = 9;
    unsigned shift = (kWalkLevels - 1 - level) * kBitsPerLevel;
    std::uint64_t index = (opn >> shift);
    std::uint64_t node_index = index >> kBitsPerLevel; // which node page
    std::uint64_t slot = index & ((1u << kBitsPerLevel) - 1);

    std::uint64_t key = (std::uint64_t(level) << 56) ^ node_index;
    auto it = nodes_.find(key);
    if (it == nodes_.end()) {
        if (!create)
            return kInvalidAddr;
        it = nodes_.emplace(key, nodePageAlloc_()).first;
        nodeBytes_ += kPageSize;
    }
    // 8-byte slots: 8 slots per 64 B line.
    return it->second + roundDown(slot * 8, kLineSize);
}

void
Omt::walkAddresses(Opn opn, std::vector<Addr> &out) const
{
    out.clear();
    Chunk *chunk = findChunk(opn >> kChunkBits);
    if (chunk != nullptr && chunk->leafBase != kInvalidAddr) {
        for (unsigned level = 0; level + 1 < kWalkLevels; ++level)
            out.push_back(chunk->upperLines[level]);
        out.push_back(chunk->leafBase +
                      Addr((opn & (kChunkSize - 1)) >> 3) * kLineSize);
        return;
    }
    for (unsigned level = 0; level < kWalkLevels; ++level) {
        Addr node = const_cast<Omt *>(this)->nodeLineAddr(level, opn,
                                                          false);
        if (node == kInvalidAddr)
            break; // non-present level: the walk ends here
        out.push_back(node);
    }
}

void
Omt::ensureNodePath(Opn opn)
{
    for (unsigned level = 0; level < kWalkLevels; ++level)
        nodeLineAddr(level, opn, true);
}

template <class Self, class Ar>
void
Omt::io(Self &self, Ar &ar)
{
    ar.section("OMT ", [&] {
        if constexpr (Ar::kLoading) {
            self.cachedChunkId_ = ~std::uint64_t(0);
            self.cachedChunk_ = nullptr;
            self.cachedOpn_ = kInvalidAddr;
            self.cachedEntry_ = nullptr;
        }
        const std::uint64_t *prev_id = nullptr;
        ar.seq(self.chunks_, kChunkSize * 4, [&](auto &dir_entry) {
            auto &[chunk_id, chunk] = dir_entry;
            ar.u64(chunk_id);
            if constexpr (Ar::kLoading) {
                if (prev_id != nullptr && chunk_id <= *prev_id)
                    ar.fail("OMT chunk directory not strictly ascending");
                chunk = std::make_unique<Chunk>();
            }
            prev_id = &chunk_id;
            for (auto &slot : chunk->slots)
                ar.u32(slot);
            for (auto &line : chunk->upperLines)
                ar.u64(line);
            ar.u64(chunk->leafBase);
            ar.u32(chunk->live);
        });

        // The arena is written index-for-index, free entries included:
        // chunk slots and OverlayManager page-data indices reference arena
        // positions, so the layout must survive the round trip exactly.
        ar.seq(self.arena_, 8 + 1 + 4 + 8 + 1 + 64 + 4, [&](auto &e) {
            ar.u64(e.obv.raw());
            ar.b(e.hasSegment);
            ar.u32(e.pageDataIdx);
            ar.u64(e.seg.baseAddr);
            ar.u8(e.seg.cls);
            if constexpr (Ar::kLoading) {
                if (unsigned(e.seg.cls) >= kNumSegClasses)
                    ar.fail("OMT entry segment class " +
                            std::to_string(unsigned(e.seg.cls)) +
                            " out of range");
            }
            ar.blob(e.seg.meta.slotOf);
            ar.u32(e.seg.meta.freeSlots);
        });

        ar.seq(self.freeEntries_, 4, [&](auto &idx) {
            ar.u32(idx);
            if constexpr (Ar::kLoading) {
                if (idx >= self.arena_.size())
                    ar.fail("OMT free-list index out of arena bounds");
            }
        });
        ar.u64(self.size_);

        // The node map travels sorted by key so identical table state
        // always produces identical bytes, independent of hash iteration
        // order.
        std::vector<std::pair<std::uint64_t, Addr>> nodes;
        if constexpr (!Ar::kLoading) {
            nodes.assign(self.nodes_.begin(), self.nodes_.end());
            std::sort(nodes.begin(), nodes.end());
        }
        ar.seq(nodes, 16, [&](auto &node) {
            ar.u64(node.first);
            ar.u64(node.second);
        });
        if constexpr (Ar::kLoading) {
            self.nodes_.clear();
            self.nodes_.reserve(nodes.size());
            self.nodes_.insert(nodes.begin(), nodes.end());

            // Validate chunk slots against the restored arena.
            for (const auto &[chunk_id, chunk] : self.chunks_) {
                for (std::uint32_t slot : chunk->slots) {
                    if (slot != kNoEntry && slot >= self.arena_.size())
                        ar.fail("OMT chunk slot index out of arena bounds");
                }
            }
        }
    });
}

OmtCache::OmtCache(std::string name, OmtCacheParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(params.entries / params.associativity),
      ways_(params.entries),
      hits_(&statGroup(), "hits", "OMT cache hits"),
      misses_(&statGroup(), "misses", "OMT cache misses (table walks)"),
      writebacks_(&statGroup(), "writebacks", "modified entries evicted")
{
    ovl_assert(params.entries % params.associativity == 0,
               "OMT cache entries must divide evenly into sets");
    ovl_assert(isPowerOf2(numSets_), "OMT cache set count must be 2^n");
}

OmtCache::Way *
OmtCache::findWay(Opn opn)
{
    Way *set = &ways_[std::size_t(setOf(opn)) * params_.associativity];
    for (unsigned w = 0; w < params_.associativity; ++w) {
        if (set[w].valid && set[w].opn == opn)
            return &set[w];
    }
    return nullptr;
}

const OmtCache::Way *
OmtCache::findWay(Opn opn) const
{
    return const_cast<OmtCache *>(this)->findWay(opn);
}

OmtCache::Way &
OmtCache::lookupAllocateWay(Opn opn, LookupResult &res)
{
    if (Way *way = findWay(opn)) {
        ++hits_;
        way->lruSeq = ++lruCounter_;
        res.hit = true;
        return *way;
    }

    ++misses_;
    Way *set = &ways_[std::size_t(setOf(opn)) * params_.associativity];
    Way *victim = &set[0];
    for (unsigned w = 0; w < params_.associativity; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lruSeq < victim->lruSeq)
            victim = &set[w];
    }

    if (victim->valid && victim->modified) {
        res.writebackOpn = victim->opn;
        res.needsWriteback = true;
        ++writebacks_;
    }
    victim->valid = true;
    victim->modified = false;
    victim->opn = opn;
    victim->lruSeq = ++lruCounter_;
    return *victim;
}

OmtCache::LookupResult
OmtCache::lookupAllocate(Opn opn)
{
    LookupResult res;
    lookupAllocateWay(opn, res);
    return res;
}

OmtCache::LookupResult
OmtCache::lookupAllocateModify(Opn opn)
{
    LookupResult res;
    lookupAllocateWay(opn, res).modified = true;
    return res;
}

void
OmtCache::markModified(Opn opn)
{
    if (Way *way = findWay(opn))
        way->modified = true;
}

bool
OmtCache::invalidate(Opn opn)
{
    if (Way *way = findWay(opn)) {
        bool was_modified = way->modified;
        way->valid = false;
        way->modified = false;
        return was_modified;
    }
    return false;
}

bool
OmtCache::isPresent(Opn opn) const
{
    return findWay(opn) != nullptr;
}

template <class Self, class Ar>
void
OmtCache::io(Self &self, Ar &ar)
{
    ar.section("OMTC", [&] {
        ar.expectEq(self.ways_.size(), "OMT cache way count");
        for (auto &way : self.ways_) {
            ar.b(way.valid);
            ar.b(way.modified);
            ar.u64(way.opn);
            ar.u64(way.lruSeq);
        }
        ar.u64(self.lruCounter_);
    });
}

OVL_SNAPSHOT_IO(Omt);
OVL_SNAPSHOT_IO(OmtCache);

} // namespace ovl
