#include "omt.hh"

#include <algorithm>

#include "common/host_bytes.hh"
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

void
OmtEntry::insertLine(unsigned line, const LineData &data)
{
    unsigned n = stored.count();
    std::size_t pos = rank(line);
    LineData *old = lines.get();
    if (n == lineCapacity(n)) {
        // Full: move to the next segment size, leaving the gap at pos.
        auto grown = std::make_unique_for_overwrite<LineData[]>(
            lineCapacity(n + 1));
        std::copy(old, old + pos, grown.get());
        std::copy(old + pos, old + n, grown.get() + pos + 1);
        lines = std::move(grown);
    } else {
        std::copy_backward(old + pos, old + n, old + n + 1);
    }
    lines[pos] = data;
    stored.set(line);
}

bool
Omt::fillChunkWalkCache(std::uint64_t chunk_id, Chunk &chunk)
{
    // Levels 0..2 are functions of the chunk id alone: every OPN in the
    // window shares them. The leaf node page is the chunk itself.
    Opn first_opn = Opn(chunk_id << kChunkBits);
    for (unsigned level = 0; level + 1 < kWalkLevels; ++level) {
        chunk.upperLines[level] = nodeLineAddr(level, first_opn, false);
        if (chunk.upperLines[level] == kInvalidAddr)
            return false;
    }
    std::uint64_t key =
        (std::uint64_t(kWalkLevels - 1) << 56) ^ chunk_id;
    auto it = nodes_.find(key);
    if (it == nodes_.end())
        return false;
    chunk.leafBase = it->second;
    return true;
}

OmtEntry &
Omt::findOrCreate(Opn opn)
{
    if (opn == cachedOpn_)
        return *cachedEntry_;
    Chunk &chunk = chunks_.findOrInsert(opn >> kChunkBits);
    if (chunk.slots == nullptr) {
        chunk.slots = std::make_unique<SlotArray>();
        chunk.slots->fill(kNoEntry);
    }
    std::uint32_t &slot = (*chunk.slots)[opn & (kChunkSize - 1)];
    if (slot == kNoEntry) {
        ++entriesCreated_;
        if (chunk.leafBase == kInvalidAddr) {
            // First entry of this 512-OPN window: materialize the radix
            // path and cache the chunk's walk lines. Every other OPN in
            // the window shares all four node pages (levels 0..2 are
            // functions of the chunk id; the leaf page is the chunk), so
            // a filled walk cache proves ensureNodePath would be a no-op.
            ensureNodePath(opn);
            bool filled = fillChunkWalkCache(opn >> kChunkBits, chunk);
            ovl_assert(filled, "radix path missing after its creation");
        }
        if (!freeEntries_.empty()) {
            // erase() left the recycled entry pristine.
            slot = freeEntries_.back();
            freeEntries_.pop_back();
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
    Chunk *chunk = chunks_.find(opn >> kChunkBits);
    if (chunk == nullptr || chunk->slots == nullptr)
        return;
    std::uint32_t &slot = (*chunk->slots)[opn & (kChunkSize - 1)];
    if (slot == kNoEntry)
        return;
    arena_[slot] = OmtEntry(); // frees the stored lines
    freeEntries_.push_back(slot);
    slot = kNoEntry;
    --size_;
    ++entriesErased_;
    // The emptied chunk frees its slot array, so host memory follows the
    // live entries rather than every window ever populated. The chunk
    // itself (its walk cache) and its radix nodes are retained: table
    // nodes are never freed, so walks of erased OPNs still see the full
    // path, exactly as a hardware table walk would.
    if (--chunk->live == 0)
        chunk->slots.reset();
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
    Chunk *chunk = chunks_.find(opn >> kChunkBits);
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

std::uint64_t
Omt::slotArrayBytes() const
{
    std::uint64_t arrays = 0;
    for (const auto &[chunk_id, chunk] : chunks_)
        arrays += chunk->slots != nullptr;
    return arrays * sizeof(SlotArray);
}

std::uint64_t
Omt::hostBytes() const
{
    return chunks_.hostBytes() + slotArrayBytes() +
           arena_.size() * sizeof(OmtEntry) +
           freeEntries_.capacity() * sizeof(std::uint32_t) +
           hashMapHostBytes(nodes_);
}

namespace
{

/**
 * One live entry's body (format 5): the OBitVector, the segment (only
 * when one is allocated; an entry without one holds a fresh segment) as
 * its base, class and slot pointers, then the present and stored bitmaps
 * and the stored lines in line order. The free-slot vector is derived:
 * the capacity's slots no line points to (all ones for a 4 KB segment,
 * which has no slot pointers).
 */
template <class E, class Ar>
void
entryIo(E &e, Ar &ar)
{
    ar.u64(e.obv.raw());
    ar.b(e.hasSegment);
    if (e.hasSegment) {
        ar.u64(e.seg.baseAddr);
        ar.u8(e.seg.cls);
        if constexpr (Ar::kLoading) {
            if (unsigned(e.seg.cls) >= kNumSegClasses)
                ar.fail("OMT entry segment class " +
                        std::to_string(unsigned(e.seg.cls)) +
                        " out of range");
        }
        ar.blob(e.seg.meta.slotOf);
        if constexpr (Ar::kLoading) {
            const unsigned slots =
                e.seg.cls == SegClass::Seg4KB ? 0 : e.seg.capacity();
            e.seg.meta.initFree(e.seg.cls);
            for (std::uint8_t slot : e.seg.meta.slotOf) {
                if (slot == kInvalidSlot)
                    continue;
                const std::uint32_t bit = std::uint32_t(1) << (slot & 31);
                if (slot >= slots)
                    ar.fail("OMT entry slot " + std::to_string(slot) +
                            " past the segment's " + std::to_string(slots));
                if ((e.seg.meta.freeSlots & bit) == 0)
                    ar.fail("OMT entry slot " + std::to_string(slot) +
                            " held by two lines");
                e.seg.meta.freeSlots &= ~bit;
            }
        }
    }
    ar.u64(e.present.raw());
    ar.u64(e.stored.raw());
    const unsigned n = e.stored.count();
    if constexpr (Ar::kLoading) {
        if (n != 0)
            e.lines = std::make_unique<LineData[]>(OmtEntry::lineCapacity(n));
    }
    for (unsigned k = 0; k < n; ++k)
        ar.blob(e.lines[k]);
}

} // namespace

template <class Self, class Ar>
void
Omt::io(Self &self, Ar &ar)
{
    ar.section("OMT ", [&] {
        // The node map travels sorted by key so identical table state
        // always produces identical bytes, independent of hash iteration
        // order. It comes first: restore derives the chunks' walk caches
        // from it.
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
            for (std::size_t i = 1; i < nodes.size(); ++i) {
                if (nodes[i].first <= nodes[i - 1].first)
                    ar.fail("OMT node map not strictly ascending");
            }
            self.nodes_.clear();
            self.nodes_.reserve(nodes.size());
            self.nodes_.insert(nodes.begin(), nodes.end());
            self.arena_.clear();
            self.freeEntries_ = {};
            self.size_ = 0;
            self.cachedOpn_ = kInvalidAddr;
            self.cachedEntry_ = nullptr;
        }

        // Each chunk writes its live count and then its live entries as
        // (slot offset, body) in slot order; a retired chunk writes a
        // count of zero.
        ChunkDirectory<Chunk>::io(
            self.chunks_, ar, 2, "OMT chunk",
            [&](std::uint64_t chunk_id, auto &chunk) {
            auto live = std::uint16_t(chunk.live);
            ar.u16(live);
            if constexpr (Ar::kLoading) {
                if (!self.fillChunkWalkCache(chunk_id, chunk)) {
                    ar.fail("OMT chunk " + std::to_string(chunk_id) +
                            " has no radix path in the node map");
                }
                chunk.live = live;
                self.size_ += live;
                if (live != 0) {
                    chunk.slots = std::make_unique<SlotArray>();
                    chunk.slots->fill(kNoEntry);
                }
                unsigned next = 0; // lowest offset the next entry may use
                for (unsigned k = 0; k < live; ++k) {
                    std::uint16_t offset = 0;
                    ar.u16(offset);
                    if (offset < next || offset >= kChunkSize) {
                        ar.fail("OMT chunk " + std::to_string(chunk_id) +
                                " slot offset " + std::to_string(offset) +
                                " not ascending below " +
                                std::to_string(kChunkSize));
                    }
                    next = offset + 1u;
                    (*chunk.slots)[offset] =
                        std::uint32_t(self.arena_.size());
                    entryIo(self.arena_.emplace_back(), ar);
                }
            } else if (live != 0) {
                for (unsigned s = 0; s < kChunkSize; ++s) {
                    std::uint32_t idx = (*chunk.slots)[s];
                    if (idx != kNoEntry) {
                        ar.u16(s);
                        entryIo(self.arena_[idx], ar);
                    }
                }
            }
        });
    });
}

OmtCache::OmtCache(std::string name, OmtCacheParams params)
    : SimObject(std::move(name)), params_(params),
      table_(params.entries, params.associativity),
      hits_(&statGroup(), "hits", "OMT cache hits"),
      misses_(&statGroup(), "misses", "OMT cache misses (table walks)"),
      writebacks_(&statGroup(), "writebacks", "modified entries evicted")
{
}

OmtCache::Entry &
OmtCache::lookupAllocateEntry(Opn opn, LookupResult &res)
{
    ovl_assert(opn >> overlay_addr::kOpnBits == 0,
               "OPN too wide for the OMT cache key");
    const Table::Claim c = table_.claim(opn);
    Entry &entry = table_.payload(c.way);
    if (c.hit) {
        ++hits_;
        res.hit = true;
        return entry;
    }
    ++misses_;
    if (c.displaced != Table::kEmpty && entry.modified) {
        res.writebackOpn = c.displaced;
        res.needsWriteback = true;
        ++writebacks_;
    }
    entry = Entry{};
    return entry;
}

OmtCache::LookupResult
OmtCache::lookupAllocate(Opn opn)
{
    LookupResult res;
    lookupAllocateEntry(opn, res);
    return res;
}

OmtCache::LookupResult
OmtCache::lookupAllocateModify(Opn opn)
{
    LookupResult res;
    lookupAllocateEntry(opn, res).modified = true;
    return res;
}

void
OmtCache::markModified(Opn opn)
{
    if (Entry *entry = table_.find(opn))
        entry->modified = true;
}

bool
OmtCache::invalidate(Opn opn)
{
    const Entry *entry = table_.erase(opn);
    return entry != nullptr && entry->modified;
}

bool
OmtCache::isPresent(Opn opn) const
{
    return table_.find(opn) != nullptr;
}

template <class Self, class Ar>
void
OmtCache::io(Self &self, Ar &ar)
{
    // The table's way record (DESIGN.md §11.2), with the resident ways'
    // modified bits as a packed 1-bit array.
    ar.section("OMTC", [&] {
        auto &table = self.table_;
        auto fields = [&](const std::vector<std::uint32_t> &resident) {
            if constexpr (Ar::kLoading) {
                ar.packed(resident.size(), 1,
                          [&](std::size_t k, std::uint8_t bit) {
                              table.payload(resident[k]).modified = bit != 0;
                          });
            } else {
                ar.packed(resident.size(), 1, [&](std::size_t k) {
                    return unsigned(table.payload(resident[k]).modified);
                });
            }
        };
        Table::io(table, ar, overlay_addr::kOpnBits,
                  "OMT cache '" + self.name() + "'", fields);
    });
}

OVL_SNAPSHOT_IO(Omt);
OVL_SNAPSHOT_IO(OmtCache);

} // namespace ovl
