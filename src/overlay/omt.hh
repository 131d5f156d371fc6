/**
 * @file
 * The Overlay Mapping Table (§4.2, §4.4.4) and the memory-controller OMT
 * cache (Figure 6, item 2). The OMT maps each overlay page number (OPN)
 * to its OBitVector and the Overlay Memory Store segment holding the
 * overlay. It is stored hierarchically in main memory, like a page table,
 * and is walked by the memory controller; the 64-entry OMT cache holds
 * recently used entries together with their segment metadata.
 */

#ifndef OVERLAYSIM_OVERLAY_OMT_HH
#define OVERLAYSIM_OVERLAY_OMT_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvector64.hh"
#include "common/types.hh"
#include "overlay/oms_segment.hh"
#include "overlay/overlay_addr.hh"
#include "overlay/page_alloc.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/**
 * One OMT entry: the OBitVector of the overlay page, and (once the first
 * dirty line has been written back) the OMS segment storing it. Segment
 * metadata (slot pointers, free vector) lives in the segment's first line
 * in memory; it is mirrored here and cached alongside the entry in the
 * OMT cache (§4.4.4).
 */
struct OmtEntry
{
    /** No functional page data attached (see OverlayManager's store). */
    static constexpr std::uint32_t kNoPageData = ~std::uint32_t(0);

    BitVector64 obv;
    bool hasSegment = false;
    /** Index of the overlay's functional page data, or kNoPageData. */
    std::uint32_t pageDataIdx = kNoPageData;
    OmsSegment seg;
};

/**
 * Functional container plus radix-layout model of the OMT. The table is
 * laid out as a 4-level radix tree over the OPN; each level's node
 * occupies memory provided by the node allocator so that walks touch
 * realistic DRAM addresses.
 *
 * Storage mirrors the VM layer's PageTable: a sorted directory of
 * 512-entry leaf chunks keyed by opn >> 9, binary-searched with a
 * one-entry MRU chunk cache. Each chunk slot holds an index into a
 * pooled entry arena (stable std::deque storage), so a lookup is a
 * compare, an index and an array read — no hashing — while sparse OPN
 * spaces cost only one small chunk per populated 512-OPN window. The
 * chunk also caches its radix walk lines: every OPN in a chunk shares
 * the three upper-level node lines, and the leaf node page corresponds
 * 1:1 to the chunk, so a walk of a populated chunk is pure arithmetic.
 */
class Omt : public SimObject
{
  public:
    /** Number of radix levels walked on an OMT-cache miss. */
    static constexpr unsigned kWalkLevels = 4;

    /** @p node_page_alloc provides pages to hold table nodes. */
    Omt(std::string name, PageAllocFn node_page_alloc);

    /** Find an entry; nullptr when the OPN has no overlay. */
    OmtEntry *find(Opn opn);
    const OmtEntry *find(Opn opn) const;

    /** Find-or-create the entry for @p opn. */
    OmtEntry &findOrCreate(Opn opn);

    /** Remove an entry (overlay discarded/committed, §4.3.4). */
    void erase(Opn opn);

    std::size_t size() const { return size_; }

    /** Populated 512-OPN windows (accounting/tests). */
    std::size_t chunkCount() const { return chunks_.size(); }

    /**
     * Main-memory line addresses touched by a table walk for @p opn, in
     * dependence order (one node line per level). The walk descends only
     * nodes that exist: like a page-table walk, it terminates at the
     * first non-present level, so looking up an OPN with no overlay is
     * cheap. Walks never allocate nodes; node allocation happens when an
     * entry is created (see ensureNodePath()).
     */
    void walkAddresses(Opn opn, std::vector<Addr> &out) const;

    /**
     * Deepest existing node line of a walk for @p opn (what the
     * controller reads on an OMT-cache miss), or kInvalidAddr when no
     * level of the path exists. Equals walkAddresses(...).back() but
     * resolves populated chunks without touching the node map.
     */
    Addr walkLastAddr(Opn opn) const;

    /** Materialize the radix path for @p opn (entry creation/update). */
    void ensureNodePath(Opn opn);

    /**
     * Memory footprint of all allocated table nodes, in bytes: derived
     * from the node map, not the nodeBytes statistic, so a stats reset
     * cannot corrupt memory accounting (Figure 8).
     */
    std::uint64_t nodeBytes() const { return nodes_.size() * kPageSize; }

    /**
     * Snapshot visitor over the full table: chunk directory, entry arena
     * (preserving arena indices — chunk slots reference them), free list,
     * and the radix-node map. The node allocator is structural and not
     * serialized; the MRU caches are reset on restore. OMT body layout:
     * chunk count u64 then 2092-byte chunks, arena count u64 then 90-byte
     * entries (obv @0, hasSegment @8, pageDataIdx @9, ...).
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

    /** Visit every live entry as fn(opn, entry), in ascending OPN order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[chunk_id, chunk] : chunks_) {
            if (chunk->live == 0)
                continue;
            for (unsigned s = 0; s < kChunkSize; ++s) {
                std::uint32_t idx = chunk->slots[s];
                if (idx != kNoEntry)
                    fn(Opn((chunk_id << kChunkBits) | s), arena_[idx]);
            }
        }
    }

  private:
    static constexpr unsigned kChunkBits = 9;
    static constexpr unsigned kChunkSize = 1u << kChunkBits;
    static constexpr std::uint32_t kNoEntry = ~std::uint32_t(0);

    /** One 512-OPN window of the table. */
    struct Chunk
    {
        Chunk()
        {
            slots.fill(kNoEntry);
            upperLines.fill(kInvalidAddr);
        }

        /** Arena index per OPN in the window, or kNoEntry. */
        std::array<std::uint32_t, kChunkSize> slots;
        /** Cached walk lines of radix levels 0..2 (shared chunk-wide). */
        std::array<Addr, kWalkLevels - 1> upperLines;
        /** Base of the chunk's leaf node page; kInvalidAddr until the
         *  first entry materializes the path. */
        Addr leafBase = kInvalidAddr;
        /** Live entries in this chunk. */
        std::uint32_t live = 0;
    };

    Chunk *findChunk(std::uint64_t chunk_id) const;
    Chunk &ensureChunk(std::uint64_t chunk_id);
    /** Record the chunk's four walk lines (path must exist). */
    void fillChunkWalkCache(std::uint64_t chunk_id, Chunk &chunk);

    /** Node line for (level, opn); kInvalidAddr when absent and !create. */
    Addr nodeLineAddr(unsigned level, Opn opn, bool create);

    PageAllocFn nodePageAlloc_;

    /** Directory of leaf chunks, sorted by chunk id. */
    std::vector<std::pair<std::uint64_t, std::unique_ptr<Chunk>>> chunks_;
    mutable std::uint64_t cachedChunkId_ = ~std::uint64_t(0);
    mutable Chunk *cachedChunk_ = nullptr;

    /** Entry arena: deque storage keeps references stable forever. */
    std::deque<OmtEntry> arena_;
    std::vector<std::uint32_t> freeEntries_;
    std::size_t size_ = 0;

    /** (level, index-prefix) -> node base address. Cold path only:
     *  node creation and walks of unpopulated chunks. */
    std::unordered_map<std::uint64_t, Addr> nodes_;

    /** One-entry MRU cache over the table (see find()). */
    mutable Opn cachedOpn_ = kInvalidAddr;
    mutable OmtEntry *cachedEntry_ = nullptr;

    stats::Counter entriesCreated_;
    stats::Counter entriesErased_;
    stats::Counter nodeBytes_;
};

// ------------------------ inline hot path ------------------------------

inline Omt::Chunk *
Omt::findChunk(std::uint64_t chunk_id) const
{
    // The access stream dwells in one 2 MB OPN window at a time (a fork's
    // overlays share one chunk), so the MRU compare almost always wins.
    if (chunk_id == cachedChunkId_)
        return cachedChunk_;
    auto it = std::lower_bound(
        chunks_.begin(), chunks_.end(), chunk_id,
        [](const auto &e, std::uint64_t id) { return e.first < id; });
    if (it == chunks_.end() || it->first != chunk_id)
        return nullptr;
    cachedChunkId_ = chunk_id;
    cachedChunk_ = it->second.get();
    return cachedChunk_;
}

inline OmtEntry *
Omt::find(Opn opn)
{
    // The controller resolves the same OPN several times per operation
    // (omtAccess, then the read/writeback body); a one-entry MRU cache
    // turns the repeats into a compare. Arena entries never move, so
    // inserts don't invalidate the cached pointer.
    if (opn == cachedOpn_)
        return cachedEntry_;
    Chunk *chunk = findChunk(opn >> kChunkBits);
    if (chunk == nullptr)
        return nullptr;
    std::uint32_t idx = chunk->slots[opn & (kChunkSize - 1)];
    if (idx == kNoEntry)
        return nullptr;
    cachedOpn_ = opn;
    cachedEntry_ = &arena_[idx];
    return cachedEntry_;
}

inline const OmtEntry *
Omt::find(Opn opn) const
{
    return const_cast<Omt *>(this)->find(opn);
}

inline Addr
Omt::walkLastAddr(Opn opn) const
{
    Chunk *chunk = findChunk(opn >> kChunkBits);
    if (chunk != nullptr && chunk->leafBase != kInvalidAddr) {
        // 8-byte slots, 8 per line: the leaf line is pure arithmetic.
        return chunk->leafBase +
               Addr((opn & (kChunkSize - 1)) >> 3) * kLineSize;
    }
    // Unpopulated chunk: walk the node map, keeping the deepest level.
    Addr last = kInvalidAddr;
    for (unsigned level = 0; level < kWalkLevels; ++level) {
        Addr node =
            const_cast<Omt *>(this)->nodeLineAddr(level, opn, false);
        if (node == kInvalidAddr)
            break;
        last = node;
    }
    return last;
}

/** OMT-cache configuration (Table 2: 64 entries; §4.5 sizes each at 512 b). */
struct OmtCacheParams
{
    unsigned entries = 64;
    unsigned associativity = 4;
    /** Lookup latency in CPU cycles (small controller SRAM). */
    Tick hitLatency = 4;
    /**
     * Flat cost of a miss (the hierarchical OMT walk + segment-metadata
     * read). Table 2 charges "miss latency = 1000 cycles", mirroring the
     * flat TLB-walk cost.
     */
    Tick missLatency = 1000;
};

/**
 * The memory controller's cache of OMT entries. Tracks which cached
 * entries have been modified so that the dirty OMT state is written back
 * on eviction (§4.4.4). Stores only OPN tags; entry payloads stay in the
 * functional Omt.
 */
class OmtCache : public SimObject
{
  public:
    OmtCache(std::string name, OmtCacheParams params);

    /** Result of a lookup-allocate. */
    struct LookupResult
    {
        bool hit = false;
        /** OPN of a modified entry displaced by the fill, if any. */
        Opn writebackOpn = kInvalidAddr;
        bool needsWriteback = false;
    };

    /** Look up @p opn, allocating it (possibly evicting) on a miss. */
    LookupResult lookupAllocate(Opn opn);

    /**
     * lookupAllocate() fused with markModified(): the overlaying-write
     * fast path updates the entry it just resolved, so marking it during
     * the lookup saves the second tag scan. State-identical to
     * lookupAllocate(opn) followed by markModified(opn).
     */
    LookupResult lookupAllocateModify(Opn opn);

    /** Mark the cached copy of @p opn modified (OBitVector/slot update). */
    void markModified(Opn opn);

    /** Drop @p opn if cached; returns true if it was modified. */
    bool invalidate(Opn opn);

    /** Tag probe without replacement update. */
    bool isPresent(Opn opn) const;

    const OmtCacheParams &params() const { return params_; }

    /** SRAM cost of the cache: entries x 512 bits (§4.5). */
    std::uint64_t storageBits() const { return std::uint64_t(params_.entries) * 512; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Snapshot visitor over tags, modified bits and recency state. */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    struct Way
    {
        bool valid = false;
        bool modified = false;
        Opn opn = kInvalidAddr;
        std::uint64_t lruSeq = 0;
    };

    unsigned setOf(Opn opn) const { return unsigned(opn) & (numSets_ - 1); }
    Way *findWay(Opn opn);
    const Way *findWay(Opn opn) const;
    /** Shared body of the lookup variants: returns the resolved way. */
    Way &lookupAllocateWay(Opn opn, LookupResult &res);

    OmtCacheParams params_;
    unsigned numSets_;
    std::vector<Way> ways_;
    std::uint64_t lruCounter_ = 0;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter writebacks_;
};

} // namespace ovl

#endif // OVERLAYSIM_OVERLAY_OMT_HH
