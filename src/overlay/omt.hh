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
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvector64.hh"
#include "common/chunk_directory.hh"
#include "common/lru_table.hh"
#include "common/types.hh"
#include "overlay/oms_segment.hh"
#include "overlay/overlay_addr.hh"
#include "overlay/page_alloc.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/**
 * One OMT entry: the OBitVector of the overlay page, (once the first
 * dirty line has been written back) the OMS segment storing it, and the
 * overlay's logical line contents. Segment metadata (slot pointers, free
 * vector) lives in the segment's first line in memory; it is mirrored
 * here and cached alongside the entry in the OMT cache (§4.4.4).
 *
 * The contents are held the way the OMS stores an overlay (§4.4.1):
 * `present` marks the lines with logical contents, `stored` the lines
 * holding data, and `lines` holds the stored lines in ascending line
 * order, so line l sits at the rank of l in `stored`; every other
 * present line reads (and serializes) as zero. The array holds
 * lineCapacity(stored.count()) lines: 4, 8, 16, 32 or 64, the OMS
 * segment sizes 256 B to 4 KB. A zero line is not stored unless its
 * line already is. Erasing the entry frees the lines, so host memory
 * follows the live overlays and a new overlay starts empty.
 */
struct OmtEntry
{
    BitVector64 obv;
    bool hasSegment = false;
    OmsSegment seg;

    BitVector64 present;
    BitVector64 stored;
    std::unique_ptr<LineData[]> lines;

    /** Position of @p line in `lines` (whether or not stored). */
    std::size_t
    rank(unsigned line) const
    {
        return std::size_t(std::popcount(
            stored.raw() & ((std::uint64_t(1) << line) - 1)));
    }

    /** Lines the array holds for @p n stored lines. */
    static unsigned
    lineCapacity(unsigned n)
    {
        return n == 0 ? 0 : std::max(4u, std::bit_ceil(n));
    }

    /** Store @p data as @p line, which is not stored yet. */
    void insertLine(unsigned line, const LineData &data);
};

/**
 * Functional container plus radix-layout model of the OMT. The table is
 * laid out as a 4-level radix tree over the OPN; each level's node
 * occupies memory provided by the node allocator so that walks touch
 * realistic DRAM addresses.
 *
 * Storage is the VM layer's PageTable directory: a ChunkDirectory of
 * 512-entry leaf chunks keyed by opn >> 9 (src/common/chunk_directory.hh).
 * Each chunk slot holds an index into a pooled entry arena (stable
 * std::deque storage), so a lookup is a compare, an index and an array
 * read — no hashing — while sparse OPN spaces cost only one small chunk
 * per populated 512-OPN window. The chunk also caches its radix walk
 * lines: every OPN in a chunk shares the three upper-level node lines,
 * and the leaf node page corresponds 1:1 to the chunk, so a walk of a
 * populated chunk is pure arithmetic.
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

    /**
     * Remove an entry (overlay discarded/committed, §4.3.4), freeing its
     * stored lines.
     */
    void erase(Opn opn);

    std::size_t size() const { return size_; }

    /** 512-OPN windows that ever held an entry (accounting/tests). */
    std::size_t chunkCount() const { return chunks_.size(); }

    /** Host bytes of the chunks' slot arrays (live chunks only). */
    std::uint64_t slotArrayBytes() const;

    /**
     * Host bytes held by the table: chunk directory, chunks, slot
     * arrays, entry arena, free list and node map (buckets included).
     * A function of the table's operation history alone, so tests can
     * bound it exactly; allocator overhead is not counted.
     */
    std::uint64_t hostBytes() const;

    /**
     * Main-memory line addresses touched by a table walk for @p opn, in
     * dependence order (one node line per level). The walk descends only
     * nodes that exist: like a page-table walk, it terminates at the
     * first non-present level, so looking up an OPN with no overlay is
     * cheap. Walks never allocate nodes; node allocation happens when
     * the first entry of a 512-OPN window is created.
     */
    void walkAddresses(Opn opn, std::vector<Addr> &out) const;

    /**
     * Deepest existing node line of a walk for @p opn (what the
     * controller reads on an OMT-cache miss), or kInvalidAddr when no
     * level of the path exists. Equals walkAddresses(...).back() but
     * resolves populated chunks without touching the node map.
     */
    Addr walkLastAddr(Opn opn) const;

    /**
     * Memory footprint of all allocated table nodes, in bytes: derived
     * from the node map, not the nodeBytes statistic, so a stats reset
     * cannot corrupt memory accounting (Figure 8).
     */
    std::uint64_t nodeBytes() const { return nodes_.size() * kPageSize; }

    /**
     * Snapshot visitor over what the table maps (DESIGN.md §11.2): the
     * radix-node map, then per chunk its live entries in OPN order. No
     * host index (arena position, free list) is written, so the bytes
     * depend on the mapped state alone. Restore rebuilds the arena
     * compactly and each chunk's walk cache from the node map; the node
     * allocator is structural and not serialized, and the MRU caches are
     * reset.
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
                std::uint32_t idx = (*chunk->slots)[s];
                if (idx != kNoEntry)
                    fn(Opn((chunk_id << kChunkBits) | s), arena_[idx]);
            }
        }
    }

  private:
    static constexpr unsigned kChunkBits = 9;
    static constexpr unsigned kChunkSize = 1u << kChunkBits;
    static constexpr std::uint32_t kNoEntry = ~std::uint32_t(0);

    using SlotArray = std::array<std::uint32_t, kChunkSize>;

    /**
     * One 512-OPN window of the table. The slot array exists only while
     * the chunk holds entries: the erase that empties a chunk frees it
     * (2 KiB per retired window, e.g. per exited process) and the next
     * findOrCreate() in the window allocates it again. The walk cache
     * stays, since the window's node pages are never freed.
     */
    struct Chunk
    {
        Chunk() { upperLines.fill(kInvalidAddr); }

        /** Arena index per OPN in the window, or kNoEntry; null while
         *  live == 0. */
        std::unique_ptr<SlotArray> slots;
        /** Cached walk lines of radix levels 0..2 (shared chunk-wide). */
        std::array<Addr, kWalkLevels - 1> upperLines;
        /** Base of the chunk's leaf node page; kInvalidAddr until the
         *  first entry materializes the path. */
        Addr leafBase = kInvalidAddr;
        /** Live entries in this chunk. */
        std::uint32_t live = 0;
    };

    /** Materialize the radix path for @p opn (entry creation). */
    void ensureNodePath(Opn opn);

    /**
     * Record the chunk's four walk lines from the node map; false (and
     * the cache left partial) if a level of the path is missing.
     */
    bool fillChunkWalkCache(std::uint64_t chunk_id, Chunk &chunk);

    /** Node line for (level, opn); kInvalidAddr when absent and !create. */
    Addr nodeLineAddr(unsigned level, Opn opn, bool create);

    PageAllocFn nodePageAlloc_;

    /** Directory of leaf chunks, keyed by opn >> kChunkBits. */
    ChunkDirectory<Chunk> chunks_;

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

inline OmtEntry *
Omt::find(Opn opn)
{
    // The controller resolves the same OPN several times per operation
    // (omtAccess, then the read/writeback body); a one-entry MRU cache
    // turns the repeats into a compare. Arena entries never move, so
    // inserts don't invalidate the cached pointer.
    if (opn == cachedOpn_)
        return cachedEntry_;
    // The access stream dwells in one 2 MB OPN window at a time (a fork's
    // overlays share one chunk), so the directory's MRU compare almost
    // always wins.
    Chunk *chunk = chunks_.find(opn >> kChunkBits);
    if (chunk == nullptr || chunk->slots == nullptr)
        return nullptr;
    std::uint32_t idx = (*chunk->slots)[opn & (kChunkSize - 1)];
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
    Chunk *chunk = chunks_.find(opn >> kChunkBits);
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
    /** What a cached entry holds besides its OPN. */
    struct Entry
    {
        bool modified = false;
    };
    using Table = LruTable<Entry>;

    /** Shared body of the lookup variants: returns the resolved entry. */
    Entry &lookupAllocateEntry(Opn opn, LookupResult &res);

    OmtCacheParams params_;
    Table table_;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter writebacks_;
};

} // namespace ovl

#endif // OVERLAYSIM_OVERLAY_OMT_HH
