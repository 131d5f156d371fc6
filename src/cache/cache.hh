/**
 * @file
 * Set-associative, write-back, write-allocate cache with configurable
 * tag/data latencies and serial or parallel tag/data lookup (Table 2).
 * Tags are full line addresses: because the overlay address space is part
 * of the physical address space (§3.2), overlay lines are cached exactly
 * like regular lines — only the tag is wider (§4.5 charges that cost).
 */

#ifndef OVERLAYSIM_CACHE_CACHE_HH
#define OVERLAYSIM_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned associativity = 4;
    Tick tagLatency = 1;
    Tick dataLatency = 2;
    /** Parallel lookup: hit latency = max(tag, data); serial: tag + data. */
    bool parallelTagData = true;
    ReplPolicy replPolicy = ReplPolicy::LRU;

    Tick
    hitLatency() const
    {
        return parallelTagData ? std::max(tagLatency, dataLatency)
                               : tagLatency + dataLatency;
    }

    /** Latency to determine a miss (the tag lookup). */
    Tick missDetectLatency() const { return tagLatency; }
};

/** A line evicted to make room for a fill. */
struct Eviction
{
    Addr lineAddr = kInvalidAddr;
    bool dirty = false;
};

/** Result of a demand lookup-and-allocate. */
struct CacheAccessResult
{
    bool hit = false;
    /** Victim displaced by the miss fill, if any. */
    std::optional<Eviction> eviction;
};

/**
 * One cache level. The cache stores tags and state only — functional data
 * lives in the backing stores (see DESIGN.md §3, functional/timing split).
 */
class SetAssocCache : public SimObject
{
  public:
    SetAssocCache(std::string name, CacheParams params);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    // access/fill/isPresent run on every simulated memory reference
    // (including once per level and per prefetch candidate); they are
    // defined inline at the bottom of this header so the hierarchy's
    // miss cascade compiles into straight-line code.

    /**
     * Demand access: looks up @p line_addr, allocates on miss, and marks
     * the line dirty when @p is_write. The returned eviction (if any)
     * must be handled by the caller (written back / installed below).
     * The Functional instantiation is functional warming (sampled
     * simulation, DESIGN.md §10): the same tag, dirtiness and
     * replacement-state movement, invisible to every counter.
     */
    template <Timing T = Timing::Detailed>
    CacheAccessResult access(Addr line_addr, bool is_write);

    /**
     * Fill without a demand access (writeback from an upper level or a
     * prefetch). Marks dirty when @p dirty; tracks prefetched lines so
     * DRRIP can deprioritize them. Returns a displaced victim, if any.
     * If the line is already present it is updated in place. Functional
     * as for access().
     */
    template <Timing T = Timing::Detailed>
    std::optional<Eviction> fill(Addr line_addr, bool dirty,
                                 bool is_prefetch = false);

    /** Tag probe without any state update. */
    bool isPresent(Addr line_addr) const;

    /** Presence probe that also reports where a fill would land. */
    struct ProbeResult
    {
        bool present = false;
        /** First invalid way of the set, or the associativity if full. */
        unsigned invalidWay = 0;
    };

    /**
     * One scan answering both questions fill() would ask: is the line
     * resident, and which way would take it if not. The prefetch path
     * gates on presence before charging bandwidth, then fills — probe()
     * plus fillProbed() does that with a single scan of the set instead
     * of isPresent() followed by fill()'s rescan.
     */
    ProbeResult probe(Addr line_addr) const;

    /**
     * Complete a fill whose set was already scanned by probe() (which
     * must have reported the line absent, with @p invalid_way its
     * invalidWay). Identical to what fill() does after its own scan.
     */
    template <Timing T = Timing::Detailed>
    std::optional<Eviction> fillProbed(Addr line_addr, unsigned invalid_way,
                                       bool dirty, bool is_prefetch);

    /** True if present and the line was installed by the prefetcher. */
    bool isPrefetched(Addr line_addr) const;

    /**
     * Remove @p line_addr if present. Returns the eviction record (so a
     * dirty invalidated line can be written back) or nullopt.
     */
    std::optional<Eviction> invalidate(Addr line_addr);

    /** Result of a fused moveLine(): whether the line was resident, and
     *  any victim displaced by the cross-set fallback fill. */
    struct MoveResult
    {
        bool found = false;
        std::optional<Eviction> eviction;
    };

    /**
     * Move a resident line from @p old_addr to @p new_addr, preserving
     * dirtiness: the overlaying write's "copy the cache line ... by
     * simply updating the cache tag" (§4.3.3), resolved in one scan of
     * the source set. In the same set with the destination absent, the
     * tag is rewritten in place (a retag); with the destination already
     * resident, the source folds its dirtiness into it and is dropped.
     * In a different set, hardware does an explicit line copy instead:
     * the source is invalidated and the destination filled.
     */
    MoveResult moveLine(Addr old_addr, Addr new_addr);

    /** Drop every line (used between experiment phases). */
    void flushAll();

    /** Write back and drop every dirty line, invoking @p sink for each. */
    template <typename Sink>
    void
    writebackAll(Sink &&sink)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidAddr && state_[i].dirty)
                sink(tags_[i]);
            tags_[i] = kInvalidAddr;
            state_[i].dirty = false;
        }
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Snapshot visitor over tags, line and replacement state. */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /** Per-line flags; validity lives in the tag (kInvalidAddr = empty). */
    struct LineState
    {
        bool dirty = false;
        bool prefetched = false;
    };

    /** No way holds the address (sentinel index into tags_/state_). */
    static constexpr std::size_t kNotFound = ~std::size_t(0);

    unsigned setIndex(Addr line_addr) const;
    std::size_t findIndex(Addr line_addr) const;
    /**
     * Insert into set @p set_idx, reusing way @p way if the caller already
     * found an invalid one (ways_ = all valid, pick a victim). The
     * Functional instantiation counts neither writebacks nor prefetch
     * fills.
     */
    template <Timing T>
    std::optional<Eviction> insertAt(unsigned set_idx, unsigned way,
                                     Addr line_addr, bool dirty,
                                     bool is_prefetch);

    CacheParams params_;
    unsigned numSets_;
    unsigned ways_;
    /**
     * Tag store, numSets_ x ways_ row-major by set, kInvalidAddr in empty
     * ways. Tags sit alone in a dense Addr array — the way scan is the
     * single hottest loop in the simulator, and packing one 8-byte tag
     * per way (instead of a 16-byte line struct) halves the bytes it
     * touches while freeing the compiler to vectorize the compares. A
     * real line address is line-aligned and can never equal kInvalidAddr.
     */
    std::vector<Addr> tags_;
    /** Dirty/prefetched flags, parallel to tags_ (off the scan path). */
    std::vector<LineState> state_;
    /**
     * Replacement metadata, parallel to tags_, split by policy field:
     * LRU sequence numbers and RRIP prediction values in separate dense
     * arrays, of which only the one the policy uses is allocated (the
     * other stays empty; Random allocates neither). A set's metadata
     * spans 8 (LRU) or 1 (RRIP) byte per way instead of a padded 16-byte
     * struct, and RRIP aging touches a contiguous byte run the compiler
     * can vectorize.
     */
    std::vector<std::uint64_t> replLru_;
    std::vector<std::uint8_t> replRrpv_;
    ReplacementEngine repl_;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter writebacks_;
    stats::Counter prefetchFills_;
    stats::Counter prefetchHits_;
    stats::Counter retags_;
};

// ------------------------ inline hot path ------------------------------

inline unsigned
SetAssocCache::setIndex(Addr line_addr) const
{
    return unsigned((line_addr >> kLineShift) & (numSets_ - 1));
}

inline std::size_t
SetAssocCache::findIndex(Addr line_addr) const
{
    std::size_t base = std::size_t(setIndex(line_addr)) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags_[base + w] == line_addr)
            return base + w;
    }
    return kNotFound;
}

template <Timing T>
inline std::optional<Eviction>
SetAssocCache::insertAt(unsigned set_idx, unsigned way, Addr line_addr,
                        bool dirty, bool is_prefetch)
{
    constexpr bool kTimed = T == Timing::Detailed;
    std::size_t base = std::size_t(set_idx) * ways_;
    std::optional<Eviction> evicted;
    if (way == ways_) {
        // All ways valid: consult the replacement policy. RRIP aging
        // mutates the set's states in place.
        way = repl_.selectVictim(replLru_.data(), replRrpv_.data(), base,
                                 ways_);
        evicted = Eviction{tags_[base + way], state_[base + way].dirty};
        if (kTimed && state_[base + way].dirty)
            ++writebacks_;
    }

    tags_[base + way] = line_addr;
    LineState &st = state_[base + way];
    st.dirty = dirty;
    st.prefetched = is_prefetch;
    repl_.onInsert(replLru_.data(), replRrpv_.data(), base + way, set_idx,
                   is_prefetch);
    if (kTimed && is_prefetch)
        ++prefetchFills_;
    return evicted;
}

template <Timing T>
inline CacheAccessResult
SetAssocCache::access(Addr line_addr, bool is_write)
{
    constexpr bool kTimed = T == Timing::Detailed;
    // Single pass over the set: find the hit way and the first invalid
    // way together, so a miss does not rescan tags in insert().
    unsigned set_idx = setIndex(line_addr);
    std::size_t base = std::size_t(set_idx) * ways_;
    const Addr *tags = &tags_[base];
    unsigned invalid_way = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == line_addr) {
            if constexpr (kTimed)
                ++hits_;
            LineState &st = state_[base + w];
            if (st.prefetched) {
                if constexpr (kTimed)
                    ++prefetchHits_;
                st.prefetched = false;
            }
            repl_.onHit(replLru_.data(), replRrpv_.data(), base + w);
            if (is_write)
                st.dirty = true;
            return CacheAccessResult{true, std::nullopt};
        }
        if (tags[w] == kInvalidAddr && invalid_way == ways_)
            invalid_way = w;
    }
    if constexpr (kTimed)
        ++misses_;
    repl_.onMiss(set_idx);
    auto eviction =
        insertAt<T>(set_idx, invalid_way, line_addr, is_write, false);
    return CacheAccessResult{false, eviction};
}

template <Timing T>
inline std::optional<Eviction>
SetAssocCache::fill(Addr line_addr, bool dirty, bool is_prefetch)
{
    // Same single-pass structure as access(): hit way and first invalid
    // way in one scan.
    unsigned set_idx = setIndex(line_addr);
    std::size_t base = std::size_t(set_idx) * ways_;
    const Addr *tags = &tags_[base];
    unsigned invalid_way = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == line_addr) {
            state_[base + w].dirty = state_[base + w].dirty || dirty;
            return std::nullopt;
        }
        if (tags[w] == kInvalidAddr && invalid_way == ways_)
            invalid_way = w;
    }
    return insertAt<T>(set_idx, invalid_way, line_addr, dirty, is_prefetch);
}

inline SetAssocCache::MoveResult
SetAssocCache::moveLine(Addr old_addr, Addr new_addr)
{
    // One pass over the source set finds both the line to move and (when
    // the destination indexes the same set) any resident destination
    // line. A line tagged new_addr can only live in set(new_addr), so
    // the same-set probe is complete.
    unsigned old_set = setIndex(old_addr);
    std::size_t base = std::size_t(old_set) * ways_;
    Addr *tags = &tags_[base];
    unsigned old_way = ways_;
    unsigned new_way = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == old_addr)
            old_way = w;
        else if (tags[w] == new_addr)
            new_way = w;
    }
    if (old_way == ways_)
        return MoveResult{};
    if (setIndex(new_addr) == old_set) {
        if (new_way == ways_) {
            // In-place tag update: the §4.3.3 fast path.
            tags[old_way] = new_addr;
            ++retags_;
            return MoveResult{true, std::nullopt};
        }
        // Destination already resident: fold the source's dirtiness into
        // it (the invalidate + present-line fill of the fallback path).
        state_[base + new_way].dirty =
            state_[base + new_way].dirty || state_[base + old_way].dirty;
        tags[old_way] = kInvalidAddr;
        state_[base + old_way].dirty = false;
        return MoveResult{true, std::nullopt};
    }
    // The overlay address indexes a different set; hardware would do an
    // explicit line copy instead (§4.3.3): invalidate + fill.
    bool dirty = state_[base + old_way].dirty;
    tags[old_way] = kInvalidAddr;
    state_[base + old_way].dirty = false;
    return MoveResult{true, fill(new_addr, dirty)};
}

inline bool
SetAssocCache::isPresent(Addr line_addr) const
{
    return findIndex(line_addr) != kNotFound;
}

inline SetAssocCache::ProbeResult
SetAssocCache::probe(Addr line_addr) const
{
    // Same single-pass structure as access()/fill(): hit way and first
    // invalid way in one scan.
    std::size_t base = std::size_t(setIndex(line_addr)) * ways_;
    const Addr *tags = &tags_[base];
    ProbeResult res{false, ways_};
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == line_addr) {
            res.present = true;
            return res;
        }
        if (tags[w] == kInvalidAddr && res.invalidWay == ways_)
            res.invalidWay = w;
    }
    return res;
}

template <Timing T>
inline std::optional<Eviction>
SetAssocCache::fillProbed(Addr line_addr, unsigned invalid_way, bool dirty,
                          bool is_prefetch)
{
    return insertAt<T>(setIndex(line_addr), invalid_way, line_addr, dirty,
                       is_prefetch);
}

inline bool
SetAssocCache::isPrefetched(Addr line_addr) const
{
    std::size_t i = findIndex(line_addr);
    return i != kNotFound && state_[i].prefetched;
}

} // namespace ovl

#endif // OVERLAYSIM_CACHE_CACHE_HH
