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
     * simply updating the cache tag" (§4.3.3), resolved in the source
     * set. In the same set with the destination absent, the
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

    /**
     * Set shapes with a compile-time body: the Table 2 levels. Any other
     * associativity or policy runs the Generic body, which reads both at
     * run time.
     */
    enum class Shape : std::uint8_t
    {
        Generic,
        Lru4,    ///< L1: 4-way LRU
        Lru8,    ///< L2: 8-way LRU
        Drrip16, ///< L3: 16-way DRRIP
    };

    /** A shape as template arguments: W ways (0 = ways_), policy P. */
    template <unsigned W, ReplPolicy P>
    struct ShapeArgs
    {
        static constexpr unsigned kWays = W;
        static constexpr ReplPolicy kPolicy = P;
    };

    static Shape shapeOf(const CacheParams &params);

    /**
     * Call @p fn with the ShapeArgs of this cache's shape: the one
     * run-time dispatch of a public call, into a body templated on the
     * set width and policy.
     */
    template <class Fn>
    decltype(auto)
    withShape(Fn &&fn) const
    {
        switch (shape_) {
          case Shape::Lru4: return fn(ShapeArgs<4, ReplPolicy::LRU>{});
          case Shape::Lru8: return fn(ShapeArgs<8, ReplPolicy::LRU>{});
          case Shape::Drrip16:
            return fn(ShapeArgs<16, ReplPolicy::DRRIP>{});
          case Shape::Generic: break;
        }
        return withGenericShape(fn);
    }

    /**
     * The Generic case of withShape(), kept out of line: no Table 2
     * level runs it, and its body would otherwise crowd the hot path.
     */
    template <class Fn>
    [[gnu::noinline]] static decltype(auto)
    withGenericShape(Fn &fn)
    {
        return fn(ShapeArgs<0, kRuntimePolicy>{});
    }

    unsigned setIndex(Addr line_addr) const;

    // The bodies of the public calls, one per (Timing,) width and policy.
    template <Timing T, unsigned W, ReplPolicy P>
    CacheAccessResult accessIn(Addr line_addr, bool is_write);
    template <Timing T, unsigned W, ReplPolicy P>
    std::optional<Eviction> fillIn(Addr line_addr, bool dirty,
                                   bool is_prefetch);
    template <unsigned W>
    ProbeResult probeIn(Addr line_addr) const;
    /** Line index holding @p line_addr, or kNotFound. */
    template <unsigned W>
    std::size_t findIn(Addr line_addr) const;
    template <unsigned W, ReplPolicy P>
    MoveResult moveLineIn(Addr old_addr, Addr new_addr);
    /**
     * Insert into set @p set_idx, reusing way @p way if the caller already
     * found an invalid one (the way count = all valid, pick a victim).
     * The Functional instantiation counts neither writebacks nor
     * prefetch fills.
     */
    template <Timing T, unsigned W, ReplPolicy P>
    std::optional<Eviction> insertAt(unsigned set_idx, unsigned way,
                                     Addr line_addr, bool dirty,
                                     bool is_prefetch);

    CacheParams params_;
    unsigned numSets_;
    unsigned ways_;
    Shape shape_;
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
     * struct, and the RRIP victim choice reads and ages a set's bytes
     * as whole 64-bit words (rripVictim()).
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
//
// Each public call dispatches once on the shape (withShape) into its
// body; the bodies run the set kernel (common/set_kernel.hh) with the
// shape's width and the replacement hooks with its policy.

inline unsigned
SetAssocCache::setIndex(Addr line_addr) const
{
    return unsigned((line_addr >> kLineShift) & (numSets_ - 1));
}

template <unsigned W>
inline std::size_t
SetAssocCache::findIn(Addr line_addr) const
{
    std::size_t base = std::size_t(setIndex(line_addr)) * wayCount<W>(ways_);
    unsigned way = findWay<W>(&tags_[base], line_addr, ways_);
    return way < wayCount<W>(ways_) ? base + way : kNotFound;
}

template <Timing T, unsigned W, ReplPolicy P>
inline std::optional<Eviction>
SetAssocCache::insertAt(unsigned set_idx, unsigned way, Addr line_addr,
                        bool dirty, bool is_prefetch)
{
    constexpr bool kTimed = T == Timing::Detailed;
    const unsigned ways = wayCount<W>(ways_);
    std::size_t base = std::size_t(set_idx) * ways;
    std::optional<Eviction> evicted;
    if (way == ways) {
        // All ways valid: consult the replacement policy. RRIP aging
        // mutates the set's states in place.
        way = repl_.selectVictim<W, P>(replLru_.data(), replRrpv_.data(),
                                       base, ways_);
        evicted = Eviction{tags_[base + way], state_[base + way].dirty};
        if (kTimed && state_[base + way].dirty)
            ++writebacks_;
    }

    tags_[base + way] = line_addr;
    LineState &st = state_[base + way];
    st.dirty = dirty;
    st.prefetched = is_prefetch;
    repl_.onInsert<P>(replLru_.data(), replRrpv_.data(), base + way, set_idx,
                      is_prefetch);
    if (kTimed && is_prefetch)
        ++prefetchFills_;
    return evicted;
}

template <Timing T, unsigned W, ReplPolicy P>
inline CacheAccessResult
SetAssocCache::accessIn(Addr line_addr, bool is_write)
{
    constexpr bool kTimed = T == Timing::Detailed;
    // Single pass over the set: find the hit way and the first invalid
    // way together, so a miss does not rescan tags in insertAt().
    unsigned set_idx = setIndex(line_addr);
    std::size_t base = std::size_t(set_idx) * wayCount<W>(ways_);
    WayScan scan =
        scanWays<W>(&tags_[base], line_addr, kInvalidAddr, ways_);
    if (scan.hit < wayCount<W>(ways_)) {
        if constexpr (kTimed)
            ++hits_;
        LineState &st = state_[base + scan.hit];
        if (st.prefetched) {
            if constexpr (kTimed)
                ++prefetchHits_;
            st.prefetched = false;
        }
        repl_.onHit<P>(replLru_.data(), replRrpv_.data(), base + scan.hit);
        if (is_write)
            st.dirty = true;
        return CacheAccessResult{true, std::nullopt};
    }
    if constexpr (kTimed)
        ++misses_;
    repl_.onMiss<P>(set_idx);
    auto eviction =
        insertAt<T, W, P>(set_idx, scan.empty, line_addr, is_write, false);
    return CacheAccessResult{false, eviction};
}

template <Timing T>
inline CacheAccessResult
SetAssocCache::access(Addr line_addr, bool is_write)
{
    return withShape([&](auto shape) {
        using S = decltype(shape);
        return accessIn<T, S::kWays, S::kPolicy>(line_addr, is_write);
    });
}

template <Timing T, unsigned W, ReplPolicy P>
inline std::optional<Eviction>
SetAssocCache::fillIn(Addr line_addr, bool dirty, bool is_prefetch)
{
    // Same single-pass structure as accessIn(): hit way and first invalid
    // way in one scan.
    unsigned set_idx = setIndex(line_addr);
    std::size_t base = std::size_t(set_idx) * wayCount<W>(ways_);
    WayScan scan =
        scanWays<W>(&tags_[base], line_addr, kInvalidAddr, ways_);
    if (scan.hit < wayCount<W>(ways_)) {
        state_[base + scan.hit].dirty = state_[base + scan.hit].dirty || dirty;
        return std::nullopt;
    }
    return insertAt<T, W, P>(set_idx, scan.empty, line_addr, dirty,
                             is_prefetch);
}

template <Timing T>
inline std::optional<Eviction>
SetAssocCache::fill(Addr line_addr, bool dirty, bool is_prefetch)
{
    return withShape([&](auto shape) {
        using S = decltype(shape);
        return fillIn<T, S::kWays, S::kPolicy>(line_addr, dirty,
                                               is_prefetch);
    });
}

template <unsigned W, ReplPolicy P>
inline SetAssocCache::MoveResult
SetAssocCache::moveLineIn(Addr old_addr, Addr new_addr)
{
    // A line tagged new_addr can only live in set(new_addr), so when both
    // addresses index the same set, one probe of it finds any resident
    // destination line.
    const unsigned ways = wayCount<W>(ways_);
    unsigned old_set = setIndex(old_addr);
    std::size_t base = std::size_t(old_set) * ways;
    Addr *tags = &tags_[base];
    unsigned old_way = findWay<W>(tags, old_addr, ways_);
    if (old_way == ways)
        return MoveResult{};
    if (setIndex(new_addr) == old_set) {
        unsigned new_way = findWay<W>(tags, new_addr, ways_);
        if (new_way == ways) {
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
    return MoveResult{
        true, fillIn<Timing::Detailed, W, P>(new_addr, dirty, false)};
}

inline SetAssocCache::MoveResult
SetAssocCache::moveLine(Addr old_addr, Addr new_addr)
{
    return withShape([&](auto shape) {
        using S = decltype(shape);
        return moveLineIn<S::kWays, S::kPolicy>(old_addr, new_addr);
    });
}

inline bool
SetAssocCache::isPresent(Addr line_addr) const
{
    return withShape([&](auto shape) {
        return findIn<decltype(shape)::kWays>(line_addr) != kNotFound;
    });
}

template <unsigned W>
inline SetAssocCache::ProbeResult
SetAssocCache::probeIn(Addr line_addr) const
{
    // Same single-pass structure as accessIn()/fillIn(): hit way and
    // first invalid way in one scan.
    std::size_t base = std::size_t(setIndex(line_addr)) * wayCount<W>(ways_);
    WayScan scan =
        scanWays<W>(&tags_[base], line_addr, kInvalidAddr, ways_);
    return ProbeResult{scan.hit < wayCount<W>(ways_), scan.empty};
}

inline SetAssocCache::ProbeResult
SetAssocCache::probe(Addr line_addr) const
{
    return withShape([&](auto shape) {
        return probeIn<decltype(shape)::kWays>(line_addr);
    });
}

template <Timing T>
inline std::optional<Eviction>
SetAssocCache::fillProbed(Addr line_addr, unsigned invalid_way, bool dirty,
                          bool is_prefetch)
{
    return withShape([&](auto shape) {
        using S = decltype(shape);
        return insertAt<T, S::kWays, S::kPolicy>(
            setIndex(line_addr), invalid_way, line_addr, dirty, is_prefetch);
    });
}

inline bool
SetAssocCache::isPrefetched(Addr line_addr) const
{
    return withShape([&](auto shape) {
        std::size_t i = findIn<decltype(shape)::kWays>(line_addr);
        return i != kNotFound && state_[i].prefetched;
    });
}

} // namespace ovl

#endif // OVERLAYSIM_CACHE_CACHE_HH
