/**
 * @file
 * Two-level TLB (Table 2: 64-entry 4-way L1, 1 cycle; 1024-entry L2,
 * 10 cycles; miss cost 1000 cycles). Entries are extended with the
 * OBitVector of the page (Figure 6, item 3) so the processor can decide
 * on the L1-cache critical path whether an access targets the overlay.
 * The `overlaying read exclusive` coherence hook updates a single
 * OBitVector bit without a shootdown (§4.3.3).
 */

#ifndef OVERLAYSIM_TLB_TLB_HH
#define OVERLAYSIM_TLB_TLB_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bitvector64.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "common/set_kernel.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/**
 * What a TLB entry caches: the translation, its permission/mode flags,
 * and the overlay bit vector.
 */
struct TlbEntryData
{
    Addr ppn = 0;
    bool writable = false;
    /** Page is in copy-on-write (or overlay-on-write) sharing mode. */
    bool cow = false;
    /** Overlays are enabled for this page (OS opt-in, §2.2). */
    bool overlayEnabled = false;
    /** Overlay holds metadata, not alternate data (§5.3.4). */
    bool metadataMode = false;
    BitVector64 obv;
};

/** Configuration of one TLB level. */
struct TlbParams
{
    unsigned entries = 64;
    unsigned associativity = 4;
    Tick hitLatency = 1;
};

/**
 * One set-associative TLB level, tagged by (ASID, VPN) — no flush on
 * context switch.
 */
class Tlb : public SimObject
{
  public:
    Tlb(std::string name, TlbParams params);

    /** Look up a translation; nullptr on miss. Updates recency on hit.
     *  Inline: this runs at least once per simulated memory access. */
    TlbEntryData *
    lookup(Asid asid, Addr vpn)
    {
        std::size_t i = findIndex(asid, vpn);
        if (i != kNotFound) {
            ++hits_;
            stamps_[i] = ++lruCounter_;
            return &data_[i];
        }
        ++misses_;
        return nullptr;
    }

    /** Probe without recency update. */
    const TlbEntryData *probe(Asid asid, Addr vpn) const;

    /**
     * Install a translation, evicting the set's LRU entry if needed.
     * Inline: every page walk installs into the L2 TLB through this.
     */
    void
    insert(Asid asid, Addr vpn, const TlbEntryData &data)
    {
        std::size_t i = claimIndex(asid, vpn);
        data_[i] = data;
        stamps_[i] = ++lruCounter_;
    }

    /**
     * Fused insert() followed by lookup() of the same (asid, vpn), with a
     * single way scan instead of two. L2-hit promotions and walk fills
     * run this once per L1 miss; the bookkeeping (two LRU counter bumps,
     * one recorded hit, final recency = the second bump) is exactly what
     * the unfused pair produced.
     */
    TlbEntryData *
    insertAndLookup(Asid asid, Addr vpn, const TlbEntryData &data)
    {
        std::size_t i = claimIndex(asid, vpn);
        data_[i] = data;
        ++lruCounter_; // insert()'s recency bump, superseded below
        ++hits_;
        stamps_[i] = ++lruCounter_;
        return &data_[i];
    }

    /**
     * True if any entry of @p asid is resident. O(1): coherence
     * broadcasts (ORE messages, reclaim) use this to skip TLBs that
     * provably cannot hold the mapping, without probing their sets.
     */
    bool
    holdsAsid(Asid asid) const
    {
        return asid < asidEntries_.size() && asidEntries_[asid] != 0;
    }

    /** Drop one translation (remap / shootdown). */
    void invalidate(Asid asid, Addr vpn);

    /** Drop every translation of @p asid (process teardown). */
    void invalidateAsid(Asid asid);

    /** Drop everything. */
    void flush();

    /**
     * Coherence hook: if (asid, vpn) is cached, set OBitVector bit
     * @p line_in_page (overlaying write) or clear it / rewrite flags
     * through the returned pointer. Returns true if the entry was
     * present.
     */
    bool updateObvBit(Asid asid, Addr vpn, unsigned line_in_page, bool value);

    const TlbParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Snapshot visitor over keys, payloads, recency, per-ASID counts. */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /** No way holds the key (sentinel index into keys_). */
    static constexpr std::size_t kNotFound = ~std::size_t(0);
    /** VPN bits in a packed key; the ASID occupies the bits above. */
    static constexpr unsigned kVpnBits = 44;
    /** Empty way. Real keys never set bits 60+ (16-bit ASID << 44). */
    static constexpr std::uint64_t kNoKey = ~std::uint64_t(0);

    static std::uint64_t
    keyOf(Asid asid, Addr vpn)
    {
        return (std::uint64_t(asid) << kVpnBits) | vpn;
    }

    static Asid asidOf(std::uint64_t key) { return Asid(key >> kVpnBits); }

    std::size_t
    setBase(Addr vpn) const
    {
        return std::size_t(unsigned(vpn) & (numSets_ - 1)) *
               params_.associativity;
    }

    void
    noteInserted(Asid asid)
    {
        if (asid >= asidEntries_.size())
            asidEntries_.resize(std::size_t(asid) + 1, 0);
        ++asidEntries_[asid];
    }

    void noteErased(Asid asid) { --asidEntries_[asid]; }

    /**
     * Call @p fn with the set width as a std::integral_constant: 4 and 8
     * (Table 2's L1 and L2) are compile-time constants, and any other
     * associativity passes 0, which the set kernel reads as "the width
     * is params_.associativity".
     */
    template <class Fn>
    decltype(auto)
    withWays(Fn &&fn) const
    {
        switch (params_.associativity) {
          case 4: return fn(std::integral_constant<unsigned, 4>{});
          case 8: return fn(std::integral_constant<unsigned, 8>{});
          default: return withAnyWays(fn);
        }
    }

    /** withWays() at a run-time width, out of line: Table 2 never runs it. */
    template <class Fn>
    [[gnu::noinline]] static decltype(auto)
    withAnyWays(Fn &fn)
    {
        return fn(std::integral_constant<unsigned, 0>{});
    }

    std::size_t
    findIndex(Asid asid, Addr vpn) const
    {
        return withWays([&](auto ways) -> std::size_t {
            constexpr unsigned W = decltype(ways)::value;
            std::size_t base = setBase(vpn);
            unsigned way = findWay<W>(&keys_[base], keyOf(asid, vpn),
                                      params_.associativity);
            return way < params_.associativity ? base + way : kNotFound;
        });
    }

    /**
     * Index of the way holding (asid, vpn); if absent, claim the set's
     * first empty way, else its LRU way, found in the same scan
     * (claimWay()).
     */
    std::size_t
    claimIndex(Asid asid, Addr vpn)
    {
        ovl_assert(vpn >> kVpnBits == 0, "VPN too wide for the TLB key");
        std::uint64_t key = keyOf(asid, vpn);
        std::size_t base = setBase(vpn);
        ClaimedWay claim = withWays([&](auto ways) {
            constexpr unsigned W = decltype(ways)::value;
            return claimWay<W>(&keys_[base], key, kNoKey, &stamps_[base],
                               params_.associativity);
        });
        std::size_t i = base + claim.way;
        if (claim.hit)
            return i;
        if (keys_[i] != kNoKey)
            noteErased(asidOf(keys_[i]));
        noteInserted(asid);
        keys_[i] = key;
        return i;
    }

    TlbParams params_;
    unsigned numSets_;
    /**
     * Packed (asid << kVpnBits) | vpn tags, parallel to data_ — the way
     * scan runs at least once per simulated access, and one 8-byte
     * compare per way beats touching the OBitVector-bearing payloads,
     * which span several lines per set.
     */
    std::vector<std::uint64_t> keys_;
    /** LRU stamps, parallel to keys_: victim choice reads only these. */
    std::vector<std::uint64_t> stamps_;
    std::vector<TlbEntryData> data_;
    std::uint64_t lruCounter_ = 0;
    /** Resident-entry count per ASID, backing holdsAsid(). */
    std::vector<std::uint32_t> asidEntries_;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter coherenceUpdates_;
};

/** Parameters of the two-level TLB plus the page-walk cost. */
struct TlbHierarchyParams
{
    TlbParams l1{64, 4, 1};
    TlbParams l2{1024, 8, 10};
    Tick walkLatency = 1000; ///< Table 2: TLB miss = 1000 cycles
};

/** Outcome of a two-level TLB access. */
struct TlbAccessResult
{
    /** Valid entry pointer into the L1 TLB (installed on miss by caller). */
    TlbEntryData *entry = nullptr;
    Tick latency = 0;
    /** True when both levels missed and a page walk is required. */
    bool needsWalk = false;
};

/**
 * L1 + L2 TLB composition. On an L2 hit the entry is promoted into L1;
 * on a full miss the caller performs the page walk (and the OMT access
 * for the OBitVector, §4.3) and installs via fill().
 */
class TwoLevelTlb : public SimObject
{
  public:
    TwoLevelTlb(std::string name, TlbHierarchyParams params);

    /** Look up (asid, vpn); see TlbAccessResult. The L1 hit is inline:
     *  it is the first stop of every simulated memory access. */
    TlbAccessResult
    access(Asid asid, Addr vpn)
    {
        if (TlbEntryData *entry = l1_.lookup(asid, vpn))
            return TlbAccessResult{entry, params_.l1.hitLatency, false};
        return accessBelowL1(asid, vpn);
    }

    /** Install a walked translation into both levels. */
    TlbEntryData *fill(Asid asid, Addr vpn, const TlbEntryData &data);

    /**
     * Invalidate in both levels. @p when is the shootdown's simulated
     * time, used only as the timestamp of the trace-sink instant event
     * (callers without a meaningful tick may omit it).
     */
    void invalidate(Asid asid, Addr vpn, Tick when = 0);
    void invalidateAsid(Asid asid, Tick when = 0);
    void flush();

    /** Coherence hook applied to both levels (§4.3.3). */
    bool updateObvBit(Asid asid, Addr vpn, unsigned line_in_page, bool value);

    const TlbHierarchyParams &params() const { return params_; }
    Tlb &l1() { return l1_; }
    Tlb &l2() { return l2_; }

    /** Snapshot visitor over both levels. */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /** access() after an L1 miss: the L2 lookup and the promotion. */
    TlbAccessResult
    accessBelowL1(Asid asid, Addr vpn)
    {
        TlbAccessResult res;
        if (TlbEntryData *entry = l2_.lookup(asid, vpn)) {
            // Promote into L1 and return the L1 copy so that coherence
            // updates through the returned pointer hit the level the core
            // reads from.
            res.entry = l1_.insertAndLookup(asid, vpn, *entry);
            res.latency = params_.l1.hitLatency + params_.l2.hitLatency;
            return res;
        }
        res.needsWalk = true;
        res.latency = params_.l1.hitLatency + params_.l2.hitLatency +
                      params_.walkLatency;
        return res;
    }

    TlbHierarchyParams params_;
    Tlb l1_;
    Tlb l2_;
};

} // namespace ovl

#endif // OVERLAYSIM_TLB_TLB_HH
