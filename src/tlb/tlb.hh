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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector64.hh"
#include "common/logging.hh"
#include "common/lru_table.hh"
#include "common/types.hh"
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
        if (TlbEntryData *data = table_.touch(keyOf(asid, vpn))) {
            ++hits_;
            return data;
        }
        ++misses_;
        return nullptr;
    }

    /** Probe without recency update. */
    const TlbEntryData *
    probe(Asid asid, Addr vpn) const
    {
        return table_.find(keyOf(asid, vpn));
    }

    /**
     * Install a translation, evicting the set's LRU entry if needed.
     * Inline: every page walk installs into the L2 TLB through this.
     */
    void
    insert(Asid asid, Addr vpn, const TlbEntryData &data)
    {
        table_.payload(claim(asid, vpn)) = data;
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
        const std::size_t way = claim(asid, vpn);
        table_.payload(way) = data;
        ++hits_;
        return &table_.use(way);
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
    using Table = LruTable<TlbEntryData>;

    /** VPN bits in a packed key; the ASID occupies the bits above. */
    static constexpr unsigned kVpnBits = 44;

    /** Packed (asid << kVpnBits) | vpn key; bits 60+ stay clear. */
    static std::uint64_t
    keyOf(Asid asid, Addr vpn)
    {
        return (std::uint64_t(asid) << kVpnBits) | vpn;
    }

    static Asid asidOf(std::uint64_t key) { return Asid(key >> kVpnBits); }

    void
    noteInserted(Asid asid)
    {
        if (asid >= asidEntries_.size())
            asidEntries_.resize(std::size_t(asid) + 1, 0);
        ++asidEntries_[asid];
    }

    void noteErased(Asid asid) { --asidEntries_[asid]; }

    /** Claim the way of (asid, vpn) (LruTable::claim), keeping the
     *  per-ASID counts; returns the way. */
    std::size_t
    claim(Asid asid, Addr vpn)
    {
        ovl_assert(vpn >> kVpnBits == 0, "VPN too wide for the TLB key");
        const auto c = table_.claim(keyOf(asid, vpn));
        if (!c.hit) {
            if (c.displaced != Table::kEmpty)
                noteErased(asidOf(c.displaced));
            noteInserted(asid);
        }
        return c.way;
    }

    TlbParams params_;
    Table table_;
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
