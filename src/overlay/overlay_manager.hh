/**
 * @file
 * The memory-controller-side overlay engine (§4.3–§4.4, Figure 6). It
 * owns the OMT, the OMT cache, the OMS segment allocator and the
 * functional overlay contents, and it services the two controller-level
 * operations: reading an overlay line that missed the whole cache
 * hierarchy, and accepting an evicted dirty overlay line (which is where
 * OMS space is lazily allocated, §4.3.3).
 */

#ifndef OVERLAYSIM_OVERLAY_OVERLAY_MANAGER_HH
#define OVERLAYSIM_OVERLAY_OVERLAY_MANAGER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvector64.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "overlay/oms_allocator.hh"
#include "overlay/oms_segment.hh"
#include "overlay/omt.hh"
#include "overlay/overlay_addr.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/** Tunables of the overlay engine. */
struct OverlayManagerParams
{
    OmtCacheParams omtCache{};
    OmsAllocatorParams allocator{};
    /**
     * §4.4's simple alternative: back every overlay with a full 4 KB
     * page, forgoing the memory-capacity benefit of compact segments
     * (but never migrating). Evaluated by bench/abl_segments.
     */
    bool fullPageSegments = false;
};

/**
 * Overlay engine. Timing-wise, every operation first brings the OMT
 * entry into the OMT cache (hit: small SRAM latency; miss: a 4-level
 * radix walk through DRAM), then touches the OMS. Functionally, the
 * logical content of every overlay line is kept here from the moment the
 * line is mapped, so reads are always correct regardless of where the
 * timing model believes the line currently lives (DESIGN.md §3.4).
 */
class OverlayManager : public SimObject
{
  public:
    OverlayManager(std::string name, OverlayManagerParams params,
                   DramController &dram_ctrl, PageAllocFn os_alloc_page);

    // ----- functional interface (used by the VM layer and techniques) ---

    /** True if @p opn has an overlay with at least one mapped line. */
    bool hasOverlay(Opn opn) const;

    /** OBitVector of @p opn (zero vector when no overlay exists). */
    BitVector64 obitvector(Opn opn) const;

    /**
     * Map @p line_in_page into the overlay of @p opn and set its
     * contents. Creates the OMT entry on first use.
     */
    void writeLineData(Opn opn, unsigned line_in_page, const LineData &data);

    /** Read the logical contents of an overlay line. */
    void readLineData(Opn opn, unsigned line_in_page, LineData &out) const;

    /**
     * True if the line has logical contents. Can lag obitvector() when a
     * line was mapped by a bare ORE message (metadata pages) but never
     * stored to.
     */
    bool hasLineData(Opn opn, unsigned line_in_page) const;

    /**
     * Unmap one line (used by commit actions); frees its OMS slot if one
     * was allocated. Does not shrink the segment.
     */
    void clearLine(Opn opn, unsigned line_in_page);

    /**
     * Drop the whole overlay: free its segment and erase the OMT entry
     * (the discard action of §4.3.4; commit paths call this after copying
     * lines out).
     */
    void discardOverlay(Opn opn);

    // ----- timing interface (used by the memory controller) -------------

    /**
     * Bring the OMT entry for @p opn into the OMT cache, charging a table
     * walk on a miss (plus the segment-metadata line read, §4.4.4) and
     * a writeback for a displaced modified entry.
     *
     * @return completion time.
     */
    Tick omtAccess(Opn opn, Tick when);

    /** Controller path of a full-hierarchy-miss overlay line read. */
    Tick readLine(Addr overlay_line_addr, Tick when);

    /**
     * Controller path of a dirty overlay-line writeback: lazily allocates
     * the OMS slot (growing/migrating the segment when needed) and
     * enqueues the DRAM write.
     */
    Tick writebackLine(Addr overlay_line_addr, Tick when);

    /**
     * The OMT half of the `overlaying read exclusive` message (§4.3.3):
     * sets the line's bit in the OMT entry via the OMT cache.
     */
    Tick overlayingReadExclusive(Opn opn, unsigned line_in_page, Tick when);

    // ----- accounting ----------------------------------------------------

    /** Bytes of OMS segments currently allocated to overlays. */
    std::uint64_t omsBytesInUse() const { return omsBytesInUse_; }

    /** Count of overlays that currently own a segment of @p cls. */
    std::uint64_t segmentCount(SegClass cls) const;

    OmtCache &omtCache() { return omtCache_; }
    const OmtCache &omtCache() const { return omtCache_; }
    Omt &omt() { return omt_; }
    const Omt &omt() const { return omt_; }
    OmsAllocator &allocator() { return allocator_; }
    const OmsAllocator &allocator() const { return allocator_; }

    std::uint64_t migrations() const { return migrations_.value(); }

    /**
     * Snapshot visitor over the whole engine: OMT + OMT cache +
     * allocator, the functional page-data store (slot-for-slot, since
     * OmtEntry::pageDataIdx references store positions), the free-page
     * list and the OMS byte accounting.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /**
     * Ensure @p line_in_page of @p opn has an OMS slot, allocating or
     * migrating the segment as needed. Returns the slot's main-memory
     * address and advances @p when by the management cost.
     */
    Addr ensureSlot(OmtEntry &entry, Opn opn, unsigned line_in_page,
                    Tick &when);

    /** Charge the timing of an OMT access given its cache-lookup result. */
    Tick finishOmtAccess(Opn opn, const OmtCache::LookupResult &res,
                         Tick when);

    /** Grow @p entry's segment to the next size class, copying lines. */
    void migrateSegment(OmtEntry &entry, Opn opn, Tick &when);

    void allocateSegment(OmtEntry &entry, SegClass cls);
    void releaseSegment(OmtEntry &entry);

    OverlayManagerParams params_;
    DramController &dramCtrl_;
    Omt omt_;
    OmtCache omtCache_;
    OmsAllocator allocator_;

    /**
     * Logical contents of one overlay page, flattened: a presence bitmap
     * plus a dense line array. The OMT entry carries the index of its
     * page in pageStore_ (data ⊆ table: page data never outlives the
     * entry), so resolving a line is the OMT's chunk-indexed lookup plus
     * one array read — no separate hash map; poke/peek hit this once per
     * 64 B chunk.
     */
    struct OverlayPageData
    {
        BitVector64 present;
        std::array<LineData, kLinesPerPage> lines;
    };

    /** Find the page data of @p opn; nullptr if absent. */
    OverlayPageData *findPageData(Opn opn) const;
    /** Find-or-create the page data of @p entry; recycles retired pages
     *  through freePages_. */
    OverlayPageData &ensurePageData(OmtEntry &entry);

    /** Page-data arena, indexed by OmtEntry::pageDataIdx. */
    std::vector<std::unique_ptr<OverlayPageData>> pageStore_;
    std::vector<std::uint32_t> freePages_;

    std::uint64_t omsBytesInUse_ = 0;

    stats::Counter overlayReads_;
    stats::Counter overlayWritebacks_;
    stats::Counter slotAllocations_;
    stats::Counter migrations_;
    stats::Counter omtWalks_;
    stats::Counter oreMessages_;
    stats::Gauge omsBytesGauge_;
};

} // namespace ovl

#endif // OVERLAYSIM_OVERLAY_OVERLAY_MANAGER_HH
