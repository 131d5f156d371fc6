/**
 * @file
 * Free-space management for the Overlay Memory Store (§4.4.3): one free
 * list per segment size class, maintained as grouped linked lists in OMS
 * memory. When a class runs dry the allocator splits a segment of the
 * next larger size in two; when even 4 KB segments run out it requests a
 * batch of pages from the OS (the only OS interaction, §4.5).
 */

#ifndef OVERLAYSIM_OVERLAY_OMS_ALLOCATOR_HH
#define OVERLAYSIM_OVERLAY_OMS_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/oms_segment.hh"
#include "overlay/page_alloc.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/** Tunables for the OMS allocator. */
struct OmsAllocatorParams
{
    /** Pages the OS proactively hands the controller at startup (§4.4.3). */
    unsigned startupPages = 64;
    /** Pages requested per OS refill when the 4 KB list runs dry. */
    unsigned refillPages = 64;
    /**
     * Optional buddy-style coalescing of free sibling segments back into
     * larger ones. The paper only describes splitting; coalescing is the
     * extension evaluated by bench/abl_segments.
     */
    bool coalesce = false;
};

/**
 * Segment allocator over OS-provided 4 KB pages. Functionally the free
 * lists are intrusive doubly-linked lists threaded through per-page unit
 * metadata, so every operation — including the buddy probe of a coalesce
 * — is O(1); the timing cost of list manipulation is charged by the
 * OverlayManager (a grouped linked list touches O(1) lines per
 * operation [46]).
 *
 * Because segments never straddle the 4 KB page they were split from,
 * every free segment is identified by (page, 256 B unit index). Each
 * page records which of its units head a free segment and of what class,
 * which is exactly the state a buddy lookup needs.
 */
class OmsAllocator : public SimObject
{
  public:
    /** @p os_alloc_page returns the main-memory address of a fresh page. */
    OmsAllocator(std::string name, OmsAllocatorParams params,
                 PageAllocFn os_alloc_page);

    /**
     * Allocate one segment of @p cls. Splits larger segments or requests
     * OS pages as needed.
     */
    Addr allocate(SegClass cls);

    /** Return a segment to the free list of its class. */
    void release(Addr base, SegClass cls);

    /** Number of free segments currently on the list of @p cls. */
    std::size_t freeCount(SegClass cls) const;

    /**
     * Total bytes handed to the OMS by the OS so far: its pages, which
     * it never returns (the osBytesProvided statistic can be reset).
     */
    std::uint64_t osBytesProvided() const { return pages_.size() * kPageSize; }

    /** Bytes of the segments on the free lists. */
    std::uint64_t freeBytes() const;

    /** Host bytes of the page metadata and the page index. */
    std::uint64_t hostBytes() const;

    /** Memory accesses implied by free-list manipulation since creation. */
    std::uint64_t listTouches() const { return listTouches_.value(); }

    /**
     * Snapshot visitor (format 5, DESIGN.md §11.2) over the page bases
     * and the free lists. Restore rebuilds the units' links and free
     * classes, the heads, the counts and pageIndex_ from them, and
     * rejects a free segment past the pages, not aligned to its class or
     * overlapping another; the MRU page cache is reset. The OS
     * allocation hook is structural and not serialized.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

    /**
     * Restore check: the free segments and the @p live (base, class)
     * segments together cover every 256 B unit of every page exactly
     * once; fails @p ar otherwise.
     */
    void checkPartition(
        const snapshot::Reader &ar,
        const std::vector<std::pair<Addr, SegClass>> &live) const;

  private:
    /** 256 B units per OS page: the finest segment granularity. */
    static constexpr unsigned kUnitsPerPage = kPageSize / 256;
    /** A free-list node: (page index << 4) | unit index. */
    static constexpr std::uint32_t kNullRef = ~std::uint32_t(0);
    /** Unit marker: this unit does not head a free segment. */
    static constexpr std::int8_t kNotFree = -1;

    /** Free-list linkage and free-state of one OS page's units. */
    struct PageMeta
    {
        Addr base = 0;
        std::array<std::uint32_t, kUnitsPerPage> next;
        std::array<std::uint32_t, kUnitsPerPage> prev;
        /** Class of the free segment headed at each unit, or kNotFree. */
        std::array<std::int8_t, kUnitsPerPage> freeCls;
    };

    /** The units of one page covered by a @p cls segment at @p unit. */
    static std::uint16_t
    unitMask(unsigned unit, SegClass cls)
    {
        return std::uint16_t(((1u << (1u << unsigned(cls))) - 1) << unit);
    }

    Addr
    addrOf(std::uint32_t ref) const
    {
        return pages_[ref >> 4].base + Addr(ref & 15u) * 256;
    }

    std::uint32_t refOf(Addr addr);
    std::uint32_t newPage(Addr base);
    void pushFront(SegClass cls, std::uint32_t ref);
    void unlink(SegClass cls, std::uint32_t ref);

    void refillFromOs();
    /** Try buddy coalescing after a release. */
    void tryCoalesce(SegClass cls);

    OmsAllocatorParams params_;
    PageAllocFn osAllocPage_;

    std::vector<PageMeta> pages_;
    /** Page base address -> pages_ index, with a one-entry MRU. */
    std::unordered_map<Addr, std::uint32_t> pageIndex_;
    Addr lastPageBase_ = kInvalidAddr;
    std::uint32_t lastPageIdx_ = 0;

    std::array<std::uint32_t, kNumSegClasses> heads_;
    std::array<std::size_t, kNumSegClasses> counts_{};

    stats::Counter allocations_;
    stats::Counter releases_;
    stats::Counter splits_;
    stats::Counter coalesces_;
    stats::Counter osRefills_;
    stats::Counter osBytesProvided_;
    stats::Counter listTouches_;
};

} // namespace ovl

#endif // OVERLAYSIM_OVERLAY_OMS_ALLOCATOR_HH
