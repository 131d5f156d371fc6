/**
 * @file
 * Functional main memory: a frame allocator with reference counts (for
 * copy-on-write sharing) and lazily materialized page contents. Frame 0
 * is the shared zero frame used both by classic zero-fill-on-demand and
 * by the sparse-data-structure technique, whose pages all map to a zero
 * physical page (§5.2).
 */

#ifndef OVERLAYSIM_VM_PHYSICAL_MEMORY_HH
#define OVERLAYSIM_VM_PHYSICAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/** Functional contents of one 4 KB frame. */
using PageData = std::array<std::uint8_t, kPageSize>;

/**
 * Frame-granular functional memory. Timing is handled elsewhere (the
 * DRAM model); this class answers "what bytes live at physical address
 * P" and tracks allocation/sharing.
 */
class PhysicalMemory : public SimObject
{
  public:
    /** Frame number of the shared all-zeroes page. */
    static constexpr Addr kZeroFrame = 0;

    PhysicalMemory(std::string name, std::uint64_t capacity_bytes);

    /** Allocate a frame with refcount 1; contents read as zero. */
    Addr allocFrame();

    /** Increment the sharer count of @p frame (fork/CoW). */
    void addRef(Addr frame);

    /**
     * Decrement the sharer count; frees the frame when it reaches zero.
     * The zero frame is never freed.
     */
    void release(Addr frame);

    /** Current sharer count (0 = unallocated). */
    unsigned refCount(Addr frame) const;

    /** Number of frames currently allocated (excluding the zero frame). */
    std::uint64_t framesInUse() const { return framesInUse_; }

    /** Bytes currently allocated (excluding the zero frame). */
    std::uint64_t bytesInUse() const { return framesInUse_ * kPageSize; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }

    // ----- functional data access (physical addresses) ------------------
    // Inline (below): every peek/poke lands here once per 64 B chunk.

    void readLine(Addr paddr, LineData &out) const;
    void writeLine(Addr paddr, const LineData &data);
    void readBytes(Addr paddr, void *out, std::size_t len) const;
    void writeBytes(Addr paddr, const void *in, std::size_t len);

    /** Copy a whole frame's contents. */
    void copyFrame(Addr dst_frame, Addr src_frame);

    /**
     * Snapshot visitor (DESIGN.md §11.1) over the allocator and all
     * materialized page contents. The page pool (recycled buffers) is
     * host-side malloc avoidance, not simulated state, and is not
     * serialized: recycled frames are zero-filled on reuse either way.
     * PMEM body byte offsets: capacity @0, nextFrame @8, framesInUse @16,
     * free-list count @24, free frames from @32 (all u64).
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    PageData *framePtr(Addr frame);
    const PageData *framePtrConst(Addr frame) const;

    std::uint64_t capacityBytes_;
    Addr nextFrame_ = 1; ///< frame 0 is the zero frame
    std::vector<Addr> freeFrames_;
    // Dense, frame-indexed bookkeeping. A refcount of 0 means the frame
    // is unallocated; a null contents slot reads as all-zeroes (zero
    // frame, or allocated but never written). Both vectors grow lazily
    // with the high-water frame number, so capacity can be huge without
    // paying for it up front.
    std::vector<unsigned> refCounts_;
    std::vector<std::unique_ptr<PageData>> contents_;
    // Retired page buffers, recycled by framePtr so the steady-state
    // alloc/release churn of fork-heavy workloads never hits malloc.
    std::vector<std::unique_ptr<PageData>> pagePool_;
    std::uint64_t framesInUse_ = 0;

    stats::Counter framesAllocated_;
    stats::Counter framesFreed_;
    stats::Gauge bytesGauge_;
};

// ------------------------ inline hot path ------------------------------

inline const PageData *
PhysicalMemory::framePtrConst(Addr frame) const
{
    return frame < contents_.size() ? contents_[frame].get() : nullptr;
}

inline void
PhysicalMemory::readBytes(Addr paddr, void *out, std::size_t len) const
{
    ovl_assert(pageNumber(paddr) == pageNumber(paddr + len - 1),
               "functional access crosses a page boundary");
    const PageData *page = framePtrConst(pageNumber(paddr));
    if (page == nullptr) {
        std::memset(out, 0, len); // untouched or zero frame: reads as zero
        return;
    }
    std::memcpy(out, page->data() + pageOffset(paddr), len);
}

inline void
PhysicalMemory::writeBytes(Addr paddr, const void *in, std::size_t len)
{
    ovl_assert(pageNumber(paddr) == pageNumber(paddr + len - 1),
               "functional access crosses a page boundary");
    PageData *page = framePtr(pageNumber(paddr));
    std::memcpy(page->data() + pageOffset(paddr), in, len);
}

inline void
PhysicalMemory::readLine(Addr paddr, LineData &out) const
{
    readBytes(paddr & ~kLineMask, out.data(), kLineSize);
}

inline void
PhysicalMemory::writeLine(Addr paddr, const LineData &data)
{
    writeBytes(paddr & ~kLineMask, data.data(), kLineSize);
}

} // namespace ovl

#endif // OVERLAYSIM_VM_PHYSICAL_MEMORY_HH
