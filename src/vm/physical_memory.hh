/**
 * @file
 * Functional main memory: a frame allocator with reference counts (for
 * copy-on-write sharing) and lazily materialized page contents. Frame 0
 * is the shared zero frame used both by classic zero-fill-on-demand and
 * by the sparse-data-structure technique, whose pages all map to a zero
 * physical page (§5.2). The host buffers behind frames are themselves
 * copy-on-write: a CoW copy shares its source's buffer until one of them
 * is written, and zero contents share one immortal zero page.
 */

#ifndef OVERLAYSIM_VM_PHYSICAL_MEMORY_HH
#define OVERLAYSIM_VM_PHYSICAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
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
    std::uint64_t
    framesInUse() const
    {
        return nextFrame_ - 1 - freeFrames_.size();
    }

    /** Bytes currently allocated (excluding the zero frame). */
    std::uint64_t bytesInUse() const { return framesInUse() * kPageSize; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }

    // ----- functional data access (physical addresses) ------------------
    // Inline (below): every peek/poke lands here once per 64 B chunk.

    void readLine(Addr paddr, LineData &out) const;
    void writeLine(Addr paddr, const LineData &data);
    void readBytes(Addr paddr, void *out, std::size_t len) const;

    /**
     * Store @p len bytes. All-zero bytes written to a frame that reads
     * as zero map it to the zero page instead of allocating a buffer.
     */
    void writeBytes(Addr paddr, const void *in, std::size_t len);

    /**
     * Give @p dst_frame the contents of @p src_frame. The two share one
     * host buffer until either is written; a never-written source maps
     * the destination to the zero page.
     */
    void copyFrame(Addr dst_frame, Addr src_frame);

    /** Distinct host buffers, other than the zero page, behind frames. */
    std::uint64_t pageBuffersInUse() const;

    /**
     * Snapshot visitor (DESIGN.md §11.1) over the allocator and all
     * materialized page contents. Buffer sharing, the zero page and the
     * page pool (recycled buffers) are host-side storage, not simulated
     * state: a materialized frame serializes as its 4 KB of bytes however
     * it is stored, and an all-zero page restores onto the zero page.
     * PMEM body (format 5): capacity (u64) @0, nextFrame (u64) @8, from
     * @16 one varint refcount per frame below nextFrame (the zero frame
     * first), the free-list count (u64) and its frames as varints in
     * list order (allocFrame takes the last), then the materialized
     * count (u64) and {frame (u64), 4 KB page} entries. The frames in
     * use and the frame-table size are derived from these.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /**
     * Owning handle to a host page buffer. Copies share the buffer through
     * an intrusive, non-atomic holder count (a buffer never leaves the
     * PhysicalMemory, and so the thread, that allocated it). The process-
     * wide zero page is immortal: it is recognised by its address and never
     * counted, so threads may share it as long as nobody writes it.
     */
    class PageHandle
    {
      public:
        PageHandle() = default;
        PageHandle(const PageHandle &other) : buf_(other.buf_) { retain(); }
        PageHandle(PageHandle &&other) noexcept
            : buf_(std::exchange(other.buf_, nullptr))
        {
        }
        PageHandle &
        operator=(PageHandle other) noexcept
        {
            std::swap(buf_, other.buf_);
            return *this;
        }
        ~PageHandle() { drop(); }

        /** A fresh, unshared buffer; its bytes are unspecified. */
        static PageHandle
        allocate()
        {
            PageHandle h;
            h.buf_ = new Buffer;
            h.buf_->holders = 1;
            return h;
        }

        /** A handle to the zero page. */
        static PageHandle
        zero()
        {
            PageHandle h;
            h.buf_ = &zeroPage_;
            return h;
        }

        /** The zero page's bytes (all zero, forever). */
        static const PageData &zeroBytes() { return zeroPage_.bytes; }

        explicit operator bool() const { return buf_ != nullptr; }
        bool isZero() const { return buf_ == &zeroPage_; }

        /** True if this handle is the buffer's only holder. */
        bool
        writable() const
        {
            return buf_ != nullptr && !isZero() && buf_->holders == 1;
        }

        /** Identity of the buffer, for counting distinct buffers. */
        const void *id() const { return buf_; }

        const PageData &bytes() const { return buf_->bytes; }

        PageData &
        mutableBytes()
        {
            ovl_assert(writable(), "writing a shared page buffer");
            return buf_->bytes;
        }

      private:
        struct Buffer
        {
            PageData bytes;
            unsigned holders;
        };

        void
        retain()
        {
            if (buf_ != nullptr && !isZero())
                ++buf_->holders;
        }

        void
        drop()
        {
            if (buf_ != nullptr && !isZero() && --buf_->holders == 0)
                delete buf_;
        }

        static inline Buffer zeroPage_{};

        Buffer *buf_ = nullptr;
    };

    static_assert(sizeof(PageHandle) == sizeof(void *),
                  "one frame slot must stay pointer-sized");

    const PageData *framePtrConst(Addr frame) const;
    /** Write path for a frame whose buffer is absent, shared or zero. */
    void writeUnowned(Addr paddr, const void *in, std::size_t len);

    static bool
    isZeroFilled(const void *bytes, std::size_t len)
    {
        return std::memcmp(bytes, PageHandle::zeroBytes().data(), len) == 0;
    }

    std::uint64_t capacityBytes_;
    Addr nextFrame_ = 1; ///< frame 0 is the zero frame
    std::vector<Addr> freeFrames_;
    // Dense, frame-indexed bookkeeping. A refcount of 0 means the frame
    // is unallocated; a null contents slot reads as all-zeroes (zero
    // frame, or allocated but never written) and a zero-page slot reads
    // the same but counts as materialized. Only allocated frames other
    // than the zero frame hold contents. Both vectors grow lazily with
    // the high-water frame number, so capacity can be huge without
    // paying for it up front.
    std::vector<unsigned> refCounts_;
    std::vector<PageHandle> contents_;
    // Retired unshared buffers, recycled by writeUnowned so the steady-
    // state alloc/release churn of fork-heavy workloads never hits malloc.
    std::vector<PageHandle> pagePool_;

    stats::Counter framesAllocated_;
    stats::Counter framesFreed_;
    stats::Gauge bytesGauge_;
};

// ------------------------ inline hot path ------------------------------

inline const PageData *
PhysicalMemory::framePtrConst(Addr frame) const
{
    return frame < contents_.size() && contents_[frame]
               ? &contents_[frame].bytes()
               : nullptr;
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
    Addr frame = pageNumber(paddr);
    if (frame < contents_.size() && contents_[frame].writable()) {
        std::memcpy(contents_[frame].mutableBytes().data() +
                        pageOffset(paddr),
                    in, len);
        return;
    }
    writeUnowned(paddr, in, len);
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
