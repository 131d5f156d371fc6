#include "physical_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

PhysicalMemory::PhysicalMemory(std::string name,
                               std::uint64_t capacity_bytes)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      framesAllocated_(&statGroup(), "framesAllocated",
                       "4 KB frames allocated"),
      framesFreed_(&statGroup(), "framesFreed", "4 KB frames freed"),
      bytesGauge_(&statGroup(), "bytesInUse", "bytes currently allocated")
{
    refCounts_.resize(64, 0);
    contents_.resize(64);
    refCounts_[kZeroFrame] = 1; // permanently live
}

Addr
PhysicalMemory::allocFrame()
{
    Addr frame;
    if (!freeFrames_.empty()) {
        frame = freeFrames_.back();
        freeFrames_.pop_back();
    } else {
        frame = nextFrame_++;
        if (frame * kPageSize >= capacityBytes_)
            ovl_fatal("physical memory exhausted (%llu bytes)",
                      (unsigned long long)capacityBytes_);
        if (frame >= refCounts_.size()) {
            refCounts_.resize(refCounts_.size() * 2, 0);
            contents_.resize(refCounts_.size());
        }
    }
    refCounts_[frame] = 1;
    ++framesAllocated_;
    bytesGauge_.set(std::int64_t(bytesInUse()));
    return frame;
}

void
PhysicalMemory::addRef(Addr frame)
{
    ovl_assert(frame < refCounts_.size() && refCounts_[frame] > 0,
               "addRef on an unallocated frame");
    ++refCounts_[frame];
}

void
PhysicalMemory::release(Addr frame)
{
    if (frame == kZeroFrame)
        return;
    ovl_assert(frame < refCounts_.size() && refCounts_[frame] > 0,
               "release of an unallocated frame");
    if (--refCounts_[frame] == 0) {
        // Retire an unshared backing buffer to the pool (the next
        // materializer zero-fills it, so a recycled frame still reads as
        // zero); a shared buffer just loses one holder.
        PageHandle retired = std::move(contents_[frame]);
        if (retired.writable())
            pagePool_.push_back(std::move(retired));
        freeFrames_.push_back(frame);
        ++framesFreed_;
        bytesGauge_.set(std::int64_t(bytesInUse()));
    }
}

unsigned
PhysicalMemory::refCount(Addr frame) const
{
    return frame < refCounts_.size() ? refCounts_[frame] : 0;
}

std::uint64_t
PhysicalMemory::pageBuffersInUse() const
{
    std::vector<const void *> ids;
    for (const PageHandle &slot : contents_) {
        if (slot && !slot.isZero())
            ids.push_back(slot.id());
    }
    std::sort(ids.begin(), ids.end());
    return std::uint64_t(std::unique(ids.begin(), ids.end()) - ids.begin());
}

void
PhysicalMemory::writeUnowned(Addr paddr, const void *in, std::size_t len)
{
    Addr frame = pageNumber(paddr);
    ovl_assert(frame != kZeroFrame, "writing the shared zero frame");
    ovl_assert(frame < contents_.size(), "frame out of range");
    PageHandle &slot = contents_[frame];
    bool reads_zero = !slot || slot.isZero();
    if (reads_zero && isZeroFilled(in, len)) {
        // Storing zeros into zeros: materialize onto the zero page.
        slot = PageHandle::zero();
        return;
    }
    // First write to a shared or zero buffer: copy it, then write.
    PageHandle own;
    if (pagePool_.empty()) {
        own = PageHandle::allocate();
    } else {
        own = std::move(pagePool_.back());
        pagePool_.pop_back();
    }
    if (reads_zero)
        own.mutableBytes().fill(0);
    else
        own.mutableBytes() = slot.bytes();
    slot = std::move(own);
    std::memcpy(slot.mutableBytes().data() + pageOffset(paddr), in, len);
}

template <class Self, class Ar>
void
PhysicalMemory::io(Self &self, Ar &ar)
{
    ar.section("PMEM", [&] {
        ar.expectEq(self.capacityBytes_, "physical memory capacity");
        // The frames ever handed out, one refcount each (the zero frame
        // included), then the free list in allocation order. The count
        // in use and the table size follow from these.
        ar.u64(self.nextFrame_);
        if constexpr (Ar::kLoading) {
            // allocFrame never hands out a frame at or past the capacity,
            // and each refcount takes at least one byte.
            const std::uint64_t frames =
                (self.capacityBytes_ + kPageSize - 1) / kPageSize;
            if (self.nextFrame_ == kZeroFrame ||
                (self.nextFrame_ > 1 && self.nextFrame_ - 1 >= frames) ||
                self.nextFrame_ > ar.remaining()) {
                ar.fail("next frame " + std::to_string(self.nextFrame_) +
                        " outside the " + std::to_string(frames) +
                        "-frame memory or the payload");
            }
            // The table size allocFrame's doubling reached.
            const auto size = std::max<std::size_t>(
                64, std::bit_ceil(std::size_t(self.nextFrame_)));
            std::vector<std::uint64_t> counts(self.nextFrame_);
            ar.varints(counts.size(), counts.data());
            self.refCounts_.assign(size, 0);
            for (std::size_t f = 0; f < counts.size(); ++f) {
                if (counts[f] > std::numeric_limits<unsigned>::max())
                    ar.fail("frame " + std::to_string(f) + " refcount " +
                            std::to_string(counts[f]) + " out of range");
                self.refCounts_[f] = unsigned(counts[f]);
            }
            if (self.refCounts_[kZeroFrame] == 0)
                ar.fail("the zero frame is not live");
            std::uint64_t n = 0;
            ar.count(n, 1);
            std::vector<std::uint64_t> free(n);
            ar.varints(free.size(), free.data());
            // Every frame below nextFrame_ is live or free, never both,
            // and none is free twice.
            std::vector<bool> listed(self.nextFrame_);
            for (std::uint64_t f : free) {
                const char *why = f == kZeroFrame || f >= self.nextFrame_
                                      ? " was never allocated"
                                  : self.refCounts_[f] != 0 ? " is live"
                                  : listed[f] ? " is listed twice"
                                              : nullptr;
                if (why != nullptr)
                    ar.fail("free frame " + std::to_string(f) + why);
                listed[f] = true;
            }
            if (free.size() != std::size_t(std::count(
                                   counts.begin() + 1, counts.end(), 0)))
                ar.fail("a frame below the next frame is neither live "
                        "nor free");
            self.freeFrames_.assign(free.begin(), free.end());
            self.contents_.clear();
            self.contents_.resize(size);
            self.pagePool_.clear();
        } else {
            ar.varints(self.nextFrame_, [&](std::size_t f) {
                return self.refCounts_[f];
            });
            ar.count(self.freeFrames_.size(), 1);
            ar.varints(self.freeFrames_.size(), [&](std::size_t i) {
                return self.freeFrames_[i];
            });
        }
        // Page contents: only materialized frames carry data, in
        // ascending frame order; null slots read as zero and must stay
        // null so the materialized set round-trips.
        std::uint64_t materialized = 0;
        for (const PageHandle &slot : self.contents_)
            materialized += bool(slot);
        ar.count(materialized, 8 + kPageSize);
        if constexpr (Ar::kLoading) {
            Addr prev = kZeroFrame;
            PageData page{};
            for (std::uint64_t i = 0; i < materialized; ++i) {
                std::uint64_t f = 0;
                ar.u64(f);
                // A slot on a free frame would leak its bytes into the
                // next allocFrame, and one on the zero frame would make
                // it writable.
                if (f == kZeroFrame)
                    ar.fail("materialized entry names the zero frame");
                if (f <= prev)
                    ar.fail("materialized frame " + std::to_string(f) +
                            " follows frame " + std::to_string(prev));
                if (f >= self.refCounts_.size() || self.refCounts_[f] == 0)
                    ar.fail("materialized frame " + std::to_string(f) +
                            " is not allocated");
                prev = f;
                ar.blob(page);
                if (isZeroFilled(page.data(), kPageSize)) {
                    self.contents_[f] = PageHandle::zero();
                } else {
                    self.contents_[f] = PageHandle::allocate();
                    self.contents_[f].mutableBytes() = page;
                }
            }
        } else {
            for (std::size_t f = 0; f < self.contents_.size(); ++f) {
                if (self.contents_[f]) {
                    ar.u64(f);
                    ar.blob(self.contents_[f].bytes());
                }
            }
        }
    });
}

OVL_SNAPSHOT_IO(PhysicalMemory);

void
PhysicalMemory::copyFrame(Addr dst_frame, Addr src_frame)
{
    ovl_assert(dst_frame != kZeroFrame, "writing the shared zero frame");
    ovl_assert(dst_frame < contents_.size(), "frame out of range");
    const PageHandle *src =
        src_frame < contents_.size() ? &contents_[src_frame] : nullptr;
    contents_[dst_frame] =
        src != nullptr && *src ? *src : PageHandle::zero();
}

} // namespace ovl
