#include "physical_memory.hh"

#include <cstring>

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
    ++framesInUse_;
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
        // Retire the backing buffer to the pool; the next materializer
        // zero-fills it, so a recycled frame still reads as zero.
        if (contents_[frame])
            pagePool_.push_back(std::move(contents_[frame]));
        freeFrames_.push_back(frame);
        ++framesFreed_;
        --framesInUse_;
        bytesGauge_.set(std::int64_t(bytesInUse()));
    }
}

unsigned
PhysicalMemory::refCount(Addr frame) const
{
    return frame < refCounts_.size() ? refCounts_[frame] : 0;
}

PageData *
PhysicalMemory::framePtr(Addr frame)
{
    ovl_assert(frame != kZeroFrame, "writing the shared zero frame");
    ovl_assert(frame < contents_.size(), "frame out of range");
    std::unique_ptr<PageData> &slot = contents_[frame];
    if (!slot) {
        if (!pagePool_.empty()) {
            slot = std::move(pagePool_.back());
            pagePool_.pop_back();
        } else {
            slot = std::make_unique<PageData>();
        }
        slot->fill(0);
    }
    return slot.get();
}

template <class Self, class Ar>
void
PhysicalMemory::io(Self &self, Ar &ar)
{
    ar.section("PMEM", [&] {
        ar.expectEq(self.capacityBytes_, "physical memory capacity");
        ar.u64(self.nextFrame_);
        ar.u64(self.framesInUse_);
        ar.seq(self.freeFrames_, 8, [&](auto &f) { ar.u64(f); });
        ar.seq(self.refCounts_, 4, [&](auto &rc) { ar.u32(rc); });
        if constexpr (Ar::kLoading) {
            // allocFrame indexes the frame table with free-list frames
            // and nextFrame_ directly, growing it by at most one doubling.
            if (self.nextFrame_ == kZeroFrame ||
                self.nextFrame_ > self.refCounts_.size()) {
                ar.fail("next frame " + std::to_string(self.nextFrame_) +
                        " outside the " +
                        std::to_string(self.refCounts_.size()) +
                        "-frame table");
            }
            for (Addr f : self.freeFrames_) {
                if (f == kZeroFrame || f >= self.nextFrame_)
                    ar.fail("free frame " + std::to_string(f) +
                            " was never allocated");
            }
            self.contents_.clear();
            self.contents_.resize(self.refCounts_.size());
            self.pagePool_.clear();
        }
        // Page contents: only materialized frames carry data; null slots
        // read as zero and must stay null so memory accounting matches.
        std::uint64_t materialized = 0;
        for (const auto &slot : self.contents_)
            materialized += slot != nullptr;
        ar.count(materialized, 8 + kPageSize);
        if constexpr (Ar::kLoading) {
            for (std::uint64_t i = 0; i < materialized; ++i) {
                std::uint64_t f = 0;
                ar.u64(f);
                if (f >= self.contents_.size())
                    ar.fail("materialized frame " + std::to_string(f) +
                            " out of range");
                self.contents_[f] = std::make_unique<PageData>();
                ar.blob(*self.contents_[f]);
            }
        } else {
            for (std::size_t f = 0; f < self.contents_.size(); ++f) {
                if (self.contents_[f]) {
                    ar.u64(f);
                    ar.blob(*self.contents_[f]);
                }
            }
        }
    });
}

OVL_SNAPSHOT_IO(PhysicalMemory);

void
PhysicalMemory::copyFrame(Addr dst_frame, Addr src_frame)
{
    const PageData *src = framePtrConst(src_frame);
    PageData *dst = framePtr(dst_frame);
    if (src == nullptr)
        dst->fill(0);
    else
        *dst = *src;
}

} // namespace ovl
