#include "oms_allocator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

OmsAllocator::OmsAllocator(std::string name, OmsAllocatorParams params,
                           PageAllocFn os_alloc_page)
    : SimObject(std::move(name)), params_(params),
      osAllocPage_(os_alloc_page),
      allocations_(&statGroup(), "allocations", "segments allocated"),
      releases_(&statGroup(), "releases", "segments released"),
      splits_(&statGroup(), "splits", "segments split to feed a class"),
      coalesces_(&statGroup(), "coalesces", "buddy segments coalesced"),
      osRefills_(&statGroup(), "osRefills", "page batches requested from OS"),
      osBytesProvided_(&statGroup(), "osBytesProvided",
                       "bytes the OS handed to the OMS"),
      listTouches_(&statGroup(), "listTouches",
                   "free-list memory-line touches")
{
    ovl_assert(osAllocPage_, "OMS allocator needs an OS hook");
    heads_.fill(kNullRef);
    pages_.reserve(params_.startupPages);
    for (unsigned i = 0; i < params_.startupPages; ++i) {
        pushFront(SegClass::Seg4KB, newPage(osAllocPage_()) << 4);
        osBytesProvided_ += kPageSize;
    }
}

std::uint32_t
OmsAllocator::newPage(Addr base)
{
    ovl_assert(pageOffset(base) == 0, "OMS pages must be page-aligned");
    auto idx = std::uint32_t(pages_.size());
    pages_.emplace_back();
    PageMeta &pm = pages_.back();
    pm.base = base;
    pm.freeCls.fill(kNotFree);
    pageIndex_.emplace(base, idx);
    return idx;
}

std::uint32_t
OmsAllocator::refOf(Addr addr)
{
    Addr page_base = pageBase(addr);
    std::uint32_t idx;
    if (page_base == lastPageBase_) {
        idx = lastPageIdx_;
    } else {
        auto it = pageIndex_.find(page_base);
        ovl_assert(it != pageIndex_.end(),
                   "segment address outside any OMS page");
        idx = it->second;
        lastPageBase_ = page_base;
        lastPageIdx_ = idx;
    }
    return (idx << 4) | std::uint32_t(pageOffset(addr) >> 8);
}

void
OmsAllocator::pushFront(SegClass cls, std::uint32_t ref)
{
    PageMeta &pm = pages_[ref >> 4];
    unsigned unit = ref & 15u;
    pm.freeCls[unit] = std::int8_t(cls);
    pm.next[unit] = heads_[unsigned(cls)];
    pm.prev[unit] = kNullRef;
    if (heads_[unsigned(cls)] != kNullRef)
        pages_[heads_[unsigned(cls)] >> 4].prev[heads_[unsigned(cls)] & 15u] =
            ref;
    heads_[unsigned(cls)] = ref;
    ++counts_[unsigned(cls)];
}

void
OmsAllocator::unlink(SegClass cls, std::uint32_t ref)
{
    PageMeta &pm = pages_[ref >> 4];
    unsigned unit = ref & 15u;
    std::uint32_t nxt = pm.next[unit];
    std::uint32_t prv = pm.prev[unit];
    if (prv != kNullRef)
        pages_[prv >> 4].next[prv & 15u] = nxt;
    else
        heads_[unsigned(cls)] = nxt;
    if (nxt != kNullRef)
        pages_[nxt >> 4].prev[nxt & 15u] = prv;
    pm.freeCls[unit] = kNotFree;
    --counts_[unsigned(cls)];
}

void
OmsAllocator::refillFromOs()
{
    ++osRefills_;
    for (unsigned i = 0; i < params_.refillPages; ++i) {
        pushFront(SegClass::Seg4KB, newPage(osAllocPage_()) << 4);
        osBytesProvided_ += kPageSize;
    }
}

Addr
OmsAllocator::allocate(SegClass cls)
{
    if (counts_[unsigned(cls)] == 0) {
        if (cls == SegClass::Seg4KB) {
            refillFromOs();
        } else {
            // Split one segment of the next larger class in two (§4.4.3).
            Addr big = allocate(segClassNext(cls));
            ++splits_;
            listTouches_ += 2;
            pushFront(cls, refOf(big + segClassBytes(cls)));
            ++allocations_;
            return big;
        }
    }
    ovl_assert(counts_[unsigned(cls)] > 0, "OMS allocator failed to refill");
    std::uint32_t ref = heads_[unsigned(cls)];
    unlink(cls, ref);
    ++allocations_;
    ++listTouches_;
    return addrOf(ref);
}

void
OmsAllocator::release(Addr base, SegClass cls)
{
    pushFront(cls, refOf(base));
    ++releases_;
    ++listTouches_;
    if (params_.coalesce)
        tryCoalesce(cls);
}

void
OmsAllocator::tryCoalesce(SegClass cls)
{
    while (cls != SegClass::Seg4KB) {
        if (counts_[unsigned(cls)] < 2)
            return;
        // The most recent release is the coalescing candidate; its buddy
        // lives in the same OS page, so one unit-state probe decides.
        std::uint32_t ref = heads_[unsigned(cls)];
        Addr base = addrOf(ref);
        Addr bytes = segClassBytes(cls);
        Addr buddy = base ^ bytes;
        PageMeta &pm = pages_[ref >> 4];
        unsigned buddy_unit = unsigned(pageOffset(buddy) >> 8);
        if (pm.freeCls[buddy_unit] != std::int8_t(cls))
            return;
        std::uint32_t buddy_ref = (ref & ~15u) | buddy_unit;
        unlink(cls, ref);
        unlink(cls, buddy_ref);
        ++coalesces_;
        listTouches_ += 2;
        SegClass bigger = segClassNext(cls);
        pushFront(bigger, refOf(std::min(base, buddy)));
        cls = bigger;
    }
}

std::size_t
OmsAllocator::freeCount(SegClass cls) const
{
    return counts_[unsigned(cls)];
}

template <class Self, class Ar>
void
OmsAllocator::io(Self &self, Ar &ar)
{
    ar.section("OMS ", [&] {
        if constexpr (Ar::kLoading) {
            self.pageIndex_.clear();
            self.lastPageBase_ = kInvalidAddr;
            self.lastPageIdx_ = 0;
        }
        [[maybe_unused]] std::uint32_t idx = 0;
        ar.seq(self.pages_, 8 + kUnitsPerPage * 4 * 2 + kUnitsPerPage,
               [&](auto &pm) {
            ar.u64(pm.base);
            if constexpr (Ar::kLoading) {
                if (pageOffset(pm.base) != 0)
                    ar.fail("OMS page base not page-aligned");
            }
            for (auto &nxt : pm.next)
                ar.u32(nxt);
            for (auto &prv : pm.prev)
                ar.u32(prv);
            ar.blob(pm.freeCls);
            if constexpr (Ar::kLoading) {
                for (std::int8_t cls : pm.freeCls) {
                    if (cls != kNotFree &&
                        (cls < 0 || cls >= std::int8_t(kNumSegClasses))) {
                        ar.fail("OMS unit free-class out of range");
                    }
                }
                if (!self.pageIndex_.emplace(pm.base, idx++).second)
                    ar.fail("duplicate OMS page base in snapshot");
            }
        });
        for (auto &head : self.heads_) {
            ar.u32(head);
            if constexpr (Ar::kLoading) {
                if (head != kNullRef && (head >> 4) >= self.pages_.size())
                    ar.fail("OMS free-list head out of page bounds");
            }
        }
        for (auto &cnt : self.counts_)
            ar.u64(cnt);
    });
}

OVL_SNAPSHOT_IO(OmsAllocator);

} // namespace ovl
