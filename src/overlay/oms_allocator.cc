#include "oms_allocator.hh"

#include <algorithm>

#include "common/host_bytes.hh"
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

std::uint64_t
OmsAllocator::freeBytes() const
{
    std::uint64_t bytes = 0;
    for (unsigned c = 0; c < kNumSegClasses; ++c)
        bytes += counts_[c] * segClassBytes(SegClass(c));
    return bytes;
}

std::uint64_t
OmsAllocator::hostBytes() const
{
    return pages_.capacity() * sizeof(PageMeta) + hashMapHostBytes(pageIndex_);
}

template <class Self, class Ar>
void
OmsAllocator::io(Self &self, Ar &ar)
{
    // The page bases as frame numbers, then each class's free list head
    // first: the units' links and free classes, the heads and the counts
    // are rebuilt from these.
    ar.section("OMS ", [&] {
        std::uint64_t n = self.pages_.size();
        ar.count(n, 1);
        if constexpr (Ar::kLoading) {
            // A ref holds the page index above 4 unit bits.
            if (n > (kNullRef >> 4))
                ar.fail("OMS page count " + std::to_string(n) +
                        " overflows a free-list ref");
            std::vector<std::uint64_t> frames(n);
            ar.varints(frames.size(), frames.data());
            self.pages_.clear();
            self.pageIndex_.clear();
            self.lastPageBase_ = kInvalidAddr;
            self.lastPageIdx_ = 0;
            for (std::uint64_t frame : frames) {
                if (frame > (kInvalidAddr >> kPageShift) ||
                    self.pageIndex_.count(frame << kPageShift) != 0)
                    ar.fail("OMS page frame " + std::to_string(frame) +
                            " repeated or out of range");
                self.newPage(frame << kPageShift);
            }
            self.heads_.fill(kNullRef);
            self.counts_.fill(0);
            // Units covered by a free segment, one bit each per page.
            std::vector<std::uint16_t> covered(n, 0);
            for (unsigned c = 0; c < kNumSegClasses; ++c) {
                std::uint64_t len = 0;
                ar.count(len, 1);
                std::vector<std::uint64_t> refs(len);
                ar.varints(refs.size(), refs.data());
                for (std::uint64_t ref : refs) {
                    const std::uint64_t page = ref >> 4;
                    const unsigned unit = unsigned(ref & 15u);
                    const std::uint16_t mask = unitMask(unit, SegClass(c));
                    const char *why =
                        page >= n                ? " is past the pages"
                        : unit % (1u << c) != 0  ? " is not class-aligned"
                        : (covered[page] & mask) ? " overlaps a free unit"
                                                 : nullptr;
                    if (why != nullptr)
                        ar.fail("OMS free ref " + std::to_string(ref) +
                                " of class " + std::to_string(c) + why);
                    covered[page] |= mask;
                }
                for (auto ref = refs.rbegin(); ref != refs.rend(); ++ref)
                    self.pushFront(SegClass(c), std::uint32_t(*ref));
            }
        } else {
            ar.varints(n, [&](std::size_t i) {
                return self.pages_[i].base >> kPageShift;
            });
            for (unsigned c = 0; c < kNumSegClasses; ++c) {
                std::vector<std::uint32_t> refs;
                refs.reserve(self.counts_[c]);
                for (std::uint32_t ref = self.heads_[c]; ref != kNullRef;
                     ref = self.pages_[ref >> 4].next[ref & 15u])
                    refs.push_back(ref);
                ar.count(refs.size(), 1);
                ar.varints(refs.size(),
                           [&](std::size_t i) { return refs[i]; });
            }
        }
    });
}

OVL_SNAPSHOT_IO(OmsAllocator);

void
OmsAllocator::checkPartition(
    const snapshot::Reader &ar,
    const std::vector<std::pair<Addr, SegClass>> &live) const
{
    std::vector<std::uint16_t> covered(pages_.size(), 0);
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        for (unsigned u = 0; u < kUnitsPerPage; ++u) {
            if (std::int8_t cls = pages_[p].freeCls[u]; cls != kNotFree)
                covered[p] |= unitMask(u, SegClass(cls));
        }
    }
    for (auto [base, cls] : live) {
        auto it = pageIndex_.find(pageBase(base));
        const std::uint16_t mask =
            unitMask(unsigned(pageOffset(base) >> 8), cls);
        const char *why =
            it == pageIndex_.end() || pageOffset(base) % segClassBytes(cls)
                ? " is not a segment of an OMS page"
            : (covered[it->second] & mask)
                ? " overlaps a free or another live segment"
                : nullptr;
        if (why != nullptr)
            ar.fail("OMT segment at " + std::to_string(base) + why);
        covered[it->second] |= mask;
    }
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (covered[p] != 0xFFFF)
            ar.fail("OMS page " + std::to_string(p) +
                    " has a unit neither free nor owned");
    }
}

} // namespace ovl
