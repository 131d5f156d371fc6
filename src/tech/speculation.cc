#include "speculation.hh"

#include "common/logging.hh"
#include "overlay/overlay_addr.hh"

namespace ovl
{

namespace tech
{

SpeculativeRegion::SpeculativeRegion(System &system, Asid asid)
    : system_(system), asid_(asid)
{
}

SpeculativeRegion::~SpeculativeRegion()
{
    // A region abandoned without an explicit outcome is aborted: the
    // conservative choice, matching transactional semantics.
    if (active_)
        abort(0);
}

void
SpeculativeRegion::begin(Addr vaddr, std::uint64_t len)
{
    ovl_assert(!active_, "nested speculative regions are not supported");
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "speculative range must be page aligned");
    vaddr_ = vaddr;
    len_ = len;
    active_ = true;
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Pte *pte = system_.vmm().resolve(asid_, pageNumber(va));
        ovl_assert(pte != nullptr && pte->present,
                   "speculative range not mapped");
        ovl_assert(pte->ppn == PhysicalMemory::kZeroFrame ||
                       system_.physMem().refCount(pte->ppn) == 1,
                   "speculative pages must be private");
        pte->cow = true; // divert writes into the overlay
        pte->overlayEnabled = true;
        system_.forEachTlb([&](auto &tlb) {
            tlb.invalidate(asid_, pageNumber(va));
        });
    }
}

std::uint64_t
SpeculativeRegion::speculativeLines() const
{
    std::uint64_t lines = 0;
    for (Addr va = vaddr_; va < vaddr_ + len_; va += kPageSize)
        lines += system_.pageObv(asid_, va).count();
    return lines;
}

void
SpeculativeRegion::disarm()
{
    for (Addr va = vaddr_; va < vaddr_ + len_; va += kPageSize) {
        Pte *pte = system_.vmm().resolve(asid_, pageNumber(va));
        pte->cow = false;
        pte->overlayEnabled = false;
        system_.forEachTlb([&](auto &tlb) {
            tlb.invalidate(asid_, pageNumber(va));
        });
    }
    active_ = false;
}

SpeculationStats
SpeculativeRegion::resolve(Tick when, bool commit_updates)
{
    ovl_assert(active_, "resolving an inactive region");
    SpeculationStats stats;
    stats.committed = commit_updates;
    Tick t = when;

    for (Addr va = vaddr_; va < vaddr_ + len_; va += kPageSize) {
        BitVector64 obv = system_.pageObv(asid_, va);
        if (obv.none())
            continue;
        ++stats.speculativePages;
        stats.speculativeLines += obv.count();
        PromoteAction action = PromoteAction::Discard;
        if (commit_updates) {
            // Zero-backed pages cannot absorb a commit in place; merge
            // into a fresh frame instead.
            const Pte *pte = system_.vmm().resolve(asid_, pageNumber(va));
            action = pte->ppn == PhysicalMemory::kZeroFrame
                         ? PromoteAction::CopyAndCommit
                         : PromoteAction::Commit;
        }
        t = system_.promoteOverlay(asid_, va, action, t);
    }
    disarm();
    stats.resolveLatency = t - when;
    return stats;
}

SpeculationStats
SpeculativeRegion::commit(Tick when)
{
    return resolve(when, true);
}

SpeculationStats
SpeculativeRegion::abort(Tick when)
{
    return resolve(when, false);
}

} // namespace tech

} // namespace ovl
