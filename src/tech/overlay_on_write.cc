#include "overlay_on_write.hh"

#include "common/logging.hh"

namespace ovl
{

namespace tech
{

void
sharePages(System &system, Asid owner, Asid borrower, Addr vaddr,
           std::uint64_t len, ForkMode mode)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "sharePages requires a page-aligned range");
    Vmm &vmm = system.vmm();
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Addr vpn = pageNumber(va);
        Pte *pte = vmm.resolve(owner, vpn);
        ovl_assert(pte != nullptr && pte->present,
                   "sharePages of an unmapped owner page");
        ovl_assert(vmm.resolve(borrower, vpn) == nullptr,
                   "borrower already maps the shared range");
        pte->cow = true;
        if (mode == ForkMode::OverlayOnWrite)
            pte->overlayEnabled = true;
        if (pte->ppn != PhysicalMemory::kZeroFrame)
            system.physMem().addRef(pte->ppn);
        vmm.process(borrower).pageTable.set(vpn, *pte);
        // Owner's cached translation is stale (cow bit changed).
        system.forEachTlb([&](auto &tlb) { tlb.invalidate(owner, vpn); });
    }
}

void
remapToSharedFrame(System &system, Asid asid, Addr vaddr, Addr base_ppn,
                   ForkMode mode)
{
    Vmm &vmm = system.vmm();
    Addr vpn = pageNumber(vaddr);
    Pte *pte = vmm.resolve(asid, vpn);
    ovl_assert(pte != nullptr && pte->present,
               "remap of an unmapped page");
    system.physMem().addRef(base_ppn);
    system.physMem().release(pte->ppn);
    pte->ppn = base_ppn;
    pte->cow = true;
    if (mode == ForkMode::OverlayOnWrite)
        pte->overlayEnabled = true;
    system.forEachTlb([&](auto &tlb) { tlb.invalidate(asid, vpn); });
}

} // namespace tech

} // namespace ovl
