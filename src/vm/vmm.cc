#include "vmm.hh"

#include "common/logging.hh"
#include "overlay/overlay_addr.hh"
#include "sim/profile.hh"

namespace ovl
{

Vmm::Vmm(std::string name, PhysicalMemory &phys_mem)
    : SimObject(std::move(name)), physMem_(phys_mem),
      processesCreated_(&statGroup(), "processesCreated",
                        "processes created"),
      forks_(&statGroup(), "forks", "fork() calls"),
      pagesMapped_(&statGroup(), "pagesMapped", "pages mapped"),
      cowBreaks_(&statGroup(), "cowBreaks", "copy-on-write faults resolved"),
      cowCopies_(&statGroup(), "cowCopies", "page copies performed by CoW")
{
}

Asid
Vmm::createProcess()
{
    ovl_assert(processes_.size() < overlay_addr::kMaxProcesses,
               "process limit (2^15) exceeded");
    auto proc = std::make_unique<Process>();
    proc->asid = Asid(processes_.size());
    processes_.push_back(std::move(proc));
    ++processesCreated_;
    return processes_.back()->asid;
}

void
Vmm::mapAnon(Asid asid, Addr vaddr, std::uint64_t len, bool writable)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "mapAnon requires page-aligned range");
    Process &proc = process(asid);
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Pte pte;
        pte.ppn = physMem_.allocFrame();
        pte.present = true;
        pte.writable = writable;
        proc.pageTable.set(pageNumber(va), pte);
        ++pagesMapped_;
    }
}

void
Vmm::mapZeroCow(Asid asid, Addr vaddr, std::uint64_t len,
                bool overlay_enabled)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "mapZeroCow requires page-aligned range");
    Process &proc = process(asid);
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Pte pte;
        pte.ppn = PhysicalMemory::kZeroFrame;
        pte.present = true;
        pte.writable = true;
        pte.cow = true;
        pte.overlayEnabled = overlay_enabled;
        proc.pageTable.set(pageNumber(va), pte);
        ++pagesMapped_;
    }
}

void
Vmm::unmap(Asid asid, Addr vaddr, std::uint64_t len)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "unmap requires page-aligned range");
    Process &proc = process(asid);
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Addr vpn = pageNumber(va);
        if (Pte *pte = proc.pageTable.find(vpn)) {
            physMem_.release(pte->ppn);
            proc.pageTable.erase(vpn);
        }
    }
}

Asid
Vmm::fork(Asid parent, ForkMode mode)
{
    OVL_PROF_SCOPE(Fork);
    Asid child = createProcess();
    Process &parent_proc = process(parent);
    Process &child_proc = process(child);
    ++forks_;

    for (auto &&[vpn, pte] : parent_proc.pageTable) {
        if (!pte.present)
            continue;
        if (pte.writable) {
            // Mark shared-CoW in the parent; the OS tells hardware how
            // the divergence will be resolved (§2.2).
            pte.cow = true;
            if (mode == ForkMode::OverlayOnWrite)
                pte.overlayEnabled = true;
        }
        if (pte.ppn != PhysicalMemory::kZeroFrame)
            physMem_.addRef(pte.ppn);
        child_proc.pageTable.set(vpn, pte);
    }
    return child;
}

Addr
Vmm::breakCow(Asid asid, Addr vpn, bool *copied)
{
    Pte *pte = resolve(asid, vpn);
    ovl_assert(pte != nullptr && pte->present, "CoW break on unmapped page");
    ovl_assert(pte->cow, "CoW break on a private page");
    ++cowBreaks_;

    if (copied)
        *copied = false;
    if (pte->ppn != PhysicalMemory::kZeroFrame &&
        physMem_.refCount(pte->ppn) == 1) {
        // Last sharer: reclaim the frame in place.
        pte->cow = false;
        return pte->ppn;
    }

    Addr new_frame = physMem_.allocFrame();
    physMem_.copyFrame(new_frame, pte->ppn);
    physMem_.release(pte->ppn);
    pte->ppn = new_frame;
    pte->cow = false;
    ++cowCopies_;
    if (copied)
        *copied = true;
    return new_frame;
}

template <class Self, class Ar>
void
Vmm::io(Self &self, Ar &ar)
{
    ar.section("VMM ", [&] {
        [[maybe_unused]] std::uint64_t i = 0;
        ar.seq(self.processes_, 2, [&](auto &proc) {
            if constexpr (Ar::kLoading)
                proc = std::make_unique<Process>();
            ar.u16(proc->asid);
            if constexpr (Ar::kLoading) {
                if (proc->asid != i++)
                    ar.fail("process table ASIDs are not dense");
            }
            snapshot::visit(proc->pageTable, ar);
        });
    });
}

OVL_SNAPSHOT_IO(Vmm);

void
Vmm::protect(Asid asid, Addr vaddr, std::uint64_t len, bool writable)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "protect requires page-aligned range");
    Process &proc = process(asid);
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        if (Pte *pte = proc.pageTable.find(pageNumber(va)))
            pte->writable = writable;
    }
}

} // namespace ovl
