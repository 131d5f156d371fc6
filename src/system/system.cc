#include "system.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "sim/stats_sampler.hh"
#include "sim/trace.hh"

namespace ovl
{

OverlayAwareMemController::OverlayAwareMemController(std::string name,
                                                     DramController &dram,
                                                     OverlayManager &ovm)
    : SimObject(std::move(name)), dram_(dram), ovm_(ovm),
      regularReads_(&statGroup(), "regularReads", "regular DRAM line reads"),
      regularWritebacks_(&statGroup(), "regularWritebacks",
                         "regular DRAM line writebacks"),
      overlayReads_(&statGroup(), "overlayReads", "overlay line reads"),
      overlayWritebacks_(&statGroup(), "overlayWritebacks",
                         "overlay line writebacks"),
      droppedPrefetches_(&statGroup(), "droppedPrefetches",
                         "prefetches of unmapped overlay lines dropped")
{
}

Tick
OverlayAwareMemController::readLine(Addr line_addr, Tick when)
{
    if (overlay_addr::isOverlay(line_addr)) {
        Opn opn = line_addr >> kPageShift;
        unsigned line = lineInPage(line_addr);
        if (!ovm_.obitvector(opn).test(line)) {
            // Only the prefetcher generates reads of unmapped overlay
            // lines; the controller squashes them after the OMT check.
            ++droppedPrefetches_;
            return ovm_.omtAccess(opn, when);
        }
        ++overlayReads_;
        return ovm_.readLine(line_addr, when);
    }
    ++regularReads_;
    return dram_.read(line_addr, when);
}

Tick
OverlayAwareMemController::writebackLine(Addr line_addr, Tick when)
{
    if (overlay_addr::isOverlay(line_addr)) {
        ++overlayWritebacks_;
        return ovm_.writebackLine(line_addr, when);
    }
    ++regularWritebacks_;
    return dram_.enqueueWrite(line_addr, when);
}

System::System(SystemConfig config)
    : SimObject(config.name), config_(std::move(config)),
      physMem_(name() + ".physMem", config_.memCapacityBytes),
      vmm_(name() + ".vmm", physMem_),
      dramCtrl_(name() + ".dramCtrl", config_.dram,
                config_.writeBufferEntries),
      overlayMgr_(name() + ".overlay", config_.overlay, dramCtrl_,
                  PageAllocFn{[](void *ctx) {
                                  auto *sys = static_cast<System *>(ctx);
                                  return sys->physMem_.allocFrame()
                                         << kPageShift;
                              },
                              this}),
      memCtrl_(name() + ".memCtrl", dramCtrl_, overlayMgr_),
      caches_(name() + ".caches", config_.caches, memCtrl_),
      accesses_(&statGroup(), "accesses", "memory accesses"),
      functionalAccesses_(&statGroup(), "functionalAccesses",
                          "accesses fast-forwarded functionally (sampled"
                          " simulation)"),
      tlbWalks_(&statGroup(), "tlbWalks", "page-table walks"),
      cowFaults_(&statGroup(), "cowFaults", "copy-on-write faults"),
      cowLinesCopied_(&statGroup(), "cowLinesCopied",
                      "lines copied by CoW faults"),
      overlayingWrites_(&statGroup(), "overlayingWrites",
                        "overlaying writes (lines moved to overlays)"),
      simpleOverlayWrites_(&statGroup(), "simpleOverlayWrites",
                           "writes to lines already in an overlay"),
      overlayLineReads_(&statGroup(), "overlayLineReads",
                        "reads serviced from overlays"),
      promotions_(&statGroup(), "promotions",
                  "overlays promoted to regular pages"),
      forkPagesShared_(&statGroup(), "forkPagesShared",
                       "pages marked CoW/OoW by fork"),
      forkOverlayLinesCopied_(&statGroup(), "forkOverlayLinesCopied",
                              "overlay lines copied at fork (§4.1)")
{
    for (unsigned i = 0; i < config_.numTlbs; ++i) {
        tlbs_.push_back(std::make_unique<TwoLevelTlb>(
            name() + ".tlb" + std::to_string(i), config_.tlb));
    }
    markMemoryBaseline();
}

// --------------------------- translation ------------------------------

namespace
{

/** A page-table entry as a TLB fill installs it (the OBitVector aside). */
TlbEntryData
tlbEntryFrom(const Pte &pte)
{
    TlbEntryData data;
    data.ppn = pte.ppn;
    data.writable = pte.writable;
    data.cow = pte.cow;
    data.overlayEnabled = pte.overlayEnabled;
    data.metadataMode = pte.metadataMode;
    return data;
}

} // namespace

template <Timing T>
TlbEntryData *
System::translate(Asid asid, Addr vpn, Tick &t, AccessOutcome *outcome,
                  unsigned core)
{
    constexpr bool kTimed = T == Timing::Detailed;
    ovl_assert(core < tlbs_.size(), "no such core/TLB");
    TlbAccessResult tr = tlbs_[core]->access(asid, vpn);
    if constexpr (kTimed)
        t += tr.latency;
    if (!tr.needsWalk)
        return tr.entry;

    OVL_PROF_SCOPE_IF(kTimed, TlbWalk);
    if constexpr (kTimed) {
        ++tlbWalks_;
        if (outcome)
            outcome->tlbWalk = true;
        if (trace::active()) {
            trace::begin("tlb", "tlb_walk", t - config_.tlb.walkLatency,
                         {{"asid", asid}, {"vpn", vpn}});
        }
    }
    Pte *pte = vmm_.resolve(asid, vpn);
    if (pte == nullptr || !pte->present) {
        ovl_fatal("access to unmapped page: asid=%u vpn=%llx",
                  unsigned(asid), (unsigned long long)vpn);
    }
    TlbEntryData data = tlbEntryFrom(*pte);
    if (pte->overlayEnabled && config_.overlaysEnabled) {
        // The TLB fill also fetches the OBitVector from the OMT (§4.3).
        // Because the virtual-to-overlay mapping is direct (§4.1), the
        // OPN is known without the translation, so the OMT access runs
        // in parallel with the page-table walk; the fill completes at
        // the later of the two. A functional fill reads the OMT without
        // occupying the OMT cache.
        Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
        if constexpr (kTimed) {
            Tick walk_started = t - config_.tlb.walkLatency;
            Tick omt_done = overlayMgr_.omtAccess(opn, walk_started);
            t = std::max(t, omt_done);
        }
        data.obv = overlayMgr_.obitvector(opn);
    }
    if constexpr (kTimed) {
        if (trace::active())
            trace::end("tlb", "tlb_walk", t);
    }
    return tlbs_[core]->fill(asid, vpn, data);
}

// ------------------------- the access path ----------------------------

// Always inlined within this file, so accessBatch() runs the access
// path without a call per request; the explicit instantiations at the
// bottom still give other translation units their out-of-line copy.
template <Timing T>
[[gnu::always_inline]] inline Tick
System::access(Asid asid, Addr vaddr, bool is_write, Tick when,
               AccessOutcome *outcome, unsigned core)
{
    constexpr bool kTimed = T == Timing::Detailed;
    if constexpr (kTimed)
        ++accesses_;
    else
        ++functionalAccesses_;
    OVL_PROF_SCOPE_IF(kTimed, Access);
    OVL_PROF_SCOPE_IF(!kTimed, FunctionalFf);
    AccessOutcome local;
    if (outcome == nullptr)
        outcome = &local;
    *outcome = AccessOutcome{};

    Addr vpn = pageNumber(vaddr);
    unsigned line = lineInPage(vaddr);
    Tick t = when;
    TlbEntryData *entry = translate<T>(asid, vpn, t, outcome, core);

    if (is_write && entry->cow) {
        bool use_overlay = entry->overlayEnabled &&
                           config_.overlaysEnabled && !entry->metadataMode;
        if (use_overlay) {
            if (!entry->obv.test(line)) {
                t = serviceOverlayingWrite<T>(asid, vaddr, entry, t,
                                              outcome);
                // The entry may have been invalidated (promotion); the
                // re-lookup is an L1 TLB hit in the common case. The
                // functional write never promotes: its entry stands.
                if constexpr (kTimed)
                    entry = translate<T>(asid, vpn, t, outcome, core);
            }
        } else {
            t = serviceCowFault<T>(asid, vaddr, entry, t, outcome, core);
        }
    }

    bool overlay_line = config_.overlaysEnabled && entry->overlayEnabled &&
                        !entry->metadataMode && entry->obv.test(line);
    Addr line_addr = overlay_line ? overlayLineAddr(asid, vaddr)
                                  : physLineAddr(entry->ppn, vaddr);
    if (kTimed && overlay_line) {
        outcome->overlayLine = true;
        if (is_write)
            ++simpleOverlayWrites_;
        else
            ++overlayLineReads_;
    }
    t = caches_.access<T>(line_addr, is_write, t, &outcome->level);
    // Sampler pump: samplerNext_ is kMaxTick when no sampler is
    // attached, so the steady-state cost is this one compare.
    if (kTimed && t >= samplerNext_)
        samplerNext_ = sampler_->observe(t);
    outcome->completion = t;
    return t;
}

Tick
System::accessBatch(Asid asid, std::span<const AccessRequest> reqs,
                    Tick when, unsigned core)
{
    // access() is always inlined here: the loop body is the access path
    // itself, down to the out-of-line translate() and cache hierarchy
    // calls, with no call and no outcome record per request.
    Tick t = when;
    for (const AccessRequest &req : reqs)
        t = access(asid, req.vaddr, req.isWrite, t, nullptr, core);
    return t;
}

template <Timing T>
Tick
System::serviceCowFault(Asid asid, Addr vaddr, TlbEntryData *&entry,
                        Tick t, AccessOutcome *outcome, unsigned core)
{
    constexpr bool kTimed = T == Timing::Detailed;
    ++cowFaults_;
    OVL_PROF_SCOPE_IF(kTimed, CowFault);
    outcome->cowFault = true;
    if constexpr (kTimed) {
        if (trace::active()) {
            trace::begin("overlay", "cow_fault", t,
                         {{"asid", asid}, {"vaddr", vaddr}});
        }
        t += config_.pageFaultTrapCycles;
    }

    Addr vpn = pageNumber(vaddr);
    Pte *pte = vmm_.resolve(asid, vpn);
    Addr old_ppn = pte->ppn;
    bool copied = false;
    vmm_.breakCow(asid, vpn, &copied);

    if (copied) {
        // The OS copies the page through the CPU caches: 64 loads and 64
        // stores, issued with high memory-level parallelism (§5.1). This
        // is what pollutes the L1 and doubles the write bandwidth.
        Tick copy_done = t;
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            Addr src = (old_ppn << kPageShift) | (Addr(l) << kLineShift);
            Addr dst = (pte->ppn << kPageShift) | (Addr(l) << kLineShift);
            Tick rd = caches_.access<T>(src, false, t);
            Tick wr = caches_.access<T>(dst, true, rd);
            copy_done = std::max(copy_done, wr);
            if constexpr (kTimed)
                ++cowLinesCopied_;
        }
        t = copy_done;
    }

    // Remap: update the PTE and shoot down stale TLB entries [6, 52].
    if constexpr (kTimed)
        t += config_.tlbShootdownCycles();
    forEachTlb([&](auto &tlb) { tlb.invalidate(asid, vpn, t); });
    entry = tlbs_[core]->fill(asid, vpn, tlbEntryFrom(*pte));
    if constexpr (kTimed) {
        if (trace::active())
            trace::end("overlay", "cow_fault", t);
    }
    return t;
}

void
System::overlayLineFunctional(Opn opn, unsigned line, Addr phys_line_addr)
{
    // Functional half of the overlaying write: the line's current
    // contents move from the regular physical page into the overlay.
    LineData data;
    physMem_.readLine(phys_line_addr, data);
    overlayMgr_.writeLineData(opn, line, data);
}

template <Timing T>
Tick
System::broadcastOre(Asid asid, Addr vpn, Opn opn, unsigned line, Tick t)
{
    OVL_PROF_SCOPE_IF(T == Timing::Detailed, OreBroadcast);
    // The overlaying-read-exclusive message travels the coherence
    // network: every TLB holding the mapping flips one OBitVector bit,
    // and the memory controller updates the OMT (§4.3.3). No shootdown.
    forEachTlb([&](auto &tlb) { tlb.updateObvBit(asid, vpn, line, true); });
    if constexpr (T == Timing::Functional)
        return t;
    // The write only waits for the TLB updates; the OMT update is
    // posted — it is ordered at the controller and merely occupies the
    // OMT cache and DRAM in the background ("negligible logic on the
    // critical path", §1). Messages serialize at the coherence ordering
    // point, so dense bursts of overlaying writes queue up — this is
    // why clustered write patterns (cactus) favour copy-on-write (§5.1).
    Tick start = std::max(t, oreBusyUntil_);
    Tick ore_done = start + config_.oreMessageCycles;
    oreBusyUntil_ = ore_done;
    overlayMgr_.overlayingReadExclusive(opn, line, ore_done);
    if (trace::active()) {
        // Span covers queueing at the ordering point plus transit, so
        // ORE bursts show up as stacked, lengthening spans.
        trace::complete("overlay", "ore_broadcast", t, ore_done - t,
                        {{"asid", asid}, {"vpn", vpn}, {"line", line}});
    }
    return ore_done;
}

template <Timing T>
Tick
System::serviceOverlayingWrite(Asid asid, Addr vaddr, TlbEntryData *entry,
                               Tick t, AccessOutcome *outcome)
{
    constexpr bool kTimed = T == Timing::Detailed;
    ++overlayingWrites_;
    OVL_PROF_SCOPE_IF(kTimed, OverlayingWrite);
    outcome->overlayingWrite = true;
    if constexpr (kTimed) {
        if (trace::active()) {
            trace::begin("overlay", "overlaying_write", t,
                         {{"asid", asid}, {"vaddr", vaddr}});
        }
    } else {
        ovl_assert(config_.promoteThresholdLines >= kLinesPerPage,
                   "functional fast-forward requires promotion disabled");
    }

    // Derive the page's identities once; every step below (functional
    // move, retag, ORE broadcast, OMT update) shares them instead of
    // re-running resolve()/pageFromVirtual() per step.
    Addr vpn = pageNumber(vaddr);
    unsigned line = lineInPage(vaddr);
    Pte *pte = vmm_.resolve(asid, vpn);
    Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
    Addr pline = physLineAddr(pte->ppn, vaddr);
    Addr oline = (opn << kPageShift) | (Addr(line) << kLineShift);

    overlayLineFunctional(opn, line, pline);

    // Step 1 (§4.3.3): move the line's data into the overlay address —
    // in hardware, a cache tag update when the line is resident, or a
    // fetch followed by the tag update otherwise. Functional warming
    // drops the regular-space tag instead; access() then installs the
    // overlay-space one.
    if constexpr (kTimed) {
        if (!caches_.retagLine(pline, oline, t)) {
            t = caches_.access(pline, false, t);
            caches_.retagLine(pline, oline, t);
        }
    } else {
        caches_.invalidateLine<T>(pline, t);
    }

    // Step 2: keep TLBs and the OMT coherent with one message.
    t = broadcastOre<T>(asid, vpn, opn, line, t);

    if constexpr (kTimed) {
        // OS promotion policy (§4.3.4): convert densely-overlaid pages
        // back to regular pages.
        if (config_.promoteThresholdLines < kLinesPerPage &&
            entry->obv.count() >= config_.promoteThresholdLines) {
            t = promoteOverlay(asid, vaddr, PromoteAction::CopyAndCommit, t);
        }
        if (trace::active())
            trace::end("overlay", "overlaying_write", t);
    }
    // Step 3 (the write itself) happens in access() after re-translation.
    return t;
}

// ----------------------- data-carrying wrappers ------------------------

Tick
System::write(Asid asid, Addr vaddr, const void *data, std::size_t len,
              Tick when)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    Tick t = when;
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        t = access(asid, va, true, t);
        poke(asid, va, src + off, chunk);
    });
    return t;
}

Tick
System::read(Asid asid, Addr vaddr, void *out, std::size_t len, Tick when)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    Tick t = when;
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        t = access(asid, va, false, t);
        peek(asid, va, dst + off, chunk);
    });
    return t;
}

void
System::poke(Asid asid, Addr vaddr, const void *data, std::size_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        Addr vpn = pageNumber(va);
        unsigned line = lineInPage(va);
        Pte *pte = vmm_.resolve(asid, vpn);
        ovl_assert(pte != nullptr && pte->present, "poke to unmapped page");

        bool use_overlay = config_.overlaysEnabled && pte->overlayEnabled &&
                           !pte->metadataMode;
        Opn opn = overlay_addr::pageFromVirtual(asid, vpn);

        if (pte->cow && use_overlay &&
            !overlayMgr_.obitvector(opn).test(line)) {
            // Functional overlaying write (no timing charge).
            overlayLineFunctional(opn, line, physLineAddr(pte->ppn, va));
            forEachTlb([&](auto &tlb) {
                tlb.updateObvBit(asid, vpn, line, true);
            });
        } else if (pte->cow && !use_overlay) {
            vmm_.breakCow(asid, vpn);
            forEachTlb([&](auto &tlb) { tlb.invalidate(asid, vpn); });
        }

        if (use_overlay && overlayMgr_.obitvector(opn).test(line)) {
            LineData line_data;
            overlayMgr_.readLineData(opn, line, line_data);
            std::memcpy(line_data.data() + (va & kLineMask), src + off,
                        chunk);
            overlayMgr_.writeLineData(opn, line, line_data);
        } else {
            physMem_.writeBytes((pte->ppn << kPageShift) | pageOffset(va),
                                src + off, chunk);
        }
    });
}

void
System::peek(Asid asid, Addr vaddr, void *out, std::size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        Addr vpn = pageNumber(va);
        unsigned line = lineInPage(va);
        const Pte *pte = vmm_.process(asid).pageTable.find(vpn);
        ovl_assert(pte != nullptr && pte->present, "peek of unmapped page");

        Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
        if (config_.overlaysEnabled && pte->overlayEnabled &&
            !pte->metadataMode && overlayMgr_.obitvector(opn).test(line)) {
            // Access semantics of Figure 2: overlay lines come from the
            // overlay, all others from the physical page.
            LineData line_data;
            overlayMgr_.readLineData(opn, line, line_data);
            std::memcpy(dst + off, line_data.data() + (va & kLineMask),
                        chunk);
        } else {
            physMem_.readBytes((pte->ppn << kPageShift) | pageOffset(va),
                               dst + off, chunk);
        }
    });
}

// ----------------------- metadata instructions -------------------------

Tick
System::metadataAccess(Asid asid, Addr vaddr, bool is_write, Tick when)
{
    Addr vpn = pageNumber(vaddr);
    Tick t = when;
    TlbEntryData *entry =
        translate<Timing::Detailed>(asid, vpn, t, nullptr);
    ovl_assert(entry->metadataMode && entry->overlayEnabled,
               "metadata access to a page not in metadata mode");
    Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
    if (is_write) {
        // First store to a shadow line maps it (same ORE protocol).
        unsigned line = lineInPage(vaddr);
        if (!entry->obv.test(line))
            t = broadcastOre<Timing::Detailed>(asid, vpn, opn, line, t);
    }
    Addr oline = (opn << kPageShift) | (pageOffset(vaddr) & ~kLineMask);
    return caches_.access(oline, is_write, t);
}

void
System::metadataPoke(Asid asid, Addr vaddr, const void *data,
                     std::size_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        Addr vpn = pageNumber(va);
        unsigned line = lineInPage(va);
        Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
        LineData line_data{};
        if (overlayMgr_.hasLineData(opn, line))
            overlayMgr_.readLineData(opn, line, line_data);
        std::memcpy(line_data.data() + (va & kLineMask), src + off, chunk);
        overlayMgr_.writeLineData(opn, line, line_data);
        forEachTlb([&](auto &tlb) {
            tlb.updateObvBit(asid, vpn, line, true);
        });
    });
}

void
System::metadataPeek(Asid asid, Addr vaddr, void *out,
                     std::size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        Opn opn = overlay_addr::pageFromVirtual(asid, pageNumber(va));
        unsigned line = lineInPage(va);
        if (overlayMgr_.hasLineData(opn, line)) {
            LineData line_data;
            overlayMgr_.readLineData(opn, line, line_data);
            std::memcpy(dst + off, line_data.data() + (va & kLineMask),
                        chunk);
        } else {
            std::memset(dst + off, 0, chunk); // unmapped shadow lines are zero
        }
    });
}

// ------------------------------ fork -----------------------------------

template <Timing T>
Asid
System::fork(Asid parent, ForkMode mode, Tick when, Tick *done)
{
    constexpr bool kTimed = T == Timing::Detailed;
    OVL_PROF_SCOPE_IF(kTimed, Fork);
    OVL_PROF_SCOPE_IF(!kTimed, FunctionalFf);
    Asid child = vmm_.fork(parent, mode);
    Process &parent_proc = vmm_.process(parent);
    std::uint64_t pages = parent_proc.pageTable.size();
    forkPagesShared_ += pages;
    Tick t = when;
    if constexpr (kTimed) {
        if (trace::active()) {
            trace::begin("system", "fork", when,
                         {{"parent", parent},
                          {"child", child},
                          {"mode", std::uint64_t(mode)}});
        }
        t += config_.pageFaultTrapCycles; // syscall + bookkeeping

        // Charge the page-table copy (8 B PTEs, 8 per line) through DRAM.
        std::uint64_t pte_lines = (pages * 8 + kLineSize - 1) / kLineSize;
        for (std::uint64_t i = 0; i < pte_lines; ++i) {
            // Sequential table reads followed by buffered writes.
            Addr addr = (i * kLineSize) % config_.memCapacityBytes;
            t = dramCtrl_.read(addr, t);
            dramCtrl_.enqueueWrite(addr, t);
        }
    }

    // §4.1: overlays are not shared across virtual pages, so fork must
    // copy the parent's overlay lines into the child's overlays (the
    // functional fork skips the copy's cache traffic). The copy walks
    // pages in ascending-VPN order: the order is part of the
    // deterministic timing contract (it decides the cache/DRAM access
    // sequence). PageTable iteration is ascending by construction, and
    // nothing in the loop mutates the parent's table.
    if (config_.overlaysEnabled) {
        for (auto &&[vpn, pte] : parent_proc.pageTable) {
            (void)pte;
            Opn parent_opn = overlay_addr::pageFromVirtual(parent, vpn);
            BitVector64 obv = overlayMgr_.obitvector(parent_opn);
            if (obv.none())
                continue;
            Opn child_opn = overlay_addr::pageFromVirtual(child, vpn);
            for (unsigned l = obv.findFirst(); l < kLinesPerPage;
                 l = obv.findNext(l)) {
                LineData data;
                overlayMgr_.readLineData(parent_opn, l, data);
                overlayMgr_.writeLineData(child_opn, l, data);
                ++forkOverlayLinesCopied_;
                if constexpr (kTimed) {
                    Addr offset = Addr(l) << kLineShift;
                    t = caches_.access((parent_opn << kPageShift) | offset,
                                       false, t);
                    caches_.access((child_opn << kPageShift) | offset, true,
                                   t);
                }
            }
        }
    }

    // The parent's cached translations are stale (cow now set): dropping
    // them is architectural state; the shootdown's cost is timing.
    if constexpr (kTimed)
        t += config_.tlbShootdownCycles();
    forEachTlb([&](auto &tlb) { tlb.invalidateAsid(parent, t); });

    if constexpr (kTimed) {
        if (trace::active())
            trace::end("system", "fork", t);
    }
    if (done)
        *done = t;
    return child;
}

template <Timing T>
void
System::unmapPage(Asid asid, Addr vpn, Tick when)
{
    Pte *pte = vmm_.resolve(asid, vpn);
    if (pte == nullptr)
        return;
    Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
    BitVector64 obv = overlayMgr_.obitvector(opn);
    // Discard the overlay first so writebacks of its cached lines are
    // squashed, then drop those lines from the caches.
    overlayMgr_.discardOverlay(opn);
    for (unsigned l = obv.findFirst(); l < kLinesPerPage;
         l = obv.findNext(l)) {
        caches_.invalidateLine<T>(
            (opn << kPageShift) | (Addr(l) << kLineShift), when);
    }
    forEachTlb([&](auto &tlb) { tlb.invalidate(asid, vpn); });
    // If this unmap frees the frame, its cached lines must not alias the
    // frame's next user.
    if (pte->ppn != PhysicalMemory::kZeroFrame &&
        physMem_.refCount(pte->ppn) == 1) {
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            caches_.invalidateLine<T>(
                (pte->ppn << kPageShift) | (Addr(l) << kLineShift), when);
        }
    }
    vmm_.unmap(asid, vpn << kPageShift, kPageSize);
}

void
System::unmap(Asid asid, Addr vaddr, std::uint64_t len, Tick when)
{
    OVL_PROF_SCOPE(Teardown);
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "unmap requires a page-aligned range");
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize)
        unmapPage<Timing::Detailed>(asid, pageNumber(va), when);
}

template <Timing T>
void
System::destroyProcess(Asid asid, Tick when)
{
    OVL_PROF_SCOPE_IF(T == Timing::Detailed, Teardown);
    OVL_PROF_SCOPE_IF(T == Timing::Functional, FunctionalFf);
    // Collect first: unmapping mutates the page table while iterating.
    // Teardown order is timing-visible (cache invalidations, frame
    // recycling); PageTable iteration is already ascending-VPN, so the
    // collected order needs no separate sort.
    std::vector<Addr> vpns;
    vpns.reserve(vmm_.process(asid).pageTable.size());
    for (auto &&[vpn, pte] : vmm_.process(asid).pageTable) {
        (void)pte;
        vpns.push_back(vpn);
    }
    for (Addr vpn : vpns)
        unmapPage<T>(asid, vpn, when);
    forEachTlb([&](auto &tlb) { tlb.invalidateAsid(asid); });
}

template Tick System::access<Timing::Functional>(Asid, Addr, bool, Tick,
                                                 AccessOutcome *, unsigned);
template Tick System::access<Timing::Detailed>(Asid, Addr, bool, Tick,
                                               AccessOutcome *, unsigned);
template Asid System::fork<Timing::Functional>(Asid, ForkMode, Tick, Tick *);
template Asid System::fork<Timing::Detailed>(Asid, ForkMode, Tick, Tick *);
template void System::destroyProcess<Timing::Functional>(Asid, Tick);
template void System::destroyProcess<Timing::Detailed>(Asid, Tick);

// --------------------------- promotion ---------------------------------

Tick
System::promoteOverlay(Asid asid, Addr vaddr, PromoteAction action,
                       Tick when)
{
    ++promotions_;
    OVL_PROF_SCOPE(Promote);
    if (trace::active()) {
        trace::begin("overlay", "promote", when,
                     {{"asid", asid},
                      {"page", pageBase(vaddr)},
                      {"action", std::uint64_t(action)}});
    }
    Addr vpn = pageNumber(vaddr);
    Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
    Pte *pte = vmm_.resolve(asid, vpn);
    ovl_assert(pte != nullptr && pte->present, "promotion of unmapped page");
    BitVector64 obv = overlayMgr_.obitvector(opn);

    Tick t = when + config_.pageFaultTrapCycles; // OS-mediated action

    switch (action) {
      case PromoteAction::CopyAndCommit: {
        // Merge the regular page and the overlay into a fresh frame.
        Addr new_frame = physMem_.allocFrame();
        Tick copy_done = t;
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            LineData data;
            Addr src;
            if (obv.test(l)) {
                overlayMgr_.readLineData(opn, l, data);
                src = (opn << kPageShift) | (Addr(l) << kLineShift);
            } else {
                src = (pte->ppn << kPageShift) | (Addr(l) << kLineShift);
                physMem_.readLine(src, data);
            }
            Addr dst = (new_frame << kPageShift) | (Addr(l) << kLineShift);
            physMem_.writeLine(dst, data);
            Tick rd = caches_.access(src, false, t);
            Tick wr = caches_.access(dst, true, rd);
            copy_done = std::max(copy_done, wr);
        }
        t = copy_done;
        physMem_.release(pte->ppn);
        pte->ppn = new_frame;
        pte->cow = false;
        break;
      }
      case PromoteAction::Commit: {
        // Fold the overlay's lines into the existing physical page
        // (speculation commit / checkpoint collection, §4.3.4).
        ovl_assert(pte->ppn != PhysicalMemory::kZeroFrame,
                   "commit into the shared zero frame");
        ovl_assert(physMem_.refCount(pte->ppn) == 1,
                   "commit into a shared frame");
        Tick copy_done = t;
        for (unsigned l = obv.findFirst(); l < kLinesPerPage;
             l = obv.findNext(l)) {
            LineData data;
            overlayMgr_.readLineData(opn, l, data);
            Addr dst = (pte->ppn << kPageShift) | (Addr(l) << kLineShift);
            physMem_.writeLine(dst, data);
            Addr src = (opn << kPageShift) | (Addr(l) << kLineShift);
            Tick rd = caches_.access(src, false, t);
            Tick wr = caches_.access(dst, true, rd);
            copy_done = std::max(copy_done, wr);
        }
        t = copy_done;
        pte->cow = false;
        break;
      }
      case PromoteAction::Discard:
        // Failed speculation: the overlay simply vanishes; the page
        // stays armed (cow + overlay-enabled) for the next use.
        break;
    }

    // Tear down overlay state: free the OMT entry and segment, drop the
    // overlay's lines from the caches (writebacks of discarded lines are
    // squashed at the controller), and clear the page's OBitVector from
    // every TLB.
    overlayMgr_.discardOverlay(opn);
    for (unsigned l = obv.findFirst(); l < kLinesPerPage;
         l = obv.findNext(l)) {
        caches_.invalidateLine((opn << kPageShift) | (Addr(l) << kLineShift),
                               t);
    }
    t += config_.tlbShootdownCycles();
    forEachTlb([&](auto &tlb) { tlb.invalidate(asid, vpn, t); });
    if (trace::active())
        trace::end("overlay", "promote", t);
    return t;
}

// ------------------------------ misc ------------------------------------

BitVector64
System::pageObv(Asid asid, Addr vaddr) const
{
    if (!config_.overlaysEnabled)
        return BitVector64();
    Opn opn = overlay_addr::pageFromVirtual(asid, pageNumber(vaddr));
    return overlayMgr_.obitvector(opn);
}

bool
System::lineInOverlay(Asid asid, Addr vaddr) const
{
    return pageObv(asid, vaddr).test(lineInPage(vaddr));
}

bool
System::reclaimZeroLine(Asid asid, Addr vaddr, Tick when)
{
    Addr vpn = pageNumber(vaddr);
    unsigned line = lineInPage(vaddr);
    Pte *pte = vmm_.resolve(asid, vpn);
    if (pte == nullptr || pte->ppn != PhysicalMemory::kZeroFrame ||
        !pte->overlayEnabled || !config_.overlaysEnabled) {
        return false;
    }
    Opn opn = overlay_addr::pageFromVirtual(asid, vpn);
    if (!overlayMgr_.obitvector(opn).test(line) ||
        !overlayMgr_.hasLineData(opn, line)) {
        return false;
    }
    LineData data;
    overlayMgr_.readLineData(opn, line, data);
    for (std::uint8_t b : data) {
        if (b != 0)
            return false;
    }

    // Drop the line: invalidate the cached copy (its writeback, if any,
    // will be squashed), clear the bit in every TLB and the OMT, and
    // free the slot. If the overlay is now empty, release the segment.
    Addr oline = overlayLineAddr(asid, vaddr);
    caches_.invalidateLine(oline, when);
    overlayMgr_.clearLine(opn, line);
    forEachTlb([&](auto &tlb) { tlb.updateObvBit(asid, vpn, line, false); });
    overlayMgr_.omtCache().markModified(opn);
    if (overlayMgr_.obitvector(opn).none())
        overlayMgr_.discardOverlay(opn);
    return true;
}

void
System::prefetchOverlayPage(Asid asid, Addr vaddr, Tick when)
{
    BitVector64 obv = pageObv(asid, vaddr);
    Opn opn = overlay_addr::pageFromVirtual(asid, pageNumber(vaddr));
    for (unsigned l = obv.findFirst(); l < kLinesPerPage;
         l = obv.findNext(l)) {
        caches_.prefetchLine((opn << kPageShift) | (Addr(l) << kLineShift),
                             when);
    }
}

std::uint64_t
System::memoryInUseBytes() const
{
    return physMem_.bytesInUse() - overlayMgr_.allocator().freeBytes();
}

std::uint64_t
System::additionalMemoryBytes() const
{
    return memoryInUseBytes() - memoryBaselineBytes_;
}

void
System::markMemoryBaseline()
{
    memoryBaselineBytes_ = memoryInUseBytes();
}

void
System::quiesce()
{
    dramCtrl_.resetTiming();
    caches_.resetTiming();
    oreBusyUntil_ = 0;
}

void
System::dumpAllStats(std::ostream &os)
{
    forEachStatsGroup([&](const stats::Group *group) { group->dump(os); });
}

void
System::dumpAllStatsJson(std::ostream &os)
{
    os << "{";
    bool first = true;
    forEachStatsGroup([&](const stats::Group *group) {
        if (!first)
            os << ",\n ";
        first = false;
        os << "\"" << group->name() << "\": ";
        group->dumpJson(os);
    });
    os << "}\n";
}

void
System::resetStats()
{
    forEachStatsGroup([](stats::Group *group) { group->resetStats(); });
    // A mid-run reset must not produce negative per-interval deltas.
    if (sampler_ != nullptr)
        sampler_->rebase();
}

template <class Self, class Fn>
void
System::visitStatsGroups(Self &self, const Fn &fn)
{
    for (auto *group : {
             &self.statGroup(),
             &self.physMem_.statGroup(),
             &self.vmm_.statGroup(),
             &self.dramCtrl_.statGroup(),
             &self.dramCtrl_.dram().statGroup(),
             &self.overlayMgr_.statGroup(),
             &self.overlayMgr_.omt().statGroup(),
             &self.overlayMgr_.omtCache().statGroup(),
             &self.overlayMgr_.allocator().statGroup(),
             &self.memCtrl_.statGroup(),
             &self.caches_.statGroup(),
             &self.caches_.l1().statGroup(),
             &self.caches_.l2().statGroup(),
             &self.caches_.l3().statGroup(),
             &self.caches_.prefetcher().statGroup(),
         })
        fn(group);
    for (const auto &tlb : self.tlbs_) {
        fn(&tlb->l1().statGroup());
        fn(&tlb->l2().statGroup());
    }
}

void
System::forEachStatsGroup(const std::function<void(stats::Group *)> &fn)
{
    visitStatsGroups(*this, fn);
}

void
System::forEachStatsGroup(
    const std::function<void(const stats::Group *)> &fn) const
{
    visitStatsGroups(*this, fn);
}

template <class Self, class Ar>
void
System::io(Self &self, Ar &ar)
{
    OVL_PROF_SCOPE(SnapshotIo);
    ar.section("SYS ", [&] {
        ar.expectEq(std::uint32_t(self.tlbs_.size()), "TLB count");
        snapshot::visit(self.physMem_, ar);
        snapshot::visit(self.vmm_, ar);
        snapshot::visit(self.dramCtrl_, ar);
        snapshot::visit(self.overlayMgr_, ar);
        snapshot::visit(self.caches_, ar);
        for (const auto &tlb : self.tlbs_)
            snapshot::visit(*tlb, ar);
        ar.u64(self.memoryBaselineBytes_);
        ar.u64(self.oreBusyUntil_);
        ar.section("STAT", [&] {
            std::uint32_t num_groups = 0;
            visitStatsGroups(self, [&](auto *) { ++num_groups; });
            ar.expectEq(num_groups, "stats group count");
            visitStatsGroups(self,
                             [&](auto *group) { snapshot::visit(*group, ar); });
        });
    });
}

OVL_SNAPSHOT_IO(System);

std::unique_ptr<System>
System::clone(const SystemConfig &config) const
{
    snapshot::Writer w;
    serialize(w);
    auto copy = std::make_unique<System>(config);
    snapshot::Reader r(w.buffer());
    copy->deserialize(r);
    return copy;
}

void
System::attachStatsSampler(StatsSampler *sampler, Tick now)
{
    if (sampler == nullptr)
        return;
    ovl_assert(sampler_ == nullptr, "a sampler is already attached");
    sampler_ = sampler;
    forEachStatsGroup([&](const stats::Group *group) {
        sampler->addGroup(group->name(), group);
    });
    sampler->begin(now);
    samplerNext_ = sampler->nextDue();
}

void
System::detachStatsSampler(Tick end)
{
    if (sampler_ != nullptr)
        sampler_->finish(end);
    sampler_ = nullptr;
    samplerNext_ = kMaxTick;
}

} // namespace ovl
