#include "overlay_manager.hh"

#include <algorithm>

#include "common/debug.hh"
#include "common/logging.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"

namespace ovl
{

OverlayManager::OverlayManager(std::string name, OverlayManagerParams params,
                               DramController &dram_ctrl,
                               PageAllocFn os_alloc_page)
    : SimObject(std::move(name)), params_(params), dramCtrl_(dram_ctrl),
      omt_(this->name() + ".omt", os_alloc_page),
      omtCache_(this->name() + ".omtCache", params.omtCache),
      allocator_(this->name() + ".oms", params.allocator, os_alloc_page),
      overlayReads_(&statGroup(), "overlayReads",
                    "overlay lines read from the OMS"),
      overlayWritebacks_(&statGroup(), "overlayWritebacks",
                         "dirty overlay lines written to the OMS"),
      slotAllocations_(&statGroup(), "slotAllocations",
                       "OMS slots lazily allocated"),
      migrations_(&statGroup(), "migrations",
                  "segments migrated to a larger class"),
      omtWalks_(&statGroup(), "omtWalks", "OMT table walks"),
      oreMessages_(&statGroup(), "oreMessages",
                   "overlaying-read-exclusive messages processed"),
      omsBytesGauge_(&statGroup(), "omsBytes",
                     "OMS bytes currently allocated")
{
}

// --------------------------- functional side ---------------------------

OverlayManager::OverlayPageData *
OverlayManager::findPageData(Opn opn) const
{
    const OmtEntry *entry = omt_.find(opn);
    if (entry == nullptr || entry->pageDataIdx == OmtEntry::kNoPageData)
        return nullptr;
    return pageStore_[entry->pageDataIdx].get();
}

OverlayManager::OverlayPageData &
OverlayManager::ensurePageData(OmtEntry &entry)
{
    if (entry.pageDataIdx != OmtEntry::kNoPageData)
        return *pageStore_[entry.pageDataIdx];
    std::uint32_t idx;
    if (!freePages_.empty()) {
        idx = freePages_.back();
        freePages_.pop_back();
        pageStore_[idx]->present = BitVector64();
    } else {
        idx = std::uint32_t(pageStore_.size());
        pageStore_.push_back(std::make_unique<OverlayPageData>());
    }
    entry.pageDataIdx = idx;
    return *pageStore_[idx];
}

bool
OverlayManager::hasOverlay(Opn opn) const
{
    const OmtEntry *entry = omt_.find(opn);
    return entry != nullptr && entry->obv.any();
}

BitVector64
OverlayManager::obitvector(Opn opn) const
{
    const OmtEntry *entry = omt_.find(opn);
    return entry ? entry->obv : BitVector64();
}

void
OverlayManager::writeLineData(Opn opn, unsigned line_in_page,
                              const LineData &data)
{
    ovl_assert(line_in_page < kLinesPerPage, "line index out of page");
    OmtEntry &entry = omt_.findOrCreate(opn);
    entry.obv.set(line_in_page);
    OverlayPageData &page = ensurePageData(entry);
    page.present.set(line_in_page);
    page.lines[line_in_page] = data;
}

void
OverlayManager::readLineData(Opn opn, unsigned line_in_page,
                             LineData &out) const
{
    const OverlayPageData *page = findPageData(opn);
    ovl_assert(page != nullptr, "reading a line of a missing overlay");
    ovl_assert(page->present.test(line_in_page),
               "reading an unmapped overlay line");
    out = page->lines[line_in_page];
}

bool
OverlayManager::hasLineData(Opn opn, unsigned line_in_page) const
{
    const OverlayPageData *page = findPageData(opn);
    return page != nullptr && page->present.test(line_in_page);
}

void
OverlayManager::clearLine(Opn opn, unsigned line_in_page)
{
    OmtEntry *entry = omt_.find(opn);
    if (entry == nullptr)
        return;
    entry->obv.clear(line_in_page);
    if (entry->hasSegment && entry->seg.cls != SegClass::Seg4KB) {
        std::uint8_t slot = entry->seg.meta.slotOf[line_in_page];
        if (slot != kInvalidSlot) {
            entry->seg.meta.freeSlot(slot);
            entry->seg.meta.slotOf[line_in_page] = kInvalidSlot;
        }
    }
    if (entry->pageDataIdx != OmtEntry::kNoPageData)
        pageStore_[entry->pageDataIdx]->present.clear(line_in_page);
}

void
OverlayManager::discardOverlay(Opn opn)
{
    OmtEntry *entry = omt_.find(opn);
    if (entry == nullptr)
        return;
    releaseSegment(*entry);
    if (entry->pageDataIdx != OmtEntry::kNoPageData)
        freePages_.push_back(entry->pageDataIdx);
    omt_.erase(opn);
    omtCache_.invalidate(opn);
}

// ----------------------------- timing side -----------------------------

Tick
OverlayManager::omtAccess(Opn opn, Tick when)
{
    return finishOmtAccess(opn, omtCache_.lookupAllocate(opn), when);
}

Tick
OverlayManager::finishOmtAccess(Opn opn, const OmtCache::LookupResult &res,
                                Tick when)
{
    Tick t = when + omtCache_.params().hitLatency;
    if (res.hit)
        return t;
    OVL_PROF_SCOPE(OmtWalk);

    // Miss: write back a displaced modified entry, then walk the table.
    // The walk (radix descent + segment-metadata read, §4.4.4) is
    // charged as the flat Table 2 miss latency, mirroring the flat
    // TLB-walk cost; one representative node read is issued to DRAM so
    // the walk still consumes memory bandwidth.
    if (res.needsWriteback) {
        const OmtEntry *victim = omt_.find(res.writebackOpn);
        if (victim != nullptr && victim->hasSegment)
            dramCtrl_.enqueueWrite(victim->seg.metaLineAddr(), t);
    }
    ++omtWalks_;
    Addr deepest = omt_.walkLastAddr(opn);
    if (deepest != kInvalidAddr)
        dramCtrl_.read(deepest, t);
    Tick done = t + params_.omtCache.missLatency;
    if (trace::active()) {
        trace::complete("overlay", "omt_walk", when, done - when,
                        {{"opn", opn}});
    }
    return done;
}

Tick
OverlayManager::readLine(Addr overlay_line_addr, Tick when)
{
    ovl_assert(overlay_addr::isOverlay(overlay_line_addr),
               "not an overlay address");
    Opn opn = overlay_line_addr >> kPageShift;
    unsigned line = lineInPage(overlay_line_addr);

    ++overlayReads_;
    Tick t = omtAccess(opn, when);

    OmtEntry *entry = omt_.find(opn);
    ovl_assert(entry != nullptr && entry->obv.test(line),
               "controller read of an unmapped overlay line");

    // A line can reach the controller before it was ever evicted (e.g.,
    // after an explicit invalidate): allocate its slot on demand.
    Addr slot_addr = ensureSlot(*entry, opn, line, t);
    return dramCtrl_.read(slot_addr, t);
}

Tick
OverlayManager::writebackLine(Addr overlay_line_addr, Tick when)
{
    ovl_assert(overlay_addr::isOverlay(overlay_line_addr),
               "not an overlay address");
    Opn opn = overlay_line_addr >> kPageShift;
    unsigned line = lineInPage(overlay_line_addr);

    ++overlayWritebacks_;
    Tick t = omtAccess(opn, when);

    OmtEntry *entry = omt_.find(opn);
    if (entry == nullptr || !entry->obv.test(line)) {
        // The overlay was discarded while its line was still cached; the
        // writeback is dropped (the data is dead).
        return t;
    }
    Addr slot_addr = ensureSlot(*entry, opn, line, t);
    return dramCtrl_.enqueueWrite(slot_addr, t);
}

Tick
OverlayManager::overlayingReadExclusive(Opn opn, unsigned line_in_page,
                                        Tick when)
{
    ++oreMessages_;
    // The ORE always modifies the entry it resolves, so the OMT-cache
    // lookup and the modified-mark are fused into one tag scan.
    Tick t = finishOmtAccess(opn, omtCache_.lookupAllocateModify(opn), when);
    OmtEntry &entry = omt_.findOrCreate(opn);
    entry.obv.set(line_in_page);
    return t;
}

// ----------------------------- internals -------------------------------

void
OverlayManager::allocateSegment(OmtEntry &entry, SegClass cls)
{
    ovl_trace(overlay, "segment alloc: %lluB",
              (unsigned long long)segClassBytes(cls));
    entry.seg.baseAddr = allocator_.allocate(cls);
    entry.seg.cls = cls;
    entry.seg.meta = SegmentMeta();
    entry.seg.meta.initFree(cls);
    entry.hasSegment = true;
    omsBytesInUse_ += segClassBytes(cls);
    omsBytesGauge_.set(std::int64_t(omsBytesInUse_));
}

void
OverlayManager::releaseSegment(OmtEntry &entry)
{
    if (!entry.hasSegment)
        return;
    allocator_.release(entry.seg.baseAddr, entry.seg.cls);
    omsBytesInUse_ -= segClassBytes(entry.seg.cls);
    omsBytesGauge_.set(std::int64_t(omsBytesInUse_));
    entry.hasSegment = false;
    entry.seg = OmsSegment();
}

void
OverlayManager::migrateSegment(OmtEntry &entry, Opn opn, Tick &when)
{
    ovl_assert(entry.hasSegment, "migrating a segment-less overlay");
    ovl_assert(entry.seg.cls != SegClass::Seg4KB, "4 KB segments never grow");
    ++migrations_;
    OVL_PROF_SCOPE(OmsAlloc);

    ovl_trace(overlay, "migrate: opn=%llx from %lluB (obv=%u lines)",
              (unsigned long long)opn,
              (unsigned long long)segClassBytes(entry.seg.cls),
              entry.obv.count());
    if (trace::active()) {
        trace::instant("overlay", "oms_migrate", when,
                       {{"opn", opn},
                        {"from_bytes", segClassBytes(entry.seg.cls)}});
    }
    OmsSegment old_seg = entry.seg;
    omsBytesInUse_ -= segClassBytes(old_seg.cls);
    // The OBitVector already says how many lines this overlay will hold:
    // jump straight to a segment that fits them all, instead of walking
    // the class ladder one migration (and one full copy) at a time.
    SegClass target = segClassFor(
        std::max(entry.obv.count(), old_seg.usedSlots() + 1));
    if (unsigned(target) <= unsigned(old_seg.cls))
        target = segClassNext(old_seg.cls);
    allocateSegment(entry, target);

    // Copy the resident lines into the new segment (reads + buffered
    // writes through the controller; rare and off the critical path,
    // §4.4: triggered only by dirty-overlay-line writebacks).
    for (unsigned line = 0; line < kLinesPerPage; ++line) {
        if (old_seg.meta.slotOf[line] == kInvalidSlot)
            continue;
        Addr src = old_seg.lineAddr(line);
        when = dramCtrl_.read(src, when);
        if (entry.seg.cls != SegClass::Seg4KB) {
            std::uint8_t slot = entry.seg.meta.allocSlot();
            ovl_assert(slot != kInvalidSlot, "migrated segment too small");
            entry.seg.meta.slotOf[line] = slot;
        }
        dramCtrl_.enqueueWrite(entry.seg.lineAddr(line), when);
    }
    // Update the new segment's metadata line and free the old segment.
    if (entry.seg.cls != SegClass::Seg4KB)
        dramCtrl_.enqueueWrite(entry.seg.metaLineAddr(), when);
    allocator_.release(old_seg.baseAddr, old_seg.cls);
    omtCache_.markModified(opn);
}

Addr
OverlayManager::ensureSlot(OmtEntry &entry, Opn opn, unsigned line_in_page,
                           Tick &when)
{
    OVL_PROF_SCOPE(OmsAlloc);
    if (!entry.hasSegment) {
        // Size the first segment for the lines the OBitVector already
        // maps (the smallest class that fits, §4.4.2) — or a full page
        // when compact segments are disabled (§4.4's simple variant).
        SegClass cls = params_.fullPageSegments
                           ? SegClass::Seg4KB
                           : segClassFor(std::max(1u, entry.obv.count()));
        allocateSegment(entry, cls);
        omtCache_.markModified(opn);
    }
    if (entry.seg.hasSlot(line_in_page))
        return entry.seg.lineAddr(line_in_page);

    // 4 KB segments map every line directly; hasSlot() was true above.
    std::uint8_t slot = entry.seg.meta.allocSlot();
    if (slot == kInvalidSlot) {
        migrateSegment(entry, opn, when);
        if (entry.seg.cls == SegClass::Seg4KB) {
            ++slotAllocations_;
            return entry.seg.lineAddr(line_in_page);
        }
        slot = entry.seg.meta.allocSlot();
        ovl_assert(slot != kInvalidSlot, "segment still full after growth");
    }
    entry.seg.meta.slotOf[line_in_page] = slot;
    ++slotAllocations_;
    // Metadata line update travels with the data writeback.
    dramCtrl_.enqueueWrite(entry.seg.metaLineAddr(), when);
    omtCache_.markModified(opn);
    return entry.seg.lineAddr(line_in_page);
}

template <class Self, class Ar>
void
OverlayManager::io(Self &self, Ar &ar)
{
    ar.section("OVLM", [&] {
        snapshot::visit(self.omt_, ar);
        snapshot::visit(self.omtCache_, ar);
        snapshot::visit(self.allocator_, ar);
        // Page-data slots are written index-for-index (retired slots as
        // absent) so OmtEntry::pageDataIdx stays valid across the round
        // trip.
        ar.seq(self.pageStore_, 1, [&](auto &page) {
            bool stored = page != nullptr;
            ar.b(stored);
            if (!stored)
                return;
            if constexpr (Ar::kLoading)
                page = std::make_unique<OverlayPageData>();
            ar.u64(page->present.raw());
            ar.blob(page->lines);
        });
        ar.seq(self.freePages_, 4, [&](auto &idx) { ar.u32(idx); });
        ar.u64(self.omsBytesInUse_);
        if constexpr (Ar::kLoading) {
            self.omsBytesGauge_.set(std::int64_t(self.omsBytesInUse_));
            // Every index the restored engine dereferences must name a
            // stored page: the free list and each live OMT entry's data.
            auto check_page = [&](std::uint32_t idx, const char *what) {
                if (idx >= self.pageStore_.size() || !self.pageStore_[idx]) {
                    ar.fail(std::string(what) + " " + std::to_string(idx) +
                            " names no stored overlay page");
                }
            };
            for (std::uint32_t idx : self.freePages_)
                check_page(idx, "overlay free-page index");
            self.omt_.forEach([&](Opn, const OmtEntry &entry) {
                if (entry.pageDataIdx != OmtEntry::kNoPageData)
                    check_page(entry.pageDataIdx, "OMT entry page-data index");
            });
        }
    });
}

OVL_SNAPSHOT_IO(OverlayManager);

std::uint64_t
OverlayManager::segmentCount(SegClass cls) const
{
    std::uint64_t count = 0;
    // Linear scan over live overlays: accounting only, never on the
    // access path.
    omt_.forEach([&](Opn, const OmtEntry &entry) {
        if (entry.hasSegment && entry.seg.cls == cls)
            ++count;
    });
    return count;
}

} // namespace ovl
