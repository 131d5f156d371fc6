#include "checkpoint.hh"

#include "common/logging.hh"
#include "overlay/overlay_addr.hh"

namespace ovl
{

namespace tech
{

CheckpointManager::CheckpointManager(System &system, Asid asid)
    : system_(system), asid_(asid)
{
}

void
CheckpointManager::armPage(Addr vpn)
{
    Pte *pte = system_.vmm().resolve(asid_, vpn);
    ovl_assert(pte != nullptr && pte->present,
               "checkpoint range not mapped");
    ovl_assert(pte->ppn == PhysicalMemory::kZeroFrame ||
                   system_.physMem().refCount(pte->ppn) == 1,
               "checkpointed pages must be private");
    pte->cow = true; // writes must trap to the capture mechanism
    pte->overlayEnabled = true;
    system_.forEachTlb([&](auto &tlb) { tlb.invalidate(asid_, vpn); });
}

void
CheckpointManager::addRange(Addr vaddr, std::uint64_t len)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "checkpoint ranges must be page aligned");
    ovl_assert(checkpointsTaken_ == 0,
               "ranges must be added before the first checkpoint");
    ranges_.push_back(Range{vaddr, len});
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        armPage(pageNumber(va));
        // Backing-store checkpoint 0: the full image at arm time.
        std::vector<std::uint8_t> image(kPageSize);
        system_.peek(asid_, va, image.data(), kPageSize);
        baseImage_.push_back({va, std::move(image)});
    }
}

CheckpointStats
CheckpointManager::takeCheckpoint(Tick when)
{
    CheckpointStats stats;
    Tick t = when;
    OverlayManager &ovm = system_.overlayManager();
    Delta delta;

    for (const Range &range : ranges_) {
        for (Addr va = range.vaddr; va < range.vaddr + range.len;
             va += kPageSize) {
            Opn opn = overlay_addr::pageFromVirtual(asid_, pageNumber(va));
            BitVector64 obv = ovm.obitvector(opn);
            if (obv.none())
                continue;
            ++stats.dirtyPages;
            stats.dirtyLines += obv.count();
            stats.pageGranBytes += kPageSize;

            // Stream the delta to the backing store: one read per
            // captured line (+ its metadata line once per overlay).
            for (unsigned l = obv.findFirst(); l < kLinesPerPage;
                 l = obv.findNext(l)) {
                Addr line_addr = (opn << kPageShift) |
                                 (Addr(l) << kLineShift);
                t = system_.caches().access(line_addr, false, t);
                stats.deltaBytes += kLineSize;
                LineData data;
                system_.peek(asid_, va + Addr(l) * kLineSize, data.data(),
                             kLineSize);
                delta.lines.push_back({pageNumber(va), l, data});
            }
            stats.deltaBytes += kLineSize; // per-overlay metadata record

            // Commit the delta into the base page and re-arm capture.
            t = system_.promoteOverlay(asid_, va, PromoteAction::Commit, t);
            armPage(pageNumber(va));
        }
    }

    stats.latency = t - when;
    totalDeltaBytes_ += stats.deltaBytes;
    deltas_.push_back(std::move(delta));
    ++checkpointsTaken_;
    return stats;
}

Tick
CheckpointManager::restore(std::size_t index, Tick when)
{
    ovl_assert(index <= deltas_.size(), "no such checkpoint");
    Tick t = when;

    // Drop any updates captured since the last checkpoint.
    for (const Range &range : ranges_) {
        for (Addr va = range.vaddr; va < range.vaddr + range.len;
             va += kPageSize) {
            if (system_.pageObv(asid_, va).any()) {
                t = system_.promoteOverlay(asid_, va,
                                           PromoteAction::Discard, t);
            }
            armPage(pageNumber(va));
        }
    }

    // Reload the base image, then replay deltas 1..index in order (the
    // timing model charges one write per restored line).
    for (const auto &[va, image] : baseImage_) {
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            system_.poke(asid_, va + Addr(l) * kLineSize,
                         image.data() + std::size_t(l) * kLineSize,
                         kLineSize);
            t = system_.caches().access(
                overlay_addr::fromVirtual(asid_,
                                          lineBase(va +
                                                   Addr(l) * kLineSize)),
                true, t);
        }
        // The reload itself lands in overlays (pages are armed); fold it
        // into the base pages so the restored state is clean.
        t = system_.promoteOverlay(asid_, va, PromoteAction::Commit, t);
        armPage(pageNumber(va));
    }
    for (std::size_t k = 0; k < index; ++k) {
        for (const auto &[vpn, line, data] : deltas_[k].lines) {
            Addr va = (vpn << kPageShift) + Addr(line) * kLineSize;
            system_.poke(asid_, va, data.data(), kLineSize);
        }
    }
    // Rolling back destroys the newer timeline: the next checkpoint's
    // delta is relative to the restored state.
    deltas_.resize(index);
    checkpointsTaken_ = index;
    // Fold the replayed deltas in as well and re-arm capture.
    for (const Range &range : ranges_) {
        for (Addr va = range.vaddr; va < range.vaddr + range.len;
             va += kPageSize) {
            if (system_.pageObv(asid_, va).any()) {
                t = system_.promoteOverlay(asid_, va,
                                           PromoteAction::Commit, t);
                armPage(pageNumber(va));
            }
        }
    }
    return t;
}

std::uint64_t
CheckpointManager::backingStoreBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &[va, image] : baseImage_)
        bytes += image.size();
    for (const Delta &delta : deltas_)
        bytes += delta.lines.size() * kLineSize;
    return bytes;
}

} // namespace tech

} // namespace ovl
