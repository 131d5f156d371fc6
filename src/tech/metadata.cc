#include "metadata.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace ovl
{

namespace tech
{

ShadowMemory::ShadowMemory(System &system, Asid asid)
    : system_(system), asid_(asid)
{
}

void
ShadowMemory::enable(Addr vaddr, std::uint64_t len)
{
    ovl_assert(pageOffset(vaddr) == 0 && len % kPageSize == 0,
               "shadow range must be page aligned");
    for (Addr va = vaddr; va < vaddr + len; va += kPageSize) {
        Pte *pte = system_.vmm().resolve(asid_, pageNumber(va));
        ovl_assert(pte != nullptr && pte->present,
                   "shadow range not mapped");
        pte->overlayEnabled = true;
        pte->metadataMode = true;
        system_.forEachTlb([&](auto &tlb) {
            tlb.invalidate(asid_, pageNumber(va));
        });
    }
}

Tick
ShadowMemory::storeMeta(Addr vaddr, const void *meta, std::size_t len,
                        Tick when)
{
    const auto *src = static_cast<const std::uint8_t *>(meta);
    Tick t = when;
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        t = system_.metadataAccess(asid_, va, true, t);
        system_.metadataPoke(asid_, va, src + off, chunk);
    });
    return t;
}

Tick
ShadowMemory::loadMeta(Addr vaddr, void *out, std::size_t len, Tick when)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    Tick t = when;
    forEachLineChunk(vaddr, len, [&](Addr va, std::size_t off,
                                     std::size_t chunk) {
        t = system_.metadataAccess(asid_, va, false, t);
        system_.metadataPeek(asid_, va, dst + off, chunk);
    });
    return t;
}

void
ShadowMemory::pokeMeta(Addr vaddr, const void *meta, std::size_t len)
{
    system_.metadataPoke(asid_, vaddr, meta, len);
}

void
ShadowMemory::peekMeta(Addr vaddr, void *out, std::size_t len) const
{
    system_.metadataPeek(asid_, vaddr, out, len);
}

unsigned
ShadowMemory::shadowLines(Addr vaddr) const
{
    return system_.pageObv(asid_, vaddr).count();
}

Tick
TaintTracker::setTaint(Addr vaddr, std::size_t len, bool tainted, Tick when)
{
    std::vector<std::uint8_t> meta(len, tainted ? 1 : 0);
    return shadow_.storeMeta(vaddr, meta.data(), len, when);
}

bool
TaintTracker::isTainted(Addr vaddr, std::size_t len) const
{
    std::vector<std::uint8_t> meta(len);
    shadow_.peekMeta(vaddr, meta.data(), len);
    for (std::uint8_t m : meta) {
        if (m != 0)
            return true;
    }
    return false;
}

Tick
TaintTracker::taintedCopy(Addr dst, Addr src, std::size_t len, Tick when)
{
    // Data move with metadata propagation: regular load/store pair plus
    // the metadata load/store pair the instrumentation adds.
    std::vector<std::uint8_t> data(len);
    std::vector<std::uint8_t> meta(len);
    Tick t = system_.read(asid_, src, data.data(), len, when);
    t = shadow_.loadMeta(src, meta.data(), len, t);
    t = system_.write(asid_, dst, data.data(), len, t);
    t = shadow_.storeMeta(dst, meta.data(), len, t);
    return t;
}

} // namespace tech

} // namespace ovl
