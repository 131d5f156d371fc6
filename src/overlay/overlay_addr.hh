/**
 * @file
 * The Overlay Address Space and the direct virtual-to-overlay mapping
 * (§4.1, Figure 5). The overlay address of virtual address `vaddr` in
 * process `PID` is the concatenation {1, PID, vaddr}: the MSB marks the
 * unused portion of the physical address space reserved for overlays, the
 * 15-bit PID guarantees no two processes share an overlay page (avoiding
 * the synonym problem), and the 48-bit vaddr completes the 1-1 mapping.
 */

#ifndef OVERLAYSIM_OVERLAY_OVERLAY_ADDR_HH
#define OVERLAYSIM_OVERLAY_OVERLAY_ADDR_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace ovl
{

/** Overlay page number: the page-granular key of the OMT. */
using Opn = Addr;

namespace overlay_addr
{

constexpr unsigned kVaddrBits = 48;
constexpr unsigned kAsidBits = 15;
constexpr Addr kVaddrMask = (Addr(1) << kVaddrBits) - 1;
constexpr Addr kOverlayBit = Addr(1) << 63;

/** Bits of an overlay page number: the overlay address above the page. */
constexpr unsigned kOpnBits = 64 - kPageShift;

/** Maximum process count supported by the concatenation scheme: 2^15. */
constexpr unsigned kMaxProcesses = 1u << kAsidBits;

/** True if @p addr lies in the Overlay Address Space. */
constexpr bool
isOverlay(Addr addr)
{
    return (addr & kOverlayBit) != 0;
}

/** Overlay address of (@p asid, @p vaddr): {1, PID, vaddr} (Figure 5). */
inline Addr
fromVirtual(Asid asid, Addr vaddr)
{
    ovl_assert(asid < kMaxProcesses, "ASID exceeds 15 bits");
    ovl_assert((vaddr & ~kVaddrMask) == 0, "vaddr exceeds 48 bits");
    return kOverlayBit | (Addr(asid) << kVaddrBits) | vaddr;
}

/** Overlay page number of (@p asid, @p vpn). */
inline Opn
pageFromVirtual(Asid asid, Addr vpn)
{
    return fromVirtual(asid, vpn << kPageShift) >> kPageShift;
}

/** Recover the ASID from an overlay address. */
constexpr Asid
asidOf(Addr overlay_addr)
{
    return Asid((overlay_addr >> kVaddrBits) & (kMaxProcesses - 1));
}

/** Recover the virtual address from an overlay address. */
constexpr Addr
vaddrOf(Addr overlay_addr)
{
    return overlay_addr & kVaddrMask;
}

} // namespace overlay_addr

} // namespace ovl

#endif // OVERLAYSIM_OVERLAY_OVERLAY_ADDR_HH
