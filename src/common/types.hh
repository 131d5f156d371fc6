/**
 * @file
 * Fundamental scalar types and address-geometry constants shared by every
 * module of overlaysim.
 */

#ifndef OVERLAYSIM_COMMON_TYPES_HH
#define OVERLAYSIM_COMMON_TYPES_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace ovl
{

/** A tick is one CPU cycle (the simulated core runs at 2.67 GHz). */
using Tick = std::uint64_t;

/** Address in any of the three address spaces (virtual/physical/memory). */
using Addr = std::uint64_t;

/** Address-space (process) identifier; the paper supports 2^15 processes. */
using Asid = std::uint16_t;

/**
 * Compile-time timing flag of the operations that have a functional
 * fast-forward (DESIGN.md §10.2). Each such operation has one body,
 * templated on this flag: the Functional instantiation performs the
 * same state transitions with zero tick movement, and work only the
 * Detailed one does (latencies, DRAM/ORE/OMT-cache charges, timing
 * counters, trace and profile points) sits under `if constexpr`.
 */
enum class Timing : bool
{
    Functional,
    Detailed,
};

/** Invalid/sentinel values. */
constexpr Tick kMaxTick = ~Tick(0);
constexpr Addr kInvalidAddr = ~Addr(0);

/** Page geometry: 4 KB pages (Table 2). */
constexpr unsigned kPageShift = 12;
constexpr Addr kPageSize = Addr(1) << kPageShift;
constexpr Addr kPageMask = kPageSize - 1;

/** Cache-line geometry: uniform 64 B lines across the hierarchy (§5). */
constexpr unsigned kLineShift = 6;
constexpr Addr kLineSize = Addr(1) << kLineShift;
constexpr Addr kLineMask = kLineSize - 1;

/** Lines per page: 64 — this is why the OBitVector is 64 bits wide. */
constexpr unsigned kLinesPerPage = unsigned(kPageSize / kLineSize);

/** Extract the virtual/physical page number of an address. */
constexpr Addr
pageNumber(Addr addr)
{
    return addr >> kPageShift;
}

/** Byte offset of an address within its page. */
constexpr Addr
pageOffset(Addr addr)
{
    return addr & kPageMask;
}

/** Base address of the page containing @p addr. */
constexpr Addr
pageBase(Addr addr)
{
    return addr & ~kPageMask;
}

/** Index of the cache line containing @p addr within its page [0, 64). */
constexpr unsigned
lineInPage(Addr addr)
{
    return unsigned((addr & kPageMask) >> kLineShift);
}

/** Base address of the cache line containing @p addr. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~kLineMask;
}

/**
 * Split [vaddr, vaddr + len) at cache-line boundaries and call
 * @p fn(chunk_vaddr, offset, chunk_len) for each piece, where @p offset
 * is the piece's position within the caller's buffer.
 */
template <class Fn>
void
forEachLineChunk(Addr vaddr, std::size_t len, Fn &&fn)
{
    for (std::size_t off = 0; off < len;) {
        std::size_t room = std::size_t(lineBase(vaddr) + kLineSize - vaddr);
        std::size_t chunk = len - off < room ? len - off : room;
        fn(vaddr, off, chunk);
        vaddr += chunk;
        off += chunk;
    }
}

/** Functional contents of one 64 B cache line. */
using LineData = std::array<std::uint8_t, kLineSize>;

/** Size literals for configuration readability. */
constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}

constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}

constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

} // namespace ovl

#endif // OVERLAYSIM_COMMON_TYPES_HH
