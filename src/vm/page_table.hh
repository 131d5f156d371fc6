/**
 * @file
 * Per-process page table. Functionally a VPN -> PTE map; the four-level
 * radix walk is charged as a flat 1000-cycle cost by the system (Table 2)
 * so no radix layout is modeled here. The PTE carries the two bits the
 * paper adds to the OS/hardware contract: the copy-on-write sharing bit
 * that the OS exposes to hardware (§2.2) and the overlays-enabled bit
 * (the inexpensive opt-in, §3.3).
 *
 * Storage is a two-level structure tuned for the simulator's hot path
 * (translate() on every access): a ChunkDirectory of 512-entry leaf
 * blocks keyed by vpn>>9 (src/common/chunk_directory.hh), the layout the
 * OMT shares. Workload footprints are contiguous regions, so a lookup
 * costs a shift, a compare and an array index or two — no hashing, no
 * allocation, and no search even when the MRU leaf misses. Iteration
 * visits entries in ascending-VPN order, which the fork/teardown paths
 * rely on for determinism.
 */

#ifndef OVERLAYSIM_VM_PAGE_TABLE_HH
#define OVERLAYSIM_VM_PAGE_TABLE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/chunk_directory.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/snapshot.hh"

namespace ovl
{

/** Page-table entry. */
struct Pte
{
    Addr ppn = 0;
    bool present = false;
    bool writable = false;
    /** Shared copy-on-write page: a write must fault to the OS/hardware. */
    bool cow = false;
    /** The page may have an overlay (OS opt-in through the page tables). */
    bool overlayEnabled = false;
    /**
     * The overlay holds out-of-band metadata (shadow memory, §5.3.4)
     * rather than alternate data: regular loads/stores never redirect to
     * the overlay; only metadata load/store instructions reach it.
     */
    bool metadataMode = false;
};

/** One process's virtual-to-physical mapping. */
class PageTable
{
    static constexpr unsigned kLeafBits = 9;
    static constexpr unsigned kLeafEntries = 1u << kLeafBits;
    static constexpr Addr kLeafMask = kLeafEntries - 1;

    /** 512 PTEs plus a present bitmap; one contiguous allocation. */
    struct Leaf
    {
        std::array<std::uint64_t, kLeafEntries / 64> present{};
        std::array<Pte, kLeafEntries> ptes{};
        unsigned count = 0;

        bool
        test(unsigned i) const
        {
            return (present[i >> 6] >> (i & 63)) & 1;
        }
    };

    using Directory = ChunkDirectory<Leaf>;

    /**
     * Forward iterator yielding pair-like {vpn, pte&} values in
     * ascending-VPN order; bind with `auto &&[vpn, pte]`.
     */
    template <bool Const>
    class IterT
    {
        using Table = std::conditional_t<Const, const PageTable, PageTable>;
        using PteRef = std::conditional_t<Const, const Pte &, Pte &>;

      public:
        IterT(Table *table, std::size_t dir_index, unsigned offset)
            : table_(table), dirIndex_(dir_index), offset_(offset)
        {
            skipToPresent();
        }

        std::pair<Addr, PteRef>
        operator*() const
        {
            const auto &e = table_->dir_[dirIndex_];
            return {(e.id << kLeafBits) | offset_, e.node->ptes[offset_]};
        }

        IterT &
        operator++()
        {
            ++offset_;
            skipToPresent();
            return *this;
        }

        bool
        operator==(const IterT &o) const
        {
            return dirIndex_ == o.dirIndex_ && offset_ == o.offset_;
        }

        bool operator!=(const IterT &o) const { return !(*this == o); }

      private:
        /** Advance to the next set present bit at or after offset_. */
        void
        skipToPresent()
        {
            while (dirIndex_ < table_->dir_.size()) {
                const Leaf &leaf = *table_->dir_[dirIndex_].node;
                while (offset_ < kLeafEntries) {
                    std::uint64_t bits =
                        leaf.present[offset_ >> 6] >> (offset_ & 63);
                    if (bits != 0) {
                        offset_ += unsigned(std::countr_zero(bits));
                        return;
                    }
                    offset_ = (offset_ & ~63u) + 64; // next bitmap word
                }
                ++dirIndex_;
                offset_ = 0;
            }
            offset_ = 0; // canonical end position
        }

        Table *table_;
        std::size_t dirIndex_;
        unsigned offset_;
    };

  public:
    /** Find the PTE of @p vpn; nullptr if unmapped. */
    Pte *
    find(Addr vpn)
    {
        Leaf *leaf = dir_.find(vpn >> kLeafBits);
        if (leaf == nullptr)
            return nullptr;
        unsigned off = unsigned(vpn & kLeafMask);
        return leaf->test(off) ? &leaf->ptes[off] : nullptr;
    }

    const Pte *
    find(Addr vpn) const
    {
        return const_cast<PageTable *>(this)->find(vpn);
    }

    /** Map (or remap) @p vpn; a mapped PTE is always present. */
    void
    set(Addr vpn, const Pte &pte)
    {
        ovl_assert(pte.present, "mapping a non-present PTE");
        Leaf &leaf = dir_.findOrInsert(vpn >> kLeafBits);
        unsigned off = unsigned(vpn & kLeafMask);
        if (!leaf.test(off)) {
            leaf.present[off >> 6] |= std::uint64_t(1) << (off & 63);
            ++leaf.count;
            ++size_;
        }
        leaf.ptes[off] = pte;
    }

    /** Remove the mapping of @p vpn. */
    void
    erase(Addr vpn)
    {
        Addr chunk = vpn >> kLeafBits;
        Leaf *leaf = dir_.find(chunk);
        if (leaf == nullptr)
            return;
        unsigned off = unsigned(vpn & kLeafMask);
        if (!leaf->test(off))
            return;
        leaf->present[off >> 6] &= ~(std::uint64_t(1) << (off & 63));
        leaf->ptes[off] = Pte{};
        --leaf->count;
        --size_;
        if (leaf->count == 0)
            dir_.erase(chunk);
    }

    std::size_t size() const { return size_; }

    using iterator = IterT<false>;
    using const_iterator = IterT<true>;

    iterator begin() { return iterator(this, 0, 0); }
    iterator end() { return iterator(this, dir_.size(), 0); }
    const_iterator begin() const { return const_iterator(this, 0, 0); }
    const_iterator end() const
    {
        return const_iterator(this, dir_.size(), 0);
    }

    /**
     * Snapshot visitor (format 3, DESIGN.md §11.2): per leaf its present
     * bitmap, then for the present PTEs only, in VPN order, the ppn as
     * varints and {writable, cow, overlayEnabled, metadataMode} as a
     * packed 4-bit array. `present` is implied by the bitmap; the leaf
     * and table counts are recounted on restore, and a leaf that maps
     * nothing is rejected (erase() frees an emptied leaf).
     */
    template <class Self, class Ar>
    static void
    io(Self &self, Ar &ar)
    {
        // PTE flag nibble: bit i holds kFlags[i].
        static constexpr bool Pte::*kFlags[] = {
            &Pte::writable, &Pte::cow, &Pte::overlayEnabled,
            &Pte::metadataMode};
        ar.section("PGTB", [&] {
            if constexpr (Ar::kLoading)
                self.size_ = 0;
            Directory::io(self.dir_, ar, sizeof(Leaf::present) + 2,
                          "page-table", [&](Addr, auto &leaf) {
                for (auto &word : leaf.present)
                    ar.u64(word);
                // Offsets of the present PTEs, ascending.
                std::array<std::uint16_t, kLeafEntries> at{};
                unsigned n = 0;
                for (unsigned w = 0; w < leaf.present.size(); ++w) {
                    for (std::uint64_t bits = leaf.present[w]; bits != 0;
                         bits &= bits - 1) {
                        at[n++] = std::uint16_t(
                            w * 64 + unsigned(std::countr_zero(bits)));
                    }
                }
                if constexpr (Ar::kLoading) {
                    if (n == 0)
                        ar.fail("page-table leaf maps no page");
                    leaf.count = n;
                    self.size_ += n;
                    std::array<std::uint64_t, kLeafEntries> ppns{};
                    ar.varints(n, ppns.data());
                    for (unsigned k = 0; k < n; ++k) {
                        leaf.ptes[at[k]].ppn = ppns[k];
                        leaf.ptes[at[k]].present = true;
                    }
                    ar.packed(n, std::size(kFlags),
                              [&](std::size_t k, std::uint8_t flags) {
                        for (unsigned i = 0; i < std::size(kFlags); ++i)
                            leaf.ptes[at[k]].*kFlags[i] = (flags >> i) & 1;
                    });
                } else {
                    ar.varints(n, [&](std::size_t k) {
                        return leaf.ptes[at[k]].ppn;
                    });
                    ar.packed(n, std::size(kFlags), [&](std::size_t k) {
                        const Pte &pte = leaf.ptes[at[k]];
                        unsigned flags = 0;
                        for (unsigned i = 0; i < std::size(kFlags); ++i)
                            flags |= unsigned(pte.*kFlags[i]) << i;
                        return flags;
                    });
                }
            });
        });
    }

  private:
    Directory dir_;
    std::size_t size_ = 0;
};

} // namespace ovl

#endif // OVERLAYSIM_VM_PAGE_TABLE_HH
