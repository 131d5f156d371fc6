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
 * (translate() on every access): a sorted directory of 512-entry leaf
 * blocks keyed by vpn>>9, behind a one-entry MRU cache and indexed
 * directly by chunk - front (binary-searched only when the directory
 * has gaps). Workload footprints are contiguous regions, so a lookup
 * costs a shift, a compare and an array index or two — no hashing, no
 * allocation, and no search even when the MRU leaf misses. Iteration visits entries in ascending-VPN
 * order, which the fork/teardown paths rely on for determinism.
 */

#ifndef OVERLAYSIM_VM_PAGE_TABLE_HH
#define OVERLAYSIM_VM_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

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

    struct DirEntry
    {
        Addr chunk; ///< vpn >> kLeafBits
        std::unique_ptr<Leaf> leaf;
    };

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
            DirEntry &e = const_cast<DirEntry &>(table_->dir_[dirIndex_]);
            return {(e.chunk << kLeafBits) | offset_,
                    e.leaf->ptes[offset_]};
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
                const Leaf &leaf = *table_->dir_[dirIndex_].leaf;
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
        Leaf *leaf = lookupLeaf(vpn >> kLeafBits);
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

    /** Map (or remap) @p vpn. */
    void
    set(Addr vpn, const Pte &pte)
    {
        Addr chunk = vpn >> kLeafBits;
        Leaf *leaf = lookupLeaf(chunk);
        if (leaf == nullptr)
            leaf = insertLeaf(chunk);
        unsigned off = unsigned(vpn & kLeafMask);
        if (!leaf->test(off)) {
            leaf->present[off >> 6] |= std::uint64_t(1) << (off & 63);
            ++leaf->count;
            ++size_;
        }
        leaf->ptes[off] = pte;
    }

    /** Remove the mapping of @p vpn. */
    void
    erase(Addr vpn)
    {
        Addr chunk = vpn >> kLeafBits;
        Leaf *leaf = lookupLeaf(chunk);
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
            removeLeaf(chunk);
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

    /** Snapshot visitor (DESIGN.md §11.1). */
    template <class Self, class Ar>
    static void
    io(Self &self, Ar &ar)
    {
        // PTE flag byte: bit i holds kFlags[i].
        static constexpr bool Pte::*kFlags[] = {
            &Pte::present, &Pte::writable, &Pte::cow, &Pte::overlayEnabled,
            &Pte::metadataMode};
        ar.section("PGTB", [&] {
            if constexpr (Ar::kLoading) {
                self.cachedChunk_ = kNoChunk;
                self.cachedLeaf_ = nullptr;
            }
            const DirEntry *prev = nullptr;
            ar.seq(self.dir_, 8 + kLeafEntries, [&](auto &e) {
                ar.u64(e.chunk);
                if constexpr (Ar::kLoading) {
                    if (prev != nullptr && e.chunk <= prev->chunk)
                        ar.fail("page-table directory not strictly "
                                "ascending");
                    e.leaf = std::make_unique<Leaf>();
                }
                prev = &e;
                for (auto &word : e.leaf->present)
                    ar.u64(word);
                for (auto &pte : e.leaf->ptes) {
                    ar.u64(pte.ppn);
                    std::uint8_t flags = 0;
                    for (unsigned i = 0; i < std::size(kFlags); ++i)
                        flags |= std::uint8_t((pte.*kFlags[i]) << i);
                    ar.u8(flags);
                    if constexpr (Ar::kLoading) {
                        if (flags >> std::size(kFlags))
                            ar.fail("unknown PTE flag bits");
                        for (unsigned i = 0; i < std::size(kFlags); ++i)
                            pte.*kFlags[i] = (flags >> i) & 1;
                    }
                }
                ar.u32(e.leaf->count);
            });
            ar.u64(self.size_);
        });
    }

  private:
    /**
     * Leaf of @p chunk, or nullptr. After an MRU miss the directory is
     * indexed directly: chunks ascend strictly, so entry i holds a chunk
     * of at least front + i, with equality throughout when the directory
     * has no gaps (one contiguous footprint, the common case). A
     * matching slot is a constant-time hit; only a gapped directory
     * falls back to a binary search, over the entries below the slot.
     */
    Leaf *
    lookupLeaf(Addr chunk) const
    {
        if (chunk == cachedChunk_)
            return cachedLeaf_;
        if (dir_.empty())
            return nullptr;
        // Wraps to a huge slot when chunk < front: out of range.
        Addr slot = chunk - dir_.front().chunk;
        const DirEntry *e = nullptr;
        if (slot < dir_.size() && dir_[slot].chunk == chunk) {
            e = &dir_[slot];
        } else if (dir_.back().chunk - dir_.front().chunk + 1 !=
                   dir_.size()) {
            auto last = dir_.begin() +
                        std::ptrdiff_t(std::min<Addr>(slot, dir_.size()));
            auto it = std::lower_bound(
                dir_.begin(), last, chunk,
                [](const DirEntry &d, Addr c) { return d.chunk < c; });
            if (it != last && it->chunk == chunk)
                e = &*it;
        }
        if (e == nullptr)
            return nullptr;
        cachedChunk_ = chunk;
        cachedLeaf_ = e->leaf.get();
        return cachedLeaf_;
    }

    Leaf *
    insertLeaf(Addr chunk)
    {
        auto it = std::lower_bound(
            dir_.begin(), dir_.end(), chunk,
            [](const DirEntry &e, Addr c) { return e.chunk < c; });
        it = dir_.insert(it, DirEntry{chunk, std::make_unique<Leaf>()});
        cachedChunk_ = chunk;
        cachedLeaf_ = it->leaf.get();
        return cachedLeaf_;
    }

    void
    removeLeaf(Addr chunk)
    {
        auto it = std::lower_bound(
            dir_.begin(), dir_.end(), chunk,
            [](const DirEntry &e, Addr c) { return e.chunk < c; });
        if (it != dir_.end() && it->chunk == chunk)
            dir_.erase(it);
        if (chunk == cachedChunk_) {
            cachedChunk_ = kNoChunk;
            cachedLeaf_ = nullptr;
        }
    }

    static constexpr Addr kNoChunk = ~Addr(0);

    std::vector<DirEntry> dir_; ///< sorted by chunk
    std::size_t size_ = 0;
    mutable Addr cachedChunk_ = kNoChunk;
    mutable Leaf *cachedLeaf_ = nullptr;
};

} // namespace ovl

#endif // OVERLAYSIM_VM_PAGE_TABLE_HH
