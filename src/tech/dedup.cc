#include "dedup.hh"

#include <cstring>
#include <unordered_map>

#include "common/logging.hh"
#include "overlay/overlay_addr.hh"
#include "tech/overlay_on_write.hh"

namespace ovl
{

namespace tech
{

namespace
{

/** Page contents plus identity, captured through the access semantics. */
struct PageImage
{
    Asid asid;
    Addr vaddr;
    Addr ppn;
    std::array<std::uint8_t, kPageSize> bytes;
};

/** Indices of lines that differ between two page images. */
std::vector<unsigned>
diffLines(const PageImage &a, const PageImage &b)
{
    std::vector<unsigned> diffs;
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        if (std::memcmp(a.bytes.data() + std::size_t(l) * kLineSize,
                        b.bytes.data() + std::size_t(l) * kLineSize,
                        kLineSize) != 0) {
            diffs.push_back(l);
        }
    }
    return diffs;
}

/** FNV-1a over a byte range. */
std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len,
      std::uint64_t seed = 0xCBF29CE484222325ull)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Hash of the whole page (exact-duplicate index). */
std::uint64_t
pageHash(const PageImage &img)
{
    return fnv1a(img.bytes.data(), img.bytes.size());
}

/**
 * Similarity signature: a hash over a fixed sample of lines, the
 * Difference Engine's candidate-selection trick [23]. Pages differing
 * only outside the sampled lines collide, making them merge candidates
 * without O(N^2) comparisons.
 */
std::uint64_t
sampleHash(const PageImage &img)
{
    static constexpr unsigned kSampleLines[] = {5, 23, 37, 59};
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned l : kSampleLines) {
        h = fnv1a(img.bytes.data() + std::size_t(l) * kLineSize,
                  kLineSize, h);
    }
    return h;
}

} // namespace

DedupEngine::DedupEngine(System &system, DedupParams params)
    : system_(system), params_(params)
{
    ovl_assert(params.maxDiffLines <= kLinesPerPage,
               "diff threshold exceeds page size");
}

DedupReport
DedupEngine::deduplicate(const std::vector<std::pair<Asid, Addr>> &pages)
{
    DedupReport report;
    OverlayManager &ovm = system_.overlayManager();
    std::uint64_t oms_before = ovm.omsBytesInUse();

    // Capture images (what the scanner reads through the mappings).
    std::vector<PageImage> images;
    images.reserve(pages.size());
    for (const auto &[asid, vaddr] : pages) {
        ovl_assert(pageOffset(vaddr) == 0, "dedup pages must be aligned");
        Pte *pte = system_.vmm().resolve(asid, pageNumber(vaddr));
        ovl_assert(pte != nullptr && pte->present,
                   "dedup of an unmapped page");
        if (pte->cow || system_.pageObv(asid, vaddr).any())
            continue; // already shared or already patched: skip
        PageImage img;
        img.asid = asid;
        img.vaddr = vaddr;
        img.ppn = pte->ppn;
        system_.peek(asid, vaddr, img.bytes.data(), kPageSize);
        images.push_back(std::move(img));
        ++report.pagesScanned;
    }

    // Candidate selection via two hash indices (the Difference Engine
    // approach [23]): an exact-duplicate index over full-page hashes and
    // a similarity index over sampled-line hashes. Each page is compared
    // only against the first page (the base) of its bucket: O(N) scans.
    std::unordered_map<std::uint64_t, std::size_t> exact_index;
    std::unordered_map<std::uint64_t, std::size_t> similar_index;
    // mergedInto[i] points to the live base a merged page was folded
    // into, so stale index hits chase to a page that still owns a frame.
    std::vector<std::size_t> merged_into(images.size(), SIZE_MAX);
    auto live_base = [&](std::size_t idx) {
        while (merged_into[idx] != SIZE_MAX)
            idx = merged_into[idx];
        return idx;
    };
    for (std::size_t i = 0; i < images.size(); ++i) {
        const PageImage &candidate = images[i];
        bool merged = false;
        std::size_t base_candidates[2];
        unsigned num_candidates = 0;
        auto [exact_it, exact_new] =
            exact_index.try_emplace(pageHash(candidate), i);
        if (!exact_new)
            base_candidates[num_candidates++] = live_base(exact_it->second);
        auto [sim_it, sim_new] =
            similar_index.try_emplace(sampleHash(candidate), i);
        if (!sim_new && (num_candidates == 0 ||
                         live_base(sim_it->second) != base_candidates[0])) {
            base_candidates[num_candidates++] = live_base(sim_it->second);
        }
        for (unsigned c = 0; c < num_candidates && !merged; ++c) {
            if (base_candidates[c] == i)
                continue; // the bucket chased back to this very page
            const PageImage &base = images[base_candidates[c]];
            if (base.asid == candidate.asid &&
                base.vaddr == candidate.vaddr) {
                continue;
            }
            std::vector<unsigned> diffs = diffLines(base, candidate);
            if (diffs.size() > params_.maxDiffLines)
                continue;

            // Remap the candidate onto the base frame with the diffs in
            // its overlay. The base page itself also becomes CoW: a
            // write to it must diverge rather than mutate the shared
            // frame under its sharers.
            Pte *base_pte = system_.vmm().resolve(base.asid,
                                                  pageNumber(base.vaddr));
            if (!base_pte->cow) {
                base_pte->cow = true;
                base_pte->overlayEnabled = true;
                system_.forEachTlb([&](auto &tlb) {
                    tlb.invalidate(base.asid, pageNumber(base.vaddr));
                });
            }
            remapToSharedFrame(system_, candidate.asid, candidate.vaddr,
                               base.ppn, ForkMode::OverlayOnWrite);
            Addr vpn = pageNumber(candidate.vaddr);
            Opn opn = overlay_addr::pageFromVirtual(candidate.asid, vpn);
            Tick t = 0;
            for (unsigned l : diffs) {
                LineData line;
                std::memcpy(line.data(),
                            candidate.bytes.data() +
                                std::size_t(l) * kLineSize,
                            kLineSize);
                ovm.writeLineData(opn, l, line);
                system_.forEachTlb([&](auto &tlb) {
                    tlb.updateObvBit(candidate.asid, vpn, l, true);
                });
                // Materialize the OMS slot (as the dirty line's eviction
                // would).
                t = ovm.writebackLine(
                    (opn << kPageShift) | (Addr(l) << kLineShift), t);
            }
            ++report.pagesDeduplicated;
            if (diffs.empty())
                ++report.exactDuplicates;
            report.diffLinesStored += diffs.size();
            merged_into[i] = base_candidates[c];
            merged = true;
        }
        (void)merged;
    }

    // Every merged page releases exactly one private frame.
    report.framesFreed = report.pagesDeduplicated;
    report.overlayBytesAdded = ovm.omsBytesInUse() - oms_before;
    return report;
}

} // namespace tech

} // namespace ovl
