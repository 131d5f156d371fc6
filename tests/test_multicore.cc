/**
 * @file
 * Multi-core TLB coherence tests (§4.3.3): a process running on several
 * cores keeps all its TLBs' OBitVectors coherent through the
 * `overlaying read exclusive` message, with no shootdown; the
 * copy-on-write baseline must invalidate remote entries on every remap,
 * and so must every Table 1 technique that rewrites a PTE.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cpu/ooo_core.hh"
#include "system/system.hh"
#include "tech/dedup.hh"
#include "tech/speculation.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;

SystemConfig
dualCore()
{
    SystemConfig cfg;
    cfg.numTlbs = 2;
    return cfg;
}

TEST(MultiCore, CoresTranslateThroughTheirOwnTlbs)
{
    System sys(dualCore());
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);

    AccessOutcome out;
    sys.access(asid, kBase, false, 0, &out, 0);
    EXPECT_TRUE(out.tlbWalk); // core 0 walks
    sys.access(asid, kBase, false, 10'000, &out, 1);
    EXPECT_TRUE(out.tlbWalk); // core 1 has its own TLB: walks too
    sys.access(asid, kBase, false, 20'000, &out, 1);
    EXPECT_FALSE(out.tlbWalk); // now cached on core 1
}

TEST(MultiCore, OreUpdatesRemoteTlbWithoutInvalidation)
{
    System sys(dualCore());
    Asid asid = sys.createProcess();
    sys.mapZeroOverlay(asid, kBase, kPageSize);

    // Both cores cache the translation (empty OBitVector).
    sys.access(asid, kBase, false, 0, nullptr, 0);
    sys.access(asid, kBase, false, 0, nullptr, 1);
    ASSERT_FALSE(sys.tlb(1).l1().probe(asid, pageNumber(kBase))
                     ->obv.test(0));

    // Core 0 performs the overlaying write.
    AccessOutcome out;
    sys.access(asid, kBase, true, 10'000, &out, 0);
    ASSERT_TRUE(out.overlayingWrite);

    // Core 1's cached entry was updated in place (no walk on reuse).
    EXPECT_TRUE(sys.tlb(1).l1().probe(asid, pageNumber(kBase))
                    ->obv.test(0));
    sys.access(asid, kBase, false, 20'000, &out, 1);
    EXPECT_FALSE(out.tlbWalk);
    EXPECT_TRUE(out.overlayLine); // and it routes to the overlay
}

TEST(MultiCore, CowRemapShootsDownRemoteTlb)
{
    SystemConfig cfg = dualCore();
    cfg.overlaysEnabled = false;
    System sys(cfg);
    Asid parent = sys.createProcess();
    sys.mapAnon(parent, kBase, kPageSize);
    Tick t = 0;
    sys.fork(parent, ForkMode::CopyOnWrite, 0, &t);

    // Both cores cache the shared translation.
    sys.access(parent, kBase, false, t, nullptr, 0);
    sys.access(parent, kBase, false, t, nullptr, 1);

    // Core 0 writes: CoW fault, remap, shootdown.
    AccessOutcome out;
    t = sys.access(parent, kBase, true, t + 10'000, &out, 0);
    ASSERT_TRUE(out.cowFault);

    // Core 1 lost its translation and must walk again.
    sys.access(parent, kBase, false, t, &out, 1);
    EXPECT_TRUE(out.tlbWalk);
}

TEST(MultiCore, ShootdownCostScalesWithTlbCount)
{
    auto divergence_cost = [](unsigned tlbs) {
        SystemConfig cfg;
        cfg.numTlbs = tlbs;
        cfg.overlaysEnabled = false;
        System sys(cfg);
        Asid parent = sys.createProcess();
        sys.mapAnon(parent, kBase, kPageSize);
        Tick t = 0;
        sys.fork(parent, ForkMode::CopyOnWrite, 0, &t);
        sys.access(parent, kBase, false, t, nullptr, 0);
        Tick start = t + 100'000;
        return sys.access(parent, kBase, true, start, nullptr, 0) - start;
    };
    Tick two = divergence_cost(2);
    Tick eight = divergence_cost(8);
    EXPECT_GT(eight, two); // per-TLB shootdown component (§4.3.3)
}

TEST(MultiCore, TwoCoresShareCachesCoherently)
{
    // A line written by core 0 is an L1 hit for core 1 (one shared
    // hierarchy in this machine model).
    System sys(dualCore());
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    OooCore core0("core0", sys, 0);
    OooCore core1("core1", sys, 1);

    core0.beginEpoch(0);
    core0.executeOp(asid, TraceOp::store(kBase));
    Tick t = core0.finishEpoch();

    core1.beginEpoch(t);
    AccessOutcome out;
    sys.access(asid, kBase, false, t, &out, 1);
    EXPECT_EQ(out.level, HitLevel::L1);
}

TEST(MultiCore, SpeculationArmsRemoteTlbs)
{
    // Core 1 caches the translation before the region is armed; its
    // write afterwards must still be diverted into the overlay.
    System sys(dualCore());
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    sys.access(asid, kBase, false, 0, nullptr, 1);

    tech::SpeculativeRegion region(sys, asid);
    region.begin(kBase, kPageSize);
    AccessOutcome out;
    sys.access(asid, kBase, true, 10'000, &out, 1);
    EXPECT_TRUE(out.overlayingWrite);
    EXPECT_EQ(region.speculativeLines(), 1u);
    region.abort(20'000);
}

TEST(MultiCore, DedupShootsDownRemoteTlbs)
{
    // Two identical pages, both cached in core 1's TLB, are merged onto
    // one frame. Core 1 must then see the merged (CoW + overlay)
    // mappings: a write to either page diverges into its overlay instead
    // of mutating the shared frame through a stale writable entry.
    System sys(dualCore());
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, 2 * kPageSize);
    std::vector<std::uint8_t> content(kPageSize, 0x5A);
    sys.poke(asid, kBase, content.data(), kPageSize);
    sys.poke(asid, kBase + kPageSize, content.data(), kPageSize);
    sys.access(asid, kBase, false, 0, nullptr, 1);
    sys.access(asid, kBase + kPageSize, false, 0, nullptr, 1);

    tech::DedupEngine engine(sys, tech::DedupParams{});
    tech::DedupReport report =
        engine.deduplicate({{asid, kBase}, {asid, kBase + kPageSize}});
    ASSERT_EQ(report.pagesDeduplicated, 1u);

    AccessOutcome out;
    Tick t = sys.access(asid, kBase + kPageSize, false, 10'000, &out, 1);
    EXPECT_TRUE(out.tlbWalk); // the remapped page was shot down
    for (Addr page : {kBase, kBase + kPageSize}) {
        t = sys.access(asid, page, true, t, &out, 1);
        EXPECT_TRUE(out.overlayingWrite) << std::hex << page;
        EXPECT_EQ(sys.pageObv(asid, page).count(), 1u) << std::hex << page;
    }
}

} // namespace
} // namespace ovl
