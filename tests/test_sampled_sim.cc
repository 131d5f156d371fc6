/**
 * @file
 * Sampled-simulation tests (DESIGN.md §10): the functional fast-forward
 * (System::accessFunctional / forkFunctional / destroyProcessFunctional)
 * must perform exactly the architectural transitions of the detailed
 * path with zero tick movement, and runForkBenchSampled's full-detail
 * twin must be byte-identical to runForkBench.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "sim/snapshot.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;

/** Timing-side stat dump: caches and DRAM (the prefetcher trains during
 * functional warming, so its issued counter is legitimately live). */
std::string
timingStats(System &sys)
{
    std::ostringstream os;
    sys.caches().dumpStats(os);
    sys.caches().l1().dumpStats(os);
    sys.caches().l2().dumpStats(os);
    sys.caches().l3().dumpStats(os);
    sys.dramController().dumpStats(os);
    return os.str();
}

/** A forked parent with 4 touched pages, ready for post-fork writes. */
Tick
setupForkedParent(System &sys, Asid &parent, ForkMode mode)
{
    parent = sys.createProcess();
    sys.mapAnon(parent, kBase, 4 * kPageSize);
    Tick t = 0;
    for (unsigned pg = 0; pg < 4; ++pg) {
        std::uint64_t v = pg;
        t = sys.write(parent, kBase + pg * kPageSize, &v, 8, t);
    }
    sys.fork(parent, mode, t, &t);
    return t;
}

TEST(AccessFunctional, OverlayTransitionMatchesDetailed)
{
    System detailed((SystemConfig())), functional((SystemConfig()));
    Asid dp = 0, fp = 0;
    Tick t = setupForkedParent(detailed, dp, ForkMode::OverlayOnWrite);
    setupForkedParent(functional, fp, ForkMode::OverlayOnWrite);
    ASSERT_EQ(dp, fp);

    Addr va = kBase + kPageSize + 2 * kLineSize;
    detailed.access(dp, va, true, t);
    functional.accessFunctional(fp, va, true);

    Opn opn = overlay_addr::pageFromVirtual(fp, pageNumber(va));
    unsigned line = lineInPage(va);
    EXPECT_TRUE(functional.overlayManager().hasOverlay(opn));
    EXPECT_TRUE(functional.overlayManager().obitvector(opn).test(line));
    EXPECT_EQ(detailed.overlayManager().obitvector(opn),
              functional.overlayManager().obitvector(opn));
    EXPECT_EQ(detailed.overlayManager().omsBytesInUse(),
              functional.overlayManager().omsBytesInUse());
    EXPECT_EQ(detailed.overlayingWrites(), functional.overlayingWrites());

    // The logical contents agree byte for byte.
    std::uint64_t want = 0, got = 0;
    detailed.peek(dp, va, &want, 8);
    functional.peek(fp, va, &got, 8);
    EXPECT_EQ(want, got);
}

TEST(AccessFunctional, CowBreakMatchesDetailed)
{
    System detailed((SystemConfig())), functional((SystemConfig()));
    Asid dp = 0, fp = 0;
    Tick t = setupForkedParent(detailed, dp, ForkMode::CopyOnWrite);
    setupForkedParent(functional, fp, ForkMode::CopyOnWrite);

    Addr va = kBase + 2 * kPageSize + 8;
    detailed.access(dp, va, true, t);
    functional.accessFunctional(fp, va, true);

    EXPECT_EQ(detailed.cowFaults(), functional.cowFaults());
    // Same allocator, same order: the break lands on the same frame.
    Pte *dpte = detailed.vmm().resolve(dp, pageNumber(va));
    Pte *fpte = functional.vmm().resolve(fp, pageNumber(va));
    ASSERT_NE(dpte, nullptr);
    ASSERT_NE(fpte, nullptr);
    EXPECT_FALSE(fpte->cow);
    EXPECT_EQ(dpte->ppn, fpte->ppn);
    EXPECT_EQ(detailed.physMem().framesInUse(),
              functional.physMem().framesInUse());

    std::uint64_t want = 0, got = 0;
    detailed.peek(dp, va, &want, 8);
    functional.peek(fp, va, &got, 8);
    EXPECT_EQ(want, got);
}

TEST(AccessFunctional, ZeroTimingSideEffects)
{
    System sys((SystemConfig()));
    Asid parent = 0;
    setupForkedParent(sys, parent, ForkMode::OverlayOnWrite);

    std::string before = timingStats(sys);
    for (unsigned pg = 0; pg < 4; ++pg) {
        for (unsigned l = 0; l < kLinesPerPage; l += 4) {
            sys.accessFunctional(parent,
                                 kBase + pg * kPageSize + l * kLineSize,
                                 true);
        }
    }
    // Cache tags warm (that is the point), but no latency, hit/miss or
    // DRAM statistic moves: a functional burst is invisible to every
    // timing-side counter.
    EXPECT_EQ(timingStats(sys), before);
}

/** One child lifecycle: fork, one write per page, teardown. */
template <typename ForkFn, typename WriteFn, typename DestroyFn>
void
childCycle(ForkFn &&fork, WriteFn &&write, DestroyFn &&destroy)
{
    Asid child = fork();
    for (unsigned pg = 0; pg < 4; ++pg)
        write(child, kBase + pg * kPageSize + 64);
    destroy(child);
}

TEST(FunctionalForkDestroy, ResidueMatchesDetailedTeardown)
{
    // Neither teardown releases the OMT radix node pages (table nodes
    // are never freed, like a hardware-walked table), so "no leak" means
    // the functional lifecycle retains exactly what the detailed one
    // retains — frame for frame, OMS byte for OMS byte.
    System det((SystemConfig())), fun((SystemConfig()));
    Asid dp = 0, fp = 0;
    Tick t = 0;
    for (System *sys : {&det, &fun}) {
        Asid p = sys->createProcess();
        sys->mapAnon(p, kBase, 4 * kPageSize);
        Tick w = 0;
        for (unsigned pg = 0; pg < 4; ++pg) {
            std::uint64_t v = pg;
            w = sys->write(p, kBase + pg * kPageSize, &v, 8, w);
        }
        sys->caches().flushAll(w);
        (sys == &det ? dp : fp) = p;
        if (sys == &det)
            t = w;
    }

    for (unsigned iter = 0; iter < 3; ++iter) {
        childCycle(
            [&] { return det.fork(dp, ForkMode::OverlayOnWrite, t, &t); },
            [&](Asid c, Addr va) { t = det.access(c, va, true, t); },
            [&](Asid c) { det.destroyProcess(c, t); });
        childCycle(
            [&] { return fun.forkFunctional(fp, ForkMode::OverlayOnWrite); },
            [&](Asid c, Addr va) { fun.accessFunctional(c, va, true); },
            [&](Asid c) { fun.destroyProcessFunctional(c); });

        EXPECT_EQ(det.physMem().framesInUse(), fun.physMem().framesInUse())
            << "iteration " << iter;
        EXPECT_EQ(det.overlayManager().omsBytesInUse(),
                  fun.overlayManager().omsBytesInUse())
            << "iteration " << iter;
    }

    // The parent still works afterwards: data intact, detailed access
    // (the CoW/overlay machinery) still functional.
    std::uint64_t got = 0;
    fun.peek(fp, kBase + kPageSize, &got, 8);
    EXPECT_EQ(got, 1u);
    Tick after = fun.access(fp, kBase + kPageSize, true, 0);
    EXPECT_GT(after, 0u);
}

TEST(SampledForkBench, FullTwinIsByteIdenticalToDetailed)
{
    ForkBenchParams params = forkBenchByName("libq");
    params.warmupInstructions = 50'000;
    params.postForkInstructions = 400'000;

    SampledSimParams sp;
    sp.intervalInstructions = 100'000;
    sp.compareFull = true;

    ForkBenchSampledResult sampled = runForkBenchSampled(
        params, ForkMode::OverlayOnWrite, SystemConfig{}, sp);
    ForkBenchResult full =
        runForkBench(params, ForkMode::OverlayOnWrite, SystemConfig{});

    // The twin replays the identical op stream in one epoch: its CPI is
    // bit-equal to runForkBench's, not merely close.
    EXPECT_EQ(sampled.fullCpi, full.cpi);

    // Window bookkeeping covers the whole stream (a trailing op can
    // spill a handful of instructions into a fifth, partial window).
    ASSERT_GE(sampled.windows.size(), 4u);
    ASSERT_LE(sampled.windows.size(), 5u);
    std::uint64_t instr = 0;
    for (const SampledWindow &w : sampled.windows)
        instr += w.instructions;
    EXPECT_EQ(instr, sampled.totalInstructions);
    EXPECT_GE(sampled.totalInstructions, params.postForkInstructions);
    EXPECT_LT(sampled.detailedInstructions, sampled.totalInstructions);

    // The first window is the fork transient and runs fully detailed.
    EXPECT_EQ(sampled.windows[0].detailedInstructions,
              sampled.windows[0].instructions);
    EXPECT_EQ(sampled.windows[0].estimatedCycles,
              double(sampled.windows[0].detailedCycles));

    // Architectural event counts cannot differ between the modes.
    EXPECT_EQ(sampled.sampled.overlayingWrites, full.overlayingWrites);
    EXPECT_EQ(sampled.sampled.cowFaults, full.cowFaults);
    EXPECT_EQ(sampled.sampled.additionalMemoryMB, full.additionalMemoryMB);

    // Extrapolation quality: generous bound, the tight 5% gate lives in
    // CI on the full suite (fig09 --sample-check).
    EXPECT_LT(sampled.cpiErrorPct, 25.0);
    EXPECT_GT(sampled.sampled.cpi, 0.0);
}

TEST(SampledForkBench, SamplingIsDeterministic)
{
    ForkBenchParams params = forkBenchByName("mcf");
    params.warmupInstructions = 50'000;
    params.postForkInstructions = 300'000;

    SampledSimParams sp;
    sp.intervalInstructions = 100'000;

    ForkBenchSampledResult a = runForkBenchSampled(
        params, ForkMode::OverlayOnWrite, SystemConfig{}, sp);
    ForkBenchSampledResult b = runForkBenchSampled(
        params, ForkMode::OverlayOnWrite, SystemConfig{}, sp);
    EXPECT_EQ(a.sampled.cpi, b.sampled.cpi);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].detailedCycles, b.windows[i].detailedCycles);
        EXPECT_EQ(a.windows[i].instructions, b.windows[i].instructions);
    }
}

// ----- pinned functional behaviour --------------------------------------

/** 64-bit FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::uint8_t *bytes, std::size_t len)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * A functional lifecycle on a two-TLB machine: a detailed warm-up, fork
 * and parent writes (so the parent owns overlays in OoW mode), then a
 * functional fork, functional reads and writes from both processes on
 * both cores, and a functional teardown of the child. The footprint
 * (2.5 MiB) overflows the L3, so warming cascades dirty victims.
 *
 * @return FNV-1a of the machine's snapshot bytes.
 */
std::uint64_t
functionalLifecycleHash(ForkMode mode, bool overlays)
{
    constexpr unsigned kPages = 640;
    SystemConfig cfg;
    cfg.numTlbs = 2;
    cfg.overlaysEnabled = overlays;
    System sys(cfg);
    Asid parent = sys.createProcess();
    sys.mapAnon(parent, kBase, kPages * kPageSize);
    Tick t = 0;
    for (unsigned pg = 0; pg < kPages; ++pg) {
        for (unsigned l = 0; l < kLinesPerPage; l += 4) {
            std::uint64_t v = pg * 1000 + l;
            t = sys.write(parent, kBase + pg * kPageSize + l * kLineSize, &v,
                          8, t);
        }
    }
    sys.fork(parent, mode, t, &t);
    for (unsigned pg = 0; pg < 16; ++pg) {
        std::uint64_t v = ~std::uint64_t(pg);
        t = sys.write(parent, kBase + pg * kPageSize + 5 * kLineSize, &v, 8,
                      t);
    }

    Asid child = sys.forkFunctional(parent, mode);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        for (unsigned l = pg % 3; l < kLinesPerPage; l += 3) {
            Addr va = kBase + pg * kPageSize + l * kLineSize;
            bool is_write = (pg + l) % 4 == 0;
            sys.accessFunctional(child, va, is_write, (pg + l) % 2);
            if (l % 7 == 0)
                sys.accessFunctional(parent, va, !is_write, 0);
        }
    }
    sys.destroyProcessFunctional(child);

    snapshot::Writer w;
    sys.serialize(w);
    return fnv1a(w.buffer().data(), w.buffer().size());
}

/** Every deterministic field of a sampled run, printed at %.17g. */
std::string
describeSampled(const ForkBenchSampledResult &r)
{
    std::string out;
    char buf[160];
    auto add = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };
    const ForkBenchResult &s = r.sampled;
    add("%s %u %d mem=%.17g cpi=%.17g cow=%" PRIu64 " ow=%" PRIu64
        " fork=%" PRIu64 "\n",
        s.name.c_str(), s.type, int(s.mode), s.additionalMemoryMB, s.cpi,
        s.cowFaults, s.overlayingWrites, std::uint64_t(s.forkLatency));
    add("total=%" PRIu64 " detailed=%" PRIu64 "\n", r.totalInstructions,
        r.detailedInstructions);
    for (const SampledWindow &w : r.windows) {
        add("w %" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g\n", w.instructions,
            w.detailedInstructions, std::uint64_t(w.detailedCycles),
            w.estimatedCycles);
    }
    return out;
}

TEST(FunctionalPin, LifecycleSnapshotIsPinned)
{
    // The functional fast-forward's complete effect on the machine —
    // memory, page tables, overlays, cache tags and replacement state,
    // TLBs, DRAM state and every statistic — pinned through the
    // snapshot bytes. A refactor of the functional paths must leave
    // these hashes unchanged.
    EXPECT_EQ(functionalLifecycleHash(ForkMode::OverlayOnWrite, true),
              15257759648610594546ull);
    EXPECT_EQ(functionalLifecycleHash(ForkMode::CopyOnWrite, false),
              12771713388251882649ull);
}

TEST(FunctionalPin, SampledForkBenchIsPinned)
{
    std::string all;
    for (const char *name : {"libq", "cactus", "mcf"}) {
        for (ForkMode mode :
             {ForkMode::CopyOnWrite, ForkMode::OverlayOnWrite}) {
            ForkBenchParams params = forkBenchByName(name);
            params.warmupInstructions = 50'000;
            params.postForkInstructions = 300'000;
            SampledSimParams sp;
            sp.intervalInstructions = 100'000;
            all += describeSampled(
                runForkBenchSampled(params, mode, SystemConfig{}, sp));
        }
    }
    EXPECT_EQ(fnv1a(reinterpret_cast<const std::uint8_t *>(all.data()),
                    all.size()),
              15357889566865919812ull)
        << all;
}

} // namespace
} // namespace ovl
