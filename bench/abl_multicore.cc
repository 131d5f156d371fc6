/**
 * @file
 * Ablation: fine-grained TLB coherence under multithreading. A process
 * with a reader thread on core 1 and a writer thread on core 0 diverging
 * shared (forked) pages: with copy-on-write every divergence remaps a
 * page and shoots down the reader's translations; with overlay-on-write
 * the reader's TLB entries are updated in place by ORE messages and its
 * translations survive (§4.3.3).
 *
 * The two mechanism runs are independent Systems and fan out over the
 * parallel sweep runner (`--jobs N`).
 */

#include <cstdio>
#include <vector>

#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "sim/parallel.hh"
#include "system/system.hh"

using namespace ovl;

namespace
{

constexpr Addr kBase = 0x100000;
constexpr unsigned kPages = 512;

struct Result
{
    double readerCpi;
    std::uint64_t readerWalks;
};

Result
run(ForkMode mode)
{
    SystemConfig cfg;
    cfg.numTlbs = 2;
    System sys(cfg);
    Asid proc = sys.createProcess();
    sys.mapAnon(proc, kBase, kPages * kPageSize);

    OooCore writer("writer", sys, 0);
    OooCore reader("reader", sys, 1);
    Rng rng(31);

    // Warm both cores' TLBs over the region.
    writer.beginEpoch(0);
    reader.beginEpoch(0);
    for (unsigned p = 0; p < kPages; ++p) {
        writer.executeOp(proc, TraceOp::load(kBase + p * kPageSize));
        reader.executeOp(proc, TraceOp::load(kBase + p * kPageSize));
    }
    Tick t = std::max(writer.finishEpoch(), reader.finishEpoch());

    // Snapshot (fork); the child is the checkpoint holder and idles.
    sys.fork(proc, mode, t, &t);
    sys.resetStats();

    std::uint64_t walks_before =
        sys.tlb(1).l2().misses(); // core-1 L2 TLB misses ~ walks

    // Interleave with comparable per-core instruction budgets so the two
    // clocks stay loosely synchronized: the writer dirties one fresh
    // line per ~400 instructions of its own work; the reader scans.
    writer.beginEpoch(t);
    reader.beginEpoch(t);
    for (unsigned p = 0; p < kPages; ++p) {
        writer.executeOp(proc, TraceOp::compute(300));
        writer.executeOp(proc,
                         TraceOp::store(kBase + p * kPageSize +
                                        (p % kLinesPerPage) * kLineSize));
        for (unsigned r = 0; r < 24; ++r) {
            Addr addr = kBase + rng.below(kPages) * kPageSize +
                        rng.below(kLinesPerPage) * kLineSize;
            reader.executeOp(proc, TraceOp::load(addr));
            reader.executeOp(proc, TraceOp::compute(12));
        }
    }
    writer.finishEpoch();
    reader.finishEpoch();

    Result res;
    res.readerCpi = reader.epochCpi();
    res.readerWalks = sys.tlb(1).l2().misses() - walks_before;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Ablation: reader-thread disturbance while a writer"
                " thread diverges\nforked pages (2 cores, one process)\n\n");
    std::vector<Result> results = parallelMap(
        2,
        [](std::size_t i) {
            return run(i == 0 ? ForkMode::CopyOnWrite
                              : ForkMode::OverlayOnWrite);
        },
        jobs,
        [](std::size_t i) {
            return std::string(i == 0 ? "copy-on-write"
                                      : "overlay-on-write");
        });
    const Result &cow = results[0];
    const Result &oow = results[1];
    std::printf("%-18s %12s %18s\n", "mechanism", "reader CPI",
                "reader TLB walks");
    std::printf("copy-on-write      %12.3f %18llu\n", cow.readerCpi,
                (unsigned long long)cow.readerWalks);
    std::printf("overlay-on-write   %12.3f %18llu\n", oow.readerCpi,
                (unsigned long long)oow.readerWalks);
    std::printf("\nEvery CoW divergence hurts the reader twice: the"
                " shootdown drops its\ntranslation (re-walk, 1000 cycles)"
                " and the remap moves the page to a fresh\nframe, turning"
                " all its cached lines cold. The ORE message instead"
                " updates\nthe reader's TLB entry in place and retags one"
                " line: %.1fx fewer re-walks,\n%.1fx reader speedup"
                " (§4.3.3).\n",
                double(cow.readerWalks) / double(std::max<std::uint64_t>(
                                              1, oow.readerWalks)),
                cow.readerCpi / oow.readerCpi);
    return 0;
}
