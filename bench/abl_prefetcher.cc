/**
 * @file
 * Ablation: overlay-aware prefetching for sparse computation (§5.2: "the
 * hardware ... can efficiently prefetch the overlay cache lines and hide
 * the latency of memory accesses"). Runs the overlay SpMV with and
 * without the OBitVector-directed prefetch and with/without the regular
 * stream prefetcher.
 *
 * The four variants are independent Systems over a shared read-only
 * matrix and fan out over the parallel sweep runner (`--jobs N`); the
 * baseline normalization happens in the ordered render loop.
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "sim/parallel.hh"
#include "sparse/overlay_matrix.hh"
#include "sparse/spmv.hh"
#include "workload/matrixgen.hh"

using namespace ovl;

namespace
{

Tick
runOverlaySpmv(const SystemConfig &cfg, const CooMatrix &coo,
               const std::vector<double> &x, bool overlay_prefetch)
{
    SpmvAddrs addrs;
    System sys(cfg);
    OooCore core("core", sys);
    Asid asid = sys.createProcess();
    installVectors(sys, asid, addrs, x, coo.rows);
    OverlayMatrix matrix(sys, asid, addrs.aBase);
    matrix.build(coo);

    if (overlay_prefetch) {
        SpmvResult res = spmvOverlay(sys, core, matrix, addrs, x, 0);
        return res.cycles;
    }
    // Same walk, without the OBitVector-directed prefetch: re-implement
    // the loop minus prefetchOverlayPage calls.
    const DenseLayout &layout = matrix.layout();
    core.beginEpoch(0);
    Addr last_page = kInvalidAddr;
    BitVector64 obv;
    for (std::uint32_t r = 0; r < layout.rows; ++r) {
        for (std::uint32_t c0 = 0; c0 < layout.cols;
             c0 += DenseLayout::kValuesPerLine) {
            Addr a_line = matrix.addrOf(r, c0);
            if (pageBase(a_line) != last_page) {
                last_page = pageBase(a_line);
                obv = sys.pageObv(asid, a_line);
                core.executeOp(asid, TraceOp::compute(1));
            }
            if (!obv.test(lineInPage(a_line)))
                continue;
            core.executeOp(asid, TraceOp::load(a_line));
            core.executeOp(asid,
                           TraceOp::load(addrs.xBase + Addr(c0) * 8));
            core.executeOp(asid, TraceOp::compute(kLineComputeOps));
        }
        core.executeOp(asid, TraceOp::compute(kRowOverheadOps));
        core.executeOp(asid, TraceOp::store(addrs.yBase + Addr(r) * 8));
    }
    core.finishEpoch();
    return core.epochCycles();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Ablation: prefetching for overlay-based SpMV\n\n");

    MatrixSpec spec;
    spec.family = MatrixFamily::BlockDense;
    spec.blockRunLines = 128;
    spec.targetL = 7.0;
    CooMatrix coo = generateMatrix(spec);
    std::vector<double> x(coo.cols);
    Rng rng(4);
    for (double &v : x)
        v = rng.uniform();

    struct Variant
    {
        const char *name;
        bool overlay_pf;
        bool stream_pf;
    };
    const Variant variants[] = {
        {"overlay-aware + stream prefetch (paper)", true, true},
        {"stream prefetch only", false, true},
        {"overlay-aware only", true, false},
        {"no prefetching", false, false},
    };

    std::printf("%-42s %12s %9s\n", "configuration", "cycles", "norm");
    std::printf("%.*s\n", 66,
                "------------------------------------------------------"
                "------------");

    std::vector<Tick> cycles = parallelMap(
        std::size(variants),
        [&variants, &coo, &x](std::size_t i) {
            SystemConfig cfg;
            cfg.caches.prefetcher.enabled = variants[i].stream_pf;
            return runOverlaySpmv(cfg, coo, x, variants[i].overlay_pf);
        },
        jobs,
        [&variants](std::size_t i) {
            return std::string(variants[i].name);
        });

    Tick baseline = 0;
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        if (baseline == 0)
            baseline = cycles[i];
        std::printf("%-42s %12llu %8.2fx\n", variants[i].name,
                    (unsigned long long)cycles[i],
                    double(cycles[i]) / double(baseline));
    }
    std::printf("\nThe OBitVector tells the hardware exactly which lines"
                " to fetch; without it,\nsparse overlay lines defeat the"
                " stream prefetcher (§5.2).\n");
    return 0;
}
