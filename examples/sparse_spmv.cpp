/**
 * @file
 * Sparse matrix-vector multiplication with page overlays (§5.2).
 *
 * Stores a sparse matrix three ways — dense, CSR, and as zero-backed
 * overlay pages — runs SpMV on each through the timing model, verifies
 * all three produce the same result, and demonstrates the cheap dynamic
 * update that software formats lack.
 *
 * Build & run:  ./build/examples/sparse_spmv
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/random.hh"
#include "sparse/overlay_matrix.hh"
#include "sparse/spmv.hh"
#include "workload/matrixgen.hh"

using namespace ovl;

int
main()
{
    // A block-dense matrix with high non-zero locality (overlay-friendly).
    MatrixSpec spec;
    spec.name = "example";
    spec.family = MatrixFamily::BlockDense;
    spec.blockRunLines = 96;
    spec.rows = 512;
    spec.cols = 512;
    spec.nnz = 20'000;
    spec.targetL = 7.0;
    CooMatrix coo = generateMatrix(spec);
    MatrixStats stats = analyzeMatrix(coo, kLineSize);
    std::printf("Matrix: %ux%u, %llu non-zeros, locality L = %.2f\n",
                coo.rows, coo.cols, (unsigned long long)coo.nnz(),
                stats.locality);

    std::vector<double> x(coo.cols);
    Rng rng(2026);
    for (double &v : x)
        v = rng.uniform();
    std::vector<double> reference = spmvReference(coo, x);

    auto check = [&](const char *name, const SpmvResult &res) {
        double max_err = 0;
        for (std::size_t i = 0; i < reference.size(); ++i)
            max_err = std::max(max_err,
                               std::fabs(res.y[i] - reference[i]));
        std::printf("  %-8s %10llu cycles, %8llu instructions, "
                    "max |err| = %.2e\n",
                    name, (unsigned long long)res.cycles,
                    (unsigned long long)res.instructions, max_err);
        return max_err < 1e-9;
    };

    std::printf("\nSpMV through the Table 2 machine:\n");
    SpmvRun dense = runSpmv(coo, x, SpmvRep::Dense);
    SpmvRun csr = runSpmv(coo, x, SpmvRep::Csr);
    SpmvRun overlay = runSpmv(coo, x, SpmvRep::Overlay);
    bool ok = check("dense", dense.result);
    ok &= check("CSR", csr.result);
    ok &= check("overlay", overlay.result);
    std::printf("\nOverlay representation stores %.1f KB "
                "(dense layout would be %.1f KB).\n",
                double(overlay.bytes) / 1024.0, double(dense.bytes) / 1024.0);
    std::printf("Overlay speedup over CSR: %.2fx\n",
                double(csr.result.cycles) / double(overlay.result.cycles));

    // Dynamic update: one overlaying write, no array shifting.
    System sys((SystemConfig()));
    OverlayMatrix matrix(sys, sys.createProcess(), SpmvAddrs{}.aBase);
    matrix.build(coo);
    std::uint64_t before = sys.overlayingWrites();
    matrix.insert(100, 400, 2.5, 0);
    std::printf("\nDynamic insert of a new non-zero: "
                "%llu overlaying write(s); element now reads %.1f\n",
                (unsigned long long)(sys.overlayingWrites() - before),
                matrix.at(100, 400));

    std::printf("\n%s\n", ok ? "All representations agree."
                             : "MISMATCH DETECTED");
    return ok ? 0 : 1;
}
