/**
 * @file
 * Figure 10: sparse-matrix-vector multiplication with the overlay
 * representation, normalized to CSR [26], across 87 matrices sorted by
 * non-zero value locality L. Reproduces the paper's series (relative
 * performance and relative memory capacity) and its summary statistics:
 * the extremes (poisson3Db, raefsky4), the L ~ 4.5 crossover guidance,
 * and the count of matrices where overlays win.
 */

#include <cstdio>
#include <vector>

#include "common/random.hh"
#include "sim/parallel.hh"
#include "sparse/spmv.hh"
#include "workload/matrixgen.hh"

using namespace ovl;

namespace
{

struct Row
{
    std::string name;
    double locality = 0;
    double relPerf = 0; ///< CSR cycles / overlay cycles (higher = better)
    double relMem = 0;  ///< overlay bytes / CSR bytes (lower = better)
};

Row
runOne(const MatrixSpec &spec)
{
    CooMatrix coo = generateMatrix(spec);
    std::vector<double> x(coo.cols);
    Rng rng(77);
    for (double &v : x)
        v = rng.uniform();

    SpmvRun overlay = runSpmv(coo, x, SpmvRep::Overlay);
    SpmvRun csr = runSpmv(coo, x, SpmvRep::Csr);

    Row row;
    row.name = coo.name;
    row.locality = analyzeMatrix(coo, kLineSize).locality;
    row.relPerf = double(csr.result.cycles) / double(overlay.result.cycles);
    row.relMem = double(overlay.bytes) / double(csr.bytes);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Figure 10: SpMV with page overlays vs CSR, 87 matrices"
                " sorted by L\n");
    std::printf("(synthetic suite standing in for the UF collection; see"
                " DESIGN.md section 3)\n\n");
    std::printf("%-22s %6s %18s %18s\n", "matrix", "L",
                "perf (x CSR)", "memory (x CSR)");
    std::printf("%.*s\n", 68,
                "------------------------------------------------------"
                "--------------");

    // 87 independent matrix evaluations (two runSpmv each) fanned out
    // over the sweep runner; rows render in L order afterwards.
    const std::vector<MatrixSpec> suite = sparseSuite87();
    std::vector<Row> rows = parallelMap(
        suite.size(),
        [&suite](std::size_t i) { return runOne(suite[i]); }, jobs,
        [&suite](std::size_t i) { return suite[i].name; });

    unsigned perf_wins = 0, mem_wins = 0, both_wins = 0, high_l = 0;
    double high_perf_sum = 0, high_mem_sum = 0;
    for (const Row &row : rows) {
        std::printf("%-22s %6.2f %18.3f %18.3f\n", row.name.c_str(),
                    row.locality, row.relPerf, row.relMem);
        perf_wins += row.relPerf > 1.0;
        mem_wins += row.relMem < 1.0;
        both_wins += row.relPerf > 1.0 && row.relMem < 1.0;
        if (row.locality > 4.5) {
            ++high_l;
            high_perf_sum += row.relPerf;
            high_mem_sum += row.relMem;
        }
    }

    const Row &lo = rows.front();
    const Row &hi = rows.back();
    std::printf("%.*s\n", 68,
                "------------------------------------------------------"
                "--------------");
    std::printf("\nExtremes (paper: poisson3Db 4.83x memory / 0.30x perf;"
                " raefsky4 0.66x / 1.92x):\n");
    std::printf("  %-12s L=%.2f: %.2fx memory, %.2fx perf\n",
                lo.name.c_str(), lo.locality, lo.relMem, lo.relPerf);
    std::printf("  %-12s L=%.2f: %.2fx memory, %.2fx perf\n",
                hi.name.c_str(), hi.locality, hi.relMem, hi.relPerf);
    std::printf("\nOverlays outperform CSR on %u/87 matrices; use less"
                " memory on %u/87; both on %u/87.\n",
                perf_wins, mem_wins, both_wins);
    std::printf("For the %u matrices with L > 4.5 (paper: 34): mean perf"
                " %.2fx CSR, mean memory %.2fx CSR\n",
                high_l, high_perf_sum / high_l, high_mem_sum / high_l);
    std::printf("(paper reports +27%% performance and -8%% memory for"
                " that group).\n");
    std::printf("\nGuidance: employ CSR at low L, overlays at high L;"
                " the paper draws the line at L ~ 4.5.\n");
    return 0;
}
