/**
 * @file
 * Ablation: the overlay-promotion policy (§4.3.4). When an overlay
 * accumulates many lines, the OS can convert it back to a regular page
 * (copy-and-commit). Sweeps the promotion threshold on a Type-2
 * streaming workload (whose pages get ~62/64 lines dirtied) and a
 * Type-3 sparse workload (~4 lines/page) to show the policy trade-off.
 *
 * Warm-start execution (DESIGN.md §11): the promotion threshold is a
 * policy field that only matters once overlays exist, and no overlay
 * exists before the fork — so each benchmark warms up once and all five
 * thresholds fork from clones of the one warm machine (byte-identical
 * to per-cell cold runs, one warmup instead of five). The two benchmark
 * items fan out over the parallel sweep runner (`--jobs N`).
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "sim/parallel.hh"
#include "workload/forkbench.hh"

using namespace ovl;

namespace
{

constexpr const char *kBenches[] = {"lbm", "mcf"};
constexpr unsigned kThresholds[] = {8u, 16u, 32u, 48u, 64u};
constexpr std::size_t kNumThresholds = std::size(kThresholds);

std::vector<ForkBenchResult>
runBench(const char *bench_name)
{
    ForkBenchParams params = forkBenchByName(bench_name);
    params.postForkInstructions = 2'000'000;
    ForkBenchWarmState warm =
        prepareForkBenchWarmState(params, SystemConfig{});
    std::vector<ForkBenchResult> rows;
    for (unsigned threshold : kThresholds) {
        SystemConfig cfg;
        cfg.promoteThresholdLines = threshold;
        rows.push_back(runForkBenchFromWarmState(
            warm, ForkMode::OverlayOnWrite, &cfg));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Ablation: overlay promotion threshold (§4.3.4's"
                " copy-and-commit policy)\n");
    std::printf("(* = promotion disabled, the evaluation default)\n\n");

    std::vector<std::vector<ForkBenchResult>> bench_rows = parallelMap(
        std::size(kBenches),
        [](std::size_t i) { return runBench(kBenches[i]); }, jobs,
        [](std::size_t i) { return std::string(kBenches[i]); });
    std::vector<ForkBenchResult> results;
    for (const auto &rows : bench_rows)
        results.insert(results.end(), rows.begin(), rows.end());

    for (std::size_t b = 0; b < std::size(kBenches); ++b) {
        ForkBenchParams params = forkBenchByName(kBenches[b]);
        std::printf("%s (type %u, ~%u lines per dirtied page):\n",
                    kBenches[b], params.type, params.linesPerDirtyPage);
        std::printf("  %12s %10s %14s\n", "threshold", "CPI",
                    "extra memory");
        for (std::size_t t = 0; t < kNumThresholds; ++t) {
            unsigned threshold = kThresholds[t];
            const ForkBenchResult &res = results[b * kNumThresholds + t];
            std::printf("  %11u%s %10.3f %12.2fMB%s\n", threshold,
                        threshold == 64 ? "*" : " ", res.cpi,
                        res.additionalMemoryMB,
                        threshold == 64 ? "  (disabled)" : "");
        }
        std::printf("\n");
    }

    std::printf("On dense overlays (lbm) promotion costs pure overhead:"
                " each converted page\npays a 64-line copy-and-commit"
                " while a 62-line overlay already occupies a\nfull 4 KB"
                " segment, so no memory is recovered. On sparse overlays"
                " (mcf, ~4\nlines) no overlay ever reaches the threshold,"
                " so the policy is inert. The\nevaluation therefore runs"
                " with promotion disabled; it exists for workloads\nthat"
                " keep writing into fully-populated overlays (§4.3.4).\n");
    return 0;
}
