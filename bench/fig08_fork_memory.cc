/**
 * @file
 * Figure 8: additional memory consumed after a fork — copy-on-write vs
 * overlay-on-write, 15 benchmarks in 3 write-working-set types plus the
 * mean. Also reports the headline memory-capacity reduction (the paper
 * measures 53% on average).
 *
 * Warm-start execution (DESIGN.md §11): each benchmark simulates its
 * warmup prefix once, then both fork modes run from a clone of the warm
 * machine — the prefix is mode-independent, so the rows are byte-
 * identical to cold runs at half the warmup cost. The 15 benchmark
 * items are independent and fan out over the parallel sweep runner
 * (`--jobs N`); output is byte-identical to the serial run.
 *
 * `overlaysim forkbench <name> --mode cow|oow|both --trace-out FILE`
 * traces the same runs.
 */

#include <cstdio>
#include <vector>

#include "sim/parallel.hh"
#include "system/config.hh"
#include "workload/forkbench.hh"

using namespace ovl;

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Figure 8: additional memory consumed after a fork (MB)\n");
    std::printf("(synthetic SPEC-like workloads; see DESIGN.md section 3"
                " for scaling)\n\n");
    std::printf("%-10s %-5s %14s %16s %11s\n", "benchmark", "type",
                "copy-on-write", "overlay-on-write", "reduction");
    std::printf("%.*s\n", 60,
                "------------------------------------------------------"
                "------");

    struct Pair
    {
        ForkBenchResult cow, oow;
    };
    const std::vector<ForkBenchParams> &suite = forkBenchSuite();
    std::vector<Pair> results = parallelMap(
        suite.size(),
        [&suite](std::size_t i) {
            ForkBenchWarmState warm =
                prepareForkBenchWarmState(suite[i], SystemConfig{});
            Pair pair;
            pair.cow =
                runForkBenchFromWarmState(warm, ForkMode::CopyOnWrite);
            pair.oow =
                runForkBenchFromWarmState(warm, ForkMode::OverlayOnWrite);
            return pair;
        },
        jobs,
        [&suite](std::size_t i) { return suite[i].name; });

    double cow_sum = 0, oow_sum = 0, reduction_sum = 0;
    unsigned count = 0, last_type = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const ForkBenchParams &params = suite[i];
        if (params.type != last_type) {
            std::printf("-- Type %u --\n", params.type);
            last_type = params.type;
        }
        const ForkBenchResult &cow = results[i].cow;
        const ForkBenchResult &oow = results[i].oow;
        double reduction =
            cow.additionalMemoryMB > 0
                ? 100.0 * (1.0 - oow.additionalMemoryMB /
                                     cow.additionalMemoryMB)
                : 0.0;
        std::printf("%-10s %-5u %14.2f %16.2f %10.1f%%\n",
                    params.name.c_str(), params.type,
                    cow.additionalMemoryMB, oow.additionalMemoryMB,
                    reduction);
        cow_sum += cow.additionalMemoryMB;
        oow_sum += oow.additionalMemoryMB;
        reduction_sum += reduction;
        ++count;
    }

    std::printf("%.*s\n", 60,
                "------------------------------------------------------"
                "------");
    std::printf("%-10s %-5s %14.2f %16.2f %10.1f%%\n", "mean", "-",
                cow_sum / count, oow_sum / count, reduction_sum / count);
    std::printf("\nPaper: overlay-on-write reduces additional memory by"
                " 53%% on average.\n");
    std::printf("Measured: %.1f%% mean per-benchmark reduction"
                " (%.1f%% of total bytes).\n",
                reduction_sum / count, 100.0 * (1.0 - oow_sum / cow_sum));
    return 0;
}
