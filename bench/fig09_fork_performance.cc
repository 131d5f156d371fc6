/**
 * @file
 * Figure 9: performance (cycles per instruction, lower is better) after
 * a fork — copy-on-write vs overlay-on-write across the 15-benchmark
 * suite. The paper measures a 15% average performance improvement.
 *
 * In detailed mode each benchmark is one runForkBenchPair (DESIGN.md
 * §11.3): the warmup prefix is simulated once and both fork modes run
 * from it — byte-identical rows at half the warmup cost. The benchmark
 * items are independent, so they fan out over the parallel sweep runner
 * (`--jobs N`); rows render in suite order afterwards, byte-identical
 * to `--jobs 1`.
 *
 * `--sample-interval N` switches the suite to sampled simulation
 * (DESIGN.md §10): each window of N post-fork instructions runs a
 * detailed prefix (`--detail M`, default N/10) and fast-forwards the
 * rest functionally; CPI is extrapolated per window. `--sample-check`
 * additionally runs the full-detail twin of every row and reports the
 * extrapolation error, failing if the mean CPI error exceeds 5%.
 * Sampled mode also prints the host-time split of the post-fork phase
 * (detailed prefix vs functional fast-forward wall seconds) — the
 * measured cost of the detail the sampling skips. N and M are strict
 * decimals: `1e6` or `5k` exits 1 with a diagnostic, and so does an M
 * outside 1..N or an M without N.
 *
 * `overlaysim forkbench <name> --mode cow|oow|both --trace-out FILE`
 * traces the same runs.
 */

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/parallel.hh"
#include "system/config.hh"
#include "workload/forkbench.hh"

using namespace ovl;

namespace
{

/** `--sample-check` fails the run above this mean CPI error (%). */
constexpr double kSampleCheckThresholdPct = 5.0;

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    unsigned jobs = 1;
    SampledSimParams sampled;
    std::optional<std::uint64_t> detail;
    try {
        jobs = takeJobs(args);
        sampled.intervalInstructions =
            cli::takeCount(args, "--sample-interval").value_or(0);
        detail = cli::takeCount(args, "--detail");
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    sampled.compareFull = cli::takeSwitch(args, "--sample-check");
    if (!args.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--jobs N] [--progress]"
                     " [--sample-interval N [--detail M]"
                     " [--sample-check]]\n",
                     argv[0]);
        return 1;
    }
    if (sampled.compareFull && sampled.intervalInstructions == 0) {
        std::fprintf(stderr, "%s: --sample-check needs --sample-interval\n",
                     argv[0]);
        return 1;
    }
    if (detail) {
        // The detailed prefix is part of each window: 1 to N.
        if (sampled.intervalInstructions == 0) {
            std::fprintf(stderr, "%s: --detail needs --sample-interval\n",
                         argv[0]);
            return 1;
        }
        if (*detail == 0 || *detail > sampled.intervalInstructions) {
            std::fprintf(stderr,
                         "%s: --detail expects 1 to the --sample-interval"
                         " %llu, got %llu\n",
                         argv[0],
                         (unsigned long long)sampled.intervalInstructions,
                         (unsigned long long)*detail);
            return 1;
        }
        sampled.detailedInstructions = *detail;
    }

    const bool sampling = sampled.intervalInstructions != 0;
    std::printf("Figure 9: CPI after a fork (lower is better)%s\n\n",
                sampling ? " [sampled simulation]" : "");
    std::printf("%-10s %-5s %14s %16s %9s\n", "benchmark", "type",
                "copy-on-write", "overlay-on-write", "speedup");
    std::printf("%.*s\n", 58,
                "------------------------------------------------------"
                "----");

    const std::vector<ForkBenchParams> &suite = forkBenchSuite();
    std::vector<ForkBenchSampledResult> sampled_results;
    std::vector<ForkBenchPair> pairs;
    if (sampling) {
        // Sampled mode keeps one System per (benchmark, mode) item: the
        // sampled flow interleaves detailed and functional execution and
        // does not go through the warm-start path.
        sampled_results = parallelMap(
            suite.size() * 2,
            [&suite, &sampled](std::size_t i) {
                ForkMode mode = i % 2 ? ForkMode::OverlayOnWrite
                                      : ForkMode::CopyOnWrite;
                return runForkBenchSampled(suite[i / 2], mode,
                                           SystemConfig{}, sampled);
            },
            jobs,
            [&suite](std::size_t i) {
                return suite[i / 2].name + (i % 2 ? "/oow" : "/cow");
            });
        for (std::size_t i = 0; i < suite.size(); ++i) {
            pairs.push_back({sampled_results[2 * i].sampled,
                             sampled_results[2 * i + 1].sampled});
        }
    } else {
        pairs = parallelMap(
            suite.size(),
            [&suite](std::size_t i) {
                return runForkBenchPair(suite[i], SystemConfig{});
            },
            jobs,
            [&suite](std::size_t i) { return suite[i].name; });
    }

    double speedup_sum = 0;
    unsigned count = 0, last_type = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const ForkBenchParams &params = suite[i];
        if (params.type != last_type) {
            std::printf("-- Type %u --\n", params.type);
            last_type = params.type;
        }
        const ForkBenchResult &cow = pairs[i].cow;
        const ForkBenchResult &oow = pairs[i].oow;
        double speedup = cow.cpi / oow.cpi;
        std::printf("%-10s %-5u %14.3f %16.3f %8.3fx\n",
                    params.name.c_str(), params.type, cow.cpi, oow.cpi,
                    speedup);
        speedup_sum += speedup;
        ++count;
    }

    std::printf("%.*s\n", 58,
                "------------------------------------------------------"
                "----");

    if (sampling) {
        // Host-time attribution of the post-fork phase: wall seconds in
        // the detailed prefixes vs the functional fast-forward. This is
        // host telemetry (varies run to run), never a golden figure.
        double det = 0, ff = 0;
        for (const ForkBenchSampledResult &r : sampled_results) {
            det += r.detailedHostSeconds;
            ff += r.functionalHostSeconds;
        }
        double total = det + ff;
        std::printf("\nHost time, post-fork phase: detailed %.2fs"
                    " (%.0f%%), functional fast-forward %.2fs (%.0f%%)\n",
                    det, total > 0 ? 100.0 * det / total : 0.0, ff,
                    total > 0 ? 100.0 * ff / total : 0.0);
    }

    if (sampled.compareFull) {
        std::printf("\nSampled-vs-full extrapolation error (CPI %% / mean"
                    " window %% / max window %%):\n");
        double mean_cpi_err = 0;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const ForkBenchSampledResult &cow = sampled_results[2 * i];
            const ForkBenchSampledResult &oow = sampled_results[2 * i + 1];
            std::printf("%-10s cow %6.2f / %6.2f / %6.2f   oow %6.2f /"
                        " %6.2f / %6.2f\n",
                        suite[i].name.c_str(), cow.cpiErrorPct,
                        cow.meanWindowErrorPct, cow.maxWindowErrorPct,
                        oow.cpiErrorPct, oow.meanWindowErrorPct,
                        oow.maxWindowErrorPct);
            mean_cpi_err += cow.cpiErrorPct + oow.cpiErrorPct;
        }
        mean_cpi_err /= double(suite.size() * 2);
        std::printf("mean CPI error: %.2f%% (threshold %.2f%%)\n",
                    mean_cpi_err, kSampleCheckThresholdPct);
        if (mean_cpi_err > kSampleCheckThresholdPct) {
            std::fprintf(stderr,
                         "sample-check FAILED: mean CPI error %.2f%% >"
                         " %.2f%%\n",
                         mean_cpi_err, kSampleCheckThresholdPct);
            return 1;
        }
    }

    std::printf("\nPaper: overlay-on-write improves performance by 15%% on"
                " average;\n       cactus is the one benchmark where"
                " copy-on-write wins (clustered writes).\n");
    std::printf("Measured: %.1f%% mean speedup.\n",
                100.0 * (speedup_sum / count - 1.0));
    return 0;
}
