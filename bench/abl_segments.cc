/**
 * @file
 * Ablation: Overlay Memory Store organization (§4.4). Compares the
 * paper's five-class compact segments against the simple
 * full-page-per-overlay alternative (§4.4: "will forgo the memory
 * capacity benefit") and against compact segments with the buddy
 * coalescing extension, on a Type-3 fork workload whose overlays are
 * small (few lines per page).
 *
 * The three variants plus the copy-on-write reference are independent
 * Systems and fan out over the parallel sweep runner (`--jobs N`).
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "sim/parallel.hh"
#include "workload/forkbench.hh"

using namespace ovl;

int
main(int argc, char **argv)
{
    unsigned jobs = jobsFromCommandLine(argc, argv);

    std::printf("Ablation: OMS segment organization (overlay-on-write,"
                " astar)\n\n");
    std::printf("%-28s %10s %14s\n", "organization", "CPI",
                "extra memory");
    std::printf("%.*s\n", 54,
                "------------------------------------------------------");

    ForkBenchParams params = forkBenchByName("astar");
    params.postForkInstructions = 2'000'000;

    struct Variant
    {
        const char *name;
        bool full_page;
        bool coalesce;
    };
    const Variant variants[] = {
        {"compact segments (paper)", false, false},
        {"compact + buddy coalescing", false, true},
        {"full page per overlay", true, false},
    };

    // Item 3 is the copy-on-write reference row.
    std::vector<ForkBenchResult> results = parallelMap(
        std::size(variants) + 1,
        [&variants, &params](std::size_t i) {
            if (i == std::size(variants))
                return runForkBench(params, ForkMode::CopyOnWrite,
                                    SystemConfig{});
            SystemConfig cfg;
            cfg.overlay.fullPageSegments = variants[i].full_page;
            cfg.overlay.allocator.coalesce = variants[i].coalesce;
            return runForkBench(params, ForkMode::OverlayOnWrite, cfg);
        },
        jobs,
        [&variants](std::size_t i) {
            return std::string(i == std::size(variants)
                                   ? "copy-on-write reference"
                                   : variants[i].name);
        });

    double compact_mb = 0;
    double full_page_mb = 0;
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        const Variant &v = variants[i];
        const ForkBenchResult &res = results[i];
        std::printf("%-28s %10.3f %12.2fMB\n", v.name, res.cpi,
                    res.additionalMemoryMB);
        if (v.full_page)
            full_page_mb = res.additionalMemoryMB;
        else if (!v.coalesce)
            compact_mb = res.additionalMemoryMB;
    }

    const ForkBenchResult &cow = results[std::size(variants)];
    std::printf("%-28s %10.3f %12.2fMB\n", "copy-on-write (reference)",
                cow.cpi, cow.additionalMemoryMB);

    std::printf("\nFull-page overlays keep the work-reduction benefit but"
                " not the capacity one\n(%.2f MB vs %.2f MB compact);"
                " the segmented OMS delivers both (§4.4).\n",
                full_page_mb, compact_mb);
    return 0;
}
