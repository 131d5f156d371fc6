/**
 * @file
 * Ablation: the DRAM controller's write buffer (Table 2: 64 entries,
 * drain when full [34]). Sweeps the buffer size on the most
 * write-intensive workload (lbm streaming) under both fork modes —
 * overlay-on-write generates OMS write traffic (data + segment metadata)
 * that the buffer must absorb.
 *
 * The four buffer sizes are independent System pairs and fan out over
 * the parallel sweep runner (`--jobs N`). The buffer depth is
 * structural (it shapes the DRAM controller), so warm states cannot be
 * shared across sizes — but within a size the warmup prefix is
 * mode-independent, so each size warms up once and forks both modes
 * from the warm machine (DESIGN.md §11).
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

    std::printf("Ablation: DRAM write-buffer entries (lbm, streaming"
                " writes)\n\n");
    std::printf("%10s %16s %16s\n", "entries", "CoW CPI", "OoW CPI");
    std::printf("%.*s\n", 44, "--------------------------------------------");

    ForkBenchParams params = forkBenchByName("lbm");
    params.postForkInstructions = 2'000'000;

    const unsigned entries[] = {4u, 16u, 64u, 256u};

    struct Row
    {
        ForkBenchResult cow, oow;
    };
    std::vector<Row> rows = parallelMap(
        std::size(entries),
        [&entries, &params](std::size_t i) {
            SystemConfig cfg;
            cfg.writeBufferEntries = entries[i];
            ForkBenchWarmState warm =
                prepareForkBenchWarmState(params, cfg);
            Row row;
            row.cow =
                runForkBenchFromWarmState(warm, ForkMode::CopyOnWrite);
            row.oow =
                runForkBenchFromWarmState(warm, ForkMode::OverlayOnWrite);
            return row;
        },
        jobs,
        [&entries](std::size_t i) {
            return "wbuf=" + std::to_string(entries[i]);
        });

    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%10u %16.3f %16.3f%s\n", entries[i], rows[i].cow.cpi,
                    rows[i].oow.cpi,
                    entries[i] == 64 ? "   <- Table 2" : "");
    }

    std::printf("\nUnder drain-when-full [34], buffer size trades drain"
                " frequency against drain\nlength: small buffers drain"
                " often but block reads briefly; large buffers\naccumulate"
                " long read-blocking drains. Overlay-on-write's extra OMS"
                " write\ntraffic (data + segment metadata) shifts with the"
                " same trend, so the choice\nis mechanism-neutral —"
                " Table 2's 64 entries sit in the flat middle.\n");
    return 0;
}
