/**
 * @file
 * The overlaysim command-line driver. Subcommands:
 *
 *   overlaysim forkbench <name|all> [--mode cow|oow|both]
 *                                   [--post-instr N] [--json FILE]
 *       Run one (or all) of the 15 synthetic fork benchmarks. With
 *       `--checkpoint-every T --checkpoint-file FILE` (one benchmark,
 *       one mode) a crash-resumable snapshot is rewritten every T
 *       simulated ticks while the run proceeds unperturbed; a run that
 *       ends before its first period writes none and exits 1.
 *
 *   overlaysim checkpoint <name> --mode cow|oow --at-tick T --out FILE
 *                                [--post-instr N]
 *       Run a fork benchmark up to simulated tick T, write a snapshot,
 *       and stop.
 *
 *   overlaysim restore <FILE>
 *       Resume a checkpoint to completion. The printed result row is
 *       byte-identical to the uninterrupted `overlaysim forkbench` row.
 *
 *   overlaysim spmv --L X [--nnz N] [--rep overlay|csr|dense|all]
 *       Build a synthetic 1024x1024 sparse matrix with non-zero
 *       locality L (a number from 1 to 8) and N non-zeros (at least 1,
 *       in at most as many non-zero lines as the matrix holds) and run
 *       SpMV (runSpmv) under the chosen representation(s).
 *
 *   overlaysim trace info <file>
 *   overlaysim trace run <file> [--json FILE]
 *       Inspect or replay a binary trace (see src/cpu/trace_io.hh).
 *
 *   overlaysim stats-diff <a.json> <b.json>
 *       Golden-stats forensics: compare two dumpAllStatsJson files and
 *       report the first diverging group/scalar (exit 0 identical,
 *       1 differing, 2 parse failure). Produce inputs with
 *       `forkbench <name> --mode cow|oow --json FILE`.
 *
 *   overlaysim config
 *       Print the Table 2 machine configuration.
 *
 * forkbench takes the observe::Session sink flags (src/sim/observe.hh):
 * a JSONL stats time series, a Chrome trace (Perfetto) and a per-run
 * host-time profile, one "<name>/<mode>" run each (DESIGN.md §9, §12).
 *
 * An argument a subcommand does not take prints the usage and exits
 * nonzero; a malformed flag value exits 1 with one diagnostic.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "cpu/trace_io.hh"
#include "sim/observe.hh"
#include "sim/snapshot.hh"
#include "sim/stats_diff.hh"
#include "sparse/spmv.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"
#include "workload/matrixgen.hh"

using namespace ovl;
using cli::takeCount;
using cli::takeFlag;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: overlaysim"
                 " <forkbench|checkpoint|restore|stats-diff|spmv|trace"
                 "|config> ...\n"
                 "  forkbench <name|all> [--mode cow|oow|both]"
                 " [--post-instr N] [--stats FILE]\n"
                 "            [--record FILE] [--json FILE]"
                 " (single benchmark + mode)\n"
                 "            %s\n"
                 "            [--checkpoint-every T --checkpoint-file"
                 " FILE]\n"
                 "  checkpoint <name> --mode cow|oow --at-tick T"
                 " --out FILE [--post-instr N]\n"
                 "  restore <file>\n"
                 "  stats-diff <a.json> <b.json>\n"
                 "  spmv --L X [--nnz N] [--rep overlay|csr|dense|all]"
                 " (X from 1 to 8)\n"
                 "  trace info <file>\n"
                 "  trace run <file> [--json FILE]\n"
                 "  config\n",
                 observe::kUsage);
    return 2;
}

void
maybeDumpJson(System &sys, const std::optional<std::string> &path)
{
    if (!path)
        return;
    std::ofstream os(*path);
    if (!os)
        ovl_fatal("cannot open %s for writing", path->c_str());
    sys.dumpAllStatsJson(os);
    std::printf("stats written to %s\n", path->c_str());
}

/** The forkbench/restore result-row format (kept byte-identical). */
void
printForkRowHeader()
{
    std::printf("%-10s %-5s %10s %10s %12s\n", "benchmark", "mode", "CPI",
                "extraMB", "forkCycles");
}

void
printForkRow(const ForkBenchResult &res)
{
    std::printf("%-10s %-5s %10.3f %10.2f %12llu\n", res.name.c_str(),
                res.mode == ForkMode::CopyOnWrite ? "cow" : "oow",
                res.cpi, res.additionalMemoryMB,
                (unsigned long long)res.forkLatency);
}

int
cmdForkbench(std::vector<std::string> args)
{
    std::optional<std::string> mode_str = takeFlag(args, "--mode");
    std::optional<std::uint64_t> post = takeCount(args, "--post-instr");
    std::optional<std::uint64_t> ckpt_every =
        takeCount(args, "--checkpoint-every");
    std::optional<std::string> ckpt_file =
        takeFlag(args, "--checkpoint-file");
    std::optional<std::string> stats_path = takeFlag(args, "--stats");
    std::optional<std::string> record_path = takeFlag(args, "--record");
    std::optional<std::string> json_path = takeFlag(args, "--json");
    if (mode_str && *mode_str != "cow" && *mode_str != "oow" &&
        *mode_str != "both")
        ovl_fatal("--mode must be cow, oow or both");
    observe::Session session(args);
    if (args.size() != 1)
        return usage();
    std::ofstream stats_os;
    if (stats_path) {
        stats_os.open(*stats_path);
        if (!stats_os)
            ovl_fatal("cannot open %s for writing", stats_path->c_str());
    }
    std::ofstream json_os;
    if (json_path) {
        json_os.open(*json_path);
        if (!json_os)
            ovl_fatal("cannot open %s for writing", json_path->c_str());
    }

    std::vector<ForkBenchParams> selected;
    if (args[0] == "all") {
        selected = forkBenchSuite();
    } else {
        selected.push_back(forkBenchByName(args[0]));
    }
    bool run_cow = !mode_str || *mode_str == "cow" || *mode_str == "both";
    bool run_oow = !mode_str || *mode_str == "oow" || *mode_str == "both";
    if ((json_path || record_path) &&
        (selected.size() != 1 || (run_cow && run_oow))) {
        ovl_fatal("--json and --record need a single benchmark and a"
                  " single --mode (each file holds one run)");
    }
    if (post) {
        for (ForkBenchParams &params : selected)
            params.postForkInstructions = *post;
    }

    ForkBenchCheckpointOptions ckpt;
    if (bool(ckpt_every) != bool(ckpt_file))
        ovl_fatal("--checkpoint-every and --checkpoint-file go together");
    if (ckpt_file) {
        ckpt.path = *ckpt_file;
        ckpt.everyTicks = *ckpt_every;
        if (ckpt.everyTicks == 0)
            ovl_fatal("--checkpoint-every needs a positive tick period");
        if (selected.size() != 1 || (run_cow && run_oow)) {
            ovl_fatal("--checkpoint-every needs a single benchmark and a"
                      " single --mode (a checkpoint file holds one run)");
        }
        if (stats_path || record_path || json_path || session.sampling() ||
            session.tracing()) {
            ovl_fatal("--checkpoint-every is incompatible with --stats,"
                      " --record, --json, --sample-interval and"
                      " --trace-out");
        }
    }

    std::uint64_t ckpts_written = 0;
    printForkRowHeader();
    for (const ForkBenchParams &params : selected) {
        for (int pass = 0; pass < 2; ++pass) {
            if ((pass == 0 && !run_cow) || (pass == 1 && !run_oow))
                continue;
            ForkMode mode = pass == 0 ? ForkMode::CopyOnWrite
                                      : ForkMode::OverlayOnWrite;
            std::vector<TraceOp> recorded;
            // One run per "<name>/<mode>" label: its own sampler and
            // profile window.
            ForkBenchResult res = session.run(
                params.name + (pass == 0 ? "/cow" : "/oow"),
                [&](StatsSampler *sampler) {
                    // Periodic mode always runs to completion; the
                    // observer checkpoints never perturb the run.
                    if (ckpt_file) {
                        ForkBenchCheckpointedRun run =
                            runForkBenchCheckpointed(params, mode,
                                                     SystemConfig{}, ckpt);
                        ckpts_written = run.checkpointsWritten;
                        return *run.result;
                    }
                    return runForkBench(
                        params, mode, SystemConfig{},
                        stats_path ? &stats_os : nullptr,
                        record_path ? &recorded : nullptr, sampler,
                        json_path ? &json_os : nullptr);
                });
            if (record_path) {
                saveTraceFile(*record_path, recorded);
                std::printf("recorded %zu trace records to %s\n",
                            recorded.size(), record_path->c_str());
            }
            printForkRow(res);
        }
    }
    if (json_path)
        std::printf("golden stats written to %s\n", json_path->c_str());
    if (ckpt_file && ckpts_written == 0) {
        // The run retired all post-fork instructions before its first
        // period elapsed, so there is nothing to resume.
        std::fprintf(stderr,
                     "%s/%s finished within one %llu-tick period;"
                     " no checkpoint written\n",
                     selected[0].name.c_str(), run_cow ? "cow" : "oow",
                     (unsigned long long)ckpt.everyTicks);
        session.finish();
        return 1;
    }
    if (ckpt_file)
        std::printf("%llu checkpoints written to %s every %llu ticks\n",
                    (unsigned long long)ckpts_written, ckpt.path.c_str(),
                    (unsigned long long)ckpt.everyTicks);
    if (stats_path)
        std::printf("component stats appended to %s\n",
                    stats_path->c_str());
    session.finish();
    return 0;
}

int
cmdCheckpoint(std::vector<std::string> args)
{
    std::optional<std::string> mode_str = takeFlag(args, "--mode");
    std::optional<std::uint64_t> at_tick = takeCount(args, "--at-tick");
    std::optional<std::string> out_path = takeFlag(args, "--out");
    std::optional<std::uint64_t> post = takeCount(args, "--post-instr");
    if (args.size() != 1 || !mode_str || !at_tick || !out_path)
        return usage();
    if (*mode_str != "cow" && *mode_str != "oow")
        ovl_fatal("--mode must be cow or oow");
    ForkMode mode = *mode_str == "cow" ? ForkMode::CopyOnWrite
                                       : ForkMode::OverlayOnWrite;

    ForkBenchParams params = forkBenchByName(args[0]);
    if (post)
        params.postForkInstructions = *post;

    ForkBenchCheckpointOptions ckpt;
    ckpt.path = *out_path;
    ckpt.atTick = *at_tick;
    if (ckpt.atTick == 0)
        ovl_fatal("--at-tick needs a positive simulated tick");

    std::optional<ForkBenchResult> res =
        runForkBenchCheckpointed(params, mode, SystemConfig{}, ckpt).result;
    if (res) {
        // The run retired all post-fork instructions before reaching the
        // requested tick, so there is nothing left to resume.
        std::fprintf(stderr,
                     "%s/%s finished before simulated tick %llu;"
                     " no checkpoint written\n",
                     params.name.c_str(), mode_str->c_str(),
                     (unsigned long long)ckpt.atTick);
        printForkRowHeader();
        printForkRow(*res);
        return 1;
    }
    std::printf("checkpoint written to %s (stopped at the first op"
                " boundary at or after tick %llu)\n",
                ckpt.path.c_str(), (unsigned long long)ckpt.atTick);
    std::printf("resume with: overlaysim restore %s\n", ckpt.path.c_str());
    return 0;
}

int
cmdRestore(std::vector<std::string> args)
{
    if (args.size() != 1)
        return usage();
    try {
        ForkBenchResult res = resumeForkBenchCheckpoint(args[0]);
        printForkRowHeader();
        printForkRow(res);
    } catch (const snapshot::SnapshotError &e) {
        std::fprintf(stderr, "restore failed: %s: %s\n", args[0].c_str(),
                     e.what());
        return 1;
    }
    return 0;
}

/**
 * The value of `spmv --L`: the whole argument is one finite decimal
 * number (no exponent, sign or whitespace) from 1 to
 * DenseLayout::kValuesPerLine, the most non-zeros a 64 B line holds.
 */
double
parseLocality(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] =
        std::from_chars(text.data(), end, value, std::chars_format::fixed);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(value) || value < 1.0 ||
        value > double(DenseLayout::kValuesPerLine)) {
        throw std::invalid_argument(
            "--L expects a number from 1 to " +
            std::to_string(DenseLayout::kValuesPerLine) + ", got '" + text +
            "'");
    }
    return value;
}

/**
 * `spmv --nnz` must describe a matrix the generator can build as asked:
 * at least one non-zero, and no more non-zero lines than the matrix
 * holds. The generator asks for llround(nnz / L) lines and would
 * otherwise quietly build one non-zero or a denser matrix instead.
 */
void
checkRealizable(const MatrixSpec &spec, const std::string &l_text)
{
    if (spec.nnz == 0)
        throw std::invalid_argument("--nnz expects at least 1, got 0");
    // One non-zero line of L values needs L non-zeros: fewer would build
    // a single line holding all of them, a different locality.
    if (spec.nnz < spec.targetL) {
        throw std::invalid_argument(
            "--nnz " + std::to_string(spec.nnz) + " is below --L " +
            l_text + ": a non-zero line at that locality needs " + l_text +
            " non-zeros");
    }
    std::uint64_t lines = std::uint64_t(spec.rows) *
                          (spec.cols / DenseLayout::kValuesPerLine);
    // llround(x) > lines, without rounding a value llround cannot hold.
    if (double(spec.nnz) / spec.targetL >= double(lines) + 0.5) {
        throw std::invalid_argument(
            "--nnz " + std::to_string(spec.nnz) + " at --L " + l_text +
            " needs more non-zero lines than the " +
            std::to_string(spec.rows) + "x" + std::to_string(spec.cols) +
            " matrix holds (" + std::to_string(lines) + ")");
    }
}

int
cmdSpmv(std::vector<std::string> args)
{
    // `--rep all` runs them in this order.
    static constexpr std::pair<const char *, SpmvRep> kReps[] = {
        {"overlay", SpmvRep::Overlay},
        {"csr", SpmvRep::Csr},
        {"dense", SpmvRep::Dense},
    };
    std::optional<std::string> l_str = takeFlag(args, "--L");
    std::optional<std::uint64_t> nnz = takeCount(args, "--nnz");
    std::optional<std::string> rep = takeFlag(args, "--rep");
    if (!l_str || !args.empty())
        return usage();
    auto want = [&](const char *name) {
        return !rep || *rep == "all" || *rep == name;
    };
    if (std::none_of(std::begin(kReps), std::end(kReps),
                     [&](const auto &r) { return want(r.first); })) {
        throw std::invalid_argument(
            "--rep expects overlay, csr, dense or all, got '" + *rep + "'");
    }

    MatrixSpec spec;
    spec.targetL = parseLocality(*l_str);
    if (spec.targetL >= 5.5) {
        spec.family = MatrixFamily::BlockDense;
        spec.blockRunLines = 128;
    } else if (spec.targetL >= 3.0) {
        spec.family = MatrixFamily::BlockDense;
        spec.blockRunLines = 24;
    }
    if (nnz)
        spec.nnz = *nnz;
    checkRealizable(spec, *l_str);
    spec.name = "cli";
    CooMatrix coo = generateMatrix(spec);
    MatrixStats stats = analyzeMatrix(coo, kLineSize);
    std::printf("matrix: %ux%u, nnz=%llu, realized L=%.2f\n", coo.rows,
                coo.cols, (unsigned long long)coo.nnz(), stats.locality);

    std::vector<double> x(coo.cols);
    Rng rng(1);
    for (double &v : x)
        v = rng.uniform();

    std::printf("%-8s %12s %14s %12s\n", "rep", "cycles", "instructions",
                "bytes");
    for (const auto &[name, r] : kReps) {
        if (!want(name))
            continue;
        SpmvRun run = runSpmv(coo, x, r);
        std::printf("%-8s %12llu %14llu %12llu\n", name,
                    (unsigned long long)run.result.cycles,
                    (unsigned long long)run.result.instructions,
                    (unsigned long long)run.bytes);
    }
    return 0;
}

int
cmdTrace(std::vector<std::string> args)
{
    if (args.size() < 2)
        return usage();
    std::string verb = args[0];
    std::string path = args[1];
    args.erase(args.begin(), args.begin() + 2);

    if (verb == "info") {
        if (!args.empty())
            return usage();
        Trace trace = loadTraceFile(path);
        TraceSummary s = summarizeTrace(trace);
        std::printf("records       %llu\n",
                    (unsigned long long)s.records);
        std::printf("instructions  %llu\n",
                    (unsigned long long)s.instructions);
        std::printf("loads/stores  %llu / %llu (%llu dependent)\n",
                    (unsigned long long)s.loads,
                    (unsigned long long)s.stores,
                    (unsigned long long)s.dependentOps);
        std::printf("address range [%#llx, %#llx], %llu pages\n",
                    (unsigned long long)s.minAddr,
                    (unsigned long long)s.maxAddr,
                    (unsigned long long)s.touchedPages);
        return 0;
    }
    if (verb == "run") {
        std::optional<std::string> json_path = takeFlag(args, "--json");
        if (!args.empty())
            return usage();
        Trace trace = loadTraceFile(path);
        TraceSummary s = summarizeTrace(trace);
        System sys((SystemConfig()));
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        // Map the touched range (page-aligned, inclusive).
        if (s.loads + s.stores > 0) {
            Addr base = pageBase(s.minAddr);
            std::uint64_t len =
                pageBase(s.maxAddr) + kPageSize - base;
            sys.mapAnon(asid, base, len);
        }
        Tick done = core.run(asid, trace, 0);
        std::printf("ran %llu instructions in %llu cycles (CPI %.3f)\n",
                    (unsigned long long)core.epochInstructions(),
                    (unsigned long long)done, core.epochCpi());
        maybeDumpJson(sys, json_path);
        return 0;
    }
    return usage();
}

int
cmdStatsDiff(std::vector<std::string> args)
{
    if (args.size() != 2) {
        std::fprintf(stderr,
                     "usage: overlaysim stats-diff <a.json> <b.json>\n");
        return 2;
    }
    return statsdiff::runStatsDiff(args[0], args[1], stdout);
}

int
cmdConfig(const std::vector<std::string> &args)
{
    if (!args.empty())
        return usage();
    SystemConfig cfg;
    std::printf("core        %.2f GHz, issue %u, window %u\n", cfg.coreGhz,
                cfg.issueWidth, cfg.instructionWindow);
    std::printf("tlb         L1 %u/%u-way (%llu cyc), L2 %u (%llu cyc),"
                " walk %llu cyc\n",
                cfg.tlb.l1.entries, cfg.tlb.l1.associativity,
                (unsigned long long)cfg.tlb.l1.hitLatency,
                cfg.tlb.l2.entries,
                (unsigned long long)cfg.tlb.l2.hitLatency,
                (unsigned long long)cfg.tlb.walkLatency);
    std::printf("caches      L1 %lluKB L2 %lluKB L3 %lluKB\n",
                (unsigned long long)(cfg.caches.l1.sizeBytes / 1024),
                (unsigned long long)(cfg.caches.l2.sizeBytes / 1024),
                (unsigned long long)(cfg.caches.l3.sizeBytes / 1024));
    std::printf("overlay     OMT cache %u entries (miss %llu cyc),"
                " ORE %llu cyc\n",
                cfg.overlay.omtCache.entries,
                (unsigned long long)cfg.overlay.omtCache.missLatency,
                (unsigned long long)cfg.oreMessageCycles);
    std::printf("os costs    trap %llu, shootdown %llu (+%llu/TLB)\n",
                (unsigned long long)cfg.pageFaultTrapCycles,
                (unsigned long long)cfg.tlbShootdownBaseCycles,
                (unsigned long long)cfg.tlbShootdownPerTlbCycles);
    return 0;
}

int
dispatch(const std::string &cmd, std::vector<std::string> args)
{
    if (cmd == "forkbench")
        return cmdForkbench(std::move(args));
    if (cmd == "checkpoint")
        return cmdCheckpoint(std::move(args));
    if (cmd == "restore")
        return cmdRestore(std::move(args));
    if (cmd == "spmv")
        return cmdSpmv(std::move(args));
    if (cmd == "trace")
        return cmdTrace(std::move(args));
    if (cmd == "stats-diff")
        return cmdStatsDiff(std::move(args));
    if (cmd == "config")
        return cmdConfig(args);
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        return dispatch(argv[1], std::vector<std::string>(argv + 2,
                                                          argv + argc));
    } catch (const std::invalid_argument &e) {
        // A malformed flag value or sink-flag combination (cli.hh,
        // observe.hh).
        std::fprintf(stderr, "overlaysim: %s\n", e.what());
        return 1;
    }
}
