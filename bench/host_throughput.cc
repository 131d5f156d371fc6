/**
 * @file
 * Host-throughput harness: times representative access mixes in *host*
 * accesses-per-second (not simulated cycles). Every evaluation figure is
 * reproduced by driving millions of 64 B accesses through System::access,
 * so host-side throughput is the ceiling on workload size, sweep width
 * and core count — the same wall that pushes Virtuoso to imitation-based
 * modeling and gem5-class simulators to sampled slices.
 *
 * The suite is one table of workloads (kWorkloads: name, body, access
 * count), run one at a time on the calling thread: serial execution is
 * what makes per-workload host time and profile windows meaningful.
 *
 * Output: BENCH_throughput.json (schema: a "_run" entry with
 * {wall_seconds, best_of, host} for the whole run, then workload ->
 * {accesses, seconds, Maccess_per_s, simulated_ticks, wall_seconds}).
 * simulated_ticks is a determinism fingerprint: a host-side optimization
 * must not move it by a single tick (scripts/bench_compare.py diffs two
 * runs and flags regressions). Per-workload wall_seconds is that
 * workload's own wall-clock including setup (seconds times only the
 * measured hot loop); the run total lives in "_run". The "_run" host/
 * build metadata (CPU, cores, compiler, flags, build type) lets
 * bench_compare.py flag cross-host comparisons that need --normalize.
 *
 * Usage: host_throughput [-o out.json] [--only NAME] [--best-of N]
 *                        [sink flags]
 *   --only runs a single workload by name (repeatable; profiling and
 *     per-workload A/B runs want an unpolluted measurement). A name
 *     that matches no workload exits 1.
 *   --best-of repeats the whole suite N times and reports each
 *     workload's fastest run (the standard noise filter for shared CI
 *     runners); repeats must agree on simulated_ticks or the run fails.
 *     "_run" records the repeat count as "best_of". Incompatible with
 *     the sink flags, which are single-shot streams.
 *   The sink flags of observe::Session (src/sim/observe.hh: JSONL stats
 *     samples, Chrome trace, host-time profile; DESIGN.md §9.4) give each
 *     workload its own run label.
 *
 * Instrumentation changes host throughput, never simulated_ticks: an
 * instrumented run's fingerprint must equal the plain run's.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <cmath>

#include "common/cli.hh"
#include "common/random.hh"
#include "sim/hostinfo.hh"
#include "sim/observe.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

using namespace ovl;
using cli::takeFlag;
using cli::takePositiveCount;

namespace
{

struct Result
{
    std::string workload;
    std::uint64_t accesses = 0;
    double seconds = 0.0;
    Tick simulatedTicks = 0;
    /** Whole-workload wall time (setup included); filled by the runner. */
    double wallSeconds = 0.0;
};

using Clock = std::chrono::steady_clock;

double
elapsed(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr Addr kBase = 0x100000;

/**
 * The trace-driven body shared by seq_read, seq_write, random_mix and
 * sparse_spmv: map @p footprint bytes at kBase (anonymous, or a
 * zero-backed overlay region), attach the sampler and time one
 * System::accessBatch over the materialized request stream, so the
 * measurement covers the simulator, not the bench's address generator.
 */
Result
runStream(std::uint64_t footprint, bool zero_overlay,
          const std::vector<AccessRequest> &reqs, StatsSampler *sampler)
{
    System sys;
    Asid p = sys.createProcess();
    if (zero_overlay)
        sys.mapZeroOverlay(p, kBase, footprint);
    else
        sys.mapAnon(p, kBase, footprint);
    sys.attachStatsSampler(sampler);

    auto start = Clock::now();
    Tick t = sys.accessBatch(p, reqs, 0);
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{{}, reqs.size(), secs, t};
}

/** Append @p n line-stride accesses sweeping @p footprint, wrapping. */
void
appendSweep(std::vector<AccessRequest> &reqs, std::uint64_t n,
            std::uint64_t footprint, bool is_write)
{
    for (std::uint64_t i = 0; i < n; ++i)
        reqs.push_back(
            AccessRequest{kBase + (i * kLineSize) % footprint, is_write});
}

/**
 * Sequential read or write sweep: 64 B strides over a 16 MiB anonymous
 * buffer. Every access opens a new line (L1/L2/L3 miss on the first
 * lap, prefetch-assisted after), so this exercises the full
 * TLB -> hierarchy -> DRAM path.
 */
Result
sequential(std::uint64_t accesses, bool is_write, StatsSampler *sampler)
{
    constexpr std::uint64_t kBufBytes = 16ull << 20;
    std::vector<AccessRequest> reqs;
    reqs.reserve(accesses);
    appendSweep(reqs, accesses, kBufBytes, is_write);
    return runStream(kBufBytes, false, reqs, sampler);
}

/** Fixed-seed random 2:1 read/write mix over a 64 MiB footprint. */
Result
randomMix(std::uint64_t accesses, StatsSampler *sampler)
{
    constexpr std::uint64_t kBufBytes = 64ull << 20;
    Rng rng(12345);
    std::vector<AccessRequest> reqs(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        reqs[i] = AccessRequest{kBase + lineBase(rng.below(kBufBytes)),
                                i % 3 == 2};
    }
    return runStream(kBufBytes, false, reqs, sampler);
}

/**
 * Sparse-SpMV-flavoured mix (§5.2): a zero-backed overlay region where
 * every 16th line diverges via an overlaying write, then row-sweep
 * reads over the whole region that hit a blend of overlay lines and the
 * shared zero frame. Exercises the OMT cache, OMS allocator and overlay
 * read path. @p accesses counts both phases, so it must exceed the
 * 8192 populating writes.
 */
Result
sparseSpmv(std::uint64_t accesses, StatsSampler *sampler)
{
    constexpr std::uint64_t kBufBytes = 8ull << 20;
    constexpr std::uint64_t kPopulated = kBufBytes / (16 * kLineSize);
    std::vector<AccessRequest> reqs;
    reqs.reserve(accesses);
    for (std::uint64_t i = 0; i < kPopulated; ++i)
        reqs.push_back(AccessRequest{kBase + i * 16 * kLineSize, true});
    appendSweep(reqs, accesses - kPopulated, kBufBytes, false);
    return runStream(kBufBytes, true, reqs, sampler);
}

/**
 * Fork churn: repeatedly fork a 512-page parent (overlay-on-write),
 * have the child diverge one line per page, then tear the child down.
 * Exercises fork's table copy, overlaying writes, unmap and frame
 * recycling.
 *
 * One iteration in every @p detail_every runs through the detailed
 * timing model; the rest fast-forward functionally (DESIGN.md §10:
 * architectural state plus cache/TLB warming, zero tick movement).
 * fork_cow passes 1 (every iteration detailed); fork_cow_sampled
 * passes 8, so its Maccess_per_s is the effective rate of the sampled
 * mode and its simulated_ticks, the detailed-window total, is only
 * comparable against other sampled runs. `accesses` counts every
 * simulated access, detailed or functional.
 */
Result
forkChurn(std::uint64_t accesses, std::uint64_t detail_every,
          StatsSampler *sampler)
{
    System sys;
    Asid parent = sys.createProcess();
    constexpr std::uint64_t kPages = 512;
    constexpr ForkMode kMode = ForkMode::OverlayOnWrite;
    sys.mapAnon(parent, kBase, kPages * kPageSize);
    sys.attachStatsSampler(sampler);

    Tick t = 0;
    // Touch the whole footprint once.
    for (std::uint64_t pg = 0; pg < kPages; ++pg) {
        std::uint64_t val = pg;
        t = sys.write(parent, kBase + pg * kPageSize, &val, sizeof(val), t);
    }
    std::uint64_t done = kPages;
    auto start = Clock::now();
    for (std::uint64_t iter = 0; done < accesses; ++iter) {
        bool detailed = iter % detail_every == 0;
        Asid child = detailed ? sys.fork(parent, kMode, t, &t)
                              : sys.forkFunctional(parent, kMode);
        for (std::uint64_t pg = 0; pg < kPages && done < accesses;
             ++pg, ++done) {
            Addr va = kBase + pg * kPageSize;
            if (detailed)
                t = sys.access(child, va, true, t);
            else
                sys.accessFunctional(child, va, true);
        }
        if (detailed)
            sys.destroyProcess(child, t);
        else
            sys.destroyProcessFunctional(child);
    }
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{{}, done - kPages, secs, t};
}

/**
 * Warm-start sweep pair (DESIGN.md §11): a miniature promotion-threshold
 * sweep (four rows) over one fork benchmark, run two ways.
 * sweep_coldstart simulates the warmup prefix for every row — the
 * pre-snapshot execution model. sweep_warmstart simulates the prefix
 * once and forks every row from a clone of the warm machine. The rows
 * are byte-identical either way (the warmup is fork-mode- and
 * promotion-threshold-independent), so the two workloads' simulated_ticks
 * fingerprints must be equal; the wall-clock ratio between them is the
 * warm-start speedup, recorded in the JSON. `accesses` counts the
 * simulated instructions each variant actually executes. The stats
 * sampler is not supported here (each row runs its own System), so the
 * parameter is ignored.
 */
struct SweepRow
{
    ForkMode mode;
    unsigned threshold;
};

constexpr SweepRow kSweepRows[] = {
    {ForkMode::CopyOnWrite, 64},
    {ForkMode::OverlayOnWrite, 64},
    {ForkMode::OverlayOnWrite, 32},
    {ForkMode::OverlayOnWrite, 8},
};

ForkBenchParams
sweepParams(std::uint64_t accesses)
{
    // Warmup-dominated on purpose: the sweep's shared prefix is the cost
    // the warm-start path amortizes across the four rows.
    ForkBenchParams p = forkBenchByName("libq");
    p.warmupInstructions = accesses * 3 / 4;
    p.postForkInstructions = accesses / 16;
    return p;
}

/** Row digest in tick units: any field divergence moves it. */
Tick
rowFingerprint(const ForkBenchResult &r)
{
    return r.forkLatency + Tick(r.cowFaults) + Tick(r.overlayingWrites) +
           Tick(std::llround(r.cpi * 1e6)) +
           Tick(std::llround(r.additionalMemoryMB * 1e6));
}

Result
sweepColdstart(std::uint64_t accesses, StatsSampler *)
{
    ForkBenchParams params = sweepParams(accesses);
    Tick fp = 0;
    std::uint64_t instructions = 0;
    auto start = Clock::now();
    for (const SweepRow &row : kSweepRows) {
        SystemConfig cfg;
        cfg.promoteThresholdLines = row.threshold;
        fp += rowFingerprint(runForkBench(params, row.mode, cfg));
        instructions +=
            params.warmupInstructions + params.postForkInstructions;
    }
    return Result{{}, instructions, elapsed(start), fp};
}

Result
sweepWarmstart(std::uint64_t accesses, StatsSampler *)
{
    ForkBenchParams params = sweepParams(accesses);
    Tick fp = 0;
    auto start = Clock::now();
    ForkBenchWarmState warm =
        prepareForkBenchWarmState(params, SystemConfig{});
    std::uint64_t instructions = params.warmupInstructions;
    for (const SweepRow &row : kSweepRows) {
        SystemConfig cfg;
        cfg.promoteThresholdLines = row.threshold;
        fp += rowFingerprint(
            runForkBenchFromWarmState(warm, row.mode, &cfg));
        instructions += params.postForkInstructions;
    }
    return Result{{}, instructions, elapsed(start), fp};
}

/** One row of the suite: the runner stamps `name` on the result. */
struct Workload
{
    const char *name;
    Result (*run)(std::uint64_t accesses, StatsSampler *sampler);
    std::uint64_t accesses;
};

constexpr Workload kWorkloads[] = {
    {"seq_read",
     [](std::uint64_t n, StatsSampler *s) { return sequential(n, false, s); },
     4'000'000},
    {"seq_write",
     [](std::uint64_t n, StatsSampler *s) { return sequential(n, true, s); },
     4'000'000},
    {"random_mix", randomMix, 2'000'000},
    {"sparse_spmv", sparseSpmv, 2'000'000},
    {"fork_cow",
     [](std::uint64_t n, StatsSampler *s) { return forkChurn(n, 1, s); },
     1'000'000},
    {"fork_cow_sampled",
     [](std::uint64_t n, StatsSampler *s) { return forkChurn(n, 8, s); },
     1'000'000},
    {"sweep_coldstart", sweepColdstart, 1'000'000},
    {"sweep_warmstart", sweepWarmstart, 1'000'000},
};

void
writeJson(const std::vector<Result> &results, const std::string &path,
          double wall_seconds, unsigned best_of)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"_run\": {\"wall_seconds\": %.6f, \"best_of\": %u, "
                 "\"host\": %s},\n",
                 wall_seconds, best_of, hostInfoJson().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        double maps = double(r.accesses) / r.seconds / 1e6;
        std::fprintf(f,
                     "  \"%s\": {\"accesses\": %llu, \"seconds\": %.6f, "
                     "\"Maccess_per_s\": %.3f, \"simulated_ticks\": %llu, "
                     "\"wall_seconds\": %.6f}%s\n",
                     r.workload.c_str(),
                     (unsigned long long)r.accesses, r.seconds, maps,
                     (unsigned long long)r.simulatedTicks, r.wallSeconds,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
}

int
runSuite(std::vector<std::string> args, const char *prog)
{
    observe::Session session(args);
    std::string out = takeFlag(args, "-o").value_or("BENCH_throughput.json");
    unsigned best_of = takePositiveCount(args, "--best-of").value_or(1);
    std::vector<std::string> only;
    while (std::optional<std::string> name = takeFlag(args, "--only"))
        only.push_back(*name);
    if (!args.empty()) {
        std::fprintf(stderr,
                     "usage: %s [-o out.json] [--only NAME] [--best-of N]"
                     " %s\n",
                     prog, observe::kUsage);
        return 1;
    }
    if (best_of > 1 && session.anySink()) {
        // Repeated runs would append duplicate records to the one
        // sampler/trace/profile stream; instrumented runs are single-shot.
        std::fprintf(stderr,
                     "%s: --best-of is incompatible with --stats-out/"
                     "--trace-out/--profile-out\n",
                     prog);
        return 1;
    }
    for (const std::string &name : only) {
        if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads),
                         [&](const Workload &w) { return name == w.name; })) {
            std::fprintf(stderr, "%s: --only %s matches no workload\n", prog,
                         name.c_str());
            return 1;
        }
    }
    std::vector<const Workload *> selected;
    for (const Workload &w : kWorkloads) {
        if (only.empty() ||
            std::find(only.begin(), only.end(), w.name) != only.end())
            selected.push_back(&w);
    }

    auto wall_start = Clock::now();
    std::vector<Result> results(selected.size());
    for (unsigned rep = 0; rep < best_of; ++rep) {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const Workload &w = *selected[i];
            // One session run per workload: its own sampler and profile
            // window.
            Result r = session.run(w.name, [&](StatsSampler *sampler) {
                auto workload_start = Clock::now();
                Result res = w.run(w.accesses, sampler);
                res.wallSeconds = elapsed(workload_start);
                return res;
            });
            r.workload = w.name;
            // Best-of merge: keep each workload's fastest run, and fail
            // hard if repeats ever disagree on simulated_ticks — that is
            // a determinism bug.
            if (rep > 0 && r.simulatedTicks != results[i].simulatedTicks) {
                std::fprintf(stderr,
                             "%s: simulated_ticks drift across repeats "
                             "(%llu vs %llu)\n",
                             w.name,
                             (unsigned long long)results[i].simulatedTicks,
                             (unsigned long long)r.simulatedTicks);
                return 1;
            }
            if (rep == 0 || r.seconds < results[i].seconds)
                results[i] = std::move(r);
        }
    }
    double wall_seconds = elapsed(wall_start);
    session.finish();

    std::printf("%-16s %12s %9s %9s %14s %18s\n", "workload", "accesses",
                "seconds", "wall_s", "Maccess/s", "simulated_ticks");
    for (const Result &r : results) {
        std::printf("%-16s %12llu %9.3f %9.3f %14.3f %18llu\n",
                    r.workload.c_str(), (unsigned long long)r.accesses,
                    r.seconds, r.wallSeconds,
                    double(r.accesses) / r.seconds / 1e6,
                    (unsigned long long)r.simulatedTicks);
    }
    std::printf("%-12s best_of=%u wall=%.3fs\n", "(run)", best_of,
                wall_seconds);
    writeJson(results, out, wall_seconds, best_of);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runSuite(std::vector<std::string>(argv + 1, argv + argc),
                        argv[0]);
    } catch (const std::invalid_argument &e) {
        // A malformed flag value or sink-flag combination (cli.hh,
        // observe.hh).
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
