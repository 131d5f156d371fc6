/**
 * @file
 * Host-throughput harness: times representative access mixes in *host*
 * accesses-per-second (not simulated cycles). Every evaluation figure is
 * reproduced by driving millions of 64 B accesses through System::access,
 * so host-side throughput is the ceiling on workload size, sweep width
 * and core count — the same wall that pushes Virtuoso to imitation-based
 * modeling and gem5-class simulators to sampled slices.
 *
 * Output: BENCH_throughput.json (schema: a "_run" entry with {jobs,
 * wall_seconds} for the whole run, then workload -> {accesses, seconds,
 * Maccess_per_s, simulated_ticks, jobs, wall_seconds}). simulated_ticks
 * is a determinism fingerprint: a host-side optimization must not move
 * it by a single tick (scripts/bench_compare.py diffs two runs and flags
 * regressions). jobs records how many worker threads ran the workloads.
 * Per-workload wall_seconds is that workload's own wall-clock including
 * setup (seconds times only the measured hot loop); the run total lives
 * in "_run". Per-workload Maccess_per_s is only comparable between runs
 * with equal jobs (workloads contend for cores when jobs > 1), so
 * bench_compare.py skips the throughput and wall gates on a jobs
 * mismatch but always checks simulated_ticks.
 *
 * Usage: host_throughput [-o out.json] [--scale N] [--jobs N]
 *                        [--only NAME] [--best-of N] [sink flags]
 *   --scale multiplies every workload's access count (default 1).
 *   --only runs a single workload by name (repeatable; profiling and
 *     per-workload A/B runs want an unpolluted measurement).
 *   --best-of repeats the whole suite N times and reports each
 *     workload's fastest run (the standard noise filter for shared CI
 *     runners, previously scripted around the binary); repeats must
 *     agree on simulated_ticks or the run fails. "_run" records the
 *     repeat count as "best_of". Incompatible with the sampler/trace/
 *     profile sinks, which are single-shot streams.
 *   --jobs runs the workloads on N worker threads (default 1: serial,
 *     the measurement-isolation default for this harness).
 *   The sink flags of observe::Session (src/sim/observe.hh: JSONL stats
 *     samples, Chrome trace, host-time profile; DESIGN.md §9.4) give each
 *     workload its own run label. Every sink requires --jobs 1 (one
 *     stream per sink, per-workload attribution windows).
 *
 * The "_run" record also carries host/build metadata (CPU, cores,
 * compiler, flags, build type) so bench_compare.py can flag cross-host
 * comparisons that need --normalize.
 *
 * Instrumentation changes host throughput, never simulated_ticks: an
 * instrumented run's fingerprint must equal the plain run's.
 */

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
#include "sim/parallel.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

using namespace ovl;
using cli::takeCount;
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
 * Sequential read sweep: 64 B strides over a 16 MiB anonymous buffer,
 * wrapping. Every access opens a new line (L1/L2/L3 miss on the first
 * lap, prefetch-assisted after), so this exercises the full
 * TLB -> hierarchy -> DRAM path. The request stream is materialized
 * before the timed region and driven through System::accessBatch —
 * trace-driven style — so the measurement covers the simulator, not
 * the bench's address generator. (Tick-identical to the former
 * per-access read() loop: the functional data movement it carried
 * never advanced simulated time.)
 */
Result
seqRead(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 16ull << 20;
    sys.mapAnon(p, kBase, kBufBytes);
    sys.attachStatsSampler(sampler);

    std::vector<AccessRequest> reqs(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        reqs[i] = AccessRequest{kBase + (i * kLineSize) % kBufBytes, false};
    auto start = Clock::now();
    Tick t = sys.accessBatch(p, reqs, 0);
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"seq_read", accesses, secs, t};
}

/** Sequential write sweep over the same geometry. */
Result
seqWrite(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 16ull << 20;
    sys.mapAnon(p, kBase, kBufBytes);
    sys.attachStatsSampler(sampler);

    std::vector<AccessRequest> reqs(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        reqs[i] = AccessRequest{kBase + (i * kLineSize) % kBufBytes, true};
    auto start = Clock::now();
    Tick t = sys.accessBatch(p, reqs, 0);
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"seq_write", accesses, secs, t};
}

/** Fixed-seed random 2:1 read/write mix over a 64 MiB footprint. */
Result
randomMix(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 64ull << 20;
    sys.mapAnon(p, kBase, kBufBytes);
    sys.attachStatsSampler(sampler);

    Rng rng(12345);
    std::vector<AccessRequest> reqs(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        reqs[i] = AccessRequest{kBase + lineBase(rng.below(kBufBytes)),
                                i % 3 == 2};
    }
    auto start = Clock::now();
    Tick t = sys.accessBatch(p, reqs, 0);
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"random_mix", accesses, secs, t};
}

/**
 * Sparse-SpMV-flavoured mix (§5.2): a zero-backed overlay region where
 * ~1/16 of the lines diverge via overlaying writes, then repeated
 * row-sweep reads that hit a blend of overlay lines and the shared zero
 * frame. Exercises the OMT cache, OMS allocator and overlay read path.
 */
Result
sparseSpmv(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid p = sys.createProcess();
    constexpr std::uint64_t kBufBytes = 8ull << 20;
    sys.mapZeroOverlay(p, kBase, kBufBytes);
    sys.attachStatsSampler(sampler);

    // Populate: every 16th line diverges (an overlaying write each).
    // Sweep: read every line; 1/16 comes from the overlay space.
    std::uint64_t populated = 0;
    std::vector<AccessRequest> reqs;
    reqs.reserve(accesses);
    for (Addr off = 0; off < kBufBytes; off += 16 * kLineSize) {
        reqs.push_back(AccessRequest{kBase + off, true});
        ++populated;
    }
    std::uint64_t reads = accesses > populated ? accesses - populated : 0;
    for (std::uint64_t i = 0; i < reads; ++i)
        reqs.push_back(
            AccessRequest{kBase + (i * kLineSize) % kBufBytes, false});
    auto start = Clock::now();
    Tick t = sys.accessBatch(p, reqs, 0);
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"sparse_spmv", populated + reads, secs, t};
}

/**
 * Fork/CoW churn: repeatedly fork a parent (overlay-on-write), have the
 * child diverge one line per page, then tear the child down. Exercises
 * fork's table copy, overlaying writes, unmap and frame recycling.
 */
Result
forkCow(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid parent = sys.createProcess();
    constexpr std::uint64_t kPages = 512;
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
    while (done < accesses) {
        Asid child = sys.fork(parent, ForkMode::OverlayOnWrite, t, &t);
        for (std::uint64_t pg = 0; pg < kPages && done < accesses;
             ++pg, ++done) {
            t = sys.access(child, kBase + pg * kPageSize, true, t);
        }
        sys.destroyProcess(child, t);
    }
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"fork_cow", done - kPages, secs, t};
}

/**
 * Sampled-simulation variant of fork_cow (DESIGN.md §10): one fork/
 * write/teardown iteration in every kDetailEvery runs through the
 * detailed timing model; the rest fast-forward functionally
 * (forkFunctional / accessFunctional / destroyProcessFunctional —
 * architectural state plus cache/TLB warming, zero tick movement).
 * `accesses` counts every simulated access, detailed or functional, so
 * Maccess_per_s measures the effective simulation rate of the sampled
 * mode. simulated_ticks is the detailed-window tick total — still a
 * deterministic fingerprint, but only comparable against other sampled
 * runs.
 */
Result
forkCowSampled(std::uint64_t accesses, StatsSampler *sampler)
{
    System sys;
    Asid parent = sys.createProcess();
    constexpr std::uint64_t kPages = 512;
    constexpr std::uint64_t kDetailEvery = 8;
    sys.mapAnon(parent, kBase, kPages * kPageSize);
    sys.attachStatsSampler(sampler);

    Tick t = 0;
    for (std::uint64_t pg = 0; pg < kPages; ++pg) {
        std::uint64_t val = pg;
        t = sys.write(parent, kBase + pg * kPageSize, &val, sizeof(val), t);
    }
    std::uint64_t done = kPages;
    std::uint64_t iter = 0;
    auto start = Clock::now();
    while (done < accesses) {
        bool detailed = iter++ % kDetailEvery == 0;
        if (detailed) {
            Asid child = sys.fork(parent, ForkMode::OverlayOnWrite, t, &t);
            for (std::uint64_t pg = 0; pg < kPages && done < accesses;
                 ++pg, ++done) {
                t = sys.access(child, kBase + pg * kPageSize, true, t);
            }
            sys.destroyProcess(child, t);
        } else {
            Asid child = sys.forkFunctional(parent,
                                            ForkMode::OverlayOnWrite);
            for (std::uint64_t pg = 0; pg < kPages && done < accesses;
                 ++pg, ++done) {
                sys.accessFunctional(child, kBase + pg * kPageSize, true);
            }
            sys.destroyProcessFunctional(child);
        }
    }
    double secs = elapsed(start);
    sys.detachStatsSampler(t);
    return Result{"fork_cow_sampled", done - kPages, secs, t};
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
    return Result{"sweep_coldstart", instructions, elapsed(start), fp};
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
    return Result{"sweep_warmstart", instructions, elapsed(start), fp};
}

void
writeJson(const std::vector<Result> &results, const std::string &path,
          unsigned jobs, double wall_seconds, unsigned best_of)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"_run\": {\"jobs\": %u, \"wall_seconds\": %.6f, "
                 "\"best_of\": %u, \"host\": %s},\n",
                 jobs, wall_seconds, best_of, hostInfoJson().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        double maps = double(r.accesses) / r.seconds / 1e6;
        std::fprintf(f,
                     "  \"%s\": {\"accesses\": %llu, \"seconds\": %.6f, "
                     "\"Maccess_per_s\": %.3f, \"simulated_ticks\": %llu, "
                     "\"jobs\": %u, \"wall_seconds\": %.6f}%s\n",
                     r.workload.c_str(),
                     (unsigned long long)r.accesses, r.seconds, maps,
                     (unsigned long long)r.simulatedTicks, jobs,
                     r.wallSeconds,
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
    std::uint64_t scale = takeCount(args, "--scale").value_or(1);
    // Unlike the sweep benches, this harness measures host throughput,
    // so it defaults to jobs=1 (serial) for measurement isolation.
    unsigned jobs = takePositiveCount(args, "--jobs").value_or(1);
    unsigned best_of = takePositiveCount(args, "--best-of").value_or(1);
    std::vector<std::string> only;
    while (std::optional<std::string> name = takeFlag(args, "--only"))
        only.push_back(*name);
    if (!args.empty()) {
        std::fprintf(stderr,
                     "usage: %s [-o out.json] [--scale N] [--jobs N]"
                     " [--only NAME] [--best-of N] %s\n",
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
    if (jobs != 1 && session.anySink()) {
        // Each sink is one stream bound to one run at a time: parallel
        // workloads would interleave their records, and per-workload
        // attribution windows need workloads to run one at a time.
        std::fprintf(stderr,
                     "%s: --stats-out, --trace-out and --profile-out"
                     " require --jobs 1\n",
                     prog);
        return 1;
    }

    Result (*const all_workloads[])(std::uint64_t, StatsSampler *) = {
        seqRead,        seqWrite,       randomMix,
        sparseSpmv,     forkCow,        forkCowSampled,
        sweepColdstart, sweepWarmstart,
    };
    const char *const all_names[] = {
        "seq_read",    "seq_write", "random_mix",
        "sparse_spmv", "fork_cow",  "fork_cow_sampled",
        "sweep_coldstart", "sweep_warmstart",
    };
    const std::uint64_t all_counts[] = {
        4'000'000 * scale, 4'000'000 * scale, 2'000'000 * scale,
        2'000'000 * scale, 1'000'000 * scale, 1'000'000 * scale,
        1'000'000 * scale, 1'000'000 * scale,
    };

    std::vector<Result (*)(std::uint64_t, StatsSampler *)> workloads;
    std::vector<std::string> names;
    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < std::size(all_workloads); ++i) {
        bool selected = only.empty();
        for (const std::string &name : only)
            selected = selected || name == all_names[i];
        if (selected) {
            workloads.push_back(all_workloads[i]);
            names.emplace_back(all_names[i]);
            counts.push_back(all_counts[i]);
        }
    }
    if (workloads.empty()) {
        std::fprintf(stderr, "%s: --only matched no workload\n", prog);
        return 1;
    }

    auto wall_start = Clock::now();
    std::vector<Result> results;
    for (unsigned rep = 0; rep < best_of; ++rep) {
        std::vector<Result> run = parallelMap(
            workloads.size(),
            [&](std::size_t i) {
                // One session run per workload: its own sampler and
                // profile window (both imply jobs == 1, checked above).
                return session.run(names[i], [&](StatsSampler *sampler) {
                    auto workload_start = Clock::now();
                    Result r = workloads[i](counts[i], sampler);
                    r.wallSeconds = elapsed(workload_start);
                    return r;
                });
            },
            jobs,
            [&names](std::size_t i) { return names[i]; });
        if (rep == 0) {
            results = std::move(run);
            continue;
        }
        // Best-of merge (the noise filter CI used to script in python):
        // keep each workload's fastest run, and fail hard if repeats ever
        // disagree on simulated_ticks — that is a determinism bug.
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (run[i].simulatedTicks != results[i].simulatedTicks) {
                std::fprintf(stderr,
                             "%s: simulated_ticks drift across repeats "
                             "(%llu vs %llu)\n",
                             names[i].c_str(),
                             (unsigned long long)results[i].simulatedTicks,
                             (unsigned long long)run[i].simulatedTicks);
                return 1;
            }
            if (run[i].seconds < results[i].seconds)
                results[i] = run[i];
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
    std::printf("%-12s jobs=%u best_of=%u wall=%.3fs\n", "(run)", jobs,
                best_of, wall_seconds);
    writeJson(results, out, jobs, wall_seconds, best_of);
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
