/**
 * @file
 * The fork/checkpoint workload of §5.1, rebuilt synthetically (see
 * DESIGN.md §3.1). Each of the paper's 15 SPEC CPU2006 benchmarks is
 * represented by a generator that reproduces the property the experiment
 * measures — the size and shape of the post-fork write working set:
 *
 *  - Type 1: small write working set (few dirtied pages);
 *  - Type 2: nearly every line of each dirtied page is written (one
 *    benchmark, cactus, writes a page's lines clustered in time, which
 *    is the case where copy-on-write's high-MLP copy wins);
 *  - Type 3: only a few lines of each dirtied page are written.
 *
 * The experiment: warm up, fork(), then run the parent while the child
 * idles; measure additional memory (Figure 8) and CPI (Figure 9).
 */

#ifndef OVERLAYSIM_WORKLOAD_FORKBENCH_HH
#define OVERLAYSIM_WORKLOAD_FORKBENCH_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "system/config.hh"
#include "vm/vmm.hh"

namespace ovl
{

class StatsSampler;

/** Temporal/spatial shape of the post-fork write stream. */
enum class WritePattern
{
    /**
     * Writes rotate over a bounded window of pages: a page's lines are
     * written well separated in time (Type 1/3 point-update codes).
     */
    Windowed,
    /**
     * Sequential sweep: ascending pages, ascending lines — the
     * bandwidth-bound streaming stencils (lbm, leslie3d; Type 2).
     */
    Streaming,
    /**
     * Random page order but all of a page's lines written back to back:
     * writes to a page's lines are close in time, the regime where
     * copy-on-write's single high-MLP page copy wins (cactus, §5.1).
     */
    Clustered,
};

/** Parameters of one synthetic fork benchmark. */
struct ForkBenchParams
{
    std::string name;
    unsigned type = 1; ///< paper's write-working-set taxonomy (1/2/3)

    std::uint64_t footprintPages = 2048;     ///< mapped + touched pages
    std::uint64_t hotPages = 256;            ///< read-locality set
    std::uint64_t dirtyPages = 64;           ///< pages written post-fork
    unsigned linesPerDirtyPage = 8;          ///< distinct lines per page
    WritePattern pattern = WritePattern::Windowed;

    std::uint64_t warmupInstructions = 800'000;
    std::uint64_t postForkInstructions = 6'000'000;

    double memOpFraction = 0.35;  ///< memory ops per instruction
    double writeFraction = 0.35;  ///< writes among memory ops
    /**
     * Read-mix composition: recently-touched lines (L1-class reuse),
     * then sequential streaming, remainder random within the hot set.
     * Streaming-heavy mixes model bandwidth-bound codes (lbm, leslie3d).
     */
    double recentReadShare = 0.65;
    double streamReadShare = 0.25;
    /**
     * Fresh-line writes load the line first (read-modify-write). False
     * models wholesale overwrites (cactus rewrites whole pages).
     */
    bool readModifyWrite = true;
    std::uint64_t seed = 1;
};

/** Measured outcome of one benchmark under one fork mode. */
struct ForkBenchResult
{
    std::string name;
    unsigned type = 0;
    ForkMode mode = ForkMode::CopyOnWrite;
    double additionalMemoryMB = 0.0; ///< Figure 8's y-axis
    double cpi = 0.0;                ///< Figure 9's y-axis
    std::uint64_t cowFaults = 0;
    std::uint64_t overlayingWrites = 0;
    Tick forkLatency = 0;
};

/**
 * Sampled-simulation control (DESIGN.md §10): the post-fork instruction
 * stream is cut into windows of @c intervalInstructions; the first
 * @c detailedInstructions of each window run through the detailed core
 * and memory-system model, the remainder fast-forwards functionally
 * (System::accessFunctional — architectural transitions plus functional
 * cache/TLB warming, zero tick movement). Each window's cycles are
 * extrapolated from its detailed prefix: est_k = detailed_cycles_k *
 * window_instr_k / detailed_instr_k. The first post-fork window always
 * runs fully detailed — the fork transient (the dense burst of CoW
 * faults / overlaying writes) is the phenomenon under study and does
 * not extrapolate; sampling covers the steady state after it.
 */
struct SampledSimParams
{
    std::uint64_t intervalInstructions = 0; ///< window size (0 = invalid)
    /** Detailed prefix per window; 0 = intervalInstructions / 10. */
    std::uint64_t detailedInstructions = 0;
    /** Also run the full-detail twin and fill the error fields. */
    bool compareFull = false;
};

/** One sampling window of a sampled run. */
struct SampledWindow
{
    std::uint64_t instructions = 0;         ///< consumed in the window
    std::uint64_t detailedInstructions = 0; ///< detailed prefix size
    Tick detailedCycles = 0;                ///< cycles of the prefix
    double estimatedCycles = 0.0;           ///< extrapolated window cycles
    Tick fullCycles = 0;                    ///< twin run (compareFull)
    /** Host-time attribution of the window: wall seconds spent in the
     *  detailed prefix vs the functional fast-forward remainder.
     *  Measured at segment boundaries only (two steady_clock reads per
     *  segment), so it is always on and never moves a tick. */
    double detailedHostSeconds = 0.0;
    double functionalHostSeconds = 0.0;
};

/** Outcome of a sampled run (plus the full-run comparison if requested). */
struct ForkBenchSampledResult
{
    /** Estimated figures; cpi is the per-window extrapolation. */
    ForkBenchResult sampled;
    std::vector<SampledWindow> windows;
    std::uint64_t totalInstructions = 0;
    std::uint64_t detailedInstructions = 0;
    /** Host-time split of the post-fork phase (Σ over windows). */
    double detailedHostSeconds = 0.0;
    double functionalHostSeconds = 0.0;
    /** Filled when SampledSimParams::compareFull is set. */
    double fullCpi = 0.0;
    double cpiErrorPct = 0.0;
    double meanWindowErrorPct = 0.0;
    double maxWindowErrorPct = 0.0;
};

/** The 15-benchmark suite (5 per type), named per Figure 8. */
const std::vector<ForkBenchParams> &forkBenchSuite();

/** Look up one suite benchmark by name. */
const ForkBenchParams &forkBenchByName(const std::string &name);

/**
 * The post-fork write schedule (line-granular virtual addresses) a
 * benchmark will issue, in order — exposed for tests and trace tooling.
 */
std::vector<Addr> buildWriteSchedule(const ForkBenchParams &params,
                                     Rng &rng);

/**
 * Run one benchmark under @p mode on a fresh system configured by
 * @p config (pass a default SystemConfig for Table 2). When
 * @p dump_stats is non-null, the post-fork component statistics are
 * dumped there after the run. When @p record is non-null, the post-fork
 * instruction stream is appended to it (replayable with OooCore::run or
 * `overlaysim trace run`; note the replay machine starts un-forked, so
 * replay measures the access pattern, not the CoW/OoW divergence).
 * When @p sampler is non-null it is attached to the run's System for
 * the whole run (warmup included) and finished/detached at the end;
 * the sampler must be freshly constructed (no groups added yet). The
 * post-fork resetStats() rebases the sampler's deltas automatically.
 * When @p dump_stats_json is non-null, the post-fork System stats are
 * dumped there in the dumpAllStatsJson grammar — the input format of
 * `overlaysim stats-diff` (golden-stats forensics).
 */
ForkBenchResult runForkBench(const ForkBenchParams &params, ForkMode mode,
                             SystemConfig config,
                             std::ostream *dump_stats = nullptr,
                             std::vector<TraceOp> *record = nullptr,
                             StatsSampler *sampler = nullptr,
                             std::ostream *dump_stats_json = nullptr);

/**
 * Run one benchmark in sampled-simulation mode (see SampledSimParams).
 * Warmup and the fork itself always run detailed; sampling applies to
 * the post-fork measurement phase. The generator consumes the identical
 * op stream as runForkBench (same RNG draws), so the detailed windows
 * see the accesses a full run would have issued at those points, against
 * architectural state kept exact by the functional fast-forward.
 *
 * When @p sampled.compareFull is set, a full-detail twin runs the same
 * stream in one epoch (byte-identical to runForkBench) with
 * core.currentCycle() snapshots at window boundaries, and the result's
 * error fields report the per-window and end-to-end extrapolation error.
 * When @p sampler is non-null it is attached to the sampled run's System
 * (PR 4 tick-domain sampling: records fire only inside detailed windows,
 * where simulated time advances).
 *
 * Requires promotion disabled (the default SystemConfig): the functional
 * fast-forward cannot run the OS promotion policy.
 */
ForkBenchSampledResult runForkBenchSampled(const ForkBenchParams &params,
                                           ForkMode mode, SystemConfig config,
                                           const SampledSimParams &sampled,
                                           StatsSampler *sampler = nullptr);

// ----- warm-start execution (DESIGN.md §11) ----------------------------

/**
 * A benchmark's simulated warmup prefix, captured right after the warmup
 * epoch closes and before the fork. The prefix is mode-independent (no
 * overlays or CoW state exist before the fork), so one warm state fans
 * out across CoW/OoW rows — and, via the config override of
 * runForkBenchFromWarmState(), across policy-field config sweeps.
 */
struct ForkBenchWarmState
{
    ForkBenchParams params;
    SystemConfig config;
    /** Tick at which the warmup epoch closed. */
    Tick warmupEnd = 0;
    /** Parent process ASID. */
    Asid parent = 0;
    /** System + core + RNG snapshot payload. */
    std::vector<std::uint8_t> machine;
};

/**
 * Simulate the warmup prefix of @p params once and capture it. The
 * returned state is immutable; every runForkBenchFromWarmState() call
 * restores a private copy of the machine.
 */
ForkBenchWarmState prepareForkBenchWarmState(const ForkBenchParams &params,
                                             SystemConfig config);

/**
 * Run the post-fork measurement phase from a warm state. Produces a
 * result byte-identical to runForkBench(warm.params, mode, warm.config):
 * the restored machine, core and RNG continue exactly where the prefix
 * stopped. @p config_override (optional) swaps in a config that may
 * differ from warm.config in policy fields only (promote threshold, OS
 * cost constants); structural differences throw snapshot::SnapshotError.
 */
ForkBenchResult runForkBenchFromWarmState(
    const ForkBenchWarmState &warm, ForkMode mode,
    const SystemConfig *config_override = nullptr,
    std::ostream *dump_stats = nullptr);

/** One benchmark under both fork modes. */
struct ForkBenchPair
{
    ForkBenchResult cow, oow;
};

/**
 * Run @p params under copy-on-write and overlay-on-write on machines
 * built from @p config. The warmup prefix is simulated once
 * (prepareForkBenchWarmState) and both modes fork from it, so each
 * result is byte-identical to runForkBench(params, mode, config) at half
 * the warmup cost. Any config may be swept this way: both modes fork
 * from a warm state captured under that same config.
 */
ForkBenchPair runForkBenchPair(const ForkBenchParams &params,
                               SystemConfig config);

// ----- crash-resumable checkpoint/restore (DESIGN.md §11) --------------

/** Checkpointing policy of runForkBenchCheckpointed(). */
struct ForkBenchCheckpointOptions
{
    /** Snapshot file to (over)write. */
    std::string path;
    /**
     * Periodic mode: write a checkpoint at the first op boundary at or
     * after every multiple of this many post-fork ticks, and keep
     * running. 0 disables.
     */
    Tick everyTicks = 0;
    /**
     * One-shot mode: write one checkpoint at the first op boundary at or
     * after this tick, then stop the run (the function returns nullopt).
     * 0 disables.
     */
    Tick atTick = 0;
};

/** What runForkBenchCheckpointed() did. */
struct ForkBenchCheckpointedRun
{
    /** The run's result; nullopt when a one-shot checkpoint stopped it. */
    std::optional<ForkBenchResult> result;
    /** Checkpoints written; each overwrote the last, and 0 means none. */
    std::uint64_t checkpointsWritten = 0;
};

/**
 * runForkBench with checkpointing. The executed run is op-for-op
 * identical to runForkBench(params, mode, config); checkpoints observe
 * the run without perturbing it.
 */
ForkBenchCheckpointedRun runForkBenchCheckpointed(
    const ForkBenchParams &params, ForkMode mode, SystemConfig config,
    const ForkBenchCheckpointOptions &ckpt);

/**
 * Resume a checkpoint file to completion. The continued run — and the
 * returned result — is byte-identical to the uninterrupted run the
 * checkpoint was cut from. The machine configuration is rebuilt as the
 * default SystemConfig (what `overlaysim forkbench` runs) plus the
 * checkpoint's recorded post-fork instruction count. Throws
 * snapshot::SnapshotError on any malformed, truncated or mismatched
 * file.
 */
ForkBenchResult resumeForkBenchCheckpoint(const std::string &path);

} // namespace ovl

#endif // OVERLAYSIM_WORKLOAD_FORKBENCH_HH
