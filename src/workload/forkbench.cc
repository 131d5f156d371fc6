#include "forkbench.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "sim/snapshot.hh"
#include "sim/stats_sampler.hh"
#include "system/system.hh"

namespace ovl
{

namespace
{

constexpr Addr kHeapBase = 0x1000'0000;

/** Precomputed post-fork write schedule: line-granular virtual addrs. */
struct WriteSchedule
{
    std::vector<Addr> addrs;
    std::size_t next = 0;

    bool exhausted() const { return next >= addrs.size(); }

    Addr
    take()
    {
        return addrs[next++];
    }
};

} // namespace

std::vector<Addr>
buildWriteSchedule(const ForkBenchParams &p, Rng &rng)
{
    // Choose the dirty pages. Streaming sweeps dirty a contiguous
    // region (a grid pass); the other patterns dirty pages scattered
    // over the footprint.
    std::vector<std::uint64_t> pages;
    if (p.pattern == WritePattern::Streaming) {
        std::uint64_t start = p.footprintPages > p.dirtyPages
                                  ? rng.below(p.footprintPages -
                                              p.dirtyPages)
                                  : 0;
        for (std::uint64_t i = 0; i < p.dirtyPages; ++i)
            pages.push_back(start + i);
    } else {
        pages.resize(p.footprintPages);
        for (std::uint64_t i = 0; i < p.footprintPages; ++i)
            pages[i] = i;
        for (std::uint64_t i = 0; i < p.dirtyPages; ++i) {
            std::uint64_t j = i + rng.below(p.footprintPages - i);
            std::swap(pages[i], pages[j]);
        }
        pages.resize(p.dirtyPages);
    }

    // Per page, the lines that will be written: an ascending prefix for
    // the streaming sweep, a random subset otherwise.
    std::vector<std::vector<unsigned>> lines(p.dirtyPages);
    unsigned count = std::min<unsigned>(p.linesPerDirtyPage, kLinesPerPage);
    for (auto &page_lines : lines) {
        if (p.pattern == WritePattern::Streaming) {
            for (unsigned l = 0; l < count; ++l)
                page_lines.push_back(l);
            continue;
        }
        unsigned all[kLinesPerPage];
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            all[l] = l;
        for (unsigned l = 0; l < count; ++l) {
            unsigned j = l + unsigned(rng.below(kLinesPerPage - l));
            std::swap(all[l], all[j]);
        }
        page_lines.assign(all, all + count);
    }

    std::vector<Addr> schedule;
    schedule.reserve(p.dirtyPages * count);
    switch (p.pattern) {
      case WritePattern::Streaming:
      case WritePattern::Clustered:
        // Page by page; Streaming is fully sequential (ascending pages
        // and lines), Clustered hops to random pages but writes each
        // page's (random-order) lines back to back.
        for (std::size_t pg = 0; pg < lines.size(); ++pg) {
            for (unsigned l : lines[pg]) {
                schedule.push_back(kHeapBase + pages[pg] * kPageSize +
                                   Addr(l) * kLineSize);
            }
        }
        break;
      case WritePattern::Windowed: {
        // Writes rotate over a bounded window of active pages (like a
        // SPEC working set): a given page's successive line writes are
        // ~window writes apart ("well separated in time", §5.1), while
        // the active footprint stays TLB-resident.
        constexpr std::size_t kWindow = 24;
        std::vector<std::size_t> active;       // page indices in window
        std::vector<std::size_t> next_line(p.dirtyPages, 0);
        std::size_t next_page = 0;
        while (active.size() < kWindow && next_page < lines.size())
            active.push_back(next_page++);
        std::size_t cursor = 0;
        while (!active.empty()) {
            cursor = cursor % active.size();
            std::size_t pg = active[cursor];
            schedule.push_back(kHeapBase + pages[pg] * kPageSize +
                               Addr(lines[pg][next_line[pg]]) *
                                   kLineSize);
            if (++next_line[pg] >= lines[pg].size()) {
                // Page exhausted: replace it in the window.
                if (next_page < lines.size()) {
                    active[cursor] = next_page++;
                } else {
                    active.erase(active.begin() +
                                 std::ptrdiff_t(cursor));
                }
            }
            ++cursor;
        }
        break;
      }
    }
    return schedule;
}

namespace
{

/**
 * The complete between-iteration state of the steady-state generator
 * loop, lifted out of streamPhaseGenResumable's locals so a checkpoint
 * can capture it mid-phase and a restore can continue the loop with the
 * exact remaining op stream (same RNG draws, same order).
 */
struct StreamPhaseState
{
    /** Recent-reuse window (the register/stack/L1-resident share). */
    static constexpr std::uint32_t kRecent = 64;

    std::uint64_t budget = 0; ///< instructions left in the phase
    WriteSchedule schedule;
    bool hasSchedule = false;
    std::vector<Addr> rewritePool; ///< lines already written (re-writes)
    std::uint32_t burstRemaining = 0; ///< clustered-pattern page burst
    std::array<Addr, kRecent> recent{};
    std::uint32_t recentCount = 0;
    std::uint32_t recentHead = 0;
    Addr streamLine = 0; ///< sequential stream cursor (line index)
    /**
     * Fresh-write pacing so the schedule spans the whole epoch (a SPEC
     * process dirties pages steadily, not in an initial burst). Fixed at
     * phase start from the full schedule size.
     */
    double freshFraction = 1.0;

    /** Snapshot visitor (DESIGN.md §11.1). */
    template <class Self, class Ar>
    static void
    io(Self &st, Ar &ar)
    {
        ar.section("PHST", [&] {
            ar.u64(st.budget);
            ar.b(st.hasSchedule);
            if constexpr (Ar::kLoading)
                st.schedule = WriteSchedule{};
            if (st.hasSchedule) {
                ar.seq(st.schedule.addrs, 8, [&](auto &a) { ar.u64(a); });
                ar.u64(st.schedule.next);
                if constexpr (Ar::kLoading) {
                    if (st.schedule.next > st.schedule.addrs.size()) {
                        ar.fail("write-schedule cursor " +
                                std::to_string(st.schedule.next) +
                                " past its " +
                                std::to_string(st.schedule.addrs.size()) +
                                " entries");
                    }
                }
            }
            ar.seq(st.rewritePool, 8, [&](auto &a) { ar.u64(a); });
            ar.u32(st.burstRemaining);
            for (auto &a : st.recent)
                ar.u64(a);
            ar.u32(st.recentCount);
            ar.u32(st.recentHead);
            if constexpr (Ar::kLoading) {
                if (st.recentCount > kRecent || st.recentHead >= kRecent) {
                    ar.fail("recent-window cursor out of range (count " +
                            std::to_string(st.recentCount) + ", head " +
                            std::to_string(st.recentHead) + ")");
                }
            }
            ar.u64(st.streamLine);
            ar.f64(st.freshFraction);
        });
    }
};

/** Post-fork phase start: full budget, schedule drawn, pacing set. */
StreamPhaseState
postForkPhase(const ForkBenchParams &p, Rng &rng)
{
    StreamPhaseState st;
    st.budget = p.postForkInstructions;
    st.schedule.addrs = buildWriteSchedule(p, rng);
    st.hasSchedule = true;
    double expected_writes =
        double(st.budget) * p.memOpFraction * p.writeFraction;
    st.freshFraction =
        expected_writes > 0
            ? double(st.schedule.addrs.size()) / expected_writes
            : 1.0;
    st.freshFraction = std::min(1.0, st.freshFraction);
    return st;
}

/** The stop predicate of a phase that runs to its end. */
struct RunToEnd
{
    bool operator()() const { return false; }
};

/**
 * Emit the benchmark's steady-state mix until @p st.budget runs out. The
 * read stream mimics SPEC-class locality: most accesses re-touch
 * recently used lines (L1 hits), a share streams sequentially through
 * the footprint (prefetch-friendly), and a tail jumps randomly within
 * the hot set — overall miss rates in the few-percent range rather than
 * the cache-hostile uniform-random extreme.
 *
 * The generator is a template over the execution sink so the same
 * op stream (same RNG draws, same order) can drive the detailed core or
 * a sampled-simulation sink that switches between detailed execution and
 * functional fast-forward per window (DESIGN.md §10).
 *
 * @p stop is polled between loop iterations (checkpoint boundaries):
 * returning true suspends the phase with @p st and the RNG holding
 * exactly the state a later call needs to continue the identical stream.
 */
template <typename Exec, typename Stop>
void
streamPhaseGenResumable(Exec &&execute, const ForkBenchParams &p, Rng &rng,
                        StreamPhaseState &st, Stop &&stop)
{
    WriteSchedule *schedule = st.hasSchedule ? &st.schedule : nullptr;
    auto touch = [&](Addr a) {
        st.recent[st.recentHead] = a;
        st.recentHead = (st.recentHead + 1) % StreamPhaseState::kRecent;
        st.recentCount = std::min<std::uint32_t>(st.recentCount + 1,
                                                 StreamPhaseState::kRecent);
    };

    Addr footprint_lines = p.footprintPages * kLinesPerPage;

    while (st.budget > 0) {
        // Non-memory instructions between memory ops.
        double per_mem = 1.0 / p.memOpFraction - 1.0;
        std::uint32_t compute = std::uint32_t(per_mem);
        if (rng.chance(per_mem - compute))
            ++compute;
        if (compute > 0) {
            execute(TraceOp::compute(compute));
            st.budget -= std::min<std::uint64_t>(st.budget, compute);
        }
        if (st.budget == 0)
            break;

        bool is_write = rng.chance(p.writeFraction);
        if (is_write && schedule != nullptr) {
            Addr addr;
            bool take_fresh;
            if (p.pattern == WritePattern::Clustered) {
                // Whole-page bursts: once a page's rewrite starts, its
                // lines are written back to back ("close in time").
                if (st.burstRemaining == 0 && !schedule->exhausted() &&
                    (st.rewritePool.empty() ||
                     rng.chance(st.freshFraction / p.linesPerDirtyPage))) {
                    st.burstRemaining = p.linesPerDirtyPage;
                }
                take_fresh = st.burstRemaining > 0 &&
                             !schedule->exhausted();
                if (take_fresh)
                    --st.burstRemaining;
            } else {
                take_fresh = !schedule->exhausted() &&
                             (st.rewritePool.empty() ||
                              rng.chance(st.freshFraction));
            }
            if (take_fresh) {
                addr = schedule->take();
                st.rewritePool.push_back(addr);
                if (p.readModifyWrite) {
                    // Real update streams read the data they modify
                    // (read-modify-write); the load brings the line into
                    // the cache in both mechanisms' worlds.
                    execute(TraceOp::load(addr));
                    if (st.budget > 1)
                        --st.budget;
                }
            } else if (!st.rewritePool.empty()) {
                // Re-writes favour recently dirtied lines (temporal
                // locality of real write streams).
                std::size_t window = std::min<std::size_t>(
                    st.rewritePool.size(), 512);
                std::size_t idx = st.rewritePool.size() - 1 -
                                  rng.below(window);
                addr = st.rewritePool[idx];
            } else {
                addr = kHeapBase; // degenerate tiny schedule
            }
            execute(TraceOp::store(addr));
            touch(addr);
        } else if (is_write) {
            // Warmup writes: anywhere in the footprint.
            std::uint64_t page = rng.below(p.footprintPages);
            Addr addr = kHeapBase + page * kPageSize +
                        rng.below(kLinesPerPage) * kLineSize;
            execute(TraceOp::store(addr));
            touch(addr);
        } else {
            Addr addr;
            double dice = rng.uniform();
            if (dice < p.recentReadShare && st.recentCount > 0) {
                // Re-use a recently touched line: an L1 hit.
                addr = st.recent[rng.below(st.recentCount)];
            } else if (dice < p.recentReadShare + p.streamReadShare) {
                // Sequential streaming through the footprint.
                st.streamLine = (st.streamLine + 1) % footprint_lines;
                addr = kHeapBase + st.streamLine * kLineSize;
            } else {
                // Random within the hot set.
                std::uint64_t page = rng.below(p.hotPages);
                addr = kHeapBase + page * kPageSize +
                       rng.below(kLinesPerPage) * kLineSize;
            }
            execute(TraceOp::load(addr));
            touch(addr);
        }
        --st.budget;
        if (st.budget > 0 && stop())
            return;
    }
}

/**
 * The machine one fork-bench run drives — System, core and generator
 * RNG, named and seeded after the benchmark — and the run's fork timing.
 */
struct ForkBenchMachine
{
    System system;
    OooCore core;
    Rng rng;
    Asid parent = 0;
    Tick forkStart = 0; ///< warmup end, where fork() is issued
    Tick forkDone = 0;  ///< tick the fork completed

    ForkBenchMachine(const ForkBenchParams &p, SystemConfig config)
        : system((config.name = p.name, std::move(config))),
          core(p.name + ".core", system), rng(p.seed)
    {
    }

    /**
     * Map the heap and run the warmup epoch: populate caches/TLBs and
     * dirty the address space so the fork has real pages to share.
     * Warmup writes have no schedule: they land anywhere in the heap.
     */
    void
    warmup(const ForkBenchParams &p)
    {
        parent = system.createProcess();
        system.mapAnon(parent, kHeapBase, p.footprintPages * kPageSize);
        core.beginEpoch(0);
        StreamPhaseState st;
        st.budget = p.warmupInstructions;
        streamPhaseGenResumable(
            [&](const TraceOp &op) { core.executeOp(parent, op); }, p, rng,
            st, RunToEnd{});
        forkStart = core.finishEpoch();
    }

    /** fork(): the child idles (as in §5.1); the parent keeps running. */
    void
    fork(ForkMode mode)
    {
        forkDone = forkStart;
        system.fork(parent, mode, forkStart, &forkDone);
        system.markMemoryBaseline();
        system.resetStats();
    }

    /** The WARM payload: the warmed machine, core and RNG. */
    template <class Self, class Ar>
    static void
    io(Self &m, Ar &ar)
    {
        ar.section("WARM", [&] {
            snapshot::visit(m.system, ar);
            snapshot::visit(m.core, ar);
            for (auto &word : m.rng.rawState())
                ar.u64(word);
        });
    }
};

/**
 * One post-fork run of the fork experiment — benchmark, fork mode,
 * suspended generator and the machine it drives. Every fork-bench
 * driver is start (cold, warm or checkpoint file), advance (feed the op
 * stream to a sink until it ends or a stop predicate suspends it), then
 * finish (DESIGN.md §11.3).
 *
 * The io visitor is the FKCP checkpoint record. Loading builds the
 * machine once the benchmark name is known, as the default SystemConfig
 * that `overlaysim forkbench` runs; structural mismatches with the
 * checkpointed machine are caught by the component visitors.
 */
struct ForkRun
{
    ForkBenchParams params;
    ForkMode mode = ForkMode::CopyOnWrite;
    StreamPhaseState phase;
    std::optional<ForkBenchMachine> machine;

    /**
     * Cold start: warm up a fresh machine, fork, arm the post-fork
     * phase. @p sampler (optional, freshly constructed) observes the
     * whole run, warmup included; finish() detaches it.
     */
    void
    startCold(const ForkBenchParams &p, ForkMode fork_mode,
              SystemConfig config, StatsSampler *sampler = nullptr)
    {
        params = p;
        ForkBenchMachine &m = machine.emplace(p, std::move(config));
        m.system.attachStatsSampler(sampler, 0);
        m.warmup(p);
        forkAndArm(fork_mode);
    }

    /** Warm start: restore the warmup prefix under @p config, fork, arm. */
    void
    startWarm(const ForkBenchWarmState &warm, ForkMode fork_mode,
              const SystemConfig &config)
    {
        params = warm.params;
        ForkBenchMachine &m = machine.emplace(params, config);
        snapshot::Reader r(warm.machine);
        snapshot::visit(m, r);
        if (!r.atEnd())
            r.fail("trailing bytes after warm-state payload");
        m.parent = warm.parent;
        m.forkStart = warm.warmupEnd;
        forkAndArm(fork_mode);
    }

    /** Checkpoint start: load the suspended run an FKCP file holds. */
    void
    startFromCheckpoint(const std::string &path)
    {
        std::vector<std::uint8_t> payload = snapshot::readSnapshotFile(path);
        snapshot::Reader r(payload);
        snapshot::visit(*this, r);
        if (!r.atEnd())
            r.fail("trailing bytes after checkpoint payload");
    }

    /** The detailed sink: every op goes through the core. */
    auto
    detailed()
    {
        ForkBenchMachine &m = *machine;
        return [&m](const TraceOp &op) { m.core.executeOp(m.parent, op); };
    }

    /**
     * Feed the rest of the post-fork op stream to @p execute, polling
     * @p stop between ops. Returns false when @p stop suspended the
     * phase (a later advance continues the identical stream).
     */
    template <typename Exec, typename Stop = RunToEnd>
    bool
    advance(Exec &&execute, Stop &&stop = Stop{})
    {
        streamPhaseGenResumable(std::forward<Exec>(execute), params,
                                machine->rng, phase,
                                std::forward<Stop>(stop));
        return phase.budget == 0;
    }

    /**
     * Close the post-fork epoch, detach the stats sampler, measure, and
     * dump the post-fork stats to @p dump_stats (text) and
     * @p dump_stats_json (the dumpAllStatsJson grammar) when given.
     */
    ForkBenchResult
    finish(std::ostream *dump_stats = nullptr,
           std::ostream *dump_stats_json = nullptr)
    {
        ForkBenchMachine &m = *machine;
        // Memory accounting happens at steady state: dirty overlay lines
        // still in the caches get their OMS slots on eviction (§4.3.3),
        // so force the writebacks before measuring (the flush is
        // excluded from the measured epoch).
        Tick end = m.core.finishEpoch();
        m.system.caches().flushAll(end);
        m.system.detachStatsSampler(end);

        ForkBenchResult res;
        res.name = params.name;
        res.type = params.type;
        res.mode = mode;
        res.additionalMemoryMB =
            double(m.system.additionalMemoryBytes()) / double(1_MiB);
        res.cpi = m.core.epochCpi();
        res.cowFaults = m.system.cowFaults();
        res.overlayingWrites = m.system.overlayingWrites();
        res.forkLatency = m.forkDone - m.forkStart;
        if (dump_stats != nullptr) {
            m.system.dumpAllStats(*dump_stats);
            m.core.dumpStats(*dump_stats);
        }
        if (dump_stats_json != nullptr)
            m.system.dumpAllStatsJson(*dump_stats_json);
        return res;
    }

    /** The FKCP checkpoint record (DESIGN.md §11.1). */
    template <class Self, class Ar>
    static void
    io(Self &run, Ar &ar)
    {
        ar.section("FKCP", [&] {
            std::string name = run.params.name;
            ar.str(name);
            if constexpr (Ar::kLoading) {
                const auto &suite = forkBenchSuite();
                auto it = std::find_if(suite.begin(), suite.end(),
                                       [&](const ForkBenchParams &p) {
                                           return p.name == name;
                                       });
                if (it == suite.end())
                    ar.fail("checkpoint names unknown benchmark '" + name +
                            "'");
                run.params = *it;
            }
            std::uint8_t mode = run.mode == ForkMode::CopyOnWrite ? 0 : 1;
            ar.u8(mode);
            if constexpr (Ar::kLoading) {
                if (mode > 1)
                    ar.fail("invalid fork mode " + std::to_string(mode));
                run.mode = mode == 0 ? ForkMode::CopyOnWrite
                                      : ForkMode::OverlayOnWrite;
            }
            ar.u64(run.params.postForkInstructions);
            if constexpr (Ar::kLoading)
                run.machine.emplace(run.params, SystemConfig{});
            auto &m = *run.machine;
            ar.u16(m.parent);
            ar.u64(m.forkStart);
            ar.u64(m.forkDone);
            snapshot::visit(run.phase, ar);
            for (auto &word : m.rng.rawState())
                ar.u64(word);
            snapshot::visit(m.core, ar);
            snapshot::visit(m.system, ar);
            if constexpr (Ar::kLoading) {
                std::size_t procs = m.system.vmm().processCount();
                if (m.parent >= procs) {
                    ar.fail("checkpoint parent ASID " +
                            std::to_string(m.parent) + " not among the " +
                            std::to_string(procs) + " restored processes");
                }
            }
        });
    }

    /** Fork the warmed machine, draw the schedule, open the epoch. */
    void
    forkAndArm(ForkMode fork_mode)
    {
        mode = fork_mode;
        ForkBenchMachine &m = *machine;
        m.fork(fork_mode);
        phase = postForkPhase(params, m.rng);
        m.core.beginEpoch(m.forkDone);
    }
};

} // namespace

const std::vector<ForkBenchParams> &
forkBenchSuite()
{
    auto make = [](std::string name, unsigned type, std::uint64_t footprint,
                   std::uint64_t hot, std::uint64_t dirty, unsigned lines,
                   WritePattern pattern, double write_frac,
                   std::uint64_t seed) {
        ForkBenchParams p;
        p.name = std::move(name);
        p.type = type;
        p.footprintPages = footprint;
        p.hotPages = hot;
        p.dirtyPages = dirty;
        p.linesPerDirtyPage = lines;
        p.pattern = pattern;
        p.writeFraction = write_frac;
        p.seed = seed;
        if (pattern == WritePattern::Streaming) {
            // Bandwidth-bound streaming codes: more memory traffic,
            // stream-dominated reads.
            p.memOpFraction = 0.45;
            p.recentReadShare = 0.40;
            p.streamReadShare = 0.50;
        }
        if (pattern == WritePattern::Clustered) {
            // cactus rewrites whole pages wholesale, in dense bursts.
            p.readModifyWrite = false;
        }
        return p;
    };

    constexpr auto kWin = WritePattern::Windowed;
    constexpr auto kStream = WritePattern::Streaming;
    constexpr auto kClust = WritePattern::Clustered;
    static const std::vector<ForkBenchParams> suite = {
        // Type 1: low write working set.
        make("bwaves", 1, 2560, 192, 24, 6, kWin, 0.20, 11),
        make("hmmer", 1, 1536, 128, 40, 10, kWin, 0.25, 12),
        make("libq", 1, 1024, 96, 16, 4, kWin, 0.18, 13),
        make("sphinx3", 1, 2048, 160, 56, 12, kWin, 0.22, 14),
        make("tonto", 1, 1792, 128, 32, 8, kWin, 0.24, 15),
        // Type 2: almost all lines of each dirtied page are written.
        // All but cactus are streaming sweeps (bandwidth-bound).
        make("bzip2", 2, 3072, 256, 700, 60, kStream, 0.40, 21),
        make("cactus", 2, 2560, 224, 520, 64, kClust, 0.42, 22),
        make("lbm", 2, 4096, 320, 900, 62, kStream, 0.45, 23),
        make("leslie3d", 2, 3584, 288, 650, 58, kStream, 0.40, 24),
        make("soplex", 2, 2816, 224, 540, 56, kStream, 0.38, 25),
        // Type 3: only a few lines of each dirtied page are written.
        make("astar", 3, 4096, 320, 640, 5, kWin, 0.35, 31),
        make("Gems", 3, 5120, 384, 800, 7, kWin, 0.38, 32),
        make("mcf", 3, 6144, 448, 1000, 4, kWin, 0.40, 33),
        make("milc", 3, 3584, 288, 640, 6, kWin, 0.34, 34),
        make("omnet", 3, 3072, 256, 520, 8, kWin, 0.33, 35),
    };
    return suite;
}

const ForkBenchParams &
forkBenchByName(const std::string &name)
{
    for (const ForkBenchParams &p : forkBenchSuite()) {
        if (p.name == name)
            return p;
    }
    ovl_fatal("unknown fork benchmark: %s", name.c_str());
}

ForkBenchResult
runForkBench(const ForkBenchParams &params, ForkMode mode,
             SystemConfig config, std::ostream *dump_stats,
             std::vector<TraceOp> *record, StatsSampler *sampler,
             std::ostream *dump_stats_json)
{
    ForkRun run;
    run.startCold(params, mode, std::move(config), sampler);
    auto detailed = run.detailed();
    run.advance([&](const TraceOp &op) {
        detailed(op);
        if (record != nullptr)
            record->push_back(op);
    });
    return run.finish(dump_stats, dump_stats_json);
}

ForkBenchSampledResult
runForkBenchSampled(const ForkBenchParams &params, ForkMode mode,
                    SystemConfig config, const SampledSimParams &sampled,
                    StatsSampler *sampler)
{
    ovl_assert(sampled.intervalInstructions > 0,
               "sampled simulation needs a window size");
    std::uint64_t detail =
        sampled.detailedInstructions != 0
            ? sampled.detailedInstructions
            : std::max<std::uint64_t>(1, sampled.intervalInstructions / 10);
    ovl_assert(detail <= sampled.intervalInstructions,
               "detailed prefix larger than the window");
    ovl_assert(config.promoteThresholdLines >= kLinesPerPage,
               "sampled simulation requires promotion disabled");

    ForkBenchSampledResult out;

    // ------------------------- sampled run ----------------------------
    {
        ForkRun run;
        run.startCold(params, mode, config, sampler);
        ForkBenchMachine &m = *run.machine;

        // Windowed sink: a detailed prefix measured as its own core
        // epoch, then functional fast-forward to the window boundary.
        // Simulated time only advances inside detailed prefixes. The
        // first prefix runs in the epoch startCold() opened.
        Tick cursor = m.forkDone;
        Tick detail_start = cursor;
        std::uint64_t win_instr = 0;
        bool in_detail = true;
        // The first post-fork window always runs fully detailed: CoW
        // faults and overlaying writes are densest right after the fork,
        // so extrapolating a prefix of that transient 10x overestimates
        // it badly. Sampling applies to the steady state that follows.
        bool first_window = true;
        SampledWindow win;

        // Host-time split: one steady_clock stamp per segment boundary
        // (detailed→functional, window close), charged to the segment
        // that just ended. Boundary-only cost, never touches sim state.
        using host_clock = std::chrono::steady_clock;
        host_clock::time_point seg_start = host_clock::now();
        auto charge_segment = [&](double &bucket) {
            host_clock::time_point now = host_clock::now();
            bucket +=
                std::chrono::duration<double>(now - seg_start).count();
            seg_start = now;
        };

        auto close_detail = [&]() {
            cursor = m.core.finishEpoch();
            win.detailedCycles = cursor - detail_start;
            win.detailedInstructions = win_instr;
            charge_segment(win.detailedHostSeconds);
        };
        auto close_window = [&]() {
            if (in_detail)
                close_detail(); // window never left its detailed prefix
            else
                charge_segment(win.functionalHostSeconds);
            win.instructions = win_instr;
            win.estimatedCycles =
                win.detailedInstructions != 0
                    ? double(win.detailedCycles) *
                          (double(win.instructions) /
                           double(win.detailedInstructions))
                    : 0.0;
            out.windows.push_back(win);
            win = SampledWindow{};
            win_instr = 0;
            in_detail = true;
            first_window = false;
            detail_start = cursor;
            m.core.beginEpoch(cursor);
        };

        run.advance([&](const TraceOp &op) {
            if (in_detail) {
                m.core.executeOp(m.parent, op);
            } else if (op.kind != TraceOp::Kind::Compute) {
                m.system.accessFunctional(m.parent, op.vaddr,
                                          op.kind == TraceOp::Kind::Store,
                                          m.core.coreIndex());
            }
            win_instr +=
                op.kind == TraceOp::Kind::Compute ? op.count : 1;
            std::uint64_t cur_detail =
                first_window ? sampled.intervalInstructions : detail;
            if (in_detail && win_instr >= cur_detail &&
                cur_detail < sampled.intervalInstructions) {
                close_detail();
                in_detail = false;
            }
            if (win_instr >= sampled.intervalInstructions)
                close_window();
        });
        if (win_instr > 0)
            close_window();
        out.sampled = run.finish(); // retires the epoch close_window armed

        double est_cycles = 0.0;
        for (const SampledWindow &w : out.windows) {
            est_cycles += w.estimatedCycles;
            out.totalInstructions += w.instructions;
            out.detailedInstructions += w.detailedInstructions;
            out.detailedHostSeconds += w.detailedHostSeconds;
            out.functionalHostSeconds += w.functionalHostSeconds;
        }
        out.sampled.cpi = out.totalInstructions != 0
                              ? est_cycles / double(out.totalInstructions)
                              : 0.0;
    }

    if (!sampled.compareFull)
        return out;

    // ----------------------- full-detail twin -------------------------
    // A detailed run — byte-identical to runForkBench — whose sink marks
    // the issue cursor at the window boundaries the sampled run used.
    {
        ForkRun run;
        run.startCold(params, mode, std::move(config));
        const ForkBenchMachine &m = *run.machine;
        std::size_t wi = 0;
        std::uint64_t win_instr = 0;
        Tick last_mark = m.forkDone;
        auto mark = [&](Tick now) {
            if (wi < out.windows.size())
                out.windows[wi].fullCycles = now - last_mark;
            last_mark = now;
            ++wi;
            win_instr = 0;
        };
        auto detailed = run.detailed();
        run.advance([&](const TraceOp &op) {
            detailed(op);
            win_instr +=
                op.kind == TraceOp::Kind::Compute ? op.count : 1;
            if (win_instr >= sampled.intervalInstructions)
                mark(m.core.currentCycle());
        });
        out.fullCpi = run.finish().cpi;
        // The epoch opened at forkDone, so it closed epochCycles() later.
        if (win_instr > 0)
            mark(m.forkDone + m.core.epochCycles());
    }

    double err_sum = 0.0;
    unsigned err_count = 0;
    for (const SampledWindow &w : out.windows) {
        if (w.fullCycles == 0)
            continue;
        double err = 100.0 *
                     std::abs(w.estimatedCycles - double(w.fullCycles)) /
                     double(w.fullCycles);
        err_sum += err;
        out.maxWindowErrorPct = std::max(out.maxWindowErrorPct, err);
        ++err_count;
    }
    out.meanWindowErrorPct = err_count != 0 ? err_sum / err_count : 0.0;
    out.cpiErrorPct =
        out.fullCpi != 0.0
            ? 100.0 * std::abs(out.sampled.cpi - out.fullCpi) / out.fullCpi
            : 0.0;
    return out;
}

ForkBenchWarmState
prepareForkBenchWarmState(const ForkBenchParams &params, SystemConfig config)
{
    ForkBenchMachine m(params, std::move(config));
    m.warmup(params);

    ForkBenchWarmState warm;
    warm.params = params;
    warm.config = m.system.config();
    warm.warmupEnd = m.forkStart;
    warm.parent = m.parent;
    snapshot::Writer w;
    snapshot::visit(m, w);
    warm.machine = w.takeBuffer();
    return warm;
}

ForkBenchResult
runForkBenchFromWarmState(const ForkBenchWarmState &warm, ForkMode mode,
                          const SystemConfig *config_override,
                          std::ostream *dump_stats)
{
    ForkRun run;
    run.startWarm(warm, mode,
                  config_override != nullptr ? *config_override
                                             : warm.config);
    run.advance(run.detailed());
    return run.finish(dump_stats);
}

ForkBenchCheckpointedRun
runForkBenchCheckpointed(const ForkBenchParams &params, ForkMode mode,
                         SystemConfig config,
                         const ForkBenchCheckpointOptions &ckpt)
{
    ovl_assert(!ckpt.path.empty(), "checkpointing needs an output path");
    ovl_assert(ckpt.everyTicks != 0 || ckpt.atTick != 0,
               "checkpointing needs --checkpoint-every or --at-tick");

    ForkRun run;
    run.startCold(params, mode, std::move(config));
    const ForkBenchMachine &m = *run.machine;

    // Saving observes the machine without touching it, so the executed
    // run is op-for-op the uninterrupted run.
    ForkBenchCheckpointedRun out;
    auto write_checkpoint = [&]() {
        snapshot::Writer w;
        snapshot::visit(run, w);
        snapshot::writeSnapshotFile(ckpt.path, w.buffer());
        ++out.checkpointsWritten;
    };

    Tick next_periodic =
        ckpt.everyTicks != 0 ? m.forkDone + ckpt.everyTicks : 0;
    auto stop = [&]() -> bool {
        Tick now = m.core.currentCycle();
        if (ckpt.everyTicks != 0 && now >= next_periodic) {
            write_checkpoint();
            while (next_periodic <= now)
                next_periodic += ckpt.everyTicks;
        }
        if (ckpt.atTick != 0 && now >= ckpt.atTick) {
            write_checkpoint();
            return true;
        }
        return false;
    };

    if (run.advance(run.detailed(), stop))
        out.result = run.finish();
    return out;
}

ForkBenchResult
resumeForkBenchCheckpoint(const std::string &path)
{
    ForkRun run;
    run.startFromCheckpoint(path);
    run.advance(run.detailed());
    return run.finish();
}

} // namespace ovl
