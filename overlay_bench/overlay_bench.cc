/**
 * @file
 * overlay_bench: the harness binary of the repository benchmark (see
 * BENCHMARK.md beside this file). One process runs one named workload —
 * or all four in turn — as a closed loop of units, for a wall-clock
 * budget (--seconds) or a fixed unit count (--units), and writes what
 * run_benchmark.py needs as one JSON document:
 *
 *  - host time (steady_clock): begin/end of every unit, the set-up
 *    repeats, input-generation time, and the process's peak RSS;
 *  - simulated fingerprints: the end tick of every unit (access
 *    workloads) or every row's ForkBenchResult at %.17g (fork_sweep).
 *    They are outputs to pin, not metrics: a host-side change must leave
 *    them bit-identical;
 *  - check failures: throws, peek mismatches, set-up or replay
 *    divergence, and repeated sweep rows that disagree;
 *  - stats counters of the measured region, and with --trace the spans
 *    around every call into the simulator plus the profiler's zone
 *    report (non-empty only in a -DOVL_PROFILE=ON build).
 *
 * Only the simulator's public API is called. Inputs are made from --seed
 * outside the timed region; the generation time is reported separately.
 *
 * Usage: overlay_bench --workload NAME|all --out FILE [--seed N]
 *                      [--seconds S | --units N] [--trace]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/random.hh"
#include "sim/hostinfo.hh"
#include "sim/parallel.hh"
#include "sim/profile.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

using namespace ovl;

namespace
{

using Clock = std::chrono::steady_clock;

/** Host time since the first call, in ns: the time base of all records. */
std::uint64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - epoch)
                             .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return double(nowNs() - start_ns) * 1e-9;
}

constexpr Addr kBase = 0x100000;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 5;

/**
 * Units after which a run reads its peak RSS. fork_oow's host memory
 * grows with every retired ASID, so reading at a fixed unit count keeps
 * the value independent of how many units the time budget allowed.
 */
constexpr std::uint64_t kRssUnits = 1024;

/** Leading units re-run on a fresh set-up and compared tick for tick. */
constexpr std::uint64_t kReplayUnits = 16;

/** Requests per accessBatch chunk (one unit of the access workloads). */
constexpr std::size_t kChunk = 8192;

/** 64 MiB: 16x the L2 TLB reach (1024 x 4 KiB) and 32x the L3. */
constexpr std::uint64_t kRandomFootprint = 64ull << 20;
constexpr std::uint64_t kStreamFootprint = 16ull << 20;

/** fork_oow: 2 MiB parent; 8 written lines per child page. */
constexpr std::uint64_t kForkPages = 512;
constexpr unsigned kWrittenLines = 8;
constexpr std::uint64_t kCheckEvery = 16;
/** A System retires every forked ASID (15-bit ASIDs, the parent is 0). */
constexpr std::uint64_t kMaxForkUnits = (1u << 15) - 2;

/** fork_sweep: 15 benchmarks x 8 policy rows, on two workers. */
constexpr std::uint64_t kSweepPostForkInstructions = 1'500'000;
constexpr unsigned kSweepJobs = 2;

struct Policy
{
    ForkMode mode;
    Tick trapCycles;
    unsigned promoteThreshold;
};

constexpr Policy kPolicies[] = {
    {ForkMode::CopyOnWrite, 750, 64},     {ForkMode::CopyOnWrite, 1500, 64},
    {ForkMode::CopyOnWrite, 3000, 64},    {ForkMode::CopyOnWrite, 6000, 64},
    {ForkMode::OverlayOnWrite, 1500, 64}, {ForkMode::OverlayOnWrite, 1500, 32},
    {ForkMode::OverlayOnWrite, 1500, 16}, {ForkMode::OverlayOnWrite, 1500, 8},
};
constexpr std::size_t kNumPolicies = std::size(kPolicies);

/**
 * Peak resident set of this process image, in KiB. getrusage's maxrss
 * would also count the parent this process was forked from (Linux keeps
 * the pre-exec high-water mark), so read VmHWM where /proc has it.
 */
long
readPeakRssKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** splitmix64 finalizer: seed-derived values without an Rng stream. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** One host-time span: a unit (parent < 0) or a call made inside one. */
struct Span
{
    const char *name;
    std::uint64_t unit;
    std::int64_t parent;
    std::uint64_t beginNs;
    std::uint64_t endNs;
    std::uint64_t ops; ///< simulated accesses issued by the call
};

/** Spans of one thread, kept in memory; inert unless tracing. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    std::int64_t
    open(const char *name, std::uint64_t unit, std::int64_t parent,
         std::uint64_t ops = 0)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(Span{name, unit, parent, nowNs(), 0, ops});
        return std::int64_t(spans_.size()) - 1;
    }

    void
    close(std::int64_t id)
    {
        if (id >= 0)
            spans_[std::size_t(id)].endNs = nowNs();
    }

    /** Append @p other's spans, rebasing their parent links. */
    void
    append(const SpanLog &other)
    {
        std::int64_t base = std::int64_t(spans_.size());
        for (Span s : other.spans_) {
            if (s.parent >= 0)
                s.parent += base;
            spans_.push_back(s);
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span around one call into the simulator. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, std::uint64_t unit,
              std::int64_t parent, std::uint64_t ops = 0)
        : log_(log), id_(log.open(name, unit, parent, ops))
    {
    }
    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    std::int64_t id_;
};

struct Options
{
    std::string workload;
    std::string out;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    std::uint64_t units = 0; ///< > 0: run exactly this many units
    bool trace = false;
};

/** When the closed loop stops: a unit count, or a wall-clock budget. */
struct Budget
{
    double seconds;
    std::uint64_t units;
    std::uint64_t maxUnits;

    bool
    more(std::uint64_t done, std::uint64_t start_ns) const
    {
        if (units > 0)
            return done < std::min(units, maxUnits);
        return done == 0 ||
               (done < maxUnits && secondsSince(start_ns) < seconds);
    }
};

struct UnitRecord
{
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t ops = 0;
    bool failed = false;
};

/** Everything one workload run produces. */
struct Run
{
    std::string workload;
    unsigned jobs = 1;
    std::vector<double> setupSeconds;
    double genSeconds = 0.0;
    std::vector<UnitRecord> units;
    /** fork_sweep: {instructions, wall ns} of each complete pass. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> passes;
    std::vector<Tick> endTicks;        ///< access workloads
    std::vector<ForkBenchResult> rows; ///< fork_sweep, first pass
    std::vector<std::string> errors;
    std::map<std::string, double> stats;
    SpanLog spans{false};
    prof::Report zones;
    long peakRssKib = 0;

    /** Read the process's peak RSS once @p at_units units are done. */
    void
    notePeakRss(std::uint64_t at_units)
    {
        if (peakRssKib == 0 && units.size() >= at_units)
            peakRssKib = readPeakRssKib();
    }
};

/**
 * Add every scalar of @p sys's stats groups to @p into, keyed relative
 * to the system's own name ("tlbWalks", "caches.l1.misses").
 */
void
addStats(System &sys, std::map<std::string, double> &into)
{
    const std::string &root = sys.name();
    sys.forEachStatsGroup([&](const stats::Group *group) {
        std::string prefix;
        if (group->name() != root)
            prefix = group->name().substr(root.size() + 1) + ".";
        for (const stats::Info *info : group->infos()) {
            info->eachScalar([&](const char *suffix, double value, bool) {
                into[prefix + info->name() + suffix] += value;
            });
        }
    });
}

/** Same keys from a dumpAllStats-format text dump of system @p root. */
void
addStatsDump(const std::string &dump, const std::string &root,
             std::map<std::string, double> &into)
{
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::string key;
        double value = 0.0;
        if (!(fields >> key >> value))
            continue;
        if (key.compare(0, root.size() + 1, root + ".") == 0)
            key.erase(0, root.size() + 1);
        into[key] += value;
    }
}

/** Run @p setup once, record its host time in @p run, return its result. */
template <typename Setup>
auto
timedSetup(Run &run, Setup &&setup)
{
    std::uint64_t start = nowNs();
    auto kept = setup();
    run.setupSeconds.push_back(secondsSince(start));
    return kept;
}

// ----- access workloads: random_rw, stream_rw -------------------------

/** A generator of one workload's request stream, chunk by chunk. */
class AccessStream
{
  public:
    AccessStream(bool random, std::uint64_t footprint, std::uint64_t seed)
        : random_(random), footprint_(footprint), rng_(seed),
          cursor_(lineBase(rng_.below(footprint)))
    {
    }

    void
    fill(std::vector<AccessRequest> &chunk)
    {
        chunk.resize(kChunk);
        for (AccessRequest &req : chunk) {
            Addr off;
            if (random_) {
                off = lineBase(rng_.below(footprint_));
            } else {
                off = cursor_;
                cursor_ = (cursor_ + kLineSize) % footprint_;
            }
            // 2:1 read/write: every third access is a write.
            req = AccessRequest{kBase + off, issued_++ % 3 == 2};
        }
    }

  private:
    bool random_;
    std::uint64_t footprint_;
    Rng rng_;
    Addr cursor_;
    std::uint64_t issued_ = 0;
};

struct AccessMachine
{
    std::unique_ptr<System> sys;
    Asid asid = 0;
};

/**
 * Map @p footprint bytes and write every line once (the untimed
 * first-touch lap), then restart timing and statistics at zero.
 */
AccessMachine
setupAccess(std::uint64_t footprint)
{
    AccessMachine m{std::make_unique<System>(), 0};
    m.asid = m.sys->createProcess();
    m.sys->mapAnon(m.asid, kBase, footprint);
    std::vector<AccessRequest> lap;
    Tick t = 0;
    for (Addr off = 0; off < footprint; off += kChunk * kLineSize) {
        lap.clear();
        for (Addr a = off; a < std::min(footprint, off + kChunk * kLineSize);
             a += kLineSize)
            lap.push_back(AccessRequest{kBase + a, true});
        t = m.sys->accessBatch(m.asid, lap, t);
    }
    m.sys->quiesce();
    m.sys->resetStats();
    return m;
}

Run
runAccess(const std::string &name, bool random, std::uint64_t footprint,
          const Options &opt)
{
    Run run;
    run.workload = name;
    run.spans = SpanLog(opt.trace);
    AccessMachine m = timedSetup(run, [&] { return setupAccess(footprint); });

    AccessStream stream(random, footprint, opt.seed);
    std::vector<AccessRequest> chunk;
    Budget budget{opt.seconds, opt.units, ~std::uint64_t(0)};
    Tick t = 0;
    if (opt.trace)
        prof::enable();
    std::uint64_t start = nowNs();
    for (std::uint64_t u = 0; budget.more(u, start); ++u) {
        std::uint64_t gen = nowNs();
        stream.fill(chunk);
        run.genSeconds += secondsSince(gen);

        UnitRecord rec;
        rec.beginNs = nowNs();
        std::int64_t unit = run.spans.open("unit", u, -1);
        {
            SpanScope call(run.spans, "accessBatch", u, unit, chunk.size());
            t = m.sys->accessBatch(m.asid, chunk, t);
        }
        run.spans.close(unit);
        rec.endNs = nowNs();
        rec.ops = chunk.size();
        run.units.push_back(rec);
        run.endTicks.push_back(t);
        run.notePeakRss(kRssUnits);
    }
    run.notePeakRss(0);
    if (opt.trace) {
        run.zones = prof::collect();
        prof::disable();
    }
    addStats(*m.sys, run.stats);
    m = AccessMachine{};

    // Replay the leading units on a fresh machine: same ticks or fail.
    AccessMachine replay =
        timedSetup(run, [&] { return setupAccess(footprint); });
    AccessStream again(random, footprint, opt.seed);
    t = 0;
    for (std::uint64_t u = 0;
         u < std::min<std::uint64_t>(kReplayUnits, run.units.size()); ++u) {
        again.fill(chunk);
        t = replay.sys->accessBatch(replay.asid, chunk, t);
        if (t != run.endTicks[u]) {
            run.units[u].failed = true;
            run.errors.push_back(name + ": replay of unit " +
                                 std::to_string(u) + " ended at tick " +
                                 std::to_string(t));
        }
    }
    replay = AccessMachine{};
    while (run.setupSeconds.size() < kSetupRepeats)
        timedSetup(run, [&] { return setupAccess(footprint); });
    return run;
}

// ----- fork_oow ---------------------------------------------------------

/** Seed-derived contents of the parent's line at @p vaddr. */
std::uint64_t
parentValue(std::uint64_t seed, Addr vaddr)
{
    return mix(seed ^ mix(vaddr));
}

/** The lines one fork_oow unit touches in every child page. */
struct ForkUnitInput
{
    std::array<unsigned, kWrittenLines> written;
    unsigned untouched;
    std::uint64_t valueSeed;
};

ForkUnitInput
nextForkInput(Rng &rng)
{
    std::array<unsigned, kLinesPerPage> lines;
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        lines[l] = l;
    // Partial Fisher-Yates: the first kWrittenLines + 1 are distinct.
    for (unsigned i = 0; i <= kWrittenLines; ++i)
        std::swap(lines[i], lines[i + rng.below(kLinesPerPage - i)]);
    ForkUnitInput in;
    std::copy_n(lines.begin(), kWrittenLines, in.written.begin());
    in.untouched = lines[kWrittenLines];
    in.valueSeed = rng.next();
    return in;
}

struct ForkMachine
{
    std::unique_ptr<System> sys;
    Asid parent = 0;
};

/** A 2 MiB parent whose every line holds parentValue(). */
ForkMachine
setupFork(std::uint64_t seed)
{
    ForkMachine m{std::make_unique<System>(), 0};
    m.parent = m.sys->createProcess();
    m.sys->mapAnon(m.parent, kBase, kForkPages * kPageSize);
    Tick t = 0;
    for (Addr a = kBase; a < kBase + kForkPages * kPageSize; a += kLineSize) {
        std::uint64_t v = parentValue(seed, a);
        t = m.sys->write(m.parent, a, &v, sizeof(v), t);
    }
    m.sys->quiesce();
    m.sys->resetStats();
    return m;
}

/**
 * One unit: fork (overlay-on-write), write kWrittenLines lines of every
 * child page, read them back plus one untouched line, tear the child
 * down. A checked unit stores seed-derived values with write() and uses
 * peek() to verify the child sees them while the parent does not.
 *
 * @return the unit's end tick; @p ok is cleared on a peek mismatch.
 */
Tick
forkUnit(ForkMachine &m, const ForkUnitInput &in, bool check,
         std::uint64_t seed, Tick t, SpanLog &log, std::uint64_t u,
         std::int64_t unit, bool &ok)
{
    System &sys = *m.sys;
    Asid child;
    {
        SpanScope call(log, "fork", u, unit);
        child = sys.fork(m.parent, ForkMode::OverlayOnWrite, t, &t);
    }
    {
        SpanScope call(log, check ? "write" : "access", u, unit,
                       kForkPages * kWrittenLines);
        for (std::uint64_t pg = 0; pg < kForkPages; ++pg) {
            for (unsigned l : in.written) {
                Addr a = kBase + pg * kPageSize + l * kLineSize;
                if (check) {
                    std::uint64_t v = mix(in.valueSeed ^ a);
                    t = sys.write(child, a, &v, sizeof(v), t);
                } else {
                    t = sys.access(child, a, true, t);
                }
            }
        }
    }
    {
        SpanScope call(log, "access", u, unit,
                       kForkPages * (kWrittenLines + 1));
        for (std::uint64_t pg = 0; pg < kForkPages; ++pg) {
            Addr page = kBase + pg * kPageSize;
            for (unsigned l : in.written)
                t = sys.access(child, page + l * kLineSize, false, t);
            t = sys.access(child, page + in.untouched * kLineSize, false, t);
        }
    }
    if (check) {
        SpanScope call(log, "peek", u, unit);
        for (std::uint64_t pg = 0; pg < kForkPages; ++pg) {
            Addr page = kBase + pg * kPageSize;
            for (unsigned l : in.written) {
                Addr a = page + l * kLineSize;
                std::uint64_t in_child = 0;
                std::uint64_t in_parent = 0;
                sys.peek(child, a, &in_child, sizeof(in_child));
                sys.peek(m.parent, a, &in_parent, sizeof(in_parent));
                ok = ok && in_child == mix(in.valueSeed ^ a) &&
                     in_parent == parentValue(seed, a);
            }
            Addr a = page + in.untouched * kLineSize;
            std::uint64_t shared = 0;
            sys.peek(child, a, &shared, sizeof(shared));
            ok = ok && shared == parentValue(seed, a);
        }
    }
    {
        SpanScope call(log, "destroyProcess", u, unit);
        sys.destroyProcess(child, t);
    }
    return t;
}

constexpr std::uint64_t kForkUnitOps =
    kForkPages * (2 * kWrittenLines + 1);

Run
runForkOow(const Options &opt)
{
    Run run;
    run.workload = "fork_oow";
    run.spans = SpanLog(opt.trace);
    ForkMachine m = timedSetup(run, [&] { return setupFork(opt.seed); });

    Rng rng(opt.seed);
    Budget budget{opt.seconds, opt.units, kMaxForkUnits};
    Tick t = 0;
    if (opt.trace)
        prof::enable();
    std::uint64_t start = nowNs();
    for (std::uint64_t u = 0; budget.more(u, start); ++u) {
        std::uint64_t gen = nowNs();
        ForkUnitInput in = nextForkInput(rng);
        run.genSeconds += secondsSince(gen);

        UnitRecord rec;
        rec.beginNs = nowNs();
        std::int64_t unit = run.spans.open("unit", u, -1);
        bool ok = true;
        t = forkUnit(m, in, u % kCheckEvery == 0, opt.seed, t, run.spans, u,
                     unit, ok);
        run.spans.close(unit);
        rec.endNs = nowNs();
        rec.ops = kForkUnitOps;
        if (!ok) {
            rec.failed = true;
            run.errors.push_back("fork_oow: peek check failed in unit " +
                                 std::to_string(u));
        }
        run.units.push_back(rec);
        run.endTicks.push_back(t);
        run.notePeakRss(kRssUnits);
    }
    run.notePeakRss(0);
    if (opt.trace) {
        run.zones = prof::collect();
        prof::disable();
    }
    addStats(*m.sys, run.stats);
    m = ForkMachine{};

    ForkMachine replay =
        timedSetup(run, [&] { return setupFork(opt.seed); });
    Rng again(opt.seed);
    SpanLog off(false);
    t = 0;
    for (std::uint64_t u = 0;
         u < std::min<std::uint64_t>(kReplayUnits, run.units.size()); ++u) {
        bool ok = true;
        t = forkUnit(replay, nextForkInput(again), u % kCheckEvery == 0,
                     opt.seed, t, off, u, -1, ok);
        if (t != run.endTicks[u] || !ok) {
            run.units[u].failed = true;
            run.errors.push_back("fork_oow: replay of unit " +
                                 std::to_string(u) + " diverged");
        }
    }
    replay = ForkMachine{};
    while (run.setupSeconds.size() < kSetupRepeats)
        timedSetup(run, [&] { return setupFork(opt.seed); });
    return run;
}

// ----- fork_sweep -------------------------------------------------------

std::size_t
sweepRows()
{
    return forkBenchSuite().size() * kNumPolicies;
}

/**
 * Suite benchmark @p bench at the sweep's post-fork length. Seed 1 keeps
 * the suite's own streams (the fig08/fig09 inputs); other seeds derive
 * a new stream per benchmark.
 */
ForkBenchParams
sweepParams(std::size_t bench, std::uint64_t seed)
{
    ForkBenchParams p = forkBenchSuite()[bench];
    p.postForkInstructions = kSweepPostForkInstructions;
    if (seed != 1)
        p.seed = mix(p.seed ^ mix(seed));
    return p;
}

SystemConfig
policyConfig(const Policy &policy)
{
    SystemConfig cfg;
    cfg.pageFaultTrapCycles = policy.trapCycles;
    cfg.promoteThresholdLines = policy.promoteThreshold;
    return cfg;
}

struct Prepared
{
    ForkBenchWarmState warm;
    SpanLog spans{false};
};

/**
 * Warm states of benchmarks [0, count), prepared on kSweepJobs workers;
 * with @p trace each preparation is a span appended to @p log.
 */
std::vector<ForkBenchWarmState>
prepareWarmStates(std::size_t count, std::uint64_t seed, bool trace,
                  SpanLog &log)
{
    std::vector<Prepared> prepared = parallelMap(
        count,
        [&](std::size_t b) {
            Prepared out;
            out.spans = SpanLog(trace);
            SpanScope call(out.spans, "prepareForkBenchWarmState", b, -1);
            out.warm =
                prepareForkBenchWarmState(sweepParams(b, seed), SystemConfig{});
            return out;
        },
        kSweepJobs);
    std::vector<ForkBenchWarmState> warm;
    for (Prepared &p : prepared) {
        log.append(p.spans);
        warm.push_back(std::move(p.warm));
    }
    return warm;
}

bool
sameRow(const ForkBenchResult &a, const ForkBenchResult &b)
{
    return a.cpi == b.cpi && a.additionalMemoryMB == b.additionalMemoryMB &&
           a.cowFaults == b.cowFaults &&
           a.overlayingWrites == b.overlayingWrites &&
           a.forkLatency == b.forkLatency;
}

struct RowOut
{
    ForkBenchResult result;
    UnitRecord rec;
    SpanLog spans{false};
    std::string statsDump;
    std::string error;
};

Run
runForkSweep(const Options &opt)
{
    Run run;
    run.workload = "fork_sweep";
    run.jobs = kSweepJobs;
    run.spans = SpanLog(opt.trace);
    const std::size_t rows = sweepRows();
    Budget budget{opt.seconds, opt.units, ~std::uint64_t(0)};
    std::size_t benches = forkBenchSuite().size();
    if (opt.units > 0 && opt.units < rows)
        benches = (opt.units + kNumPolicies - 1) / kNumPolicies;

    std::vector<ForkBenchWarmState> warm = timedSetup(run, [&] {
        return prepareWarmStates(benches, opt.seed, opt.trace, run.spans);
    });

    auto runRow = [&](std::uint64_t u) {
        RowOut out;
        out.spans = SpanLog(opt.trace);
        const ForkBenchWarmState &w = warm[(u % rows) / kNumPolicies];
        const Policy &policy = kPolicies[u % kNumPolicies];
        SystemConfig cfg = policyConfig(policy);
        out.rec.ops = kSweepPostForkInstructions;
        out.rec.beginNs = nowNs();
        std::int64_t unit = out.spans.open("unit", u, -1);
        try {
            SpanScope call(out.spans, "runForkBenchFromWarmState", u, unit);
            std::ostringstream dump;
            out.result = runForkBenchFromWarmState(
                w, policy.mode, &cfg, opt.trace ? &dump : nullptr);
            out.statsDump = dump.str();
        } catch (const std::exception &e) {
            out.rec.failed = true;
            out.error = "fork_sweep: row " + std::to_string(u) + ": " +
                        e.what();
        }
        out.spans.close(unit);
        out.rec.endNs = nowNs();
        return out;
    };

    if (opt.trace)
        prof::enable();
    std::uint64_t start = nowNs();
    for (std::uint64_t u = 0; budget.more(u, start);) {
        // Time-bounded runs measure whole passes; fixed counts may stop
        // inside one.
        std::uint64_t n = rows - u % rows;
        if (opt.units > 0)
            n = std::min(n, opt.units - u);
        std::uint64_t pass_start = nowNs();
        std::vector<RowOut> outs = parallelMap(
            n, [&](std::size_t i) { return runRow(u + i); }, kSweepJobs);
        std::uint64_t pass_ns = nowNs() - pass_start;
        if (n == rows)
            run.passes.emplace_back(n * kSweepPostForkInstructions, pass_ns);
        for (std::size_t i = 0; i < n; ++i) {
            RowOut &out = outs[i];
            std::uint64_t row = (u + i) % rows;
            if (u + i < rows)
                run.rows.push_back(out.result);
            if (!out.error.empty()) {
                run.errors.push_back(out.error);
            } else if (u + i >= rows && !sameRow(out.result, run.rows[row])) {
                out.rec.failed = true;
                run.errors.push_back("fork_sweep: row " + std::to_string(row) +
                                     " differs from its first pass");
            }
            run.units.push_back(out.rec);
            run.spans.append(out.spans);
            if (opt.trace) {
                addStatsDump(out.statsDump,
                             forkBenchSuite()[row / kNumPolicies].name,
                             run.stats);
            }
        }
        u += n;
        run.notePeakRss(kRssUnits);
    }
    run.notePeakRss(0);
    if (opt.trace) {
        run.zones = prof::collect();
        prof::disable();
    }

    // Repeat set-up: every warm state must serialize byte-identically.
    SpanLog off(false);
    while (run.setupSeconds.size() < kSetupRepeats) {
        std::vector<ForkBenchWarmState> again = timedSetup(run, [&] {
            return prepareWarmStates(benches, opt.seed, false, off);
        });
        for (std::size_t b = 0; b < benches; ++b) {
            if (again[b].machine != warm[b].machine ||
                again[b].warmupEnd != warm[b].warmupEnd) {
                run.errors.push_back("fork_sweep: warm state of " +
                                     warm[b].params.name +
                                     " differs between set-ups");
            }
        }
    }
    return run;
}

// ----- output -------------------------------------------------------------

void
writeRun(std::FILE *f, const Run &run)
{
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"jobs\": %u, "
                 "\"peak_rss_kib\": %ld, \"setup_s\": [",
                 run.workload.c_str(), run.jobs, run.peakRssKib);
    for (std::size_t i = 0; i < run.setupSeconds.size(); ++i)
        std::fprintf(f, "%s%.9f", i ? ", " : "", run.setupSeconds[i]);
    std::fprintf(f, "], \"gen_s\": %.9f,\n \"units\": [", run.genSeconds);
    for (std::size_t i = 0; i < run.units.size(); ++i) {
        const UnitRecord &r = run.units[i];
        std::fprintf(f, "%s[%llu, %llu, %llu, %d]", i ? ", " : "",
                     (unsigned long long)r.beginNs,
                     (unsigned long long)r.endNs, (unsigned long long)r.ops,
                     r.failed ? 1 : 0);
    }
    std::fprintf(f, "],\n \"passes\": [");
    for (std::size_t i = 0; i < run.passes.size(); ++i) {
        std::fprintf(f, "%s[%llu, %llu]", i ? ", " : "",
                     (unsigned long long)run.passes[i].first,
                     (unsigned long long)run.passes[i].second);
    }
    std::fprintf(f, "],\n \"end_ticks\": [");
    for (std::size_t i = 0; i < run.endTicks.size(); ++i) {
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     (unsigned long long)run.endTicks[i]);
    }
    std::fprintf(f, "],\n \"rows\": [");
    for (std::size_t i = 0; i < run.rows.size(); ++i) {
        const ForkBenchResult &r = run.rows[i];
        std::fprintf(f,
                     "%s\n  {\"bench\": \"%s\", \"policy\": %zu, "
                     "\"cpi\": \"%.17g\", \"additionalMemoryMB\": \"%.17g\", "
                     "\"cowFaults\": %llu, \"overlayingWrites\": %llu, "
                     "\"forkLatency\": %llu}",
                     i ? "," : "", r.name.c_str(), i % kNumPolicies, r.cpi,
                     r.additionalMemoryMB, (unsigned long long)r.cowFaults,
                     (unsigned long long)r.overlayingWrites,
                     (unsigned long long)r.forkLatency);
    }
    std::fprintf(f, "],\n \"errors\": [");
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                     jsonEscape(run.errors[i]).c_str());
    }
    std::fprintf(f, "],\n \"stats\": {");
    bool first = true;
    for (const auto &[key, value] : run.stats) {
        std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                     jsonEscape(key).c_str(), value);
        first = false;
    }
    std::fprintf(f, "},\n \"spans\": [");
    const std::vector<Span> &spans = run.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%s[\"%s\", %llu, %lld, %llu, %llu, %llu]",
                     i ? ",\n  " : "", s.name, (unsigned long long)s.unit,
                     (long long)s.parent, (unsigned long long)s.beginNs,
                     (unsigned long long)s.endNs, (unsigned long long)s.ops);
    }
    std::fprintf(f, "],\n \"zones\": [");
    for (std::size_t i = 0; i < run.zones.rows.size(); ++i) {
        const prof::ZoneRow &z = run.zones.rows[i];
        std::fprintf(f,
                     "%s{\"path\": \"%s\", \"zone\": \"%s\", \"depth\": %u, "
                     "\"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                     i ? ",\n  " : "", z.path.c_str(),
                     prof::zoneName(z.zone), z.depth,
                     (unsigned long long)z.count, z.totalSeconds,
                     z.selfSeconds);
    }
    std::fprintf(f, "]}");
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload random_rw|stream_rw|fork_oow|"
                 "fork_sweep|all --out FILE [--seed N]"
                 " [--seconds S | --units N] [--trace]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--out" && has_value) {
            opt.out = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--units" && has_value) {
            opt.units = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--trace") {
            opt.trace = true;
        } else {
            usage(argv[0]);
        }
    }
    const char *const names[] = {"random_rw", "stream_rw", "fork_oow",
                                 "fork_sweep"};
    std::vector<std::string> selected;
    for (const char *name : names) {
        if (opt.workload == name || opt.workload == "all")
            selected.emplace_back(name);
    }
    if (selected.empty() || opt.out.empty() || !(opt.seconds > 0.0))
        usage(argv[0]);

    std::vector<Run> runs;
    for (const std::string &name : selected) {
        if (name == "random_rw")
            runs.push_back(runAccess(name, true, kRandomFootprint, opt));
        else if (name == "stream_rw")
            runs.push_back(runAccess(name, false, kStreamFootprint, opt));
        else if (name == "fork_oow")
            runs.push_back(runForkOow(opt));
        else
            runs.push_back(runForkSweep(opt));
    }

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\"seed\": %llu, \"trace\": %s,\n\"host\": %s,\n"
                 "\"runs\": [",
                 (unsigned long long)opt.seed, opt.trace ? "true" : "false",
                 hostInfoJson().c_str());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::fprintf(f, "%s\n", i ? "," : "");
        writeRun(f, runs[i]);
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
        return 1;
    }
    return 0;
}
