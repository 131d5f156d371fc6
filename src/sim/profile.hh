/**
 * @file
 * Host-time attribution profiler: RAII scoped timers attributing host
 * wall-clock (TSC cycles) to a fixed hierarchy of zones — TLB walk,
 * cache lookup, miss cascade, OMT walk, OMS allocation, DRAM, snapshot
 * IO, functional fast-forward and friends (DESIGN.md §12).
 *
 * Design rules, in order of importance:
 *
 *  1. **Compiled out by default.** Every call site is wrapped in
 *     `OVL_PROF_SCOPE(Zone)` which expands to nothing unless the build
 *     defines `OVL_PROFILE` (`cmake -DOVL_PROFILE=ON`). A default build
 *     carries zero instructions, zero branches, zero data.
 *  2. **One predicted branch when compiled in but idle.** The scope
 *     constructor checks `prof::active()`, a process-global atomic
 *     gate, and does nothing else when no profile is being collected.
 *  3. **Never moves a tick.** The profiler observes host time only; it
 *     neither schedules events nor touches any simulated state, so an
 *     enabled run is simulated-tick- and golden-stats-identical to a
 *     plain run (the PR 4 invariant, asserted by tests and CI).
 *
 * Timers are thread-local and nestable: each thread owns a call tree
 * whose edges are zones, so the same zone reached through different
 * parents (e.g. dram under omt_walk vs dram under miss_cascade) rolls
 * up separately, exactly like a flamegraph. collect() merges all
 * threads' trees into one Report with per-path count/total/self/max,
 * convertible to JSON (writeJson) or Brendan-Gregg collapsed stacks
 * (writeCollapsed) for flamegraph.pl / speedscope.
 *
 * Thread-safety: the registry is process-global (DESIGN.md §8), so
 * enable()/disable()/collect() must be called with no scopes open and
 * no worker threads running. Scope enter/exit itself is lock-free and
 * touches only thread-local state.
 */

#ifndef OVERLAYSIM_SIM_PROFILE_HH
#define OVERLAYSIM_SIM_PROFILE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace ovl::prof
{

/**
 * The fixed zone hierarchy. Zones name *mechanisms*, not call sites:
 * the runtime nesting of scopes (access → cache_lookup → miss_cascade
 * → dram …) builds the hierarchy, so one zone can appear under several
 * parents. Adding a zone means adding an enumerator and its name in
 * profile.cc — nothing else.
 */
enum class Zone : std::uint8_t
{
    Access,          ///< System::access — the timing-mode request engine
    TlbWalk,         ///< two-level TLB miss: page-table + OMT-cache walk
    CacheLookup,     ///< L1 lookup in the cache hierarchy
    MissCascade,     ///< L2/L3/memory path after an L1 miss
    OmtWalk,         ///< dense-radix OMT walk on an OMT-cache miss
    OmsAlloc,        ///< overlay store segment/slot allocation + migrate
    OreBroadcast,    ///< overlay-region-exists broadcast to TLBs
    OverlayingWrite, ///< overlay-on-write slow path
    CowFault,        ///< copy-on-write fault service
    Dram,            ///< DRAM controller reads + write-buffer drains
    SnapshotIo,      ///< snapshot serialize/deserialize + file IO
    FunctionalFf,    ///< functional fast-forward (sampled mode)
    Fork,            ///< System::fork / Vmm::fork
    Teardown,        ///< unmap / destroyProcess
    Promote,         ///< overlay promotion
    TlbMaint,        ///< TLB maintenance (ASID invalidation)
    NumZones
};

constexpr std::size_t kNumZones = std::size_t(Zone::NumZones);

/** The stable lowercase slug of @p zone ("tlb_walk", "oms_alloc", …). */
const char *zoneName(Zone zone);

namespace detail
{

extern std::atomic<bool> gActive;

/** One node of a thread's call tree: a zone reached via one parent path. */
struct Node
{
    std::uint64_t count = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t maxCycles = 0;
    Node *parent = nullptr;
    Zone zone = Zone::NumZones; // NumZones marks the root
    std::array<Node *, kNumZones> children{};
};

/** Per-thread profiling state; heap-allocated, registered globally,
 *  never freed (bounded by thread count), so collect() can read trees
 *  of threads that have already exited. */
struct ThreadState
{
    Node root;
    Node *current = &root;
    std::deque<Node> arena; // stable addresses for child nodes
};

/** Register-and-return this thread's state (slow path, once/thread). */
ThreadState *registerThread();

inline ThreadState &
threadState()
{
    thread_local ThreadState *state = nullptr;
    if (state == nullptr)
        state = registerThread();
    return *state;
}

/** Allocate the @p zone child of @p parent (slow path, once/edge). */
Node *newChild(ThreadState &state, Node *parent, Zone zone);

inline std::uint64_t
tscNow()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return std::uint64_t(std::chrono::steady_clock::now()
                             .time_since_epoch()
                             .count());
#endif
}

} // namespace detail

/** True while a profile is being collected. The one-branch scope gate. */
inline bool
active()
{
    return detail::gActive.load(std::memory_order_acquire);
}

/**
 * RAII scope: on entry descends the thread-local call tree along the
 * @p zone edge and stamps the TSC; on exit accumulates cycles into the
 * node and pops back. When no profile is active (or after disable()
 * raced an open scope closed), the whole object is inert.
 *
 * The idle path is everything that inlines at a call site: one
 * predicted-not-taken branch on the gate and one null store. The whole
 * active path (TLS lookup, tree descent, TSC stamps) lives out of line
 * in profile.cc — inlining it at every hot-path site measurably slows
 * the *idle* simulator through code bloat alone, and active-mode cost
 * is not on the ≤3% overhead contract (DESIGN.md §12.2).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Zone zone)
    {
#if defined(__GNUC__) || defined(__clang__)
        if (__builtin_expect(active(), 0))
            enter(zone);
#else
        if (active())
            enter(zone);
#endif
    }

    ~ScopedTimer()
    {
#if defined(__GNUC__) || defined(__clang__)
        if (__builtin_expect(node_ != nullptr, 0))
            leave();
#else
        if (node_ != nullptr)
            leave();
#endif
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    void enter(Zone zone); ///< out-of-line active path (profile.cc)
    void leave();          ///< out-of-line active path (profile.cc)

    detail::Node *node_ = nullptr;
    // state_ and start_ are written by enter() and read by leave() only
    // when node_ is non-null; left uninitialized on the idle path.
    detail::ThreadState *state_;
    std::uint64_t start_;
};

/** The ScopedTimer stand-in OVL_PROF_SCOPE_IF picks when its condition
 *  is false: no state, no code. */
struct NoTimer
{
    explicit NoTimer(Zone) {}
};

/** One merged call-tree path in a Report, in DFS order. */
struct ZoneRow
{
    std::string path;    ///< ";"-joined zone slugs, e.g. "access;dram"
    Zone zone;           ///< leaf zone of the path
    unsigned depth;      ///< 1 for top-level zones
    std::uint64_t count; ///< number of scope entries
    double totalSeconds; ///< inclusive host time
    double selfSeconds;  ///< totalSeconds minus children's totals
    double maxSeconds;   ///< longest single scope
};

/** The merged result of one collection window. */
struct Report
{
    double wallSeconds = 0.0;       ///< enable()/collect() window length
    double attributedSeconds = 0.0; ///< Σ total of top-level zones
    double cyclesPerSecond = 0.0;   ///< TSC calibration used
    std::vector<ZoneRow> rows;      ///< DFS order, parents before children

    /** Fraction of the window attributed to non-root zones (0 when the
     *  window is empty). The ≥0.8 acceptance gate reads this. */
    double
    attributedFraction() const
    {
        return wallSeconds > 0.0 ? attributedSeconds / wallSeconds : 0.0;
    }
};

/**
 * Reset all thread trees, stamp the calibration clocks and open the
 * gate. Call with no scopes open and no workers running.
 */
void enable();

/** Close the gate; scopes become inert again. collect() still works. */
void disable();

/**
 * Merge every thread's tree into a Report for the window since the last
 * enable()/collect(reset=true). TSC cycles are converted to seconds by
 * calibrating against steady_clock over the same window. With @p reset,
 * trees and calibration restart so consecutive windows (e.g. one per
 * bench workload) attribute independently.
 */
Report collect(bool reset = false);

/** Write @p report as a JSON object ({"wall_seconds":…, "zones":[…]}). */
void writeJson(std::ostream &os, const Report &report);

/**
 * Write @p report as collapsed stacks ("frame;frame <usec>" per line,
 * flamegraph.pl / speedscope input). Each line's value is the path's
 * *self* time in integer microseconds; zero-self paths are skipped.
 * @p prefix, when non-empty, becomes the root frame (e.g. the workload
 * name), letting several reports share one flamegraph file.
 */
void writeCollapsed(std::ostream &os, const Report &report,
                    const std::string &prefix = std::string());

} // namespace ovl::prof

/**
 * Call-site macro: a scoped timer when the build defines OVL_PROFILE,
 * nothing at all otherwise. `zone` is a bare Zone enumerator name.
 *
 *     OVL_PROF_SCOPE(CacheLookup);
 */
#ifdef OVL_PROFILE
#define OVL_PROF_CONCAT2(a, b) a##b
#define OVL_PROF_CONCAT(a, b) OVL_PROF_CONCAT2(a, b)
#define OVL_PROF_SCOPE(zone)                                                 \
    ::ovl::prof::ScopedTimer OVL_PROF_CONCAT(ovl_prof_scope_, __LINE__)(     \
        ::ovl::prof::Zone::zone)
/** OVL_PROF_SCOPE only where the constant expression @p cond holds: the
 *  Timing-templated operations open their timing-side zones with it. */
#define OVL_PROF_SCOPE_IF(cond, zone)                                        \
    [[maybe_unused]] std::conditional_t<(cond), ::ovl::prof::ScopedTimer,   \
                                        ::ovl::prof::NoTimer>                \
        OVL_PROF_CONCAT(ovl_prof_scope_, __LINE__)(::ovl::prof::Zone::zone)
#else
#define OVL_PROF_SCOPE(zone) ((void)0)
#define OVL_PROF_SCOPE_IF(cond, zone) ((void)0)
#endif

#endif // OVERLAYSIM_SIM_PROFILE_HH
