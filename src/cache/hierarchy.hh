/**
 * @file
 * Three-level non-inclusive cache hierarchy (Table 2): 64 KB 4-way L1,
 * 512 KB 8-way L2, 2 MB 16-way DRRIP L3, with a stream prefetcher that
 * monitors L2 misses and fills the L3. Below the hierarchy sits a
 * MemBackend — in the full system this is the overlay-aware memory
 * controller, which routes overlay-space addresses to the Overlay Memory
 * Store (§4.3.1).
 */

#ifndef OVERLAYSIM_CACHE_HIERARCHY_HH
#define OVERLAYSIM_CACHE_HIERARCHY_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"
#include "sim/trace.hh"

namespace ovl
{

/**
 * What the cache hierarchy talks to on a full miss. Implemented by the
 * overlay-aware memory controller in src/system.
 */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /** Read a line; returns the completion time. */
    virtual Tick readLine(Addr line_addr, Tick when) = 0;

    /**
     * Accept a dirty writeback; returns the acceptance time. For overlay
     * lines this is where the OMS slot is lazily allocated (§4.3.3).
     */
    virtual Tick writebackLine(Addr line_addr, Tick when) = 0;
};

/** Parameters of the three levels plus the prefetcher. */
struct HierarchyParams
{
    CacheParams l1{64 * 1024, 4, 1, 2, true, ReplPolicy::LRU};
    CacheParams l2{512 * 1024, 8, 2, 8, true, ReplPolicy::LRU};
    CacheParams l3{2 * 1024 * 1024, 16, 10, 24, false, ReplPolicy::DRRIP};
    PrefetcherParams prefetcher{};
};

/** Which level serviced a demand access. */
enum class HitLevel
{
    L1,
    L2,
    L3,
    Memory,
};

/**
 * The demand path: L1 -> L2 -> L3 -> MemBackend, with dirty-victim
 * cascades and L2-miss-trained prefetching into L3. access() and
 * invalidateLine() each have one body templated on Timing (DESIGN.md
 * §10.2): the Functional instantiation is the sampled-simulation
 * warming path, the same tag movement without time or traffic.
 */
class CacheHierarchy : public SimObject
{
  public:
    CacheHierarchy(std::string name, HierarchyParams params,
                   MemBackend &backend);

    /**
     * One demand access to a line address (regular-physical or overlay
     * space). Returns the completion time; @p hit_level (optional)
     * reports which level serviced it. Defined inline (below) together
     * with the victim/prefetch helpers so the whole miss cascade
     * compiles into one frame.
     *
     * The Functional instantiation is functional warming (sampled
     * simulation, DESIGN.md §10): the same tag and replacement-state
     * movement — dirty victims cascade, the prefetcher trains and its
     * candidates fill the L3 — with no latency, no statistics, no
     * prefetch bandwidth gate (prefetches are assumed serviced) and no
     * memory traffic: the final writeback of a dirty victim is dropped,
     * as its data lives in the functional stores. It returns @p when.
     */
    template <Timing T = Timing::Detailed>
    Tick access(Addr line_addr, bool is_write, Tick when,
                HitLevel *hit_level = nullptr);

    /**
     * Invalidate a line everywhere, writing it back if dirty. Used when
     * overlays are promoted/discarded (§4.3.4) and pages unmapped. The
     * Functional instantiation drops the line without the writeback,
     * leaving DRAM state untouched.
     */
    template <Timing T = Timing::Detailed>
    void invalidateLine(Addr line_addr, Tick when);

    /**
     * Retag a line from the regular physical space to the overlay space
     * in whichever level holds it — the overlaying write's tag update
     * (§4.3.3). Falls back to invalidate+fill when retagging in place is
     * not possible (cascaded victims are stamped with @p when). Returns
     * true if the line was found somewhere.
     */
    bool retagLine(Addr old_addr, Addr new_addr, Tick when);

    /**
     * Software/hardware-directed prefetch of one line into the L3 (used
     * by the overlay-aware prefetcher, §5.2: the OBitVector tells the
     * hardware exactly which overlay lines exist). Non-blocking: charges
     * memory bandwidth only.
     */
    void prefetchLine(Addr line_addr, Tick when);

    /** Write back all dirty lines and empty the hierarchy. */
    void flushAll(Tick when);

    /** Reset prefetch-bandwidth timing state (phase boundary). */
    void resetTiming() { prefetchBusyUntil_ = 0; }

    SetAssocCache &l1() { return l1_; }
    SetAssocCache &l2() { return l2_; }
    SetAssocCache &l3() { return l3_; }
    StreamPrefetcher &prefetcher() { return prefetcher_; }
    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &l2() const { return l2_; }
    const SetAssocCache &l3() const { return l3_; }
    const StreamPrefetcher &prefetcher() const { return prefetcher_; }

    void resetStats() override;

    /**
     * Snapshot visitor over all three levels, the prefetcher and the
     * prefetch bandwidth cursor. prefetchScratch_ is a transient buffer
     * cleared before every use and carries no state.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    template <Timing T = Timing::Detailed>
    void handleL1Victim(const Eviction &ev, Tick when);
    template <Timing T = Timing::Detailed>
    void handleL2Victim(const Eviction &ev, Tick when);
    template <Timing T = Timing::Detailed>
    void handleL3Victim(const Eviction &ev, Tick when);
    template <Timing T>
    void issuePrefetches(Addr trigger_line, Tick when);
    /** Rate-limited best-effort prefetch fill; false if dropped. */
    template <Timing T = Timing::Detailed>
    bool tryPrefetchFill(Addr line_addr, Tick when);

    HierarchyParams params_;
    MemBackend &backend_;
    SetAssocCache l1_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    StreamPrefetcher prefetcher_;
    std::vector<Addr> prefetchScratch_;
    Tick prefetchBusyUntil_ = 0;

    stats::Counter accesses_;
    stats::Counter memReads_;
    stats::Counter memWritebacks_;
    stats::Counter prefetchReads_;
    stats::Counter prefetchDrops_;
    stats::Counter hitsL1_;
    stats::Counter hitsL2_;
    stats::Counter hitsL3_;
};

// ------------------------ inline hot path ------------------------------

template <Timing T>
inline void
CacheHierarchy::handleL3Victim(const Eviction &ev, Tick when)
{
    if constexpr (T == Timing::Detailed) {
        if (ev.dirty) {
            ++memWritebacks_;
            backend_.writebackLine(ev.lineAddr, when);
        }
    }
}

template <Timing T>
inline void
CacheHierarchy::handleL2Victim(const Eviction &ev, Tick when)
{
    if (!ev.dirty)
        return; // non-inclusive: clean victims are dropped silently
    if (auto l3_victim = l3_.fill<T>(ev.lineAddr, true))
        handleL3Victim<T>(*l3_victim, when);
}

template <Timing T>
inline void
CacheHierarchy::handleL1Victim(const Eviction &ev, Tick when)
{
    if (!ev.dirty)
        return;
    if (auto l2_victim = l2_.fill<T>(ev.lineAddr, true))
        handleL2Victim<T>(*l2_victim, when);
}

template <Timing T>
inline bool
CacheHierarchy::tryPrefetchFill(Addr line_addr, Tick when)
{
    if (l1_.isPresent(line_addr) || l2_.isPresent(line_addr))
        return true;
    // Probe the L3 once for both the presence gate and the fill slot —
    // isPresent() followed by fill() would scan the set twice.
    SetAssocCache::ProbeResult l3_probe = l3_.probe(line_addr);
    if (l3_probe.present)
        return true;
    if constexpr (T == Timing::Detailed) {
        // Best-effort bandwidth: prefetches are serviced behind demand
        // traffic at a fixed streaming rate and dropped when the engine
        // falls too far behind (demand-first FR-FCFS scheduling).
        Tick start = std::max(when, prefetchBusyUntil_);
        if (start - when > prefetcher_.params().maxLagCycles) {
            ++prefetchDrops_;
            return false;
        }
        prefetchBusyUntil_ = start + prefetcher_.params().serviceCycles;
        ++prefetchReads_;
    }
    if (auto victim = l3_.fillProbed<T>(line_addr, l3_probe.invalidWay,
                                        false, true)) {
        handleL3Victim<T>(*victim, when);
    }
    return true;
}

template <Timing T>
inline void
CacheHierarchy::issuePrefetches(Addr trigger_line, Tick when)
{
    prefetchScratch_.clear();
    prefetcher_.notifyMiss(trigger_line, prefetchScratch_);
    for (Addr pf_addr : prefetchScratch_)
        tryPrefetchFill<T>(pf_addr, when);
}

template <Timing T>
inline Tick
CacheHierarchy::access(Addr line_addr, bool is_write, Tick when,
                       HitLevel *hit_level)
{
    constexpr bool kTimed = T == Timing::Detailed;
    ovl_assert((line_addr & kLineMask) == 0, "unaligned line address");
    if constexpr (kTimed)
        ++accesses_;
    OVL_PROF_SCOPE_IF(kTimed, CacheLookup);

    Tick t = when;
    CacheAccessResult l1_res = l1_.access<T>(line_addr, is_write);
    if (l1_res.eviction)
        handleL1Victim<T>(*l1_res.eviction, when);
    if (l1_res.hit) {
        if constexpr (kTimed)
            ++hitsL1_;
        if (hit_level)
            *hit_level = HitLevel::L1;
        return kTimed ? t + params_.l1.hitLatency() : t;
    }
    if constexpr (kTimed)
        t += params_.l1.missDetectLatency();
    // Like the trace points, the miss-cascade scope opens only after an
    // L1 miss, keeping the hit fast path identical when profiling.
    OVL_PROF_SCOPE_IF(kTimed, MissCascade);

    CacheAccessResult l2_res = l2_.access<T>(line_addr, false);
    if (l2_res.eviction)
        handleL2Victim<T>(*l2_res.eviction, when);
    if (l2_res.hit) {
        if constexpr (!kTimed)
            return t;
        ++hitsL2_;
        if (hit_level)
            *hit_level = HitLevel::L2;
        Tick done = t + params_.l2.hitLatency();
        // Trace points sit on the L1-miss cascade only, so the L1-hit
        // fast path stays branch-for-branch identical when disabled.
        if (trace::active()) {
            trace::complete("cache", "l2_hit", when, done - when,
                            {{"line", line_addr}});
        }
        return done;
    }
    if constexpr (kTimed)
        t += params_.l2.missDetectLatency();

    // Train the prefetcher on L2 demand misses (Table 2).
    issuePrefetches<T>(line_addr, t);

    CacheAccessResult l3_res = l3_.access<T>(line_addr, false);
    if (l3_res.eviction)
        handleL3Victim<T>(*l3_res.eviction, when);
    // Warming reads no memory: the data lives in the functional stores.
    if constexpr (!kTimed)
        return t;
    if (l3_res.hit) {
        ++hitsL3_;
        if (hit_level)
            *hit_level = HitLevel::L3;
        Tick done = t + params_.l3.hitLatency();
        if (trace::active()) {
            trace::complete("cache", "l3_hit", when, done - when,
                            {{"line", line_addr}});
        }
        return done;
    }
    t += params_.l3.missDetectLatency();

    ++memReads_;
    if (hit_level)
        *hit_level = HitLevel::Memory;
    Tick done = backend_.readLine(line_addr, t);
    if (trace::active()) {
        trace::complete("cache", "mem_read", when, done - when,
                        {{"line", line_addr}});
    }
    return done;
}

} // namespace ovl

#endif // OVERLAYSIM_CACHE_HIERARCHY_HH
