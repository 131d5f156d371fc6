/**
 * @file
 * The full simulated machine: core-side TLBs, the three-level cache
 * hierarchy, the overlay-aware memory controller (regular DRAM + Overlay
 * Memory Store), the OS (Vmm) and the overlay engine, wired per Figure 6.
 * This class implements the paper's three memory-access operations —
 * read, simple write and overlaying write (§4.3.1–§4.3.3) — the CoW
 * baseline fault path, overlay promotion (§4.3.4) and fork.
 *
 * access, fork and destroyProcess each have one body templated on
 * Timing (DESIGN.md §10.2): the Detailed instantiation is the timing
 * model, the Functional one the sampled-simulation fast-forward, which
 * makes the same state transitions with zero tick movement. The
 * xxxFunctional methods are one-line names for the latter.
 */

#ifndef OVERLAYSIM_SYSTEM_SYSTEM_HH
#define OVERLAYSIM_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "overlay/overlay_addr.hh"
#include "overlay/overlay_manager.hh"
#include "system/config.hh"
#include "tlb/tlb.hh"
#include "vm/vmm.hh"

namespace ovl
{

class StatsSampler;

/** Promotion actions for converting an overlay to a regular page (§4.3.4). */
enum class PromoteAction
{
    CopyAndCommit, ///< merge page + overlay into a fresh frame
    Commit,        ///< write overlay lines into the existing frame
    Discard,       ///< drop the overlay (failed speculation)
};

/** One element of an accessBatch() request stream. */
struct AccessRequest
{
    Addr vaddr = 0;
    bool isWrite = false;
};

/** Per-access outcome details (for stats and tests). */
struct AccessOutcome
{
    Tick completion = 0;
    HitLevel level = HitLevel::L1;
    bool tlbWalk = false;
    bool overlayLine = false;   ///< serviced from the overlay address space
    bool cowFault = false;      ///< baseline copy-on-write fault taken
    bool overlayingWrite = false; ///< line moved to the overlay (§4.3.3)
};

/**
 * The overlay-aware memory controller: routes full-hierarchy misses
 * either to regular DRAM or to the overlay engine based on the overlay
 * bit of the physical address (§4.3.1).
 */
class OverlayAwareMemController : public SimObject, public MemBackend
{
  public:
    OverlayAwareMemController(std::string name, DramController &dram,
                              OverlayManager &ovm);

    Tick readLine(Addr line_addr, Tick when) override;
    Tick writebackLine(Addr line_addr, Tick when) override;

  private:
    DramController &dram_;
    OverlayManager &ovm_;

    stats::Counter regularReads_;
    stats::Counter regularWritebacks_;
    stats::Counter overlayReads_;
    stats::Counter overlayWritebacks_;
    stats::Counter droppedPrefetches_;
};

/** The machine. */
class System : public SimObject
{
  public:
    explicit System(SystemConfig config = SystemConfig{});

    const SystemConfig &config() const { return config_; }

    // ----- process / OS operations --------------------------------------

    /** Create a process with an empty address space. */
    Asid createProcess() { return vmm_.createProcess(); }

    /** Map anonymous private memory. */
    void
    mapAnon(Asid asid, Addr vaddr, std::uint64_t len, bool writable = true)
    {
        vmm_.mapAnon(asid, vaddr, len, writable);
    }

    /**
     * Map zero-backed overlay-enabled memory: the substrate for sparse
     * data structures (§5.2).
     */
    void
    mapZeroOverlay(Asid asid, Addr vaddr, std::uint64_t len)
    {
        vmm_.mapZeroCow(asid, vaddr, len, true);
    }

    /**
     * fork(): duplicates the address space (including overlays, §4.1)
     * and marks writable pages CoW/OoW per @p mode. Charges the page
     * table copy and the parent-side TLB invalidation.
     *
     * @return the child ASID; @p done (optional) receives completion time.
     */
    template <Timing T = Timing::Detailed>
    Asid fork(Asid parent, ForkMode mode, Tick when, Tick *done = nullptr);

    /**
     * Unmap [vaddr, vaddr+len): releases frames, discards the pages'
     * overlays (freeing OMT entries and OMS segments), drops cached
     * lines and translations.
     */
    void unmap(Asid asid, Addr vaddr, std::uint64_t len, Tick when);

    /**
     * Tear down a whole process: unmap everything it maps. The ASID is
     * retired (per §4.1's 1-1 overlay mapping, ASIDs are not recycled
     * while the system lives).
     */
    template <Timing T = Timing::Detailed>
    void destroyProcess(Asid asid, Tick when);

    // ----- the three memory operations (§4.3) ----------------------------

    /**
     * One timing access (64 B granularity). Performs all architectural
     * state transitions: TLB fills, CoW faults, overlaying writes,
     * promotions. The store data itself is not needed for timing; use
     * write() to also update functional contents. @p core selects which
     * core's TLBs translate the access (coherence messages and
     * shootdowns always reach every core's TLBs).
     */
    template <Timing T = Timing::Detailed>
    Tick access(Asid asid, Addr vaddr, bool is_write, Tick when,
                AccessOutcome *outcome = nullptr, unsigned core = 0);

    /**
     * Timing access for a precomputed request stream: exactly
     * equivalent — tick for tick, counter for counter — to calling
     * access() once per element, because it is that loop, with
     * access() inlined into it: per request it saves the call into
     * access() and the outcome record, nothing more. It is the seam
     * for batch-level work (grouping by page, pipelining across the
     * batch) and the entry point trace-driven benches
     * (host_throughput, overlay_bench) use for their hot loops.
     *
     * @return the completion time of the last access in the batch
     *         (@p when if the span is empty).
     */
    Tick accessBatch(Asid asid, std::span<const AccessRequest> reqs,
                     Tick when, unsigned core = 0);

    /** Timing access + functional store. */
    Tick write(Asid asid, Addr vaddr, const void *data, std::size_t len,
               Tick when);

    /** Timing access + functional load. */
    Tick read(Asid asid, Addr vaddr, void *out, std::size_t len, Tick when);

    // ----- functional-only access (no timing) ---------------------------

    /**
     * Functional fast-forward of one access (sampled simulation, see
     * DESIGN.md §10), access<Timing::Functional>: the architectural
     * transitions of access() — TLB lookups and fills, overlaying writes
     * (OBitVector + OMT + overlay data), CoW breaks — plus SMARTS-style
     * functional warming of the cache tag/replacement state, so detailed
     * windows resumed after a functional gap start from warm
     * microarchitectural state instead of a cold-start transient. No
     * ticks are charged anywhere: DRAM bank state, ORE serialization,
     * the OMT cache and all timing statistics stay untouched (the TLBs,
     * the prefetcher's training and the architectural event counters
     * do move), and a run with zero functional accesses is
     * byte-identical to a pure-detailed run.
     *
     * Overlay promotion is an OS timing policy and must be disabled
     * (config.promoteThresholdLines == kLinesPerPage) when functional
     * overlaying writes can occur.
     */
    void
    accessFunctional(Asid asid, Addr vaddr, bool is_write, unsigned core = 0)
    {
        access<Timing::Functional>(asid, vaddr, is_write, 0, nullptr, core);
    }

    /**
     * Functional fork, fork<Timing::Functional>: duplicates the address
     * space and copies overlay contents (§4.1) without charging the
     * table-copy DRAM traffic or the overlay-line cache accesses. Parent
     * TLB entries are still invalidated (they are architecturally
     * stale: cow is now set).
     */
    Asid
    forkFunctional(Asid parent, ForkMode mode)
    {
        return fork<Timing::Functional>(parent, mode, 0);
    }

    /**
     * Functional teardown, destroyProcess<Timing::Functional>: releases
     * frames, overlays (OMS segments, OMT entries) and translations, but
     * drops cached lines without writebacks — no DRAM or tick movement.
     */
    void
    destroyProcessFunctional(Asid asid)
    {
        destroyProcess<Timing::Functional>(asid, 0);
    }

    /** Functional store honouring overlay semantics (may transition). */
    void poke(Asid asid, Addr vaddr, const void *data, std::size_t len);

    /** Functional load honouring overlay semantics (Figure 2). */
    void peek(Asid asid, Addr vaddr, void *out, std::size_t len) const;

    // ----- metadata instructions (§5.3.4) --------------------------------

    /**
     * Timing path of the new metadata load/store instructions: a regular
     * TLB translation followed by an access to the overlay address of
     * the data's line, where the page's out-of-band metadata lives.
     * Requires the page to be in metadata mode.
     */
    Tick metadataAccess(Asid asid, Addr vaddr, bool is_write, Tick when);

    /** Functional metadata store (creates the shadow line on demand). */
    void metadataPoke(Asid asid, Addr vaddr, const void *data,
                      std::size_t len);

    /** Functional metadata load; absent shadow lines read as zero. */
    void metadataPeek(Asid asid, Addr vaddr, void *out,
                      std::size_t len) const;

    // ----- overlay management (§4.3.4) -----------------------------------

    /**
     * Convert the overlay of (asid, page of @p vaddr) back to a regular
     * page. Returns completion time.
     */
    Tick promoteOverlay(Asid asid, Addr vaddr, PromoteAction action,
                        Tick when);

    /** OBitVector of the page containing @p vaddr (hardware TLB view). */
    BitVector64 pageObv(Asid asid, Addr vaddr) const;

    /**
     * Overlay-aware prefetch (§5.2): the hardware knows from the
     * OBitVector exactly which lines of the page exist in the overlay
     * and prefetches them into the L3. Non-blocking.
     */
    void prefetchOverlayPage(Asid asid, Addr vaddr, Tick when);

    /** True if the line containing @p vaddr is mapped in the overlay. */
    bool lineInOverlay(Asid asid, Addr vaddr) const;

    /**
     * Dynamic-deletion support for zero-backed sparse structures: if the
     * overlay line containing @p vaddr has become all zeroes and the
     * page's physical backing is the shared zero frame, unmap the line
     * (reads fall through to the zero page, unchanged semantics) and
     * reclaim its OMS slot. The inverse of the overlaying write: one
     * coherence message clears the OBitVector bit everywhere.
     *
     * @return true if the line was reclaimed.
     */
    bool reclaimZeroLine(Asid asid, Addr vaddr, Tick when);

    // ----- component access ----------------------------------------------

    Vmm &vmm() { return vmm_; }
    PhysicalMemory &physMem() { return physMem_; }
    OverlayManager &overlayManager() { return overlayMgr_; }
    CacheHierarchy &caches() { return caches_; }
    TwoLevelTlb &tlb(unsigned idx = 0) { return *tlbs_[idx]; }

    /**
     * Apply @p fn to every core's TLB. A PTE or OBitVector change must
     * reach all of them (shootdown or ORE broadcast, §4.3.3): updating
     * tlb() alone leaves the other cores with stale entries.
     */
    template <class Fn>
    void
    forEachTlb(Fn &&fn)
    {
        for (auto &tlb : tlbs_)
            fn(*tlb);
    }
    DramController &dramController() { return dramCtrl_; }

    /**
     * Additional memory consumed since construction or the last call to
     * markMemoryBaseline(): private frames plus OMS bytes. This is the
     * quantity Figure 8 plots.
     */
    std::uint64_t additionalMemoryBytes() const;
    void markMemoryBaseline();

    /**
     * Phase boundary: drain all pending memory-system activity and
     * restart the timing state at tick 0 (the functional state — caches,
     * TLBs, overlays, memory contents — is untouched). Experiment
     * harnesses call this between a setup phase and a timed run.
     */
    void quiesce();

    /** Dump the statistics of every component, as text or as one JSON
     *  object. Both cover the groups forEachStatsGroup visits. */
    void dumpAllStats(std::ostream &os);
    void dumpAllStatsJson(std::ostream &os);

    /** Zero every statistic of every forEachStatsGroup group. */
    void resetStats() override;

    /** Visit every component stats group. */
    void forEachStatsGroup(const std::function<void(stats::Group *)> &fn);
    void forEachStatsGroup(
        const std::function<void(const stats::Group *)> &fn) const;

    /**
     * Attach a tick-domain sampler: registers every component stats
     * group and emits the first record at @p now. While attached, the
     * access path pumps the sampler whenever simulated time crosses a
     * sample boundary (one integer compare when it doesn't). A null
     * @p sampler attaches nothing, so callers can pass an optional one.
     */
    void attachStatsSampler(StatsSampler *sampler, Tick now = 0);

    /** Flush the attached sampler up to the run's @p end and detach it
     *  (no-op when none is attached). */
    void detachStatsSampler(Tick end);

    std::uint64_t cowFaults() const { return cowFaults_.value(); }
    std::uint64_t overlayingWrites() const { return overlayingWrites_.value(); }

    // ----- snapshot / clone (DESIGN.md §11) ------------------------------

    /**
     * Snapshot visitor over the entire machine — memory contents, page
     * tables, overlay engine, caches, TLBs, DRAM timing state, accounting
     * and every component's statistics. The attached stats sampler (if
     * any) is not part of the snapshot. Restoring requires a freshly
     * constructed System whose configuration is structurally identical
     * to the saved machine's (memory capacity, cache/TLB/OMT-cache
     * geometry, DRAM bank count, write-buffer depth, TLB count);
     * mismatches throw snapshot::SnapshotError with a diagnostic. Policy
     * fields (promote threshold, OS cost constants) may differ — that is
     * what warm-start config sweeps rely on.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);
    void serialize(snapshot::Writer &w) const { io(*this, w); }
    void deserialize(snapshot::Reader &r) { io(*this, r); }

    /**
     * Deep copy via serialize + deserialize into a fresh System. The
     * overload taking a config lets warm-start sweeps fan one simulated
     * prefix out across rows that differ only in policy fields.
     */
    std::unique_ptr<System> clone() const { return clone(config_); }
    std::unique_ptr<System> clone(const SystemConfig &config) const;

  private:
    /** forEachStatsGroup for either constness of @p self. */
    template <class Self, class Fn>
    static void visitStatsGroups(Self &self, const Fn &fn);

    /** Overlay line address of (asid, vaddr)'s line. */
    static Addr
    overlayLineAddr(Asid asid, Addr vaddr)
    {
        return overlay_addr::fromVirtual(asid, lineBase(vaddr));
    }

    /** Regular physical line address of @p vaddr's line in frame @p ppn. */
    static Addr
    physLineAddr(Addr ppn, Addr vaddr)
    {
        return (ppn << kPageShift) | (pageOffset(vaddr) & ~kLineMask);
    }

    /** TLB access + walk/fill; returns the entry and advances @p t. */
    template <Timing T>
    TlbEntryData *translate(Asid asid, Addr vpn, Tick &t,
                            AccessOutcome *outcome, unsigned core = 0);

    /** Baseline CoW write-fault service (Figure 3a). */
    template <Timing T>
    Tick serviceCowFault(Asid asid, Addr vaddr, TlbEntryData *&entry,
                         Tick t, AccessOutcome *outcome, unsigned core);

    /** Overlaying write (Figure 3b, §4.3.3). Advances time. */
    template <Timing T>
    Tick serviceOverlayingWrite(Asid asid, Addr vaddr, TlbEntryData *entry,
                                Tick t, AccessOutcome *outcome);

    /**
     * Unmap one page if mapped: discard its overlay, drop its cached
     * overlay lines (and its frame's lines if this frees the frame) and
     * its translations, release the frame.
     */
    template <Timing T>
    void unmapPage(Asid asid, Addr vpn, Tick when);

    /**
     * Functional half of an overlaying write (shared with poke()): the
     * line's current contents move from @p phys_line_addr into
     * (@p opn, @p line). Callers pass the already-derived OPN and
     * physical line address so the resolve/pageFromVirtual work is done
     * once per overlaying write.
     */
    void overlayLineFunctional(Opn opn, unsigned line, Addr phys_line_addr);

    /**
     * Broadcast an ORE message to every TLB + the OMT (§4.3.3). The
     * Functional instantiation flips the TLBs' OBitVector bits only:
     * the OMT bit is set with the line's data, and the message timing
     * and OMT-cache update belong to the timing model.
     */
    template <Timing T>
    Tick broadcastOre(Asid asid, Addr vpn, Opn opn, unsigned line, Tick t);

    /**
     * Main memory in use by the machine: the allocated frames (the OMT
     * node and OMS pages among them), less the OMS bytes on the
     * allocator's free lists.
     */
    std::uint64_t memoryInUseBytes() const;

    SystemConfig config_;
    PhysicalMemory physMem_;
    Vmm vmm_;
    DramController dramCtrl_;
    OverlayManager overlayMgr_;
    OverlayAwareMemController memCtrl_;
    CacheHierarchy caches_;
    std::vector<std::unique_ptr<TwoLevelTlb>> tlbs_;

    std::uint64_t memoryBaselineBytes_ = 0;
    /** ORE messages serialize at the coherence ordering point. */
    Tick oreBusyUntil_ = 0;

    /** Tick-domain sampler; kMaxTick next-due when detached so the
     *  access-path pump is a single always-false compare. */
    StatsSampler *sampler_ = nullptr;
    Tick samplerNext_ = kMaxTick;

    stats::Counter accesses_;
    stats::Counter functionalAccesses_;
    stats::Counter tlbWalks_;
    stats::Counter cowFaults_;
    stats::Counter cowLinesCopied_;
    stats::Counter overlayingWrites_;
    stats::Counter simpleOverlayWrites_;
    stats::Counter overlayLineReads_;
    stats::Counter promotions_;
    stats::Counter forkPagesShared_;
    stats::Counter forkOverlayLinesCopied_;
};

} // namespace ovl

#endif // OVERLAYSIM_SYSTEM_SYSTEM_HH
