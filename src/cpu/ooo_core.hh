/**
 * @file
 * Trace-driven out-of-order core model per Table 2: 2.67 GHz, single
 * issue (width configurable for ablations), 64-entry instruction window,
 * in-order retirement. Independent memory operations overlap within the
 * window (memory-level parallelism); a full window stalls issue until
 * the oldest instruction completes. Explicit load-to-use dependences in
 * the trace serialize dependent accesses — this is how CSR SpMV's
 * pointer-chasing gathers are modeled (§5.2).
 */

#ifndef OVERLAYSIM_CPU_OOO_CORE_HH
#define OVERLAYSIM_CPU_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "system/system.hh"

namespace ovl
{

/** One trace record. */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        Compute, ///< @c count back-to-back single-cycle ALU instructions
    };

    Kind kind = Kind::Compute;
    /** Issue only after the previous op completes (data dependence). */
    bool dependsOnPrev = false;
    Addr vaddr = 0;
    std::uint32_t count = 1;

    static TraceOp
    load(Addr vaddr, bool depends_on_prev = false)
    {
        return TraceOp{Kind::Load, depends_on_prev, vaddr, 1};
    }

    static TraceOp
    store(Addr vaddr, bool depends_on_prev = false)
    {
        return TraceOp{Kind::Store, depends_on_prev, vaddr, 1};
    }

    static TraceOp
    compute(std::uint32_t count)
    {
        return TraceOp{Kind::Compute, false, 0, count};
    }
};

/** A complete trace. */
using Trace = std::vector<TraceOp>;

/**
 * The core model. Use either run() on a whole trace or the streaming
 * interface (beginEpoch / executeOp / finishEpoch) so that workload
 * generators can feed ops without materializing giant traces.
 */
class OooCore : public SimObject
{
  public:
    /** @p core selects which of the system's TLB sets this core uses. */
    OooCore(std::string name, System &system, unsigned core = 0);

    unsigned coreIndex() const { return core_; }

    /** Execute @p trace for process @p asid; returns the finish tick. */
    Tick run(Asid asid, const Trace &trace, Tick start);

    /** Start a measurement epoch at @p start. */
    void beginEpoch(Tick start);

    /** Execute one op in the current epoch. */
    void executeOp(Asid asid, const TraceOp &op);

    /** Close the epoch; returns the finish tick. */
    Tick finishEpoch();

    /** Instructions executed in the last (or current) epoch. */
    std::uint64_t epochInstructions() const { return epochInstructions_; }

    /** The core's current issue cycle (for engine-driven prefetches). */
    Tick currentCycle() const { return issueCycle_; }

    /** Cycles of the last closed epoch. */
    Tick epochCycles() const { return epochCycles_; }

    /** CPI of the last closed epoch. */
    double
    epochCpi() const
    {
        return epochInstructions_ == 0
                   ? 0.0
                   : double(epochCycles_) / double(epochInstructions_);
    }

    std::uint64_t totalInstructions() const { return instructions_.value(); }

    /**
     * Snapshot visitor over the pipeline state (window occupancy, issue
     * cursor, epoch accounting) and the core's stats. The System
     * reference is structural; the restored core must be bound to the
     * restored System.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /** Reserve a window slot; returns the earliest issue cycle. */
    Tick reserveSlot(Tick ready);

    /** Advance the issue cursor by one slot (width slots per cycle). */
    void consumeIssueSlot();

    System &system_;
    unsigned core_;
    unsigned windowSize_;
    unsigned issueWidth_;
    unsigned slotsThisCycle_ = 0;

    std::deque<Tick> window_;   ///< completion times, oldest first
    Tick issueCycle_ = 0;       ///< next issue cycle
    Tick lastCompletion_ = 0;   ///< completion of the previous op
    Tick maxCompletion_ = 0;
    Tick epochStart_ = 0;
    Tick epochCycles_ = 0;
    std::uint64_t epochInstructions_ = 0;

    stats::Counter instructions_;
    stats::Counter loads_;
    stats::Counter stores_;
    stats::Counter faults_;
    stats::Counter windowStallCycles_;
    stats::Histogram loadLatency_;
};

} // namespace ovl

#endif // OVERLAYSIM_CPU_OOO_CORE_HH
