#include "ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

OooCore::OooCore(std::string name, System &system, unsigned core)
    : SimObject(std::move(name)), system_(system), core_(core),
      windowSize_(system.config().instructionWindow),
      issueWidth_(system.config().issueWidth),
      instructions_(&statGroup(), "instructions", "instructions executed"),
      loads_(&statGroup(), "loads", "load instructions"),
      stores_(&statGroup(), "stores", "store instructions"),
      faults_(&statGroup(), "faults", "pipeline-flushing page faults"),
      windowStallCycles_(&statGroup(), "windowStallCycles",
                         "cycles issue stalled on a full window"),
      loadLatency_(&statGroup(), "loadLatency",
                   "load completion latency (cycles)", 25, 40)
{
    ovl_assert(windowSize_ > 0, "instruction window must be non-empty");
    // Compute ops divide by the width.
    ovl_assert(issueWidth_ >= 1, "issue width must be at least 1");
    window_.resize(windowSize_);
}

void
OooCore::consumeIssueSlot()
{
    if (++slotsThisCycle_ >= issueWidth_) {
        slotsThisCycle_ = 0;
        ++issueCycle_;
    }
}

void
OooCore::beginEpoch(Tick start)
{
    windowClear();
    slotsThisCycle_ = 0;
    issueCycle_ = start;
    lastCompletion_ = start;
    maxCompletion_ = start;
    epochStart_ = start;
    epochInstructions_ = 0;
    epochCycles_ = 0;
}

Tick
OooCore::reserveSlot(Tick ready)
{
    Tick issue = std::max(issueCycle_, ready);
    if (windowCount_ >= windowSize_) {
        // In-order retirement: the oldest instruction must complete
        // before a new one can enter the window.
        Tick oldest_done = windowPop();
        if (oldest_done > issue) {
            windowStallCycles_ += oldest_done - issue;
            issue = oldest_done;
        }
    }
    return issue;
}

void
OooCore::executeOp(Asid asid, const TraceOp &op)
{
    switch (op.kind) {
      case TraceOp::Kind::Compute: {
        // `count` independent single-cycle instructions. They complete
        // one cycle after issue, so they can never clog the window;
        // advancing the issue cursor models their occupancy exactly.
        Tick issue = issueCycle_;
        if (op.dependsOnPrev)
            issue = std::max(issue, lastCompletion_);
        issueCycle_ = issue + (op.count + slotsThisCycle_) / issueWidth_;
        slotsThisCycle_ = (op.count + slotsThisCycle_) % issueWidth_;
        lastCompletion_ = issueCycle_;
        maxCompletion_ = std::max(maxCompletion_, issueCycle_);
        epochInstructions_ += op.count;
        instructions_ += op.count;
        break;
      }
      case TraceOp::Kind::Load:
      case TraceOp::Kind::Store: {
        Tick ready = op.dependsOnPrev ? lastCompletion_ : 0;
        Tick issue = reserveSlot(ready);
        bool is_write = op.kind == TraceOp::Kind::Store;
        AccessOutcome outcome;
        Tick done = system_.access(asid, op.vaddr, is_write, issue,
                                   &outcome, core_);
        if (outcome.cowFault) {
            // A page fault is a precise exception: the pipeline drains,
            // the OS handler runs, and issue restarts afterwards. (The
            // overlaying write needs none of this — it is handled in
            // hardware without faulting, §4.3.3.)
            ++faults_;
            windowClear();
            slotsThisCycle_ = 0;
            issueCycle_ = done;
            lastCompletion_ = done;
        } else {
            windowPush(done);
            lastCompletion_ = done;
            if (issue > issueCycle_) {
                issueCycle_ = issue;
                slotsThisCycle_ = 0;
            }
            consumeIssueSlot();
        }
        maxCompletion_ = std::max(maxCompletion_, done);
        ++epochInstructions_;
        ++instructions_;
        if (is_write) {
            ++stores_;
        } else {
            ++loads_;
            loadLatency_.sample(done - issue);
        }
        break;
      }
    }
}

Tick
OooCore::finishEpoch()
{
    Tick finish = std::max(issueCycle_, maxCompletion_);
    epochCycles_ = finish - epochStart_;
    windowClear();
    return finish;
}

Tick
OooCore::run(Asid asid, const Trace &trace, Tick start)
{
    beginEpoch(start);
    for (const TraceOp &op : trace)
        executeOp(asid, op);
    return finishEpoch();
}

template <class Self, class Ar>
void
OooCore::io(Self &self, Ar &ar)
{
    ar.section("CORE", [&] {
        // The window's entries, count first, oldest first.
        std::uint64_t n = self.windowCount_;
        ar.count(n, 8);
        if constexpr (Ar::kLoading) {
            if (n > self.windowSize_) {
                ar.fail("core window occupancy " + std::to_string(n) +
                        " exceeds configured window of " +
                        std::to_string(self.windowSize_));
            }
            self.windowHead_ = 0;
            self.windowCount_ = unsigned(n);
        }
        for (std::uint64_t k = 0; k < n; ++k) {
            std::uint64_t slot = self.windowHead_ + k;
            ar.u64(self.window_[slot < self.windowSize_
                                    ? slot
                                    : slot - self.windowSize_]);
        }
        ar.u32(self.slotsThisCycle_);
        ar.u64(self.issueCycle_);
        ar.u64(self.lastCompletion_);
        ar.u64(self.maxCompletion_);
        ar.u64(self.epochStart_);
        ar.u64(self.epochCycles_);
        ar.u64(self.epochInstructions_);
        snapshot::visit(self.statGroup(), ar);
    });
}

OVL_SNAPSHOT_IO(OooCore);

} // namespace ovl
