#include "dram.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

DramModel::DramModel(std::string name, DramTimingParams params)
    : SimObject(std::move(name)), params_(params),
      banks_(params.numBanks),
      reads_(&statGroup(), "reads", "read bursts serviced"),
      writes_(&statGroup(), "writes", "write bursts serviced"),
      rowHits_(&statGroup(), "rowHits", "accesses hitting an open row"),
      rowClosed_(&statGroup(), "rowClosed", "accesses to a closed bank"),
      rowConflicts_(&statGroup(), "rowConflicts",
                    "accesses conflicting with a different open row")
{
    ovl_assert(isPowerOf2(params_.numBanks), "bank count must be 2^n");
    ovl_assert(isPowerOf2(params_.rowBufferBytes), "row buffer must be 2^n");
    ovl_assert(params_.rowBufferBytes >= kLineSize,
               "row buffer smaller than a line");

    // Power-of-two geometry means bank/row decode is shifts and a mask.
    bankShift_ = floorLog2(params_.rowBufferBytes >> kLineShift);
    rowShift_ = bankShift_ + floorLog2(Addr(params_.numBanks));
    bankMask_ = params_.numBanks - 1;

    // Fold the DRAM-clock sums into CPU-tick constants once; access()
    // then classifies into an index and reads the table.
    burstTicks_ = params_.toCpu(params_.burstClocks());
    wrTicks_ = params_.toCpu(params_.tWR);
    rasTicks_ = params_.toCpu(params_.tRAS);
    rpTicks_ = params_.toCpu(params_.tRP);
    outcomeLatency_[kRowHit] =
        params_.toCpu(params_.tCL + params_.burstClocks());
    outcomeLatency_[kRowActivate] =
        params_.toCpu(params_.tRCD + params_.tCL + params_.burstClocks());
    outcomeLatency_[kRowConflict] = params_.toCpu(
        params_.tRP + params_.tRCD + params_.tCL + params_.burstClocks());
    outcomeCounter_[kRowHit] = &rowHits_;
    outcomeCounter_[kRowActivate] = &rowClosed_;
    outcomeCounter_[kRowConflict] = &rowConflicts_;
}

void
DramModel::resetTiming()
{
    for (Bank &bank : banks_) {
        bank.readyAt = 0;
        bank.activatedAt = 0;
    }
    busReadyAt_ = 0;
}

DramController::DramController(std::string name, DramTimingParams params,
                               unsigned write_buffer_entries)
    : SimObject(std::move(name)),
      dram_(this->name() + ".dram", params),
      writeBufferEntries_(write_buffer_entries),
      readRequests_(&statGroup(), "readRequests", "reads received"),
      writeRequests_(&statGroup(), "writeRequests", "writebacks received"),
      drains_(&statGroup(), "drains", "write-buffer drain episodes"),
      readDrainStallCycles_(&statGroup(), "readDrainStallCycles",
                            "cycles reads stalled behind write drains"),
      readLatency_(&statGroup(), "readLatency",
                   "DRAM read latency distribution (cycles)", 25, 20)
{
    ovl_assert(write_buffer_entries > 0, "write buffer needs capacity");
    writeBuffer_.reserve(write_buffer_entries);
}

Tick
DramController::drainWrites(Tick when)
{
    if (writeBuffer_.empty())
        return when;
    ++drains_;
    OVL_PROF_SCOPE(Dram);
    // All buffered writes are issued to the banks at the drain start;
    // bank conflicts and data-bus occupancy serialize them inside the
    // DRAM model (this is FR-FCFS's point: drains pipeline across
    // banks [34]).
    Tick start = std::max(when, drainBusyUntil_);
    Tick done =
        dram_.drainBatch(writeBuffer_.data(), writeBuffer_.size(), start);
    // The drain summary follows the per-write row events, exactly as the
    // golden traces pin.
    if (trace::active()) {
        trace::complete("dram", "wb_drain", start, done - start,
                        {{"writes", std::uint64_t(writeBuffer_.size())}});
    }
    writeBuffer_.clear();
    drainBusyUntil_ = done;
    return done;
}

void
DramController::resetTiming()
{
    drainWrites(drainBusyUntil_);
    drainBusyUntil_ = 0;
    dram_.resetTiming();
}

template <class Self, class Ar>
void
DramModel::io(Self &self, Ar &ar)
{
    ar.section("DRAM", [&] {
        ar.expectEq(self.banks_.size(), "DRAM bank count");
        for (auto &bank : self.banks_) {
            ar.u64(bank.openRow);
            ar.u64(bank.readyAt);
            ar.u64(bank.activatedAt);
        }
        ar.u64(self.busReadyAt_);
    });
}

template <class Self, class Ar>
void
DramController::io(Self &self, Ar &ar)
{
    ar.section("DCTL", [&] {
        ar.seq(self.writeBuffer_, 8, [&](auto &addr) { ar.u64(addr); });
        if constexpr (Ar::kLoading) {
            if (self.writeBuffer_.size() > self.writeBufferEntries_)
                ar.fail("write buffer holds more entries than configured");
        }
        ar.u64(self.drainBusyUntil_);
        snapshot::visit(self.dram_, ar);
    });
}

OVL_SNAPSHOT_IO(DramModel);
OVL_SNAPSHOT_IO(DramController);

} // namespace ovl
