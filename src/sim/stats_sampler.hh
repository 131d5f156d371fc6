/**
 * @file
 * Tick-domain statistics sampling. A StatsSampler snapshots a set of
 * stats::Groups every N simulated ticks into JSONL: one
 *
 *     {"tick": T, "<path>.<stat>": v, ...}
 *
 * record per sample boundary. Counters and histogram accumulators are
 * monotonic and report per-interval deltas (value - value at the
 * previous record), which is what plots of "activity per window" want;
 * gauges are always instantaneous.
 *
 * Sampling is driven by the simulated clock, never the host clock, so a
 * sampled run records exactly floor(end_tick/N)+1 records at ticks
 * 0, N, 2N, ..., regardless of host scheduling. System::access drives
 * it by pull: it keeps a cached next-due tick and calls observe(t) only
 * when t crosses it — one integer compare on the hot path, nothing at
 * all when no sampler is attached.
 *
 * The record schema is fixed at begin(): the column set is derived once
 * from Info::eachScalar, and addGroup afterwards is an error.
 */

#ifndef OVERLAYSIM_SIM_STATS_SAMPLER_HH
#define OVERLAYSIM_SIM_STATS_SAMPLER_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/stats.hh"

namespace ovl
{

class StatsSampler
{
  public:
    /**
     * @p out receives one JSON object per line; it must outlive the
     * sampler. @p label, when non-empty, is emitted as a "run" key in
     * every record so several runs can share one output file.
     */
    StatsSampler(std::ostream &out, Tick interval, std::string label = "");

    StatsSampler(const StatsSampler &) = delete;
    StatsSampler &operator=(const StatsSampler &) = delete;

    /** Register @p group's stats under "<path>." column names.
     *  Must precede begin(). */
    void addGroup(const std::string &path, const stats::Group *group);

    /** Freeze the column set and emit the first record at @p now. */
    void begin(Tick now);

    /**
     * Emit a record for every sample boundary <= @p t that is still
     * pending, and return the next boundary tick (kMaxTick never —
     * the series is unbounded until finish()).
     */
    Tick observe(Tick t);

    /** Flush boundaries up to @p end and flush the stream. */
    void finish(Tick end);

    /** Next pending sample boundary. */
    Tick nextDue() const { return nextDue_; }

    /** Records written so far. */
    std::uint64_t records() const { return records_; }

    /**
     * Re-read baselines after an external stats reset so deltas don't
     * go negative (System::resetStats calls this).
     */
    void rebase();

  private:
    struct Column
    {
        std::string name; ///< "<path>.<stat><suffix>", JSON-escaped
        bool monotonic;   ///< reported as a per-interval delta
    };

    void emitRecord(Tick tick);
    void snapshot(std::vector<double> &into) const;

    std::ostream &out_;
    Tick interval_;
    std::string label_;

    std::vector<std::pair<std::string, const stats::Group *>> groups_;
    std::vector<Column> columns_;
    std::vector<double> prev_;    ///< values at the previous record
    std::vector<double> scratch_; ///< reused per sample; no steady-state alloc
    Tick nextDue_ = 0;
    std::uint64_t records_ = 0;
    bool begun_ = false;
};

} // namespace ovl

#endif // OVERLAYSIM_SIM_STATS_SAMPLER_HH
