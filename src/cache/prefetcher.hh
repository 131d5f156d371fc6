/**
 * @file
 * Multi-stream prefetcher in the style of the IBM POWER6 prefetch engine
 * [33] with feedback-directed parameters fixed per Table 2: it monitors L2
 * misses, tracks 16 streams, and prefetches into the L3 with degree 4 and
 * distance 24 lines.
 */

#ifndef OVERLAYSIM_CACHE_PREFETCHER_HH
#define OVERLAYSIM_CACHE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/set_kernel.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace ovl
{

/** Configuration of the stream prefetcher. */
struct PrefetcherParams
{
    bool enabled = true;
    unsigned numStreams = 16;
    unsigned degree = 4;
    unsigned distance = 24;
    /** Misses within this many lines of a stream head train it. */
    unsigned trainWindow = 4;

    /**
     * Prefetch-bandwidth model: prefetches are serviced at best-effort
     * priority behind demand traffic, consuming one service slot each;
     * when the prefetch engine lags the core by more than the maximum
     * lag it drops requests rather than queueing behind demand reads
     * (FR-FCFS prioritizes demand).
     */
    Tick serviceCycles = 30;   ///< ~DDR3-1066 streaming line transfer
    Tick maxLagCycles = 3000;  ///< backlog beyond this drops prefetches
};

/**
 * Stream detector and prefetch-address generator. The owner (the cache
 * hierarchy) calls notifyMiss() on every L2 demand miss and receives the
 * list of line addresses to prefetch into the L3.
 */
class StreamPrefetcher : public SimObject
{
  public:
    StreamPrefetcher(std::string name, PrefetcherParams params);

    /**
     * Observe an L2 miss and emit prefetch candidates. Defined inline
     * (below) — it runs on every L2 demand miss, squarely on the
     * hierarchy's miss cascade.
     *
     * @param line_addr the missing line address.
     * @param out filled with line addresses to fetch into L3.
     */
    void notifyMiss(Addr line_addr, std::vector<Addr> &out);

    const PrefetcherParams &params() const { return params_; }

    std::uint64_t issued() const { return issued_.value(); }

    /** Snapshot visitor over the stream table and recency state. */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    /** Per-stream training state (off the scan path; see the SoA note). */
    struct Stream
    {
        bool confirmed = false;   ///< direction established
        int direction = 1;        ///< +1 ascending, -1 descending
        unsigned strikes = 0;     ///< consecutive wrong-direction trainings
        Addr prefetchHead = 0;    ///< next line index to prefetch
    };

    /** Table 2's stream count: the table width with a compile-time scan. */
    static constexpr unsigned kTable2Streams = 16;

    /** Stream index within a trainWindow of @p line_index, or -1. */
    int findStream(Addr line_index) const;
    /** First invalid stream, or the table-order-first LRU victim. */
    unsigned allocateStream();

    PrefetcherParams params_;
    std::vector<Stream> streams_;
    /**
     * Scan-path state, struct-of-arrays: findStream() runs on every L2
     * demand miss and touches only lastLines_ (plus the valid mask), and
     * allocateStream() only lruSeqs_ — dense 8-byte arrays instead of a
     * stride over full Stream records. The mask bounds the table at 64
     * streams (Table 2 uses 16).
     */
    std::vector<Addr> lastLines_;        ///< last demand line observed
    std::vector<std::uint64_t> lruSeqs_; ///< recency, parallel to streams_
    std::uint64_t validMask_ = 0;        ///< bit i = streams_[i] is live
    std::uint64_t lruCounter_ = 0;

    stats::Counter trainings_;
    stats::Counter allocations_;
    stats::Counter issued_;
};

// ------------------------ inline hot path ------------------------------

inline int
StreamPrefetcher::findStream(Addr line_index) const
{
    // The first match in table order, as an ordered scan would return.
    if (params_.numStreams == kTable2Streams) {
        return firstInWindow<kTable2Streams>(lastLines_.data(), validMask_,
                                             line_index, params_.trainWindow,
                                             kTable2Streams);
    }
    return firstInWindow<0>(lastLines_.data(), validMask_, line_index,
                            params_.trainWindow, params_.numStreams);
}

inline void
StreamPrefetcher::notifyMiss(Addr line_addr, std::vector<Addr> &out)
{
    if (!params_.enabled)
        return;

    Addr line_index = line_addr >> kLineShift;
    int found = findStream(line_index);

    if (found < 0) {
        unsigned i = allocateStream();
        ++allocations_;
        validMask_ |= std::uint64_t(1) << i;
        streams_[i] = Stream{};
        streams_[i].prefetchHead = line_index + 1;
        lastLines_[i] = line_index;
        lruSeqs_[i] = ++lruCounter_;
        return; // first touch only allocates; no prefetch yet
    }

    Stream &stream = streams_[unsigned(found)];
    lruSeqs_[unsigned(found)] = ++lruCounter_;
    std::int64_t delta = std::int64_t(line_index) -
                         std::int64_t(lastLines_[unsigned(found)]);
    if (delta == 0)
        return;

    if (!stream.confirmed) {
        // Second nearby miss establishes the direction [48].
        stream.confirmed = true;
        stream.direction = delta > 0 ? 1 : -1;
        stream.prefetchHead = line_index + stream.direction;
    } else if ((delta > 0) != (stream.direction > 0)) {
        // Training against the established direction: after two strikes
        // the stream re-confirms, so an unluckily-established direction
        // cannot park a zombie stream in the table forever.
        if (++stream.strikes >= 2) {
            stream.direction = delta > 0 ? 1 : -1;
            stream.prefetchHead = line_index + stream.direction;
            stream.strikes = 0;
        }
    } else {
        stream.strikes = 0;
    }
    ++trainings_;
    lastLines_[unsigned(found)] = line_index;

    // Keep the prefetch head within `distance` lines of the demand stream
    // and emit up to `degree` prefetches per training.
    Addr limit = line_index + std::int64_t(params_.distance) *
                 stream.direction;
    for (unsigned i = 0; i < params_.degree; ++i) {
        bool within = stream.direction > 0 ? stream.prefetchHead <= limit
                                           : stream.prefetchHead >= limit;
        if (!within)
            break;
        out.push_back(stream.prefetchHead << kLineShift);
        ++issued_;
        stream.prefetchHead += stream.direction;
    }
}

} // namespace ovl

#endif // OVERLAYSIM_CACHE_PREFETCHER_HH
