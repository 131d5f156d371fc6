#include "prefetcher.hh"

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

StreamPrefetcher::StreamPrefetcher(std::string name, PrefetcherParams params)
    : SimObject(std::move(name)), params_(params),
      streams_(params.numStreams),
      lastLines_(params.numStreams, 0),
      lruSeqs_(params.numStreams, 0),
      trainings_(&statGroup(), "trainings", "stream training events"),
      allocations_(&statGroup(), "allocations", "streams allocated"),
      issued_(&statGroup(), "issued", "prefetches issued")
{
    ovl_assert(params.numStreams > 0, "prefetcher needs stream entries");
    ovl_assert(params.numStreams <= 64,
               "valid mask bounds the table at 64 streams");
}

unsigned
StreamPrefetcher::allocateStream()
{
    std::uint64_t full = params_.numStreams == 64
                             ? ~std::uint64_t(0)
                             : (std::uint64_t(1) << params_.numStreams) - 1;
    std::uint64_t invalid = full & ~validMask_;
    if (invalid != 0)
        return unsigned(__builtin_ctzll(invalid)); // first free in order
    unsigned victim = 0;
    for (unsigned i = 1; i < params_.numStreams; ++i) {
        if (lruSeqs_[i] < lruSeqs_[victim])
            victim = i;
    }
    return victim;
}

template <class Self, class Ar>
void
StreamPrefetcher::io(Self &self, Ar &ar)
{
    ar.section("PREF", [&] {
        ar.expectEq(self.streams_.size(), "prefetcher stream count");
        for (auto &s : self.streams_) {
            ar.b(s.confirmed);
            ar.i64(s.direction);
            ar.u32(s.strikes);
            ar.u64(s.prefetchHead);
        }
        for (auto &last : self.lastLines_)
            ar.u64(last);
        for (auto &seq : self.lruSeqs_)
            ar.u64(seq);
        ar.u64(self.validMask_);
        ar.u64(self.lruCounter_);
    });
}

OVL_SNAPSHOT_IO(StreamPrefetcher);

} // namespace ovl
