/**
 * @file
 * Replacement policies for set-associative structures: LRU and Random for
 * the L1/L2 (Table 2 uses LRU there), and the RRIP family — SRRIP, BRRIP,
 * and set-dueling DRRIP [27] — for the last-level cache.
 */

#ifndef OVERLAYSIM_CACHE_REPLACEMENT_HH
#define OVERLAYSIM_CACHE_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/set_kernel.hh"

namespace ovl
{

/** Which replacement policy a cache instantiates. */
enum class ReplPolicy
{
    LRU,
    Random,
    SRRIP,
    BRRIP,
    DRRIP,
};

/**
 * Policy template argument of the ReplacementEngine hooks that names no
 * policy: the hook reads the engine's own at run time. A cache whose
 * shape has no compile-time body (DESIGN.md §13.3) passes it.
 */
inline constexpr ReplPolicy kRuntimePolicy = static_cast<ReplPolicy>(-1);

/** Human-readable policy name (for config dumps). */
const char *replPolicyName(ReplPolicy policy);

// Per-line replacement metadata lives in the cache as one dense array
// per field — std::uint64_t LRU sequence numbers, std::uint8_t
// re-reference prediction values — and a cache allocates only the array
// its policy uses (usesLru/usesRrpv): the hooks below take both arrays
// plus a line index and touch only that one, so the other may be null.

/**
 * Policy engine shared by all sets of one cache. Stateless per access
 * except for the global LRU sequence counter, the BRRIP throttle and the
 * DRRIP set-dueling PSEL counter.
 */
class ReplacementEngine
{
  public:
    ReplacementEngine(ReplPolicy policy, unsigned num_sets,
                      std::uint64_t seed = 1);

    ReplPolicy policy() const { return policy_; }

    /** True if the policy reads and writes LRU sequence numbers. */
    bool usesLru() const { return policy_ == ReplPolicy::LRU; }

    /** True if the policy reads and writes RRIP prediction values. */
    bool
    usesRrpv() const
    {
        return policy_ == ReplPolicy::SRRIP ||
               policy_ == ReplPolicy::BRRIP || policy_ == ReplPolicy::DRRIP;
    }

    // The per-access hooks are defined inline so the cache's hot path
    // (access/fill/victim-choice on every simulated memory reference)
    // compiles into straight-line code instead of cross-TU calls. Each
    // takes the policy as a template argument P, which must be the
    // engine's own policy or kRuntimePolicy; a fixed P folds the hook's
    // switch away at compile time.

    /** Called when line @p i is hit. */
    template <ReplPolicy P = kRuntimePolicy>
    void
    onHit(std::uint64_t *lru_seqs, std::uint8_t *rrpvs, std::size_t i)
    {
        switch (resolve<P>()) {
          case ReplPolicy::LRU:
            lru_seqs[i] = ++lruCounter_;
            break;
          case ReplPolicy::Random:
            break;
          case ReplPolicy::SRRIP:
          case ReplPolicy::BRRIP:
          case ReplPolicy::DRRIP:
            // Hit promotion: predict near-immediate re-reference [27].
            rrpvs[i] = 0;
            break;
        }
    }

    /**
     * Called when line @p i is inserted. @p set_index selects DRRIP
     * leader sets; @p is_prefetch inserts prefetched lines with distant
     * RRPV so inaccurate prefetches do not pollute the LLC.
     */
    template <ReplPolicy P = kRuntimePolicy>
    void
    onInsert(std::uint64_t *lru_seqs, std::uint8_t *rrpvs, std::size_t i,
             unsigned set_index, bool is_prefetch)
    {
        switch (resolve<P>()) {
          case ReplPolicy::LRU:
            lru_seqs[i] = ++lruCounter_;
            break;
          case ReplPolicy::Random:
            break;
          case ReplPolicy::SRRIP:
            insertRrip(rrpvs[i], false);
            break;
          case ReplPolicy::BRRIP:
            insertRrip(rrpvs[i], true);
            break;
          case ReplPolicy::DRRIP:
            if (is_prefetch) {
                // Prefetches always insert with a distant prediction so
                // that useless prefetches are evicted first.
                rrpvs[i] = kMaxRrpv;
            } else if (isSrripLeader(set_index)) {
                insertRrip(rrpvs[i], false);
            } else if (isBrripLeader(set_index)) {
                insertRrip(rrpvs[i], true);
            } else {
                insertRrip(rrpvs[i], brripWinning());
            }
            break;
        }
    }

    /**
     * Choose a victim among the @p ways lines starting at line @p base,
     * a set of compile-time width W (0: @p ways); invalid lines must be
     * handled by the caller first. For RRIP policies this ages the set's
     * lines in place as the round-based aging loop would (rripVictim()).
     *
     * @return the way index of the victim.
     */
    template <unsigned W = 0, ReplPolicy P = kRuntimePolicy>
    unsigned
    selectVictim(const std::uint64_t *lru_seqs, std::uint8_t *rrpvs,
                 std::size_t base, unsigned ways)
    {
        switch (resolve<P>()) {
          case ReplPolicy::LRU:
            return lruVictim<W>(lru_seqs + base, ways);
          case ReplPolicy::Random:
            return unsigned(rng_.below(wayCount<W>(ways)));
          case ReplPolicy::SRRIP:
          case ReplPolicy::BRRIP:
          case ReplPolicy::DRRIP:
            return rripVictim<W>(rrpvs + base, ways);
        }
        return 0;
    }

    /**
     * DRRIP feedback: called on a miss in a leader set [27]; adjusts the
     * policy-selection counter.
     */
    template <ReplPolicy P = kRuntimePolicy>
    void
    onMiss(unsigned set_index)
    {
        if (resolve<P>() != ReplPolicy::DRRIP)
            return;
        // A miss in a leader set is a vote against that leader's policy.
        if (isSrripLeader(set_index)) {
            if (psel_ < pselMax_)
                ++psel_;
        } else if (isBrripLeader(set_index)) {
            if (psel_ > 0)
                --psel_;
        }
    }

    /** True if @p set_index is an SRRIP (resp. BRRIP) leader set. */
    bool
    isSrripLeader(unsigned set_index) const
    {
        // Simple static leader selection: sets 0, 32, 64, ... lead SRRIP.
        return (set_index % kLeaderSetStride) == 0;
    }

    bool
    isBrripLeader(unsigned set_index) const
    {
        // Sets 16, 48, 80, ... lead BRRIP.
        return (set_index % kLeaderSetStride) == kLeaderSetStride / 2;
    }

    /** The LRU sequence counter: the latest stamp handed out. */
    std::uint64_t lruCounter() const { return lruCounter_; }

    /** Current dynamic winner for DRRIP follower sets. */
    bool brripWinning() const { return psel_ > pselMax_ / 2; }

    /** Snapshot visitor over the LRU counter, throttle, PSEL and RNG. */
    template <class Self, class Ar>
    static void
    io(Self &self, Ar &ar)
    {
        ar.u64(self.lruCounter_);
        ar.u32(self.brripThrottle_);
        ar.u32(self.psel_);
        for (auto &word : self.rng_.rawState())
            ar.u64(word);
    }

  private:
    static constexpr unsigned kLeaderSetStride = 32;
    static constexpr unsigned kBrripEpsilonInverse = 32; // 1/32 near inserts

    /** The policy a hook instantiated with @p P runs. */
    template <ReplPolicy P>
    ReplPolicy
    resolve() const
    {
        return P == kRuntimePolicy ? policy_ : P;
    }

    void
    insertRrip(std::uint8_t &rrpv, bool long_rereference)
    {
        if (long_rereference) {
            // BRRIP: distant prediction (RRPV=3) except 1-in-32 inserts.
            if (++brripThrottle_ >= kBrripEpsilonInverse) {
                brripThrottle_ = 0;
                rrpv = kMaxRrpv - 1;
            } else {
                rrpv = kMaxRrpv;
            }
        } else {
            // SRRIP: long (but not distant) prediction.
            rrpv = kMaxRrpv - 1;
        }
    }

    ReplPolicy policy_;
    unsigned numSets_;
    std::uint64_t lruCounter_ = 0;
    unsigned brripThrottle_ = 0;
    unsigned psel_;
    unsigned pselMax_;
    Rng rng_;
};

} // namespace ovl

#endif // OVERLAYSIM_CACHE_REPLACEMENT_HH
