/**
 * @file
 * Technique 4 (§5.3.2): efficient memory checkpointing. Overlays capture
 * every update between two checkpoints; taking a checkpoint writes only
 * the overlays (the delta) to the backing store, then commits them into
 * the base pages and re-arms capture. The baseline it improves on backs
 * up every dirtied page wholesale.
 */

#ifndef OVERLAYSIM_TECH_CHECKPOINT_HH
#define OVERLAYSIM_TECH_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "system/system.hh"

namespace ovl
{

namespace tech
{

/** Measured cost of one checkpoint. */
struct CheckpointStats
{
    std::uint64_t dirtyPages = 0;    ///< pages with captured updates
    std::uint64_t dirtyLines = 0;    ///< lines captured in overlays
    std::uint64_t deltaBytes = 0;    ///< written by the overlay scheme
    std::uint64_t pageGranBytes = 0; ///< a page-granular scheme would write
    Tick latency = 0;
};

/**
 * Overlay-based incremental checkpointing of one process's address
 * range(s). Pages must be private (not CoW-shared with another process).
 */
class CheckpointManager
{
  public:
    CheckpointManager(System &system, Asid asid);

    /**
     * Put [vaddr, vaddr+len) into capture mode: subsequent writes go to
     * overlays. Must be called once per range before the first interval.
     */
    void addRange(Addr vaddr, std::uint64_t len);

    /**
     * Take a checkpoint at @p when: scan the ranges, write each
     * overlay's lines to the backing store (counted in deltaBytes and
     * charged as DRAM reads), commit the overlays, and re-arm capture.
     */
    CheckpointStats takeCheckpoint(Tick when);

    /**
     * Roll the ranges back to checkpoint @p index (0 = the state at
     * arm time, k = the state captured by the k-th takeCheckpoint).
     * Uncaptured updates AND any checkpoints newer than @p index are
     * discarded (history is linear; rolling back destroys the timeline
     * above the restore point). Returns completion time.
     */
    Tick restore(std::size_t index, Tick when);

    /** Total delta bytes across all checkpoints so far. */
    std::uint64_t totalDeltaBytes() const { return totalDeltaBytes_; }
    std::uint64_t checkpointsTaken() const { return checkpointsTaken_; }

    /** Bytes held in the (host-modeled) backing store. */
    std::uint64_t backingStoreBytes() const;

  private:
    struct Range
    {
        Addr vaddr;
        std::uint64_t len;
    };

    /** One captured delta: per page, the dirtied lines' contents. */
    struct Delta
    {
        /** (vpn, line) -> bytes at checkpoint time. */
        std::vector<std::tuple<Addr, unsigned, LineData>> lines;
    };

    void armPage(Addr vpn);
    void captureBaseImage();

    System &system_;
    Asid asid_;
    std::vector<Range> ranges_;
    /** Full image at arm time (checkpoint 0), page by page. */
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> baseImage_;
    std::vector<Delta> deltas_; ///< deltas_[k] belongs to checkpoint k+1
    std::uint64_t totalDeltaBytes_ = 0;
    std::uint64_t checkpointsTaken_ = 0;
};

} // namespace tech

} // namespace ovl

#endif // OVERLAYSIM_TECH_CHECKPOINT_HH
