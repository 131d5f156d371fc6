/**
 * @file
 * The chunk directory shared by the two radix-shaped tables the
 * simulator walks on its hot paths: a process's page table (keyed by
 * vpn >> 9) and the Overlay Mapping Table (keyed by opn >> 9). Both
 * store 512-entry leaf chunks in a directory sorted by chunk id, behind
 * a one-entry MRU cache.
 */

#ifndef OVERLAYSIM_COMMON_CHUNK_DIRECTORY_HH
#define OVERLAYSIM_COMMON_CHUNK_DIRECTORY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ovl
{

/**
 * A sorted directory of heap-allocated @p Node chunks keyed by a 64-bit
 * chunk id. Nodes never move once inserted, so the MRU cache and any
 * caller-held node pointer survive later inserts. Iteration is in
 * ascending id order, which the fork, teardown and snapshot paths rely
 * on for determinism.
 */
template <class Node>
class ChunkDirectory
{
  public:
    struct Entry
    {
        std::uint64_t id;
        std::unique_ptr<Node> node;
    };

    /**
     * Node of chunk @p id, or nullptr. After an MRU miss the directory
     * is indexed directly: ids ascend strictly, so entry i holds an id
     * of at least front + i, with equality throughout when the directory
     * has no gaps (one contiguous footprint, the common case). A
     * matching slot is a constant-time hit; only a gapped directory
     * falls back to a binary search, over the entries below the slot.
     */
    Node *
    find(std::uint64_t id) const
    {
        if (id == cachedId_)
            return cachedNode_;
        if (dir_.empty())
            return nullptr;
        // Wraps to a huge slot when id < front: out of range.
        std::uint64_t slot = id - dir_.front().id;
        const Entry *e = nullptr;
        if (slot < dir_.size() && dir_[slot].id == id) {
            e = &dir_[slot];
        } else if (dir_.back().id - dir_.front().id + 1 != dir_.size()) {
            auto below = std::min<std::uint64_t>(slot, dir_.size());
            auto last = dir_.begin() + std::ptrdiff_t(below);
            auto it = std::lower_bound(dir_.begin(), last, id, idLess);
            if (it != last && it->id == id)
                e = &*it;
        }
        if (e == nullptr)
            return nullptr;
        cachedId_ = id;
        cachedNode_ = e->node.get();
        return cachedNode_;
    }

    /** Node of chunk @p id, inserting a value-initialized one if absent. */
    Node &
    findOrInsert(std::uint64_t id)
    {
        if (Node *node = find(id))
            return *node;
        // Chunk creation is rare (once per populated 512-entry window);
        // the sorted insert is off the hot path.
        auto it = std::lower_bound(dir_.begin(), dir_.end(), id, idLess);
        it = dir_.insert(it, Entry{id, std::make_unique<Node>()});
        cachedId_ = id;
        cachedNode_ = it->node.get();
        return *cachedNode_;
    }

    /** Remove chunk @p id if present, freeing its node. */
    void
    erase(std::uint64_t id)
    {
        auto it = std::lower_bound(dir_.begin(), dir_.end(), id, idLess);
        if (it != dir_.end() && it->id == id)
            dir_.erase(it);
        if (id == cachedId_) {
            cachedId_ = kNoId;
            cachedNode_ = nullptr;
        }
    }

    std::size_t size() const { return dir_.size(); }
    const Entry &operator[](std::size_t i) const { return dir_[i]; }
    auto begin() const { return dir_.begin(); }
    auto end() const { return dir_.end(); }

    /** Host bytes of the directory array and its nodes. */
    std::uint64_t
    hostBytes() const
    {
        return dir_.capacity() * sizeof(Entry) + dir_.size() * sizeof(Node);
    }

    /**
     * Snapshot visitor: the chunk count (u64), then per chunk in
     * ascending order its id (u64) and what @p fn(id, node) visits.
     * Loading rebuilds the directory from scratch and rejects ids that
     * do not strictly ascend; @p min_node_bytes bounds the count.
     */
    template <class Self, class Ar, class Fn>
    static void
    io(Self &self, Ar &ar, std::uint64_t min_node_bytes,
       const std::string &what, Fn &&fn)
    {
        std::uint64_t n = self.dir_.size();
        ar.count(n, 8 + min_node_bytes);
        if constexpr (Ar::kLoading) {
            self.dir_.clear();
            self.dir_.reserve(std::size_t(n));
            self.cachedId_ = kNoId;
            self.cachedNode_ = nullptr;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t id = 0;
                ar.u64(id);
                if (!self.dir_.empty() && id <= self.dir_.back().id)
                    ar.fail(what + " directory not strictly ascending");
                self.dir_.push_back(Entry{id, std::make_unique<Node>()});
                fn(id, *self.dir_.back().node);
            }
        } else {
            for (const Entry &e : self.dir_) {
                ar.u64(e.id);
                fn(e.id, std::as_const(*e.node));
            }
        }
    }

  private:
    static constexpr std::uint64_t kNoId = ~std::uint64_t(0);

    static bool
    idLess(const Entry &e, std::uint64_t id)
    {
        return e.id < id;
    }

    std::vector<Entry> dir_; ///< sorted by id
    mutable std::uint64_t cachedId_ = kNoId;
    mutable Node *cachedNode_ = nullptr;
};

} // namespace ovl

#endif // OVERLAYSIM_COMMON_CHUNK_DIRECTORY_HH
