#include "profile.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <ostream>

namespace ovl::prof
{

const char *
zoneName(Zone zone)
{
    static const char *const kNames[kNumZones] = {
        "access",        "tlb_walk",  "cache_lookup", "miss_cascade",
        "omt_walk",      "oms_alloc", "ore_broadcast", "overlaying_write",
        "cow_fault",     "dram",      "snapshot_io",  "functional_ff",
        "fork",          "teardown",  "promote",      "tlb_maint",
    };
    std::size_t i = std::size_t(zone);
    return i < kNumZones ? kNames[i] : "root";
}

namespace detail
{

std::atomic<bool> gActive{false};

namespace
{

/** All registered per-thread states; guarded by gRegistryMutex. Entries
 *  are never freed, so trees of exited threads survive until collect().
 */
std::mutex gRegistryMutex;
std::vector<ThreadState *> &
registry()
{
    static std::vector<ThreadState *> threads;
    return threads;
}

/** Calibration stamps of the current window (set by enable()/reset). */
std::chrono::steady_clock::time_point gWindowStart;
std::uint64_t gWindowStartTsc = 0;

void
resetTreeLocked(ThreadState &state)
{
    state.arena.clear();
    state.root = Node{};
    state.current = &state.root;
}

void
stampWindowLocked()
{
    gWindowStart = std::chrono::steady_clock::now();
    gWindowStartTsc = tscNow();
}

} // namespace

ThreadState *
registerThread()
{
    auto *state = new ThreadState; // leaked by design; bounded by threads
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    registry().push_back(state);
    return state;
}

Node *
newChild(ThreadState &state, Node *parent, Zone zone)
{
    Node &node = state.arena.emplace_back();
    node.parent = parent;
    node.zone = zone;
    parent->children[std::size_t(zone)] = &node;
    return &node;
}

} // namespace detail

// Out of line on purpose: keeping the active path (TLS lookup, tree
// descent, TSC stamps) out of every call site is what holds the *idle*
// compiled-in overhead to one predicted branch (DESIGN.md §12.2).
void
ScopedTimer::enter(Zone zone)
{
    detail::ThreadState &state = detail::threadState();
    detail::Node *parent = state.current;
    detail::Node *node = parent->children[std::size_t(zone)];
    if (node == nullptr)
        node = detail::newChild(state, parent, zone);
    state.current = node;
    node_ = node;
    state_ = &state;
    start_ = detail::tscNow();
}

void
ScopedTimer::leave()
{
    std::uint64_t dt = detail::tscNow() - start_;
    node_->count += 1;
    node_->totalCycles += dt;
    if (dt > node_->maxCycles)
        node_->maxCycles = dt;
    state_->current = node_->parent;
}

void
enable()
{
    std::lock_guard<std::mutex> lock(detail::gRegistryMutex);
    for (detail::ThreadState *state : detail::registry())
        detail::resetTreeLocked(*state);
    detail::stampWindowLocked();
    detail::gActive.store(true, std::memory_order_release);
}

void
disable()
{
    detail::gActive.store(false, std::memory_order_release);
}

namespace
{

/** Merge accumulator: one path across all threads' trees. */
struct MergeNode
{
    Zone zone = Zone::NumZones;
    std::uint64_t count = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t maxCycles = 0;
    std::array<MergeNode *, kNumZones> children{};
};

void
mergeInto(MergeNode &dst, const detail::Node &src, std::deque<MergeNode> &pool)
{
    dst.count += src.count;
    dst.totalCycles += src.totalCycles;
    dst.maxCycles = std::max(dst.maxCycles, src.maxCycles);
    for (std::size_t z = 0; z < kNumZones; ++z) {
        const detail::Node *child = src.children[z];
        if (child == nullptr)
            continue;
        MergeNode *mchild = dst.children[z];
        if (mchild == nullptr) {
            mchild = &pool.emplace_back();
            mchild->zone = Zone(z);
            dst.children[z] = mchild;
        }
        mergeInto(*mchild, *child, pool);
    }
}

void
emitRows(const MergeNode &node, const std::string &path, unsigned depth,
         double secs_per_cycle, Report &report)
{
    std::uint64_t child_cycles = 0;
    for (const MergeNode *child : node.children) {
        if (child != nullptr)
            child_cycles += child->totalCycles;
    }
    if (node.zone != Zone::NumZones) {
        ZoneRow row;
        row.path = path;
        row.zone = node.zone;
        row.depth = depth;
        row.count = node.count;
        row.totalSeconds = double(node.totalCycles) * secs_per_cycle;
        row.selfSeconds = node.totalCycles >= child_cycles
                              ? double(node.totalCycles - child_cycles) *
                                    secs_per_cycle
                              : 0.0;
        row.maxSeconds = double(node.maxCycles) * secs_per_cycle;
        report.rows.push_back(std::move(row));
    }
    for (const MergeNode *child : node.children) {
        if (child == nullptr)
            continue;
        std::string child_path = path.empty()
                                     ? std::string(zoneName(child->zone))
                                     : path + ";" + zoneName(child->zone);
        emitRows(*child, child_path, depth + 1, secs_per_cycle, report);
    }
}

} // namespace

Report
collect(bool reset)
{
    std::lock_guard<std::mutex> lock(detail::gRegistryMutex);

    Report report;
    auto now = std::chrono::steady_clock::now();
    std::uint64_t tsc_now = detail::tscNow();
    report.wallSeconds =
        std::chrono::duration<double>(now - detail::gWindowStart).count();
    std::uint64_t tsc_delta = tsc_now - detail::gWindowStartTsc;
    report.cyclesPerSecond = report.wallSeconds > 0.0
                                 ? double(tsc_delta) / report.wallSeconds
                                 : 0.0;
    double secs_per_cycle = report.cyclesPerSecond > 0.0
                                ? 1.0 / report.cyclesPerSecond
                                : 0.0;

    std::deque<MergeNode> pool;
    MergeNode merged_root;
    for (const detail::ThreadState *state : detail::registry())
        mergeInto(merged_root, state->root, pool);

    for (const MergeNode *child : merged_root.children) {
        if (child != nullptr)
            report.attributedSeconds +=
                double(child->totalCycles) * secs_per_cycle;
    }
    emitRows(merged_root, std::string(), 0, secs_per_cycle, report);

    if (reset) {
        for (detail::ThreadState *state : detail::registry())
            detail::resetTreeLocked(*state);
        detail::stampWindowLocked();
    }
    return report;
}

void
writeJson(std::ostream &os, const Report &report)
{
    os << "{\n";
    os << "  \"wall_seconds\": " << report.wallSeconds << ",\n";
    os << "  \"attributed_seconds\": " << report.attributedSeconds << ",\n";
    os << "  \"attributed_fraction\": " << report.attributedFraction()
       << ",\n";
    os << "  \"cycles_per_second\": " << report.cyclesPerSecond << ",\n";
    os << "  \"zones\": [";
    bool first = true;
    for (const ZoneRow &row : report.rows) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"path\": \"" << row.path << "\", \"zone\": \""
           << zoneName(row.zone) << "\", \"depth\": " << row.depth
           << ", \"count\": " << row.count
           << ", \"total_seconds\": " << row.totalSeconds
           << ", \"self_seconds\": " << row.selfSeconds
           << ", \"max_seconds\": " << row.maxSeconds << "}";
    }
    os << (first ? "]\n" : "\n  ]\n");
    os << "}\n";
}

void
writeCollapsed(std::ostream &os, const Report &report,
               const std::string &prefix)
{
    // Unattributed window time becomes an explicit "(untracked)" frame
    // so the flamegraph's total width equals the wall window.
    double untracked = report.wallSeconds - report.attributedSeconds;
    auto usec = [](double s) {
        return std::uint64_t(std::llround(s * 1e6));
    };
    auto frame = [&](const std::string &path) {
        return prefix.empty() ? path : prefix + ";" + path;
    };
    for (const ZoneRow &row : report.rows) {
        std::uint64_t self_us = usec(row.selfSeconds);
        if (self_us == 0)
            continue;
        os << frame(row.path) << " " << self_us << "\n";
    }
    if (untracked > 0.0 && usec(untracked) > 0)
        os << frame("(untracked)") << " " << usec(untracked) << "\n";
}

} // namespace ovl::prof
