/**
 * @file
 * Structured event tracing in the Chrome trace-event JSON format
 * (loadable in Perfetto / chrome://tracing). Timestamps are simulated
 * ticks rendered as microseconds; durations are tick counts.
 *
 * The sink is process-global: trace points are sprinkled through the
 * timing model (DRAM row activity, cache miss cascades, TLB walks, ORE
 * broadcasts, overlay create/promote) and all of them share the single
 * `active()` gate. Disabled tracing therefore costs exactly one inlined
 * boolean check per trace point, so the access hot path is unaffected
 * when no sink is open (DESIGN.md §9). Tools open it through an
 * observe::Session (`sim/observe.hh`), not directly.
 *
 *     if (trace::active())
 *         trace::complete("dram", "row_hit", start, dur, {{"bank", b}});
 *
 * Thread-safety: start()/stop() must be called with no worker threads
 * running (DESIGN.md §8). While a sink is open,
 * emission from multiple threads is serialized by an internal mutex and
 * each thread gets its own "tid", so spans from concurrent sweep items
 * land on separate tracks instead of interleaving.
 */

#ifndef OVERLAYSIM_SIM_TRACE_HH
#define OVERLAYSIM_SIM_TRACE_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/types.hh"

namespace ovl::trace
{

namespace detail
{
extern std::atomic<bool> gActive;
} // namespace detail

/** One `"key": value` pair in an event's args object. */
struct Arg
{
    const char *key;
    std::uint64_t value;
};

/** True while a sink is open. The one-branch trace-point guard. */
inline bool
active()
{
    return detail::gActive.load(std::memory_order_acquire);
}

/**
 * Open a trace sink at @p path and start accepting events. At most
 * @p max_events events are recorded (0 = unlimited); once the cap is
 * hit, further events are dropped and counted, and stop() appends a
 * `trace_truncated` instant carrying the dropped count. Dropping can
 * leave tail spans unbalanced — Perfetto auto-closes them.
 */
void start(const std::string &path, std::uint64_t max_events = 0);

/** Close the sink: write the JSON footer and stop accepting events. */
void stop();

/** Events recorded so far (tests; 0 when no sink was ever opened). */
std::uint64_t eventCount();

/** Events dropped by the max_events cap since start(). */
std::uint64_t droppedCount();

/** Instant event ("ph":"i"): a point in time. */
void instant(const char *cat, const char *name, Tick ts,
             std::initializer_list<Arg> args = {});

/** Open a duration span ("ph":"B"). Must be closed by end() in LIFO
 *  order on the same thread. */
void begin(const char *cat, const char *name, Tick ts,
           std::initializer_list<Arg> args = {});

/** Close the innermost open span ("ph":"E"). */
void end(const char *cat, const char *name, Tick ts);

/** Complete event ("ph":"X"): a span emitted as one record. */
void complete(const char *cat, const char *name, Tick ts, Tick dur,
              std::initializer_list<Arg> args = {});

} // namespace ovl::trace

#endif // OVERLAYSIM_SIM_TRACE_HH
