/**
 * @file
 * Structured event tracing in the Chrome trace-event JSON format
 * (loadable in Perfetto / chrome://tracing). Timestamps are simulated
 * ticks rendered as microseconds; durations are tick counts.
 *
 * A trace file is a Sink, owned by the job that writes it and bound to
 * the thread that runs the job. Trace points are sprinkled through the
 * timing model (DRAM row activity, cache miss cascades, TLB walks, ORE
 * broadcasts, overlay create/promote) and all of them share the
 * `active()` gate, one thread-local load and compare per trace point, so
 * the access hot path is unaffected when no sink is bound (DESIGN.md
 * §9). Tools open a sink through an observe::Session (`sim/observe.hh`);
 * a parallelMap item that wants a trace opens and binds its own.
 *
 *     trace::Sink sink("run.json");
 *     trace::Sink::Bind bind(&sink);
 *     ...
 *     if (trace::active())
 *         trace::complete("dram", "row_hit", start, dur, {{"bank", b}});
 *
 * Thread-safety: a sink is written only by the threads it is bound to,
 * one at a time; jobs on different threads use different sinks and
 * share nothing. Every event carries `"pid":0,"tid":1`, so a job's trace
 * file does not depend on which thread ran it.
 */

#ifndef OVERLAYSIM_SIM_TRACE_HH
#define OVERLAYSIM_SIM_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "common/types.hh"

namespace ovl::trace
{

class Sink;

namespace detail
{
/** The sink bound to this thread; null when none is. */
extern constinit thread_local Sink *tBound;
} // namespace detail

/** One `"key": value` pair in an event's args object. */
struct Arg
{
    const char *key;
    std::uint64_t value;
};

/** True while a sink is bound to this thread. The trace-point guard. */
inline bool
active()
{
    return detail::tBound != nullptr;
}

/** One open trace file. */
class Sink
{
  public:
    /**
     * Open @p path and write the JSON header. At most @p max_events
     * events are recorded (0 = unlimited); once the cap is hit, further
     * events are dropped and counted, and the destructor appends a
     * `trace_truncated` instant carrying the dropped count. Dropping can
     * leave tail spans unbalanced — Perfetto auto-closes them.
     */
    explicit Sink(const std::string &path, std::uint64_t max_events = 0);

    /** Write the truncation marker (if any) and the footer; close. */
    ~Sink();

    Sink(const Sink &) = delete;
    Sink &operator=(const Sink &) = delete;

    /** Points the constructing thread at a sink (null: at none) for the
     *  binding's lifetime, then restores the previous binding. */
    class Bind
    {
      public:
        explicit Bind(Sink *sink) : previous_(detail::tBound)
        {
            detail::tBound = sink;
        }
        ~Bind() { detail::tBound = previous_; }

        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        Sink *previous_;
    };

    /** Events recorded so far. */
    std::uint64_t eventCount() const { return eventCount_; }

    /** Events dropped by the max_events cap. */
    std::uint64_t droppedCount() const { return dropped_; }

    /**
     * Record one event, or count it as dropped past the cap. @p dur < 0
     * means "no dur field" (non-"X" phases). The trace points reach it
     * through the free functions below.
     */
    void record(char phase, const char *cat, const char *name, Tick ts,
                std::int64_t dur, std::initializer_list<Arg> args);

  private:
    std::FILE *file_;
    bool firstEvent_ = true;
    std::uint64_t maxEvents_;
    std::uint64_t eventCount_ = 0;
    std::uint64_t dropped_ = 0;
};

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
