/**
 * @file
 * One observability session per tool invocation: the output sinks of
 * DESIGN.md §9 and §12 — Chrome trace, JSONL stats samples and
 * host-time profile — behind one set of flags and one lifecycle.
 *
 *     observe::Session session(args);     // takes the sink flags
 *     r = session.run("libq/oow", [&](StatsSampler *sampler) {
 *         return runForkBench(..., sampler, ...);
 *     });
 *     session.finish();                   // profile files, summaries
 *
 * Each labelled run gets its own StatsSampler (null unless sampling;
 * its records carry the label as "run") and its own profile window
 * (one key per label in the profile JSON), and runs with the session's
 * trace sink bound to the calling thread. The session owns its sample
 * stream and its trace sink; the profiler registry is process-global.
 * So a session is constructed, run and finished on one thread, the
 * main thread: its runs are serial. A parallelMap job that wants a
 * trace opens and binds its own trace::Sink instead.
 */

#ifndef OVERLAYSIM_SIM_OBSERVE_HH
#define OVERLAYSIM_SIM_OBSERVE_HH

#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/profile.hh"
#include "sim/stats_sampler.hh"
#include "sim/trace.hh"

namespace ovl::observe
{

/** The sink flags, for the callers' usage lines. */
inline constexpr const char *kUsage =
    "[--trace-out FILE [--trace-limit N]]"
    " [--sample-interval N --stats-out FILE]"
    " [--profile-out FILE [--profile-collapsed FILE]]";

class Session
{
  public:
    /**
     * Take the sink flags out of @p args, validate them together (a
     * bad value or combination throws std::invalid_argument before any
     * sink opens), then open the trace sink and the stats-sample file.
     */
    explicit Session(std::vector<std::string> &args);

    /** Closes whatever finish() did not (e.g. on an error path). */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool tracing() const { return !traceOut_.empty(); }
    bool sampling() const { return !statsOut_.empty(); }
    bool profiling() const { return !profileOut_.empty(); }
    bool anySink() const { return tracing() || sampling() || profiling(); }

    /** Run `fn(StatsSampler *)` as the run named @p label. */
    template <class Fn>
    auto
    run(const std::string &label, Fn &&fn)
    {
        std::unique_ptr<StatsSampler> sampler = beginRun(label);
        trace::Sink::Bind bind(trace_.get());
        auto result = fn(sampler.get());
        endRun(label);
        return result;
    }

    /**
     * Write the profile JSON (`_host`, then one key per run label) and
     * collapsed stacks, close the trace sink, and print one line per
     * sink.
     */
    void finish();

  private:
    std::unique_ptr<StatsSampler> beginRun(const std::string &label);
    void endRun(const std::string &label);

    std::string traceOut_;
    std::string statsOut_;
    std::string profileOut_;
    std::string profileCollapsed_;
    Tick sampleInterval_ = 0;
    std::ofstream statsOs_;
    std::unique_ptr<trace::Sink> trace_;
    std::vector<std::pair<std::string, prof::Report>> profiles_;
};

} // namespace ovl::observe

#endif // OVERLAYSIM_SIM_OBSERVE_HH
