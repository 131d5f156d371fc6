/**
 * @file
 * Parallel sweep runner: fan N independent config→result closures across
 * a fixed pool of worker threads and return the results in input order.
 *
 * The evaluation sweeps (the 15-benchmark fork suite, the 87-matrix
 * L-sweep, the ablation grids) are embarrassingly parallel per data
 * point: each point is a fully self-contained `System` with its own
 * page tables, stats Groups, DRAM and caches, and its simulated timing is
 * deterministic per instance (DESIGN.md §7). parallelMap exploits that:
 * workers share *nothing* but the read-only inputs, results land in a
 * pre-sized vector slot per item, and the caller renders output only
 * after the map returns — so a bench's stdout and JSON are byte-identical
 * to the serial run regardless of the job count.
 *
 * Thread-safety boundary (DESIGN.md §8): everything reachable from a
 * `System` is per-instance. The only process-global state the simulator
 * touches is the trace sink (`sim/trace.hh`: emission is mutex-serialized)
 * and the profiler registry (`sim/profile.hh`: threads register under a
 * mutex, timers are thread-local); lazily-built suite singletons (e.g.
 * forkBenchSuite()) use function-local statics, whose initialization
 * C++11 already serializes. Callers must not open or close the trace
 * sink, or enable or disable the profiler, inside worker closures.
 */

#ifndef OVERLAYSIM_SIM_PARALLEL_HH
#define OVERLAYSIM_SIM_PARALLEL_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ovl
{

/** Worker count of the host: hardware_concurrency, at least 1. */
unsigned hardwareJobs();

/**
 * Take the sweep benches' shared flags out of @p args: `--jobs N`, a
 * strict decimal from 1 to UINT_MAX (absent: hardwareJobs()), and
 * `--progress`, which turns progress on (see setProgressEnabled). A
 * malformed `--jobs` value throws std::invalid_argument naming it.
 */
unsigned takeJobs(std::vector<std::string> &args);

/**
 * The command line of a sweep bench whose only flags are `--jobs N` and
 * `--progress` (see takeJobs). Anything else — an unknown argument or a
 * malformed value — prints one diagnostic and exits with status 1.
 */
unsigned jobsFromCommandLine(int argc, char **argv);

/**
 * Whether parallelMap emits per-item progress lines: off unless a
 * bench's `--progress` flag (or setProgressEnabled) turns it on.
 * Progress goes to stderr only — a sweep's stdout stays byte-identical
 * at every job count, with or without progress.
 */
bool progressEnabled();
void setProgressEnabled(bool enabled);

/**
 * Thread-safe "[k/n] <label> done (wall Xs)" reporting for long sweeps.
 * Each itemDone() prints one line to stderr; k counts completions in
 * wall-clock order (not input order), so the lines show real progress
 * even when items finish out of order.
 */
class ProgressReporter
{
  public:
    using LabelFn = std::function<std::string(std::size_t)>;

    ProgressReporter(std::size_t total, LabelFn label);

    /** Report item @p index complete. Callable from any worker thread. */
    void itemDone(std::size_t index);

    /**
     * Per-worker telemetry summary, printed when a worker's drain loop
     * ends: items picked, host time busy inside closures, and idle time
     * (queue-wait for the first item plus the tail wait while other
     * workers finish items this one couldn't pick). One stderr line per
     * worker, emitted only on the threaded path with progress enabled.
     */
    void workerDone(std::size_t worker, std::size_t workers,
                    std::uint64_t items, double busy_seconds,
                    double idle_seconds);

  private:
    std::size_t total_;
    LabelFn label_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    std::size_t done_ = 0;
};

/**
 * Run `fn(0) .. fn(num_items - 1)` on a fixed pool of @p jobs worker
 * threads and return the results in input order. `fn` must be callable
 * from any thread with `std::size_t` and return a default-constructible,
 * movable value; closures must not touch shared mutable state (give each
 * item its own System/Rng). With `jobs <= 1` (or a single item) the
 * calls run inline on the calling thread, in index order — exactly the
 * serial behaviour.
 *
 * Items are handed out through a shared atomic cursor, so slow items
 * don't leave workers idle behind a static partition. If any closure
 * throws, every item still completes (or fails) and the exception of the
 * lowest-index failed item is rethrown on the calling thread.
 *
 * @p progress_label (optional) names item i for progress reporting;
 * when provided and progressEnabled(), each completion prints one
 * "[k/n] <label> done (wall Xs)" line to stderr (never stdout).
 */
template <typename Fn>
auto
parallelMap(std::size_t num_items, Fn &&fn, unsigned jobs,
            ProgressReporter::LabelFn progress_label = {})
    -> std::vector<decltype(fn(std::size_t(0)))>
{
    using Result = decltype(fn(std::size_t(0)));
    std::vector<Result> results(num_items);
    if (num_items == 0)
        return results;

    std::unique_ptr<ProgressReporter> progress;
    if (progress_label && progressEnabled()) {
        progress = std::make_unique<ProgressReporter>(
            num_items, std::move(progress_label));
    }

    std::size_t workers = jobs > 1 ? std::min<std::size_t>(jobs, num_items)
                                   : 1;
    if (workers <= 1) {
        for (std::size_t i = 0; i < num_items; ++i) {
            results[i] = fn(i);
            if (progress)
                progress->itemDone(i);
        }
        return results;
    }

    std::atomic<std::size_t> cursor{0};
    std::vector<std::exception_ptr> errors(num_items);
    auto drain = [&](std::size_t worker) {
        using clock = std::chrono::steady_clock;
        // Telemetry clocks tick only when a reporter is listening, so a
        // plain (progress-off) sweep runs the exact pre-telemetry loop.
        clock::time_point wall_start;
        double busy = 0.0;
        std::uint64_t picked = 0;
        if (progress)
            wall_start = clock::now();
        for (;;) {
            std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_items)
                break;
            clock::time_point item_start;
            if (progress) {
                ++picked;
                item_start = clock::now();
            }
            try {
                results[i] = fn(i);
                if (progress)
                    progress->itemDone(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            if (progress) {
                busy += std::chrono::duration<double>(clock::now() -
                                                      item_start)
                            .count();
            }
        }
        if (progress) {
            double wall = std::chrono::duration<double>(clock::now() -
                                                        wall_start)
                              .count();
            progress->workerDone(worker, workers, picked, busy,
                                 wall > busy ? wall - busy : 0.0);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w)
        pool.emplace_back(drain, w);
    drain(0); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();

    for (std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace ovl

#endif // OVERLAYSIM_SIM_PARALLEL_HH
