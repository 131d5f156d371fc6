#include "parallel.hh"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/cli.hh"

namespace ovl
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

unsigned
takeJobs(std::vector<std::string> &args)
{
    if (cli::takeSwitch(args, "--progress"))
        setProgressEnabled(true);
    std::optional<unsigned> jobs = cli::takePositiveCount(args, "--jobs");
    return jobs ? *jobs : hardwareJobs();
}

unsigned
jobsFromCommandLine(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        unsigned jobs = takeJobs(args);
        if (args.empty())
            return jobs;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(1);
    }
    std::fprintf(stderr, "usage: %s [--jobs N] [--progress]\n", argv[0]);
    std::exit(1);
}

namespace
{

std::atomic<bool> gProgress{false};

} // namespace

bool
progressEnabled()
{
    return gProgress.load(std::memory_order_relaxed);
}

void
setProgressEnabled(bool enabled)
{
    gProgress.store(enabled, std::memory_order_relaxed);
}

ProgressReporter::ProgressReporter(std::size_t total, LabelFn label)
    : total_(total), label_(std::move(label)),
      start_(std::chrono::steady_clock::now())
{
}

void
ProgressReporter::itemDone(std::size_t index)
{
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    std::string label = label_ ? label_(index) : std::to_string(index);
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    // One atomic fprintf per line so lines from concurrent workers never
    // interleave mid-line.
    std::fprintf(stderr, "[%zu/%zu] %s done (wall %.1fs)\n", done_, total_,
                 label.c_str(), wall);
}

void
ProgressReporter::workerDone(std::size_t worker, std::size_t workers,
                             std::uint64_t items, double busy_seconds,
                             double idle_seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr,
                 "[worker %zu/%zu] %llu item%s, busy %.1fs, idle %.1fs\n",
                 worker + 1, workers, (unsigned long long)items,
                 items == 1 ? "" : "s", busy_seconds, idle_seconds);
}

} // namespace ovl
