#include "parallel.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>


namespace ovl
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

unsigned
defaultJobs()
{
    const char *env = std::getenv("OVL_JOBS");
    if (env != nullptr && *env != '\0') {
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (end != nullptr && *end == '\0' && v >= 1)
            return unsigned(v);
        std::fprintf(stderr, "warn: ignoring invalid OVL_JOBS='%s'\n", env);
    }
    return hardwareJobs();
}

unsigned
jobsFromCommandLine(int argc, char **argv)
{
    unsigned jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const char *value = nullptr;
        if (std::strcmp(argv[i], "--progress") == 0) {
            setProgressEnabled(true);
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            value = argv[++i];
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            value = argv[i] + 7;
        } else {
            std::fprintf(stderr, "usage: %s [--jobs N] [--progress]\n",
                         argv[0]);
            std::exit(1);
        }
        char *end = nullptr;
        unsigned long v = std::strtoul(value, &end, 10);
        if (end == nullptr || *end != '\0' || v < 1) {
            std::fprintf(stderr, "%s: invalid --jobs value '%s'\n", argv[0],
                         value);
            std::exit(1);
        }
        jobs = unsigned(v);
    }
    return jobs;
}

namespace
{

bool
progressDefault()
{
    const char *env = std::getenv("OVL_PROGRESS");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

/** -1 = unset (fall back to OVL_PROGRESS), else 0/1. */
std::atomic<int> gProgress{-1};

} // namespace

bool
progressEnabled()
{
    int v = gProgress.load(std::memory_order_relaxed);
    if (v < 0)
        return progressDefault();
    return v != 0;
}

void
setProgressEnabled(bool enabled)
{
    gProgress.store(enabled ? 1 : 0, std::memory_order_relaxed);
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
