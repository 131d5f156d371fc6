#include "trace.hh"

#include <cstdio>
#include <mutex>

#include "common/logging.hh"

namespace ovl::trace
{

namespace detail
{
std::atomic<bool> gActive{false};
} // namespace detail

namespace
{

std::mutex gMutex;
std::FILE *gFile = nullptr;
bool gFirstEvent = true;
std::uint64_t gMaxEvents = 0;
std::uint64_t gEventCount = 0;
std::uint64_t gDropped = 0;

/** Small per-thread track id so concurrent sweep items don't interleave. */
std::atomic<unsigned> gNextTid{0};

unsigned
threadTid()
{
    thread_local unsigned tid = gNextTid.fetch_add(1) + 1;
    return tid;
}

/**
 * Write one event record. Caller holds gMutex and has already applied
 * the cap. @p dur < 0 means "no dur field" (non-"X" phases).
 */
void
writeEvent(char phase, const char *cat, const char *name, Tick ts,
           std::int64_t dur, std::initializer_list<Arg> args)
{
    std::fprintf(gFile, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                        "\"ts\":%llu",
                 gFirstEvent ? "\n" : ",\n", name, cat, phase,
                 (unsigned long long)ts);
    if (dur >= 0)
        std::fprintf(gFile, ",\"dur\":%llu", (unsigned long long)dur);
    std::fprintf(gFile, ",\"pid\":0,\"tid\":%u", threadTid());
    if (args.size() > 0) {
        std::fprintf(gFile, ",\"args\":{");
        bool first = true;
        for (const Arg &arg : args) {
            std::fprintf(gFile, "%s\"%s\":%llu", first ? "" : ",", arg.key,
                         (unsigned long long)arg.value);
            first = false;
        }
        std::fputc('}', gFile);
    }
    std::fputc('}', gFile);
    gFirstEvent = false;
    ++gEventCount;
}

/** Shared emit path: gate, cap, write. */
void
emit(char phase, const char *cat, const char *name, Tick ts,
     std::int64_t dur, std::initializer_list<Arg> args)
{
    std::lock_guard<std::mutex> lock(gMutex);
    if (gFile == nullptr)
        return; // raced with stop()
    if (gMaxEvents != 0 && gEventCount >= gMaxEvents) {
        ++gDropped;
        return;
    }
    writeEvent(phase, cat, name, ts, dur, args);
}

} // namespace

void
start(const std::string &path, std::uint64_t max_events)
{
    std::lock_guard<std::mutex> lock(gMutex);
    ovl_assert(gFile == nullptr, "trace sink already open");
    gFile = std::fopen(path.c_str(), "w");
    if (gFile == nullptr)
        ovl_fatal("cannot open trace file %s", path.c_str());
    std::fprintf(gFile, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    gFirstEvent = true;
    gMaxEvents = max_events;
    gEventCount = 0;
    gDropped = 0;
    detail::gActive.store(true, std::memory_order_release);
}

void
stop()
{
    std::lock_guard<std::mutex> lock(gMutex);
    if (gFile == nullptr)
        return;
    detail::gActive.store(false, std::memory_order_release);
    if (gDropped > 0) {
        // Record the truncation inside the trace itself (doesn't count
        // against the cap — the cap already fired).
        writeEvent('i', "trace", "trace_truncated", 0, -1,
                   {{"dropped_events", gDropped}});
        --gEventCount; // keep eventCount() = recorded model events
    }
    std::fprintf(gFile, "\n]}\n");
    std::fclose(gFile);
    gFile = nullptr;
}

std::uint64_t
eventCount()
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gEventCount;
}

std::uint64_t
droppedCount()
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gDropped;
}

void
instant(const char *cat, const char *name, Tick ts,
        std::initializer_list<Arg> args)
{
    emit('i', cat, name, ts, -1, args);
}

void
begin(const char *cat, const char *name, Tick ts,
      std::initializer_list<Arg> args)
{
    emit('B', cat, name, ts, -1, args);
}

void
end(const char *cat, const char *name, Tick ts)
{
    emit('E', cat, name, ts, -1, {});
}

void
complete(const char *cat, const char *name, Tick ts, Tick dur,
         std::initializer_list<Arg> args)
{
    emit('X', cat, name, ts, std::int64_t(dur), args);
}

} // namespace ovl::trace
