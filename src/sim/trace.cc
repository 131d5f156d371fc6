#include "trace.hh"

#include "common/logging.hh"

namespace ovl::trace
{

namespace detail
{
constinit thread_local Sink *tBound = nullptr;
} // namespace detail

Sink::Sink(const std::string &path, std::uint64_t max_events)
    : file_(std::fopen(path.c_str(), "w")), maxEvents_(max_events)
{
    if (file_ == nullptr)
        ovl_fatal("cannot open trace file %s", path.c_str());
    std::fprintf(file_, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
}

Sink::~Sink()
{
    // Record the truncation inside the trace itself, past the cap that
    // caused it.
    if (dropped_ > 0) {
        maxEvents_ = 0;
        record('i', "trace", "trace_truncated", 0, -1,
               {{"dropped_events", dropped_}});
    }
    std::fprintf(file_, "\n]}\n");
    std::fclose(file_);
}

void
Sink::record(char phase, const char *cat, const char *name, Tick ts,
             std::int64_t dur, std::initializer_list<Arg> args)
{
    if (maxEvents_ != 0 && eventCount_ >= maxEvents_) {
        ++dropped_;
        return;
    }
    std::fprintf(file_, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                        "\"ts\":%llu",
                 firstEvent_ ? "\n" : ",\n", name, cat, phase,
                 (unsigned long long)ts);
    if (dur >= 0)
        std::fprintf(file_, ",\"dur\":%llu", (unsigned long long)dur);
    std::fprintf(file_, ",\"pid\":0,\"tid\":1");
    if (args.size() > 0) {
        std::fprintf(file_, ",\"args\":{");
        bool first = true;
        for (const Arg &arg : args) {
            std::fprintf(file_, "%s\"%s\":%llu", first ? "" : ",", arg.key,
                         (unsigned long long)arg.value);
            first = false;
        }
        std::fputc('}', file_);
    }
    std::fputc('}', file_);
    firstEvent_ = false;
    ++eventCount_;
}

namespace
{

/** Shared emit path of the trace points: the bound sink, if any. */
void
emit(char phase, const char *cat, const char *name, Tick ts,
     std::int64_t dur, std::initializer_list<Arg> args)
{
    if (Sink *sink = detail::tBound)
        sink->record(phase, cat, name, ts, dur, args);
}

} // namespace

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
