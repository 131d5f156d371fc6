#include "observe.hh"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/hostinfo.hh"

namespace ovl::observe
{

namespace
{

std::ofstream
openOrDie(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        ovl_fatal("cannot open %s for writing", path.c_str());
    return os;
}

} // namespace

Session::Session(std::vector<std::string> &args)
{
    auto text = [&](const char *flag) {
        return cli::takeFlag(args, flag).value_or("");
    };
    traceOut_ = text("--trace-out");
    std::optional<std::uint64_t> trace_limit =
        cli::takeCount(args, "--trace-limit");
    statsOut_ = text("--stats-out");
    std::optional<std::uint64_t> interval =
        cli::takeCount(args, "--sample-interval");
    profileOut_ = text("--profile-out");
    profileCollapsed_ = text("--profile-collapsed");

    if (trace_limit && !tracing())
        throw std::invalid_argument("--trace-limit requires --trace-out");
    if (sampling() != (interval.value_or(0) > 0)) {
        throw std::invalid_argument("--sample-interval N (N > 0) and"
                                    " --stats-out go together");
    }
    if (!profileCollapsed_.empty() && !profiling()) {
        throw std::invalid_argument(
            "--profile-collapsed requires --profile-out");
    }

    sampleInterval_ = interval.value_or(0);
    if (sampling())
        statsOs_ = openOrDie(statsOut_);
    if (tracing())
        trace_ = std::make_unique<trace::Sink>(traceOut_,
                                               trace_limit.value_or(0));
    if (profiling() && !hostInfo().profileCompiled) {
        std::fprintf(stderr,
                     "warn: profiler not compiled in (configure with "
                     "-DOVL_PROFILE=ON); profile will be empty\n");
    }
}

Session::~Session()
{
    if (profiling())
        prof::disable();
}

std::unique_ptr<StatsSampler>
Session::beginRun(const std::string &label)
{
    if (profiling())
        prof::enable();
    if (!sampling())
        return nullptr;
    return std::make_unique<StatsSampler>(statsOs_, sampleInterval_, label);
}

void
Session::endRun(const std::string &label)
{
    if (!profiling())
        return;
    profiles_.emplace_back(label, prof::collect());
    prof::disable();
}

void
Session::finish()
{
    if (profiling()) {
        std::ofstream pf = openOrDie(profileOut_);
        pf << "{\n\"_host\": " << hostInfoJson();
        for (const auto &[label, report] : profiles_) {
            pf << ",\n\"" << jsonEscape(label) << "\": ";
            prof::writeJson(pf, report);
        }
        pf << "}\n";
        std::printf("profile written to %s\n", profileOut_.c_str());
    }
    if (!profileCollapsed_.empty()) {
        std::ofstream cf = openOrDie(profileCollapsed_);
        for (const auto &[label, report] : profiles_)
            prof::writeCollapsed(cf, report, label);
        std::printf("collapsed stacks written to %s\n",
                    profileCollapsed_.c_str());
    }
    if (sampling()) {
        statsOs_.flush();
        std::printf("stats samples written to %s\n", statsOut_.c_str());
    }
    if (trace_) {
        std::uint64_t events = trace_->eventCount();
        std::uint64_t dropped = trace_->droppedCount();
        trace_.reset();
        std::printf("trace written to %s (%llu events, %llu dropped at"
                    " --trace-limit)\n",
                    traceOut_.c_str(), (unsigned long long)events,
                    (unsigned long long)dropped);
    }
}

} // namespace ovl::observe
