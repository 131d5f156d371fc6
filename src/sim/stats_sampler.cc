#include "stats_sampler.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace ovl
{

namespace
{

/** Escape the few JSON-hostile characters a stat path could contain. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * Print a sample value. Counter-derived values are whole numbers and
 * must not be rounded through ostream's default 6-significant-digit
 * formatting; true fractions get enough digits to round-trip.
 */
void
writeJsonNumber(std::ostream &os, double v)
{
    constexpr double kExactInt = 9007199254740992.0; // 2^53
    if (v == std::floor(v) && std::fabs(v) < kExactInt) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", (long long)v);
        os << buf;
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    }
}

} // namespace

StatsSampler::StatsSampler(std::ostream &out, Tick interval,
                           std::string label)
    : out_(out), interval_(interval), label_(std::move(label))
{
    ovl_assert(interval_ > 0, "sample interval must be positive");
}

void
StatsSampler::addGroup(const std::string &path, const stats::Group *group)
{
    ovl_assert(!begun_, "addGroup after begin() would change the schema");
    ovl_assert(group != nullptr, "sampling a null stats group");
    groups_.emplace_back(path, group);
}

void
StatsSampler::begin(Tick now)
{
    ovl_assert(!begun_, "sampler begun twice");
    begun_ = true;

    for (const auto &[path, group] : groups_) {
        for (const stats::Info *info : group->infos()) {
            info->eachScalar([&](const char *suffix, double, bool monotonic) {
                columns_.push_back(Column{
                    jsonEscape(path + "." + info->name() + suffix),
                    monotonic});
            });
        }
    }
    prev_.assign(columns_.size(), 0.0);
    scratch_.resize(columns_.size());

    nextDue_ = now; // the boundary grid starts at the begin tick
    emitRecord(now);
    nextDue_ = now + interval_;
}

Tick
StatsSampler::observe(Tick t)
{
    ovl_assert(begun_, "observe before begin()");
    while (nextDue_ <= t) {
        emitRecord(nextDue_);
        nextDue_ += interval_;
    }
    return nextDue_;
}

void
StatsSampler::finish(Tick end)
{
    observe(end);
    out_.flush();
}

void
StatsSampler::rebase()
{
    if (!begun_)
        return;
    snapshot(prev_);
}

void
StatsSampler::snapshot(std::vector<double> &into) const
{
    std::size_t i = 0;
    for (const auto &[path, group] : groups_) {
        for (const stats::Info *info : group->infos()) {
            info->eachScalar([&](const char *, double value, bool) {
                ovl_assert(i < into.size(),
                           "stat emitted more scalars than at begin()");
                into[i++] = value;
            });
        }
    }
    ovl_assert(i == into.size(), "stat emitted fewer scalars than at begin()");
}

void
StatsSampler::emitRecord(Tick tick)
{
    snapshot(scratch_);

    out_ << "{\"tick\": " << tick;
    if (!label_.empty())
        out_ << ", \"run\": \"" << jsonEscape(label_) << "\"";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        double v = scratch_[i];
        if (columns_[i].monotonic) {
            double delta = v - prev_[i];
            prev_[i] = v;
            v = delta;
        }
        out_ << ", \"" << columns_[i].name << "\": ";
        writeJsonNumber(out_, v);
    }
    out_ << "}\n";
    ++records_;
}

} // namespace ovl
