#include "stats.hh"

#include <iomanip>
#include <limits>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl::stats
{

Info::Info(Group *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    ovl_assert(parent != nullptr, "stat created without a parent group");
    parent->registerInfo(this);
}

void
Counter::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << value_
       << "  # " << desc() << "\n";
}

void
Gauge::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << value_
       << "  # " << desc() << "\n";
}

Histogram::Histogram(Group *parent, std::string name, std::string desc,
                     std::uint64_t bucket_width, unsigned num_buckets)
    : Info(parent, std::move(name), std::move(desc)),
      bucketWidth_(bucket_width), buckets_(num_buckets, 0)
{
    ovl_assert(bucket_width > 0, "histogram bucket width must be positive");
    ovl_assert(num_buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(std::uint64_t value)
{
    std::uint64_t idx = value / bucketWidth_;
    if (idx < buckets_.size())
        ++buckets_[idx];
    else
        ++overflow_;
    ++samples_;
    sum_ += value;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name() + ".samples")
       << std::right << std::setw(16) << samples_
       << "  # " << desc() << "\n";
    if (samples_ == 0)
        return;
    os << std::left << std::setw(44) << (prefix + name() + ".mean")
       << std::right << std::setw(16) << std::fixed << std::setprecision(2)
       << mean() << "\n";
    os << std::left << std::setw(44) << (prefix + name() + ".min")
       << std::right << std::setw(16) << min_ << "\n";
    os << std::left << std::setw(44) << (prefix + name() + ".max")
       << std::right << std::setw(16) << max_ << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        os << std::left << std::setw(44)
           << (prefix + name() + ".bucket" + std::to_string(i * bucketWidth_))
           << std::right << std::setw(16) << buckets_[i] << "\n";
    }
    if (overflow_ > 0) {
        os << std::left << std::setw(44) << (prefix + name() + ".overflow")
           << std::right << std::setw(16) << overflow_ << "\n";
    }
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    samples_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

void
Formula::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << std::fixed << std::setprecision(4)
       << value() << "  # " << desc() << "\n";
}

void
Counter::dumpJsonValue(std::ostream &os) const
{
    os << value_;
}

void
Gauge::dumpJsonValue(std::ostream &os) const
{
    os << value_;
}

void
Histogram::dumpJsonValue(std::ostream &os) const
{
    os << "{\"samples\": " << samples_;
    if (samples_ > 0) {
        os << ", \"mean\": " << mean() << ", \"min\": " << min_
           << ", \"max\": " << max_;
    }
    // Always emit the bucket map so every histogram value has the same
    // shape; zero samples yields {"samples": 0, "buckets": {}}.
    os << ", \"buckets\": {";
    bool first = true;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << i * bucketWidth_ << "\": " << buckets_[i];
    }
    os << "}";
    if (overflow_ > 0)
        os << ", \"overflow\": " << overflow_;
    os << "}";
}

void
Formula::dumpJsonValue(std::ostream &os) const
{
    double v = value();
    // JSON has no NaN/Inf; clamp non-finite values to null.
    if (v != v || v == std::numeric_limits<double>::infinity() ||
        v == -std::numeric_limits<double>::infinity()) {
        os << "null";
        return;
    }
    os << v;
}

void
Counter::eachScalar(const ScalarVisitor &fn) const
{
    fn("", double(value_), true);
}

void
Gauge::eachScalar(const ScalarVisitor &fn) const
{
    fn("", double(value_), false);
}

void
Histogram::eachScalar(const ScalarVisitor &fn) const
{
    // Sample count and sum are enough to reconstruct per-interval rates
    // and means; per-bucket time series would bloat every record.
    fn(".samples", double(samples_), true);
    fn(".sum", double(sum_), true);
}

void
Formula::eachScalar(const ScalarVisitor &fn) const
{
    double v = value();
    // Keep records JSON-clean: non-finite derived values sample as 0.
    if (v != v || v == std::numeric_limits<double>::infinity() ||
        v == -std::numeric_limits<double>::infinity())
        v = 0.0;
    fn("", v, false);
}

void
Group::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const Info *info : infos_) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << info->name() << "\": ";
        info->dumpJsonValue(os);
    }
    os << "}";
}

void
Group::dump(std::ostream &os) const
{
    std::string prefix = name_.empty() ? "" : name_ + ".";
    for (const Info *info : infos_)
        info->dump(os, prefix);
}

void
Group::resetStats()
{
    for (Info *info : infos_)
        info->reset();
}

// --------------------------- serialization -----------------------------

template <class Self, class Ar>
void
Counter::io(Self &self, Ar &ar)
{
    ar.u64(self.value_);
}

template <class Self, class Ar>
void
Gauge::io(Self &self, Ar &ar)
{
    ar.i64(self.value_);
}

template <class Self, class Ar>
void
Histogram::io(Self &self, Ar &ar)
{
    // Geometry (bucket width/count) is construction-time configuration,
    // not state: only the populated values travel.
    ar.expectEq(self.buckets_.size(),
                "histogram '" + self.name() + "' bucket count");
    for (auto &bucket : self.buckets_)
        ar.u64(bucket);
    ar.u64(self.overflow_);
    ar.u64(self.samples_);
    ar.u64(self.sum_);
    ar.u64(self.min_);
    ar.u64(self.max_);
}

template <class Self, class Ar>
void
Group::io(Self &self, Ar &ar)
{
    ar.expectEq(self.infos_.size(),
                "stats group '" + self.name_ + "' stat count");
    for (Info *info : self.infos_)
        info->valueIo(ar);
}

OVL_SNAPSHOT_IO(Counter);
OVL_SNAPSHOT_IO(Gauge);
OVL_SNAPSHOT_IO(Histogram);
OVL_SNAPSHOT_IO(Group);

} // namespace ovl::stats
