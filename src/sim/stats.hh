/**
 * @file
 * A small gem5-flavoured statistics package: scalar counters, gauges and
 * distribution histograms, grouped per SimObject and dumpable as text.
 */

#ifndef OVERLAYSIM_SIM_STATS_HH
#define OVERLAYSIM_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace ovl::snapshot
{
class Writer;
class Reader;
} // namespace ovl::snapshot

namespace ovl::stats
{

class Group;

/**
 * Visitor used by the tick-domain sampler to flatten a stat into one or
 * more scalar time-series points: @p suffix is appended to the stat name
 * ("" for scalars, ".samples"/".sum" for histograms), @p monotonic marks
 * values that only grow (eligible for per-interval deltas).
 */
using ScalarVisitor =
    std::function<void(const char *suffix, double value, bool monotonic)>;

/** Base class for anything registered in a stats Group. */
class Info
{
  public:
    Info(Group *parent, std::string name, std::string desc);
    virtual ~Info() = default;

    Info(const Info &) = delete;
    Info &operator=(const Info &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print one or more `name value # desc` lines. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Print the stat's JSON value (number or object), no key. */
    virtual void dumpJsonValue(std::ostream &os) const = 0;

    /** Flatten into scalar samples (see ScalarVisitor). The number and
     *  order of emitted scalars must not change over the stat's life. */
    virtual void eachScalar(const ScalarVisitor &fn) const = 0;

    /** Reset to the zero state (counters to 0, histograms emptied). */
    virtual void reset() = 0;

    /**
     * Save (resp. restore) the stat's value, not its identity, through
     * the derived class's io visitor (DESIGN.md §11.1).
     */
    virtual void valueIo(snapshot::Writer &w) const = 0;
    virtual void valueIo(snapshot::Reader &r) = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonically increasing scalar statistic. */
class Counter : public Info
{
  public:
    Counter(Group *parent, std::string name, std::string desc)
        : Info(parent, std::move(name), std::move(desc))
    {
    }

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }

    std::uint64_t value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;
    void eachScalar(const ScalarVisitor &fn) const override;
    void reset() override { value_ = 0; }
    void valueIo(snapshot::Writer &w) const override { io(*this, w); }
    void valueIo(snapshot::Reader &r) override { io(*this, r); }

  private:
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

    std::uint64_t value_ = 0;
};

/** Scalar statistic that can move in either direction (e.g., occupancy). */
class Gauge : public Info
{
  public:
    Gauge(Group *parent, std::string name, std::string desc)
        : Info(parent, std::move(name), std::move(desc))
    {
    }

    Gauge &operator+=(std::int64_t v) { value_ += v; return *this; }
    Gauge &operator-=(std::int64_t v) { value_ -= v; return *this; }
    void set(std::int64_t v) { value_ = v; }

    std::int64_t value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;
    void eachScalar(const ScalarVisitor &fn) const override;
    void reset() override { value_ = 0; }
    void valueIo(snapshot::Writer &w) const override { io(*this, w); }
    void valueIo(snapshot::Reader &r) override { io(*this, r); }

  private:
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

    std::int64_t value_ = 0;
};

/**
 * Linear-bucket histogram over [0, max) with an overflow bucket; tracks
 * sample count, sum, min and max so means are exact even when bucketing
 * is coarse.
 */
class Histogram : public Info
{
  public:
    Histogram(Group *parent, std::string name, std::string desc,
              std::uint64_t bucket_width, unsigned num_buckets);

    void sample(std::uint64_t value);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const { return samples_ ? double(sum_) / double(samples_) : 0.0; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;
    void eachScalar(const ScalarVisitor &fn) const override;
    void reset() override;
    void valueIo(snapshot::Writer &w) const override { io(*this, w); }
    void valueIo(snapshot::Reader &r) override { io(*this, r); }

  private:
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * A named group of statistics. SimObject owns one; techniques and
 * experiment harnesses may create free-standing groups.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return name_; }

    void registerInfo(Info *info) { infos_.push_back(info); }

    /** Registered stats, in registration order (used by the sampler). */
    const std::vector<Info *> &infos() const { return infos_; }

    /** Dump every registered stat as `group.stat value # desc`. */
    void dump(std::ostream &os) const;

    /** Dump as one JSON object: {"stat": value, ...}. */
    void dumpJson(std::ostream &os) const;

    /** Reset every registered stat. */
    void resetStats();

    /**
     * Snapshot visitor over every registered stat's value, in
     * registration order. Restoring requires an identically structured
     * group (same stats, same order) — guaranteed when both sides are the
     * same SimObject type built from the same configuration.
     */
    template <class Self, class Ar> static void io(Self &self, Ar &ar);

  private:
    std::string name_;
    std::vector<Info *> infos_;
};

} // namespace ovl::stats

#endif // OVERLAYSIM_SIM_STATS_HH
