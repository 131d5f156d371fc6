/**
 * @file
 * Tests for the observability layer: tick-domain stats sampling
 * (src/sim/stats_sampler.hh), Chrome trace-event output
 * (src/sim/trace.hh) and the sink session that owns both plus the
 * profile (src/sim/observe.hh). The contracts under test:
 *
 *  - interval-N sampling emits exactly floor(end_tick/N)+1 records at
 *    monotone boundary ticks 0, N, 2N, ...;
 *  - every emitted line is well-formed JSON (validated with a small
 *    recursive-descent checker, same grammar json.tool accepts);
 *  - a traced fork workload produces a parseable trace whose B/E spans
 *    balance per thread track;
 *  - instrumentation never moves simulated time;
 *  - the session rejects bad sink-flag combinations and gives every
 *    labelled run its own sampler stream and profile window.
 */

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/observe.hh"
#include "sim/stats.hh"
#include "sim/stats_sampler.hh"
#include "sim/trace.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

using namespace ovl;

namespace
{

/**
 * Minimal JSON well-formedness checker (objects, arrays, strings,
 * numbers, true/false/null). Returns true iff @p text is exactly one
 * valid JSON value plus trailing whitespace.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_; // skip the escaped character
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::char_traits<char>::length(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

bool
isValidJson(const std::string &text)
{
    return JsonChecker(text).valid();
}

/** Split a JSONL stream into its non-empty lines. */
std::vector<std::string>
jsonlLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** Extract the integer value following `"key":` in a JSON record
 *  (tolerates the sampler's `": "` and the trace writer's `":"`). */
long long
extractInt(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = line.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " not in: " << line;
    if (pos == std::string::npos)
        return -1;
    pos += needle.size();
    while (pos < line.size() && line[pos] == ' ')
        ++pos;
    return std::strtoll(line.c_str() + pos, nullptr, 10);
}

} // namespace

TEST(StatsSampler, RecordCountIsFloorEndOverNPlusOne)
{
    stats::Group group("g");
    stats::Counter counter(&group, "count", "");

    constexpr Tick kInterval = 100;
    constexpr Tick kEnd = 1034; // not a boundary on purpose
    std::ostringstream os;
    StatsSampler sampler(os, kInterval);
    sampler.addGroup("g", &group);
    sampler.begin(0);
    // Irregular observation points; the record grid must stay N-aligned.
    counter += 3;
    sampler.observe(7);
    counter += 10;
    sampler.observe(512);
    sampler.finish(kEnd);

    std::vector<std::string> lines = jsonlLines(os.str());
    ASSERT_EQ(lines.size(), std::size_t(kEnd / kInterval + 1));
    EXPECT_EQ(sampler.records(), lines.size());
    Tick expected = 0;
    for (const std::string &line : lines) {
        EXPECT_TRUE(isValidJson(line)) << line;
        EXPECT_EQ(extractInt(line, "tick"), (long long)expected);
        expected += kInterval;
    }
}

TEST(StatsSampler, DeltaModeReportsPerIntervalActivity)
{
    stats::Group group("g");
    stats::Counter counter(&group, "count", "");

    std::ostringstream os;
    StatsSampler sampler(os, 10, "run-a");
    sampler.addGroup("g", &group);
    sampler.begin(0);
    counter += 5;
    sampler.observe(10); // boundary 10 sees +5
    counter += 2;
    sampler.finish(30); // boundary 20 sees +2, boundary 30 sees +0

    std::vector<std::string> lines = jsonlLines(os.str());
    ASSERT_EQ(lines.size(), 4u);
    const long long expected[] = {0, 5, 2, 0};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(isValidJson(lines[i])) << lines[i];
        EXPECT_EQ(extractInt(lines[i], "g.count"), expected[i]) << i;
        EXPECT_NE(lines[i].find("\"run\": \"run-a\""), std::string::npos);
    }
}

TEST(StatsSampler, RebaseAfterResetKeepsDeltasNonNegative)
{
    stats::Group group("g");
    stats::Counter counter(&group, "count", "");

    std::ostringstream os;
    StatsSampler sampler(os, 10);
    sampler.addGroup("g", &group);
    sampler.begin(0);
    counter += 8;
    sampler.observe(10);
    // External reset (what System::resetStats does post-fork) followed
    // by rebase: the next interval must not report 3 - 8 = -5.
    group.resetStats();
    sampler.rebase();
    counter += 3;
    sampler.finish(20);

    std::vector<std::string> lines = jsonlLines(os.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(extractInt(lines[1], "g.count"), 8);
    EXPECT_EQ(extractInt(lines[2], "g.count"), 3);
}

TEST(StatsSampler, HistogramSamplesAsCountAndSum)
{
    stats::Group group("g");
    stats::Histogram hist(&group, "lat", "", 10, 4);
    hist.sample(15);
    hist.sample(7);

    std::ostringstream os;
    StatsSampler sampler(os, 5);
    sampler.addGroup("g", &group);
    sampler.begin(0);
    hist.sample(30);
    sampler.finish(5);

    // Both columns are monotonic, so the second record holds only the
    // interval's one sample.
    std::vector<std::string> lines = jsonlLines(os.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(extractInt(lines[0], "g.lat.samples"), 2);
    EXPECT_EQ(extractInt(lines[0], "g.lat.sum"), 22);
    EXPECT_EQ(extractInt(lines[1], "g.lat.samples"), 1);
    EXPECT_EQ(extractInt(lines[1], "g.lat.sum"), 30);
}

TEST(StatsSampler, SystemPumpSamplesWithoutMovingSimulatedTime)
{
    constexpr Addr kBase = 0x100000;
    constexpr unsigned kPages = 16;
    auto run = [&](StatsSampler *sampler) {
        System sys;
        Asid p = sys.createProcess();
        sys.mapAnon(p, kBase, kPages * kPageSize);
        sys.attachStatsSampler(sampler, 0);
        Tick t = 0;
        for (unsigned i = 0; i < 2000; ++i) {
            Addr va = kBase + (i % (kPages * kLinesPerPage)) * kLineSize;
            t = sys.access(p, va, i % 3 == 0, t);
        }
        sys.detachStatsSampler(t);
        return t;
    };

    Tick plain = run(nullptr);

    std::ostringstream os;
    StatsSampler sampler(os, 1000);
    Tick sampled = run(&sampler);

    // The sampler observed the run (records beyond the begin record)
    // and the simulated clock is bit-identical to the plain run.
    EXPECT_EQ(sampled, plain);
    EXPECT_EQ(sampler.records(), plain / 1000 + 1);
    for (const std::string &line : jsonlLines(os.str()))
        EXPECT_TRUE(isValidJson(line)) << line;
}

TEST(StatsJson, FullSystemDumpParsesIncludingEmptyHistograms)
{
    // A freshly built system has all-zero histograms; the dump must
    // still be one well-formed JSON document (empty bucket maps).
    System sys;
    std::ostringstream os;
    sys.dumpAllStatsJson(os);
    EXPECT_TRUE(isValidJson(os.str()));

    // And after some activity it still parses.
    Asid p = sys.createProcess();
    sys.mapAnon(p, 0x100000, 4 * kPageSize);
    Tick t = 0;
    for (unsigned i = 0; i < 64; ++i)
        t = sys.access(p, 0x100000 + i * kLineSize, i % 2 == 0, t);
    std::ostringstream os2;
    sys.dumpAllStatsJson(os2);
    EXPECT_TRUE(isValidJson(os2.str()));
}

namespace
{

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

TEST(Trace, ForkWorkloadTraceParsesWithBalancedSpans)
{
    std::string path = testing::TempDir() + "/ovl_fork_trace.json";

    ForkBenchParams params = forkBenchByName("mcf");
    params.warmupInstructions = 10'000;
    params.postForkInstructions = 50'000;
    params.footprintPages /= 16;
    params.hotPages /= 16;
    params.dirtyPages /= 16;

    {
        trace::Sink sink(path);
        trace::Sink::Bind bind(&sink);
        runForkBench(params, ForkMode::OverlayOnWrite, SystemConfig{});
        EXPECT_GT(sink.eventCount(), 0u);
    }

    std::string text = slurp(path);
    ASSERT_TRUE(isValidJson(text));

    // Walk the event lines: every B must be closed by an E on the same
    // tid (the writer emits one event per line).
    std::map<unsigned, long> open_spans;
    bool saw_complete = false, saw_instant = false, saw_span = false;
    bool saw_oms_alloc = false, saw_fork_mode = false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] != '{' || line == "{")
            continue;
        if (line.find("\"traceEvents\"") != std::string::npos)
            continue;
        long long tid = extractInt(line, "tid");
        if (line.find("\"ph\":\"B\"") != std::string::npos) {
            ++open_spans[unsigned(tid)];
            saw_span = true;
            if (line.find("\"name\":\"fork\"") != std::string::npos) {
                // ForkMode::OverlayOnWrite
                EXPECT_EQ(extractInt(line, "mode"), 1) << line;
                saw_fork_mode = true;
            }
        } else if (line.find("\"ph\":\"E\"") != std::string::npos) {
            ASSERT_GT(open_spans[unsigned(tid)], 0)
                << "E without B: " << line;
            --open_spans[unsigned(tid)];
        } else if (line.find("\"ph\":\"X\"") != std::string::npos) {
            saw_complete = true;
            EXPECT_NE(line.find("\"dur\":"), std::string::npos) << line;
        } else if (line.find("\"ph\":\"i\"") != std::string::npos) {
            saw_instant = true;
            if (line.find("\"name\":\"oms_alloc\"") != std::string::npos) {
                EXPECT_GT(extractInt(line, "bytes"), 0) << line;
                extractInt(line, "opn");
                saw_oms_alloc = true;
            }
        }
    }
    for (const auto &[tid, open] : open_spans)
        EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
    EXPECT_TRUE(saw_span);     // fork / CoW / overlaying-write spans
    EXPECT_TRUE(saw_complete); // DRAM / cache-miss / ORE spans
    (void)saw_instant;         // shootdowns are mode-dependent
    EXPECT_TRUE(saw_fork_mode); // the fork span says which mode forked
    EXPECT_TRUE(saw_oms_alloc); // first OMS segment of an overlay

    std::remove(path.c_str());
}

TEST(Trace, EventCapTruncatesAndRecordsTheDrop)
{
    std::string path = testing::TempDir() + "/ovl_capped_trace.json";
    {
        trace::Sink sink(path, 5);
        trace::Sink::Bind bind(&sink);
        for (unsigned i = 0; i < 12; ++i)
            trace::instant("test", "tick", i * 10);
        EXPECT_EQ(sink.eventCount(), 5u);
        EXPECT_EQ(sink.droppedCount(), 7u);
    }

    std::string text = slurp(path);
    EXPECT_TRUE(isValidJson(text));
    EXPECT_NE(text.find("trace_truncated"), std::string::npos);
    EXPECT_NE(text.find("\"dropped_events\":7"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, DisabledSinkIgnoresEvents)
{
    EXPECT_FALSE(trace::active());
    // Emission without a sink is a no-op, not a crash.
    trace::instant("test", "noop", 0);
    trace::begin("test", "noop", 0);
    trace::end("test", "noop", 1);
    trace::complete("test", "noop", 0, 1);
}

TEST(Trace, InstrumentationDoesNotMoveSimulatedTime)
{
    ForkBenchParams params = forkBenchByName("libq");
    params.warmupInstructions = 5'000;
    params.postForkInstructions = 20'000;
    params.footprintPages /= 16;
    params.hotPages /= 16;
    params.dirtyPages /= 16;

    ForkBenchResult plain =
        runForkBench(params, ForkMode::CopyOnWrite, SystemConfig{});

    std::string trace_path = testing::TempDir() + "/ovl_ab_trace.json";
    std::ostringstream samples;
    StatsSampler sampler(samples, 10'000, "libq/cow");
    ForkBenchResult traced;
    {
        trace::Sink sink(trace_path);
        trace::Sink::Bind bind(&sink);
        traced = runForkBench(params, ForkMode::CopyOnWrite, SystemConfig{},
                              nullptr, nullptr, &sampler);
    }
    std::remove(trace_path.c_str());

    EXPECT_EQ(traced.forkLatency, plain.forkLatency);
    EXPECT_DOUBLE_EQ(traced.cpi, plain.cpi);
    EXPECT_EQ(traced.cowFaults, plain.cowFaults);
    EXPECT_DOUBLE_EQ(traced.additionalMemoryMB, plain.additionalMemoryMB);
    EXPECT_GT(sampler.records(), 1u);
}

// ------------------------- observe::Session ----------------------------

namespace
{

/** Construct a session from @p args and report whether it was refused. */
bool
sessionRejects(std::vector<std::string> args)
{
    try {
        observe::Session session(args);
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

} // namespace

TEST(ObserveSession, StatsOutWithoutSampleIntervalIsRejected)
{
    std::string path = testing::TempDir() + "/ovl_unused.jsonl";
    EXPECT_TRUE(sessionRejects({"--stats-out", path}));
    EXPECT_TRUE(sessionRejects({"--sample-interval", "1000"}));
    EXPECT_TRUE(sessionRejects(
        {"--sample-interval", "0", "--stats-out", path}));
}

TEST(ObserveSession, ProfileCollapsedWithoutProfileOutIsRejected)
{
    EXPECT_TRUE(sessionRejects(
        {"--profile-collapsed", testing::TempDir() + "/ovl_unused.folded"}));
}

TEST(ObserveSession, TraceLimitNeedsTraceOutAndAPlainCount)
{
    std::string path = testing::TempDir() + "/ovl_unused_trace.json";
    EXPECT_TRUE(sessionRejects({"--trace-limit", "100"}));
    EXPECT_TRUE(sessionRejects({"--trace-out", path, "--trace-limit", "5k"}));
    EXPECT_TRUE(sessionRejects(
        {"--sample-interval", "1e6", "--stats-out", path}));
    EXPECT_FALSE(trace::active()); // nothing was opened
}

TEST(ObserveSession, TakesOnlyTheSinkFlags)
{
    std::vector<std::string> args = {"libq", "--mode", "oow"};
    observe::Session session(args);
    EXPECT_FALSE(session.anySink());
    EXPECT_EQ(args, (std::vector<std::string>{"libq", "--mode", "oow"}));
    session.finish();
}

TEST(ObserveSession, TwoLabelledRunsShareOneProfileAndOneSampleStream)
{
    std::string samples = testing::TempDir() + "/ovl_session.jsonl";
    std::string profile = testing::TempDir() + "/ovl_session_prof.json";
    std::string folded = testing::TempDir() + "/ovl_session.folded";
    std::vector<std::string> args = {
        "--sample-interval", "20000", "--stats-out", samples,
        "--profile-out", profile, "--profile-collapsed", folded, "libq"};

    ForkBenchParams params = forkBenchByName("libq");
    params.warmupInstructions = 5'000;
    params.postForkInstructions = 20'000;
    params.footprintPages /= 16;
    params.hotPages /= 16;
    params.dirtyPages /= 16;
    {
        observe::Session session(args);
        EXPECT_EQ(args, std::vector<std::string>{"libq"});
        EXPECT_TRUE(session.sampling() && session.profiling());
        EXPECT_FALSE(session.tracing());
        for (ForkMode mode :
             {ForkMode::CopyOnWrite, ForkMode::OverlayOnWrite}) {
            const char *label = mode == ForkMode::CopyOnWrite ? "libq/cow"
                                                              : "libq/oow";
            ForkBenchResult res =
                session.run(label, [&](StatsSampler *sampler) {
                    EXPECT_NE(sampler, nullptr);
                    return runForkBench(params, mode, SystemConfig{},
                                        nullptr, nullptr, sampler);
                });
            EXPECT_GT(res.cpi, 0.0);
        }
        session.finish();
    }

    std::string prof_text = slurp(profile);
    EXPECT_TRUE(isValidJson(prof_text));
    for (const char *key : {"\"_host\": ", "\"libq/cow\": ",
                            "\"libq/oow\": "}) {
        EXPECT_NE(prof_text.find(key), std::string::npos) << key;
    }
    EXPECT_LT(prof_text.find("\"_host\""), prof_text.find("\"libq/cow\""));
    EXPECT_LT(prof_text.find("\"libq/cow\""),
              prof_text.find("\"libq/oow\""));

    std::set<std::string> runs;
    for (const std::string &line : jsonlLines(slurp(samples))) {
        EXPECT_TRUE(isValidJson(line)) << line;
        std::string needle = "\"run\": \"";
        std::size_t pos = line.find(needle);
        ASSERT_NE(pos, std::string::npos) << line;
        pos += needle.size();
        runs.insert(line.substr(pos, line.find('"', pos) - pos));
    }
    EXPECT_EQ(runs, (std::set<std::string>{"libq/cow", "libq/oow"}));

    std::remove(samples.c_str());
    std::remove(profile.c_str());
    std::remove(folded.c_str());
}
