/**
 * @file
 * The snapshot/clone subsystem (DESIGN.md §11): clone() identity,
 * serialized-byte determinism, warm-start execution equivalence,
 * checkpoint/restore golden twins over the whole fork suite, a pin of
 * the byte format, component-level restore validation, and a fuzz pass
 * proving malformed snapshot files fail with SnapshotError rather than
 * undefined behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "sim/snapshot.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;

std::string
statsText(System &sys)
{
    std::ostringstream os;
    sys.dumpAllStats(os);
    return os.str();
}

/** A machine mid-fork_cow: warmed, forked, CoW faults in flight. */
struct Scenario
{
    System sys;
    Asid parent;
    Tick t = 0;

    explicit Scenario(ForkMode mode = ForkMode::CopyOnWrite)
        : sys((SystemConfig())), parent(sys.createProcess())
    {
        sys.mapAnon(parent, kBase, 64 * kPageSize);
        for (unsigned p = 0; p < 64; ++p)
            t = sys.access(parent, kBase + p * kPageSize, true, t);
        Tick done = t;
        sys.fork(parent, mode, t, &done);
        t = done;
        // Dirty a few pages so CoW state, MRU caches and the DRAM
        // controller all hold non-trivial state at snapshot time.
        for (unsigned p = 0; p < 8; ++p)
            t = sys.access(parent, kBase + p * kPageSize + 64, true, t);
    }

    /** The post-snapshot op stream both twins must replay identically. */
    Tick
    drive(System &s, Tick when)
    {
        for (unsigned p = 0; p < 32; ++p) {
            when = s.access(parent, kBase + p * kPageSize + 128, true,
                            when);
            when = s.access(parent, kBase + ((p * 7) % 64) * kPageSize,
                            false, when);
        }
        s.caches().flushAll(when);
        return when;
    }
};

TEST(Clone, IsIndistinguishableFromTheOriginal)
{
    Scenario sc;
    std::unique_ptr<System> copy = sc.sys.clone();

    // Identical at the moment of the clone...
    EXPECT_EQ(statsText(sc.sys), statsText(*copy));

    // ...and identical after both replay the same op stream: every
    // access returns the same tick and every stat lands on the same
    // value, i.e. the clone is the original for simulation purposes.
    Tick end_orig = sc.drive(sc.sys, sc.t);
    Tick end_copy = sc.drive(*copy, sc.t);
    EXPECT_EQ(end_orig, end_copy);
    EXPECT_EQ(statsText(sc.sys), statsText(*copy));
}

TEST(Clone, DoesNotPerturbTheOriginal)
{
    Scenario twin_a;
    Scenario twin_b;
    std::unique_ptr<System> copy = twin_a.sys.clone();
    // Serialization observes without mutating: a machine that was
    // cloned behaves byte-identically to one that never was.
    Tick end_a = twin_a.drive(twin_a.sys, twin_a.t);
    Tick end_b = twin_b.drive(twin_b.sys, twin_b.t);
    EXPECT_EQ(end_a, end_b);
    EXPECT_EQ(statsText(twin_a.sys), statsText(twin_b.sys));
}

TEST(Clone, SerializedBytesAreDeterministic)
{
    Scenario sc;
    snapshot::Writer w1;
    sc.sys.serialize(w1);

    std::unique_ptr<System> copy = sc.sys.clone();
    snapshot::Writer w2;
    copy->serialize(w2);

    // serialize -> deserialize -> serialize is the identity on bytes.
    EXPECT_EQ(w1.buffer(), w2.buffer());
}

// ----- warm-start execution ---------------------------------------------

ForkBenchParams
smallParams(const char *name)
{
    ForkBenchParams p = forkBenchByName(name);
    p.warmupInstructions = 40'000;
    p.postForkInstructions = 100'000;
    return p;
}

void
expectSameResult(const ForkBenchResult &a, const ForkBenchResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.additionalMemoryMB, b.additionalMemoryMB);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.cowFaults, b.cowFaults);
    EXPECT_EQ(a.overlayingWrites, b.overlayingWrites);
    EXPECT_EQ(a.forkLatency, b.forkLatency);
}

TEST(WarmStart, MatchesColdRunsAcrossPatternsAndModes)
{
    // One benchmark per WritePattern (libq: Windowed, lbm: Streaming,
    // cactus: Clustered); both fork modes fan out from ONE warm state.
    for (const char *name : {"libq", "lbm", "cactus"}) {
        ForkBenchParams p = smallParams(name);
        ForkBenchWarmState warm =
            prepareForkBenchWarmState(p, SystemConfig{});
        for (ForkMode mode :
             {ForkMode::CopyOnWrite, ForkMode::OverlayOnWrite}) {
            SCOPED_TRACE(std::string(name) +
                         (mode == ForkMode::CopyOnWrite ? "/cow"
                                                        : "/oow"));
            ForkBenchResult cold =
                runForkBench(p, mode, SystemConfig{});
            ForkBenchResult from_warm =
                runForkBenchFromWarmState(warm, mode);
            expectSameResult(cold, from_warm);
        }
    }
}

TEST(WarmStart, PolicyConfigOverrideMatchesColdRun)
{
    // The promotion threshold is a policy field: a warm state captured
    // under the default config replays exactly under an override.
    ForkBenchParams p = smallParams("lbm");
    ForkBenchWarmState warm =
        prepareForkBenchWarmState(p, SystemConfig{});
    SystemConfig cfg;
    cfg.promoteThresholdLines = 16;
    ForkBenchResult cold =
        runForkBench(p, ForkMode::OverlayOnWrite, cfg);
    ForkBenchResult from_warm = runForkBenchFromWarmState(
        warm, ForkMode::OverlayOnWrite, &cfg);
    expectSameResult(cold, from_warm);
}

TEST(WarmStart, StructuralConfigOverrideThrows)
{
    ForkBenchParams p = smallParams("libq");
    ForkBenchWarmState warm =
        prepareForkBenchWarmState(p, SystemConfig{});
    SystemConfig cfg;
    cfg.memCapacityBytes = 2ull << 30; // structural: resizes phys memory
    EXPECT_THROW(runForkBenchFromWarmState(warm, ForkMode::CopyOnWrite,
                                           &cfg),
                 snapshot::SnapshotError);
}

// ----- checkpoint / restore ---------------------------------------------

TEST(CheckpointRestore, GoldenTwinsAcrossTheWholeSuite)
{
    // Every suite benchmark, both modes: a run checkpointed
    // periodically must (a) return the uninterrupted result (the
    // checkpoints observe without perturbing) and (b) resume from its
    // last checkpoint to the identical result.
    const std::string path = ::testing::TempDir() + "ovl_suite.ckpt";
    for (const ForkBenchParams &suite_params : forkBenchSuite()) {
        ForkBenchParams p = suite_params;
        p.warmupInstructions = 40'000;
        p.postForkInstructions = 100'000;
        for (ForkMode mode :
             {ForkMode::CopyOnWrite, ForkMode::OverlayOnWrite}) {
            SCOPED_TRACE(p.name +
                         (mode == ForkMode::CopyOnWrite ? "/cow"
                                                        : "/oow"));
            ForkBenchResult twin =
                runForkBench(p, mode, SystemConfig{});

            ForkBenchCheckpointOptions ckpt;
            ckpt.path = path;
            ckpt.everyTicks = 50'000;
            std::optional<ForkBenchResult> full =
                runForkBenchCheckpointed(p, mode, SystemConfig{}, ckpt)
                    .result;
            ASSERT_TRUE(full.has_value());
            expectSameResult(twin, *full);

            ForkBenchResult resumed = resumeForkBenchCheckpoint(path);
            expectSameResult(twin, resumed);
        }
    }
}

TEST(CheckpointRestore, OneShotStopsAndResumesToTheSameResult)
{
    ForkBenchParams p = smallParams("libq");
    ForkBenchResult twin =
        runForkBench(p, ForkMode::CopyOnWrite, SystemConfig{});

    const std::string path = ::testing::TempDir() + "ovl_oneshot.ckpt";
    ForkBenchCheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.atTick = twin.forkLatency + 60'000; // mid-measurement-phase
    ForkBenchCheckpointedRun stopped =
        runForkBenchCheckpointed(p, ForkMode::CopyOnWrite,
                                 SystemConfig{}, ckpt);
    EXPECT_FALSE(stopped.result.has_value());
    EXPECT_EQ(stopped.checkpointsWritten, 1u);
    expectSameResult(twin, resumeForkBenchCheckpoint(path));
}

TEST(CheckpointRestore, PeriodicRunCountsTheCheckpointsItWrote)
{
    ForkBenchParams p = smallParams("libq");
    ForkBenchResult twin =
        runForkBench(p, ForkMode::OverlayOnWrite, SystemConfig{});

    // A period longer than the whole run never elapses: no checkpoint,
    // no file, and the run still completes unperturbed.
    const std::string never = ::testing::TempDir() + "ovl_never.ckpt";
    std::remove(never.c_str());
    ForkBenchCheckpointOptions ckpt;
    ckpt.path = never;
    ckpt.everyTicks = 100'000'000'000;
    ForkBenchCheckpointedRun run = runForkBenchCheckpointed(
        p, ForkMode::OverlayOnWrite, SystemConfig{}, ckpt);
    EXPECT_EQ(run.checkpointsWritten, 0u);
    ASSERT_TRUE(run.result.has_value());
    expectSameResult(twin, *run.result);
    EXPECT_FALSE(std::ifstream(never).good());

    // A short period writes at least one, and the last one resumes to
    // the uninterrupted result.
    const std::string path = ::testing::TempDir() + "ovl_periodic.ckpt";
    ckpt.path = path;
    ckpt.everyTicks = 50'000;
    run = runForkBenchCheckpointed(p, ForkMode::OverlayOnWrite,
                                   SystemConfig{}, ckpt);
    EXPECT_GE(run.checkpointsWritten, 1u);
    ASSERT_TRUE(run.result.has_value());
    expectSameResult(twin, *run.result);
    expectSameResult(twin, resumeForkBenchCheckpoint(path));
}

// ----- malformed-input hardening ----------------------------------------

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/**
 * A small but real checkpoint file to mangle, at TempDir()/@p name.
 * ctest runs each test in its own process, concurrently, so every test
 * passes its own name: a shared file could be read mid-rewrite.
 */
std::string
makeCheckpointFile(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    ForkBenchParams p = forkBenchByName("libq");
    p.warmupInstructions = 20'000;
    p.postForkInstructions = 40'000;
    ForkBenchCheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.atTick = 1; // first post-fork op boundary
    ForkBenchCheckpointedRun r = runForkBenchCheckpointed(
        p, ForkMode::OverlayOnWrite, SystemConfig{}, ckpt);
    EXPECT_FALSE(r.result.has_value());
    return path;
}

// ----- primitives ---------------------------------------------------------

TEST(SnapshotPrimitives, VarintsRoundTripAtEveryLength)
{
    // Both sides of every byte-length boundary, 1 to 10 bytes.
    std::vector<std::uint64_t> values = {0, ~std::uint64_t(0)};
    for (unsigned bits = 7; bits < 64; bits += 7) {
        values.push_back((std::uint64_t(1) << bits) - 1);
        values.push_back(std::uint64_t(1) << bits);
    }
    snapshot::Writer w;
    w.varints(values.size(), [&](std::size_t i) { return values[i]; });
    for (std::uint64_t v : values)
        w.varint(v);
    std::size_t expected = 0;
    for (std::uint64_t v : values)
        expected += std::max<std::size_t>(1, (std::bit_width(v) + 6) / 7);
    EXPECT_EQ(w.buffer().size(), 2 * expected);

    // The second pass reaches the end of the buffer, so its last values
    // take the byte-checked decode.
    snapshot::Reader r(w.buffer());
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::uint64_t> got(values.size());
        r.varints(got.size(), got.data());
        EXPECT_EQ(got, values);
    }
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotPrimitives, TruncatedVarintsAreRejected)
{
    // Every proper prefix of four 10-byte varints lacks some of them,
    // whether it ends mid-value (the byte-checked decode) or not.
    snapshot::Writer w;
    for (int i = 0; i < 4; ++i)
        w.varint(~std::uint64_t(0) - std::uint64_t(i));
    const std::vector<std::uint8_t> &full = w.buffer();
    ASSERT_EQ(full.size(), 4 * snapshot::kMaxVarintBytes);
    for (std::size_t len = 0; len < full.size(); ++len) {
        snapshot::Reader r(full.data(), len);
        std::uint64_t got[4];
        EXPECT_THROW(r.varints(4, got),
                     snapshot::SnapshotError)
            << "prefix " << len;
    }
}

TEST(SnapshotPrimitives, OverLongVarintsAreRejected)
{
    const std::vector<std::vector<std::uint8_t>> bad = {
        {0x80, 0x00},                         // zero padded to 2 bytes
        {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // bit 64 set in byte 10
         0xFF, 0xFF, 0xFF, 0x02},
        {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // 11 bytes
         0xFF, 0xFF, 0xFF, 0xFF, 0x01},
    };
    for (const std::vector<std::uint8_t> &bytes : bad) {
        // Alone (byte-checked decode) and followed by room for the
        // unchecked one.
        for (std::size_t pad : {std::size_t(0), std::size_t(16)}) {
            std::vector<std::uint8_t> buf = bytes;
            buf.resize(buf.size() + pad, 0);
            snapshot::Reader r(buf);
            std::uint64_t got = 0;
            EXPECT_THROW(r.varints(1, &got),
                         snapshot::SnapshotError)
                << bytes.size() << " bytes, " << pad << " after";
        }
    }
    // The longest minimal encoding, 2^63, is accepted.
    const std::vector<std::uint8_t> top = {0x80, 0x80, 0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x01};
    snapshot::Reader r(top);
    std::uint64_t v = 0;
    r.varints(1, &v);
    EXPECT_EQ(v, std::uint64_t(1) << 63);
}

TEST(SnapshotPrimitives, PackedArraysRoundTripAtEveryWidth)
{
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        for (std::size_t n : {std::size_t(0), std::size_t(1),
                              std::size_t(7), std::size_t(33)}) {
            SCOPED_TRACE(std::to_string(width) + " bits x " +
                         std::to_string(n));
            auto field = [&](std::size_t i) {
                return unsigned((i * 37 + 5) & ((1u << width) - 1));
            };
            snapshot::Writer w;
            w.packed(n, width, field);
            EXPECT_EQ(w.buffer().size(), (n * width + 7) / 8);
            snapshot::Reader r(w.buffer());
            r.packed(n, width, [&](std::size_t i, std::uint8_t v) {
                EXPECT_EQ(v, field(i)) << "field " << i;
            });
            EXPECT_TRUE(r.atEnd());
        }
    }
    EXPECT_THROW(snapshot::Writer().packed(1, 3, [](std::size_t) {
        return 0u;
    }),
                 std::invalid_argument);
}

// ----- format pin ---------------------------------------------------------

/** 64-bit FNV-1a over a byte buffer. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(SnapshotFormat, BytesArePinned)
{
    // The serialized layout is an on-disk format (kFormatVersion 5):
    // any change to the byte stream, however innocent, must bump the
    // version instead of silently moving these sizes and hashes.
    EXPECT_EQ(snapshot::kFormatVersion, 5u);
    for (auto [mode, size, hash] :
         {std::tuple{ForkMode::CopyOnWrite, 84298ull,
                     17109222459605348020ull},
          std::tuple{ForkMode::OverlayOnWrite, 47066ull,
                     3773361720156171292ull}}) {
        Scenario sc(mode);
        snapshot::Writer w;
        sc.sys.serialize(w);
        EXPECT_EQ(w.buffer().size(), size);
        EXPECT_EQ(fnv1a(w.buffer()), hash);
    }

    ForkBenchParams p = forkBenchByName("libq");
    p.warmupInstructions = 20'000;
    p.postForkInstructions = 40'000;
    ForkBenchWarmState warm = prepareForkBenchWarmState(p, SystemConfig{});
    EXPECT_EQ(warm.machine.size(), 65822u);
    EXPECT_EQ(fnv1a(warm.machine), 17875618915969818596ull);

    // makeCheckpointFile uses the same benchmark and phase lengths. The
    // checkpoint follows the post-fork resetStats, so its hash also pins
    // which statistics that reset zeroes (every stats group).
    std::vector<std::uint8_t> file =
        readFileBytes(makeCheckpointFile("ovl_pin.ckpt"));
    EXPECT_EQ(file.size(), 64620u);
    EXPECT_EQ(fnv1a(file), 7716574168143315736ull);
}

TEST(SnapshotFormat, PageContentPathsArePinned)
{
    // The page-content paths BytesArePinned does not reach: a data-
    // carrying frame shared by a CoW fork and then poked, a CoW fault on
    // a never-written frame, a CopyAndCommit promotion of an all-zero
    // overlay, and a save taken after a restore.
    SystemConfig cfg;
    cfg.promoteThresholdLines = 8;
    System sys(cfg);
    Tick t = 0;

    const Asid cow = sys.createProcess();
    sys.mapAnon(cow, kBase, 8 * kPageSize);
    for (unsigned p = 0; p < 8; ++p)
        t = sys.access(cow, kBase + p * kPageSize, true, t);
    const std::uint8_t before[4] = {0xAB, 0xCD, 0xEF, 0x01};
    for (unsigned p = 0; p < 4; ++p)
        sys.poke(cow, kBase + p * kPageSize + 100, before, sizeof(before));
    Tick done = t;
    const Asid cow_child = sys.fork(cow, ForkMode::CopyOnWrite, t, &done);
    t = done;
    const std::uint8_t after[2] = {0x5A, 0xA5};
    sys.poke(cow, kBase + 100, after, sizeof(after));
    t = sys.access(cow, kBase + 6 * kPageSize, true, t);

    const Asid oow = sys.createProcess();
    const Addr oow_base = kBase + 64 * kPageSize;
    sys.mapAnon(oow, oow_base, 4 * kPageSize);
    for (unsigned p = 0; p < 4; ++p)
        t = sys.access(oow, oow_base + p * kPageSize, true, t);
    sys.fork(oow, ForkMode::OverlayOnWrite, t, &done);
    t = done;
    for (unsigned l = 0; l < 8; ++l)
        t = sys.access(oow, oow_base + l * kLineSize, true, t);
    EXPECT_FALSE(sys.overlayManager().hasOverlay(
        overlay_addr::pageFromVirtual(oow, pageNumber(oow_base))))
        << "the eighth overlaid line should have promoted the page";

    std::uint8_t got[4] = {};
    sys.peek(cow, kBase + 100, got, sizeof(got));
    EXPECT_EQ(got[0], 0x5A);
    EXPECT_EQ(got[2], 0xEF);
    sys.peek(cow_child, kBase + 100, got, sizeof(got));
    EXPECT_EQ(got[0], 0xAB);

    snapshot::Writer first;
    sys.serialize(first);
    EXPECT_EQ(first.buffer().size(), 76178u);
    EXPECT_EQ(fnv1a(first.buffer()), 10077060971742030227ull);

    System restored(cfg);
    snapshot::Reader r(first.buffer());
    restored.deserialize(r);
    snapshot::Writer second;
    restored.serialize(second);
    EXPECT_EQ(second.buffer(), first.buffer());

    // The restored machine keeps going: a poke into a restored data
    // frame and a CoW fault, then a third save.
    restored.poke(cow, kBase + 2 * kPageSize + 100, after, sizeof(after));
    restored.access(cow, kBase + 7 * kPageSize, true, t);
    snapshot::Writer third;
    restored.serialize(third);
    EXPECT_EQ(third.buffer().size(), 85017u);
    EXPECT_EQ(fnv1a(third.buffer()), 10558219611084652417ull);
}

// ----- component restore validation -------------------------------------

/** Page-bump allocator hook for a fresh Omt's PageAllocFn. */
Addr
bumpPage(void *ctx)
{
    return *static_cast<Addr *>(ctx) += kPageSize;
}

/** Section tag + u64 length that precede every section body. */
constexpr std::size_t kSectionHeader = 12;

std::uint64_t
getU64(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(bytes[at + i]) << (8 * i);
    return v;
}

template <class T>
void
putLe(std::vector<std::uint8_t> &bytes, std::size_t at, T v)
{
    for (unsigned i = 0; i < sizeof(T); ++i)
        bytes[at + i] = std::uint8_t(std::uint64_t(v) >> (8 * i));
}

/** Load @p bytes into @p fresh; true if it throws SnapshotError. */
template <class T>
bool
restoreThrows(const std::vector<std::uint8_t> &bytes, T &fresh)
{
    snapshot::Reader r(bytes);
    try {
        snapshot::visit(fresh, r);
    } catch (const snapshot::SnapshotError &) {
        return true;
    }
    return false;
}

/** @p section (tag and length first) with its body replaced by @p body. */
std::vector<std::uint8_t>
reframed(const std::vector<std::uint8_t> &section,
         const std::vector<std::uint8_t> &body)
{
    snapshot::Writer w;
    w.section(reinterpret_cast<const char *>(section.data()), [&] {
        for (std::uint8_t b : body)
            w.u8(b);
    });
    return w.takeBuffer();
}

/**
 * @p section with the varint at byte @p at (counted from the section
 * tag) re-encoded as @p value, re-framed.
 */
std::vector<std::uint8_t>
withVarint(const std::vector<std::uint8_t> &section, std::size_t at,
           std::uint64_t value)
{
    std::vector<std::uint8_t> body(section.begin() + kSectionHeader,
                                   section.end());
    auto pos = body.begin() + long(at - kSectionHeader);
    auto end = pos;
    while (*end & 0x80)
        ++end;
    pos = body.erase(pos, end + 1);
    snapshot::Writer v;
    v.varint(value);
    body.insert(pos, v.buffer().begin(), v.buffer().end());
    return reframed(section, body);
}

TEST(SnapshotValidation, PhysicalMemoryRejectsFramesOutsideTheTable)
{
    PhysicalMemory mem("mem", 1ull << 30);
    Addr a = mem.allocFrame();
    mem.allocFrame();
    mem.release(a); // free list: {a}
    snapshot::Writer w;
    snapshot::visit(mem, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // PMEM body offsets (PhysicalMemory::io): nextFrame @8, the
    // refcounts of frames 0..2 @16 (one byte each), the free-list count
    // @19 and its one frame @27.
    const std::size_t next_frame = kSectionHeader + 8;
    const std::size_t first_free = kSectionHeader + 27;
    ASSERT_EQ(getU64(good, next_frame), 3u);
    ASSERT_EQ(getU64(good, kSectionHeader + 19), 1u);
    ASSERT_EQ(good[first_free], a);

    PhysicalMemory intact("mem", 1ull << 30);
    EXPECT_FALSE(restoreThrows(good, intact));

    auto with_next_frame = [&](std::uint64_t value) {
        std::vector<std::uint8_t> bad = good;
        putLe(bad, next_frame, value);
        return bad;
    };
    for (auto [what, bad] :
         {std::pair{"next frame 0", with_next_frame(0)},
          std::pair{"next frame 2^40", with_next_frame(1ull << 40)},
          std::pair{"free frame 0", withVarint(good, first_free, 0)},
          std::pair{"free frame 3", withVarint(good, first_free, 3)},
          std::pair{"free frame 2^40",
                    withVarint(good, first_free, 1ull << 40)}}) {
        SCOPED_TRACE(what);
        PhysicalMemory fresh("mem", 1ull << 30);
        EXPECT_TRUE(restoreThrows(bad, fresh));
    }
}

TEST(SnapshotValidation, PhysicalMemoryFreeListHoldsExactlyTheDeadFrames)
{
    // Frames 1 and 3 are free, frame 2 is live. A free list naming a
    // frame twice or a live frame would hand one frame to two owners;
    // a frame that is neither live nor free would leak.
    PhysicalMemory mem("mem", 1ull << 30);
    Addr a = mem.allocFrame();
    Addr b = mem.allocFrame();
    Addr c = mem.allocFrame();
    mem.release(a);
    mem.release(c); // free list: {a, c}
    snapshot::Writer w;
    snapshot::visit(mem, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // PMEM body: four one-byte refcounts @16, the free-list count @20,
    // its frames @28 and @29.
    const std::size_t count = kSectionHeader + 20;
    const std::size_t first = kSectionHeader + 28;
    ASSERT_EQ(getU64(good, count), 2u);
    ASSERT_EQ(good[first], a);
    ASSERT_EQ(good[first + 1], c);

    PhysicalMemory intact("mem", 1ull << 30);
    EXPECT_FALSE(restoreThrows(good, intact));

    std::vector<std::uint8_t> twice = good;
    twice[first + 1] = std::uint8_t(a);
    std::vector<std::uint8_t> live = good;
    live[first] = std::uint8_t(b);
    std::vector<std::uint8_t> body(good.begin() + kSectionHeader,
                                   good.end());
    body.erase(body.begin() + long(first + 1 - kSectionHeader));
    body[count - kSectionHeader] = 1;
    for (auto [what, bad] : {std::pair{"a frame free twice", twice},
                             std::pair{"a live frame free", live},
                             std::pair{"frame 3 neither live nor free",
                                       reframed(good, body)}}) {
        SCOPED_TRACE(what);
        PhysicalMemory fresh("mem", 1ull << 30);
        EXPECT_TRUE(restoreThrows(bad, fresh));
    }
}

TEST(SnapshotValidation, OmsAllocatorRejectsMalformedFreeLists)
{
    // Two pages, frames 1 and 2. One 256 B allocation splits the second:
    // its free 256 B, 512 B, 1 KB and 2 KB buddies head at units 1, 2, 4
    // and 8 (refs 0x11, 0x12, 0x14 and 0x18), and the first page is one
    // free 4 KB segment (ref 0x00).
    Addr next = 0;
    const OmsAllocatorParams params{2, 2, false};
    OmsAllocator alloc("oms", params, PageAllocFn{&bumpPage, &next});
    alloc.allocate(SegClass::Seg256B);
    snapshot::Writer w;
    snapshot::visit(alloc, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // OMS body: the page count @0, the frames @8 and @9, then per class
    // its count (u64) and its one ref, class c's ref @18 + 9c.
    auto ref_at = [](unsigned cls) { return kSectionHeader + 18 + 9 * cls; };
    ASSERT_EQ(good.size(), ref_at(4) + 1);
    ASSERT_EQ(getU64(good, kSectionHeader), 2u);
    ASSERT_EQ(good[kSectionHeader + 8], 1u);
    ASSERT_EQ(good[kSectionHeader + 9], 2u);
    const std::uint8_t refs[] = {0x11, 0x12, 0x14, 0x18, 0x00};
    for (unsigned c = 0; c < kNumSegClasses; ++c) {
        ASSERT_EQ(getU64(good, ref_at(c) - 8), 1u);
        ASSERT_EQ(good[ref_at(c)], refs[c]);
    }

    Addr fresh_next = Addr(1) << 40;
    auto fresh = [&] {
        return std::make_unique<OmsAllocator>(
            "oms", params, PageAllocFn{&bumpPage, &fresh_next});
    };
    EXPECT_FALSE(restoreThrows(good, *fresh()));

    for (auto [what, cls, ref] :
         {std::tuple{"a ref past the pages", 0u, 0x21},
          std::tuple{"a 512 B segment at an odd unit", 1u, 0x13},
          std::tuple{"a unit listed twice", 0u, 0x12}}) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bad = good;
        bad[ref_at(cls)] = std::uint8_t(ref);
        EXPECT_TRUE(restoreThrows(bad, *fresh()));
    }
}

TEST(SnapshotValidation, OmsSegmentsPartitionThePages)
{
    // Every 256 B unit of an OMS page is free or held by exactly one
    // live overlay. One overlay holds a 256 B segment; releasing it while
    // the overlay keeps it, or allocating one nobody owns, breaks that.
    constexpr Opn kOpn = (Addr(1) << 51) | 0x1234;
    DramController dram("dram", DramTimingParams{});
    auto saved = [&](auto damage) {
        Addr next = 0x100'0000;
        OverlayManager ovm("ovm", OverlayManagerParams{}, dram,
                           PageAllocFn{&bumpPage, &next});
        ovm.writeLineData(kOpn, 0, LineData{1});
        ovm.writebackLine(kOpn << kPageShift, 0);
        EXPECT_EQ(ovm.omsBytesInUse(), segClassBytes(SegClass::Seg256B));
        damage(ovm);
        snapshot::Writer w;
        snapshot::visit(ovm, w);
        return w.takeBuffer();
    };
    Addr fresh_next = Addr(1) << 40;
    auto fresh = [&] {
        return std::make_unique<OverlayManager>(
            "ovm", OverlayManagerParams{}, dram,
            PageAllocFn{&bumpPage, &fresh_next});
    };
    EXPECT_FALSE(restoreThrows(saved([](OverlayManager &) {}), *fresh()));

    auto free_owned = [&](OverlayManager &ovm) {
        ovm.allocator().release(ovm.omt().find(kOpn)->seg.baseAddr,
                                SegClass::Seg256B);
    };
    auto unowned = [](OverlayManager &ovm) {
        ovm.allocator().allocate(SegClass::Seg256B);
    };
    EXPECT_TRUE(restoreThrows(saved(free_owned), *fresh()))
        << "a free segment overlapping a live one";
    EXPECT_TRUE(restoreThrows(saved(unowned), *fresh()))
        << "a unit neither free nor owned";
}

TEST(SnapshotValidation, OmtEntryRejectsABadSlotPointer)
{
    // A 256 B segment (3 slots) whose lines 0 and 5 hold slots 0 and 1.
    Addr next_node = 0x100000;
    auto fresh = [&] {
        return std::make_unique<Omt>("omt",
                                     PageAllocFn{&bumpPage, &next_node});
    };
    std::unique_ptr<Omt> omt = fresh();
    OmtEntry &entry = omt->findOrCreate(0x1234);
    entry.obv.set(0);
    entry.obv.set(5);
    entry.hasSegment = true;
    entry.seg.baseAddr = 0x200000;
    entry.seg.cls = SegClass::Seg256B;
    entry.seg.meta.initFree(SegClass::Seg256B);
    entry.seg.meta.slotOf[0] = entry.seg.meta.allocSlot();
    entry.seg.meta.slotOf[5] = entry.seg.meta.allocSlot();
    snapshot::Writer w;
    snapshot::visit(*omt, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    const std::vector<std::uint8_t> slots = {0, 0x1F, 0x1F, 0x1F, 0x1F, 1};
    auto at = std::search(good.begin(), good.end(), slots.begin(),
                          slots.end());
    ASSERT_NE(at, good.end());
    const std::size_t line5 = std::size_t(at - good.begin()) + 5;

    std::unique_ptr<Omt> intact = fresh();
    EXPECT_FALSE(restoreThrows(good, *intact));
    EXPECT_EQ(intact->find(0x1234)->seg.meta.freeSlots, 0b100u);

    for (auto [what, slot] : {std::pair{"a slot past the capacity", 3},
                              std::pair{"one slot held by two lines", 0}}) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bad = good;
        bad[line5] = std::uint8_t(slot);
        EXPECT_TRUE(restoreThrows(bad, *fresh()));
    }
}

/**
 * @p bytes with the first occurrence of @p keys, the one-byte way-key
 * varints of one set, changed to repeat its first key in its second way.
 */
std::vector<std::uint8_t>
repeatFirstWayKey(std::vector<std::uint8_t> bytes,
                  const std::vector<std::uint8_t> &keys)
{
    auto at = std::search(bytes.begin() + kSectionHeader, bytes.end(),
                          keys.begin(), keys.end());
    EXPECT_NE(at, bytes.end()) << "the set's way keys were not found";
    if (at != bytes.end())
        at[1] = at[0];
    return bytes;
}

/** Save @p original; it must load, and fail once a key repeats. */
template <class T, class Make>
void
expectRepeatedKeyRejected(const T &original, Make make_fresh,
                          const std::vector<std::uint8_t> &keys)
{
    snapshot::Writer w;
    snapshot::visit(original, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();
    auto intact = make_fresh();
    EXPECT_FALSE(restoreThrows(good, *intact));
    auto fresh = make_fresh();
    EXPECT_TRUE(restoreThrows(repeatFirstWayKey(good, keys), *fresh));
}

TEST(SnapshotValidation, ASetHoldingOneKeyTwiceIsRejected)
{
    // One set of four ways, holding keys 0x11..0x44 above the set bits,
    // so its way keys are saved as the varints 0x12 0x23 0x34 0x45. No
    // run puts one key in two ways: a dirty line held twice would be
    // written back twice.
    const std::vector<std::uint8_t> keys = {0x12, 0x23, 0x34, 0x45};
    Tlb tlb("t", TlbParams{4, 4, 1});
    const CacheParams geometry{4 * kLineSize, 4};
    SetAssocCache cache("c", geometry);
    OmtCache omtc("omtc", OmtCacheParams{4, 4});
    for (Addr key : {0x11, 0x22, 0x33, 0x44}) {
        tlb.insert(0, key, TlbEntryData{});
        cache.access(key * kLineSize, true);
        omtc.lookupAllocateModify(key);
    }
    expectRepeatedKeyRejected(
        tlb, [&] { return std::make_unique<Tlb>("t", tlb.params()); }, keys);
    expectRepeatedKeyRejected(
        cache, [&] { return std::make_unique<SetAssocCache>("c", geometry); },
        keys);
    expectRepeatedKeyRejected(
        omtc,
        [&] { return std::make_unique<OmtCache>("omtc", omtc.params()); },
        keys);
}

/**
 * The OMTC section of a one-set, 4-way OMT cache holding OPNs 0x11,
 * 0x22, 0x33 and 0x44, the latter two modified: after the way count and
 * the counter (4), the way keys 0x12 0x23 0x34 0x45, one byte of
 * modified bits and the stamp ages 3 2 1 0.
 */
std::vector<std::uint8_t>
smallOmtCacheSection()
{
    OmtCache omtc("omtc", OmtCacheParams{4, 4});
    omtc.lookupAllocate(0x11);
    omtc.lookupAllocate(0x22);
    omtc.lookupAllocateModify(0x33);
    omtc.lookupAllocateModify(0x44);
    snapshot::Writer w;
    snapshot::visit(omtc, w);
    return w.takeBuffer();
}

TEST(SnapshotValidation, OmtCacheRejectsAStampAgeAboveTheCounter)
{
    const std::vector<std::uint8_t> good = smallOmtCacheSection();
    ASSERT_EQ(good.size(), kSectionHeader + 8 + 8 + 4 + 1 + 4);
    const std::size_t counter = kSectionHeader + 8;
    const std::size_t last_age = good.size() - 1;
    ASSERT_EQ(getU64(good, counter), 4u);
    ASSERT_EQ(good[last_age], 0u);
    for (std::uint8_t age : {0, 4, 5, 100}) {
        SCOPED_TRACE("age " + std::to_string(age));
        std::vector<std::uint8_t> bytes = good;
        bytes[last_age] = age;
        OmtCache fresh("omtc", OmtCacheParams{4, 4});
        // An age of the counter itself is stamp 0, which no run stores
        // but which still orders the set; above it there is no stamp.
        EXPECT_EQ(restoreThrows(bytes, fresh), age > 4);
    }
}

TEST(SnapshotValidation, OmtCacheRejectsAKeyWiderThanAnOpn)
{
    const std::vector<std::uint8_t> good = smallOmtCacheSection();
    const std::size_t first_key = kSectionHeader + 16;
    ASSERT_EQ(good[first_key], 0x12);
    const Opn widest = (Opn(1) << overlay_addr::kOpnBits) - 1;
    for (Opn key : {widest, widest + 1, ~Opn(0) - 1}) {
        SCOPED_TRACE("key " + std::to_string(key));
        // One set: a way key is saved as the varint 1 + the OPN.
        snapshot::Writer varint;
        varint.varint(key + 1);
        std::vector<std::uint8_t> body(good.begin() + kSectionHeader,
                                       good.end());
        body.erase(body.begin() + long(first_key - kSectionHeader));
        body.insert(body.begin() + long(first_key - kSectionHeader),
                    varint.buffer().begin(), varint.buffer().end());
        OmtCache fresh("omtc", OmtCacheParams{4, 4});
        EXPECT_EQ(restoreThrows(reframed(good, body), fresh), key > widest);
    }
}

TEST(SnapshotHardening, MissingFileThrows)
{
    EXPECT_THROW(resumeForkBenchCheckpoint(::testing::TempDir() +
                                           "ovl_no_such_file.ckpt"),
                 snapshot::SnapshotError);
}

TEST(SnapshotHardening, MaterializedFramesMustBeLiveAndAscending)
{
    // A materialized entry for a free frame would hand its bytes to the
    // next allocFrame, which must read as zero; one for the zero frame
    // would make it writable; a repeated id would load one frame twice.
    PhysicalMemory mem("mem", 1ull << 30);
    Addr freed = mem.allocFrame();
    Addr first = mem.allocFrame();
    Addr second = mem.allocFrame();
    const std::uint8_t data[2] = {0xAB, 0xAB};
    mem.writeBytes(first << kPageShift, data, sizeof(data));
    mem.writeBytes(second << kPageShift, data, sizeof(data));
    mem.release(freed);
    snapshot::Writer w;
    snapshot::visit(mem, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // PMEM body: four one-byte refcounts @16, one free frame @28, then
    // the materialized count @29 and {frame id, 4 KB page} entries.
    const std::size_t count = kSectionHeader + 29;
    const std::size_t first_id = count + 8;
    const std::size_t second_id = first_id + 8 + kPageSize;
    ASSERT_EQ(getU64(good, count), 2u);
    ASSERT_EQ(getU64(good, first_id), first);
    ASSERT_EQ(getU64(good, second_id), second);

    PhysicalMemory intact("mem", 1ull << 30);
    EXPECT_FALSE(restoreThrows(good, intact));

    for (auto [what, at, value] :
         {std::tuple{"freed frame", first_id, freed},
          std::tuple{"zero frame", first_id, PhysicalMemory::kZeroFrame},
          std::tuple{"repeated frame", second_id, first}}) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bad = good;
        putLe(bad, at, value);
        PhysicalMemory fresh("mem", 1ull << 30);
        EXPECT_TRUE(restoreThrows(bad, fresh));
    }
}

TEST(SnapshotHardening, TruncationsAlwaysThrow)
{
    const std::string path = makeCheckpointFile("ovl_trunc_src.ckpt");
    const std::vector<std::uint8_t> good = readFileBytes(path);
    ASSERT_GT(good.size(), 64u);

    const std::string cut = ::testing::TempDir() + "ovl_cut.ckpt";
    const std::size_t lengths[] = {0,  1,  7,  8,  12, 19,
                                   20, 21, 64, good.size() / 2,
                                   good.size() - 1};
    for (std::size_t len : lengths) {
        SCOPED_TRACE("truncated to " + std::to_string(len));
        writeFileBytes(cut, {good.begin(), good.begin() + long(len)});
        EXPECT_THROW(resumeForkBenchCheckpoint(cut),
                     snapshot::SnapshotError);
    }
}

TEST(SnapshotHardening, EnvelopeCorruptionAlwaysThrows)
{
    const std::string path = makeCheckpointFile("ovl_env_src.ckpt");
    const std::vector<std::uint8_t> good = readFileBytes(path);
    const std::string bad = ::testing::TempDir() + "ovl_env.ckpt";

    // Magic (8) + version (4) + payload length (8): flipping any byte
    // of the envelope must be rejected before the payload is touched.
    for (std::size_t i = 0; i < 20; ++i) {
        SCOPED_TRACE("envelope byte " + std::to_string(i));
        std::vector<std::uint8_t> mangled = good;
        mangled[i] ^= 0xFF;
        writeFileBytes(bad, mangled);
        EXPECT_THROW(resumeForkBenchCheckpoint(bad),
                     snapshot::SnapshotError);
    }
}

TEST(SnapshotHardening, FuzzedPayloadsNeverInvokeUndefinedBehavior)
{
    // Random byte flips in a System snapshot must either deserialize
    // (the flip hit a don't-care or produced an equally valid value) or
    // throw SnapshotError — never crash, hang or scribble. Load-only:
    // System::deserialize validates structure; semantic validity of a
    // corrupt-but-well-formed machine is not the snapshot layer's job.
    Scenario sc;
    snapshot::Writer w;
    sc.sys.serialize(w);
    const std::vector<std::uint8_t> good = w.takeBuffer();
    ASSERT_GT(good.size(), 256u);

    Rng rng(0xF022);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> mangled = good;
        unsigned flips = 1 + unsigned(rng.next() % 4);
        for (unsigned f = 0; f < flips; ++f) {
            std::size_t pos = std::size_t(rng.next() % mangled.size());
            std::uint8_t bit = std::uint8_t(1u << (rng.next() % 8));
            mangled[pos] ^= bit;
        }
        System fresh((SystemConfig()));
        snapshot::Reader r(mangled);
        try {
            fresh.deserialize(r);
        } catch (const snapshot::SnapshotError &) {
            // expected for most flips
        }
    }

    // The packed records of formats 2 to 5: each cache's CACH and each
    // TLB's TLB section, where most of an image's bytes live, a page
    // table's PGTB, the OMT, an OMT cache's OMTC, the PMEM frame
    // allocator and the OVLM overlay engine. Each is damaged by a bit flip, a
    // set continuation bit, an inserted or a deleted byte, and re-framed
    // so the damage reaches the varint and packed-array decoders instead
    // of the framing check. A record that loads must re-save to the same
    // bytes: the encoding is canonical.
    auto fuzzSection = [&](const auto &original, auto make_fresh,
                           auto after_load) {
        snapshot::Writer ow;
        snapshot::visit(original, ow);
        const std::vector<std::uint8_t> section = ow.takeBuffer();
        unsigned loaded = 0;
        for (int trial = 0; trial < 150; ++trial) {
            std::vector<std::uint8_t> body(section.begin() + 12,
                                           section.end());
            std::size_t pos = std::size_t(rng.below(body.size()));
            switch (rng.below(4)) {
              case 0:
                body[pos] ^= std::uint8_t(1u << rng.below(8));
                break;
              case 1:
                body[pos] |= 0x80;
                break;
              case 2:
                body.insert(body.begin() + long(pos),
                            std::uint8_t(rng.next()));
                break;
              default:
                body.erase(body.begin() + long(pos));
                break;
            }
            const std::vector<std::uint8_t> mangled =
                reframed(section, body);
            auto fresh = make_fresh();
            snapshot::Reader r(mangled);
            try {
                snapshot::visit(*fresh, r);
            } catch (const snapshot::SnapshotError &) {
                continue;
            }
            ++loaded;
            snapshot::Writer again;
            snapshot::visit(*fresh, again);
            EXPECT_EQ(again.buffer(), mangled) << "trial " << trial;
            after_load(*fresh);
        }
        return loaded;
    };
    auto nothing = [](auto &) {};
    CacheHierarchy &caches = sc.sys.caches();
    unsigned loaded = 0;
    for (const SetAssocCache *cache :
         {&caches.l1(), &caches.l2(), &caches.l3()}) {
        loaded += fuzzSection(*cache, [&] {
            return std::make_unique<SetAssocCache>("c", cache->params());
        }, nothing);
    }
    for (Tlb *tlb : {&sc.sys.tlb().l1(), &sc.sys.tlb().l2()}) {
        loaded += fuzzSection(*tlb, [&] {
            return std::make_unique<Tlb>("t", tlb->params());
        }, nothing);
    }
    // A machine with live overlays, for the OMT.
    Scenario oow(ForkMode::OverlayOnWrite);
    ASSERT_GT(oow.sys.overlayManager().omt().size(), 0u);
    loaded += fuzzSection(oow.sys.vmm().process(oow.parent).pageTable,
                          [] { return std::make_unique<PageTable>(); },
                          nothing);
    Addr next_node = 0x100000;
    loaded += fuzzSection(oow.sys.overlayManager().omt(), [&] {
        return std::make_unique<Omt>("omt",
                                     PageAllocFn{&bumpPage, &next_node});
    }, nothing);
    // Its OMT cache holds resident ways: its record is longer than an
    // empty cache's.
    const OmtCache &omtc = oow.sys.overlayManager().omtCache();
    auto freshOmtCache = [&] {
        return std::make_unique<OmtCache>("omtc", omtc.params());
    };
    snapshot::Writer resident, empty;
    snapshot::visit(omtc, resident);
    snapshot::visit(*freshOmtCache(), empty);
    ASSERT_GT(resident.buffer().size(), empty.buffer().size());
    loaded += fuzzSection(omtc, freshOmtCache, nothing);
    // A machine whose overlays hold OMS segments (the replayed stream
    // ends with a flush, which writes the overlay lines back), for the
    // frame allocator's PMEM and the whole overlay engine's OVLM. Each
    // engine that loads must then serve an allocation of every class.
    Scenario seg(ForkMode::OverlayOnWrite);
    seg.drive(seg.sys, seg.t);
    const PhysicalMemory &mem = seg.sys.physMem();
    loaded += fuzzSection(mem, [&] {
        return std::make_unique<PhysicalMemory>("mem", mem.capacityBytes());
    }, nothing);
    ASSERT_GT(seg.sys.overlayManager().omsBytesInUse(), 0u);
    DramController dram("dram", DramTimingParams{});
    Addr next_page = Addr(1) << 40;
    loaded += fuzzSection(seg.sys.overlayManager(), [&] {
        return std::make_unique<OverlayManager>(
            "ovm", SystemConfig().overlay, dram,
            PageAllocFn{&bumpPage, &next_page});
    }, [](OverlayManager &ovm) {
        for (unsigned c = 0; c < kNumSegClasses; ++c) {
            const Addr base = ovm.allocator().allocate(SegClass(c));
            ovm.allocator().release(base, SegClass(c));
        }
    });
    // Flips of tag, flag and age bits leave a record well-formed, so
    // the re-save check above must have run.
    EXPECT_GT(loaded, 0u);
}

} // namespace
} // namespace ovl
