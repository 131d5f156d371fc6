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

#include <cstdint>
#include <fstream>
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
                runForkBenchCheckpointed(p, mode, SystemConfig{}, ckpt);
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
    std::optional<ForkBenchResult> stopped =
        runForkBenchCheckpointed(p, ForkMode::CopyOnWrite,
                                 SystemConfig{}, ckpt);
    EXPECT_FALSE(stopped.has_value());
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

/** A small but real checkpoint file to mangle. */
std::string
makeCheckpointFile()
{
    std::string path = ::testing::TempDir() + "ovl_fuzz.ckpt";
    ForkBenchParams p = forkBenchByName("libq");
    p.warmupInstructions = 20'000;
    p.postForkInstructions = 40'000;
    ForkBenchCheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.atTick = 1; // first post-fork op boundary
    std::optional<ForkBenchResult> r = runForkBenchCheckpointed(
        p, ForkMode::OverlayOnWrite, SystemConfig{}, ckpt);
    EXPECT_FALSE(r.has_value());
    return path;
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
    // The serialized layout is an on-disk format (kFormatVersion 1):
    // any change to the byte stream, however innocent, must bump the
    // version instead of silently moving these sizes and hashes.
    EXPECT_EQ(snapshot::kFormatVersion, 1u);
    for (auto [mode, size, hash] :
         {std::tuple{ForkMode::CopyOnWrite, 893664ull,
                     706907112449349140ull},
          std::tuple{ForkMode::OverlayOnWrite, 896548ull,
                     3025393550557350269ull}}) {
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
    EXPECT_EQ(warm.machine.size(), 868438u);
    EXPECT_EQ(fnv1a(warm.machine), 14005627231482902559ull);

    // makeCheckpointFile uses the same benchmark and phase lengths. The
    // checkpoint follows the post-fork resetStats, so its hash also pins
    // which statistics that reset zeroes (every stats group).
    std::vector<std::uint8_t> file = readFileBytes(makeCheckpointFile());
    EXPECT_EQ(file.size(), 879000u);
    EXPECT_EQ(fnv1a(file), 4109648923026810726ull);
}

// ----- component restore validation -------------------------------------

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

TEST(SnapshotValidation, PhysicalMemoryRejectsFramesOutsideTheTable)
{
    PhysicalMemory mem("mem", 1ull << 30);
    Addr a = mem.allocFrame();
    mem.allocFrame();
    mem.release(a); // free list: {a}
    snapshot::Writer w;
    snapshot::visit(mem, w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // PMEM body offsets (PhysicalMemory::io): nextFrame @8, first free
    // frame @32.
    const std::size_t next_frame = kSectionHeader + 8;
    const std::size_t first_free = kSectionHeader + 32;
    ASSERT_EQ(getU64(good, next_frame), 3u);
    ASSERT_EQ(getU64(good, first_free), a);

    PhysicalMemory intact("mem", 1ull << 30);
    EXPECT_FALSE(restoreThrows(good, intact));

    for (auto [at, value] : {std::pair{next_frame, 0ull},
                             std::pair{next_frame, 1ull << 40},
                             std::pair{first_free, 0ull},
                             std::pair{first_free, 3ull},
                             std::pair{first_free, 1ull << 40}}) {
        SCOPED_TRACE("offset " + std::to_string(at) + " = " +
                     std::to_string(value));
        std::vector<std::uint8_t> bad = good;
        putLe(bad, at, value);
        PhysicalMemory fresh("mem", 1ull << 30);
        EXPECT_TRUE(restoreThrows(bad, fresh));
    }
}

TEST(SnapshotValidation, OverlayManagerRejectsDanglingPageDataIndex)
{
    Scenario sc(ForkMode::OverlayOnWrite);
    snapshot::Writer w;
    snapshot::visit(sc.sys.overlayManager(), w);
    const std::vector<std::uint8_t> good = w.takeBuffer();

    // OVLM opens with the OMT section; its body (Omt::io) holds the
    // chunk count, 2092-byte chunks, the arena count, then 90-byte arena
    // entries with pageDataIdx at +9.
    const std::size_t omt_body = 2 * kSectionHeader;
    std::size_t arena = omt_body + 8 + getU64(good, omt_body) * 2092;
    std::uint64_t entries = getU64(good, arena);
    std::size_t patched = 0;
    for (std::uint64_t e = 0; e < entries; ++e) {
        std::size_t idx_at = arena + 8 + e * 90 + 9;
        if (std::uint32_t(getU64(good, idx_at)) == OmtEntry::kNoPageData)
            continue;
        std::vector<std::uint8_t> bad = good;
        putLe(bad, idx_at, std::uint32_t(1u << 20));
        System fresh((SystemConfig()));
        EXPECT_TRUE(restoreThrows(bad, fresh.overlayManager()))
            << "arena entry " << e;
        ++patched;
    }
    EXPECT_GT(patched, 0u) << "scenario left no overlay page data";

    System intact((SystemConfig()));
    EXPECT_FALSE(restoreThrows(good, intact.overlayManager()));
}

TEST(SnapshotHardening, MissingFileThrows)
{
    EXPECT_THROW(resumeForkBenchCheckpoint(::testing::TempDir() +
                                           "ovl_no_such_file.ckpt"),
                 snapshot::SnapshotError);
}

TEST(SnapshotHardening, TruncationsAlwaysThrow)
{
    const std::string path = makeCheckpointFile();
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
    const std::string path = makeCheckpointFile();
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
}

} // namespace
} // namespace ovl
