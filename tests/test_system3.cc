/**
 * @file
 * Tests for resource teardown (unmap/destroyProcess with overlay
 * reclamation) and the JSON statistics export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "system/system.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;

TEST(SystemUnmap, ReleasesFramesAndOverlays)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, 2 * kPageSize);
    sys.mapZeroOverlay(asid, kBase + 2 * kPageSize, 2 * kPageSize);

    double v = 3.0;
    sys.poke(asid, kBase + 2 * kPageSize, &v, 8);
    Tick t = sys.access(asid, kBase + 2 * kPageSize + 64, true, 0);
    sys.caches().flushAll(t);
    ASSERT_GT(sys.overlayManager().omsBytesInUse(), 0u);
    std::uint64_t frames = sys.physMem().framesInUse();

    sys.unmap(asid, kBase, 4 * kPageSize, t);
    EXPECT_EQ(sys.overlayManager().omsBytesInUse(), 0u);
    EXPECT_EQ(sys.physMem().framesInUse(), frames - 2); // 2 anon frames
    EXPECT_EQ(sys.vmm().resolve(asid, pageNumber(kBase)), nullptr);
}

TEST(SystemUnmap, StaleOverlayWritebacksAreSquashed)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    sys.mapZeroOverlay(asid, kBase, kPageSize);
    Tick t = sys.access(asid, kBase, true, 0); // dirty overlay line cached
    sys.unmap(asid, kBase, kPageSize, t);
    // Nothing lingers: flushing must not re-create OMS state.
    sys.caches().flushAll(t);
    EXPECT_EQ(sys.overlayManager().omsBytesInUse(), 0u);
    EXPECT_FALSE(sys.overlayManager().hasOverlay(
        overlay_addr::pageFromVirtual(asid, pageNumber(kBase))));
}

TEST(SystemUnmap, FreedFrameLinesDoNotAliasNextUser)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    Addr old_ppn = sys.vmm().resolve(asid, pageNumber(kBase))->ppn;
    Tick t = sys.access(asid, kBase, true, 0); // dirty line in cache
    sys.unmap(asid, kBase, kPageSize, t);

    // Remap (the allocator recycles the frame LIFO).
    sys.mapAnon(asid, kBase, kPageSize);
    EXPECT_EQ(sys.vmm().resolve(asid, pageNumber(kBase))->ppn, old_ppn);
    // The first access to the recycled frame misses (no stale hit).
    AccessOutcome out;
    sys.access(asid, kBase, false, t + 10'000, &out);
    EXPECT_EQ(out.level, HitLevel::Memory);
}

TEST(SystemDestroy, TearsDownWholeAddressSpace)
{
    System sys((SystemConfig()));
    Asid keep = sys.createProcess();
    Asid die = sys.createProcess();
    sys.mapAnon(keep, kBase, kPageSize);
    sys.mapAnon(die, kBase, 4 * kPageSize);
    sys.mapZeroOverlay(die, kBase + 4 * kPageSize, 2 * kPageSize);
    double v = 1.0;
    sys.poke(die, kBase + 4 * kPageSize, &v, 8);
    std::uint64_t magic = 0x600D;
    sys.poke(keep, kBase, &magic, 8);

    std::uint64_t before = sys.physMem().framesInUse();
    sys.destroyProcess(die, 0);
    EXPECT_EQ(sys.physMem().framesInUse(), before - 4);
    EXPECT_EQ(sys.vmm().process(die).pageTable.size(), 0u);
    // The survivor is untouched.
    std::uint64_t got = 0;
    sys.peek(keep, kBase, &got, 8);
    EXPECT_EQ(got, 0x600Du);
}

TEST(StatsJson, WellFormedAndComplete)
{
    System sys((SystemConfig()));
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    sys.access(asid, kBase, true, 0);

    std::ostringstream os;
    sys.dumpAllStatsJson(os);
    std::string json = os.str();

    // Structure: balanced braces, quoted keys, expected groups present.
    long depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_NE(json.find("\"system\""), std::string::npos);
    EXPECT_NE(json.find("\"system.caches.l1\""), std::string::npos);
    EXPECT_NE(json.find("\"system.overlay.omtCache\""), std::string::npos);
    EXPECT_NE(json.find("\"accesses\": 1"), std::string::npos);
    // Histograms export as objects.
    EXPECT_NE(json.find("\"readLatency\": {"), std::string::npos);
}

TEST(SystemStats, ResetZeroesEveryCounterAndKeepsMemoryAccounting)
{
    // Two TLBs, DRAM traffic, OMT nodes, OMT-cache activity and OMS
    // segments: every stats group has live counters before the reset.
    SystemConfig cfg;
    cfg.numTlbs = 2;
    System sys(cfg);
    Asid parent = sys.createProcess();
    sys.mapAnon(parent, kBase, 16 * kPageSize);
    Tick t = 0;
    for (unsigned pg = 0; pg < 16; ++pg) {
        std::uint64_t v = pg;
        t = sys.write(parent, kBase + pg * kPageSize, &v, 8, t);
    }
    Asid child = sys.fork(parent, ForkMode::OverlayOnWrite, t, &t);
    for (unsigned pg = 0; pg < 16; ++pg) {
        t = sys.access(child, kBase + pg * kPageSize + kLineSize, true, t,
                       nullptr, pg % 2);
    }
    sys.caches().flushAll(t);
    std::uint64_t memory = sys.additionalMemoryBytes();
    ASSERT_GT(sys.overlayManager().omt().nodeBytes(), 0u);

    sys.resetStats();
    unsigned groups = 0;
    sys.forEachStatsGroup([&](const stats::Group *group) {
        ++groups;
        for (const stats::Info *info : group->infos()) {
            if (auto *c = dynamic_cast<const stats::Counter *>(info)) {
                EXPECT_EQ(c->value(), 0u)
                    << group->name() << "." << info->name();
            }
        }
    });
    EXPECT_GT(groups, 0u);
    EXPECT_EQ(sys.additionalMemoryBytes(), memory);

    // The text dump lists the same groups as the JSON dump.
    std::ostringstream text;
    sys.dumpAllStats(text);
    sys.forEachStatsGroup([&](const stats::Group *group) {
        EXPECT_NE(text.str().find(group->name() + "."), std::string::npos)
            << group->name();
    });
}

TEST(StatsJson, GroupJsonIsValidForEmptyAndPopulatedHistograms)
{
    stats::Group group("g");
    stats::Counter c(&group, "count", "");
    stats::Histogram h(&group, "hist", "", 10, 4);
    std::ostringstream empty;
    group.dumpJson(empty);
    // A zero-sample histogram still carries its (empty) bucket map, so
    // every histogram value has the same shape and parses as JSON.
    EXPECT_EQ(empty.str(),
              "{\"count\": 0, \"hist\": {\"samples\": 0, "
              "\"buckets\": {}}}");

    c += 2;
    h.sample(15);
    std::ostringstream full;
    group.dumpJson(full);
    EXPECT_EQ(full.str(),
              "{\"count\": 2, \"hist\": {\"samples\": 1, \"mean\": 15, "
              "\"min\": 15, \"max\": 15, \"buckets\": {\"10\": 1}}}");
}

} // namespace
} // namespace ovl
