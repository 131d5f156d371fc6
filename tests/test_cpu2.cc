/**
 * @file
 * Core-model tests for the configurable issue width: IPC scaling on
 * compute-bound code, slot accounting across mixed ops, fault flushes
 * under wide issue, the rejection of a zero width, and the window ring
 * across a snapshot.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "sim/snapshot.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x200000;

SystemConfig
widthConfig(unsigned width)
{
    SystemConfig cfg;
    cfg.issueWidth = width;
    return cfg;
}

TEST(CoreWidth, ComputeIpcScalesWithWidth)
{
    for (unsigned width : {1u, 2u, 4u}) {
        System sys(widthConfig(width));
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        Trace trace;
        trace.push_back(TraceOp::compute(1200));
        core.run(asid, trace, 0);
        EXPECT_EQ(core.epochCycles(), 1200u / width) << "width " << width;
    }
}

TEST(CoreWidth, MixedSlotAccountingIsExact)
{
    // 2-wide: compute(3) uses 1.5 cycles; a following load shares the
    // second cycle's remaining slot.
    System sys(widthConfig(2));
    OooCore core("core", sys);
    Asid asid = sys.createProcess();
    sys.mapAnon(asid, kBase, kPageSize);
    Trace warm;
    warm.push_back(TraceOp::load(kBase));
    Tick t0 = core.run(asid, warm, 0);

    Trace trace;
    for (int i = 0; i < 100; ++i) {
        trace.push_back(TraceOp::compute(3));
        trace.push_back(TraceOp::load(kBase)); // L1 hit
    }
    core.run(asid, trace, t0);
    // 400 instructions at width 2 -> at least 200 cycles, and the L1
    // hits should keep it near that bound.
    EXPECT_GE(core.epochCycles(), 200u);
    EXPECT_LE(core.epochCycles(), 230u);
}

TEST(CoreWidth, WideIssueStillFlushesOnFaults)
{
    System sys(widthConfig(4));
    OooCore core("core", sys);
    Asid parent = sys.createProcess();
    sys.mapAnon(parent, kBase, kPageSize);
    Tick t = 0;
    sys.fork(parent, ForkMode::CopyOnWrite, 0, &t);

    core.beginEpoch(t);
    core.executeOp(parent, TraceOp::store(kBase)); // CoW fault
    core.executeOp(parent, TraceOp::compute(4));
    Tick done = core.finishEpoch();
    // The fault serialized: the compute could not start before the
    // fault completed (trap + copy + shootdown >> 4 cycles).
    EXPECT_GT(done - t, sys.config().tlbShootdownCycles());
}

TEST(CoreWidth, DefaultMatchesTable2SingleIssue)
{
    System sys((SystemConfig()));
    EXPECT_EQ(sys.config().issueWidth, 1u);
    OooCore core("core", sys);
    Asid asid = sys.createProcess();
    Trace trace;
    trace.push_back(TraceOp::compute(500));
    core.run(asid, trace, 0);
    EXPECT_EQ(core.epochCycles(), 500u);
}

TEST(CoreWidthDeathTest, ZeroIssueWidthIsRejected)
{
    // A compute op divides by the width: the core refuses it up front.
    EXPECT_DEATH(
        {
            System sys(widthConfig(0));
            OooCore core("core", sys);
        },
        "issueWidth");
}

TEST(CoreWidth, WindowRingResumesOldestFirstFromASnapshot)
{
    // A 4-entry window over loads of mixed latency (L1 hits and misses
    // to DRAM): the ring has wrapped many times when the machine and the
    // core are saved mid-epoch. A twin restored from those bytes must
    // see the same outstanding completions in the same order, so it
    // stalls exactly as the original does on the rest of the stream.
    SystemConfig cfg;
    cfg.instructionWindow = 4;
    Rng rng(3);
    std::vector<TraceOp> ops;
    for (int i = 0; i < 4000; ++i) {
        const Addr line = rng.below(4) == 0 ? rng.below(64) : rng.below(4096);
        ops.push_back(TraceOp::load(kBase + line * kLineSize));
    }
    auto prepare = [&](System &sys) {
        Asid asid = sys.createProcess();
        sys.mapAnon(asid, kBase, 4096 * kLineSize);
        return asid;
    };

    System sys(cfg);
    OooCore core("core", sys);
    const Asid asid = prepare(sys);
    core.beginEpoch(0);
    for (std::size_t i = 0; i < 2001; ++i)
        core.executeOp(asid, ops[i]);
    snapshot::Writer w;
    snapshot::visit(sys, w);
    snapshot::visit(core, w);
    const std::vector<std::uint8_t> bytes = w.takeBuffer();

    System twin_sys(cfg);
    OooCore twin("core", twin_sys);
    prepare(twin_sys);
    snapshot::Reader r(bytes);
    snapshot::visit(twin_sys, r);
    snapshot::visit(twin, r);
    ASSERT_TRUE(r.atEnd());
    snapshot::Writer again;
    snapshot::visit(twin_sys, again);
    snapshot::visit(twin, again);
    EXPECT_EQ(again.takeBuffer(), bytes);

    for (std::size_t i = 2001; i < ops.size(); ++i) {
        core.executeOp(asid, ops[i]);
        twin.executeOp(asid, ops[i]);
    }
    EXPECT_EQ(twin.finishEpoch(), core.finishEpoch());
    std::ostringstream a, b;
    core.dumpStats(a);
    twin.dumpStats(b);
    EXPECT_EQ(b.str(), a.str());
}

} // namespace
} // namespace ovl
