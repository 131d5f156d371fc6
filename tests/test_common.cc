/**
 * @file
 * Unit and property tests for src/common: BitVector64, integer math,
 * address geometry, the command-line helpers, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector64.hh"
#include "common/cli.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace ovl
{
namespace
{

TEST(BitVector64, StartsEmpty)
{
    BitVector64 bv;
    EXPECT_TRUE(bv.none());
    EXPECT_FALSE(bv.any());
    EXPECT_EQ(bv.count(), 0u);
    EXPECT_EQ(bv.findFirst(), 64u);
}

TEST(BitVector64, SetTestClear)
{
    BitVector64 bv;
    bv.set(0);
    bv.set(63);
    bv.set(17);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(17));
    EXPECT_FALSE(bv.test(16));
    EXPECT_EQ(bv.count(), 3u);
    bv.clear(17);
    EXPECT_FALSE(bv.test(17));
    EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector64, AssignMatchesSetClear)
{
    BitVector64 a, b;
    a.assign(5, true);
    b.set(5);
    EXPECT_EQ(a, b);
    a.assign(5, false);
    b.clear(5);
    EXPECT_EQ(a, b);
}

TEST(BitVector64, FillAndAll)
{
    BitVector64 bv;
    bv.fill();
    EXPECT_TRUE(bv.all());
    EXPECT_EQ(bv.count(), 64u);
    bv.clear(33);
    EXPECT_FALSE(bv.all());
    EXPECT_EQ(bv.findFirstClear(), 33u);
}

TEST(BitVector64, FindFirstAndNextWalkSetBits)
{
    BitVector64 bv;
    bv.set(3);
    bv.set(9);
    bv.set(62);
    EXPECT_EQ(bv.findFirst(), 3u);
    EXPECT_EQ(bv.findNext(3), 9u);
    EXPECT_EQ(bv.findNext(9), 62u);
    EXPECT_EQ(bv.findNext(62), 64u);
}

TEST(BitVector64, FindNextFromBit63)
{
    BitVector64 bv;
    bv.set(63);
    EXPECT_EQ(bv.findNext(62), 63u);
    EXPECT_EQ(bv.findNext(63), 64u);
}

TEST(BitVector64, IterationVisitsExactlyTheSetBits)
{
    // Property: findFirst/findNext enumerate the same set that test()
    // reports, in ascending order, for arbitrary patterns.
    Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector64 bv(rng.next());
        std::set<unsigned> expected;
        for (unsigned i = 0; i < 64; ++i) {
            if (bv.test(i))
                expected.insert(i);
        }
        std::set<unsigned> visited;
        for (unsigned i = bv.findFirst(); i < 64; i = bv.findNext(i))
            visited.insert(i);
        EXPECT_EQ(visited, expected);
        EXPECT_EQ(bv.count(), unsigned(expected.size()));
    }
}

TEST(BitVector64, BitwiseOperators)
{
    BitVector64 a(0b1100), b(0b1010);
    EXPECT_EQ((a | b).raw(), 0b1110u);
    EXPECT_EQ((a & b).raw(), 0b1000u);
    EXPECT_EQ((~BitVector64(0)).count(), 64u);
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(IntMath, DivCeilAndRounding)
{
    EXPECT_EQ(divCeil(10, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(roundUp(100, 64), 128u);
    EXPECT_EQ(roundUp(128, 64), 128u);
    EXPECT_EQ(roundDown(100, 64), 64u);
}

TEST(AddressGeometry, PageAndLineHelpers)
{
    Addr a = 0x12345678;
    EXPECT_EQ(pageNumber(a), a >> 12);
    EXPECT_EQ(pageBase(a) + pageOffset(a), a);
    EXPECT_EQ(lineBase(a) & kLineMask, 0u);
    EXPECT_LT(lineInPage(a), kLinesPerPage);
    EXPECT_EQ(lineInPage(0x1000), 0u);
    EXPECT_EQ(lineInPage(0x1FC0), 63u);
}

TEST(AddressGeometry, SixtyFourLinesPerPage)
{
    EXPECT_EQ(kLinesPerPage, 64u);
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(kLineSize, 64u);
}

TEST(AddressGeometry, LineChunksSplitAtLineBoundaries)
{
    // 10 bytes before a line boundary, one full line, then 6 bytes.
    std::vector<std::pair<Addr, std::size_t>> chunks;
    std::size_t expected_off = 0;
    forEachLineChunk(0x1036, 80, [&](Addr va, std::size_t off,
                                     std::size_t len) {
        EXPECT_EQ(off, expected_off);
        expected_off += len;
        chunks.emplace_back(va, len);
    });
    using Chunk = std::pair<Addr, std::size_t>;
    EXPECT_EQ(chunks, (std::vector<Chunk>{
                          {0x1036, 10}, {0x1040, 64}, {0x1080, 6}}));
    forEachLineChunk(0x1000, 0, [](Addr, std::size_t, std::size_t) {
        ADD_FAILURE() << "empty range produced a chunk";
    });
}

TEST(Cli, ParseCountAcceptsPlainDecimal)
{
    EXPECT_EQ(cli::parseCount("--n", "0"), 0u);
    EXPECT_EQ(cli::parseCount("--n", "1000000"), 1'000'000u);
    EXPECT_EQ(cli::parseCount("--n", "18446744073709551615"),
              18446744073709551615ull);
}

TEST(Cli, ParseCountRejectsWhatStrtoullWouldTruncate)
{
    // strtoull would read each as a silent prefix (1e6 -> 1, 5k -> 5)
    // or saturate; a flag value must be all digits and fit in 64 bits.
    for (const char *bad : {"", "1e6", "5k", "12 ", " 12", "-1", "+1",
                            "0x10", "18446744073709551616"}) {
        EXPECT_THROW(cli::parseCount("--n", bad), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(Cli, ParseCountErrorNamesTheFlagAndValue)
{
    try {
        cli::parseCount("--post-instr", "1e6");
        FAIL() << "no exception";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("--post-instr"), std::string::npos) << what;
        EXPECT_NE(what.find("'1e6'"), std::string::npos) << what;
    }
}

TEST(Cli, TakeFlagRemovesTheFirstPairOnly)
{
    std::vector<std::string> args = {"libq", "--mode", "cow", "--x",
                                      "--mode", "oow"};
    EXPECT_EQ(cli::takeFlag(args, "--mode"), "cow");
    EXPECT_EQ(args, (std::vector<std::string>{"libq", "--x", "--mode",
                                              "oow"}));
    EXPECT_EQ(cli::takeFlag(args, "--absent"), std::nullopt);
    // A trailing flag with no value is left in place.
    std::vector<std::string> dangling = {"--mode"};
    EXPECT_EQ(cli::takeFlag(dangling, "--mode"), std::nullopt);
    EXPECT_EQ(dangling.size(), 1u);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(7), b(8);
    bool diverged = false;
    for (int i = 0; i < 10 && !diverged; ++i)
        diverged = a.next() != b.next();
    EXPECT_TRUE(diverged);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(123);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

} // namespace
} // namespace ovl
