/**
 * @file
 * Tests for the workload generators: the matrix generator must hit its
 * target L across the whole sweep (parameterized), and the fork
 * benchmarks must behave per their type taxonomy.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workload/forkbench.hh"
#include "workload/matrixgen.hh"

namespace ovl
{
namespace
{

TEST(MatrixGen, SuiteHas87MatricesSortedByL)
{
    std::vector<MatrixSpec> suite = sparseSuite87();
    ASSERT_EQ(suite.size(), 87u);
    for (std::size_t i = 1; i < suite.size(); ++i)
        EXPECT_LE(suite[i - 1].targetL, suite[i].targetL);
    EXPECT_EQ(suite.front().name, "poisson3Db");
    EXPECT_EQ(suite.back().name, "raefsky4");
    // The paper's split: 34 of 87 matrices have L > 4.5.
    unsigned high = 0;
    for (const MatrixSpec &s : suite)
        high += s.targetL > 4.5;
    EXPECT_EQ(high, 34u);
}

TEST(MatrixGen, UniformSparsityIsFullyDenseLines)
{
    CooMatrix coo = generateUniformSparsity(64, 64, 0.5, 3);
    MatrixStats stats = analyzeMatrix(coo, 64);
    EXPECT_DOUBLE_EQ(stats.locality, 8.0);
    // Roughly half the lines are zero.
    std::uint64_t total_lines = 64 * 64 / 8;
    EXPECT_NEAR(double(stats.nonZeroBlocks), total_lines * 0.5,
                total_lines * 0.1);
}

TEST(MatrixGen, ZeroFractionExtremes)
{
    CooMatrix dense = generateUniformSparsity(16, 16, 0.0, 1);
    EXPECT_EQ(dense.nnz(), 16u * 16);
    CooMatrix empty = generateUniformSparsity(16, 16, 1.0, 1);
    EXPECT_EQ(empty.nnz(), 0u);
}

/** Parameterized: realized L must track the target across the sweep. */
class MatrixGenSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(MatrixGenSweep, RealizedLocalityMatchesTarget)
{
    double target = GetParam();
    for (auto family :
         {MatrixFamily::Scattered, MatrixFamily::Banded,
          MatrixFamily::BlockDense, MatrixFamily::PowerLaw}) {
        MatrixSpec spec;
        spec.family = family;
        spec.rows = 512;
        spec.cols = 512;
        spec.nnz = 20'000;
        spec.targetL = target;
        spec.seed = 7 + unsigned(family);
        CooMatrix coo = generateMatrix(spec);
        MatrixStats stats = analyzeMatrix(coo, 64);
        EXPECT_NEAR(stats.locality, target, target * 0.12)
            << "family " << int(family);
        EXPECT_GT(stats.nnz, spec.nnz * 9 / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(LocalitySweep, MatrixGenSweep,
                         ::testing::Values(1.05, 1.5, 2.0, 3.0, 4.0, 4.5,
                                           5.5, 6.5, 7.5, 8.0));

TEST(MatrixGen, EntriesWithinBounds)
{
    for (unsigned fam = 0; fam < 4; ++fam) {
        MatrixSpec spec;
        spec.family = MatrixFamily(fam);
        spec.rows = 256;
        spec.cols = 256;
        spec.nnz = 5000;
        spec.targetL = 3.0;
        CooMatrix coo = generateMatrix(spec);
        for (const CooEntry &e : coo.entries) {
            ASSERT_LT(e.row, coo.rows);
            ASSERT_LT(e.col, coo.cols);
            ASSERT_NE(e.value, 0.0);
        }
    }
}

TEST(MatrixGen, DeterministicForFixedSeed)
{
    MatrixSpec spec;
    spec.nnz = 1000;
    CooMatrix a = generateMatrix(spec);
    CooMatrix b = generateMatrix(spec);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].row, b.entries[i].row);
        EXPECT_EQ(a.entries[i].col, b.entries[i].col);
        EXPECT_DOUBLE_EQ(a.entries[i].value, b.entries[i].value);
    }
}

TEST(ForkBench, SuiteHasFifteenNamedBenchmarks)
{
    const auto &suite = forkBenchSuite();
    ASSERT_EQ(suite.size(), 15u);
    unsigned per_type[4] = {0, 0, 0, 0};
    for (const auto &p : suite) {
        ASSERT_GE(p.type, 1u);
        ASSERT_LE(p.type, 3u);
        ++per_type[p.type];
    }
    EXPECT_EQ(per_type[1], 5u);
    EXPECT_EQ(per_type[2], 5u);
    EXPECT_EQ(per_type[3], 5u);
    EXPECT_EQ(forkBenchByName("cactus").type, 2u);
    EXPECT_EQ(forkBenchByName("cactus").pattern, WritePattern::Clustered);
    EXPECT_EQ(forkBenchByName("lbm").pattern, WritePattern::Streaming);
}

/** A scaled-down benchmark config so the test runs in milliseconds. */
ForkBenchParams
scaledDown(const char *name)
{
    ForkBenchParams p = forkBenchByName(name);
    p.warmupInstructions = 40'000;
    p.postForkInstructions = 250'000;
    p.footprintPages /= 4;
    p.hotPages /= 4;
    p.dirtyPages = std::max<std::uint64_t>(8, p.dirtyPages / 4);
    return p;
}

TEST(ForkBench, Type3OverlaySavesMemory)
{
    ForkBenchParams p = scaledDown("mcf");
    ForkBenchResult cow = runForkBench(p, ForkMode::CopyOnWrite,
                                       SystemConfig{});
    ForkBenchResult oow = runForkBench(p, ForkMode::OverlayOnWrite,
                                       SystemConfig{});
    // Sparse dirtied pages: overlays need a small fraction of the
    // memory page copies need (Figure 8, Type 3).
    EXPECT_LT(oow.additionalMemoryMB, cow.additionalMemoryMB * 0.6);
    EXPECT_GT(cow.cowFaults, 0u);
    EXPECT_GT(oow.overlayingWrites, 0u);
    EXPECT_EQ(oow.cowFaults, 0u);
}

TEST(ForkBench, Type2MemoryIsComparable)
{
    ForkBenchParams p = scaledDown("lbm");
    ForkBenchResult cow = runForkBench(p, ForkMode::CopyOnWrite,
                                       SystemConfig{});
    ForkBenchResult oow = runForkBench(p, ForkMode::OverlayOnWrite,
                                       SystemConfig{});
    // Nearly all lines of each dirtied page are written: both schemes
    // consume about the same memory (Figure 8, Type 2).
    EXPECT_GT(oow.additionalMemoryMB, cow.additionalMemoryMB * 0.7);
    EXPECT_LT(oow.additionalMemoryMB, cow.additionalMemoryMB * 1.6);
}

TEST(ForkBench, DeterministicAcrossRuns)
{
    ForkBenchParams p = scaledDown("libq");
    ForkBenchResult a = runForkBench(p, ForkMode::CopyOnWrite,
                                     SystemConfig{});
    ForkBenchResult b = runForkBench(p, ForkMode::CopyOnWrite,
                                     SystemConfig{});
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_DOUBLE_EQ(a.additionalMemoryMB, b.additionalMemoryMB);
}

TEST(WarmStart, PairMatchesColdRunsUnderSweptConfigs)
{
    // The core and write-buffer configs abl_core and abl_write_buffer
    // sweep: both modes forked from one warm state equal two cold runs.
    ForkBenchParams p = forkBenchByName("mcf");
    p.warmupInstructions = 40'000;
    p.postForkInstructions = 100'000;
    SystemConfig wide;
    wide.issueWidth = 4;
    wide.instructionWindow = 256;
    SystemConfig small_wbuf;
    small_wbuf.writeBufferEntries = 4;
    for (const SystemConfig &cfg : {wide, small_wbuf}) {
        SCOPED_TRACE(cfg.writeBufferEntries);
        ForkBenchPair pair = runForkBenchPair(p, cfg);
        const std::pair<ForkMode, const ForkBenchResult *> runs[] = {
            {ForkMode::CopyOnWrite, &pair.cow},
            {ForkMode::OverlayOnWrite, &pair.oow},
        };
        for (const auto &[mode, warm] : runs) {
            ForkBenchResult cold = runForkBench(p, mode, cfg);
            EXPECT_EQ(warm->mode, mode);
            EXPECT_EQ(warm->additionalMemoryMB, cold.additionalMemoryMB);
            EXPECT_EQ(warm->cpi, cold.cpi);
            EXPECT_EQ(warm->cowFaults, cold.cowFaults);
            EXPECT_EQ(warm->overlayingWrites, cold.overlayingWrites);
            EXPECT_EQ(warm->forkLatency, cold.forkLatency);
        }
    }
}

} // namespace
} // namespace ovl
