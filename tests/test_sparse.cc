/**
 * @file
 * Tests for the sparse-matrix stack (§5.2): COO, CSR (including the
 * costly dynamic insert), matrix statistics (the L metric), the overlay
 * representation, and agreement of all SpMV engines with the reference.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "sparse/csr.hh"
#include "sparse/matrix.hh"
#include "sparse/overlay_matrix.hh"
#include "sparse/spmv.hh"
#include "workload/matrixgen.hh"

namespace ovl
{
namespace
{

CooMatrix
tinyMatrix()
{
    // 2x16 matrix (two lines per row with 8-wide lines).
    CooMatrix coo;
    coo.name = "tiny";
    coo.rows = 2;
    coo.cols = 16;
    coo.entries = {
        {0, 0, 1.0}, {0, 15, 2.0}, {1, 3, 3.0}, {1, 4, 4.0}, {1, 5, 5.0},
    };
    coo.canonicalize();
    return coo;
}

TEST(Coo, CanonicalizeSortsAndDedups)
{
    CooMatrix coo;
    coo.rows = 4;
    coo.cols = 8;
    coo.entries = {{2, 1, 5.0}, {0, 3, 1.0}, {2, 1, 7.0}, {1, 0, 2.0}};
    coo.canonicalize();
    ASSERT_EQ(coo.entries.size(), 3u);
    EXPECT_EQ(coo.entries[0].row, 0u);
    EXPECT_EQ(coo.entries[1].row, 1u);
    EXPECT_EQ(coo.entries[2].row, 2u);
    EXPECT_DOUBLE_EQ(coo.entries[2].value, 7.0); // last duplicate wins
}

TEST(DenseLayoutTest, PaddedStrideAlignsRowsToLines)
{
    DenseLayout layout(10, 20);
    EXPECT_EQ(layout.paddedCols, 24u);
    EXPECT_EQ(layout.offsetOf(1, 0) % kLineSize, 0u);
    EXPECT_EQ(layout.bytes(), 10u * 24 * 8);
}

TEST(MatrixStatsTest, LocalityMetric)
{
    CooMatrix coo = tinyMatrix();
    MatrixStats stats = analyzeMatrix(coo, 64);
    // Non-zero lines: (0,0), (0,15) in line 1, (1,3..5) in one line.
    EXPECT_EQ(stats.nnz, 5u);
    EXPECT_EQ(stats.nonZeroBlocks, 3u);
    EXPECT_DOUBLE_EQ(stats.locality, 5.0 / 3.0);
}

TEST(MatrixStatsTest, CoarserBlocksNeverIncreaseBlockCount)
{
    CooMatrix coo = generateMatrix(MatrixSpec{});
    std::uint64_t prev = ~std::uint64_t(0);
    for (std::uint64_t block = 16; block <= 4096; block *= 2) {
        MatrixStats s = analyzeMatrix(coo, block);
        EXPECT_LE(s.nonZeroBlocks, prev);
        prev = s.nonZeroBlocks;
    }
}

TEST(CsrTest, FromCooAndSpmv)
{
    CooMatrix coo = tinyMatrix();
    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    EXPECT_EQ(csr.nnz(), 5u);
    EXPECT_EQ(csr.rowPtr().size(), 3u);
    std::vector<double> x(16, 1.0);
    std::vector<double> y = csr.spmv(x);
    std::vector<double> ref = spmvReference(coo, x);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_DOUBLE_EQ(y[i], ref[i]);
}

TEST(CsrTest, MetadataOverheadIsOnePointFive)
{
    // §5.2: 8 B values + 12 B of index metadata per non-zero (plus row
    // pointers): overhead ~1.5x the payload.
    CooMatrix coo = generateMatrix(MatrixSpec{});
    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    double payload = double(csr.nnz() * 8);
    double overhead = double(csr.bytes()) - payload;
    EXPECT_NEAR(overhead / payload, 0.5, 0.05);
}

TEST(CsrTest, InsertShiftsTail)
{
    CooMatrix coo = tinyMatrix();
    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    // In-place update is free.
    EXPECT_EQ(csr.insert(0, 0, 9.0), 0u);
    // Structural insert moves every later element.
    std::uint64_t moved = csr.insert(0, 7, 1.5);
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(csr.nnz(), 6u);
    std::vector<double> x(16, 1.0);
    std::vector<double> y = csr.spmv(x);
    EXPECT_DOUBLE_EQ(y[0], 9.0 + 2.0 + 1.5);
}

class OverlayMatrixTest : public ::testing::Test
{
  protected:
    OverlayMatrixTest() : sys(SystemConfig{})
    {
        asid = sys.createProcess();
    }

    System sys;
    Asid asid = 0;
};

TEST_F(OverlayMatrixTest, BuildStoresOnlyNonZeroLines)
{
    CooMatrix coo = tinyMatrix();
    OverlayMatrix m(sys, asid, 0x1000'0000);
    m.build(coo);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 15), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 4), 4.0);
    EXPECT_DOUBLE_EQ(m.at(0, 7), 0.0); // zero line reads as zero
    EXPECT_DOUBLE_EQ(m.at(1, 15), 0.0);
    // Three non-zero lines fit in one minimal 256 B segment (Figure 7).
    EXPECT_EQ(sys.overlayManager().omsBytesInUse(), 256u);
    EXPECT_GT(m.storedBytes(), 0u);
}

TEST_F(OverlayMatrixTest, DynamicInsertIsOneOverlayingWrite)
{
    CooMatrix coo = tinyMatrix();
    OverlayMatrix m(sys, asid, 0x1000'0000);
    m.build(coo);
    std::uint64_t before = sys.overlayingWrites();
    m.insert(1, 8, 6.5, 0); // a new line of row 1 (cols 8-15 were zero)
    EXPECT_EQ(sys.overlayingWrites(), before + 1);
    EXPECT_DOUBLE_EQ(m.at(1, 8), 6.5);
    // Inserting into an existing line is a simple write.
    m.insert(1, 5, 7.5, 1000);
    EXPECT_EQ(sys.overlayingWrites(), before + 1);
    EXPECT_DOUBLE_EQ(m.at(1, 5), 7.5);
}

TEST(SpmvEngines, AllAgreeWithReference)
{
    MatrixSpec spec;
    spec.rows = 64;
    spec.cols = 64;
    spec.nnz = 600;
    spec.targetL = 3.0;
    spec.seed = 5;
    CooMatrix coo = generateMatrix(spec);

    std::vector<double> x(coo.cols);
    Rng rng(17);
    for (double &v : x)
        v = rng.uniform();
    std::vector<double> ref = spmvReference(coo, x);

    SpmvAddrs addrs;

    // Overlay engine.
    {
        System sys(SystemConfig{});
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        installVectors(sys, asid, addrs, x, coo.rows);
        OverlayMatrix m(sys, asid, addrs.aBase);
        m.build(coo);
        SpmvResult res = spmvOverlay(sys, core, m, addrs, x, 0);
        ASSERT_EQ(res.y.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(res.y[i], ref[i], 1e-9) << "overlay row " << i;
        EXPECT_GT(res.cycles, 0u);
    }
    // CSR engine.
    {
        System sys(SystemConfig{});
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        installVectors(sys, asid, addrs, x, coo.rows);
        CsrMatrix csr = CsrMatrix::fromCoo(coo);
        installCsr(sys, asid, addrs, csr);
        SpmvResult res = spmvCsr(sys, core, asid, addrs, csr, x, 0);
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(res.y[i], ref[i], 1e-9) << "csr row " << i;
    }
    // Dense engine.
    {
        System sys(SystemConfig{});
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        installVectors(sys, asid, addrs, x, coo.rows);
        installDense(sys, asid, addrs.aBase, coo);
        SpmvResult res = spmvDense(sys, core, asid, addrs,
                                   DenseLayout(coo.rows, coo.cols), x, 0);
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(res.y[i], ref[i], 1e-9) << "dense row " << i;
    }
}

TEST(SpmvEngines, OverlaySkipsZeroLines)
{
    // A nearly-empty matrix: the overlay engine touches far fewer
    // instructions than the dense engine.
    MatrixSpec spec;
    spec.rows = 128;
    spec.cols = 128;
    spec.nnz = 64;
    spec.targetL = 8.0;
    CooMatrix coo = generateMatrix(spec);
    std::vector<double> x(coo.cols, 1.0);
    SpmvAddrs addrs;

    System sys(SystemConfig{});
    OooCore core("core", sys);
    Asid asid = sys.createProcess();
    installVectors(sys, asid, addrs, x, coo.rows);
    OverlayMatrix m(sys, asid, addrs.aBase);
    m.build(coo);
    SpmvResult overlay = spmvOverlay(sys, core, m, addrs, x, 0);

    System sys2(SystemConfig{});
    OooCore core2("core", sys2);
    Asid asid2 = sys2.createProcess();
    installVectors(sys2, asid2, addrs, x, coo.rows);
    installDense(sys2, asid2, addrs.aBase, coo);
    SpmvResult dense = spmvDense(sys2, core2, asid2, addrs,
                                 DenseLayout(coo.rows, coo.cols), x, 0);

    EXPECT_LT(overlay.instructions, dense.instructions / 4);
    EXPECT_LT(overlay.cycles, dense.cycles);
}

TEST(Spmv, RunSpmvMatchesHandBuiltMachines)
{
    // runSpmv is the explicit recipe: one fresh machine per
    // representation, install, quiesce, kernel from tick 0.
    MatrixSpec spec;
    spec.rows = 128;
    spec.cols = 128;
    spec.nnz = 1500;
    spec.targetL = 5.0;
    spec.seed = 9;
    CooMatrix coo = generateMatrix(spec);
    std::vector<double> x(coo.cols);
    Rng rng(23);
    for (double &v : x)
        v = rng.uniform();
    SpmvAddrs addrs;

    for (SpmvRep rep : {SpmvRep::Dense, SpmvRep::Csr, SpmvRep::Overlay}) {
        SCOPED_TRACE(int(rep));
        System sys(SystemConfig{});
        OooCore core("core", sys);
        Asid asid = sys.createProcess();
        installVectors(sys, asid, addrs, x, coo.rows);
        SpmvResult want;
        std::uint64_t want_bytes = 0;
        if (rep == SpmvRep::Dense) {
            DenseLayout layout(coo.rows, coo.cols);
            installDense(sys, asid, addrs.aBase, coo);
            sys.quiesce();
            want = spmvDense(sys, core, asid, addrs, layout, x, 0);
            want_bytes = layout.bytes();
        } else if (rep == SpmvRep::Csr) {
            CsrMatrix csr = CsrMatrix::fromCoo(coo);
            installCsr(sys, asid, addrs, csr);
            sys.quiesce();
            want = spmvCsr(sys, core, asid, addrs, csr, x, 0);
            want_bytes = csr.bytes();
        } else {
            OverlayMatrix m(sys, asid, addrs.aBase);
            m.build(coo);
            sys.quiesce();
            want = spmvOverlay(sys, core, m, addrs, x, 0);
            want_bytes = m.storedBytes();
        }

        SpmvRun got = runSpmv(coo, x, rep);
        EXPECT_GT(want.cycles, 0u);
        EXPECT_EQ(got.result.cycles, want.cycles);
        EXPECT_EQ(got.result.instructions, want.instructions);
        EXPECT_EQ(got.result.y, want.y);
        EXPECT_EQ(got.bytes, want_bytes);
    }
}

} // namespace
} // namespace ovl
