/**
 * @file
 * Timed sparse-matrix-vector multiplication engines for the §5.2
 * evaluation: the dense baseline, CSR [26], and the paper's
 * overlay-based computation model (dense code + hardware zero-line
 * skipping). Each engine drives the OooCore with the instruction/memory
 * stream the corresponding implementation would execute and produces the
 * functional result for verification.
 */

#ifndef OVERLAYSIM_SPARSE_SPMV_HH
#define OVERLAYSIM_SPARSE_SPMV_HH

#include <cstdint>
#include <vector>

#include "cpu/ooo_core.hh"
#include "sparse/csr.hh"
#include "sparse/matrix.hh"
#include "sparse/overlay_matrix.hh"
#include "system/system.hh"

namespace ovl
{

/** Instructions per 8-value line of dense FMA work: 8 FMA + loop ops. */
constexpr std::uint32_t kLineComputeOps = 16;
/** Per-row loop overhead instructions. */
constexpr std::uint32_t kRowOverheadOps = 3;

/** Result of one timed SpMV run. */
struct SpmvResult
{
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<double> y;

    double
    cpi() const
    {
        return instructions == 0 ? 0.0
                                 : double(cycles) / double(instructions);
    }
};

/** Virtual-address plan of one SpMV experiment. */
struct SpmvAddrs
{
    Addr aBase = 0x1000'0000;      ///< matrix (dense or overlay layout)
    Addr xBase = 0x4000'0000;      ///< input vector
    Addr yBase = 0x4800'0000;      ///< output vector
    Addr csrValBase = 0x5000'0000; ///< CSR values array
    Addr csrColBase = 0x6000'0000; ///< CSR column indices
    Addr csrRowBase = 0x6800'0000; ///< CSR row pointers
};

/** Map and initialize the x (input) and y (output) vectors. */
void installVectors(System &system, Asid asid, const SpmvAddrs &addrs,
                    const std::vector<double> &x, std::uint32_t rows);

/** Map the matrix range as regular memory and store it densely. */
void installDense(System &system, Asid asid, Addr a_base,
                  const CooMatrix &coo);

/** Map and store the three CSR arrays as regular memory. */
void installCsr(System &system, Asid asid, const SpmvAddrs &addrs,
                const CsrMatrix &csr);

/**
 * Dense-code SpMV over a regular dense matrix: touches every line of
 * every row.
 */
SpmvResult spmvDense(System &system, OooCore &core, Asid asid,
                     const SpmvAddrs &addrs, const DenseLayout &layout,
                     const std::vector<double> &x, Tick start);

/**
 * The overlay computation model (§5.2): the same dense code, but the
 * hardware walks the OBitVector and only fetches/computes non-zero
 * lines (and can prefetch them, since it knows the overlay layout).
 */
SpmvResult spmvOverlay(System &system, OooCore &core,
                       const OverlayMatrix &matrix, const SpmvAddrs &addrs,
                       const std::vector<double> &x, Tick start);

/**
 * CSR SpMV: per non-zero, a column-index load, a dependent gather from
 * x, and a value load (the 1.5x metadata traffic of §5.2).
 */
SpmvResult spmvCsr(System &system, OooCore &core, Asid asid,
                   const SpmvAddrs &addrs, const CsrMatrix &csr,
                   const std::vector<double> &x, Tick start);

/** The matrix representation a runSpmv() machine stores. */
enum class SpmvRep
{
    Dense,   ///< every line stored, zero or not (installDense)
    Csr,     ///< the three CSR arrays (installCsr)
    Overlay, ///< zero-backed overlay pages (OverlayMatrix)
};

/** Outcome of runSpmv(). */
struct SpmvRun
{
    SpmvResult result;
    /**
     * Bytes the representation stores: OverlayMatrix::storedBytes(),
     * CsrMatrix::bytes() or DenseLayout::bytes().
     */
    std::uint64_t bytes = 0;
};

/**
 * One SpMV experiment on a fresh machine built from @p config: a System
 * and core, one process, x and y (installVectors) and the matrix in
 * representation @p rep at the default SpmvAddrs. The setup is untimed
 * and the memory system is quiesced before the kernel runs from tick 0,
 * so the three representations start from the same idle machine.
 */
SpmvRun runSpmv(const CooMatrix &coo, const std::vector<double> &x,
                SpmvRep rep, const SystemConfig &config = {});

} // namespace ovl

#endif // OVERLAYSIM_SPARSE_SPMV_HH
