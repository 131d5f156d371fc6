#include "spmv.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace ovl
{

namespace
{

/** Map an anonymous region covering @p bytes at @p base. */
void
mapRegion(System &system, Asid asid, Addr base, std::uint64_t bytes)
{
    std::uint64_t len = roundUp(std::max<std::uint64_t>(bytes, 1), kPageSize);
    system.mapAnon(asid, base, len);
}

/** Per-non-zero CSR compute: one FMA plus loop increment/compare. */
constexpr std::uint32_t kCsrNnzComputeOps = 3;

} // namespace

void
installVectors(System &system, Asid asid, const SpmvAddrs &addrs,
               const std::vector<double> &x, std::uint32_t rows)
{
    mapRegion(system, asid, addrs.xBase, x.size() * 8);
    mapRegion(system, asid, addrs.yBase, std::uint64_t(rows) * 8);
    for (std::size_t i = 0; i < x.size(); ++i) {
        system.poke(asid, addrs.xBase + i * 8, &x[i], sizeof(double));
    }
}

void
installDense(System &system, Asid asid, Addr a_base, const CooMatrix &coo)
{
    DenseLayout layout(coo.rows, coo.cols);
    mapRegion(system, asid, a_base, layout.bytes());
    for (const CooEntry &e : coo.entries) {
        system.poke(asid, a_base + layout.offsetOf(e.row, e.col), &e.value,
                    sizeof(double));
    }
}

void
installCsr(System &system, Asid asid, const SpmvAddrs &addrs,
           const CsrMatrix &csr)
{
    mapRegion(system, asid, addrs.csrValBase, csr.nnz() * 8);
    mapRegion(system, asid, addrs.csrColBase, csr.nnz() * 4);
    mapRegion(system, asid, addrs.csrRowBase, csr.rowPtr().size() * 4);
    for (std::size_t i = 0; i < csr.values().size(); ++i) {
        system.poke(asid, addrs.csrValBase + i * 8, &csr.values()[i], 8);
        system.poke(asid, addrs.csrColBase + i * 4, &csr.colIdx()[i], 4);
    }
    for (std::size_t i = 0; i < csr.rowPtr().size(); ++i)
        system.poke(asid, addrs.csrRowBase + i * 4, &csr.rowPtr()[i], 4);
}

SpmvResult
spmvDense(System &system, OooCore &core, Asid asid, const SpmvAddrs &addrs,
          const DenseLayout &layout, const std::vector<double> &x,
          Tick start)
{
    SpmvResult res;
    res.y.assign(layout.rows, 0.0);
    core.beginEpoch(start);

    for (std::uint32_t r = 0; r < layout.rows; ++r) {
        double acc = 0.0;
        for (std::uint32_t c0 = 0; c0 < layout.cols;
             c0 += DenseLayout::kValuesPerLine) {
            Addr a_line = addrs.aBase + layout.offsetOf(r, c0);
            core.executeOp(asid, TraceOp::load(a_line));
            core.executeOp(asid, TraceOp::load(addrs.xBase + Addr(c0) * 8));
            core.executeOp(asid, TraceOp::compute(kLineComputeOps));

            double a_vals[DenseLayout::kValuesPerLine];
            system.peek(asid, a_line, a_vals, sizeof(a_vals));
            unsigned n = std::min<std::uint32_t>(DenseLayout::kValuesPerLine,
                                                 layout.cols - c0);
            for (unsigned k = 0; k < n; ++k)
                acc += a_vals[k] * x[c0 + k];
        }
        core.executeOp(asid, TraceOp::compute(kRowOverheadOps));
        core.executeOp(asid, TraceOp::store(addrs.yBase + Addr(r) * 8));
        res.y[r] = acc;
        system.poke(asid, addrs.yBase + Addr(r) * 8, &acc, sizeof(double));
    }

    core.finishEpoch();
    res.cycles = core.epochCycles();
    res.instructions = core.epochInstructions();
    return res;
}

SpmvResult
spmvOverlay(System &system, OooCore &core, const OverlayMatrix &matrix,
            const SpmvAddrs &addrs, const std::vector<double> &x,
            Tick start)
{
    const DenseLayout &layout = matrix.layout();
    Asid asid = matrix.asid();
    SpmvResult res;
    res.y.assign(layout.rows, 0.0);
    core.beginEpoch(start);
    // Warm the pipeline: prefetch the first page's overlay lines.
    system.prefetchOverlayPage(asid, matrix.base(), start);

    Addr last_page = kInvalidAddr;
    BitVector64 obv;
    for (std::uint32_t r = 0; r < layout.rows; ++r) {
        double acc = 0.0;
        for (std::uint32_t c0 = 0; c0 < layout.cols;
             c0 += DenseLayout::kValuesPerLine) {
            Addr a_line = matrix.addrOf(r, c0);
            // The hardware reads the OBitVector from the TLB entry; one
            // cheap instruction per page of the walk. Knowing the next
            // page's overlay layout, it prefetches that page's overlay
            // lines while this page computes (§5.2).
            if (pageBase(a_line) != last_page) {
                last_page = pageBase(a_line);
                obv = system.pageObv(asid, a_line);
                core.executeOp(asid, TraceOp::compute(1));
                system.prefetchOverlayPage(asid, last_page + kPageSize,
                                           core.currentCycle());
            }
            if (!obv.test(lineInPage(a_line)))
                continue; // zero line: skipped entirely (§5.2)

            core.executeOp(asid, TraceOp::load(a_line));
            core.executeOp(asid, TraceOp::load(addrs.xBase + Addr(c0) * 8));
            core.executeOp(asid, TraceOp::compute(kLineComputeOps));

            double a_vals[DenseLayout::kValuesPerLine];
            system.peek(asid, a_line, a_vals, sizeof(a_vals));
            unsigned n = std::min<std::uint32_t>(DenseLayout::kValuesPerLine,
                                                 layout.cols - c0);
            for (unsigned k = 0; k < n; ++k)
                acc += a_vals[k] * x[c0 + k];
        }
        core.executeOp(asid, TraceOp::compute(kRowOverheadOps));
        core.executeOp(asid, TraceOp::store(addrs.yBase + Addr(r) * 8));
        res.y[r] = acc;
        system.poke(asid, addrs.yBase + Addr(r) * 8, &acc, sizeof(double));
    }

    core.finishEpoch();
    res.cycles = core.epochCycles();
    res.instructions = core.epochInstructions();
    return res;
}

SpmvResult
spmvCsr(System &system, OooCore &core, Asid asid, const SpmvAddrs &addrs,
        const CsrMatrix &csr, const std::vector<double> &x, Tick start)
{
    SpmvResult res;
    res.y.assign(csr.rows(), 0.0);
    core.beginEpoch(start);

    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &values = csr.values();

    for (std::uint32_t r = 0; r < csr.rows(); ++r) {
        core.executeOp(asid, TraceOp::load(addrs.csrRowBase + Addr(r) * 4));
        core.executeOp(asid, TraceOp::compute(kRowOverheadOps));
        double acc = 0.0;
        for (std::uint32_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
            // col[i] load, then the gather from x depends on its value.
            core.executeOp(asid,
                           TraceOp::load(addrs.csrColBase + Addr(i) * 4));
            core.executeOp(asid,
                           TraceOp::load(addrs.xBase + Addr(col_idx[i]) * 8,
                                         /*depends_on_prev=*/true));
            core.executeOp(asid,
                           TraceOp::load(addrs.csrValBase + Addr(i) * 8));
            core.executeOp(asid, TraceOp::compute(kCsrNnzComputeOps));
            acc += values[i] * x[col_idx[i]];
        }
        core.executeOp(asid, TraceOp::store(addrs.yBase + Addr(r) * 8));
        res.y[r] = acc;
        system.poke(asid, addrs.yBase + Addr(r) * 8, &acc, sizeof(double));
    }

    core.finishEpoch();
    res.cycles = core.epochCycles();
    res.instructions = core.epochInstructions();
    return res;
}

SpmvRun
runSpmv(const CooMatrix &coo, const std::vector<double> &x, SpmvRep rep,
        const SystemConfig &config)
{
    SpmvAddrs addrs;
    System sys(config);
    OooCore core("core", sys);
    Asid asid = sys.createProcess();
    installVectors(sys, asid, addrs, x, coo.rows);

    SpmvRun run;
    switch (rep) {
      case SpmvRep::Dense: {
        DenseLayout layout(coo.rows, coo.cols);
        installDense(sys, asid, addrs.aBase, coo);
        sys.quiesce();
        run.result = spmvDense(sys, core, asid, addrs, layout, x, 0);
        run.bytes = layout.bytes();
        break;
      }
      case SpmvRep::Csr: {
        CsrMatrix csr = CsrMatrix::fromCoo(coo);
        installCsr(sys, asid, addrs, csr);
        sys.quiesce();
        run.result = spmvCsr(sys, core, asid, addrs, csr, x, 0);
        run.bytes = csr.bytes();
        break;
      }
      case SpmvRep::Overlay: {
        OverlayMatrix matrix(sys, asid, addrs.aBase);
        matrix.build(coo); // quiesces the memory system itself
        run.result = spmvOverlay(sys, core, matrix, addrs, x, 0);
        run.bytes = matrix.storedBytes();
        break;
      }
    }
    return run;
}

} // namespace ovl
