//! Emulation of FastKron's `SlicedMultiplyKernel` (paper Figure 3) at
//! thread-block granularity, with warp-accurate memory-access tracing.
//!
//! The emulator executes the exact loop structure of the CUDA kernel:
//!
//! 1. `ShiftGToS`/`DirectGToS` — stage `TP` elements of every slice of `X`
//!    and `TP×TQ` of `F` from global to shared memory,
//! 2. `ShiftSToR`/`DirectSToR` — stage `RP` elements of `RK` slices and
//!    `RQ` columns into per-thread registers,
//! 3. register-tile multiply-accumulate,
//! 4. epilogue scattering `TM×RK×RQ` results per thread to the correct
//!    global columns (`q·K/P + slice`), which is what makes the transpose
//!    unnecessary.
//!
//! Every warp's shared/global accesses can be fed to a [`Tracer`]; since
//! all blocks of a launch execute the same access pattern modulo base
//! offsets, tracing block `(0,0,0)` and scaling by the grid size
//! reproduces the full-kernel transaction counts (the Table 2 quantities).

use crate::tile::{Caching, TileConfig};
use gpu_sim::trace::{Dir, Tracer};
use gpu_sim::KernelStats;
use kron_core::{Element, KronError, Matrix, Result};

/// Read side of global memory for a block run: real data or an
/// address-only surface (for tracing without allocating the operand).
#[derive(Clone, Copy)]
pub enum GlobalSrc<'a, T> {
    /// Real row-major buffer.
    Real(&'a [T]),
    /// Every read returns zero (addresses are still traced).
    Zeros,
}

impl<T: Element> GlobalSrc<'_, T> {
    #[inline(always)]
    pub(crate) fn read(&self, idx: usize) -> T {
        match self {
            GlobalSrc::Real(buf) => buf[idx],
            GlobalSrc::Zeros => T::ZERO,
        }
    }
}

/// Write side of global memory for a block run.
pub enum GlobalDst<'a, T> {
    /// Real row-major buffer.
    Real(&'a mut [T]),
    /// Writes are dropped (addresses are still traced).
    Discard,
}

impl<T: Element> GlobalDst<'_, T> {
    #[inline(always)]
    pub(crate) fn write(&mut self, idx: usize, v: T) {
        if let GlobalDst::Real(buf) = self {
            buf[idx] = v;
        }
    }
}

/// Shared-memory column for logical `(slice, elem)` under a caching scheme
/// (paper Figure 5). `shift = slice / RK`, applied modulo `TP`.
#[inline(always)]
pub fn shared_col(caching: Caching, slice: usize, elem: usize, tp: usize, rk: usize) -> usize {
    match caching {
        Caching::Shift => slice * tp + (elem + slice / rk) % tp,
        Caching::Direct => slice * tp + elem,
    }
}

/// One sliced-multiply launch: `Y[M × K/P·Q] = slicedmul(X[M × K], F[P × Q])`.
pub struct SlicedMultiplyKernel<'a, T> {
    /// Tile configuration (validated against the shape below).
    pub cfg: TileConfig,
    /// Rows of `X`.
    pub m: usize,
    /// Columns of `X`.
    pub k: usize,
    /// The factor, `P × Q`.
    pub f: &'a Matrix<T>,
}

impl<'a, T: Element> SlicedMultiplyKernel<'a, T> {
    /// Builds and validates a kernel for `X[m × k] · slices(F)`.
    ///
    /// # Errors
    /// Tile-validity errors from [`TileConfig::validate`].
    pub fn new(cfg: TileConfig, m: usize, k: usize, f: &'a Matrix<T>) -> Result<Self> {
        cfg.validate(m, k, f.rows(), f.cols())?;
        Ok(SlicedMultiplyKernel { cfg, m, k, f })
    }

    /// Output column count, `K/P · Q`.
    pub fn output_cols(&self) -> usize {
        self.k / self.f.rows() * self.f.cols()
    }

    /// Grid dimensions of the launch.
    pub fn grid(&self) -> (usize, usize, usize) {
        self.cfg.grid(self.m, self.k, self.f.cols())
    }

    /// Executes every thread block, producing the numeric result. Intended
    /// for correctness tests and small problems; large runs should use
    /// [`kron_core::ftmmt::ftmmt_iteration`] (the same sliced multiply)
    /// for the values and [`Self::trace_block`] for the counters.
    pub fn run_all(&self, x: &Matrix<T>) -> Result<Matrix<T>> {
        if x.rows() != self.m || x.cols() != self.k {
            return Err(KronError::ShapeMismatch {
                expected: format!("X {}×{}", self.m, self.k),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        let mut y = Matrix::zeros(self.m, self.output_cols());
        let (gx, gy, gz) = self.grid();
        let src = GlobalSrc::Real(x.as_slice());
        for bx in 0..gx {
            for by in 0..gy {
                for bz in 0..gz {
                    let mut dst = GlobalDst::Real(y.as_mut_slice());
                    self.run_block(bx, by, bz, src, &mut dst, &mut None);
                }
            }
        }
        Ok(y)
    }

    /// Runs block `(0, 0, 0)` in address-only mode and returns its
    /// counters (scale by the grid size for launch totals).
    pub fn trace_block(&self, tracer: &mut Tracer) -> KernelStats {
        // Count this block alone, then put back what the tracer held.
        let before = std::mem::take(&mut tracer.stats);
        let src: GlobalSrc<'_, T> = GlobalSrc::Zeros;
        let mut dst: GlobalDst<'_, T> = GlobalDst::Discard;
        self.run_block(0, 0, 0, src, &mut dst, &mut Some(tracer));
        let block = tracer.stats;
        tracer.stats += before;
        block
    }

    /// Executes one thread block `(bx, by, bz)`.
    ///
    /// Follows paper Figure 3 line-by-line; see module docs for the phase
    /// structure. When `tracer` is set, every warp's accesses are recorded.
    pub fn run_block(
        &self,
        bx: usize,
        by: usize,
        bz: usize,
        x: GlobalSrc<'_, T>,
        y: &mut GlobalDst<'_, T>,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let TileConfig {
            tm,
            tk,
            tq,
            tp,
            rk,
            rq,
            rp,
            caching,
        } = self.cfg;
        let (p, q) = (self.f.rows(), self.f.cols());
        let elem_bytes = T::DTYPE.bytes();
        let slices = tk / p; // slices per block
        let ks = slices * tp; // Xs row length
        let bdim = (slices / rk) * (tq / rq);
        let warp = 32;
        let slice_groups = slices / rk;
        let out_cols = self.output_cols();
        let global_slices = self.k / p;

        let mut xs = vec![T::ZERO; tm * ks];
        let mut fs = vec![T::ZERO; tp * tq];
        // Per-thread accumulators Yr[tm][rk][rq].
        let mut yr = vec![T::ZERO; bdim * tm * rk * rq];
        // Per-thread staging registers for the current rp step.
        let mut xr = vec![T::ZERO; bdim * tm * rk * rp];
        let mut fr = vec![T::ZERO; bdim * rp * rq];

        // Scratch address buffers for warp-level tracing.
        let mut g_addrs: Vec<usize> = Vec::with_capacity(warp);
        let mut s_addrs: Vec<usize> = Vec::with_capacity(warp);

        // Main loop over TP-tiles of the factor's rows (Figure 3 line 7).
        for tp_base in (0..p).step_by(tp) {
            // -------- Step 1: global → shared (lines 9–10) --------
            // X part: thread `tid` handles Xs indices tid, tid+bdim, …
            for mi in 0..tm {
                let grow = bx * tm + mi;
                let row_in_range = grow < self.m;
                let mut base = 0;
                while base < ks {
                    let todo = (ks - base).min(bdim);
                    for w0 in (0..todo).step_by(warp) {
                        let lanes = (todo - w0).min(warp);
                        g_addrs.clear();
                        s_addrs.clear();
                        for l in 0..lanes {
                            let kidx = base + w0 + l;
                            let elem = kidx % tp;
                            let slice = kidx / tp;
                            let scol = shared_col(caching, slice, elem, tp, rk);
                            let gcol = by * tk + slice * p + tp_base + elem;
                            if row_in_range {
                                let gidx = grow * self.k + gcol;
                                xs[mi * ks + scol] = x.read(gidx);
                                if tracer.is_some() {
                                    g_addrs.push(gidx * elem_bytes);
                                    s_addrs.push((mi * ks + scol) * elem_bytes);
                                }
                            }
                        }
                        if let Some(t) = tracer.as_deref_mut() {
                            t.global_access(Dir::Load, &g_addrs, elem_bytes);
                            t.shared_access(Dir::Store, &s_addrs, elem_bytes);
                        }
                    }
                    base += bdim;
                }
            }
            // F part (DirectGToS): Fs[r][c] = F[tp_base + r][bz·TQ + c].
            let ftile = tp * tq;
            let mut base = 0;
            while base < ftile {
                let todo = (ftile - base).min(bdim);
                for w0 in (0..todo).step_by(warp) {
                    let lanes = (todo - w0).min(warp);
                    g_addrs.clear();
                    s_addrs.clear();
                    for l in 0..lanes {
                        let idx = base + w0 + l;
                        let (r, c) = (idx / tq, idx % tq);
                        // F is always real (it is tiny); read it directly.
                        fs[r * tq + c] = self.f[(tp_base + r, bz * tq + c)];
                        if tracer.is_some() {
                            g_addrs.push(((tp_base + r) * q + bz * tq + c) * elem_bytes);
                            s_addrs.push((r * tq + c) * elem_bytes);
                        }
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.global_access(Dir::Load, &g_addrs, elem_bytes);
                        t.shared_access(Dir::Store, &s_addrs, elem_bytes);
                    }
                }
                base += bdim;
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.barrier();
            }

            // -------- Steps 2–3: shared → registers, FMA (lines 12–21) ----
            for rp_base in (0..tp).step_by(rp) {
                // ShiftSToR / DirectSToR, warp by warp.
                for w0 in (0..bdim).step_by(warp) {
                    let lanes = (bdim - w0).min(warp);
                    // X registers: one instruction per (m, i, pp).
                    for mi in 0..tm {
                        for i in 0..rk {
                            for pp in 0..rp {
                                s_addrs.clear();
                                for l in 0..lanes {
                                    let tid = w0 + l;
                                    let yk = (tid % slice_groups) * rk;
                                    let slice = yk + i;
                                    let elem = rp_base + pp;
                                    let scol = shared_col(caching, slice, elem, tp, rk);
                                    let v = xs[mi * ks + scol];
                                    xr[((tid * tm + mi) * rk + i) * rp + pp] = v;
                                    if tracer.is_some() {
                                        s_addrs.push((mi * ks + scol) * elem_bytes);
                                    }
                                }
                                if let Some(t) = tracer.as_deref_mut() {
                                    t.shared_access(Dir::Load, &s_addrs, elem_bytes);
                                }
                            }
                        }
                    }
                    // F registers: one instruction per (pp, qq).
                    for pp in 0..rp {
                        for qq in 0..rq {
                            s_addrs.clear();
                            for l in 0..lanes {
                                let tid = w0 + l;
                                let yq = (tid / slice_groups) * rq;
                                let sidx = (rp_base + pp) * tq + yq + qq;
                                fr[(tid * rp + pp) * rq + qq] = fs[sidx];
                                if tracer.is_some() {
                                    s_addrs.push(sidx * elem_bytes);
                                }
                            }
                            if let Some(t) = tracer.as_deref_mut() {
                                t.shared_access(Dir::Load, &s_addrs, elem_bytes);
                            }
                        }
                    }
                    // FMA on register tiles (lines 18–20).
                    for l in 0..lanes {
                        let tid = w0 + l;
                        for mi in 0..tm {
                            for i in 0..rk {
                                for qq in 0..rq {
                                    let yidx = ((tid * tm + mi) * rk + i) * rq + qq;
                                    let mut acc = yr[yidx];
                                    for pp in 0..rp {
                                        let xv = xr[((tid * tm + mi) * rk + i) * rp + pp];
                                        let fv = fr[(tid * rp + pp) * rq + qq];
                                        acc = xv.mul_add(fv, acc);
                                    }
                                    yr[yidx] = acc;
                                }
                            }
                        }
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.flops(2 * (lanes * tm * rk * rq * rp) as u64);
                    }
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.barrier();
            }
        }

        // -------- Step 4: registers → global (lines 23–29) --------
        // Consecutive output elements are consecutive slices against the
        // same factor column, so each thread's RK elements are contiguous
        // and a column c's group starts at c·K/P.
        for r in 0..tm {
            let grow = bx * tm + r;
            if grow >= self.m {
                continue;
            }
            // The CUDA kernel emits one vectorized store per (row, column)
            // pair (`st.global.v4` and friends) covering the thread's RK
            // consecutive elements; trace it as one access of RK·sizeof(T)
            // bytes per lane.
            for b in 0..rq {
                for w0 in (0..bdim).step_by(warp) {
                    let lanes = (bdim - w0).min(warp);
                    g_addrs.clear();
                    for l in 0..lanes {
                        let tid = w0 + l;
                        let yk = (tid % slice_groups) * rk;
                        let yq = (tid / slice_groups) * rq;
                        let gq = bz * tq + yq + b;
                        let gslice = by * slices + yk;
                        let ycol = crate::exec::fused_output_col(gq, global_slices, gslice);
                        let gidx = grow * out_cols + ycol;
                        for e in 0..rk {
                            y.write(gidx + e, yr[((tid * tm + r) * rk + e) * rq + b]);
                        }
                        if tracer.is_some() {
                            g_addrs.push(gidx * elem_bytes);
                        }
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.global_access(Dir::Store, &g_addrs, rk * elem_bytes);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::V100;
    use kron_core::assert_matrices_close;
    use kron_core::ftmmt::ftmmt_iteration;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 5 * r * cols + c) % 17) as f64 - 8.0
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn cfg(
        tm: usize,
        tk: usize,
        tq: usize,
        tp: usize,
        rk: usize,
        rq: usize,
        rp: usize,
        caching: Caching,
    ) -> TileConfig {
        TileConfig {
            tm,
            tk,
            tq,
            tp,
            rk,
            rq,
            rp,
            caching,
        }
    }

    #[test]
    fn figure4_config_matches_reference() {
        // The worked example of paper Figure 4: X 2×512, F 8×8,
        // TM=1 TK=512 TQ=2 TP=4 RK=2 RQ=2 RP=2.
        let x = seq_matrix(2, 512, 3);
        let f = seq_matrix(8, 8, 1);
        let kern =
            SlicedMultiplyKernel::new(cfg(1, 512, 2, 4, 2, 2, 2, Caching::Shift), 2, 512, &f)
                .unwrap();
        let y = kern.run_all(&x).unwrap();
        let oracle = ftmmt_iteration(&x, &f).unwrap();
        assert_matrices_close(&y, &oracle, "figure-4 kernel");
    }

    #[test]
    fn direct_caching_same_result() {
        let x = seq_matrix(2, 512, 4);
        let f = seq_matrix(8, 8, 2);
        let kern =
            SlicedMultiplyKernel::new(cfg(1, 512, 2, 4, 2, 2, 2, Caching::Direct), 2, 512, &f)
                .unwrap();
        assert_matrices_close(
            &kern.run_all(&x).unwrap(),
            &ftmmt_iteration(&x, &f).unwrap(),
            "direct caching",
        );
    }

    #[test]
    fn many_configs_match_reference() {
        // Sweep tile shapes over a 4×256 problem with F 4×4.
        let x = seq_matrix(4, 256, 7);
        let f = seq_matrix(4, 4, 5);
        let mut tried = 0;
        for &tm in &[1usize, 2, 4] {
            for &tk in &[4usize, 16, 64, 256] {
                for &tq in &[1usize, 2, 4] {
                    for &tp in &[1usize, 2, 4] {
                        for &rk in &[1usize, 2] {
                            for &rq in &[1usize, 2] {
                                for &rp in &[1usize, 2] {
                                    for &c in &[Caching::Shift, Caching::Direct] {
                                        let cfg = cfg(tm, tk, tq, tp, rk, rq, rp, c);
                                        if cfg.validate(4, 256, 4, 4).is_err() {
                                            continue;
                                        }
                                        tried += 1;
                                        let kern =
                                            SlicedMultiplyKernel::new(cfg, 4, 256, &f).unwrap();
                                        let y = kern.run_all(&x).unwrap();
                                        let oracle = ftmmt_iteration(&x, &f).unwrap();
                                        assert_matrices_close(&y, &oracle, &format!("cfg {cfg:?}"));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(tried > 50, "only {tried} configs were exercised");
    }

    #[test]
    fn partial_last_row_block() {
        // M=3 with TM=2: the second row-block is half-empty.
        let x = seq_matrix(3, 64, 2);
        let f = seq_matrix(4, 4, 3);
        let kern = SlicedMultiplyKernel::new(cfg(2, 64, 2, 2, 2, 2, 2, Caching::Shift), 3, 64, &f)
            .unwrap();
        assert_matrices_close(
            &kern.run_all(&x).unwrap(),
            &ftmmt_iteration(&x, &f).unwrap(),
            "partial TM",
        );
    }

    #[test]
    fn rectangular_factor() {
        // P=6, Q=3 non-square, non-power-of-two.
        let x = seq_matrix(2, 36, 9);
        let f = seq_matrix(6, 3, 4);
        let kern = SlicedMultiplyKernel::new(cfg(1, 36, 3, 3, 2, 3, 3, Caching::Shift), 2, 36, &f)
            .unwrap();
        assert_matrices_close(
            &kern.run_all(&x).unwrap(),
            &ftmmt_iteration(&x, &f).unwrap(),
            "rectangular factor",
        );
    }

    #[test]
    fn f32_path() {
        let x = Matrix::<f32>::from_fn(2, 64, |r, c| ((r * 64 + c) % 7) as f32 - 3.0);
        let f = Matrix::<f32>::from_fn(8, 8, |r, c| ((r * 8 + c) % 5) as f32 - 2.0);
        let kern = SlicedMultiplyKernel::new(cfg(1, 64, 4, 4, 2, 2, 2, Caching::Shift), 2, 64, &f)
            .unwrap();
        assert_matrices_close(
            &kern.run_all(&x).unwrap(),
            &ftmmt_iteration(&x, &f).unwrap(),
            "f32 kernel",
        );
    }

    #[test]
    fn shift_reduces_bank_conflicts_vs_direct() {
        // The §4.1 claim, measured: with RK·TP a multiple of the bank
        // count (here 4·8 = 32 words), the direct layout sends every lane
        // of a warp to the same bank; shift caching bounds conflicts by
        // ⌈warp/TP⌉ = 4. F 8×8, TK=2048 → 256 slices.
        let f = Matrix::<f32>::from_fn(8, 8, |_, _| 1.0);
        let mk = |caching| {
            let kern = SlicedMultiplyKernel::new(cfg(1, 2048, 8, 8, 4, 2, 2, caching), 1, 2048, &f)
                .unwrap();
            let mut tracer = Tracer::new(&V100);
            let stats = kern.trace_block(&mut tracer);
            (stats.smem_load_transactions, stats.smem_load_ideal)
        };
        let (shift_tr, ideal) = mk(Caching::Shift);
        let (direct_tr, _) = mk(Caching::Direct);
        assert!(
            direct_tr >= 3 * shift_tr,
            "direct {direct_tr} vs shift {shift_tr} (ideal {ideal})"
        );
        // Shift caching should stay within ⌈32/TP⌉ = 4× of ideal.
        assert!(shift_tr <= 5 * ideal, "shift {shift_tr} vs ideal {ideal}");
    }

    #[test]
    fn trace_counts_flops_exactly() {
        let f = seq_matrix(4, 4, 0);
        let kern = SlicedMultiplyKernel::new(cfg(2, 64, 4, 4, 2, 2, 2, Caching::Shift), 2, 64, &f)
            .unwrap();
        let mut tracer = Tracer::new(&V100);
        let stats = kern.trace_block(&mut tracer);
        // One block covers the whole problem: 2·TM·TK·TQ FMAs… as FLOPs:
        // 2 rows × (64/4 slices × 4 cols) outputs × 4 MACs × 2 = 1024.
        assert_eq!(stats.flops, 2 * 2 * 64 * 4);
        // Both barriers fire once per TP tile (TP = P → one tile).
        assert_eq!(stats.barriers, 2);
    }

    #[test]
    fn trace_is_deterministic() {
        let f = seq_matrix(8, 8, 1);
        let kern =
            SlicedMultiplyKernel::new(cfg(1, 512, 2, 4, 2, 2, 2, Caching::Shift), 2, 512, &f)
                .unwrap();
        let mut t1 = Tracer::new(&V100);
        let mut t2 = Tracer::new(&V100);
        assert_eq!(kern.trace_block(&mut t1), kern.trace_block(&mut t2));
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let f = seq_matrix(4, 4, 0);
        let kern = SlicedMultiplyKernel::new(cfg(1, 64, 4, 4, 1, 1, 1, Caching::Shift), 2, 64, &f)
            .unwrap();
        let bad = seq_matrix(2, 128, 0);
        assert!(kern.run_all(&bad).is_err());
    }
}
