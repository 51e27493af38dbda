//! Fusion of consecutive sliced multiplications in shared memory (§4.2).
//!
//! Unlike the linear-algebra baselines — which must round-trip every
//! intermediate through global memory — FastKron can keep a thread block's
//! `TK` elements resident in shared memory across `Nfused = ⌊log_P TK⌋`
//! consecutive factors, writing global memory once per fused group. The
//! epilogue (`StoreFusedShMem`, paper Figure 7) maps each shared-memory
//! position to its column in the global intermediate: after the `i`-th
//! fused multiply the block's data forms `TQᵢ` sets of `TK/Pⁱ` contiguous
//! elements with stride `K/Pⁱ` in the global intermediate.
//!
//! Fusion requires the whole factor staged per tile (`TP = P`) and all `Q`
//! columns processed by every block (`TQ = Q`); the paper finds this holds
//! for `P ≤ 32`, which the planner enforces.

use crate::kernel::{shared_col, GlobalDst, GlobalSrc};
use crate::tile::TileConfig;
use gpu_sim::trace::{Dir, Tracer};
use gpu_sim::KernelStats;
use kron_core::{Element, KronError, Matrix, Result};

/// A fused launch over `nfused` consecutive square factors.
pub struct FusedKernel<'a, T> {
    /// Tile configuration; must have `tp == p` and `tq == q == p`.
    pub cfg: TileConfig,
    /// Rows of `X`.
    pub m: usize,
    /// Columns of `X` (and of every intermediate — factors are square).
    pub k: usize,
    /// The factors this kernel multiplies, in multiplication order
    /// (`F_f` first, i.e. the *last* remaining factor of the problem).
    pub factors: &'a [&'a Matrix<T>],
}

impl<'a, T: Element> FusedKernel<'a, T> {
    /// Builds and validates a fused kernel.
    ///
    /// # Errors
    /// [`KronError::InvalidTileConfig`] unless all factors are square with
    /// the same `P`, `TP == P`, `TQ == Q`, and `TK ≥ P^nfused`.
    pub fn new(cfg: TileConfig, m: usize, k: usize, factors: &'a [&'a Matrix<T>]) -> Result<Self> {
        let fail = |reason: String| Err(KronError::InvalidTileConfig { reason });
        let Some(first) = factors.first() else {
            return Err(KronError::NoFactors);
        };
        let p = first.rows();
        if factors.iter().any(|f| f.rows() != p || f.cols() != p) {
            return fail("fused kernel requires identical square factors".into());
        }
        cfg.validate(m, k, p, p)?;
        if cfg.tp != p {
            return fail(format!(
                "fusion requires TP = P (= {p}), got TP = {}",
                cfg.tp
            ));
        }
        if cfg.tq != p {
            return fail(format!(
                "fusion requires TQ = Q (= {p}), got TQ = {}",
                cfg.tq
            ));
        }
        if cfg.tk < p.pow(factors.len() as u32) {
            return fail(format!(
                "TK = {} cannot hold {} fused multiplies of P = {p} (need ≥ {})",
                cfg.tk,
                factors.len(),
                p.pow(factors.len() as u32)
            ));
        }
        Ok(FusedKernel { cfg, m, k, factors })
    }

    /// Grid dimensions `{⌈M/TM⌉, K/TK}` (no `Q` dimension — each block
    /// processes all columns).
    pub fn grid(&self) -> (usize, usize) {
        (self.m.div_ceil(self.cfg.tm), self.k / self.cfg.tk)
    }

    /// Executes every thread block, producing the numeric result of the
    /// `nfused` consecutive sliced multiplies.
    pub fn run_all(&self, x: &Matrix<T>) -> Result<Matrix<T>> {
        if x.rows() != self.m || x.cols() != self.k {
            return Err(KronError::ShapeMismatch {
                expected: format!("X {}×{}", self.m, self.k),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        let mut y = Matrix::zeros(self.m, self.k);
        let (gx, gy) = self.grid();
        let src = GlobalSrc::Real(x.as_slice());
        for bx in 0..gx {
            for by in 0..gy {
                let mut dst = GlobalDst::Real(y.as_mut_slice());
                self.run_block(bx, by, src, &mut dst, &mut None);
            }
        }
        Ok(y)
    }

    /// Runs block `(0, 0)` in address-only mode, returning its counters.
    pub fn trace_block(&self, tracer: &mut Tracer) -> KernelStats {
        // Count this block alone, then put back what the tracer held.
        let before = std::mem::take(&mut tracer.stats);
        let src: GlobalSrc<'_, T> = GlobalSrc::Zeros;
        let mut dst: GlobalDst<'_, T> = GlobalDst::Discard;
        self.run_block(0, 0, src, &mut dst, &mut Some(tracer));
        let block = tracer.stats;
        tracer.stats += before;
        block
    }

    /// Executes one thread block.
    pub fn run_block(
        &self,
        bx: usize,
        by: usize,
        x: GlobalSrc<'_, T>,
        y: &mut GlobalDst<'_, T>,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let TileConfig {
            tm,
            tk,
            rk,
            rq,
            rp,
            caching,
            ..
        } = self.cfg;
        let p = self.factors[0].rows();
        let nfused = self.factors.len();
        let elem_bytes = T::DTYPE.bytes();
        let slices = tk / p;
        let slice_groups = slices / rk;
        let bdim = slice_groups * (p / rq);
        let warp = 32;

        // Double-buffered shared intermediate (Xs1/Xs2 of Figure 6) and the
        // staged factor.
        let mut xs_a = vec![T::ZERO; tm * tk];
        let mut xs_b = vec![T::ZERO; tm * tk];
        let mut fs = vec![T::ZERO; p * p];
        let mut yr = vec![T::ZERO; bdim * tm * rk * rq];

        let mut g_addrs: Vec<usize> = Vec::with_capacity(warp);
        let mut s_addrs: Vec<usize> = Vec::with_capacity(warp);

        // ---- Load the block's TK columns of X into shared memory ----
        for mi in 0..tm {
            let grow = bx * tm + mi;
            let in_range = grow < self.m;
            let mut base = 0;
            while base < tk {
                let todo = (tk - base).min(bdim);
                for w0 in (0..todo).step_by(warp) {
                    let lanes = (todo - w0).min(warp);
                    g_addrs.clear();
                    s_addrs.clear();
                    for l in 0..lanes {
                        let c = base + w0 + l;
                        let scol = shared_col(caching, c / p, c % p, p, rk);
                        if in_range {
                            let gidx = grow * self.k + by * tk + c;
                            xs_a[mi * tk + scol] = x.read(gidx);
                            if tracer.is_some() {
                                g_addrs.push(gidx * elem_bytes);
                                s_addrs.push((mi * tk + scol) * elem_bytes);
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
        if let Some(t) = tracer.as_deref_mut() {
            t.barrier();
        }

        // ---- Nfused sliced multiplies, shared → shared ----
        for (fi, factor) in self.factors.iter().enumerate() {
            // Stage the whole factor (TP = P, TQ = Q = P).
            let ftile = p * p;
            let mut base = 0;
            while base < ftile {
                let todo = (ftile - base).min(bdim);
                for w0 in (0..todo).step_by(warp) {
                    let lanes = (todo - w0).min(warp);
                    g_addrs.clear();
                    s_addrs.clear();
                    for l in 0..lanes {
                        let idx = base + w0 + l;
                        fs[idx] = factor[(idx / p, idx % p)];
                        if tracer.is_some() {
                            g_addrs.push(idx * elem_bytes);
                            s_addrs.push(idx * elem_bytes);
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

            // Sliced multiply Xs_a → Xs_b: every thread computes its
            // RK×RQ tile per row, with RP-step register staging, exactly
            // like the unfused kernel but sourcing shared memory.
            for v in yr.iter_mut() {
                *v = T::ZERO;
            }
            for rp_base in (0..p).step_by(rp) {
                for w0 in (0..bdim).step_by(warp) {
                    let lanes = (bdim - w0).min(warp);
                    // X loads.
                    for mi in 0..tm {
                        for i in 0..rk {
                            for pp in 0..rp {
                                s_addrs.clear();
                                for l in 0..lanes {
                                    let tid = w0 + l;
                                    let yk = (tid % slice_groups) * rk;
                                    let scol = shared_col(caching, yk + i, rp_base + pp, p, rk);
                                    if tracer.is_some() {
                                        s_addrs.push((mi * tk + scol) * elem_bytes);
                                    }
                                }
                                if let Some(t) = tracer.as_deref_mut() {
                                    t.shared_access(Dir::Load, &s_addrs, elem_bytes);
                                }
                            }
                        }
                    }
                    // F loads.
                    for pp in 0..rp {
                        for qq in 0..rq {
                            s_addrs.clear();
                            for l in 0..lanes {
                                let tid = w0 + l;
                                let yq = (tid / slice_groups) * rq;
                                if tracer.is_some() {
                                    s_addrs.push(((rp_base + pp) * p + yq + qq) * elem_bytes);
                                }
                            }
                            if let Some(t) = tracer.as_deref_mut() {
                                t.shared_access(Dir::Load, &s_addrs, elem_bytes);
                            }
                        }
                    }
                    // FMA (functional — reads go straight to the buffers;
                    // the traced addresses above are the same ones).
                    for l in 0..lanes {
                        let tid = w0 + l;
                        let yk = (tid % slice_groups) * rk;
                        let yq = (tid / slice_groups) * rq;
                        for mi in 0..tm {
                            for i in 0..rk {
                                for qq in 0..rq {
                                    let yidx = ((tid * tm + mi) * rk + i) * rq + qq;
                                    let mut acc = yr[yidx];
                                    for pp in 0..rp {
                                        let scol = shared_col(caching, yk + i, rp_base + pp, p, rk);
                                        let xv = xs_a[mi * tk + scol];
                                        let fv = fs[(rp_base + pp) * p + yq + qq];
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

            // Store this multiply's outputs into Xs_b at the *logical*
            // column q·S + s, re-shifted for the next multiply's slicing.
            for w0 in (0..bdim).step_by(warp) {
                let lanes = (bdim - w0).min(warp);
                for mi in 0..tm {
                    for i in 0..rk {
                        for qq in 0..rq {
                            s_addrs.clear();
                            for l in 0..lanes {
                                let tid = w0 + l;
                                let yk = (tid % slice_groups) * rk;
                                let yq = (tid / slice_groups) * rq;
                                let logical = (yq + qq) * slices + yk + i;
                                let scol = shared_col(caching, logical / p, logical % p, p, rk);
                                xs_b[mi * tk + scol] = yr[((tid * tm + mi) * rk + i) * rq + qq];
                                if tracer.is_some() {
                                    s_addrs.push((mi * tk + scol) * elem_bytes);
                                }
                            }
                            if let Some(t) = tracer.as_deref_mut() {
                                t.shared_access(Dir::Store, &s_addrs, elem_bytes);
                            }
                        }
                    }
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.barrier();
            }
            std::mem::swap(&mut xs_a, &mut xs_b);
            let _ = fi;
        }

        // ---- StoreFusedShMem (paper Figure 7) ----
        let xg_slices = self.k / p;
        let xs_slices = tk / p;
        let pn = p.pow(nfused as u32);
        let xg_fuse = self.k / pn;
        let xs_fuse = tk / pn;
        let mut e0 = 0;
        while e0 < tm * tk {
            let todo = (tm * tk - e0).min(bdim);
            for w0 in (0..todo).step_by(warp) {
                let lanes = (todo - w0).min(warp);
                g_addrs.clear();
                s_addrs.clear();
                for l in 0..lanes {
                    let e = e0 + w0 + l;
                    let (mi, c) = (e / tk, e % tk);
                    let grow = bx * tm + mi;
                    if grow >= self.m {
                        continue;
                    }
                    // Scale shared slice / fused-slice indices to global.
                    let slice = (c / xs_slices) * xg_slices;
                    let fused_slice = ((c % xs_slices) / xs_fuse) * xg_fuse;
                    let elem = by * xs_fuse + c % xs_fuse;
                    let col = slice + fused_slice + elem;
                    let scol = shared_col(caching, c / p, c % p, p, rk);
                    let v = xs_a[mi * tk + scol];
                    let gidx = grow * self.k + col;
                    y.write(gidx, v);
                    if tracer.is_some() {
                        s_addrs.push((mi * tk + scol) * elem_bytes);
                        g_addrs.push(gidx * elem_bytes);
                    }
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.shared_access(Dir::Load, &s_addrs, elem_bytes);
                    t.global_access(Dir::Store, &g_addrs, elem_bytes);
                }
            }
            e0 += bdim;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::Caching;
    use gpu_sim::device::V100;
    use kron_core::assert_matrices_close;
    use kron_core::ftmmt::ftmmt_iteration;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 3 * r * cols + c) % 7) as f64 - 3.0
        })
    }

    fn fused_cfg(tm: usize, tk: usize, p: usize, rk: usize, rq: usize, rp: usize) -> TileConfig {
        TileConfig {
            tm,
            tk,
            tq: p,
            tp: p,
            rk,
            rq,
            rp,
            caching: Caching::Shift,
        }
    }

    /// Oracle: apply `nfused` successive sliced multiplies.
    fn oracle(x: &Matrix<f64>, factors: &[&Matrix<f64>]) -> Matrix<f64> {
        let mut y = x.clone();
        for f in factors {
            y = ftmmt_iteration(&y, f).unwrap();
        }
        y
    }

    #[test]
    fn figure6_geometry() {
        // Paper Figure 6: X 1×256, F 4×4, TK = 128, Nfused = 2.
        let x = seq_matrix(1, 256, 1);
        let f3 = seq_matrix(4, 4, 2);
        let f4 = seq_matrix(4, 4, 5);
        let factors = [&f4, &f3];
        let kern = FusedKernel::new(fused_cfg(1, 128, 4, 2, 2, 2), 1, 256, &factors).unwrap();
        assert_eq!(kern.grid(), (1, 2));
        let y = kern.run_all(&x).unwrap();
        assert_matrices_close(&y, &oracle(&x, &factors), "figure-6 fused");
    }

    #[test]
    fn max_depth_fusion() {
        // TK = 64 = 4³ → fuse three 4×4 factors.
        let x = seq_matrix(2, 256, 3);
        let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, i * 3 + 1)).collect();
        let factors: Vec<&Matrix<f64>> = fs.iter().collect();
        let kern = FusedKernel::new(fused_cfg(1, 64, 4, 1, 2, 2), 2, 256, &factors).unwrap();
        let y = kern.run_all(&x).unwrap();
        assert_matrices_close(&y, &oracle(&x, &factors), "3-deep fusion");
    }

    #[test]
    fn single_block_whole_problem() {
        // TK = K: one block per row, everything in shared memory.
        let x = seq_matrix(3, 64, 7);
        let fs: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(8, 8, i + 2)).collect();
        let factors: Vec<&Matrix<f64>> = fs.iter().collect();
        let kern = FusedKernel::new(fused_cfg(1, 64, 8, 2, 4, 4), 3, 64, &factors).unwrap();
        let y = kern.run_all(&x).unwrap();
        assert_matrices_close(&y, &oracle(&x, &factors), "TK = K fusion");
    }

    #[test]
    fn tm_greater_than_one() {
        let x = seq_matrix(4, 128, 5);
        let fs: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i * 5 + 3)).collect();
        let factors: Vec<&Matrix<f64>> = fs.iter().collect();
        let kern = FusedKernel::new(fused_cfg(2, 32, 4, 2, 2, 2), 4, 128, &factors).unwrap();
        let y = kern.run_all(&x).unwrap();
        assert_matrices_close(&y, &oracle(&x, &factors), "TM = 2 fusion");
    }

    #[test]
    fn partial_row_block() {
        let x = seq_matrix(3, 64, 2);
        let fs: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 4)).collect();
        let factors: Vec<&Matrix<f64>> = fs.iter().collect();
        let kern = FusedKernel::new(fused_cfg(2, 16, 4, 1, 2, 2), 3, 64, &factors).unwrap();
        let y = kern.run_all(&x).unwrap();
        assert_matrices_close(&y, &oracle(&x, &factors), "partial TM fusion");
    }

    #[test]
    fn validation_rejects_bad_fusion() {
        let f = seq_matrix(4, 4, 0);
        let g = seq_matrix(8, 8, 0);
        let r = seq_matrix(4, 2, 0);
        // Mixed shapes.
        let factors: Vec<&Matrix<f64>> = vec![&f, &g];
        assert!(FusedKernel::new(fused_cfg(1, 64, 4, 1, 2, 2), 1, 256, &factors).is_err());
        // Non-square.
        let factors2: Vec<&Matrix<f64>> = vec![&r, &r];
        assert!(FusedKernel::new(fused_cfg(1, 64, 4, 1, 2, 2), 1, 256, &factors2).is_err());
        // TK too small for the fusion depth: TK = 16 < 4³.
        let fs: Vec<Matrix<f64>> = (0..3).map(|_| seq_matrix(4, 4, 1)).collect();
        let factors3: Vec<&Matrix<f64>> = fs.iter().collect();
        assert!(FusedKernel::new(fused_cfg(1, 16, 4, 1, 2, 2), 1, 256, &factors3).is_err());
        // TP ≠ P.
        let mut c = fused_cfg(1, 64, 4, 1, 2, 2);
        c.tp = 2;
        let factors4: Vec<&Matrix<f64>> = vec![&f, &f];
        assert!(FusedKernel::new(c, 1, 256, &factors4).is_err());
        // Empty factor list.
        let none: Vec<&Matrix<f64>> = vec![];
        assert!(FusedKernel::new(fused_cfg(1, 64, 4, 1, 2, 2), 1, 256, &none).is_err());
    }

    #[test]
    fn fused_halves_global_traffic_vs_two_launches() {
        // The §4.2 claim: per block the fused kernel reads TK and writes TK
        // once, while two separate launches would do it twice.
        let f = Matrix::<f32>::from_fn(4, 4, |_, _| 1.0);
        let factors = [&f, &f];
        let fused = FusedKernel::new(
            TileConfig {
                tm: 1,
                tk: 256,
                tq: 4,
                tp: 4,
                rk: 2,
                rq: 2,
                rp: 2,
                caching: Caching::Shift,
            },
            1,
            256,
            &factors,
        )
        .unwrap();
        let mut tracer = Tracer::new(&V100);
        let stats = fused.trace_block(&mut tracer);
        // X read once (256 f32 = 32 sectors) + factor loads (tiny);
        // output written once (32 sectors).
        assert!(
            stats.gmem_load_sectors < 48,
            "loads {}",
            stats.gmem_load_sectors
        );
        assert_eq!(stats.gmem_store_sectors, 32);
        // Two unfused launches of the same work would cost ≥ 2× stores.
        assert_eq!(stats.flops, 2 * 2 * 256 * 4);
    }

    #[test]
    fn trace_deterministic() {
        let f = seq_matrix(4, 4, 1);
        let factors = [&f, &f];
        let kern = FusedKernel::new(fused_cfg(1, 64, 4, 2, 2, 2), 2, 256, &factors).unwrap();
        let mut t1 = Tracer::new(&V100);
        let mut t2 = Tracer::new(&V100);
        assert_eq!(kern.trace_block(&mut t1), kern.trace_block(&mut t2));
    }
}
