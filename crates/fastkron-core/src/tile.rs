//! Tile-size configuration for the sliced-multiply kernel (§4 of the paper).
//!
//! A thread block multiplies a `{TM, TK}` block of `X` with `TQ` columns of
//! `F` to produce a `{TM, TK/P · TQ}` block of `Y`; the factor's `P` rows
//! are streamed through shared memory in tiles of `TP`. Each thread owns
//! `RK` slices × `RQ` columns of the output and accumulates `RP` factor
//! rows per inner step.

use gpu_sim::cost::LaunchConfig;
use kron_core::{DType, KronError, Result};

/// How shared memory is addressed when staging `X` slices (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Caching {
    /// FastKron's shift caching: element `e` of slice `s` is stored at
    /// `s·TP + (e + s/RK) mod TP`, spreading consecutive threads' slices
    /// across banks. Bounds conflicts by `⌈warp/TP⌉`.
    Shift,
    /// The standard layout used by CUTLASS/COGENT ("direct caching"):
    /// element `e` of slice `s` at `s·TP + e`. When `TP·(stride between
    /// consecutive threads' slices)` is a multiple of the bank count, every
    /// lane hits the same bank — the pathology of §4.1.
    Direct,
}

/// Tile sizes for one sliced-multiply kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Rows of `X` per thread block.
    pub tm: usize,
    /// Columns of `X` per thread block (multiple of `P`).
    pub tk: usize,
    /// Columns of `F` per thread block (divides `Q`).
    pub tq: usize,
    /// Rows of `F` staged per shared-memory tile (divides `P`).
    pub tp: usize,
    /// Slices of `X` per thread (divides `TK/P`).
    pub rk: usize,
    /// Columns of `F` per thread (divides `TQ`).
    pub rq: usize,
    /// Factor rows accumulated per inner iteration (divides `TP`).
    pub rp: usize,
    /// Shared-memory addressing scheme.
    pub caching: Caching,
}

impl TileConfig {
    /// Number of slices a block owns (`TK / P`).
    pub fn slices(&self, p: usize) -> usize {
        self.tk / p
    }

    /// Threads per block: `(TK/P / RK) × (TQ/RQ)`.
    pub fn threads(&self, p: usize) -> usize {
        (self.slices(p) / self.rk) * (self.tq / self.rq)
    }

    /// Shared-memory bytes: `TM×Ks` of `X` (`Ks = slices·TP`), twice when
    /// the launch double-buffers its intermediate (the fused kernel, whose
    /// `TP = P` makes `Ks = TK`), plus `TP×TQ` of `F`.
    pub fn shared_bytes(&self, p: usize, double_buffer: bool, dtype: DType) -> usize {
        let x_tiles = if double_buffer { 2 } else { 1 };
        (x_tiles * self.tm * self.slices(p) * self.tp + self.tp * self.tq) * dtype.bytes()
    }

    /// Estimated registers per thread: the `Yr[TM][RK][RQ]` accumulators,
    /// the `Xr[TM][RK][RP]` and `Fr[RP][RQ]` staging tiles (doubled for
    /// f64), plus a fixed allowance for address arithmetic.
    pub fn regs_per_thread(&self, dtype: DType) -> usize {
        let words = dtype.bytes() / 4;
        (self.tm * self.rk * self.rq + self.tm * self.rk * self.rp + self.rp * self.rq) * words + 24
    }

    /// Validates this configuration against a problem iteration
    /// (`m`, intermediate columns `k`, factor `p × q`) per the rules in
    /// §4.3.
    ///
    /// # Errors
    /// [`KronError::InvalidTileConfig`] naming the violated rule.
    pub fn validate(&self, m: usize, k: usize, p: usize, q: usize) -> Result<()> {
        let fail = |reason: String| Err(KronError::InvalidTileConfig { reason });
        if self.tk == 0 || self.tp == 0 || self.tq == 0 || self.tm == 0 {
            return fail("tile sizes must be positive".into());
        }
        if !self.tk.is_multiple_of(p) {
            return fail(format!("TK = {} must be a multiple of P = {p}", self.tk));
        }
        if self.tk > k {
            return fail(format!("TK = {} exceeds K = {k}", self.tk));
        }
        if !k.is_multiple_of(self.tk) {
            return fail(format!("TK = {} must divide K = {k}", self.tk));
        }
        if !p.is_multiple_of(self.tp) {
            return fail(format!("TP = {} must divide P = {p}", self.tp));
        }
        if !q.is_multiple_of(self.tq) {
            return fail(format!("TQ = {} must divide Q = {q}", self.tq));
        }
        if self.tm > m {
            return fail(format!("TM = {} exceeds M = {m}", self.tm));
        }
        let slices = self.tk / p;
        if slices == 0 || !slices.is_multiple_of(self.rk) {
            return fail(format!("RK = {} must divide TK/P = {slices}", self.rk));
        }
        if !self.tq.is_multiple_of(self.rq) {
            return fail(format!("RQ = {} must divide TQ = {}", self.rq, self.tq));
        }
        if !self.tp.is_multiple_of(self.rp) {
            return fail(format!("RP = {} must divide TP = {}", self.rp, self.tp));
        }
        Ok(())
    }

    /// Grid dimensions `{⌈M/TM⌉, K/TK, Q/TQ}` for one launch.
    pub fn grid(&self, m: usize, k: usize, q: usize) -> (usize, usize, usize) {
        (m.div_ceil(self.tm), k / self.tk, q / self.tq)
    }

    /// Builds the [`LaunchConfig`] for one launch on iteration shape
    /// `(m, k, p, q)`; `double_buffer` sizes shared memory for the fused
    /// kernel (see [`Self::shared_bytes`]).
    pub fn launch(
        &self,
        m: usize,
        k: usize,
        p: usize,
        q: usize,
        double_buffer: bool,
        dtype: DType,
    ) -> LaunchConfig {
        let (gx, gy, gz) = self.grid(m, k, q);
        LaunchConfig {
            grid_blocks: gx * gy * gz,
            threads_per_block: self.threads(p),
            shared_mem_per_block: self.shared_bytes(p, double_buffer, dtype),
            regs_per_thread: self.regs_per_thread(dtype),
        }
    }

    /// A conservative configuration valid for any iteration of `k = S·p`
    /// columns by a factor of `p` rows, whatever `M` and `Q`: one row per
    /// block, one slice and one factor column per thread, `TP = P`. The
    /// naive baseline that tests hold the tuner against.
    pub fn minimal(k: usize, p: usize) -> TileConfig {
        TileConfig {
            tm: 1,
            tk: k.min(p * p.max(2)),
            tq: 1,
            tp: p,
            rk: 1,
            rq: 1,
            rp: 1,
            caching: Caching::Shift,
        }
        .snapped(k, p)
    }

    /// Adjusts `TK` down to the largest valid divisor-of-`k` multiple of
    /// `p` not exceeding the current value (helper for constructors).
    fn snapped(mut self, k: usize, p: usize) -> TileConfig {
        let mut tk = self.tk - (self.tk % p);
        while tk > p && !k.is_multiple_of(tk) {
            tk -= p;
        }
        self.tk = tk.max(p);
        self
    }
}

/// Number of consecutive sliced multiplications one fused kernel can chain:
/// `⌊log_P TK⌋` (§4.2), and never more than the factors remaining.
pub fn max_fused(tk: usize, p: usize, remaining: usize) -> usize {
    if p < 2 {
        return 1;
    }
    let mut n = 0;
    let mut cap = tk;
    while cap >= p {
        cap /= p;
        n += 1;
    }
    n.clamp(1, remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(
        tm: usize,
        tk: usize,
        tq: usize,
        tp: usize,
        rk: usize,
        rq: usize,
        rp: usize,
    ) -> TileConfig {
        TileConfig {
            tm,
            tk,
            tq,
            tp,
            rk,
            rq,
            rp,
            caching: Caching::Shift,
        }
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: X 2×512, F 8×8, TM=1, TK=512, TQ=2, TP=4, RP=2, RQ=2, RK=2.
        let c = cfg(1, 512, 2, 4, 2, 2, 2);
        c.validate(2, 512, 8, 8).unwrap();
        assert_eq!(c.slices(8), 64);
        // Threads: (64/2)×(2/2) = 32.
        assert_eq!(c.threads(8), 32);
        // Grid: {2/1, 512/512, 8/2} = {2, 1, 4}.
        assert_eq!(c.grid(2, 512, 8), (2, 1, 4));
        // Shared: Xs = 1×64×4, Fs = 4×2.
        assert_eq!(c.shared_bytes(8, false, DType::F32), (256 + 8) * 4);
    }

    #[test]
    fn validation_rules() {
        // TK not a multiple of P.
        assert!(cfg(1, 510, 2, 4, 2, 2, 2).validate(2, 512, 8, 8).is_err());
        // TP does not divide P.
        assert!(cfg(1, 512, 2, 3, 2, 2, 1).validate(2, 512, 8, 8).is_err());
        // TQ does not divide Q.
        assert!(cfg(1, 512, 3, 4, 2, 1, 2).validate(2, 512, 8, 8).is_err());
        // RK does not divide slices.
        assert!(cfg(1, 512, 2, 4, 3, 2, 2).validate(2, 512, 8, 8).is_err());
        // RQ does not divide TQ.
        assert!(cfg(1, 512, 2, 4, 2, 3, 2).validate(2, 512, 8, 8).is_err());
        // RP does not divide TP.
        assert!(cfg(1, 512, 2, 4, 2, 2, 3).validate(2, 512, 8, 8).is_err());
        // TK > K.
        assert!(cfg(1, 1024, 2, 4, 2, 2, 2).validate(2, 512, 8, 8).is_err());
        // TM > M.
        assert!(cfg(4, 512, 2, 4, 2, 2, 2).validate(2, 512, 8, 8).is_err());
        // Zero tile.
        assert!(cfg(0, 512, 2, 4, 2, 2, 2).validate(2, 512, 8, 8).is_err());
    }

    #[test]
    fn fused_shared_memory_doubles_x_buffer() {
        let c = cfg(1, 256, 4, 4, 2, 2, 2);
        assert_eq!(c.shared_bytes(4, true, DType::F32), (2 * 256 + 16) * 4);
    }

    #[test]
    fn register_estimate_scales_with_dtype() {
        let c = cfg(2, 512, 2, 4, 2, 2, 2);
        let f32_regs = c.regs_per_thread(DType::F32);
        let f64_regs = c.regs_per_thread(DType::F64);
        assert!(f64_regs > f32_regs);
        // Yr 2·2·2=8, Xr 2·2·2=8, Fr 2·2=4 → 20 + 24 = 44 for f32.
        assert_eq!(f32_regs, 44);
    }

    #[test]
    fn max_fused_matches_paper_examples() {
        // Figure 6: TK=128, P=4 → max 3 fused ( ⌊log4 128⌋ ).
        assert_eq!(max_fused(128, 4, 4), 3);
        // Figure 6 uses Nfused = 2 by choice; cap by remaining factors.
        assert_eq!(max_fused(128, 4, 2), 2);
        assert_eq!(max_fused(512, 8, 6), 3);
        assert_eq!(max_fused(8, 8, 6), 1);
        assert_eq!(max_fused(4, 8, 6), 1); // TK < P still runs one multiply
    }

    #[test]
    fn minimal_config_is_valid() {
        for &(m, k, p, q) in &[
            (1usize, 64usize, 8usize, 8usize),
            (16, 4096, 16, 16),
            (3, 50, 5, 2),
        ] {
            let c = TileConfig::minimal(k, p);
            c.validate(m, k, p, q)
                .unwrap_or_else(|e| panic!("minimal({m},{k},{p},{q}) invalid: {e}"));
        }
    }

    #[test]
    #[allow(clippy::identity_op)]
    fn launch_geometry() {
        let c = cfg(1, 512, 2, 4, 2, 2, 2);
        let l = c.launch(2, 512, 8, 8, false, DType::F32);
        assert_eq!(l.grid_blocks, 2 * 1 * 4);
        assert_eq!(l.threads_per_block, 32);
        // A fused tile has TQ = Q, so its grid has no Q/TQ dimension.
        let lf = cfg(1, 512, 8, 8, 2, 2, 2).launch(2, 512, 8, 8, true, DType::F32);
        assert_eq!(lf.grid_blocks, 2);
    }
}
