//! Autotuning of tile-size parameters (§4.3).
//!
//! For a Kron-Matmul shape, the tuner enumerates the paper's candidate
//! sets — `TK` over multiples of `P`, `TP`/`TQ` over factors of `P`/`Q`,
//! even `TM`, and register tiles `RP | TP`, `RQ | TQ`, `RK | TK/P` — prunes
//! them by shared-memory and register capacity, and scores each survivor
//! with the cost model. Where the paper compiles ~10 000 CUDA kernels in
//! parallel and times them (<2 min), we score each candidate analytically
//! in microseconds: FLOPs and DRAM sectors have closed forms, and
//! bank-conflict factors are measured exactly by synthesizing one
//! representative warp instruction per access pattern and replaying it
//! through the [`Tracer`].

use crate::kernel::shared_col;
use crate::tile::{max_fused, Caching, TileConfig};
use gpu_sim::cost::CostModel;
use gpu_sim::device::DeviceSpec;
use gpu_sim::trace::{Dir, Tracer};
use gpu_sim::KernelStats;
use kron_core::{DType, KronError, Result};

/// Statistics of one tuning run (the §6.1 "autotuning time" quantities).
#[derive(Debug, Clone, Default)]
pub struct TuneReport {
    /// Candidates enumerated before resource pruning.
    pub generated: usize,
    /// Candidates that fit the device and were scored.
    pub scored: usize,
    /// Wall-clock seconds the tuner itself took (host time, not simulated).
    pub tuning_seconds: f64,
}

/// Result of tuning one iteration shape.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning configuration.
    pub config: TileConfig,
    /// Fused multiplication depth the winner supports (1 = unfused).
    pub nfused: usize,
    /// Estimated simulated seconds per launch of the winner.
    pub est_seconds: f64,
    /// Enumeration statistics.
    pub report: TuneReport,
}

/// External constraints on the tuning search, used to model rival systems'
/// fixed design choices.
#[derive(Debug, Clone, Copy)]
pub struct Constraints {
    /// Shared-memory addressing scheme every candidate must use.
    pub caching: Caching,
    /// Fixed `TP` (e.g. `Some(P)` = stage the whole factor like COGENT).
    pub tp: Option<usize>,
    /// Fixed `RK` (e.g. `Some(1)` = one slice per thread like COGENT).
    pub rk: Option<usize>,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            caching: Caching::Shift,
            tp: None,
            rk: None,
        }
    }
}

/// Upper bound on `TK` candidates examined per shape (guards problem
/// shapes whose `K/P` has very many divisors).
const MAX_TK_CANDIDATES: usize = 24;

/// Tile-size autotuner for a device.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    cost: CostModel,
}

/// Returns the divisors of `n` in ascending order.
fn divisors(n: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

impl AutoTuner {
    /// Builds a tuner for `device`.
    pub fn new(device: &DeviceSpec) -> Self {
        AutoTuner {
            cost: CostModel::new(device),
        }
    }

    /// Tunes the unfused sliced-multiply kernel for one iteration shape.
    ///
    /// # Errors
    /// [`KronError::InvalidTileConfig`] if no candidate fits the device.
    pub fn tune(
        &self,
        m: usize,
        k: usize,
        p: usize,
        q: usize,
        dtype: DType,
    ) -> Result<TuneOutcome> {
        self.search(m, k, p, q, dtype, false, 1, Constraints::default())
    }

    /// Tunes the unfused kernel under external [`Constraints`] — used by
    /// the baseline models to reproduce rival systems' caching strategies
    /// (e.g. COGENT's direct caching with a whole slice per thread).
    ///
    /// # Errors
    /// [`KronError::InvalidTileConfig`] if no candidate satisfies the
    /// constraints on the device.
    pub fn tune_constrained(
        &self,
        m: usize,
        k: usize,
        p: usize,
        q: usize,
        dtype: DType,
        constraints: Constraints,
    ) -> Result<TuneOutcome> {
        self.search(m, k, p, q, dtype, false, 1, constraints)
    }

    /// Tunes the fused kernel (`TP = P`, `TQ = Q`) chaining up to
    /// `remaining` square factors. Returns the best config and its fusion
    /// depth.
    ///
    /// # Errors
    /// [`KronError::InvalidTileConfig`] if fusion is impossible for the
    /// shape (e.g. no `TK ≥ P²` fits in shared memory).
    pub fn tune_fused(
        &self,
        m: usize,
        k: usize,
        p: usize,
        remaining: usize,
        dtype: DType,
    ) -> Result<TuneOutcome> {
        self.search(m, k, p, p, dtype, true, remaining, Constraints::default())
    }

    fn tk_candidates(k: usize, p: usize, fused: bool) -> Vec<usize> {
        let s = k / p;
        let mut out: Vec<usize> = divisors(s)
            .into_iter()
            .map(|d| d * p)
            .filter(|&tk| !fused || tk >= p * p || tk == k)
            .collect();
        if out.len() > MAX_TK_CANDIDATES {
            // Keep a spread: prefer the largest candidates (higher reuse)
            // plus a few small ones.
            let keep_small = MAX_TK_CANDIDATES / 4;
            let keep_large = MAX_TK_CANDIDATES - keep_small;
            let small: Vec<usize> = out.iter().copied().take(keep_small).collect();
            let large: Vec<usize> = out.iter().copied().skip(out.len() - keep_large).collect();
            out = small;
            out.extend(large);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        m: usize,
        k: usize,
        p: usize,
        q: usize,
        dtype: DType,
        fused: bool,
        remaining: usize,
        constraints: Constraints,
    ) -> Result<TuneOutcome> {
        let start = std::time::Instant::now();
        let device = self.cost.device().clone();
        let mut report = TuneReport::default();
        let mut best: Option<(f64, TileConfig, usize)> = None;

        let tm_candidates: Vec<usize> = [1usize, 2, 4, 8, 16]
            .into_iter()
            .filter(|&tm| tm <= m)
            .collect();
        let tp_candidates: Vec<usize> = match (fused, constraints.tp) {
            (true, _) => vec![p],
            (false, Some(tp)) if p.is_multiple_of(tp) => vec![tp],
            (false, Some(_)) => vec![],
            (false, None) => divisors(p),
        };
        let tq_candidates: Vec<usize> = if fused { vec![q] } else { divisors(q) };
        let caching = constraints.caching;

        for &tk in &Self::tk_candidates(k, p, fused) {
            let slices = tk / p;
            for &tp in &tp_candidates {
                for &tq in &tq_candidates {
                    for &tm in &tm_candidates {
                        let rk_candidates: Vec<usize> = match constraints.rk {
                            Some(rk) if slices.is_multiple_of(rk) => vec![rk],
                            Some(_) => vec![],
                            None => divisors(slices).into_iter().filter(|&r| r <= 8).collect(),
                        };
                        for rk in rk_candidates {
                            for rq in divisors(tq).into_iter().filter(|&r| r <= 8) {
                                for rp in divisors(tp).into_iter().filter(|&r| r <= 8) {
                                    report.generated += 1;
                                    let cfg = TileConfig {
                                        tm,
                                        tk,
                                        tq,
                                        tp,
                                        rk,
                                        rq,
                                        rp,
                                        caching,
                                    };
                                    if cfg.validate(m, k, p, q).is_err() {
                                        continue;
                                    }
                                    let threads = cfg.threads(p);
                                    if threads == 0 || threads > device.max_threads_per_block {
                                        continue;
                                    }
                                    // The fused search prices every depth,
                                    // 1 included, at the fused footprint.
                                    let launch = cfg.launch(m, k, p, q, fused, dtype);
                                    if self.cost.occupancy(&launch).is_err() {
                                        continue;
                                    }
                                    // Fusion depth is itself a tuning knob:
                                    // deeper fusion saves DRAM round trips
                                    // but shortens the contiguous output
                                    // runs (scattered stores) — cf. paper
                                    // Figure 6 choosing Nfused = 2 of a
                                    // possible 3.
                                    let nf_max = if fused {
                                        max_fused(tk, p, remaining)
                                    } else {
                                        1
                                    };
                                    for nf in 1..=nf_max {
                                        report.scored += 1;
                                        let stats =
                                            estimate_stats(&cfg, &device, m, k, p, q, dtype, nf);
                                        let Ok(t) = self.cost.kernel_time(&launch, &stats, dtype)
                                        else {
                                            continue;
                                        };
                                        // Compare per-factor cost so deeper
                                        // fusion is rewarded proportionally.
                                        let per_factor = t.total_s / nf as f64;
                                        if best.is_none_or(|(b, _, _)| per_factor < b) {
                                            best = Some((per_factor, cfg, nf));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        report.tuning_seconds = start.elapsed().as_secs_f64();
        let (per_factor, config, nfused) = best.ok_or_else(|| KronError::InvalidTileConfig {
            reason: format!(
                "no tile configuration fits {} for shape M={m}, K={k}, F={p}×{q}{}",
                device.name,
                if fused { " (fused)" } else { "" }
            ),
        })?;
        Ok(TuneOutcome {
            config,
            nfused,
            est_seconds: per_factor * nfused as f64,
            report,
        })
    }
}

/// Closed-form launch statistics for a candidate configuration.
///
/// FLOPs and global-memory traffic have exact expressions; shared-memory
/// transaction counts multiply exact instruction counts by bank-conflict
/// factors measured from one synthesized warp instruction per access
/// pattern. `nfused > 1` describes the fused kernel.
#[allow(clippy::too_many_arguments)]
pub fn estimate_stats(
    cfg: &TileConfig,
    device: &DeviceSpec,
    m: usize,
    k: usize,
    p: usize,
    q: usize,
    dtype: DType,
    nfused: usize,
) -> KernelStats {
    let e = dtype.bytes();
    let words = e.div_ceil(device.bank_width_bytes) as u64;
    let slices = cfg.tk / p;
    let sg = slices / cfg.rk;
    let bdim = cfg.threads(p);
    let warps = bdim.div_ceil(32) as u64;
    let (gx, gy, gz) = cfg.grid(m, k, q);
    let blocks = if nfused > 1 { gx * gy } else { gx * gy * gz } as u64;

    // --- Synthesized conflict factors (transactions per instruction). ---
    let mut scratch = Tracer::new(device);
    let lanes = bdim.min(32);
    // GToS store pattern: lane l stages element l of the staging tile.
    let gtos: Vec<usize> = (0..lanes.min(slices * cfg.tp))
        .map(|l| shared_col(cfg.caching, l / cfg.tp, l % cfg.tp, cfg.tp, cfg.rk) * e)
        .collect();
    let cf_gtos = scratch.shared_access(Dir::Store, &gtos, e).max(1) as f64 / words as f64;
    // SToR X-load pattern: lane l reads element 0 of its first slice.
    let stor_x: Vec<usize> = (0..lanes)
        .map(|l| shared_col(cfg.caching, (l % sg) * cfg.rk, 0, cfg.tp, cfg.rk) * e)
        .collect();
    let cf_stor_x = scratch.shared_access(Dir::Load, &stor_x, e).max(1) as f64 / words as f64;
    // SToR F-load pattern: lane l reads column yq of factor row 0
    // (broadcast across the slice-group dimension).
    let stor_f: Vec<usize> = (0..lanes).map(|l| ((l / sg) * cfg.rq) * e).collect();
    let cf_stor_f = scratch.shared_access(Dir::Load, &stor_f, e).max(1) as f64 / words as f64;

    // --- Instruction counts. ---
    let tiles = (p / cfg.tp) as u64;
    let steps = (cfg.tp / cfg.rp) as u64;
    let multiplies = nfused as u64;

    let gtos_instr =
        multiplies * blocks * tiles * (cfg.tm as u64) * (slices * cfg.tp).div_ceil(32) as u64;
    let f_stage_instr = multiplies * blocks * tiles * (cfg.tp * cfg.tq).div_ceil(32) as u64;
    let stor_x_instr =
        multiplies * blocks * tiles * steps * warps * (cfg.tm * cfg.rk * cfg.rp) as u64;
    let stor_f_instr = multiplies * blocks * tiles * steps * warps * (cfg.rp * cfg.rq) as u64;

    let smem_store = ((gtos_instr + f_stage_instr) as f64 * cf_gtos * words as f64) as u64;
    let smem_load =
        ((stor_x_instr as f64 * cf_stor_x + stor_f_instr as f64 * cf_stor_f) * words as f64) as u64;
    // The fused kernel additionally writes each intermediate back to shared
    // memory once per multiply and re-reads it in the epilogue.
    let fused_extra = if nfused > 1 {
        multiplies * blocks * (cfg.tm * cfg.tk) as u64 * words / 32
    } else {
        0
    };

    // --- Global traffic. ---
    // X is loaded once per block (per q-slab for the unfused kernel); the
    // slice-interior segments are `TP·e` bytes, so short tiles waste sector
    // bytes unless whole slices are contiguous (P·e ≥ sector).
    let seg_bytes = cfg.tp * e;
    let load_waste = if p * e >= device.dram_sector_bytes && seg_bytes < device.dram_sector_bytes {
        device.dram_sector_bytes as f64 / seg_bytes as f64
    } else {
        1.0
    };
    let x_bytes = (blocks * (cfg.tm * cfg.tk) as u64) as f64 * e as f64;
    let f_bytes = (multiplies * blocks * (p * cfg.tq) as u64 * e as u64) as f64;
    // Output: one store per element per group (the fused kernel's whole
    // point is `multiplies` multiplications per single store pass).
    let out_cols = if nfused > 1 { cfg.tk } else { slices * cfg.tq };
    let store_bytes = (blocks * (cfg.tm * out_cols) as u64) as f64 * e as f64;

    // Fused stores scatter into contiguous runs of TK/P^Nfused elements;
    // runs shorter than a sector waste store bandwidth proportionally.
    let store_waste = if nfused > 1 {
        let run_bytes = (cfg.tk / p.pow(nfused as u32)).max(1) * e;
        (device.dram_sector_bytes as f64 / run_bytes as f64).max(1.0)
    } else {
        1.0
    };

    let sector = device.dram_sector_bytes as f64;
    KernelStats {
        flops: 2
            * multiplies
            * blocks
            * (cfg.tm * cfg.tk * if nfused > 1 { q } else { cfg.tq }) as u64,
        smem_load_transactions: smem_load + fused_extra,
        smem_store_transactions: smem_store + fused_extra,
        smem_load_ideal: (stor_x_instr + stor_f_instr) * words + fused_extra,
        smem_store_ideal: (gtos_instr + f_stage_instr) * words + fused_extra,
        gmem_load_sectors: ((x_bytes * load_waste + f_bytes) / sector) as u64,
        gmem_store_sectors: (store_bytes * store_waste / sector) as u64,
        gmem_useful_bytes: (x_bytes + f_bytes + store_bytes) as u64,
        barriers: multiplies * tiles * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SlicedMultiplyKernel;
    use gpu_sim::device::V100;
    use kron_core::Matrix;

    #[test]
    fn divisors_basic() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(64), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(divisors(17), vec![1, 17]);
    }

    #[test]
    fn tune_returns_valid_config() {
        let tuner = AutoTuner::new(&V100);
        for &(m, p, n) in &[(1024usize, 8usize, 5usize), (16, 64, 3), (20, 9, 3)] {
            let k = p.pow(n as u32);
            let out = tuner.tune(m, k, p, p, DType::F32).unwrap();
            out.config
                .validate(m, k, p, p)
                .unwrap_or_else(|e| panic!("tuned cfg invalid for M={m} {p}^{n}: {e}"));
            assert!(out.report.scored > 10, "scored {}", out.report.scored);
            assert!(out.est_seconds > 0.0);
        }
    }

    #[test]
    fn tune_beats_minimal_config() {
        let tuner = AutoTuner::new(&V100);
        let (m, p, n) = (1024usize, 16usize, 4u32);
        let k = p.pow(n);
        let tuned = tuner.tune(m, k, p, p, DType::F32).unwrap();
        let minimal = TileConfig::minimal(k, p);
        let launch = minimal.launch(m, k, p, p, false, DType::F32);
        let stats = estimate_stats(&minimal, &V100, m, k, p, p, DType::F32, 1);
        let t_min = tuner
            .cost
            .kernel_time(&launch, &stats, DType::F32)
            .unwrap()
            .total_s;
        assert!(
            tuned.est_seconds < t_min,
            "tuned {} vs minimal {t_min}",
            tuned.est_seconds
        );
    }

    #[test]
    fn fused_tuning_uses_depth_for_small_p() {
        let tuner = AutoTuner::new(&V100);
        let k = 8usize.pow(5);
        let out = tuner.tune_fused(1024, k, 8, 5, DType::F32).unwrap();
        assert!(
            out.nfused >= 2,
            "expected fusion depth ≥ 2, got {}",
            out.nfused
        );
        assert_eq!(out.config.tp, 8);
        assert_eq!(out.config.tq, 8);
    }

    #[test]
    fn tuner_respects_shared_memory_for_large_p() {
        // P = 128 f64: a full factor tile is 128·128·8 = 128 KiB > 96 KiB,
        // so TP must be a proper divisor — the tuner must still succeed.
        let tuner = AutoTuner::new(&V100);
        let k = 128usize.pow(2);
        let out = tuner.tune(16, k, 128, 128, DType::F64).unwrap();
        let launch = out.config.launch(16, k, 128, 128, false, DType::F64);
        assert!(launch.shared_mem_per_block <= V100.shared_mem_per_block);
    }

    #[test]
    fn estimate_matches_trace_for_flops_and_stores() {
        // The closed-form estimator and the traced kernel must agree
        // exactly on FLOPs and global stores, and within a small factor on
        // shared transactions (the estimator uses one representative
        // instruction per pattern).
        let m = 2;
        let k = 512;
        let f = Matrix::<f32>::from_fn(8, 8, |_, _| 1.0);
        let cfg = TileConfig {
            tm: 1,
            tk: 512,
            tq: 2,
            tp: 4,
            rk: 2,
            rq: 2,
            rp: 2,
            caching: Caching::Shift,
        };
        let est = estimate_stats(&cfg, &V100, m, k, 8, 8, DType::F32, 1);
        let kern = SlicedMultiplyKernel::new(cfg, m, k, &[&f]).unwrap();
        let mut tracer = Tracer::new(&V100);
        let per_block = kern.trace_block(&mut tracer);
        let (gx, gy, gz) = cfg.grid(m, k, 8);
        let traced = per_block.scaled((gx * gy * gz) as u64);
        assert_eq!(est.flops, traced.flops, "flops");
        assert_eq!(est.gmem_store_sectors, traced.gmem_store_sectors, "stores");
        let ratio = est.smem_load_transactions as f64 / traced.smem_load_transactions as f64;
        assert!((0.3..=3.0).contains(&ratio), "smem load ratio {ratio}");
    }

    #[test]
    fn shift_scores_better_than_direct_for_small_tp() {
        // With TP = 4 the direct layout serializes; the estimator must see
        // it through the synthesized patterns.
        // rk·tp = 32 words: the direct layout sends every lane to one
        // bank (32-way conflicts); shift bounds it at ⌈32/TP⌉ = 4.
        let base = TileConfig {
            tm: 1,
            tk: 2048,
            tq: 8,
            tp: 8,
            rk: 4,
            rq: 2,
            rp: 2,
            caching: Caching::Shift,
        };
        let direct = TileConfig {
            caching: Caching::Direct,
            ..base
        };
        let s = estimate_stats(&base, &V100, 1024, 4096, 8, 8, DType::F32, 1);
        let d = estimate_stats(&direct, &V100, 1024, 4096, 8, 8, DType::F32, 1);
        assert!(
            d.smem_load_transactions > 2 * s.smem_load_transactions,
            "direct {} vs shift {}",
            d.smem_load_transactions,
            s.smem_load_transactions
        );
    }

    #[test]
    fn no_fit_is_an_error() {
        // A degenerate device with 1 byte of shared memory cannot host any
        // candidate.
        let mut tiny = V100.clone();
        tiny.shared_mem_per_block = 1;
        tiny.shared_mem_per_sm = 1;
        let tuner = AutoTuner::new(&tiny);
        assert!(tuner.tune(4, 64, 8, 8, DType::F32).is_err());
    }

    #[test]
    fn tuning_is_fast() {
        // §6.1 analog: tuning one shape must take far less than the
        // paper's 2-minute budget — we require under 2 s.
        let tuner = AutoTuner::new(&V100);
        let out = tuner
            .tune(1024, 16usize.pow(5), 16, 16, DType::F32)
            .unwrap();
        assert!(
            out.report.tuning_seconds < 2.0,
            "{}",
            out.report.tuning_seconds
        );
    }
}
