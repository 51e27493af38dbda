//! The COGENT / cuTensor baselines: the FTMMT algorithm with direct
//! caching and per-iteration global intermediates.
//!
//! Both systems fuse the transpose into the contraction (so they beat the
//! shuffle algorithm) but — per §2.2 of the paper — they
//!
//! 1. cache with the *direct* strategy ("cache contiguous P elements of
//!    the last dimension … to P registers of consecutive threads"), which
//!    serializes shared-memory banks when the slice stride hits the bank
//!    count, and
//! 2. store each iteration's output in global memory and re-load it for
//!    the next factor (no cross-iteration fusion).
//!
//! We price them through the same kernel emulator and pricing function
//! FastKron's plans use ([`fastkron_core::kernel::price_launch`]), one
//! factor per launch (never fused) and constrained to that caching
//! strategy, with tiles tuned per system's published behaviour. That makes
//! Table 2 (shared-memory transactions, COGENT vs FastKron) a controlled
//! experiment over the caching and fusion choices alone.

use fastkron_core::kernel::price_launch;
use fastkron_core::tuner::{AutoTuner, Constraints};
use fastkron_core::Caching;
use gpu_sim::cost::CostModel;
use gpu_sim::device::DeviceSpec;
use gpu_sim::ExecReport;
use kron_core::{Element, KronProblem, Matrix, Result};

use crate::engine::Engine;

/// Which FTMMT system is being modelled (they differ only in tuning
/// freedom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    /// COGENT: codegen with a whole slice per thread (`TP = P`, `RK = 1`).
    Cogent,
    /// cuTensor: runtime autotuning, free register tiling, still direct
    /// caching.
    CuTensor,
}

/// COGENT-style FTMMT engine.
pub struct FtmmtEngine {
    device: DeviceSpec,
    flavor: Flavor,
}

impl FtmmtEngine {
    /// Builds the COGENT model for `device`.
    pub fn new(device: &DeviceSpec) -> Self {
        FtmmtEngine {
            device: device.clone(),
            flavor: Flavor::Cogent,
        }
    }

    fn constraints(&self, p: usize) -> Constraints {
        match self.flavor {
            // COGENT's published strategy stages the whole slice and hands
            // one slice to each thread; its generated code only switches to
            // an element-per-lane mapping once the slice spans the full
            // bank width (P ≥ 32) — which is why Table 2 of the paper
            // measures ~P-way conflict inflation at P ∈ {8, 16} but only
            // 1.37–1.72× at P ∈ {32, 64}.
            Flavor::Cogent if p < 32 => Constraints {
                caching: Caching::Direct,
                tp: Some(p),
                rk: Some(1),
            },
            Flavor::Cogent | Flavor::CuTensor => Constraints {
                caching: Caching::Direct,
                tp: None,
                rk: None,
            },
        }
    }

    fn engine_name(&self) -> &'static str {
        match self.flavor {
            Flavor::Cogent => "COGENT",
            Flavor::CuTensor => "cuTensor",
        }
    }

    fn simulate_inner<T: Element>(&self, problem: &KronProblem) -> Result<ExecReport> {
        let tuner = AutoTuner::new(&self.device);
        let cost = CostModel::new(&self.device);
        let mut report = ExecReport::new(self.engine_name());
        for it in problem.iterations() {
            let (p, q) = (it.factor.p, it.factor.q);
            let constraints = self.constraints(p);
            // COGENT's whole-factor staging may not fit shared memory for
            // very large P; fall back to cuTensor-style tiling then (real
            // COGENT also splits in that regime).
            let outcome = tuner
                .tune_constrained(problem.m, it.input_cols, p, q, T::DTYPE, constraints)
                .or_else(|_| {
                    tuner.tune_constrained(
                        problem.m,
                        it.input_cols,
                        p,
                        q,
                        T::DTYPE,
                        Constraints {
                            caching: Caching::Direct,
                            tp: None,
                            rk: None,
                        },
                    )
                })?;
            let (stats, seconds) =
                price_launch::<T>(&cost, outcome.config, problem.m, it.input_cols, (p, q), 1)?;
            report.add_step("contraction", seconds);
            report.stats += stats;
            report.launches += 1;
        }
        Ok(report)
    }
}

impl<T: Element> Engine<T> for FtmmtEngine {
    fn name(&self) -> &'static str {
        self.engine_name()
    }

    fn execute(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        kron_core::ftmmt::kron_matmul_ftmmt(x, factors)
    }

    fn simulate(&self, problem: &KronProblem) -> Result<ExecReport> {
        self.simulate_inner::<T>(problem)
    }
}

/// cuTensor-style FTMMT engine.
pub struct CuTensorEngine {
    inner: FtmmtEngine,
}

impl CuTensorEngine {
    /// Builds the cuTensor model for `device`.
    pub fn new(device: &DeviceSpec) -> Self {
        CuTensorEngine {
            inner: FtmmtEngine {
                device: device.clone(),
                flavor: Flavor::CuTensor,
            },
        }
    }
}

impl<T: Element> Engine<T> for CuTensorEngine {
    fn name(&self) -> &'static str {
        "cuTensor"
    }

    fn execute(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        kron_core::ftmmt::kron_matmul_ftmmt(x, factors)
    }

    fn simulate(&self, problem: &KronProblem) -> Result<ExecReport> {
        self.inner.simulate_inner::<T>(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FastKronEngine;
    use gpu_sim::device::V100;
    use kron_core::assert_matrices_close;
    use kron_core::naive::kron_matmul_naive;

    #[test]
    fn execute_matches_naive() {
        let x = Matrix::<f64>::from_fn(2, 36, |r, c| ((r * 36 + c) % 5) as f64 - 2.0);
        let f = Matrix::<f64>::from_fn(6, 6, |r, c| ((r * 6 + c) % 7) as f64 - 3.0);
        let engine = FtmmtEngine::new(&V100);
        let got = Engine::<f64>::execute(&engine, &x, &[&f, &f]).unwrap();
        assert_matrices_close(
            &got,
            &kron_matmul_naive(&x, &[&f, &f]).unwrap(),
            "ftmmt engine",
        );
    }

    #[test]
    fn cogent_has_more_shared_transactions_than_fastkron() {
        // The Table 2 experiment in miniature: same problem, COGENT's
        // direct caching vs FastKron's shift caching.
        let problem = KronProblem::uniform(64, 8, 4).unwrap();
        let cogent = Engine::<f32>::simulate(&FtmmtEngine::new(&V100), &problem).unwrap();
        let fastkron = Engine::<f32>::simulate(&FastKronEngine::new(&V100), &problem).unwrap();
        let c = cogent.stats.smem_load_transactions;
        let f = fastkron.stats.smem_load_transactions;
        assert!(c > f, "COGENT loads {c} should exceed FastKron loads {f}");
    }

    #[test]
    fn cogent_slower_than_fastkron_but_faster_than_shuffle() {
        // Figure 9 ordering: GPyTorch < COGENT ≈ cuTensor < FastKron.
        let problem = KronProblem::uniform(1024, 16, 4).unwrap();
        let shuffle = Engine::<f32>::simulate(&crate::ShuffleEngine::new(&V100), &problem).unwrap();
        let cogent = Engine::<f32>::simulate(&FtmmtEngine::new(&V100), &problem).unwrap();
        let fastkron = Engine::<f32>::simulate(&FastKronEngine::new(&V100), &problem).unwrap();
        assert!(
            fastkron.seconds < cogent.seconds,
            "FastKron {} vs COGENT {}",
            fastkron.seconds,
            cogent.seconds
        );
        assert!(
            cogent.seconds < shuffle.seconds,
            "COGENT {} vs GPyTorch {}",
            cogent.seconds,
            shuffle.seconds
        );
    }

    #[test]
    fn cutensor_within_band_of_cogent() {
        // §6.2.1: "both implementations perform within 10% of each other"
        // (for COGENT vs cuTensor the paper says they provide similar
        // performance). Allow a 2.5× band — the point is same order.
        let problem = KronProblem::uniform(256, 16, 3).unwrap();
        let cogent = Engine::<f32>::simulate(&FtmmtEngine::new(&V100), &problem).unwrap();
        let cut = Engine::<f32>::simulate(&CuTensorEngine::new(&V100), &problem).unwrap();
        let ratio = cogent.seconds / cut.seconds;
        assert!((0.4..=2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn large_p_falls_back_instead_of_failing() {
        // P = 128 f64 cannot stage a whole factor; the COGENT model must
        // still produce a report via the fallback tiling.
        let problem = KronProblem::uniform(16, 128, 2).unwrap();
        let r = Engine::<f64>::simulate(&FtmmtEngine::new(&V100), &problem).unwrap();
        assert!(r.seconds > 0.0);
    }
}
