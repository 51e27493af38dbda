//! Distributed baselines of §6.3: CTF and DISTAL.
//!
//! Both partition `X` the same way FastKron does but communicate the
//! intermediate after **every** factor multiplication:
//!
//! * **CTF** (Cyclops Tensor Framework) executes the distributed shuffle
//!   algorithm — a distributed GEMM per factor followed by a distributed
//!   transpose, which moves the whole intermediate across the fabric *and*
//!   through each GPU's DRAM again.
//! * **DISTAL** compiles the FTMMT algorithm with a user schedule: the
//!   transpose is fused into the local contraction (so it beats CTF), but
//!   the paper notes its schedule language cannot express Algorithm 2's
//!   grouped exchanges, so it still communicates once per factor.

use crate::fabric::{CommModel, GpuGrid};
use fastkron_core::kernel::price_launch;
use fastkron_core::tuner::{AutoTuner, Constraints};
use fastkron_core::Caching;
use gpu_sim::cost::CostModel;
use gpu_sim::device::DeviceSpec;
use gpu_sim::models::{CublasModel, TransposeModel};
use gpu_sim::ExecReport;
use kron_core::{Element, KronError, KronProblem, Matrix, Result};

fn dist_shape(grid: GpuGrid, problem: &KronProblem) -> Result<(usize, usize, usize, usize)> {
    if !problem.is_uniform() || problem.factors[0].p != problem.factors[0].q {
        return Err(KronError::InvalidGrid {
            reason: "distributed baselines require identical square factors".into(),
        });
    }
    let p = problem.factors[0].p;
    let k = problem.input_cols();
    if !problem.m.is_multiple_of(grid.gm) || !k.is_multiple_of(grid.gk) {
        return Err(KronError::InvalidGrid {
            reason: format!(
                "M = {} / K = {k} not divisible by grid {}×{}",
                problem.m, grid.gm, grid.gk
            ),
        });
    }
    Ok((problem.m / grid.gm, k / grid.gk, p, problem.num_factors()))
}

/// Cyclops Tensor Framework model: distributed shuffle algorithm.
pub struct CtfEngine {
    grid: GpuGrid,
    comm: CommModel,
    cublas: CublasModel,
    transpose: TransposeModel,
}

/// Effective per-GPU communication bandwidth for CTF, bytes/s. CTF is an
/// MPI framework; on a DGX-2 its redistributions stage GPU buffers through
/// host memory over PCIe rather than NVLink, which caps effective
/// throughput far below the fabric's 150 GB/s (calibrated against the
/// paper's 7.85× gap at 16 GPUs).
pub const CTF_COMM_BW: f64 = 25e9;

/// Effective per-GPU communication bandwidth for DISTAL, bytes/s. DISTAL's
/// Legion runtime moves whole logical-region instances between iterations;
/// GPU-aware but with copy-in/copy-out on both sides (calibrated against
/// the paper's 5.33× gap at 16 GPUs).
pub const DISTAL_COMM_BW: f64 = 50e9;

impl CtfEngine {
    /// Builds the engine for `gpus` devices.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] for unsupported GPU counts.
    pub fn new(device: &DeviceSpec, gpus: usize) -> Result<Self> {
        Ok(CtfEngine {
            grid: GpuGrid::for_gpus(gpus)?,
            comm: CommModel {
                alpha: device.nvlink_latency * 4.0,
                beta_bw: CTF_COMM_BW,
            },
            cublas: CublasModel::new(device),
            transpose: TransposeModel::new(device),
        })
    }

    /// Functional result (CTF computes the same map; its distribution is
    /// an implementation detail, so the shuffle reference serves).
    ///
    /// # Errors
    /// Shape errors from the reference algorithm.
    pub fn execute<T: Element>(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        kron_core::shuffle::kron_matmul_shuffle(x, factors)
    }

    /// Simulated wall time: per factor, a local GEMM + a distributed
    /// transpose (exchange + local strided copy).
    ///
    /// # Errors
    /// Shape/grid errors.
    pub fn simulate<T: Element>(&self, problem: &KronProblem) -> Result<ExecReport> {
        let (tgm, tgk, p, n) = dist_shape(self.grid, problem)?;
        let dtype = T::DTYPE;
        let e = dtype.bytes() as u64;
        let mut report = ExecReport::new(format!("CTF-{}GPU", self.grid.gpus()));
        let block_bytes = (tgm * tgk) as u64 * e;
        for _ in 0..n {
            let t_gemm = self.cublas.gemm_time(tgm * tgk / p, p, p, dtype);
            report.add_step("matmul", t_gemm);
            // Distributed transpose: CTF redistributes the whole cyclic
            // layout (full block over the wire) + a local transpose pass.
            let mut t_trans = self.transpose.transpose_time(tgm, tgk / p, p, dtype);
            if self.grid.gk > 1 {
                t_trans += self.comm.send_time(block_bytes, self.grid.gk - 1);
                report.comm_bytes += block_bytes * self.grid.gpus() as u64;
            }
            report.add_step("dist-transpose", t_trans);
            report.launches += 2;
            report.stats.flops += 2 * (tgm * tgk) as u64 * p as u64 * self.grid.gpus() as u64;
        }
        Ok(report)
    }
}

/// DISTAL model: distributed FTMMT with per-iteration exchanges.
pub struct DistalEngine {
    device: DeviceSpec,
    grid: GpuGrid,
    comm: CommModel,
}

impl DistalEngine {
    /// Builds the engine for `gpus` devices.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] for unsupported GPU counts.
    pub fn new(device: &DeviceSpec, gpus: usize) -> Result<Self> {
        Ok(DistalEngine {
            device: device.clone(),
            grid: GpuGrid::for_gpus(gpus)?,
            comm: CommModel {
                alpha: device.nvlink_latency * 2.0,
                beta_bw: DISTAL_COMM_BW,
            },
        })
    }

    /// Functional result via the FTMMT reference.
    ///
    /// # Errors
    /// Shape errors from the reference algorithm.
    pub fn execute<T: Element>(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        kron_core::ftmmt::kron_matmul_ftmmt(x, factors)
    }

    /// Simulated wall time: per factor, a fused local contraction
    /// (direct-cached kernel, like cuTensor) + one exchange.
    ///
    /// # Errors
    /// Shape/grid or tuning errors.
    pub fn simulate<T: Element>(&self, problem: &KronProblem) -> Result<ExecReport> {
        let (tgm, tgk, p, n) = dist_shape(self.grid, problem)?;
        let dtype = T::DTYPE;
        let mut report = ExecReport::new(format!("DISTAL-{}GPU", self.grid.gpus()));

        let tuner = AutoTuner::new(&self.device);
        let cost = CostModel::new(&self.device);
        let outcome = tuner.tune_constrained(
            tgm,
            tgk,
            p,
            p,
            dtype,
            Constraints {
                caching: Caching::Direct,
                tp: None,
                rk: None,
            },
        )?;
        let (stats, t_mul) = price_launch::<T>(&cost, outcome.config, tgm, tgk, (p, p), 1)?;

        let e = dtype.bytes() as u64;
        let block_bytes = (tgm * tgk) as u64 * e;
        for _ in 0..n {
            report.add_step("contraction", t_mul);
            report.stats += stats;
            report.launches += 1;
            if self.grid.gk > 1 {
                // Legion re-materializes the distributed instance every
                // iteration: the full block crosses the fabric.
                let t_comm = self.comm.send_time(block_bytes, self.grid.gk - 1)
                    + (2 * block_bytes) as f64 / self.device.dram_bw;
                report.add_step("exchange", t_comm);
                report.comm_bytes += block_bytes * self.grid.gpus() as u64;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastkron::DistFastKron;
    use gpu_sim::device::V100;

    #[test]
    fn figure11_system_ordering_at_16_gpus() {
        // FastKron < DISTAL < CTF in wall time (paper: 7.85× over CTF,
        // 5.33× over DISTAL at 16 GPUs).
        let problem = KronProblem::uniform(2048, 64, 4).unwrap();
        let fk = DistFastKron::new(&V100, 16).unwrap();
        let ctf = CtfEngine::new(&V100, 16).unwrap();
        let distal = DistalEngine::new(&V100, 16).unwrap();
        let t_fk = fk.simulate::<f32>(&problem).unwrap().seconds;
        let t_ctf = ctf.simulate::<f32>(&problem).unwrap().seconds;
        let t_distal = distal.simulate::<f32>(&problem).unwrap().seconds;
        assert!(t_fk < t_distal, "FastKron {t_fk} vs DISTAL {t_distal}");
        assert!(t_distal < t_ctf, "DISTAL {t_distal} vs CTF {t_ctf}");
        let speedup_ctf = t_ctf / t_fk;
        assert!(
            (2.0..=20.0).contains(&speedup_ctf),
            "speedup over CTF {speedup_ctf}"
        );
    }

    #[test]
    fn fastkron_communicates_least() {
        let problem = KronProblem::uniform(1024, 64, 4).unwrap();
        let fk = DistFastKron::new(&V100, 16).unwrap();
        let ctf = CtfEngine::new(&V100, 16).unwrap();
        let distal = DistalEngine::new(&V100, 16).unwrap();
        let b_fk = fk.simulate::<f32>(&problem).unwrap().comm_bytes;
        let b_ctf = ctf.simulate::<f32>(&problem).unwrap().comm_bytes;
        let b_distal = distal.simulate::<f32>(&problem).unwrap().comm_bytes;
        assert!(b_fk < b_distal);
        assert!(b_fk < b_ctf);
        // DISTAL exchanges once per factor; FastKron once per Nlocal = 3
        // multiplies here (⌊log64 64^4/4⌋ = 3) → 2 rounds vs 4.
        assert_eq!(b_distal / b_fk, 2);
    }

    #[test]
    fn functional_baselines_work() {
        let x = Matrix::<f64>::from_fn(4, 16, |r, c| (r + c) as f64);
        let f = Matrix::<f64>::identity(4);
        let ctf = CtfEngine::new(&V100, 4).unwrap();
        let distal = DistalEngine::new(&V100, 4).unwrap();
        assert_eq!(ctf.execute(&x, &[&f, &f]).unwrap(), x);
        assert_eq!(distal.execute(&x, &[&f, &f]).unwrap(), x);
    }

    #[test]
    fn rejects_invalid() {
        assert!(CtfEngine::new(&V100, 5).is_err());
        assert!(DistalEngine::new(&V100, 7).is_err());
        let ctf = CtfEngine::new(&V100, 16).unwrap();
        let p = KronProblem::uniform(7, 4, 4).unwrap();
        assert!(ctf.simulate::<f32>(&p).is_err());
    }
}
