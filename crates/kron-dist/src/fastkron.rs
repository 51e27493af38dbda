//! Distributed FastKron — Algorithm 2 of the paper.
//!
//! The input `X[M × K]` is partitioned over a `{GM, GK}` grid; each GPU
//! owns a contiguous `TGM × TGK` block. Because a column block of the
//! intermediate behaves exactly like the fused kernel's shared-memory
//! tile, each GPU can run `Nlocal = ⌊log_P TGK⌋` *local* sliced
//! multiplications before any communication; one all-to-all relocation
//! per group (`StoreGPUTile`, the inter-GPU analog of `StoreFusedShMem`)
//! then restores the canonical block distribution. Communication volume
//! is exactly `GM · ⌈N/Nlocal⌉ · TGM · (K − TGK)` elements — the paper's
//! closed form — versus one exchange *per factor* in CTF/DISTAL.

use crate::engine::ShardedEngine;
use crate::fabric::{CommModel, GpuGrid};
use fastkron_core::kernel::SlicedMultiplyKernel;
use fastkron_core::tuner::AutoTuner;
use gpu_sim::cost::CostModel;
use gpu_sim::device::DeviceSpec;
use gpu_sim::trace::Tracer;
use gpu_sim::ExecReport;
use kron_core::{Element, KronError, KronProblem, Matrix, Result};

/// Distributed FastKron engine over a simulated GPU fabric.
pub struct DistFastKron {
    device: DeviceSpec,
    grid: GpuGrid,
    comm: CommModel,
}

/// Shape parameters of one distributed run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DistShape {
    pub(crate) tgm: usize,
    pub(crate) tgk: usize,
    pub(crate) p: usize,
    pub(crate) n: usize,
    pub(crate) nlocal: usize,
    pub(crate) rounds: usize,
}

/// Validates that `problem` is shardable over `grid` and derives the
/// per-GPU shape — the checks every distributed entry point shares.
pub(crate) fn dist_shape(grid: GpuGrid, problem: &KronProblem) -> Result<DistShape> {
    if !problem.is_uniform() || problem.factors[0].p != problem.factors[0].q {
        return Err(KronError::InvalidGrid {
            reason: "distributed Kron-Matmul requires identical square factors".into(),
        });
    }
    let p = problem.factors[0].p;
    let n = problem.num_factors();
    let k = problem.input_cols();
    let (gm, gk) = (grid.gm, grid.gk);
    if !problem.m.is_multiple_of(gm) {
        return Err(KronError::InvalidGrid {
            reason: format!("M = {} not divisible by GM = {gm}", problem.m),
        });
    }
    if !k.is_multiple_of(gk) {
        return Err(KronError::InvalidGrid {
            reason: format!("K = {k} not divisible by GK = {gk}"),
        });
    }
    let tgk = k / gk;
    if gk > p {
        return Err(KronError::InvalidGrid {
            reason: format!("GK = {gk} exceeds P = {p}; columns would interleave"),
        });
    }
    if !tgk.is_multiple_of(gk) {
        return Err(KronError::InvalidGrid {
            reason: format!("TGK = {tgk} not divisible by GK = {gk}"),
        });
    }
    let nlocal = DistFastKron::nlocal(p, tgk).min(n);
    if !tgk.is_multiple_of(p.pow(nlocal as u32)) {
        return Err(KronError::InvalidGrid {
            reason: format!("TGK = {tgk} not divisible by P^Nlocal"),
        });
    }
    Ok(DistShape {
        tgm: problem.m / gm,
        tgk,
        p,
        n,
        nlocal,
        rounds: n.div_ceil(nlocal),
    })
}

/// Simulated wall-clock report for `problem` sharded over `grid`: local
/// kernel time from the traced single-GPU machinery on the per-GPU block,
/// plus α–β exchange time per round. All GPUs progress in lockstep (the
/// workload is perfectly balanced), so wall time equals one GPU's time.
pub(crate) fn simulate_sharded<T: Element>(
    device: &DeviceSpec,
    grid: GpuGrid,
    comm: &CommModel,
    problem: &KronProblem,
) -> Result<ExecReport> {
    let s = dist_shape(grid, problem)?;
    let mut report = ExecReport::new(format!("FastKron-{}GPU", grid.gpus()));

    // One local sliced multiply on the TGM × TGK block.
    let tuner = AutoTuner::new(device);
    let cost = CostModel::new(device);
    let outcome = tuner.tune(s.tgm, s.tgk, s.p, s.p, T::DTYPE)?;
    let zeros = Matrix::<T>::zeros(s.p, s.p);
    let kern = SlicedMultiplyKernel::new(outcome.config, s.tgm, s.tgk, &zeros)?;
    let mut tracer = Tracer::new(device);
    let per_block = kern.trace_block(&mut tracer);
    let launch = outcome.config.launch(s.tgm, s.tgk, s.p, s.p, T::DTYPE);
    let stats = per_block.scaled(launch.grid_blocks as u64);
    let t_mul = cost.kernel_time(&launch, &stats, T::DTYPE)?.total_s;

    let e = T::DTYPE.bytes();
    let part_bytes = (s.tgm * s.tgk * e) as u64;
    let send_bytes = part_bytes - part_bytes / grid.gk as u64;
    for round in 0..s.rounds {
        let nl = s.nlocal.min(s.n - round * s.nlocal);
        report.add_step("local-multiply", t_mul * nl as f64);
        report.stats += stats.scaled(nl as u64);
        report.launches += nl as u64;
        if grid.gk > 1 {
            let t_comm = comm.send_time(send_bytes, grid.gk - 1);
            // StoreGPUTile pass: re-writes the local block.
            let t_place = (2 * part_bytes) as f64 / device.dram_bw;
            report.add_step("exchange", t_comm + t_place);
            report.comm_bytes += send_bytes * (grid.gm * grid.gk) as u64;
        }
    }
    Ok(report)
}

impl DistFastKron {
    /// Builds the engine for `gpus` devices of type `device`, using NCCL
    /// for communication.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] for unsupported GPU counts.
    pub fn new(device: &DeviceSpec, gpus: usize) -> Result<Self> {
        Ok(DistFastKron {
            device: device.clone(),
            grid: GpuGrid::for_gpus(gpus)?,
            comm: CommModel::nccl(device),
        })
    }

    /// Switches to the single-kernel P2P communication path (§5: "If all
    /// NVIDIA GPUs in the same gM supports Point-to-Point accesses").
    pub fn with_p2p(mut self) -> Self {
        self.comm = CommModel::p2p(&self.device);
        self
    }

    /// The GPU grid in use.
    pub fn grid(&self) -> GpuGrid {
        self.grid
    }

    /// `Nlocal = ⌊log_p tgk⌋` (at least 1).
    pub fn nlocal(p: usize, tgk: usize) -> usize {
        let mut n = 0;
        let mut cap = tgk;
        while cap >= p && p > 1 {
            cap /= p;
            n += 1;
        }
        n.max(1)
    }

    fn shape(&self, problem: &KronProblem) -> Result<DistShape> {
        dist_shape(self.grid, problem)
    }

    /// Cheap shardability check: `Ok(())` when `problem` can shard over
    /// this engine's grid, the [`KronError::InvalidGrid`] reason
    /// otherwise. Pure arithmetic — no engine or device blocks are built,
    /// so this is the right probe for schedulers and tests.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] with the violated constraint.
    pub fn shardable(&self, problem: &KronProblem) -> Result<()> {
        self.shape(problem).map(|_| ())
    }

    /// [`Self::shardable`] without an engine handle: the same pure
    /// arithmetic probe against an explicit `grid` — what a plan cache
    /// uses to predict, *before building anything*, whether a shape will
    /// shard or fall back to single-device execution.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] with the violated constraint.
    pub fn shardable_over(grid: GpuGrid, problem: &KronProblem) -> Result<()> {
        dist_shape(grid, problem).map(|_| ())
    }

    /// Builds a caller-owned, reusable [`ShardedEngine`] for `problem` —
    /// the planning-free entry point: every simulated GPU's block is
    /// allocated once, and the engine is callable many times with zero
    /// steady-state allocations. `problem.m` is the row capacity.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when `problem` cannot shard over this
    /// engine's grid.
    pub fn workspace<T: Element>(&self, problem: &KronProblem) -> Result<ShardedEngine<T>> {
        ShardedEngine::new(&self.device, self.grid, self.comm.clone(), problem)
    }

    /// Total elements communicated across the machine — the paper's
    /// closed form `GM · Σ_rounds TGM · (K − TGK)`.
    ///
    /// # Errors
    /// Shape errors as in [`Self::execute`].
    pub fn comm_volume_elements(&self, problem: &KronProblem) -> Result<u64> {
        let s = self.shape(problem)?;
        let k = problem.input_cols();
        if self.grid.gk == 1 {
            return Ok(0);
        }
        Ok((self.grid.gm * self.grid.gk) as u64
            * s.rounds as u64
            * s.tgm as u64
            * (k - s.tgk) as u64
            / self.grid.gk as u64)
    }

    /// Functional distributed execution: the real Algorithm 2 control
    /// flow, with every simulated GPU stepped in lockstep and each
    /// relocation round copying blocks between devices. Returns the
    /// gathered `M × K` result.
    ///
    /// This is the one-shot convenience over [`Self::workspace`]: it
    /// builds a throwaway [`ShardedEngine`] per call. Servers should hold
    /// the engine instead and pay planning and allocation once.
    ///
    /// # Errors
    /// Shape/grid errors; operand mismatches.
    pub fn execute<T: Element>(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        let shapes: Vec<_> = factors
            .iter()
            .map(|f| kron_core::FactorShape::new(f.rows(), f.cols()))
            .collect();
        let problem = KronProblem::new(x.rows(), shapes)?;
        let mut y = Matrix::zeros(problem.m, problem.output_cols());
        // Operands first, so a wrong `X` is a shape error even on a
        // problem the grid cannot shard.
        problem.check_rows(x, &y, problem.m)?;
        let mut engine = self.workspace::<T>(&problem)?;
        engine.execute_rows(x, factors, &mut y, problem.m)?;
        Ok(y)
    }

    /// Simulated wall-clock report: local kernel time from the traced
    /// single-GPU machinery on the per-GPU block, plus α–β exchange time
    /// per round. All GPUs progress in lockstep (the workload is perfectly
    /// balanced), so wall time equals one GPU's time.
    ///
    /// # Errors
    /// Shape/grid or tuning errors.
    pub fn simulate<T: Element>(&self, problem: &KronProblem) -> Result<ExecReport> {
        simulate_sharded::<T>(&self.device, self.grid, &self.comm, problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastkron_core::kron_matmul_fused;
    use gpu_sim::device::V100;
    use kron_core::assert_matrices_close;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 3 * r * cols + c) % 13) as f64 - 6.0
        })
    }

    fn check_distributed(m: usize, p: usize, n: usize, gpus: usize) {
        let k = p.pow(n as u32);
        let x = seq_matrix(m, k, 1);
        let fs: Vec<Matrix<f64>> = (0..n).map(|i| seq_matrix(p, p, i * 5 + 2)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let engine = DistFastKron::new(&V100, gpus).unwrap();
        let got = engine.execute(&x, &refs).unwrap();
        let oracle = kron_matmul_fused(&x, &refs).unwrap();
        assert_matrices_close(&got, &oracle, &format!("dist m={m} {p}^{n} on {gpus} GPUs"));
    }

    #[test]
    fn matches_single_device_2_gpus() {
        check_distributed(4, 4, 3, 2);
    }

    #[test]
    fn matches_single_device_4_gpus() {
        check_distributed(4, 4, 4, 4);
        check_distributed(2, 8, 3, 4);
    }

    #[test]
    fn matches_single_device_8_gpus() {
        check_distributed(4, 4, 4, 8);
    }

    #[test]
    fn matches_single_device_16_gpus() {
        check_distributed(8, 4, 4, 16);
        check_distributed(4, 8, 3, 16);
    }

    #[test]
    fn single_gpu_degenerates_to_local() {
        check_distributed(3, 4, 3, 1);
        let engine = DistFastKron::new(&V100, 1).unwrap();
        let problem = KronProblem::uniform(4, 4, 3).unwrap();
        assert_eq!(engine.comm_volume_elements(&problem).unwrap(), 0);
    }

    #[test]
    fn multiple_rounds_when_nlocal_small() {
        // K/GK = 64 with P = 4 → Nlocal = ⌊log₄64⌋ = 3 < N = 4 → 2 rounds
        // (3 multiplies, exchange, 1 multiply, exchange).
        let engine = DistFastKron::new(&V100, 16).unwrap();
        let problem = KronProblem::uniform(8, 4, 4).unwrap();
        let s = engine.shape(&problem).unwrap();
        assert_eq!(s.nlocal, 3);
        assert_eq!(s.rounds, 2);
        check_distributed(8, 4, 4, 16);
    }

    #[test]
    fn comm_volume_matches_closed_form() {
        // GM·rounds·TGM·(K−TGK) elements.
        let engine = DistFastKron::new(&V100, 16).unwrap();
        let problem = KronProblem::uniform(8, 4, 4).unwrap();
        let k = 256;
        let tgk = k / 4;
        let expected = 4u64 * 2 * 2 * (k - tgk) as u64;
        assert_eq!(engine.comm_volume_elements(&problem).unwrap(), expected);
    }

    #[test]
    fn grouped_communication_beats_per_iteration() {
        // The §5 claim: FastKron's volume is 1/Nlocal of a per-iteration
        // scheme. N = 4, Nlocal = 2 → half the volume.
        let engine = DistFastKron::new(&V100, 16).unwrap();
        let problem = KronProblem::uniform(8, 4, 4).unwrap();
        let grouped = engine.comm_volume_elements(&problem).unwrap();
        let per_iteration = 4u64 * 4 * 2 * (256 - 64) as u64; // rounds = N
        assert_eq!(grouped * 2, per_iteration);
    }

    #[test]
    fn simulate_scales_with_gpus() {
        // Weak scaling: M grows with the machine; achieved TFLOPS must
        // grow too.
        let mut last = 0.0;
        for gpus in [1usize, 4, 16] {
            let m = 64 * gpus;
            let problem = KronProblem::uniform(m, 64, 3).unwrap();
            let engine = DistFastKron::new(&V100, gpus).unwrap();
            let r = engine.simulate::<f32>(&problem).unwrap();
            let tf = r.tflops(problem.flops());
            assert!(tf > last, "{gpus} GPUs: {tf} TFLOPS vs previous {last}");
            last = tf;
        }
    }

    #[test]
    fn p2p_is_faster_than_nccl() {
        let problem = KronProblem::uniform(64, 16, 4).unwrap();
        let nccl = DistFastKron::new(&V100, 16).unwrap();
        let p2p = DistFastKron::new(&V100, 16).unwrap().with_p2p();
        let t_nccl = nccl.simulate::<f32>(&problem).unwrap().seconds;
        let t_p2p = p2p.simulate::<f32>(&problem).unwrap().seconds;
        assert!(t_p2p < t_nccl);
    }

    #[test]
    fn rejects_bad_grids_and_shapes() {
        assert!(DistFastKron::new(&V100, 3).is_err());
        let engine = DistFastKron::new(&V100, 16).unwrap();
        // M not divisible by GM.
        let p1 = KronProblem::uniform(7, 4, 4).unwrap();
        assert!(engine.simulate::<f32>(&p1).is_err());
        // GK > P.
        let p2 = KronProblem::uniform(8, 2, 8).unwrap();
        assert!(engine.simulate::<f32>(&p2).is_err());
        // Non-square factors.
        let p3 = KronProblem::new(8, vec![kron_core::FactorShape::new(4, 2); 4]).unwrap();
        assert!(engine.simulate::<f32>(&p3).is_err());
        // A wrong-width X is a shape error, whether or not the grid can
        // shard the problem (M = 7 cannot be split over GM).
        let f = Matrix::<f32>::identity(4);
        let two = DistFastKron::new(&V100, 2).unwrap();
        assert!(matches!(
            two.execute(&Matrix::<f32>::zeros(4, 63), &[&f; 3]),
            Err(KronError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.execute(&Matrix::<f32>::zeros(7, 255), &[&f; 4]),
            Err(KronError::ShapeMismatch { .. })
        ));
    }
}
