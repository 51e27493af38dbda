//! The planned FastKron API: autotune once, execute and simulate many times.
//!
//! Mirrors the library described in §4 of the paper ("FastKron provides
//! Python and C++ APIs … All the API functions call into a type generic
//! implementation of Algorithm 1"): [`FastKron::plan`] selects tile sizes
//! and fusion depths for every iteration of a problem, [`KronPlan::execute`]
//! runs the numbers, [`KronPlan::simulate`] prices the plan on the
//! simulated GPU, and [`KronPlan::execute_emulated`] runs the
//! thread-block-accurate kernels (tests / small problems).

use crate::exec::Workspace;
use crate::kernel::{price_launch, SlicedMultiplyKernel};
use crate::tile::TileConfig;
use crate::tuner::{AutoTuner, TuneReport};
use gpu_sim::cost::{CostModel, LaunchConfig};
use gpu_sim::device::DeviceSpec;
use gpu_sim::ExecReport;
use kron_core::{Element, KronError, KronProblem, Matrix, Result};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Maximum factor dimension the fused kernel is planned for (§4.2: "Our
/// experiments found this is true for P ≤ 32 and Q ≤ 32").
pub const FUSION_MAX_P: usize = 32;

/// One planned kernel launch covering `factor_indices.len()` consecutive
/// sliced multiplications.
#[derive(Debug, Clone)]
pub struct PlanStage {
    /// Factor indices (0-based into [`KronProblem::factors`]) this stage
    /// multiplies, in multiplication order (last factor of the problem
    /// first). Two or more make the stage a fused launch.
    pub factor_indices: Vec<usize>,
    /// The tile configuration chosen by the tuner.
    pub config: TileConfig,
    /// Launch geometry derived from the configuration.
    pub launch: LaunchConfig,
    /// Intermediate columns at stage entry.
    pub k_in: usize,
    /// Factor rows.
    pub p: usize,
    /// Factor columns.
    pub q: usize,
}

impl PlanStage {
    /// Whether the stage is one fused launch over several factors.
    pub fn fused(&self) -> bool {
        self.factor_indices.len() > 1
    }
}

/// Entry point for planning.
pub struct FastKron;

impl FastKron {
    /// Plans a problem with all optimizations (shift caching, fusion,
    /// autotuned tiles).
    ///
    /// # Errors
    /// Tuning errors when no configuration fits the device.
    pub fn plan<T: Element>(problem: &KronProblem, device: &DeviceSpec) -> Result<KronPlan<T>> {
        Self::plan_inner(problem, device, true)
    }

    /// Plans without the fusion optimization — the paper's
    /// "FastKron-wo-Fuse" ablation (Figure 9).
    ///
    /// # Errors
    /// Tuning errors when no configuration fits the device.
    pub fn plan_unfused<T: Element>(
        problem: &KronProblem,
        device: &DeviceSpec,
    ) -> Result<KronPlan<T>> {
        Self::plan_inner(problem, device, false)
    }

    /// Plans every iteration with one fixed configuration (no tuning);
    /// for experiments that isolate a single kernel variant.
    ///
    /// # Errors
    /// Config-validity errors against any iteration shape.
    pub fn plan_with_config<T: Element>(
        problem: &KronProblem,
        device: &DeviceSpec,
        config: TileConfig,
    ) -> Result<KronPlan<T>> {
        let mut stages = Vec::new();
        for it in problem.iterations() {
            let (k, p, q) = (it.input_cols, it.factor.p, it.factor.q);
            config.validate(problem.m, k, p, q)?;
            stages.push(PlanStage {
                factor_indices: vec![it.factor_index],
                config,
                launch: config.launch(problem.m, k, p, q, false, T::DTYPE),
                k_in: k,
                p,
                q,
            });
        }
        Ok(KronPlan {
            problem: problem.clone(),
            device: device.clone(),
            stages,
            tune_report: TuneReport::default(),
            _marker: PhantomData,
        })
    }

    fn plan_inner<T: Element>(
        problem: &KronProblem,
        device: &DeviceSpec,
        allow_fusion: bool,
    ) -> Result<KronPlan<T>> {
        let tuner = AutoTuner::new(device);
        let mut stages: Vec<PlanStage> = Vec::new();
        let mut tune_report = TuneReport::default();
        // Tuning cache: iteration shapes repeat for uniform problems.
        // Key: (K, P, salt, fused); value: (config, nfused, per-factor s).
        type TuneCache = HashMap<(usize, usize, usize, bool), (TileConfig, usize, f64)>;
        let mut cache: TuneCache = HashMap::new();

        let iterations: Vec<_> = problem.iterations().collect();
        let mut i = 0;
        while i < iterations.len() {
            let it = &iterations[i];
            let (p, q) = (it.factor.p, it.factor.q);
            let k = it.input_cols;

            // How many consecutive upcoming factors share this square shape
            // (fusion candidates)?
            let mut run = 1;
            while i + run < iterations.len() && iterations[i + run].factor == it.factor && p == q {
                run += 1;
            }

            let fuse_ok = allow_fusion && p == q && p <= FUSION_MAX_P && run > 1;

            let unfused_key = (k, p, q.wrapping_mul(2) + 1, false);
            let (ucfg, _, u_per_factor) = match cache.get(&unfused_key) {
                Some(v) => *v,
                None => {
                    let out = tuner.tune(problem.m, k, p, q, T::DTYPE)?;
                    tune_report.generated += out.report.generated;
                    tune_report.scored += out.report.scored;
                    tune_report.tuning_seconds += out.report.tuning_seconds;
                    let v = (out.config, 1usize, out.est_seconds);
                    cache.insert(unfused_key, v);
                    v
                }
            };

            let fused_choice = if fuse_ok {
                let key = (k, p, run, true);
                match cache.get(&key) {
                    Some(v) => Some(*v),
                    None => match tuner.tune_fused(problem.m, k, p, run, T::DTYPE) {
                        Ok(out) => {
                            tune_report.generated += out.report.generated;
                            tune_report.scored += out.report.scored;
                            tune_report.tuning_seconds += out.report.tuning_seconds;
                            let v = (out.config, out.nfused, out.est_seconds / out.nfused as f64);
                            cache.insert(key, v);
                            Some(v)
                        }
                        Err(_) => None,
                    },
                }
            } else {
                None
            };

            let use_fused = fused_choice
                .as_ref()
                .is_some_and(|(_, nf, per_factor)| *nf > 1 && *per_factor < u_per_factor);

            if use_fused {
                let (cfg, nf, _) = fused_choice.unwrap();
                let nf = nf.min(run);
                let idxs: Vec<usize> = (0..nf).map(|j| iterations[i + j].factor_index).collect();
                stages.push(PlanStage {
                    factor_indices: idxs,
                    config: cfg,
                    launch: cfg.launch(problem.m, k, p, q, true, T::DTYPE),
                    k_in: k,
                    p,
                    q,
                });
                i += nf;
            } else {
                stages.push(PlanStage {
                    factor_indices: vec![it.factor_index],
                    config: ucfg,
                    launch: ucfg.launch(problem.m, k, p, q, false, T::DTYPE),
                    k_in: k,
                    p,
                    q,
                });
                i += 1;
            }
        }

        Ok(KronPlan {
            problem: problem.clone(),
            device: device.clone(),
            stages,
            tune_report,
            _marker: PhantomData,
        })
    }
}

/// An autotuned execution plan for one Kron-Matmul problem on one device.
pub struct KronPlan<T> {
    problem: KronProblem,
    device: DeviceSpec,
    /// Planned kernel launches in execution order.
    pub stages: Vec<PlanStage>,
    /// Aggregated tuning statistics (§6.1).
    pub tune_report: TuneReport,
    _marker: PhantomData<T>,
}

impl<T: Element> KronPlan<T> {
    /// The planned problem.
    pub fn problem(&self) -> &KronProblem {
        &self.problem
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Number of kernel launches the plan issues.
    pub fn launches(&self) -> usize {
        self.stages.len()
    }

    /// Allocates a fused-path [`Workspace`] sized for the planned problem.
    ///
    /// [`Self::execute`] creates one per call; callers running the plan
    /// repeatedly should create the workspace once and call
    /// [`Workspace::execute_into`] on it, so no execution ever allocates.
    pub fn workspace(&self) -> Workspace<T> {
        Workspace::new(&self.problem)
    }

    /// Computes `Y = X · (F1 ⊗ … ⊗ FN)` on the fused execution path
    /// ([`crate::exec`]) with a fresh [`Self::workspace`]: no transpose
    /// pass, and every host thread on a large enough problem. Tiling
    /// choices in the plan do not affect values.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the planned problem.
    pub fn execute(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        self.workspace().execute(x, factors)
    }

    /// Computes the result by running every planned thread block through
    /// the kernel emulator — bit-identical index arithmetic to the CUDA
    /// kernels, including shift caching and fused epilogues. Quadratically
    /// slower than [`Self::execute`]; meant for verification.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the planned problem.
    pub fn execute_emulated(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        self.problem.check_factors(factors)?;
        if x.rows() != self.problem.m || x.cols() != self.problem.input_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("X {}×{}", self.problem.m, self.problem.input_cols()),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        let mut y = x.clone();
        for stage in &self.stages {
            let group: Vec<&Matrix<T>> = stage.factor_indices.iter().map(|&i| factors[i]).collect();
            let kern = SlicedMultiplyKernel::new(stage.config, self.problem.m, stage.k_in, &group)?;
            y = kern.run_all(&y)?;
        }
        Ok(y)
    }

    /// Prices the plan on the simulated device: traces one thread block
    /// per stage, extrapolates to the grid, and applies the roofline cost
    /// model. Returns total and per-step simulated time plus hardware
    /// counters.
    ///
    /// # Errors
    /// Resource/occupancy errors from the cost model.
    pub fn simulate(&self) -> Result<ExecReport> {
        let cost = CostModel::new(&self.device);
        let mut report = ExecReport::new("FastKron");
        for stage in &self.stages {
            let (stats, seconds) = price_launch::<T>(
                &cost,
                stage.config,
                self.problem.m,
                stage.k_in,
                (stage.p, stage.q),
                stage.factor_indices.len(),
            )?;
            let label = if stage.fused() {
                "fused-sliced-multiply"
            } else {
                "sliced-multiply"
            };
            report.add_step(label, seconds);
            report.stats += stats;
            report.launches += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::V100;
    use kron_core::naive::kron_matmul_naive;
    use kron_core::{assert_matrices_close, FactorShape};

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 7 * r * cols + c) % 11) as f64 - 5.0
        })
    }

    fn run_problem(problem: &KronProblem, seed: usize) {
        let x = seq_matrix(problem.m, problem.input_cols(), seed);
        let fs: Vec<Matrix<f64>> = problem
            .factors
            .iter()
            .enumerate()
            .map(|(i, s)| seq_matrix(s.p, s.q, seed + i + 1))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let plan = FastKron::plan::<f64>(problem, &V100).unwrap();
        let fast = plan.execute(&x, &refs).unwrap();
        let emulated = plan.execute_emulated(&x, &refs).unwrap();
        let oracle = kron_matmul_naive(&x, &refs).unwrap();
        assert_matrices_close(&fast, &oracle, &format!("{problem} execute"));
        assert_matrices_close(&emulated, &oracle, &format!("{problem} emulated"));
    }

    #[test]
    fn plan_execute_emulate_uniform_small_p() {
        run_problem(&KronProblem::uniform(4, 4, 4).unwrap(), 1);
    }

    #[test]
    fn plan_execute_emulate_uniform_medium_p() {
        run_problem(&KronProblem::uniform(3, 8, 3).unwrap(), 2);
    }

    #[test]
    fn plan_execute_emulate_large_p_no_fusion() {
        let problem = KronProblem::uniform(2, 64, 2).unwrap();
        let plan = FastKron::plan::<f64>(&problem, &V100).unwrap();
        assert!(
            plan.stages.iter().all(|s| !s.fused()),
            "P = 64 > 32 must not fuse"
        );
        run_problem(&problem, 3);
    }

    #[test]
    fn plan_execute_emulate_rectangular() {
        let problem = KronProblem::new(
            3,
            vec![
                FactorShape::new(5, 2),
                FactorShape::new(4, 6),
                FactorShape::new(2, 2),
            ],
        )
        .unwrap();
        run_problem(&problem, 4);
    }

    #[test]
    fn fusion_is_planned_for_small_square_factors() {
        let problem = KronProblem::uniform(8, 4, 6).unwrap();
        let plan = FastKron::plan::<f32>(&problem, &V100).unwrap();
        assert!(
            plan.stages.iter().any(|s| s.fused()),
            "P = 4, N = 6 should fuse; stages: {:?}",
            plan.stages
                .iter()
                .map(|s| (s.fused(), s.factor_indices.clone()))
                .collect::<Vec<_>>()
        );
        // Fused plan must launch fewer kernels than factors.
        assert!(plan.launches() < problem.num_factors());
    }

    #[test]
    fn unfused_plan_launches_once_per_factor() {
        let problem = KronProblem::uniform(8, 4, 6).unwrap();
        let plan = FastKron::plan_unfused::<f32>(&problem, &V100).unwrap();
        assert_eq!(plan.launches(), 6);
        assert!(plan.stages.iter().all(|s| !s.fused()));
    }

    #[test]
    fn stages_cover_every_factor_exactly_once() {
        for problem in [
            KronProblem::uniform(4, 8, 5).unwrap(),
            KronProblem::uniform(16, 32, 3).unwrap(),
            KronProblem::new(
                2,
                vec![
                    FactorShape::new(3, 3),
                    FactorShape::new(3, 3),
                    FactorShape::new(2, 5),
                ],
            )
            .unwrap(),
        ] {
            let plan = FastKron::plan::<f32>(&problem, &V100).unwrap();
            let mut seen: Vec<usize> = plan
                .stages
                .iter()
                .flat_map(|s| s.factor_indices.clone())
                .collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..problem.num_factors()).collect();
            assert_eq!(seen, expected, "{problem}");
        }
    }

    #[test]
    fn simulate_reports_positive_time_and_counters() {
        let problem = KronProblem::uniform(16, 8, 4).unwrap();
        let plan = FastKron::plan::<f32>(&problem, &V100).unwrap();
        let rep = plan.simulate().unwrap();
        assert!(rep.seconds > 0.0);
        assert_eq!(rep.launches, plan.launches() as u64);
        assert_eq!(rep.stats.flops, problem.flops());
        assert!(rep.stats.gmem_store_sectors > 0);
    }

    #[test]
    fn fusion_reduces_simulated_global_traffic() {
        let problem = KronProblem::uniform(64, 8, 5).unwrap();
        let fused = FastKron::plan::<f32>(&problem, &V100).unwrap();
        let unfused = FastKron::plan_unfused::<f32>(&problem, &V100).unwrap();
        let rf = fused.simulate().unwrap();
        let ru = unfused.simulate().unwrap();
        assert!(
            rf.stats.gmem_sectors() < ru.stats.gmem_sectors(),
            "fused {} vs unfused {} sectors",
            rf.stats.gmem_sectors(),
            ru.stats.gmem_sectors()
        );
    }

    #[test]
    fn execute_validates_operands() {
        let problem = KronProblem::uniform(2, 4, 2).unwrap();
        let plan = FastKron::plan::<f64>(&problem, &V100).unwrap();
        let x = seq_matrix(2, 16, 0);
        let f = seq_matrix(4, 4, 1);
        let wrong_f = seq_matrix(2, 4, 1);
        assert!(plan.execute(&x, &[&f]).is_err());
        assert!(plan.execute(&x, &[&f, &wrong_f]).is_err());
        let wrong_x = seq_matrix(2, 8, 0);
        assert!(plan.execute(&wrong_x, &[&f, &f]).is_err());
        assert!(plan.execute(&x, &[&f, &f]).is_ok());
    }

    #[test]
    fn plan_with_config_fixed_tiles() {
        let problem = KronProblem::uniform(2, 4, 3).unwrap();
        let cfg = TileConfig {
            tm: 1,
            tk: 16,
            tq: 2,
            tp: 2,
            rk: 2,
            rq: 1,
            rp: 1,
            caching: crate::tile::Caching::Direct,
        };
        let plan = FastKron::plan_with_config::<f64>(&problem, &V100, cfg).unwrap();
        assert_eq!(plan.launches(), 3);
        run_problem_with(&plan, &problem, 9);
    }

    fn run_problem_with(plan: &KronPlan<f64>, problem: &KronProblem, seed: usize) {
        let x = seq_matrix(problem.m, problem.input_cols(), seed);
        let fs: Vec<Matrix<f64>> = problem
            .factors
            .iter()
            .enumerate()
            .map(|(i, s)| seq_matrix(s.p, s.q, seed + i + 1))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let oracle = kron_matmul_naive(&x, &refs).unwrap();
        assert_matrices_close(&plan.execute(&x, &refs).unwrap(), &oracle, "cfg execute");
        assert_matrices_close(
            &plan.execute_emulated(&x, &refs).unwrap(),
            &oracle,
            "cfg emulated",
        );
    }
}
