//! Cross-crate integration tests: every engine in the workspace must
//! produce identical results on shared inputs, and the simulated-time
//! relationships the paper reports must hold end to end.

use fastkron::baselines::{
    CuTensorEngine, Engine, FastKronEngine, FtmmtEngine, NaiveEngine, ShuffleEngine,
};
use fastkron::dist::DistFastKron;
use fastkron::kron::FastKron;
use fastkron::prelude::*;
use kron_core::naive::kron_matmul_naive;
use kron_core::{FactorShape, Matrix};

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 11 * r * cols + c) % 19) as f64 - 9.0
    })
}

fn problem_inputs(problem: &KronProblem, seed: usize) -> (Matrix<f64>, Vec<Matrix<f64>>) {
    let x = seq_matrix(problem.m, problem.input_cols(), seed);
    let fs = problem
        .factors
        .iter()
        .enumerate()
        .map(|(i, s)| seq_matrix(s.p, s.q, seed + 3 * i + 1))
        .collect();
    (x, fs)
}

#[test]
fn all_engines_agree_on_uniform_problem() {
    let problem = KronProblem::uniform(6, 4, 4).unwrap();
    let (x, fs) = problem_inputs(&problem, 5);
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();
    let oracle = kron_matmul_naive(&x, &refs).unwrap();

    let engines: Vec<Box<dyn Engine<f64>>> = vec![
        Box::new(FastKronEngine::new(&V100)),
        Box::new(FastKronEngine::without_fusion(&V100)),
        Box::new(ShuffleEngine::new(&V100)),
        Box::new(FtmmtEngine::new(&V100)),
        Box::new(CuTensorEngine::new(&V100)),
    ];
    for engine in engines {
        let y = engine.execute(&x, &refs).unwrap();
        assert_matrices_close(&y, &oracle, engine.name());
    }
}

#[test]
fn all_engines_agree_on_mixed_rectangular_problem() {
    let problem = KronProblem::new(
        5,
        vec![
            FactorShape::new(3, 2),
            FactorShape::new(2, 5),
            FactorShape::new(4, 3),
        ],
    )
    .unwrap();
    let (x, fs) = problem_inputs(&problem, 9);
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();
    let oracle = kron_matmul_naive(&x, &refs).unwrap();
    for engine in [
        Box::new(FastKronEngine::new(&V100)) as Box<dyn Engine<f64>>,
        Box::new(ShuffleEngine::new(&V100)),
        Box::new(FtmmtEngine::new(&V100)),
    ] {
        let y = engine.execute(&x, &refs).unwrap();
        assert_matrices_close(&y, &oracle, engine.name());
    }
}

#[test]
fn emulated_kernels_match_functional_plan_end_to_end() {
    for (m, p, n) in [(4usize, 4usize, 3usize), (3, 8, 2), (2, 16, 2)] {
        let problem = KronProblem::uniform(m, p, n).unwrap();
        let (x, fs) = problem_inputs(&problem, m + p);
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let plan = FastKron::plan::<f64>(&problem, &V100).unwrap();
        let fast = plan.execute(&x, &refs).unwrap();
        let emulated = plan.execute_emulated(&x, &refs).unwrap();
        assert_matrices_close(&emulated, &fast, &format!("emulated {p}^{n}"));
    }
}

#[test]
fn distributed_matches_every_other_engine() {
    let problem = KronProblem::uniform(8, 4, 4).unwrap();
    let (x, fs) = problem_inputs(&problem, 2);
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();
    let oracle = kron_matmul_naive(&x, &refs).unwrap();
    for gpus in [1usize, 2, 4, 8, 16] {
        let engine = DistFastKron::new(&V100, gpus).unwrap();
        let y = engine.execute(&x, &refs).unwrap();
        assert_matrices_close(&y, &oracle, &format!("distributed on {gpus} GPUs"));
    }
}

#[test]
fn figure9_ordering_holds_at_all_sizes() {
    // GPyTorch < FTMMT engines < FastKron in simulated throughput.
    for (p, n) in [(8usize, 4usize), (16, 3), (32, 3)] {
        let problem = KronProblem::uniform(256, p, n).unwrap();
        let t_gp = Engine::<f32>::simulate(&ShuffleEngine::new(&V100), &problem)
            .unwrap()
            .seconds;
        let t_co = Engine::<f32>::simulate(&FtmmtEngine::new(&V100), &problem)
            .unwrap()
            .seconds;
        let t_fk = Engine::<f32>::simulate(&FastKronEngine::new(&V100), &problem)
            .unwrap()
            .seconds;
        assert!(t_fk <= t_co, "{p}^{n}: FastKron {t_fk} vs COGENT {t_co}");
        assert!(t_co < t_gp, "{p}^{n}: COGENT {t_co} vs GPyTorch {t_gp}");
    }
}

#[test]
fn fusion_helps_small_p_not_large_p() {
    // Paper Figure 9: fusion gives 2.20x at 8^5, nothing at P >= 64.
    let small = KronProblem::uniform(512, 8, 4).unwrap();
    let t_f = Engine::<f32>::simulate(&FastKronEngine::new(&V100), &small)
        .unwrap()
        .seconds;
    let t_u = Engine::<f32>::simulate(&FastKronEngine::without_fusion(&V100), &small)
        .unwrap()
        .seconds;
    let gain = t_u / t_f;
    assert!(gain > 1.3, "fusion gain at 8^4 only {gain}");

    let large = KronProblem::uniform(64, 64, 2).unwrap();
    let plan = FastKron::plan::<f32>(&large, &V100).unwrap();
    assert!(plan.stages.iter().all(|s| !s.fused), "P=64 must not fuse");
}

#[test]
fn double_precision_runs_at_half_throughput() {
    let problem = KronProblem::uniform(1024, 64, 2).unwrap();
    let engine = FastKronEngine::new(&V100);
    let t32 = Engine::<f32>::simulate(&engine, &problem).unwrap().seconds;
    let t64 = Engine::<f64>::simulate(&engine, &problem).unwrap().seconds;
    let ratio = t64 / t32;
    assert!((1.2..=2.6).contains(&ratio), "f64/f32 ratio {ratio}");
}

#[test]
fn gp_training_pipeline_end_to_end() {
    use fastkron::gp::{Dataset, InducingGrid, SkiGp, UciDataset};
    let data = Dataset::synthesize_subsampled(UciDataset::ThreeDRoad, 3, 80);
    let grid = InducingGrid::new(3, 4, 0.35).unwrap();
    let gp = SkiGp::<f64>::new(grid, &data.features, 0.3).unwrap();
    let mut b = Matrix::<f64>::zeros(16, data.len());
    for i in 0..16 {
        for (j, &t) in data.targets.iter().enumerate() {
            b[(i, j)] = t * ((i + 1) as f64 / 16.0);
        }
    }
    let solve = gp.solve(&b, 80, 1e-9).unwrap();
    assert!(solve.iterations > 0);
    // Solutions scale linearly with the RHS scaling we applied.
    for j in 0..data.len() {
        let z1 = solve.z[(0, j)];
        let z16 = solve.z[(15, j)];
        assert!(
            (z16 - 16.0 * z1).abs() < 1e-5 * (1.0 + z16.abs()),
            "row scaling at col {j}: {z16} vs 16×{z1}"
        );
    }
}

/// One operand check for every reference Kron-Matmul and every engine
/// that computes through one: a factor with no rows or no columns, a
/// wrong `X` width and an empty factor list are typed errors, never a
/// panic, and an `X` with no rows gives a product with no rows.
#[test]
fn every_entry_point_checks_operands_alike() {
    type EntryPoint = Box<dyn Fn(&Matrix<f64>, &[&Matrix<f64>]) -> kron_core::Result<Matrix<f64>>>;
    fn entry(
        f: impl Fn(&Matrix<f64>, &[&Matrix<f64>]) -> kron_core::Result<Matrix<f64>> + 'static,
    ) -> EntryPoint {
        Box::new(f)
    }
    fn engine(e: impl Engine<f64> + 'static) -> EntryPoint {
        entry(move |x, fs| e.execute(x, fs))
    }
    let ctf = fastkron::dist::CtfEngine::new(&V100, 4).unwrap();
    let distal = fastkron::dist::DistalEngine::new(&V100, 4).unwrap();
    let entry_points = [
        ("naive", entry(kron_matmul_naive)),
        ("shuffle", entry(kron_core::shuffle::kron_matmul_shuffle)),
        ("ftmmt", entry(kron_core::ftmmt::kron_matmul_ftmmt)),
        ("fused", entry(fastkron::kron::kron_matmul_fused)),
        ("NaiveEngine", engine(NaiveEngine::new(&V100))),
        ("ShuffleEngine", engine(ShuffleEngine::new(&V100))),
        ("FtmmtEngine", engine(FtmmtEngine::new(&V100))),
        ("CuTensorEngine", engine(CuTensorEngine::new(&V100))),
        ("FastKronEngine", engine(FastKronEngine::new(&V100))),
        ("CtfEngine", entry(move |x, fs| ctf.execute(x, fs))),
        ("DistalEngine", entry(move |x, fs| distal.execute(x, fs))),
    ];
    let z = Matrix::<f64>::zeros;
    let cases = [
        ("P = 0", z(2, 0), vec![z(0, 3)], "EmptyDimension"),
        ("Q = 0", z(2, 3), vec![z(3, 0)], "EmptyDimension"),
        (
            "wrong width",
            z(2, 5),
            vec![z(2, 2), z(2, 2)],
            "ShapeMismatch",
        ),
        ("no factors", z(2, 3), vec![], "NoFactors"),
        ("M = 0", z(0, 4), vec![z(2, 3), z(2, 2)], "Ok 0×6"),
    ];
    for (case, x, fs, want) in &cases {
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        for (name, run) in &entry_points {
            let got = match run(x, &refs) {
                Ok(y) => format!("Ok {}×{}", y.rows(), y.cols()),
                Err(e) => format!("{e:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap_or_default()
                    .to_string(),
            };
            assert_eq!(&got, want, "{name} on {case}");
        }
    }
}
