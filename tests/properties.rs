//! Property-based tests (proptest) for the algebraic invariants every
//! Kron-Matmul engine must satisfy.

use fastkron::kron::exec::Workspace;
use fastkron::kron::kron_matmul_fused;
use fastkron::prelude::*;
use kron_core::ftmmt::kron_matmul_ftmmt;
use kron_core::kron::kron_product;
use kron_core::naive::kron_matmul_naive;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::Matrix;
use proptest::prelude::*;

/// Strategy: factor dims in 1..=5.
fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=5, 1usize..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_two_factors(
        ((p1, q1), (p2, q2)) in (dims(), dims()),
        m in 1usize..=4,
        seed in 0u8..8,
    ) {
        let k = p1 * p2;
        let x = Matrix::<f64>::from_fn(m, k, |r, c| {
            ((seed as usize + r * k + 3 * c) % 9) as f64 - 4.0
        });
        let f1 = Matrix::<f64>::from_fn(p1, q1, |r, c| ((r * q1 + c + seed as usize) % 7) as f64 - 3.0);
        let f2 = Matrix::<f64>::from_fn(p2, q2, |r, c| ((r * q2 + c + 2 * seed as usize) % 5) as f64 - 2.0);
        let refs = [&f1, &f2];
        let naive = kron_matmul_naive(&x, &refs).unwrap();
        let fast = kron_matmul_fused(&x, &refs).unwrap();
        let shuffle = kron_matmul_shuffle(&x, &refs).unwrap();
        let ftmmt = kron_matmul_ftmmt(&x, &refs).unwrap();
        prop_assert_eq!(&fast, &naive);
        prop_assert_eq!(&shuffle, &naive);
        prop_assert_eq!(&ftmmt, &naive);
    }

    #[test]
    fn identity_factors_are_identity(m in 1usize..=4, p in 1usize..=4, n in 1usize..=4) {
        let k = p.pow(n as u32);
        let x = Matrix::<f64>::from_fn(m, k, |r, c| ((r * k + c) % 9) as f64 - 4.0);
        let id = Matrix::<f64>::identity(p);
        let refs: Vec<&Matrix<f64>> = (0..n).map(|_| &id).collect();
        let y = kron_matmul_fused(&x, &refs).unwrap();
        prop_assert_eq!(y, x);
    }

    #[test]
    fn linearity_in_x(p in 2usize..=4, m in 1usize..=3, a in -3i8..=3) {
        let k = p * p;
        let x1 = Matrix::<f64>::from_fn(m, k, |r, c| ((r + 2 * c) % 5) as f64 - 2.0);
        let x2 = Matrix::<f64>::from_fn(m, k, |r, c| ((3 * r + c) % 7) as f64 - 3.0);
        let f = Matrix::<f64>::from_fn(p, p, |r, c| ((r * p + c) % 5) as f64 - 2.0);
        let refs = [&f, &f];
        // a·K(x1) + K(x2) == K(a·x1 + x2)
        let y1 = kron_matmul_fused(&x1, &refs).unwrap();
        let y2 = kron_matmul_fused(&x2, &refs).unwrap();
        let combo = Matrix::<f64>::from_fn(m, k, |r, c| {
            f64::from(a) * x1[(r, c)] + x2[(r, c)]
        });
        let y_combo = kron_matmul_fused(&combo, &refs).unwrap();
        for r in 0..m {
            for c in 0..y_combo.cols() {
                let expect = f64::from(a) * y1[(r, c)] + y2[(r, c)];
                prop_assert!((y_combo[(r, c)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn factor_grouping_is_associative(p in 2usize..=3, m in 1usize..=3) {
        // X·(F1⊗F2⊗F3) computed with 3 factors equals X·((F1⊗F2)⊗F3)
        // computed with 2 (pre-multiplied) factors.
        let k = p * p * p;
        let x = Matrix::<f64>::from_fn(m, k, |r, c| ((r * 5 + c) % 11) as f64 - 5.0);
        let f1 = Matrix::<f64>::from_fn(p, p, |r, c| ((r + c) % 3) as f64 - 1.0);
        let f2 = Matrix::<f64>::from_fn(p, p, |r, c| ((2 * r + c) % 5) as f64 - 2.0);
        let f3 = Matrix::<f64>::from_fn(p, p, |r, c| ((r + 2 * c) % 7) as f64 - 3.0);
        let direct = kron_matmul_fused(&x, &[&f1, &f2, &f3]).unwrap();
        let f12 = kron_product(&f1, &f2);
        let grouped = kron_matmul_fused(&x, &[&f12, &f3]).unwrap();
        prop_assert_eq!(direct, grouped);
    }

    #[test]
    fn planned_engine_matches_reference(
        m in 1usize..=4,
        p in 2usize..=4,
        n in 2usize..=3,
        seed in 0usize..16,
    ) {
        let problem = KronProblem::uniform(m, p, n).unwrap();
        let k = problem.input_cols();
        let x = Matrix::<f64>::from_fn(m, k, |r, c| ((seed + r * 7 + c) % 13) as f64 - 6.0);
        let fs: Vec<Matrix<f64>> = (0..n)
            .map(|i| Matrix::from_fn(p, p, |r, c| ((seed + i + r * p + c) % 9) as f64 - 4.0))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let plan = FastKron::plan::<f64>(&problem, &V100).unwrap();
        let via_plan = plan.execute(&x, &refs).unwrap();
        let via_emulation = plan.execute_emulated(&x, &refs).unwrap();
        let reference = kron_matmul_naive(&x, &refs).unwrap();
        prop_assert_eq!(&via_plan, &reference);
        prop_assert_eq!(&via_emulation, &reference);
    }

    #[test]
    fn distributed_matches_reference(
        gpus_log2 in 0u32..=4,
        p in 2usize..=4,
        seed in 0usize..8,
    ) {
        let gpus = 1usize << gpus_log2;
        let n = 4; // K = p^4 keeps GK <= P satisfiable for p >= 2, GK <= 4
        let m = 16;
        let problem = KronProblem::uniform(m, p, n).unwrap();
        let engine = match fastkron::dist::DistFastKron::new(&V100, gpus) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let k = problem.input_cols();
        let x = Matrix::<f64>::from_fn(m, k, |r, c| ((seed + r * 3 + c) % 7) as f64 - 3.0);
        let fs: Vec<Matrix<f64>> = (0..n)
            .map(|i| Matrix::from_fn(p, p, |r, c| ((seed + 2 * i + r + c) % 5) as f64 - 2.0))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        // Some grids are invalid for small P (GK > P); that is a
        // documented constraint, not a failure.
        if let Ok(y) = engine.execute(&x, &refs) {
            let reference = kron_matmul_naive(&x, &refs).unwrap();
            prop_assert_eq!(y, reference);
        }
    }

    #[test]
    fn fused_exec_matches_oracles_rectangular(
        ((p1, q1), (p2, q2)) in (dims(), dims()),
        m in 1usize..=4,
        seed in 0u8..8,
    ) {
        // Rectangular two-factor chains through the Workspace entry point:
        // the fused epilogue must equal both reference algorithms, f64 and
        // f32 (integer-valued data keeps both exact).
        let problem = KronProblem::new(
            m,
            vec![FactorShape::new(p1, q1), FactorShape::new(p2, q2)],
        ).unwrap();
        let k = problem.input_cols();
        let x = Matrix::<f64>::from_fn(m, k, |r, c| {
            ((seed as usize + 2 * r * k + c) % 9) as f64 - 4.0
        });
        let f1 = Matrix::<f64>::from_fn(p1, q1, |r, c| ((r * q1 + 3 * c + seed as usize) % 7) as f64 - 3.0);
        let f2 = Matrix::<f64>::from_fn(p2, q2, |r, c| ((r * q2 + c + 2 * seed as usize) % 5) as f64 - 2.0);
        let refs = [&f1, &f2];
        let fused = Workspace::new(&problem).execute(&x, &refs).unwrap();
        prop_assert_eq!(&fused, &kron_matmul_naive(&x, &refs).unwrap());
        prop_assert_eq!(&fused, &kron_matmul_shuffle(&x, &refs).unwrap());

        let xf = Matrix::<f32>::from_fn(m, k, |r, c| x[(r, c)] as f32);
        let g1 = Matrix::<f32>::from_fn(p1, q1, |r, c| f1[(r, c)] as f32);
        let g2 = Matrix::<f32>::from_fn(p2, q2, |r, c| f2[(r, c)] as f32);
        let refs32 = [&g1, &g2];
        let fused32 = Workspace::new(&problem).execute(&xf, &refs32).unwrap();
        prop_assert_eq!(&fused32, &kron_matmul_shuffle(&xf, &refs32).unwrap());
    }

    #[test]
    fn fused_exec_matches_oracles_mixed_chains(
        variant in 0usize..4,
        m in 1usize..=3,
        seed in 0u8..8,
    ) {
        // Table 4-style mixed chains (square runs interleaved with small
        // rectangular factors) of length 3-4.
        let shapes: Vec<FactorShape> = match variant {
            0 => vec![FactorShape::square(5), FactorShape::square(2), FactorShape::square(5)],
            1 => vec![FactorShape::new(2, 3), FactorShape::new(3, 2), FactorShape::square(4)],
            2 => vec![FactorShape::square(2); 4],
            _ => vec![FactorShape::new(2, 5), FactorShape::square(3), FactorShape::new(5, 2)],
        };
        let problem = KronProblem::new(m, shapes.clone()).unwrap();
        let k = problem.input_cols();
        let x = Matrix::<f64>::from_fn(m, k, |r, c| {
            ((seed as usize + r * k + 5 * c) % 11) as f64 - 5.0
        });
        let fs: Vec<Matrix<f64>> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Matrix::from_fn(s.p, s.q, |r, c| {
                    ((seed as usize + i + 2 * r * s.q + c) % 7) as f64 - 3.0
                })
            })
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let fused = Workspace::new(&problem).execute(&x, &refs).unwrap();
        prop_assert_eq!(&fused, &kron_matmul_naive(&x, &refs).unwrap());
        prop_assert_eq!(&fused, &kron_matmul_shuffle(&x, &refs).unwrap());
    }

    #[test]
    fn fused_exec_matches_oracles_single_factor(
        (p, q) in dims(),
        m in 1usize..=5,
        seed in 0u8..8,
    ) {
        // Single-factor chains stream X straight to Y (no ping-pong);
        // degenerate but load-bearing: it is a plain GEMM in disguise.
        let problem = KronProblem::new(m, vec![FactorShape::new(p, q)]).unwrap();
        let x = Matrix::<f64>::from_fn(m, p, |r, c| ((seed as usize + r * p + c) % 9) as f64 - 4.0);
        let f = Matrix::<f64>::from_fn(p, q, |r, c| ((r * q + c + seed as usize) % 5) as f64 - 2.0);
        let fused = Workspace::new(&problem).execute(&x, &[&f]).unwrap();
        prop_assert_eq!(&fused, &kron_matmul_naive(&x, &[&f]).unwrap());
        prop_assert_eq!(&fused, &kron_matmul_shuffle(&x, &[&f]).unwrap());

        let xf = Matrix::<f32>::from_fn(m, p, |r, c| x[(r, c)] as f32);
        let g = Matrix::<f32>::from_fn(p, q, |r, c| f[(r, c)] as f32);
        let fused32 = Workspace::new(&problem).execute(&xf, &[&g]).unwrap();
        prop_assert_eq!(&fused32, &kron_matmul_shuffle(&xf, &[&g]).unwrap());
    }

    #[test]
    fn kron_product_transpose_identity(
        (p1, q1) in dims(),
        (p2, q2) in dims(),
    ) {
        // (A ⊗ B)^T = A^T ⊗ B^T.
        let a = Matrix::<f64>::from_fn(p1, q1, |r, c| ((r * q1 + c) % 5) as f64 - 2.0);
        let b = Matrix::<f64>::from_fn(p2, q2, |r, c| ((r + c * p2) % 7) as f64 - 3.0);
        let left = kron_product(&a, &b).transpose();
        let right = kron_product(&a.transpose(), &b.transpose());
        prop_assert_eq!(left, right);
    }
}
