//! # kron-core
//!
//! Dense matrix/tensor substrate for Kronecker Matrix-Matrix Multiplication
//! (Kron-Matmul): the multiplication of a matrix `X` of shape `M × ∏ᵢ Pᵢ`
//! with the Kronecker product of `N` factor matrices `Fᵢ` of shape `Pᵢ × Qᵢ`,
//! producing `Y` of shape `M × ∏ᵢ Qᵢ`.
//!
//! This crate provides the building blocks every engine in the workspace
//! shares:
//!
//! * [`Element`] — a trait unifying `f32` and `f64` scalars,
//! * [`Matrix`] — a row-major dense matrix with reshape/transpose primitives,
//! * [`gemm`] — a blocked reference matrix multiplication, its row blocks
//!   spread over the process-wide thread pool,
//! * [`KronProblem`] — shape descriptor and FLOP/size arithmetic,
//! * reference algorithms used as correctness oracles and baselines:
//!   [`naive::kron_matmul_naive`] (materialize the Kronecker matrix),
//!   [`shuffle::kron_matmul_shuffle`] (reshape → GEMM → transpose, as in
//!   GPyTorch/PyKronecker), and [`ftmmt::kron_matmul_ftmmt`] (fused
//!   tensor-matrix multiply transpose, as in COGENT/cuTensor), each of
//!   which checks its operands through [`KronProblem::from_operands`].
//!
//! The crate is deliberately free of any GPU-simulation concerns; see the
//! `gpu-sim` crate for the performance model and `fastkron-core` for the
//! paper's contribution.

#![deny(missing_docs)]

pub mod element;
pub mod error;
pub mod ftmmt;
pub mod gemm;
pub mod kron;
pub mod matrix;
pub mod naive;
pub mod shape;
pub mod shuffle;

pub use element::{DType, Element};
pub use error::{KronError, Result};
pub use matrix::Matrix;
pub use shape::{ExecBackend, FactorShape, KronProblem, PlanKey};

/// Maximum relative error tolerated when comparing two engines' outputs in
/// tests, expressed as a multiple of the element type's machine epsilon.
///
/// Kron-Matmul with N factors chains N summations of length Pᵢ, so error
/// grows with `N · max Pᵢ`; 256·ε is comfortable for every size in the
/// paper's evaluation set while still catching genuine indexing bugs
/// (which produce O(1) errors, not O(ε)).
pub const COMPARE_TOLERANCE_ULPS: f64 = 256.0;

/// Asserts that two matrices are elementwise close relative to their norms.
///
/// Panics with a diagnostic naming the first offending element otherwise.
/// Intended for tests and examples.
pub fn assert_matrices_close<T: Element>(actual: &Matrix<T>, expected: &Matrix<T>, context: &str) {
    assert_eq!(
        (actual.rows(), actual.cols()),
        (expected.rows(), expected.cols()),
        "{context}: shape mismatch"
    );
    let scale = expected
        .as_slice()
        .iter()
        .fold(0.0_f64, |acc, v| acc.max(v.to_f64().abs()))
        .max(1.0);
    let tol = COMPARE_TOLERANCE_ULPS * T::EPSILON_F64 * scale;
    for r in 0..expected.rows() {
        for c in 0..expected.cols() {
            let a = actual[(r, c)].to_f64();
            let e = expected[(r, c)].to_f64();
            let diff = (a - e).abs();
            assert!(
                diff <= tol,
                "{context}: mismatch at ({r},{c}): actual={a}, expected={e}, |diff|={diff:.3e} > tol={tol:.3e}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_identical() {
        let m = Matrix::<f64>::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        assert_matrices_close(&m, &m, "identity");
    }

    #[test]
    #[should_panic(expected = "mismatch at (1,2)")]
    fn assert_close_rejects_differing() {
        let a = Matrix::<f64>::from_fn(2, 3, |r, c| (r + c) as f64);
        let mut b = a.clone();
        b[(1, 2)] = 100.0;
        assert_matrices_close(&b, &a, "diff");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn assert_close_rejects_shape() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(3, 2);
        assert_matrices_close(&a, &b, "shape");
    }
}
