//! The naive Kron-Matmul: materialize the Kronecker matrix, then GEMM.
//!
//! `O(M · ∏Pᵢ · ∏Qᵢ)` time and `O(∏Pᵢ · ∏Qᵢ)` space — unusable at the
//! paper's sizes but the unimpeachable correctness oracle for everything
//! else in the workspace.

use crate::element::Element;
use crate::error::Result;
use crate::gemm::gemm;
use crate::kron::kron_product_chain;
use crate::matrix::Matrix;
use crate::shape::KronProblem;

/// Computes `Y = X · (F1 ⊗ … ⊗ FN)` by materializing the Kronecker matrix.
///
/// # Errors
/// The operand errors of [`KronProblem::from_operands`].
pub fn kron_matmul_naive<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
    KronProblem::from_operands(x, factors)?;
    let g = kron_product_chain(factors)?;
    gemm(x, &g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_factors_are_identity_map() {
        let x = Matrix::<f64>::from_fn(3, 8, |r, c| (r * 8 + c) as f64);
        let i2 = Matrix::<f64>::identity(2);
        let y = kron_matmul_naive(&x, &[&i2, &i2, &i2]).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn single_factor_reduces_to_gemm() {
        let x = Matrix::<f64>::from_fn(4, 3, |r, c| (r + 2 * c) as f64);
        let f = Matrix::<f64>::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let y = kron_matmul_naive(&x, &[&f]).unwrap();
        assert_eq!(y, crate::gemm::gemm_naive(&x, &f).unwrap());
    }

    #[test]
    fn matches_paper_figure1_example() {
        // Figure 1/2 of the paper: X is 2×4, two 2×2 factors.
        // Verify one element of Y2 = reshape(X,4×2)·F2 by hand through the
        // full naive product instead.
        let x =
            Matrix::<f64>::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        let f1 = Matrix::<f64>::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap(); // identity
        let f2 = Matrix::<f64>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = kron_matmul_naive(&x, &[&f1, &f2]).unwrap();
        // With F1 = I, Y row 0 = [x11 x12]·F2 ++ [x13 x14]·F2
        //  = [1·1+2·3, 1·2+2·4, 3·1+4·3, 3·2+4·4] = [7, 10, 15, 22].
        assert_eq!(y.row(0), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::<f32>::zeros(2, 5);
        let f = Matrix::<f32>::identity(2);
        assert!(kron_matmul_naive(&x, &[&f, &f]).is_err());
        assert!(kron_matmul_naive::<f32>(&x, &[]).is_err());
    }
}
