//! The shuffle algorithm (Davio 1981), as implemented by GPyTorch and
//! PyKronecker: per factor, `reshape → GEMM → transpose-inner → reshape`.
//!
//! This is the functional reference for the shuffle-algorithm baselines;
//! the GPU-time model for it lives in `kron-baselines`.

use crate::element::Element;
use crate::error::Result;
use crate::gemm::gemm;
use crate::matrix::Matrix;
use crate::shape::KronProblem;

/// Computes `Y = X · (F1 ⊗ … ⊗ FN)` with the shuffle algorithm.
///
/// Iterates factors from last to first. For factor `F` of shape `P×Q` and
/// intermediate of `K` columns:
///
/// 1. reshape `M×K` to `(M·K/P)×P` (groups of `P` consecutive elements —
///    factor `F`'s index is the fastest-varying dimension at its turn);
/// 2. GEMM with `F` to get `(M·K/P)×Q`;
/// 3. reshape to `M×(K/P)×Q`, transpose the two inner dims, flatten to
///    `M×(Q·K/P)` — this moves the fresh `q` index to the slowest position,
///    exactly the memory shuffle FastKron's algorithm eliminates.
///
/// # Errors
/// The operand errors of [`KronProblem::from_operands`].
pub fn kron_matmul_shuffle<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
    KronProblem::from_operands(x, factors)?;
    let m = x.rows();
    let mut y = x.clone();
    for f in factors.iter().rev() {
        let (p, q) = (f.rows(), f.cols());
        let k = y.cols();
        debug_assert_eq!(k % p, 0, "intermediate cols must be divisible by P");
        let slices = k / p;
        // (a) reshape to (M·K/P) × P and multiply.
        let tall = y.reshape(m * slices, p)?;
        let multiplied = gemm(&tall, f)?;
        // (b) + (c) reshape to M×(K/P)×Q, swap inner dims, flatten.
        let grouped = multiplied.reshape(m, slices * q)?;
        y = grouped.transpose_inner(slices, q)?;
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_matrices_close;
    use crate::naive::kron_matmul_naive;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + r * cols + c) % 13) as f64 - 6.0
        })
    }

    #[test]
    fn matches_naive_two_square_factors() {
        let x = seq_matrix(2, 4, 1);
        let f1 = seq_matrix(2, 2, 3);
        let f2 = seq_matrix(2, 2, 7);
        let y = kron_matmul_shuffle(&x, &[&f1, &f2]).unwrap();
        let oracle = kron_matmul_naive(&x, &[&f1, &f2]).unwrap();
        assert_matrices_close(&y, &oracle, "shuffle vs naive 2×(2×2)");
    }

    #[test]
    fn matches_naive_three_factors() {
        let x = seq_matrix(3, 27, 2);
        let f = seq_matrix(3, 3, 5);
        let g = seq_matrix(3, 3, 9);
        let h = seq_matrix(3, 3, 11);
        let y = kron_matmul_shuffle(&x, &[&f, &g, &h]).unwrap();
        let oracle = kron_matmul_naive(&x, &[&f, &g, &h]).unwrap();
        assert_matrices_close(&y, &oracle, "shuffle vs naive 3×(3×3)");
    }

    #[test]
    fn matches_naive_rectangular_factors() {
        // Expanding and contracting factors exercise the intermediate
        // sizing logic: 2×3 ⊗ 4×2 (X: M×8 → Y: M×6).
        let x = seq_matrix(5, 8, 0);
        let f1 = seq_matrix(2, 3, 1);
        let f2 = seq_matrix(4, 2, 2);
        let y = kron_matmul_shuffle(&x, &[&f1, &f2]).unwrap();
        let oracle = kron_matmul_naive(&x, &[&f1, &f2]).unwrap();
        assert_eq!(y.cols(), 6);
        assert_matrices_close(&y, &oracle, "shuffle vs naive rect");
    }

    #[test]
    fn matches_naive_mixed_shapes_from_table4() {
        // Table 4 row 20-style mixed chain: 5×5 ⊗ 2×2 ⊗ 5×5.
        let x = seq_matrix(1, 50, 3);
        let a = seq_matrix(5, 5, 1);
        let b = seq_matrix(2, 2, 4);
        let c = seq_matrix(5, 5, 8);
        let y = kron_matmul_shuffle(&x, &[&a, &b, &c]).unwrap();
        let oracle = kron_matmul_naive(&x, &[&a, &b, &c]).unwrap();
        assert_matrices_close(&y, &oracle, "shuffle vs naive 5×2×5");
    }

    #[test]
    fn single_factor() {
        let x = seq_matrix(4, 6, 0);
        let f = seq_matrix(6, 3, 2);
        let y = kron_matmul_shuffle(&x, &[&f]).unwrap();
        let oracle = kron_matmul_naive(&x, &[&f]).unwrap();
        assert_matrices_close(&y, &oracle, "shuffle single factor");
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::<f64>::zeros(2, 5);
        let f = Matrix::<f64>::identity(2);
        assert!(kron_matmul_shuffle(&x, &[&f]).is_err());
        assert!(kron_matmul_shuffle::<f64>(&x, &[]).is_err());
    }
}
