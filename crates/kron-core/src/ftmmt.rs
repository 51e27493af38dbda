//! The Fused Tensor-Matrix Multiply Transpose (FTMMT) algorithm
//! (Langville & Stewart 2004), as executed by COGENT and cuTensor: the
//! intermediate is viewed as a 3-D tensor `M × S × P` and each iteration
//! contracts the last dimension with the factor while writing the result
//! transposed, `Y[m][q][s] = Σ_p X[m][s][p] · F[p][q]`, so no separate
//! transpose pass is needed.
//!
//! This is the functional reference for the FTMMT baselines; the GPU-time
//! and shared-memory models (direct caching, per-iteration global
//! intermediates) live in `kron-baselines`.

use crate::element::Element;
use crate::error::{KronError, Result};
use crate::matrix::Matrix;
use crate::shape::KronProblem;
use rayon::ThreadPool;

/// Row-count threshold below which the contraction stays single-threaded.
const PAR_ROW_THRESHOLD: usize = 8;

/// One fused tensor-contraction iteration: input `M×(S·P)` viewed as
/// `M×S×P`, output `M×(Q·S)` viewed as `M×Q×S`.
///
/// This is also FastKron's sliced multiply (Algorithm 1, lines 7–15, for
/// one factor): `Y[m][q·S + s] = Σ_p X[m][s·P + p] · F[p][q]`, each sum an
/// FMA chain over `p = 0..P` from zero, the order the fused execution
/// path's microkernel keeps. The two systems differ in how a GPU kernel
/// caches and fuses this map, not in the map, so the kernel emulation
/// and the fused path test against it.
///
/// # Errors
/// [`KronError::EmptyDimension`] when `F` has no rows or no columns, and
/// [`KronError::ShapeMismatch`] when `X.cols()` is not a positive
/// multiple of `F.rows()`.
pub fn ftmmt_iteration<T: Element>(x: &Matrix<T>, f: &Matrix<T>) -> Result<Matrix<T>> {
    let (p, q) = (f.rows(), f.cols());
    if p == 0 || q == 0 {
        return Err(KronError::EmptyDimension {
            what: format!("factor of shape {p}×{q}"),
        });
    }
    if x.cols() == 0 || !x.cols().is_multiple_of(p) {
        return Err(KronError::ShapeMismatch {
            expected: format!("cols a positive multiple of P = {p}"),
            found: format!("{} cols", x.cols()),
        });
    }
    let slices = x.cols() / p;
    let m = x.rows();
    let mut y = Matrix::zeros(m, q * slices);

    let run_row = |r: usize, y_row: &mut [T]| {
        let x_row = x.row(r);
        for s in 0..slices {
            let x_slice = &x_row[s * p..(s + 1) * p];
            for qi in 0..q {
                let mut acc = T::ZERO;
                for (pi, xv) in x_slice.iter().enumerate() {
                    acc = xv.mul_add(f[(pi, qi)], acc);
                }
                // Fused transpose: q is the slow dimension of the output.
                y_row[qi * slices + s] = acc;
            }
        }
    };

    if m >= PAR_ROW_THRESHOLD {
        ThreadPool::global().broadcast_chunks(y.as_mut_slice(), q * slices, &run_row);
    } else {
        for (r, y_row) in y.as_mut_slice().chunks_mut(q * slices).enumerate() {
            run_row(r, y_row);
        }
    }
    Ok(y)
}

/// Computes `Y = X · (F1 ⊗ … ⊗ FN)` with the FTMMT algorithm (factors
/// processed last to first, each iteration a fused contraction).
///
/// # Errors
/// The operand errors of [`KronProblem::from_operands`].
pub fn kron_matmul_ftmmt<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
    KronProblem::from_operands(x, factors)?;
    let mut y = x.clone();
    for f in factors.iter().rev() {
        y = ftmmt_iteration(&y, f)?;
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_matrices_close;
    use crate::naive::kron_matmul_naive;
    use crate::shuffle::kron_matmul_shuffle;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + r * cols + c) % 11) as f64 - 5.0
        })
    }

    #[test]
    fn iteration_matches_shuffle_iteration() {
        // A single FTMMT iteration must equal reshape→GEMM→transpose-inner.
        let x = seq_matrix(3, 12, 0);
        let f = seq_matrix(4, 2, 5);
        let fused = ftmmt_iteration(&x, &f).unwrap();
        let via_shuffle = {
            let tall = x.clone().reshape(3 * 3, 4).unwrap();
            let mm = crate::gemm::gemm(&tall, &f).unwrap();
            mm.reshape(3, 6).unwrap().transpose_inner(3, 2).unwrap()
        };
        assert_matrices_close(&fused, &via_shuffle, "ftmmt iteration");
    }

    #[test]
    fn matches_naive_and_shuffle() {
        let x = seq_matrix(4, 36, 1);
        let a = seq_matrix(6, 2, 2);
        let b = seq_matrix(6, 3, 3);
        let got = kron_matmul_ftmmt(&x, &[&a, &b]).unwrap();
        let naive = kron_matmul_naive(&x, &[&a, &b]).unwrap();
        let shuffle = kron_matmul_shuffle(&x, &[&a, &b]).unwrap();
        assert_matrices_close(&got, &naive, "ftmmt vs naive");
        assert_matrices_close(&got, &shuffle, "ftmmt vs shuffle");
    }

    #[test]
    fn matches_naive_above_parallel_threshold() {
        let x = seq_matrix(PAR_ROW_THRESHOLD * 2, 16, 2);
        let f = seq_matrix(4, 4, 7);
        let got = kron_matmul_ftmmt(&x, &[&f, &f]).unwrap();
        let naive = kron_matmul_naive(&x, &[&f, &f]).unwrap();
        assert_matrices_close(&got, &naive, "ftmmt parallel path");
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::<f64>::zeros(2, 9);
        let f = Matrix::<f64>::identity(2);
        assert!(kron_matmul_ftmmt(&x, &[&f, &f]).is_err());
        assert!(kron_matmul_ftmmt::<f64>(&x, &[]).is_err());
        assert!(ftmmt_iteration(&x, &f).is_err());
        // Empty factors and an X with no columns are errors, not panics.
        let empty = |r, c| Matrix::<f64>::zeros(r, c);
        for (x, f) in [(empty(2, 0), empty(0, 3)), (empty(2, 3), empty(3, 0))] {
            assert!(matches!(
                ftmmt_iteration(&x, &f),
                Err(KronError::EmptyDimension { .. })
            ));
        }
        assert!(matches!(
            ftmmt_iteration(&empty(2, 0), &f),
            Err(KronError::ShapeMismatch { .. })
        ));
    }
}
