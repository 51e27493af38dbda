//! Blocked reference matrix multiplication, its row blocks spread over
//! the process-wide thread pool.
//!
//! Every baseline engine ultimately multiplies a tall-skinny reshape of the
//! input with a small factor. The blocked kernel here is cache-friendly
//! enough to make the functional path usable at the paper's problem sizes
//! while remaining obviously correct (it is also cross-checked against a
//! naive triple loop in tests).

use crate::element::Element;
use crate::error::{KronError, Result};
use crate::matrix::Matrix;
use rayon::ThreadPool;

/// Cache-block edge used by [`gemm`]; 64×64 f64 blocks fit comfortably in L1.
const BLOCK: usize = 64;

/// Row-count threshold below which [`gemm`] stays single-threaded; tiny
/// multiplies are dominated by pool dispatch otherwise.
const PAR_ROW_THRESHOLD: usize = 64;

/// Computes `C = A × B` for row-major dense matrices.
///
/// # Errors
/// Returns [`KronError::ShapeMismatch`] when `A.cols() != B.rows()`.
pub fn gemm<T: Element>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_into(a, b, &mut c)?;
    Ok(c)
}

/// Computes `C = A × B` into caller-provided storage, allocating nothing.
///
/// `c` is overwritten (it is zeroed first, then accumulated into), so one
/// output matrix can be reused across calls. The inner loop is
/// branch-free: zero elements of `A` are multiplied like any other, since
/// on dense operands a compare and branch per `A` element costs more than
/// the multiplies it would skip.
///
/// # Errors
/// Returns [`KronError::ShapeMismatch`] when `A.cols() != B.rows()` or `c`
/// is not `A.rows() × B.cols()`.
pub fn gemm_into<T: Element>(a: &Matrix<T>, b: &Matrix<T>, c: &mut Matrix<T>) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(KronError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("B with {} rows", b.rows()),
        });
    }
    if c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(KronError::ShapeMismatch {
            expected: format!("C of shape {}×{}", a.rows(), b.cols()),
            found: format!("C of shape {}×{}", c.rows(), c.cols()),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    c.as_mut_slice().fill(T::ZERO);
    if n == 0 || m == 0 {
        // Degenerate output: nothing to compute, and the chunked dispatch
        // below would be handed a zero chunk size.
        return Ok(());
    }

    let a_data = a.as_slice();
    let b_data = b.as_slice();

    let body = |row_block_idx: usize, c_chunk: &mut [T]| {
        let r0 = row_block_idx * BLOCK;
        let r1 = (r0 + BLOCK).min(m);
        let rows_here = r1 - r0;
        for kb in (0..k).step_by(BLOCK) {
            let k1 = (kb + BLOCK).min(k);
            for r in 0..rows_here {
                let a_row = &a_data[(r0 + r) * k..(r0 + r) * k + k];
                let c_row = &mut c_chunk[r * n..(r + 1) * n];
                for kk in kb..k1 {
                    let aval = a_row[kk];
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv = aval.mul_add(*bv, *cv);
                    }
                }
            }
        }
    };

    if m >= PAR_ROW_THRESHOLD {
        ThreadPool::global().broadcast_chunks(c.as_mut_slice(), BLOCK * n, &body);
    } else {
        for (i, c_chunk) in c.as_mut_slice().chunks_mut(BLOCK * n).enumerate() {
            body(i, c_chunk);
        }
    }
    Ok(())
}

/// Naive triple-loop `C = A × B`; the oracle for [`gemm`] itself.
pub fn gemm_naive<T: Element>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    if a.cols() != b.rows() {
        return Err(KronError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("B with {} rows", b.rows()),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for kk in 0..k {
                acc = a[(i, kk)].mul_add(b[(kk, j)], acc);
            }
            c[(i, j)] = acc;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_matrices_close;

    fn arb_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic pseudo-random values; integers over a small
        // range keep f64 arithmetic exact so blocked == naive bit-for-bit.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 17) as f64 - 8.0
        })
    }

    #[test]
    fn blocked_matches_naive_square() {
        let a = arb_matrix(37, 41, 1);
        let b = arb_matrix(41, 29, 2);
        let fast = gemm(&a, &b).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn blocked_matches_naive_tall_skinny() {
        // The shuffle algorithm's shape: very tall A, tiny B.
        let a = arb_matrix(512, 8, 3);
        let b = arb_matrix(8, 8, 4);
        assert_eq!(gemm(&a, &b).unwrap(), gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn blocked_matches_naive_above_parallel_threshold() {
        let a = arb_matrix(PAR_ROW_THRESHOLD * 2 + 3, 33, 5);
        let b = arb_matrix(33, 17, 6);
        assert_eq!(gemm(&a, &b).unwrap(), gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn identity_is_noop() {
        let a = arb_matrix(13, 13, 7);
        let i = Matrix::<f64>::identity(13);
        assert_matrices_close(&gemm(&a, &i).unwrap(), &a, "A·I");
        assert_matrices_close(&gemm(&i, &a).unwrap(), &a, "I·A");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(4, 2);
        assert!(matches!(gemm(&a, &b), Err(KronError::ShapeMismatch { .. })));
        assert!(gemm_naive(&a, &b).is_err());
    }

    #[test]
    fn single_element() {
        let a = Matrix::<f64>::from_vec(1, 1, vec![3.0]).unwrap();
        let b = Matrix::<f64>::from_vec(1, 1, vec![-2.0]).unwrap();
        assert_eq!(gemm(&a, &b).unwrap()[(0, 0)], -6.0);
    }

    #[test]
    fn gemm_into_reuses_storage() {
        let a = arb_matrix(9, 12, 10);
        let b = arb_matrix(12, 7, 11);
        let mut c = Matrix::<f64>::from_fn(9, 7, |_, _| 99.0); // stale junk
        gemm_into(&a, &b, &mut c).unwrap();
        assert_eq!(c, gemm_naive(&a, &b).unwrap());
        // Second multiply into the same storage fully overwrites it.
        let a2 = arb_matrix(9, 12, 12);
        gemm_into(&a2, &b, &mut c).unwrap();
        assert_eq!(c, gemm_naive(&a2, &b).unwrap());
    }

    #[test]
    fn gemm_into_validates_output_shape() {
        let a = arb_matrix(4, 5, 13);
        let b = arb_matrix(5, 6, 14);
        let mut wrong = Matrix::<f64>::zeros(4, 5);
        assert!(matches!(
            gemm_into(&a, &b, &mut wrong),
            Err(KronError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zero_width_operands_do_not_panic() {
        // B with zero columns (and a zero-row A) are constructible through
        // the public API; the chunked dispatch must not be handed a zero
        // chunk size.
        let a = arb_matrix(3, 4, 15);
        let b = Matrix::<f64>::zeros(4, 0);
        let c = gemm(&a, &b).unwrap();
        assert_eq!((c.rows(), c.cols()), (3, 0));
        let empty_a = Matrix::<f64>::zeros(0, 4);
        let wide_b = arb_matrix(4, 5, 16);
        assert_eq!(gemm(&empty_a, &wide_b).unwrap().rows(), 0);
    }
}
