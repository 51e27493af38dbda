//! Row-major dense matrix with the reshape/transpose primitives the shuffle
//! algorithm is made of.

use crate::element::Element;
use crate::error::{KronError, Result};
use std::borrow::Borrow;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix.
///
/// Element `(r, c)` lives at linear index `r * cols + c`. All engines in the
/// workspace exchange data in this layout, which matches both NumPy's default
/// and the layout assumed throughout the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

/// An element of a factor list: a factor (`Matrix<T>`, as a caller that
/// owns its factors holds them) or a reference to one (`&Matrix<T>`), so
/// `&[Matrix<T>]` and `&[&Matrix<T>]` are both factor lists. An executor
/// reads each factor in place through [`Borrow`], possibly from several
/// threads at once, hence `Sync`.
///
/// The trait is sealed to those two forms. An executor checks the factors'
/// shapes once and then borrows each factor again for every step and task,
/// and its unchecked kernel relies on every `borrow()` returning the same
/// matrix, which these two forms guarantee and an arbitrary [`Borrow`]
/// implementation need not. Factors held in a `Box`, an `Arc` or any
/// other owner are passed as references:
///
/// ```compile_fail
/// use kron_core::{KronProblem, Matrix};
/// use std::sync::Arc;
/// let problem = KronProblem::uniform(1, 2, 1).unwrap();
/// let shared = [Arc::new(Matrix::<f32>::zeros(2, 2))];
/// problem.check_factors(&shared).unwrap(); // `Arc<Matrix<f32>>` is no `Factor`
/// ```
///
/// ```
/// use kron_core::{KronProblem, Matrix};
/// use std::sync::Arc;
/// let problem = KronProblem::uniform(1, 2, 1).unwrap();
/// let shared = [Arc::new(Matrix::<f32>::zeros(2, 2))];
/// let refs: Vec<&Matrix<f32>> = shared.iter().map(|f| &**f).collect();
/// problem.check_factors(&refs).unwrap();
/// let owned = vec![Matrix::<f32>::zeros(2, 2)];
/// problem.check_factors(&owned).unwrap();
/// ```
pub trait Factor<T>: Borrow<Matrix<T>> + Sync + sealed::Sealed {}

impl<T: Sync> Factor<T> for Matrix<T> {}
impl<T: Sync> Factor<T> for &Matrix<T> {}

mod sealed {
    /// Implemented for the [`Factor`](super::Factor) forms only, and
    /// unnameable outside this crate, so no other type can be one.
    pub trait Sealed {}

    impl<T> Sealed for super::Matrix<T> {}
    impl<T> Sealed for &super::Matrix<T> {}
}

/// The element count of a `rows × cols` matrix about to be allocated.
///
/// # Panics
/// When the count overflows `usize`, naming the shape, as `vec!` panics on
/// a capacity overflow.
fn alloc_elems(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("a {rows}×{cols} matrix has more elements than usize holds"))
}

impl<T: Element> Matrix<T> {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    /// When `rows × cols` overflows `usize`, or the buffer cannot be
    /// allocated.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![T::ZERO; alloc_elems(rows, cols)],
            rows,
            cols,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Panics
    /// When `rows × cols` overflows `usize`, or the buffer cannot be
    /// allocated.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(alloc_elems(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// Returns [`KronError::ShapeMismatch`] if `data.len() != rows * cols`,
    /// or `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(KronError::ShapeMismatch {
                expected: format!("{rows}×{cols} elements"),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { T::ONE } else { T::ZERO })
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reinterprets the matrix with a new shape holding the same number of
    /// elements (a zero-copy `reshape`, step (a)/(c) of the shuffle
    /// algorithm).
    ///
    /// # Errors
    /// Returns [`KronError::ShapeMismatch`] if the element count differs,
    /// or `rows * cols` overflows `usize`.
    pub fn reshape(self, rows: usize, cols: usize) -> Result<Self> {
        if rows.checked_mul(cols) != Some(self.data.len()) {
            return Err(KronError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                found: format!("{rows}×{cols}"),
            });
        }
        Ok(Matrix {
            data: self.data,
            rows,
            cols,
        })
    }

    /// Full matrix transpose (rows ↔ columns).
    pub fn transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Views the matrix as an `rows × d1 × d2` tensor (so `cols == d1 * d2`)
    /// and exchanges the two inner dimensions — step (b) of the shuffle
    /// algorithm (`trans(reshape(Y, M×d1×d2), 1, 2)` in paper Figure 1).
    ///
    /// # Errors
    /// Returns [`KronError::ShapeMismatch`] if `d1 * d2 != cols`, or
    /// `d1 * d2` overflows `usize`.
    pub fn transpose_inner(&self, d1: usize, d2: usize) -> Result<Self> {
        if d1.checked_mul(d2) != Some(self.cols) {
            return Err(KronError::ShapeMismatch {
                expected: format!("cols = {}", self.cols),
                found: format!("d1×d2 = {d1}×{d2}"),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for i in 0..d1 {
                for j in 0..d2 {
                    dst[j * d1 + i] = src[i * d2 + j];
                }
            }
        }
        Ok(out)
    }

    /// Maximum absolute element value, widened to f64 (for tolerances).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .fold(0.0_f64, |acc, v| acc.max(v.to_f64().abs()))
    }
}

impl<T: Element> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T: Element> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::<f64>::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::<f32>::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::<f32>::from_vec(2, 2, vec![1.0; 5]),
            Err(KronError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::<f32>::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_preserves_row_major_order() {
        let m = Matrix::<f64>::from_fn(2, 6, |r, c| (r * 6 + c) as f64);
        let r = m.clone().reshape(4, 3).unwrap();
        assert_eq!(r[(0, 0)], 0.0);
        assert_eq!(r[(1, 0)], 3.0);
        assert_eq!(r[(3, 2)], 11.0);
        assert!(m.reshape(5, 3).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::<f64>::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_inner_swaps_tensor_dims() {
        // One row viewed as 2×3 tensor: [[0,1,2],[3,4,5]] -> 3×2 [[0,3],[1,4],[2,5]]
        let m = Matrix::<f64>::from_fn(1, 6, |_, c| c as f64);
        let t = m.transpose_inner(2, 3).unwrap();
        assert_eq!(t.row(0), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert!(m.transpose_inner(4, 2).is_err());
    }

    #[test]
    fn transpose_inner_involution_with_swapped_dims() {
        let m = Matrix::<f32>::from_fn(3, 12, |r, c| ((r * 12 + c) % 7) as f32);
        let once = m.transpose_inner(3, 4).unwrap();
        let twice = once.transpose_inner(4, 3).unwrap();
        assert_eq!(twice, m);
    }

    /// Shapes whose element count overflows `usize`: 2^44 × 2^20 wraps
    /// to zero, so an unchecked product would describe 2^64 elements over
    /// an empty buffer.
    const HUGE: (usize, usize) = (1 << 44, 1 << 20);

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn zeros_panics_on_element_count_overflow() {
        Matrix::<f32>::zeros(HUGE.0, HUGE.1);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn from_fn_panics_on_element_count_overflow() {
        Matrix::<f32>::from_fn(HUGE.0, HUGE.1, |_, _| 0.0);
    }

    #[test]
    fn from_vec_rejects_element_count_overflow() {
        assert!(matches!(
            Matrix::<f32>::from_vec(HUGE.0, HUGE.1, Vec::new()),
            Err(KronError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn reshape_rejects_element_count_overflow() {
        assert!(matches!(
            Matrix::<f32>::zeros(0, 4).reshape(HUGE.0, HUGE.1),
            Err(KronError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_inner_rejects_element_count_overflow() {
        // 2^44 · 2^20 wraps to 0, this row's width.
        let empty = Matrix::<f32>::zeros(1, 0);
        assert!(matches!(
            empty.transpose_inner(HUGE.0, HUGE.1),
            Err(KronError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn norms() {
        let m = Matrix::<f64>::from_vec(1, 3, vec![3.0, -4.0, 0.0]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }
}
