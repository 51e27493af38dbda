//! The SKI Gaussian process: `K_SKI = W (⊗ᵢKᵢ) Wᵀ + σ²I` and its
//! matrix-free application.

use crate::cg::{batched_cg, CgResult};
use crate::grid::InducingGrid;
use crate::interp::SparseInterp;
use fastkron_core::kron_matmul_fused;
use kron_core::{Element, KronError, Matrix, Result};

/// A SKI GP over an inducing grid.
pub struct SkiGp<T> {
    grid: InducingGrid,
    interp: SparseInterp,
    factors: Vec<Matrix<T>>,
    /// Observation-noise variance `σ²` added on the diagonal.
    pub noise: T,
}

impl<T: Element> SkiGp<T> {
    /// Builds the model for `points` on `grid` with noise variance
    /// `noise`.
    ///
    /// # Errors
    /// Interpolation shape errors.
    pub fn new(grid: InducingGrid, points: &[Vec<f64>], noise: T) -> Result<Self> {
        let interp = SparseInterp::build(&grid, points)?;
        let factors = grid.factors::<T>();
        Ok(SkiGp {
            grid,
            interp,
            factors,
            noise,
        })
    }

    /// The inducing grid.
    pub fn grid(&self) -> &InducingGrid {
        &self.grid
    }

    /// The interpolation matrix.
    pub fn interp(&self) -> &SparseInterp {
        &self.interp
    }

    /// The Kronecker kernel factors.
    pub fn factors(&self) -> &[Matrix<T>] {
        &self.factors
    }

    /// Applies `K_SKI` to each row of `V[s × n]`:
    /// `V ↦ (W ((⊗K) (Wᵀ vᵢ))) + σ² vᵢ`. The middle step is a Kron-Matmul
    /// with `M = s` — the paper's core operation.
    ///
    /// # Errors
    /// Shape errors between `V` and the model.
    pub fn apply_kernel(&self, v: &Matrix<T>) -> Result<Matrix<T>> {
        let scattered = self.interp.scatter(v)?; // s × Pᴺ
        let refs: Vec<&Matrix<T>> = self.factors.iter().collect();
        let multiplied = kron_matmul_fused(&scattered, &refs)?;
        let mut gathered = self.interp.gather(&multiplied)?; // s × n
        for i in 0..gathered.rows() {
            for j in 0..gathered.cols() {
                gathered[(i, j)] += self.noise * v[(i, j)];
            }
        }
        Ok(gathered)
    }

    /// Solves `K_SKI Z = B` by batched CG (`B[s × n]`, rows are RHS).
    ///
    /// # Errors
    /// Shape errors; operator failures.
    pub fn solve(&self, b: &Matrix<T>, max_iters: usize, tol: f64) -> Result<CgResult<T>> {
        if b.cols() != self.interp.rows() {
            return Err(KronError::ShapeMismatch {
                expected: format!("{} cols (data points)", self.interp.rows()),
                found: format!("{} cols", b.cols()),
            });
        }
        let mut apply = |v: &Matrix<T>| self.apply_kernel(v);
        batched_cg(&mut apply, b, max_iters, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::gemm::gemm;
    use kron_core::kron::kron_product_chain;

    fn small_model(n_points: usize) -> (SkiGp<f64>, Vec<Vec<f64>>) {
        let grid = InducingGrid::new(2, 4, 0.4).unwrap();
        let pts: Vec<Vec<f64>> = (0..n_points)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.71) % 1.0])
            .collect();
        let gp = SkiGp::new(grid, &pts, 0.5).unwrap();
        (gp, pts)
    }

    /// Dense K_SKI for verification.
    fn dense_kernel(gp: &SkiGp<f64>) -> Matrix<f64> {
        let w = gp.interp().to_dense::<f64>();
        let refs: Vec<&Matrix<f64>> = gp.factors().iter().collect();
        let kg = kron_product_chain(&refs).unwrap();
        let wk = gemm(&w, &kg).unwrap();
        let mut k = gemm(&wk, &w.transpose()).unwrap();
        for i in 0..k.rows() {
            k[(i, i)] += gp.noise;
        }
        k
    }

    #[test]
    fn apply_matches_dense_kernel() {
        let (gp, pts) = small_model(9);
        let k = dense_kernel(&gp);
        let v = Matrix::from_fn(3, pts.len(), |r, c| ((r * 9 + c) % 5) as f64 - 2.0);
        let got = gp.apply_kernel(&v).unwrap();
        let want = gemm(&v, &k.transpose()).unwrap();
        kron_core::assert_matrices_close(&got, &want, "K_SKI apply");
    }

    #[test]
    fn kernel_application_is_symmetric() {
        // ⟨K u, v⟩ = ⟨u, K v⟩ for the SKI operator.
        let (gp, pts) = small_model(7);
        let n = pts.len();
        let u = Matrix::from_fn(1, n, |_, c| (c as f64 * 0.3).sin());
        let v = Matrix::from_fn(1, n, |_, c| (c as f64 * 0.7).cos());
        let ku = gp.apply_kernel(&u).unwrap();
        let kv = gp.apply_kernel(&v).unwrap();
        let lhs: f64 = ku.row(0).iter().zip(v.row(0)).map(|(a, b)| a * b).sum();
        let rhs: f64 = u.row(0).iter().zip(kv.row(0)).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn cg_solves_the_ski_system() {
        let (gp, pts) = small_model(10);
        let n = pts.len();
        let b = Matrix::from_fn(2, n, |r, c| ((r + c) % 3) as f64 - 1.0);
        let res = gp.solve(&b, 100, 1e-10).unwrap();
        // Verify K z ≈ b to the solver's (not machine) tolerance.
        let kz = gp.apply_kernel(&res.z).unwrap();
        for i in 0..b.rows() {
            for j in 0..b.cols() {
                let diff = (kz[(i, j)] - b[(i, j)]).abs();
                assert!(diff < 1e-8, "residual at ({i},{j}) = {diff}");
            }
        }
    }

    #[test]
    fn sixteen_probe_vectors_like_the_paper() {
        // §6.4: "the conjugate gradient method to consider 16 samples,
        // i.e. M = 16".
        let (gp, pts) = small_model(12);
        let b = Matrix::from_fn(16, pts.len(), |r, c| ((r * 5 + c) % 7) as f64 - 3.0);
        let res = gp.solve(&b, 60, 1e-8).unwrap();
        assert_eq!(res.z.rows(), 16);
        assert!(res.iterations > 0);
    }

    #[test]
    fn rejects_wrong_rhs_width() {
        let (gp, _) = small_model(6);
        assert!(gp.solve(&Matrix::<f64>::zeros(2, 5), 10, 1e-8).is_err());
    }
}
