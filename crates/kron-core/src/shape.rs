//! Problem-shape descriptors and the size/FLOP arithmetic shared by every
//! engine and by the performance model.

use crate::error::{KronError, Result};
use crate::{Element, Matrix};
use std::fmt;

/// Shape of one Kronecker factor `Fᵢ` (`Pᵢ` rows × `Qᵢ` columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorShape {
    /// Rows of the factor (the slice length in FastKron's algorithm).
    pub p: usize,
    /// Columns of the factor.
    pub q: usize,
}

impl FactorShape {
    /// Convenience constructor.
    pub const fn new(p: usize, q: usize) -> Self {
        FactorShape { p, q }
    }

    /// Square factor `n × n` (the common case in the paper's evaluation).
    pub const fn square(n: usize) -> Self {
        FactorShape { p: n, q: n }
    }
}

impl fmt::Display for FactorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.p, self.q)
    }
}

/// Shapes for one iteration of a Kron-Matmul engine.
///
/// Iterations run over factors from the **last** (`FN`) to the **first**
/// (`F1`); this ordering is what makes the factor's index the
/// fastest-varying dimension of the intermediate at its turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationShape {
    /// 0-based index of the factor this iteration multiplies with
    /// (`N-1` first, `0` last).
    pub factor_index: usize,
    /// Shape of that factor.
    pub factor: FactorShape,
    /// Columns of the input intermediate (`K` in the paper).
    pub input_cols: usize,
    /// Columns of the output intermediate (`L = K/P·Q` in the paper).
    pub output_cols: usize,
    /// Number of row slices (`K / P`).
    pub slices: usize,
}

/// A complete Kron-Matmul problem: `Y[M × ∏Qᵢ] = X[M × ∏Pᵢ] · (F1 ⊗ … ⊗ FN)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KronProblem {
    /// Rows of the input matrix `X`.
    pub m: usize,
    /// Factor shapes, in Kronecker-product order (`F1` outermost).
    pub factors: Vec<FactorShape>,
}

impl KronProblem {
    /// Builds and validates a problem description.
    ///
    /// # Errors
    /// [`KronError::NoFactors`] when `factors` is empty and
    /// [`KronError::EmptyDimension`] when any dimension is zero.
    pub fn new(m: usize, factors: Vec<FactorShape>) -> Result<Self> {
        if factors.is_empty() {
            return Err(KronError::NoFactors);
        }
        if m == 0 {
            return Err(KronError::EmptyDimension {
                what: "M = 0".into(),
            });
        }
        for (i, f) in factors.iter().enumerate() {
            if f.p == 0 || f.q == 0 {
                return Err(KronError::EmptyDimension {
                    what: format!("factor {} has shape {}", i + 1, f),
                });
            }
        }
        Ok(KronProblem { m, factors })
    }

    /// The problem `Y = X · (F1 ⊗ … ⊗ FN)` poses, read off its operands,
    /// with `X`'s width checked against it: the one operand check of every
    /// reference Kron-Matmul. `m` is `X`'s row count, raised to 1 when `X`
    /// has none, since a problem needs `M ≥ 1` while an `X` with no rows is
    /// a valid operand whose product has no rows.
    ///
    /// # Errors
    /// As [`KronProblem::new`] for the factors: [`KronError::NoFactors`]
    /// for an empty list and [`KronError::EmptyDimension`] for a factor
    /// with no rows or no columns. Then [`KronError::ShapeMismatch`] when
    /// `X.cols() != ∏Pᵢ`.
    pub fn from_operands<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Self> {
        let shapes = factors
            .iter()
            .map(|f| FactorShape::new(f.rows(), f.cols()))
            .collect();
        let problem = KronProblem::new(x.rows().max(1), shapes)?;
        if x.cols() != problem.input_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("X with ∏Pᵢ = {} cols", problem.input_cols()),
                found: format!("X with {} cols", x.cols()),
            });
        }
        Ok(problem)
    }

    /// Problem with `n` identical square `p × p` factors — the paper's
    /// microbenchmark family `P^N` (Figures 9/11, Tables 1–3).
    pub fn uniform(m: usize, p: usize, n: usize) -> Result<Self> {
        KronProblem::new(m, vec![FactorShape::square(p); n])
    }

    /// Number of factors `N`.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Columns of the input matrix, `∏ᵢ Pᵢ`.
    pub fn input_cols(&self) -> usize {
        self.factors.iter().map(|f| f.p).product()
    }

    /// Columns of the result, `∏ᵢ Qᵢ`.
    pub fn output_cols(&self) -> usize {
        self.factors.iter().map(|f| f.q).product()
    }

    /// Checks that `factors` has this problem's factor count and shapes,
    /// in Kronecker-product order. Every engine that executes a planned
    /// problem calls this before touching its operands.
    ///
    /// # Errors
    /// [`KronError::ShapeMismatch`] naming the count, or the first factor
    /// whose shape differs.
    pub fn check_factors<T: Element>(&self, factors: &[&Matrix<T>]) -> Result<()> {
        if factors.len() != self.factors.len() {
            return Err(KronError::ShapeMismatch {
                expected: format!("{} factors", self.factors.len()),
                found: format!("{} factors", factors.len()),
            });
        }
        for (i, (f, s)) in factors.iter().zip(&self.factors).enumerate() {
            if f.rows() != s.p || f.cols() != s.q {
                return Err(KronError::ShapeMismatch {
                    expected: format!("factor {} of shape {s}", i + 1),
                    found: format!("{}×{}", f.rows(), f.cols()),
                });
            }
        }
        Ok(())
    }

    /// Checks the operands of an execute of the first `rows` rows, where
    /// `m` is the planned row capacity: `rows ≤ m`, and `x` and `y` each
    /// hold at least `rows` rows of `∏Pᵢ` and `∏Qᵢ` columns. Rows past
    /// `rows` are neither read nor written, so taller operands pass.
    ///
    /// # Errors
    /// [`KronError::ShapeMismatch`] naming the capacity or the operand.
    pub fn check_rows<T: Element>(&self, x: &Matrix<T>, y: &Matrix<T>, rows: usize) -> Result<()> {
        if rows > self.m {
            return Err(KronError::ShapeMismatch {
                expected: format!("at most {} rows (the planned capacity)", self.m),
                found: format!("{rows} rows"),
            });
        }
        for (name, op, cols) in [("X", x, self.input_cols()), ("Y", y, self.output_cols())] {
            if op.rows() < rows || op.cols() != cols {
                return Err(KronError::ShapeMismatch {
                    expected: format!("{name} with ≥{rows} rows × {cols}"),
                    found: format!("{name} {}×{}", op.rows(), op.cols()),
                });
            }
        }
        Ok(())
    }

    /// Largest intermediate column count across iterations (line 3 of
    /// Algorithm 1 generalizes to this for mixed shapes): sizing for the
    /// double-buffered intermediates.
    pub fn max_intermediate_cols(&self) -> usize {
        self.iterations()
            .map(|it| it.output_cols)
            .max()
            .unwrap_or(0)
            .max(self.input_cols())
    }

    /// Elements of the largest intermediate any iteration produces or
    /// consumes, `M · max_intermediate_cols()` — the size each of the fused
    /// execution path's two ping-pong workspace buffers is allocated at
    /// once, so that no factor step ever allocates.
    pub fn max_intermediate_elems(&self) -> usize {
        self.m * self.max_intermediate_cols()
    }

    /// Iterator over the `N` iteration shapes, last factor first.
    pub fn iterations(&self) -> impl Iterator<Item = IterationShape> + '_ {
        let mut input_cols = self.input_cols();
        (0..self.factors.len()).rev().map(move |factor_index| {
            let factor = self.factors[factor_index];
            debug_assert_eq!(input_cols % factor.p, 0);
            let slices = input_cols / factor.p;
            let output_cols = slices * factor.q;
            let it = IterationShape {
                factor_index,
                factor,
                input_cols,
                output_cols,
                slices,
            };
            input_cols = output_cols;
            it
        })
    }

    /// Total floating-point operations performed by the iterative
    /// algorithms (shuffle, FTMMT and FastKron all share this count):
    /// `Σ_f 2 · M · K_out(f) · P_f`, counting one multiply and one add per
    /// inner step — the figure all TFLOPS numbers in the paper are based on.
    pub fn flops(&self) -> u64 {
        self.iterations()
            .map(|it| 2 * self.m as u64 * it.output_cols as u64 * it.factor.p as u64)
            .sum()
    }

    /// FLOPs of the naive algorithm (materialize `⊗Fᵢ` then GEMM):
    /// `2·M·∏Pᵢ·∏Qᵢ` — the `O(M·Pᴺ·Qᴺ)` the paper contrasts against.
    pub fn naive_flops(&self) -> u64 {
        2 * self.m as u64 * self.input_cols() as u64 * self.output_cols() as u64
    }

    /// True when all factors share one `P×Q` shape (enables the fused
    /// kernel's `log_P` arithmetic).
    pub fn is_uniform(&self) -> bool {
        self.factors.windows(2).all(|w| w[0] == w[1])
    }

    /// Compact display like `M=1024, 8⁶ (8×8 ×6)` used in reports.
    pub fn describe(&self) -> String {
        if self.is_uniform() {
            let f = self.factors[0];
            if f.p == f.q {
                return format!("M={}, {}^{}", self.m, f.p, self.factors.len());
            }
            return format!("M={}, ({})^{}", self.m, f, self.factors.len());
        }
        let fs: Vec<String> = self.factors.iter().map(|f| f.to_string()).collect();
        format!("M={}, {}", self.m, fs.join(" ⊗ "))
    }
}

impl fmt::Display for KronProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Where a planned execution runs: one device, or a `{GM, GK}` grid of
/// simulated devices (§5 of the paper's SUMMA-style partitioning).
///
/// Plans for the same problem on different backends are **not**
/// interchangeable — a sharded plan owns per-device blocks and a
/// communication schedule a single-device plan has no use for — so this
/// is part of [`PlanKey`] and any plan cache keyed on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// The whole problem executes on one device.
    #[default]
    SingleDevice,
    /// Rows are sharded `GM`-ways and columns `GK`-ways across a grid of
    /// simulated devices with grouped exchanges (Algorithm 2).
    Grid {
        /// Row groups (partition of `M`).
        gm: usize,
        /// Column groups (partition of `K`).
        gk: usize,
    },
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBackend::SingleDevice => f.write_str("single"),
            ExecBackend::Grid { gm, gk } => write!(f, "grid{{{gm}×{gk}}}"),
        }
    }
}

/// Cache key identifying one planned execution: everything that makes two
/// [`crate::Matrix`]-level executions interchangeable — the problem shape,
/// the scalar type, the target device, and the execution backend (single
/// device or a device grid).
///
/// [`KronProblem`] (and [`FactorShape`]) derive `Hash`/`Eq` exactly so this
/// key can index a plan/workspace cache: a serving runtime that keys its
/// cache on `PlanKey` does zero planning and zero workspace allocation for
/// any request shape it has seen before.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The full problem shape (row count and factor shapes).
    pub problem: KronProblem,
    /// Scalar type the plan was specialized for.
    pub dtype: crate::DType,
    /// Name of the device the plan was tuned for (e.g. a
    /// `gpu_sim::DeviceSpec::name` or `"cpu"`).
    pub device: &'static str,
    /// Execution backend the plan targets.
    pub backend: ExecBackend,
}

impl PlanKey {
    /// Single-device plan key.
    pub fn new(problem: KronProblem, dtype: crate::DType, device: &'static str) -> Self {
        PlanKey {
            problem,
            dtype,
            device,
            backend: ExecBackend::SingleDevice,
        }
    }

    /// Plan key for an execution sharded across a `{gm, gk}` device grid.
    pub fn sharded(
        problem: KronProblem,
        dtype: crate::DType,
        device: &'static str,
        gm: usize,
        gk: usize,
    ) -> Self {
        PlanKey {
            problem,
            dtype,
            device,
            backend: ExecBackend::Grid { gm, gk },
        }
    }

    /// Estimated resident bytes of the execution state a cache entry for
    /// this key holds — the basis for byte-accounted cache budgets.
    ///
    /// Covers the two allocations that dominate an entry's footprint:
    ///
    /// * **workspace** — the fused path's two ping-pong intermediate
    ///   buffers (`2 · max_intermediate_elems`, zero for single-factor
    ///   chains); under a device grid, the engine's device-major
    ///   `local`/`next` blocks, which tile two intermediates,
    /// * **staging** — the row-stacked batch input/output buffers
    ///   (`m · (K + L)`),
    ///
    /// all scaled by the dtype's element width. It is an accounting
    /// estimate (plans and small per-entry state are not counted), so
    /// budgets should treat it as a sizing signal, not an allocator
    /// ledger.
    pub fn estimated_bytes(&self) -> usize {
        let p = &self.problem;
        let intermediates = if p.num_factors() > 1 {
            p.max_intermediate_elems()
        } else {
            0
        };
        let workspace = match self.backend {
            // Two ping-pong buffers.
            ExecBackend::SingleDevice => 2 * intermediates,
            // The engine's local/next blocks tile 2 intermediates across
            // the grid.
            ExecBackend::Grid { .. } => 2 * p.max_intermediate_elems(),
        };
        let staging = p.m * (p.input_cols() + p.output_cols());
        (workspace + staging) * self.dtype.bytes()
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} · {} · {} · {}",
            self.problem, self.dtype, self.device, self.backend
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_bytes_scales_with_dtype_backend_and_shape() {
        let p = KronProblem::uniform(8, 4, 2).unwrap(); // K = L = 16, inter = 8·16
        let single32 = PlanKey::new(p.clone(), crate::DType::F32, "v100");
        // workspace 2·128 + staging 8·32 = 512 elems · 4 bytes.
        assert_eq!(single32.estimated_bytes(), 512 * 4);
        // f64 doubles it.
        let single64 = PlanKey::new(p.clone(), crate::DType::F64, "v100");
        assert_eq!(single64.estimated_bytes(), 512 * 8);
        // A grid entry's local/next blocks tile the same 2 intermediates.
        let grid = PlanKey::sharded(p, crate::DType::F32, "v100", 2, 2);
        assert_eq!(grid.estimated_bytes(), single32.estimated_bytes());
        // Single-factor chains hold no intermediates, only staging.
        let one = KronProblem::new(4, vec![FactorShape::square(3)]).unwrap();
        let key = PlanKey::new(one, crate::DType::F32, "v100");
        assert_eq!(key.estimated_bytes(), 4 * (3 + 3) * 4);
    }

    #[test]
    fn uniform_sizes() {
        let p = KronProblem::uniform(1024, 8, 6).unwrap();
        assert_eq!(p.input_cols(), 8usize.pow(6));
        assert_eq!(p.output_cols(), 8usize.pow(6));
        assert_eq!(p.num_factors(), 6);
        assert!(p.is_uniform());
        assert_eq!(p.describe(), "M=1024, 8^6");
    }

    #[test]
    fn validation() {
        assert!(matches!(
            KronProblem::new(4, vec![]),
            Err(KronError::NoFactors)
        ));
        assert!(KronProblem::new(0, vec![FactorShape::square(2)]).is_err());
        assert!(KronProblem::new(4, vec![FactorShape::new(0, 2)]).is_err());
    }

    fn is_shape_mismatch(r: Result<()>) -> bool {
        matches!(r, Err(KronError::ShapeMismatch { .. }))
    }

    #[test]
    fn check_factors_rejects_count_and_shape() {
        // F1: 2×3, F2: 4×5.
        let p = KronProblem::new(4, vec![FactorShape::new(2, 3), FactorShape::new(4, 5)]).unwrap();
        let (f1, f2) = (Matrix::<f32>::zeros(2, 3), Matrix::<f32>::zeros(4, 5));
        p.check_factors(&[&f1, &f2]).unwrap();
        assert!(is_shape_mismatch(p.check_factors(&[&f1])));
        assert!(is_shape_mismatch(p.check_factors(&[&f1, &f2, &f2])));
        // Swapped order: both shapes exist, but not in these positions.
        assert!(is_shape_mismatch(p.check_factors(&[&f2, &f1])));
        let transposed = Matrix::<f32>::zeros(5, 4);
        let err = p.check_factors(&[&f1, &transposed]).unwrap_err();
        assert!(err.to_string().contains("factor 2 of shape 4×5"), "{err}");
    }

    #[test]
    fn check_rows_rejects_capacity_height_and_width() {
        // Capacity 4 rows; K = 2·4 = 8 input and L = 3·5 = 15 output columns.
        let p = KronProblem::new(4, vec![FactorShape::new(2, 3), FactorShape::new(4, 5)]).unwrap();
        let m = |rows, cols| Matrix::<f64>::zeros(rows, cols);
        let (x, y) = (m(4, 8), m(4, 15));
        p.check_rows(&x, &y, 4).unwrap();
        // More rows than the capacity, even with operands that tall.
        assert!(is_shape_mismatch(p.check_rows(&m(5, 8), &m(5, 15), 5)));
        // X or Y with fewer rows than requested.
        assert!(is_shape_mismatch(p.check_rows(&m(2, 8), &y, 3)));
        assert!(is_shape_mismatch(p.check_rows(&x, &m(2, 15), 3)));
        // X or Y with the wrong width, tall enough.
        assert!(is_shape_mismatch(p.check_rows(&m(4, 9), &y, 2)));
        assert!(is_shape_mismatch(p.check_rows(&x, &m(4, 8), 2)));
        // Accepted: rows == 0 (any height, right widths), and operands
        // holding more rows than the call executes.
        p.check_rows(&m(0, 8), &m(0, 15), 0).unwrap();
        p.check_rows(&m(9, 8), &m(6, 15), 3).unwrap();
    }

    #[test]
    fn iteration_shapes_uniform() {
        let p = KronProblem::uniform(2, 4, 3).unwrap();
        let its: Vec<_> = p.iterations().collect();
        assert_eq!(its.len(), 3);
        // All intermediates stay at 64 columns for square factors.
        for (step, it) in its.iter().enumerate() {
            assert_eq!(it.factor_index, 2 - step);
            assert_eq!(it.input_cols, 64);
            assert_eq!(it.output_cols, 64);
            assert_eq!(it.slices, 16);
        }
    }

    #[test]
    fn iteration_shapes_rectangular() {
        // F1: 2×3, F2: 4×5 — X: M×8, Y: M×15.
        let p = KronProblem::new(1, vec![FactorShape::new(2, 3), FactorShape::new(4, 5)]).unwrap();
        assert_eq!(p.input_cols(), 8);
        assert_eq!(p.output_cols(), 15);
        let its: Vec<_> = p.iterations().collect();
        // First iteration: factor 2 (4×5): slices = 8/4 = 2, out = 2*5 = 10.
        assert_eq!(its[0].factor_index, 1);
        assert_eq!(its[0].slices, 2);
        assert_eq!(its[0].output_cols, 10);
        // Second: factor 1 (2×3): slices = 10/2 = 5, out = 15.
        assert_eq!(its[1].factor_index, 0);
        assert_eq!(its[1].slices, 5);
        assert_eq!(its[1].output_cols, 15);
        assert_eq!(p.max_intermediate_cols(), 15);
        assert_eq!(p.max_intermediate_elems(), 15);
    }

    #[test]
    fn max_intermediate_elems_scales_with_m() {
        let p = KronProblem::uniform(7, 4, 3).unwrap();
        assert_eq!(p.max_intermediate_elems(), 7 * 64);
        // Expanding factors: the input is not the largest intermediate.
        let q = KronProblem::new(3, vec![FactorShape::new(2, 8), FactorShape::new(2, 8)]).unwrap();
        assert_eq!(q.max_intermediate_cols(), 64);
        assert_eq!(q.max_intermediate_elems(), 3 * 64);
    }

    #[test]
    fn flops_uniform_matches_closed_form() {
        // For square P factors: flops = N · 2·M·P^N·P.
        let p = KronProblem::uniform(1024, 8, 6).unwrap();
        let expected = 6 * 2 * 1024u64 * 8u64.pow(6) * 8;
        assert_eq!(p.flops(), expected);
    }

    #[test]
    fn flops_match_paper_table1_scale() {
        // Sanity anchor from the paper: FastKron runs 64^3, M=1024 at
        // ~11.8 TFLOPS in 8.74 ms ⇒ ~1.0e11 FLOPs.
        let p = KronProblem::uniform(1024, 64, 3).unwrap();
        let gf = p.flops() as f64;
        assert!((0.9e11..1.2e11).contains(&gf), "flops = {gf:e}");
    }

    #[test]
    fn naive_flops_dominate() {
        let p = KronProblem::uniform(16, 8, 4).unwrap();
        assert!(p.naive_flops() > p.flops());
    }

    #[test]
    fn plan_keys_are_collision_free_across_distinct_shapes() {
        use crate::DType;
        use std::collections::HashSet;
        // A family of deliberately confusable shapes: same element counts,
        // same products, different decompositions. Every one must key
        // distinctly, plus the same shape must differ by dtype and device.
        let problems = vec![
            KronProblem::uniform(4, 4, 2).unwrap(),
            KronProblem::uniform(4, 2, 4).unwrap(),
            KronProblem::uniform(2, 4, 4).unwrap(),
            KronProblem::uniform(16, 4, 1).unwrap(),
            KronProblem::new(4, vec![FactorShape::new(2, 8), FactorShape::new(8, 2)]).unwrap(),
            KronProblem::new(4, vec![FactorShape::new(8, 2), FactorShape::new(2, 8)]).unwrap(),
            KronProblem::new(4, vec![FactorShape::new(16, 16)]).unwrap(),
        ];
        let mut keys = HashSet::new();
        for p in &problems {
            for dtype in [DType::F32, DType::F64] {
                for device in ["V100", "A100"] {
                    for (gm, gk) in [(1, 2), (2, 2), (2, 4)] {
                        assert!(
                            keys.insert(PlanKey::sharded(p.clone(), dtype, device, gm, gk)),
                            "duplicate key for {p} / {dtype} / {device} / {gm}x{gk}"
                        );
                    }
                    assert!(
                        keys.insert(PlanKey::new(p.clone(), dtype, device)),
                        "duplicate key for {p} / {dtype} / {device}"
                    );
                }
            }
        }
        assert_eq!(keys.len(), problems.len() * 4 * 4);
    }

    #[test]
    fn plan_key_equality_is_structural() {
        use crate::DType;
        let a = PlanKey::new(KronProblem::uniform(8, 4, 3).unwrap(), DType::F32, "V100");
        let b = PlanKey::new(KronProblem::uniform(8, 4, 3).unwrap(), DType::F32, "V100");
        assert_eq!(a, b);
        let mut hasher_input = std::collections::HashSet::new();
        hasher_input.insert(a);
        assert!(hasher_input.contains(&b));
        assert_eq!(b.to_string(), "M=8, 4^3 · float · V100 · single");
        let s = PlanKey::sharded(
            KronProblem::uniform(8, 4, 3).unwrap(),
            DType::F32,
            "V100",
            2,
            4,
        );
        assert_ne!(s, b);
        assert_eq!(s.to_string(), "M=8, 4^3 · float · V100 · grid{2×4}");
        assert_eq!(s.backend, ExecBackend::Grid { gm: 2, gk: 4 });
        assert_eq!(ExecBackend::default(), ExecBackend::SingleDevice);
    }

    #[test]
    fn describe_mixed() {
        let p = KronProblem::new(10, vec![FactorShape::new(5, 2), FactorShape::new(6, 5)]).unwrap();
        assert_eq!(p.describe(), "M=10, 5×2 ⊗ 6×5");
        let r = KronProblem::new(3, vec![FactorShape::new(4, 6); 2]).unwrap();
        assert_eq!(r.describe(), "M=3, (4×6)^2");
    }
}
