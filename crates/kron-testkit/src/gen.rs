//! Deterministic problem-shape and data generators.
//!
//! Every generated case carries **integer-valued** matrix entries in
//! `[-3, 3]`, with shapes bounded so that every partial sum any engine can
//! form stays below `2^24` in magnitude. Integers in that range are exactly
//! representable in `f32` (and trivially in `f64`), and float addition and
//! multiplication on exactly-representable integers are exact — so every
//! engine, whatever its summation order, blocking, FMA use, or sharding,
//! must produce the **same** result, comparable with `==` and no tolerance.
//! That exactness is what lets the differential oracle in [`crate::diff`]
//! demand bit-for-bit agreement across seven execution paths instead of
//! "close enough", turning off-by-one indexing bugs from tolerance noise
//! into hard failures.

use kron_core::{Element, FactorShape, KronProblem, Matrix};
use proptest::TestRng;

/// Magnitude cap for generated entries.
const VAL_BOUND: i64 = 3;

/// Exactness budget: worst-case partial-sum magnitude must stay below
/// `2^24` so every intermediate is an exact `f32` integer.
const EXACT_LIMIT: i64 = 1 << 24;

/// Worst-case magnitude of any value an engine can form for `problem`
/// with entries of magnitude at most `B` = 3: `B · ∏ᵢ (Pᵢ · B)` — the
/// absolute-sum bound, valid for every summation order and any subset of
/// processed factors (the bound grows monotonically along the chain).
pub fn worst_case_magnitude(problem: &KronProblem) -> i64 {
    problem.factors.iter().fold(VAL_BOUND, |acc, f| {
        acc.saturating_mul(f.p as i64).saturating_mul(VAL_BOUND)
    })
}

/// One generated differential-test case: the problem plus deterministic
/// integer-valued operands derived purely from `(m, shapes, seed)`.
#[derive(Debug, Clone)]
pub struct KronCase<T: Element> {
    /// The problem shape.
    pub problem: KronProblem,
    /// Input `X` (`m × ∏Pᵢ`).
    pub x: Matrix<T>,
    /// The Kronecker factors, in product order.
    pub factors: Vec<Matrix<T>>,
    /// The data seed the operands were derived from.
    pub seed: u64,
}

/// SplitMix64 step — the same generator the proptest shim uses, reused
/// here so a case is reconstructible from its literal alone.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) fn int_matrix<T: Element>(rows: usize, cols: usize, state: &mut u64) -> Matrix<T> {
    let span = (2 * VAL_BOUND + 1) as u64;
    Matrix::from_fn(rows, cols, |_, _| {
        T::from_f64((splitmix(state) % span) as f64 - VAL_BOUND as f64)
    })
}

impl<T: Element> KronCase<T> {
    /// Builds the case for `(m, shapes, seed)` — fully deterministic, so
    /// the output of [`KronCase::regression_literal`] reproduces a failure
    /// exactly.
    ///
    /// # Panics
    /// When the shape is degenerate or breaches the `f32` exactness budget
    /// (generated families never do; hand-written literals should keep
    /// `∏Pᵢ · 3^(N+1) < 2^24`).
    pub fn deterministic(m: usize, shapes: &[(usize, usize)], seed: u64) -> Self {
        let factors_shapes: Vec<FactorShape> = shapes
            .iter()
            .map(|&(p, q)| FactorShape::new(p, q))
            .collect();
        let problem = KronProblem::new(m, factors_shapes).expect("valid case shape");
        assert!(
            worst_case_magnitude(&problem) < EXACT_LIMIT,
            "case {problem} breaches the f32 exactness budget"
        );
        let mut state = seed ^ 0x6b8b_4567_327b_23c6;
        let x = int_matrix(m, problem.input_cols(), &mut state);
        let factors = shapes
            .iter()
            .map(|&(p, q)| int_matrix(p, q, &mut state))
            .collect();
        KronCase {
            problem,
            x,
            factors,
            seed,
        }
    }

    /// Borrowed factor references in the form every engine API takes.
    pub fn factor_refs(&self) -> Vec<&Matrix<T>> {
        self.factors.iter().collect()
    }

    /// A copy-pasteable Rust expression rebuilding this exact case — what
    /// a failed differential property prints so the shrunk failure can be
    /// pinned as a regression test verbatim.
    pub fn regression_literal(&self) -> String {
        let shapes: Vec<String> = self
            .problem
            .factors
            .iter()
            .map(|f| format!("({}, {})", f.p, f.q))
            .collect();
        format!(
            "KronCase::<{}>::deterministic({}, &[{}], {})",
            T::DTYPE.rust_name(),
            self.problem.m,
            shapes.join(", "),
            self.seed
        )
    }
}

/// The shape families the differential suite sweeps — chosen to cover the
/// paper's evaluation axes plus the edges that historically break engines:
/// power-of-two uniform chains (the fast paths), odd sizes (edge tiles),
/// rectangular factors (`P ≠ Q`, expanding/contracting intermediates), and
/// mixed per-factor shapes (non-uniform chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeFamily {
    /// `P^N` with `P ∈ {2, 4, 8}` — the Figure 9/11 microbenchmark family.
    UniformPow2,
    /// `P^N` with odd `P ∈ {3, 5, 7}` — exercises edge register tiles.
    UniformOdd,
    /// Independent `Pᵢ × Qᵢ` factors — rectangular, expanding/contracting.
    Rectangular,
    /// Square factors of mixed sizes (Table 4 style, e.g. `5⊗5⊗5⊗2`).
    MixedSquare,
}

impl ShapeFamily {
    /// Every family, for exhaustive sweeps.
    pub const ALL: [ShapeFamily; 4] = [
        ShapeFamily::UniformPow2,
        ShapeFamily::UniformOdd,
        ShapeFamily::Rectangular,
        ShapeFamily::MixedSquare,
    ];

    /// Samples a problem shape `(m, factor shapes)` from this family.
    /// `M ∈ [1, 12]` mostly (batchable serving sizes) with an occasional
    /// larger `M` to push requests down the solo path.
    pub fn sample(self, rng: &mut TestRng) -> (usize, Vec<(usize, usize)>) {
        let m = if rng.below(8) == 0 {
            17 + rng.below(24) as usize // solo-path sizes
        } else {
            1 + rng.below(12) as usize
        };
        let shapes = match self {
            ShapeFamily::UniformPow2 => {
                let p = [2usize, 4, 8][rng.below(3) as usize];
                let n_max = match p {
                    2 => 8,
                    4 => 4,
                    _ => 2,
                };
                let n = 1 + rng.below(n_max) as usize;
                vec![(p, p); n]
            }
            ShapeFamily::UniformOdd => {
                let p = [3usize, 5, 7][rng.below(3) as usize];
                let n_max = match p {
                    3 => 5,
                    5 => 3,
                    _ => 2,
                };
                let n = 1 + rng.below(n_max) as usize;
                vec![(p, p); n]
            }
            ShapeFamily::Rectangular => {
                let n = 1 + rng.below(3) as usize;
                (0..n)
                    .map(|_| (1 + rng.below(6) as usize, 1 + rng.below(6) as usize))
                    .collect()
            }
            ShapeFamily::MixedSquare => {
                let n = 2 + rng.below(3) as usize;
                (0..n)
                    .map(|_| {
                        let p = 2 + rng.below(4) as usize;
                        (p, p)
                    })
                    .collect()
            }
        };
        (m, shapes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_integer_valued() {
        let a = KronCase::<f32>::deterministic(3, &[(2, 3), (4, 2)], 42);
        let b = KronCase::<f32>::deterministic(3, &[(2, 3), (4, 2)], 42);
        assert_eq!(a.x, b.x);
        assert_eq!(a.factors, b.factors);
        let c = KronCase::<f32>::deterministic(3, &[(2, 3), (4, 2)], 43);
        assert_ne!(a.x, c.x);
        for v in a.x.as_slice().iter().chain(a.factors[0].as_slice()) {
            assert_eq!(v.fract(), 0.0, "non-integer value {v}");
            assert!(v.abs() <= VAL_BOUND as f32);
        }
    }

    #[test]
    fn regression_literal_round_trips() {
        let a = KronCase::<f64>::deterministic(5, &[(3, 3), (2, 5)], 7);
        let lit = a.regression_literal();
        assert_eq!(
            lit,
            "KronCase::<f64>::deterministic(5, &[(3, 3), (2, 5)], 7)"
        );
        // Evaluate the literal by hand: it must rebuild the same case.
        let b = KronCase::<f64>::deterministic(5, &[(3, 3), (2, 5)], 7);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn every_family_respects_the_exactness_budget() {
        let mut rng = TestRng::deterministic("family-budget");
        for _ in 0..500 {
            for family in ShapeFamily::ALL {
                let (m, shapes) = family.sample(&mut rng);
                let case = KronCase::<f32>::deterministic(m, &shapes, 1);
                assert!(worst_case_magnitude(&case.problem) < EXACT_LIMIT);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactness budget")]
    fn budget_breach_is_rejected() {
        // 16^6 = 2^24 columns alone breaches the budget.
        let _ = KronCase::<f32>::deterministic(1, &[(16, 16); 6], 0);
    }
}
