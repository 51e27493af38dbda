//! Equivalence proptests for the wide (column-range splitting) execution
//! mode: any forced `(row_groups, col_groups)` decomposition must produce
//! exactly the serial path's output, bit-for-bit shuffle-oracle close.
//!
//! The wide mode exists for problems with `M < num_threads` (the paper's
//! Table 3/4 small-M shapes): row tiles alone cannot use a wide host, so
//! each factor step is broadcast over a `rows × column-groups` grid with
//! the broadcast acting as the inter-step barrier. The partition override
//! pins the decomposition so these tests exercise the splitting logic on
//! any machine, including single-core CI.

use fastkron_core::exec::Workspace;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, FactorShape, KronProblem, Matrix};
use proptest::prelude::*;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 5 * r * cols + c) % 17) as f64 - 8.0
    })
}

/// Runs `problem` serially and with the forced `(rows, cols)` partition;
/// both must match the shuffle oracle.
fn check_partition(problem: &KronProblem, row_groups: usize, col_groups: usize, seed: usize) {
    let x = seq_matrix(problem.m, problem.input_cols(), seed);
    let fs: Vec<Matrix<f64>> = problem
        .factors
        .iter()
        .enumerate()
        .map(|(i, s)| seq_matrix(s.p, s.q, seed + 3 * i + 1))
        .collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();

    let mut serial_ws = Workspace::new(problem);
    serial_ws.set_partition(Some((1, 1)));
    let serial = serial_ws.execute(&x, &refs).unwrap();

    let mut wide_ws = Workspace::new(problem);
    wide_ws.set_partition(Some((row_groups, col_groups)));
    let wide = wide_ws.execute(&x, &refs).unwrap();

    let label = format!("{problem} split {row_groups}×{col_groups}");
    assert_eq!(
        serial.as_slice(),
        wide.as_slice(),
        "{label}: wide mode must be bit-identical to serial"
    );
    let oracle = kron_matmul_shuffle(&x, &refs).unwrap();
    assert_matrices_close(&wide, &oracle, &label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wide_split_matches_serial_uniform(
        (m, p, n) in (1usize..=6, 2usize..=6, 1usize..=4),
        (rows, cols) in (1usize..=4, 1usize..=8),
    ) {
        let problem = KronProblem::uniform(m, p, n).unwrap();
        check_partition(&problem, rows, cols, m + p + n);
    }

    #[test]
    fn wide_split_matches_serial_rectangular(
        m in 1usize..=5,
        (p1, q1) in (1usize..=7, 1usize..=7),
        (p2, q2) in (1usize..=7, 1usize..=7),
        cols in 2usize..=6,
    ) {
        let problem = KronProblem::new(
            m,
            vec![FactorShape::new(p1, q1), FactorShape::new(p2, q2)],
        )
        .unwrap();
        check_partition(&problem, m, cols, m + p1 + q2);
    }
}

#[test]
fn wide_split_small_m_table34_shapes() {
    // The motivating shapes: M ≤ 16 with more column groups than rows,
    // exactly what a 32-thread host would pick for them.
    for &(m, p, n, cols) in &[
        (1usize, 8usize, 3usize, 8usize),
        (2, 16, 2, 16),
        (4, 8, 2, 4),
        (16, 32, 2, 2),
        (3, 5, 3, 7),
    ] {
        let problem = KronProblem::uniform(m, p, n).unwrap();
        check_partition(&problem, m, cols, m + p);
    }
}

#[test]
fn wide_split_more_groups_than_slices() {
    // col_groups far above the slice count: surplus groups get empty
    // ranges and must not corrupt anything.
    let problem = KronProblem::uniform(2, 2, 2).unwrap(); // slices = 2 per step
    check_partition(&problem, 2, 32, 9);
}

#[test]
fn wide_split_single_factor_streams_to_y() {
    // n = 1: no intermediates, X streams straight to Y under splitting.
    let problem = KronProblem::new(3, vec![FactorShape::new(6, 4)]).unwrap();
    check_partition(&problem, 3, 4, 11);
}

#[test]
fn wide_split_tall_factor() {
    // P = 200: long FMA chains inside a split range, with Q = 3 below
    // every tile width but 2 and 1.
    let problem = KronProblem::new(2, vec![FactorShape::new(200, 3)]).unwrap();
    check_partition(&problem, 2, 5, 13);
}

#[test]
fn execute_rows_prefix_matches_full_execute() {
    // execute_rows on a capacity-sized workspace must equal executing the
    // prefix exactly — the contract the serving runtime's batcher relies on.
    let capacity = 16;
    let problem = KronProblem::uniform(capacity, 4, 3).unwrap();
    let mut ws = Workspace::<f64>::new(&problem);
    let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();
    let x = seq_matrix(capacity, problem.input_cols(), 7);
    let mut y = Matrix::zeros(capacity, problem.output_cols());
    for rows in [0usize, 1, 3, 7, 16] {
        y.as_mut_slice().fill(0.0);
        ws.execute_rows(&x, &refs, &mut y, rows).unwrap();
        for r in 0..rows {
            let exact = KronProblem::uniform(1, 4, 3).unwrap();
            let xr = Matrix::from_vec(1, x.cols(), x.row(r).to_vec()).unwrap();
            let mut ws1 = Workspace::new(&exact);
            let yr = ws1.execute(&xr, &refs).unwrap();
            assert_eq!(y.row(r), yr.row(0), "row {r} of rows={rows}");
        }
        // Rows beyond the prefix stay untouched.
        for r in rows..capacity {
            assert!(y.row(r).iter().all(|&v| v == 0.0), "row {r} must be zero");
        }
    }
}

#[test]
fn execute_rows_validates() {
    let problem = KronProblem::uniform(8, 4, 2).unwrap();
    let mut ws = Workspace::<f64>::new(&problem);
    let f = seq_matrix(4, 4, 1);
    let x = seq_matrix(8, 16, 0);
    let mut y = Matrix::zeros(8, 16);
    // rows beyond capacity
    assert!(ws.execute_rows(&x, &[&f, &f], &mut y, 9).is_err());
    // operand with fewer rows than requested
    let short_x = seq_matrix(2, 16, 0);
    assert!(ws.execute_rows(&short_x, &[&f, &f], &mut y, 4).is_err());
    // wrong column counts
    let wrong_x = seq_matrix(8, 8, 0);
    assert!(ws.execute_rows(&wrong_x, &[&f, &f], &mut y, 4).is_err());
    let mut wrong_y = Matrix::zeros(8, 8);
    assert!(ws.execute_rows(&x, &[&f, &f], &mut wrong_y, 4).is_err());
    // happy path
    assert!(ws.execute_rows(&x, &[&f, &f], &mut y, 8).is_ok());
}
