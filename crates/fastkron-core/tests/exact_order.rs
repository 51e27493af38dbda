//! Exact-order check of the fused microkernel: every output must equal,
//! bit for bit, a scalar reference that computes `acc = x.mul_add(f, acc)`
//! over the factor rows `p = 0..P` from zero.
//!
//! The other kernel tests compare within a tolerance, and integer-valued
//! data sums exactly in any order, so neither can see a changed FMA order
//! or a tile that writes the wrong column. Here the data is non-integer,
//! so any other order or a stray write shows as a mismatch. The shapes
//! cover every column-width tail of both dtypes (`Q` = 1..=33), every
//! 8-slice tail (1..=17 slices), factor heights from 1 to 200, and the
//! seams between the SIMD tile and the plain one. Run it on a native
//! build (SIMD tile on every full block) and on a portable one,
//! `RUSTFLAGS="-C target-cpu=x86-64"`, where the plain tile does it all.

use fastkron_core::{sliced_multiply_rows_into, PackPanel, Workspace};
use kron_core::{Element, FactorShape, KronProblem, Matrix};

/// Factor heights: every `P` up to 9, powers of two and one past them, and
/// a tall factor.
const HEIGHTS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 200];

/// Deterministic non-integer values in `[-1, 1)`, seeded per matrix.
fn data<T: Element>(len: usize, seed: u64) -> Vec<T> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            T::from_f64((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        })
        .collect()
}

fn matrix<T: Element>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    Matrix::from_vec(rows, cols, data(rows * cols, seed)).expect("sized data")
}

/// The scalar reference for one sliced multiply of a `rows × k_in` matrix:
/// `out[r][q·S + s] = Σ_p x[r][s·P + p] · F[p][q]`, summed by `mul_add`
/// from zero in increasing `p`.
fn reference_step<T: Element>(x: &[T], rows: usize, k_in: usize, f: &Matrix<T>) -> Vec<T> {
    let (p, q) = (f.rows(), f.cols());
    let slices = k_in / p;
    let mut out = vec![T::ZERO; rows * slices * q];
    for r in 0..rows {
        for s in 0..slices {
            for c in 0..q {
                let mut acc = T::ZERO;
                for pi in 0..p {
                    acc = x[r * k_in + s * p + pi].mul_add(f[(pi, c)], acc);
                }
                out[r * slices * q + c * slices + s] = acc;
            }
        }
    }
    out
}

/// The reference chain: one reference step per factor, last factor first.
fn reference_chain<T: Element>(x: &Matrix<T>, factors: &[Matrix<T>]) -> Vec<T> {
    let mut cur = x.as_slice().to_vec();
    let mut k = x.cols();
    for f in factors.iter().rev() {
        cur = reference_step(&cur, x.rows(), k, f);
        k = k / f.rows() * f.cols();
    }
    cur
}

/// One factor step through `sliced_multiply_rows_into` on two rows of
/// `slices` slices each, on strided buffers whose padding must stay
/// untouched.
fn check_step<T: Element>(f: &Matrix<T>, slices: usize, seed: u64) {
    let (p, q) = (f.rows(), f.cols());
    let rows = 2;
    let sentinel = T::from_f64(7.5);
    let (k_in, k_out) = (slices * p, slices * q);
    let (x_stride, out_stride) = (k_in + 3, k_out + 5);
    let x: Vec<T> = data(rows * x_stride, seed);
    let mut out = vec![sentinel; rows * out_stride];
    sliced_multiply_rows_into(
        &x,
        x_stride,
        f,
        rows,
        k_in,
        &mut out,
        out_stride,
        &mut PackPanel::new(),
    )
    .expect("valid shapes");

    let dense: Vec<T> = (0..rows)
        .flat_map(|r| x[r * x_stride..r * x_stride + k_in].iter().copied())
        .collect();
    let want = reference_step(&dense, rows, k_in, f);
    for r in 0..rows {
        let got = &out[r * out_stride..(r + 1) * out_stride];
        assert!(
            got[..k_out] == want[r * k_out..(r + 1) * k_out],
            "{} P={p} Q={q} slices={slices} row {r}: not the reference FMA order",
            T::DTYPE,
        );
        assert!(
            got[k_out..].iter().all(|&v| v == sentinel),
            "{} P={p} Q={q} slices={slices} row {r}: wrote past the row",
            T::DTYPE,
        );
    }
}

/// Every height, every `Q` up to 33 and every slice count up to 17; then
/// the seams of the SIMD tile: Figure 9 factors (`P = Q` = 32, 64, 128)
/// and wide factors (`Q` = 40, 45, 48, 64) at slice counts on both sides
/// of the 8-slice block, so one call mixes SIMD blocks with the plain
/// tile's slice tail and, at `Q` = 45, its column remainder.
fn check_rows_into<T: Element>() {
    for (hi, &p) in HEIGHTS.iter().enumerate() {
        for q in 1..=33 {
            let f = matrix::<T>(p, q, (hi * 64 + q) as u64);
            for slices in 1..=17 {
                check_step(&f, slices, (p * 1000 + q * 20 + slices) as u64);
            }
        }
    }
    let fig9 = [32, 64, 128].map(|p| (p, p));
    let wide = [2, 8, 16]
        .into_iter()
        .flat_map(|p| [40, 45, 48, 64].map(|q| (p, q)));
    for (p, q) in fig9.into_iter().chain(wide) {
        let f = matrix::<T>(p, q, (p * 256 + q) as u64);
        for slices in [7, 8, 9, 16, 17, 24] {
            check_step(&f, slices, (p * 1000 + q * 30 + slices) as u64);
        }
    }
}

/// Two- and three-factor chains through a [`Workspace`] under every kind
/// of grid: `1 × 1`, row tiles (more tiles than rows at `(4, 1)`, which
/// clamps) and several slice groups. Under each, a full execute and the
/// serving entry point, `execute_rows` on 2 of the 3 rows, must match the
/// reference, and the latter must leave the third row of `Y` untouched.
fn check_chains<T: Element>() {
    let chains: [&[(usize, usize)]; 10] = [
        &[(16, 16), (8, 8)],
        &[(9, 17), (17, 9)],
        &[(33, 5), (3, 31)],
        &[(1, 33), (7, 2)],
        &[(200, 3), (2, 15)],
        &[(4, 4), (5, 6), (6, 5)],
        &[(2, 16), (17, 3), (3, 1)],
        &[(8, 9), (1, 7), (16, 16)],
        &[(8, 8), (8, 8), (8, 8)],
        &[(32, 32), (16, 45)],
    ];
    let partitions = [
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 1),
        (2, 2),
        (2, 3),
        (1, 4),
        (3, 2),
    ];
    let m = 3;
    let sentinel = T::from_f64(7.5);
    for (ci, shapes) in chains.iter().enumerate() {
        let problem = KronProblem::new(
            m,
            shapes
                .iter()
                .map(|&(p, q)| FactorShape::new(p, q))
                .collect(),
        )
        .expect("valid chain");
        let factors: Vec<Matrix<T>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(p, q))| matrix(p, q, (ci * 10 + i) as u64 + 500))
            .collect();
        let refs: Vec<&Matrix<T>> = factors.iter().collect();
        let x = matrix::<T>(m, problem.input_cols(), ci as u64 + 900);
        let want = reference_chain(&x, &factors);
        let l = problem.output_cols();
        for &partition in &partitions {
            let mut ws = Workspace::new(&problem);
            ws.set_partition(Some(partition));
            let y = ws.execute(&x, &refs).expect("valid operands");
            assert!(
                y.as_slice() == want.as_slice(),
                "{} {problem} partition {partition:?}: not the reference FMA order",
                T::DTYPE,
            );
            let mut part = Matrix::from_vec(m, l, vec![sentinel; m * l]).expect("sized data");
            ws.execute_rows(&x, &refs, &mut part, 2)
                .expect("valid operands");
            assert!(
                part.as_slice()[..2 * l] == want[..2 * l],
                "{} {problem} partition {partition:?}, 2 rows: not the reference FMA order",
                T::DTYPE,
            );
            assert!(
                part.row(2).iter().all(|&v| v == sentinel),
                "{} {problem} partition {partition:?}, 2 rows: wrote row 2",
                T::DTYPE,
            );
        }
    }
}

#[test]
fn rows_into_keeps_reference_fma_order_f32() {
    check_rows_into::<f32>();
}

#[test]
fn rows_into_keeps_reference_fma_order_f64() {
    check_rows_into::<f64>();
}

#[test]
fn chains_keep_reference_fma_order_f32() {
    check_chains::<f32>();
}

#[test]
fn chains_keep_reference_fma_order_f64() {
    check_chains::<f64>();
}
