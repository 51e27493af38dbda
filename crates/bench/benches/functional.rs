//! Criterion wall-clock benches of the functional engines (CPU):
//! FastKron's sliced multiply vs shuffle vs FTMMT vs naive on moderate
//! sizes. These measure this library's real compute paths, complementing
//! the simulated-GPU figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastkron_core::kron_matmul_fused;
use kron_core::ftmmt::kron_matmul_ftmmt;
use kron_core::naive::kron_matmul_naive;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::Matrix;
use std::hint::black_box;

fn inputs(m: usize, p: usize, n: usize) -> (Matrix<f32>, Vec<Matrix<f32>>) {
    let k = p.pow(n as u32);
    let x = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 17) as f32 - 8.0);
    let fs = (0..n)
        .map(|i| Matrix::from_fn(p, p, |r, c| ((i * 5 + r * p + c) % 13) as f32 - 6.0))
        .collect();
    (x, fs)
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("kron_matmul_functional");
    group.sample_size(10);
    for &(m, p, n) in &[(64usize, 8usize, 4usize), (16, 16, 3), (256, 4, 5)] {
        let (x, fs) = inputs(m, p, n);
        let refs: Vec<&Matrix<f32>> = fs.iter().collect();
        let label = format!("M{m}_P{p}_N{n}");
        group.bench_with_input(BenchmarkId::new("fastkron", &label), &(), |b, ()| {
            b.iter(|| kron_matmul_fused(black_box(&x), black_box(&refs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("shuffle", &label), &(), |b, ()| {
            b.iter(|| kron_matmul_shuffle(black_box(&x), black_box(&refs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ftmmt", &label), &(), |b, ()| {
            b.iter(|| kron_matmul_ftmmt(black_box(&x), black_box(&refs)).unwrap())
        });
    }
    // The naive engine only at a tiny size (it is O(M*K*Q)).
    let (x, fs) = inputs(8, 4, 3);
    let refs: Vec<&Matrix<f32>> = fs.iter().collect();
    group.bench_function("naive/M8_P4_N3", |b| {
        b.iter(|| kron_matmul_naive(black_box(&x), black_box(&refs)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
