//! Ablation: grouped (Nlocal) communication vs per-iteration exchanges,
//! and wall-clock of the functional distributed execution, whose
//! simulated devices step in lockstep on the caller's thread.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::device::V100;
use kron_core::{KronProblem, Matrix};
use kron_dist::{DistFastKron, DistalEngine};
use std::hint::black_box;

fn bench_distributed(c: &mut Criterion) {
    // Simulated: communication volumes.
    let problem = KronProblem::uniform(64, 16, 4).unwrap();
    let fk = DistFastKron::new(&V100, 16).unwrap();
    let distal = DistalEngine::new(&V100, 16).unwrap();
    let v_grouped = fk.simulate::<f32>(&problem).unwrap().comm_bytes;
    let v_periter = distal.simulate::<f32>(&problem).unwrap().comm_bytes;
    eprintln!(
        "[distributed ablation] comm bytes: grouped {v_grouped} vs per-iteration {v_periter} ({:.2}x less)",
        v_periter as f64 / v_grouped as f64
    );

    // Functional: every device's local steps and exchanges, end to end.
    let mut group = c.benchmark_group("distributed_functional");
    group.sample_size(10);
    for gpus in [1usize, 4, 16] {
        let x = Matrix::<f32>::from_fn(16, 4096, |r, c| ((r * 7 + c) % 11) as f32 - 5.0);
        let fs: Vec<Matrix<f32>> = (0..4)
            .map(|i| Matrix::from_fn(8, 8, |r, q| ((i + r * 8 + q) % 9) as f32 - 4.0))
            .collect();
        let refs: Vec<&Matrix<f32>> = fs.iter().collect();
        let engine = DistFastKron::new(&V100, gpus).unwrap();
        group.bench_function(format!("execute_8e4_{gpus}gpus"), |b| {
            b.iter(|| black_box(engine.execute(&x, &refs).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distributed);
criterion_main!(benches);
