//! Ablation: autotuned vs minimal tile configuration, and the tuner's own
//! wall-clock cost per shape (§6.1).

use criterion::{criterion_group, criterion_main, Criterion};
use fastkron_core::tuner::{estimate_stats, AutoTuner};
use fastkron_core::TileConfig;
use gpu_sim::cost::CostModel;
use gpu_sim::device::V100;
use kron_core::DType;
use std::hint::black_box;

fn bench_tuning(c: &mut Criterion) {
    let tuner = AutoTuner::new(&V100);
    let cost = CostModel::new(&V100);
    let mut group = c.benchmark_group("autotuner");
    group.sample_size(10);
    for &(m, p, n) in &[(1024usize, 8usize, 5usize), (16, 64, 3), (1024, 32, 3)] {
        let k = p.pow(n as u32);
        group.bench_function(format!("tune_M{m}_P{p}_N{n}"), |b| {
            b.iter(|| black_box(tuner.tune(m, k, p, p, DType::F32).unwrap()))
        });
        let tuned = tuner.tune(m, k, p, p, DType::F32).unwrap();
        let minimal = TileConfig::minimal(m, k, p, p);
        let stats = estimate_stats(&minimal, &V100, m, k, p, p, DType::F32, 1);
        let t_min = cost
            .kernel_time(
                &minimal.launch(m, k, p, p, false, DType::F32),
                &stats,
                DType::F32,
            )
            .unwrap()
            .total_s;
        eprintln!(
            "[tuning ablation] M{m} {p}^{n}: tuned {:.3} ms vs minimal {:.3} ms ({:.1}x) over {} scored configs",
            tuned.est_seconds * 1e3,
            t_min * 1e3,
            t_min / tuned.est_seconds,
            tuned.report.scored
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tuning);
criterion_main!(benches);
