//! Ablation: shift vs direct caching — simulated kernel time and
//! bank-conflict factors, plus the wall-clock cost of the traced
//! emulation itself.

use criterion::{criterion_group, criterion_main, Criterion};
use fastkron_core::kernel::SlicedMultiplyKernel;
use fastkron_core::{Caching, TileConfig};
use gpu_sim::device::V100;
use gpu_sim::trace::Tracer;
use kron_core::Matrix;
use std::hint::black_box;

fn bench_caching(c: &mut Criterion) {
    let f = Matrix::<f32>::from_fn(8, 8, |r, q| ((r * 8 + q) % 5) as f32);
    let mut group = c.benchmark_group("caching_trace");
    group.sample_size(10);
    for caching in [Caching::Shift, Caching::Direct] {
        let cfg = TileConfig {
            tm: 1,
            tk: 2048,
            tq: 8,
            tp: 8,
            rk: 4,
            rq: 2,
            rp: 2,
            caching,
        };
        let kern = SlicedMultiplyKernel::new(cfg, 1, 2048, &[&f]).unwrap();
        let name = format!("{caching:?}");
        group.bench_function(&name, |b| {
            b.iter(|| {
                let mut tracer = Tracer::new(&V100);
                black_box(kern.trace_block(&mut tracer))
            })
        });
        // Print the conflict factor once per scheme for the report.
        let mut tracer = Tracer::new(&V100);
        let stats = kern.trace_block(&mut tracer);
        eprintln!(
            "[caching ablation] {caching:?}: {} load transactions (conflict factor {:.2})",
            stats.smem_load_transactions,
            stats.bank_conflict_factor()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_caching);
criterion_main!(benches);
