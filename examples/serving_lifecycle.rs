//! Serving lifecycle: a capacity- and byte-bounded plan cache serving a
//! rotating model set of both dtypes through one erased runtime, with
//! pinning, idle eviction, deadlines, priorities (aged), and the adaptive
//! linger window — the admission-control layer on top of the batching
//! runtime.
//!
//! Run with `cargo run --release --example serving_lifecycle`.

use fastkron::prelude::*;
use kron_runtime::Model;

fn factors_for(shapes: &[(usize, usize)], seed: usize) -> Vec<Matrix<f32>> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| {
            Matrix::from_fn(p, q, |r, c| ((seed + 5 * i + r * q + c) % 11) as f32 - 5.0)
        })
        .collect()
}

fn main() {
    // A bounded (dtype-erased) runtime over the simulated 4-GPU machine:
    // at most TWO resident plan-cache entries (each `Distributed` entry
    // holds every simulated device's blocks, so the bound is also a
    // memory bound), at most 64 MiB of accounted execution state
    // (workspace + staging + engine blocks, across every dtype served),
    // entries idle > 50 ms age out, and the linger window adapts to load
    // under a 200 us cap.
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 128,
        batch_max_m: 16,
        batch_linger_us: 200,
        adaptive_linger: true,
        cache: CachePolicy {
            max_entries: 2,
            max_idle_us: Some(50_000),
            max_bytes: Some(64 << 20),
        },
        backend: Backend::Distributed { gpus: 4, p2p: true },
        ..RuntimeConfig::default()
    });

    // Four distinct model shapes — twice the cache capacity, so serving
    // the full rotation must evict and rebuild.
    let model_shapes: &[&[(usize, usize)]] = &[
        &[(4, 4), (4, 4)],
        &[(8, 8), (8, 8)],
        &[(4, 4), (4, 4), (4, 4)],
        &[(16, 16), (16, 16)],
    ];
    let factor_sets: Vec<Vec<Matrix<f32>>> = model_shapes
        .iter()
        .enumerate()
        .map(|(i, s)| factors_for(s, 3 * i + 1))
        .collect();
    let models: Vec<Model<f32>> = factor_sets
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).expect("valid model"))
        .collect();

    // Pin the hot model: model 0 stays resident (and pre-warmed) however
    // hard the rotation churns the other entries.
    let _pin = runtime.pin_model(&models[0]).expect("pin hot model");

    // The runtime is dtype-erased: an f64 model joins the same rotation,
    // competing for the same two cache slots and the same byte budget as
    // the f32 models.
    let f64_factors: Vec<Matrix<f64>> = (0..2)
        .map(|i| Matrix::from_fn(4, 4, |r, c| ((7 + 5 * i + r * 4 + c) % 11) as f64 - 5.0))
        .collect();
    let model_f64 = runtime.load_model(f64_factors).expect("valid f64 model");

    // Rotate traffic across all five shapes (four f32 + one f64). The
    // cache can hold only two entries, so the unpinned models churn
    // (evict + rebuild) while model 0 rides its pin; the entry count and
    // the accounted bytes stay bounded throughout.
    for round in 0..3 {
        for (i, model) in models.iter().enumerate() {
            let m = 2 + (round + i) % 6;
            let x = Matrix::<f32>::from_fn(m, model.input_cols(), |r, c| {
                ((round + i + r + c) % 7) as f32 - 3.0
            });
            let y = runtime
                .submit_with(
                    model,
                    x,
                    SubmitOptions::priority(if i == 0 { 5 } else { 1 })
                        .with_deadline_us(runtime.now_us() + 5_000_000),
                )
                .expect("submit")
                .wait()
                .expect("timely request");
            assert_eq!(y.cols(), model.output_cols());
        }
        let x = Matrix::<f64>::from_fn(2, model_f64.input_cols(), |r, c| {
            ((round + r + 2 * c) % 9) as f64 - 4.0
        });
        let y = runtime.execute(&model_f64, x).expect("f64 request");
        assert_eq!(y.cols(), model_f64.output_cols());
        let s = runtime.stats();
        println!(
            "round {round}: entries={} (~{} KiB) evictions={} rebuilds={} hits/misses={}/{}",
            s.cached_entries,
            s.cached_bytes / 1024,
            s.evictions,
            s.rebuilds,
            s.plan_hits,
            s.plan_misses,
        );
    }

    // Deadline admission: a request whose deadline is already in the
    // past is shed before any execute — the error names both times.
    let late = runtime
        .submit_with(
            &models[0],
            Matrix::<f32>::from_fn(2, models[0].input_cols(), |r, c| (r + c) as f32),
            SubmitOptions::default().with_deadline_us(runtime.now_us().saturating_sub(1)),
        )
        .expect("accepted at submit; shed at scheduling")
        .wait();
    println!("expired-deadline request: {late:?}");

    let s = runtime.stats();
    println!(
        "\ntotals: served={} (f32={}, f64={}) batched={} solo={} deadline_shed={} \
         evictions={} rebuilds={} linger_now={}us",
        s.served,
        s.requests_f32,
        s.requests_f64,
        s.batched_requests,
        s.solo_requests,
        s.deadline_shed,
        s.evictions,
        s.rebuilds,
        s.current_linger_us,
    );

    drop(_pin);
    runtime.shutdown();
}
