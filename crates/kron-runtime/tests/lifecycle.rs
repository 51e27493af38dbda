//! Plan-cache lifecycle contract, made deterministic by the manual
//! clock: LRU eviction order under a bounded cache, idle-timeout
//! eviction, sharded entries releasing their bytes on eviction,
//! pinned-entry survival, re-warm after eviction, and single-device
//! entries that build on any device model — with every served result
//! still checked against the shuffle oracle, so a rebuilt engine is
//! proven correct, not just present.

use gpu_sim::device::V100;
use kron_core::naive::kron_matmul_naive;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, Element, Matrix};
use kron_runtime::{
    Backend, CachePolicy, Clock, ManualClock, Model, Runtime, RuntimeConfig, ServeElement,
};
use std::sync::Arc;

/// An integer-valued matrix of either dtype, so every path is exact.
fn seq_matrix<T: Element>(rows: usize, cols: usize, start: usize) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |r, c| {
        T::from_f64(((start + 7 * r * cols + 3 * c) % 19) as f64 - 9.0)
    })
}

fn model_factors(shapes: &[(usize, usize)], seed: usize) -> Vec<Matrix<f64>> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| seq_matrix(p, q, seed + 5 * i + 1))
        .collect()
}

fn oracle(x: &Matrix<f64>, factors: &[Matrix<f64>]) -> Matrix<f64> {
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    kron_matmul_shuffle(x, &refs).unwrap()
}

/// Serves one small request against `model` and checks it against the
/// oracle — the standard "touch this model's cache entry" move.
fn serve_checked(runtime: &Runtime, model: &Model<f64>, factors: &[Matrix<f64>], tag: &str) {
    let x = seq_matrix(2, model.input_cols(), 3);
    let expected = oracle(&x, factors);
    let y = runtime.execute(model, x).unwrap();
    assert_matrices_close(&y, &expected, tag);
}

#[test]
fn lru_eviction_order_under_a_capacity_2_cache() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        cache: CachePolicy {
            max_entries: 2,
            max_idle_us: None,
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    // Three distinct shape chains → three distinct cache keys.
    let fa = model_factors(&[(2, 2), (2, 2)], 1);
    let fb = model_factors(&[(3, 3)], 2);
    let fc = model_factors(&[(4, 4)], 3);
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();
    let c = runtime.load_model(fc.clone()).unwrap();

    serve_checked(&runtime, &a, &fa, "warm A");
    serve_checked(&runtime, &b, &fb, "warm B");
    let stats = runtime.stats();
    assert_eq!(stats.cached_entries, 2, "stats: {stats:?}");
    assert_eq!(stats.evictions, 0, "stats: {stats:?}");
    assert_eq!(runtime.cached_entries(), 2);

    // C must evict the least-recently-used entry: A.
    serve_checked(&runtime, &c, &fc, "C evicts A");
    let stats = runtime.stats();
    assert_eq!(stats.cached_entries, 2, "stats: {stats:?}");
    assert_eq!(stats.evictions, 1, "stats: {stats:?}");

    // B survived (cache hit, no new plan) — if the eviction picked the
    // wrong victim, this would be a miss.
    let misses_before = runtime.stats().plan_misses;
    serve_checked(&runtime, &b, &fb, "B survived as MRU");
    assert_eq!(runtime.stats().plan_misses, misses_before);

    // Re-warm after eviction: A rebuilds (counted), evicting today's LRU
    // (C), and still serves bit-correct results.
    serve_checked(&runtime, &a, &fa, "A re-warms");
    let stats = runtime.stats();
    assert_eq!(stats.rebuilds, 1, "stats: {stats:?}");
    assert_eq!(stats.evictions, 2, "stats: {stats:?}");
    assert_eq!(stats.cached_entries, 2, "stats: {stats:?}");
    // And the victim really was C, not B.
    let misses_before = runtime.stats().plan_misses;
    serve_checked(&runtime, &b, &fb, "B still resident");
    assert_eq!(runtime.stats().plan_misses, misses_before);
}

#[test]
fn idle_timeout_eviction_via_the_test_clock() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        clock,
        cache: CachePolicy {
            max_entries: usize::MAX,
            max_idle_us: Some(1_000),
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    let fa = model_factors(&[(2, 2), (2, 2)], 1);
    let fb = model_factors(&[(3, 3)], 2);
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();

    // A used at t=0; B at t=500.
    serve_checked(&runtime, &a, &fa, "A at t=0");
    time.advance_us(500);
    serve_checked(&runtime, &b, &fb, "B at t=500");
    assert_eq!(runtime.cached_entries(), 2);

    // t=1600: A is 1600us idle (> 1000), B only 1100... also expired.
    // First check the boundary: at t=1400, A (1400) is out, B (900) is
    // not.
    time.advance_us(900);
    assert_eq!(runtime.sweep(), 1, "exactly A expires at t=1400");
    let stats = runtime.stats();
    assert_eq!(stats.evictions, 1, "stats: {stats:?}");
    assert_eq!(stats.cached_entries, 1, "stats: {stats:?}");

    // A sweep with nothing expired is a no-op.
    assert_eq!(runtime.sweep(), 0);

    // The scheduler also sweeps on its own cycle boundary: advance far
    // past B's timeout and serve A — B's entry goes without an explicit
    // sweep() call, while A rebuilds and serves correctly.
    time.advance_us(10_000);
    serve_checked(&runtime, &a, &fa, "A re-warms after idle eviction");
    let stats = runtime.stats();
    assert_eq!(stats.evictions, 2, "stats: {stats:?}");
    assert_eq!(stats.rebuilds, 1, "stats: {stats:?}");
    assert_eq!(stats.cached_entries, 1, "only A remains: {stats:?}");
}

#[test]
fn eviction_releases_evicted_entry_bytes() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        cache: CachePolicy {
            max_entries: 1,
            max_idle_us: None,
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    // Both shardable over the {2,2} grid.
    let fa = model_factors(&[(4, 4), (4, 4)], 1);
    let fb = model_factors(&[(8, 8), (8, 8)], 2);
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();

    serve_checked(&runtime, &a, &fa, "sharded A");
    let bytes_a = runtime.cached_bytes();

    // Serving B evicts A under the capacity-1 bound.
    serve_checked(&runtime, &b, &fb, "sharded B evicts A");
    let stats = runtime.stats();
    assert_eq!(stats.evictions, 1, "stats: {stats:?}");
    assert_eq!(stats.cached_entries, 1, "stats: {stats:?}");

    // A full rotation back: rebuild works, and the ledger holds exactly
    // A's bytes again, so neither eviction leaked its entry's bytes.
    serve_checked(&runtime, &a, &fa, "sharded A re-warms");
    assert_eq!(runtime.cached_bytes(), bytes_a);
    assert_eq!(runtime.stats().rebuilds, 1);
    runtime.shutdown();
}

#[test]
fn capacity_bound_holds_while_serving_more_shapes_than_entries() {
    const MAX_ENTRIES: usize = 2;
    const GPUS: usize = 4;
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        backend: Backend::Distributed {
            gpus: GPUS,
            p2p: false,
        },
        cache: CachePolicy {
            max_entries: MAX_ENTRIES,
            max_idle_us: None,
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    // N > capacity distinct shardable shapes, rotated twice.
    let factor_sets: Vec<Vec<Matrix<f64>>> = vec![
        model_factors(&[(4, 4), (4, 4)], 1),
        model_factors(&[(8, 8), (8, 8)], 2),
        model_factors(&[(4, 4), (4, 4), (4, 4)], 3),
        model_factors(&[(2, 2), (2, 2), (2, 2), (2, 2)], 4),
    ];
    let models: Vec<Model<f64>> = factor_sets
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).unwrap())
        .collect();

    for round in 0..2 {
        for (i, model) in models.iter().enumerate() {
            serve_checked(
                &runtime,
                model,
                &factor_sets[i],
                &format!("round {round} model {i}"),
            );
            // The lifecycle acceptance bound: live engines never exceed
            // max_entries.
            assert!(runtime.cached_entries() <= MAX_ENTRIES);
        }
    }
    let stats = runtime.stats();
    // 4 shapes through a 2-entry cache, twice: every visit after warmup
    // evicts and (from round 2) rebuilds.
    assert!(stats.evictions >= 6, "stats: {stats:?}");
    assert!(stats.rebuilds >= 4, "stats: {stats:?}");
    runtime.shutdown();
}

#[test]
fn pinned_entry_survives_eviction_pressure_until_released() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        cache: CachePolicy {
            max_entries: 1,
            max_idle_us: None,
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    let fa = model_factors(&[(4, 4), (4, 4)], 1);
    let fb = model_factors(&[(8, 8), (8, 8)], 2);
    let fc = model_factors(&[(4, 4), (4, 4), (4, 4)], 3);
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();
    let c = runtime.load_model(fc.clone()).unwrap();

    // Pin A: builds (and pre-warms) its sharded engine.
    let pin = runtime.pin_model(&a).unwrap();
    assert_eq!(runtime.cached_entries(), 1);
    let misses_after_pin = runtime.stats().plan_misses;

    // Rotate other shapes through the capacity-1 cache. The pinned entry
    // is exempt: the cache overflows to 2 (pin override) but A is never
    // the victim.
    serve_checked(&runtime, &b, &fb, "B under pin");
    serve_checked(&runtime, &c, &fc, "C under pin");
    serve_checked(&runtime, &b, &fb, "B again under pin");
    let stats = runtime.stats();
    assert!(stats.evictions >= 2, "unpinned shapes churn: {stats:?}");

    // A's entry is still the pinned original: serving it is a pure hit.
    let hits_before = runtime.stats().plan_hits;
    serve_checked(&runtime, &a, &fa, "pinned A still warm");
    let stats = runtime.stats();
    assert_eq!(stats.plan_hits, hits_before + 1, "stats: {stats:?}");
    assert_eq!(
        stats.plan_misses - misses_after_pin,
        3,
        "only B, C, B rebuilt"
    );

    // Release the pin: A becomes evictable again and the bound recovers.
    drop(pin);
    serve_checked(&runtime, &b, &fb, "B after unpin");
    serve_checked(&runtime, &c, &fc, "C after unpin evicts A or B");
    assert!(runtime.cached_entries() <= 2);
    let evictions_after_unpin = runtime.stats().evictions;
    assert!(evictions_after_unpin >= 4, "stats: {:?}", runtime.stats());
    runtime.shutdown();
}

#[test]
fn byte_budget_bounds_resident_bytes_across_dtypes() {
    // A budget sized for one f64 entry: rotating same-shape f64 and f32
    // models through it must evict across the dtype boundary (the ledger
    // is global), keep the gauge within budget, and keep serving
    // bit-correct results.
    let shapes: &[(usize, usize)] = &[(4, 4), (4, 4)];
    let fa = model_factors(shapes, 1);
    let f32_factors: Vec<Matrix<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| Matrix::from_fn(p, q, |r, c| ((i * 5 + r * q + c) % 11) as f32 - 5.0))
        .collect();

    // Probe the f64 entry's accounted footprint with an unbounded twin.
    let probe = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        ..RuntimeConfig::default()
    });
    let pa = probe.load_model(fa.clone()).unwrap();
    serve_checked(&probe, &pa, &fa, "probe A");
    let budget = probe.cached_bytes();
    assert!(budget > 0, "an entry must account nonzero bytes");
    probe.shutdown();

    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        cache: CachePolicy {
            max_entries: usize::MAX,
            max_idle_us: None,
            max_bytes: Some(budget),
        },
        ..RuntimeConfig::default()
    });
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(f32_factors.clone()).unwrap();
    serve_checked(&runtime, &a, &fa, "A under budget");
    assert_eq!(runtime.cached_entries(), 1);
    assert!(runtime.cached_bytes() <= budget);

    // The same-shape f32 entry is half the bytes, but the budget cannot
    // hold both: serving B must evict A (cross-dtype eviction).
    let refs32: Vec<&Matrix<f32>> = f32_factors.iter().collect();
    let x32 = Matrix::<f32>::from_fn(2, b.input_cols(), |r, c| ((r + c) % 7) as f32 - 3.0);
    let expected = kron_core::shuffle::kron_matmul_shuffle(&x32, &refs32).unwrap();
    let y32 = runtime.execute(&b, x32).unwrap();
    assert_matrices_close(&y32, &expected, "f32 B evicts f64 A");
    let stats = runtime.stats();
    assert_eq!(stats.evictions, 1, "stats: {stats:?}");
    assert_eq!(stats.cached_entries, 1, "stats: {stats:?}");
    assert!(stats.cached_bytes as usize <= budget, "stats: {stats:?}");
    assert_eq!(
        stats.cached_bytes as usize,
        runtime.cached_bytes(),
        "gauge and probe agree"
    );

    // A comes back (rebuild counted), evicting B in turn — and still
    // serves bit-correct results through the rebuilt entry.
    serve_checked(&runtime, &a, &fa, "A re-warms under the byte budget");
    let stats = runtime.stats();
    assert_eq!(stats.rebuilds, 1, "stats: {stats:?}");
    assert_eq!(stats.evictions, 2, "stats: {stats:?}");
    assert!(stats.cached_bytes as usize <= budget, "stats: {stats:?}");
}

#[test]
fn unshardable_model_budget_admits_at_the_local_fallback_footprint() {
    // A rectangular chain the grid cannot shard is served through the
    // documented local fallback — so the byte-budget admission check must
    // size it as the local entry it will actually build, not as the
    // (larger) sharded entry it never will. A budget that exactly fits
    // the local footprint must admit and serve the model.
    let f = model_factors(&[(2, 3), (3, 2)], 5);

    // Probe the local footprint with an unbounded single-node twin (the
    // fallback builds the identical entry shape).
    let probe = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        ..RuntimeConfig::default()
    });
    let pm = probe.load_model(f.clone()).unwrap();
    serve_checked(&probe, &pm, &f, "probe rect");
    let local_budget = probe.cached_bytes();
    probe.shutdown();

    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        cache: CachePolicy {
            max_entries: usize::MAX,
            max_idle_us: None,
            max_bytes: Some(local_budget),
        },
        ..RuntimeConfig::default()
    });
    let model = runtime.load_model(f.clone()).unwrap();
    serve_checked(
        &runtime,
        &model,
        &f,
        "rect model under a local-sized budget",
    );
    let stats = runtime.stats();
    assert!(stats.local_fallbacks >= 1, "stats: {stats:?}");
    assert!(
        stats.cached_bytes as usize <= local_budget,
        "stats: {stats:?}"
    );
}

#[test]
fn oversized_entry_fails_with_cache_budget_exceeded() {
    // A budget smaller than any entry: every request for the model fails
    // with the documented error instead of silently blowing the bound —
    // and the runtime keeps serving once the caller picks a model that
    // fits... which none does here, so everything fails cleanly.
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        cache: CachePolicy {
            max_entries: usize::MAX,
            max_idle_us: None,
            max_bytes: Some(16),
        },
        ..RuntimeConfig::default()
    });
    let fa = model_factors(&[(4, 4), (4, 4)], 1);
    let a = runtime.load_model(fa.clone()).unwrap();
    let x = seq_matrix(2, a.input_cols(), 3);
    match runtime.execute(&a, x) {
        Err(kron_core::KronError::CacheBudgetExceeded {
            required_bytes,
            max_bytes,
        }) => {
            assert!(required_bytes > max_bytes);
            assert_eq!(max_bytes, 16);
        }
        other => panic!("expected CacheBudgetExceeded, got {other:?}"),
    }
    assert_eq!(runtime.cached_entries(), 0, "nothing was built");
    assert_eq!(runtime.cached_bytes(), 0);
    // Pinning an oversized model reports the same error.
    match runtime.pin_model(&a).map(|_| ()) {
        Err(kron_core::KronError::CacheBudgetExceeded { .. }) => {}
        other => panic!("expected CacheBudgetExceeded from pin, got {other:?}"),
    }
}

#[test]
fn cache_keys_reflect_residency() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        cache: CachePolicy {
            max_entries: 2,
            max_idle_us: None,
            max_bytes: None,
        },
        ..RuntimeConfig::default()
    });
    let fa = model_factors(&[(2, 2), (2, 2)], 1);
    let a = runtime.load_model(fa.clone()).unwrap();
    assert!(runtime.cache_keys().is_empty());
    serve_checked(&runtime, &a, &fa, "warm A");
    let keys = runtime.cache_keys();
    assert_eq!(keys.len(), 1);
    // The batch-capacity entry for A's shape chain: M = max_batch_rows,
    // K = 4.
    assert_eq!(keys[0].problem.m, 16);
    assert_eq!(keys[0].problem.input_cols(), 4);
}

/// Pumps virtual time forward until the runtime has served `target`
/// requests (the fixed linger window closes only as time passes).
fn pump_until_served(runtime: &Runtime, time: &Arc<ManualClock>, target: u64) {
    while runtime.stats().served < target {
        time.advance_us(50_000);
        std::thread::yield_now();
    }
}

/// Serves `T` traffic on a single-node runtime whose device model has one
/// byte of shared memory, so no GPU-sim tile configuration fits it.
fn serve_on_a_device_no_tile_fits<T: ServeElement>() {
    let mut device = V100.clone();
    device.shared_mem_per_block = 1;
    device.shared_mem_per_sm = 1;
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        device,
        // A fixed linger holds the first window open until the test
        // advances the manual clock, so the requests below share it.
        batch_linger_us: 10_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let fa: Vec<Matrix<T>> = (0..2).map(|i| seq_matrix(4, 4, 5 * i + 1)).collect();
    let fb: Vec<Matrix<T>> = (0..3).map(|i| seq_matrix(2, 2, 5 * i + 2)).collect();
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();
    let naive = |x: &Matrix<T>, factors: &[Matrix<T>]| {
        let refs: Vec<&Matrix<T>> = factors.iter().collect();
        kron_matmul_naive(x, &refs).unwrap()
    };
    let tag = format!("{:?}", T::DTYPE);

    // Scheduler lane: A's entry is cold, so every request crosses the
    // scheduler — three small ones batch, one larger than `batch_max_m`
    // serves solo from its own power-of-two capacity entry.
    time.set_us(1_000);
    let xs: Vec<Matrix<T>> = [2, 2, 2, 40]
        .iter()
        .enumerate()
        .map(|(i, &m)| seq_matrix(m, a.input_cols(), 10 + i))
        .collect();
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| runtime.submit(&a, x.clone()).unwrap())
        .collect();
    pump_until_served(&runtime, &time, 4);
    for (i, (ticket, x)) in tickets.into_iter().zip(&xs).enumerate() {
        let y = ticket.wait().unwrap();
        assert_eq!(y, naive(x, &fa), "{tag} scheduler request {i}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.batched_requests, 3, "{tag} stats: {stats:?}");
    assert_eq!(stats.solo_requests, 1, "{tag} stats: {stats:?}");

    // Bypass lane: the runtime is idle and A's entry warm, so the request
    // serves inline at submit.
    let x = seq_matrix(2, a.input_cols(), 30);
    let ticket = runtime.submit(&a, x.clone()).unwrap();
    pump_until_served(&runtime, &time, 5);
    assert_eq!(
        ticket.wait().unwrap(),
        naive(&x, &fa),
        "{tag} bypassed request"
    );
    assert_eq!(runtime.stats().bypassed_requests, 1, "{tag} served inline");

    // `pin_model` builds B's cold entry; B then serves from it with no
    // further miss.
    let pin = runtime.pin_model(&b).unwrap();
    let misses = runtime.stats().plan_misses;
    let x = seq_matrix(3, b.input_cols(), 40);
    let ticket = runtime.submit(&b, x.clone()).unwrap();
    pump_until_served(&runtime, &time, 6);
    assert_eq!(ticket.wait().unwrap(), naive(&x, &fb), "{tag} pinned model");
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, misses, "{tag} stats: {stats:?}");
    assert_eq!(stats.error_replies, 0, "{tag} stats: {stats:?}");
    drop(pin);
    runtime.shutdown();
}

/// A device model no GPU-sim tile configuration fits (the one
/// `AutoTuner` rejects) still serves on the single-node backend: a local
/// entry is a workspace sized from the problem shape, and the device
/// never enters its build. Covers both dtypes, the batched and solo
/// scheduler paths, the inline bypass lane and `pin_model`, each exact
/// against the naive oracle.
#[test]
fn single_node_serves_on_a_device_no_tile_config_fits() {
    serve_on_a_device_no_tile_fits::<f32>();
    serve_on_a_device_no_tile_fits::<f64>();
}
