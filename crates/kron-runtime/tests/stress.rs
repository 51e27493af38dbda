//! Concurrent-serving stress tests: many client threads, mixed shapes and
//! sizes, every result checked against the shuffle oracle; plus
//! shutdown-while-busy and post-shutdown behavior.

use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, KronError, Matrix};
use kron_runtime::{Backend, Clock, Model, ModelPin, Runtime, RuntimeConfig, Session, Ticket};
use std::sync::Arc;

fn dist_config() -> RuntimeConfig {
    RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        ..RuntimeConfig::default()
    }
}

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 7 * r * cols + 3 * c) % 19) as f64 - 9.0
    })
}

fn model_factors(shapes: &[(usize, usize)], seed: usize) -> Vec<Matrix<f64>> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| seq_matrix(p, q, seed + 5 * i + 1))
        .collect()
}

/// Oracle for one request against a model's factors.
fn oracle(x: &Matrix<f64>, factors: &[Matrix<f64>]) -> Matrix<f64> {
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    kron_matmul_shuffle(x, &refs).unwrap()
}

#[test]
fn mixed_shape_concurrent_serving_matches_oracle() {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    }));

    // Three models with deliberately different shapes, including a
    // rectangular chain.
    let model_shapes: Vec<Vec<(usize, usize)>> = vec![
        vec![(4, 4), (4, 4)],
        vec![(8, 8), (8, 8)],
        vec![(2, 3), (5, 2), (3, 4)],
    ];
    let factor_sets: Vec<Vec<Matrix<f64>>> = model_shapes
        .iter()
        .enumerate()
        .map(|(i, s)| model_factors(s, 11 * i + 1))
        .collect();
    let models: Vec<Model<f64>> = factor_sets
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).unwrap())
        .collect();
    let factor_sets = Arc::new(factor_sets);
    let models = Arc::new(models);

    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 40;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let runtime = Arc::clone(&runtime);
        let models = Arc::clone(&models);
        let factor_sets = Arc::clone(&factor_sets);
        handles.push(std::thread::spawn(move || {
            for i in 0..REQUESTS_PER_THREAD {
                let which = (t + i) % models.len();
                let model = &models[which];
                // Mix of batchable (m ≤ 16) and solo (m > 16) sizes.
                let m = 1 + (t * 7 + i * 3) % 24;
                let x = seq_matrix(m, model.input_cols(), t * 100 + i);
                let expected = oracle(&x, &factor_sets[which]);
                let y = runtime.execute(model, x).unwrap();
                assert_matrices_close(&y, &expected, &format!("thread {t} req {i}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = runtime.stats();
    assert_eq!(stats.submitted, (THREADS * REQUESTS_PER_THREAD) as u64);
    assert_eq!(stats.served, stats.submitted);
    assert_eq!(
        stats.batched_requests + stats.solo_requests + stats.bypassed_requests,
        stats.served
    );
    // Plans must have been reused heavily: at most one batch entry plus a
    // few power-of-two solo entries per model.
    assert!(
        stats.plan_misses <= (3 * model_shapes.len()) as u64,
        "too many plan misses: {}",
        stats.plan_misses
    );
    assert!(stats.plan_hits > stats.plan_misses);
}

#[test]
fn pipelined_tickets_batch_and_match_oracle() {
    // Time-virtualized batching: a manual clock plus a fixed linger
    // window means the scheduler's batch window stays open until *we*
    // advance virtual time — so "the burst coalesces" is a guaranteed
    // property of this test, not a race against how fast the scheduler
    // thread wakes (the old flake surface: on a loaded host the
    // scheduler could serve requests in lockstep singles and the
    // batched_requests assertion went probabilistic).
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        batch_linger_us: 1_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4), (4, 4)], 3);
    let model = runtime.load_model(factors.clone()).unwrap();

    // Submit the whole burst before time moves: every request lands in
    // one scheduling window.
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for i in 0..96 {
        let m = 1 + i % 4;
        let x = seq_matrix(m, model.input_cols(), i);
        expected.push(oracle(&x, &factors));
        tickets.push(runtime.submit(&model, x).unwrap());
    }
    // Close the window: the scheduler drains the whole channel before
    // re-checking its (virtual) linger deadline, then serves everything
    // as row-budgeted chunks. Pump in steps in case the window opened
    // after an earlier advance.
    while runtime.stats().served < 96 {
        time.advance_us(10_000);
        std::thread::yield_now();
    }
    for (i, (t, e)) in tickets.into_iter().zip(expected.iter()).enumerate() {
        let y = t.wait().unwrap();
        assert_matrices_close(&y, e, &format!("ticket {i}"));
    }

    let stats = runtime.stats();
    assert_eq!(stats.served, 96);
    // Everything batchable coalesced (a row-budget tail chunk of one is
    // served solo, so allow a sliver), across several row-budgeted
    // fused executes.
    assert!(
        stats.batched_requests >= 90,
        "the held window must coalesce the burst, stats: {stats:?}"
    );
    assert!(stats.batches >= 6, "240 rows over 32-row chunks: {stats:?}");
}

#[test]
fn shutdown_while_busy_serves_everything_accepted() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(8, 8), (8, 8)], 7);
    let model = runtime.load_model(factors.clone()).unwrap();

    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for i in 0..64 {
        let m = 1 + i % 8;
        let x = seq_matrix(m, model.input_cols(), i);
        expected.push(oracle(&x, &factors));
        tickets.push(runtime.submit(&model, x).unwrap());
    }
    // Shut down immediately, with (nearly) everything still queued. Every
    // accepted request must still complete with a correct result.
    runtime.shutdown();
    for (i, (t, e)) in tickets.into_iter().zip(expected.iter()).enumerate() {
        let y = t.wait().unwrap();
        assert_matrices_close(&y, e, &format!("post-shutdown ticket {i}"));
    }
}

#[test]
fn sharded_concurrent_serving_matches_oracle() {
    let runtime = Arc::new(Runtime::new(dist_config()));
    // One shardable model (uniform square pow2) and one the grid cannot
    // shard (rectangular chain) — the fallback must interleave cleanly
    // with sharded batches under concurrency.
    let shardable = model_factors(&[(4, 4), (4, 4), (4, 4)], 3);
    let fallback = model_factors(&[(2, 3), (5, 2), (3, 4)], 17);
    let factor_sets = Arc::new(vec![shardable, fallback]);
    let models: Vec<Model<f64>> = factor_sets
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).unwrap())
        .collect();
    let models = Arc::new(models);

    const THREADS: usize = 6;
    const REQUESTS_PER_THREAD: usize = 30;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let runtime = Arc::clone(&runtime);
        let models = Arc::clone(&models);
        let factor_sets = Arc::clone(&factor_sets);
        handles.push(std::thread::spawn(move || {
            for i in 0..REQUESTS_PER_THREAD {
                let which = (t + i) % models.len();
                let model = &models[which];
                // Mixed batchable/solo sizes, including M with every
                // residue mod GM = 2 (exercising the zero-padding).
                let m = 1 + (t * 7 + i * 3) % 24;
                let x = seq_matrix(m, model.input_cols(), t * 100 + i);
                let expected = oracle(&x, &factor_sets[which]);
                let y = runtime.execute(model, x).unwrap();
                assert_matrices_close(&y, &expected, &format!("dist thread {t} req {i}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = runtime.stats();
    assert_eq!(stats.served, (THREADS * REQUESTS_PER_THREAD) as u64);
    assert!(stats.sharded_batches > 0, "nothing sharded: {stats:?}");
    assert!(stats.local_fallbacks > 0, "no fallback entries: {stats:?}");
    assert!(stats.comm_bytes > 0, "no communication recorded: {stats:?}");
}

#[test]
fn shutdown_while_sharded_drains_all_accepted() {
    let runtime = Runtime::new(dist_config());
    let factors = model_factors(&[(8, 8), (8, 8)], 7);
    let model = runtime.load_model(factors.clone()).unwrap();

    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for i in 0..64 {
        let m = 1 + i % 8;
        let x = seq_matrix(m, model.input_cols(), i);
        expected.push(oracle(&x, &factors));
        tickets.push(runtime.submit(&model, x).unwrap());
    }
    // Shut down with (nearly) everything still queued: every accepted
    // ticket must still resolve with a correct sharded result.
    runtime.shutdown();
    for (i, (t, e)) in tickets.into_iter().zip(expected.iter()).enumerate() {
        let y = t.wait().unwrap();
        assert_matrices_close(&y, e, &format!("post-shutdown sharded ticket {i}"));
    }
}

#[test]
fn device_fault_recovers_transparently_by_default() {
    let runtime = Runtime::new(dist_config());
    let factors = model_factors(&[(4, 4), (4, 4), (4, 4)], 5);
    let model = runtime.load_model(factors.clone()).unwrap();
    let x = seq_matrix(4, model.input_cols(), 2);
    let expected = oracle(&x, &factors);

    // Healthy batch first.
    let y = runtime.execute(&model, x.clone()).unwrap();
    assert_matrices_close(&y, &expected, "pre-fault batch");

    // Out-of-range devices are rejected up front — an unfireable fault
    // must not stay silently armed.
    assert!(matches!(
        runtime.inject_device_fault(64),
        Err(KronError::InvalidGrid { .. })
    ));

    // Arm a one-shot fault on simulated device 2, then submit a linked
    // batch. With the default retry policy the faulted chunk is rebuilt
    // and re-executed: every client sees Ok, and results stay bit-exact
    // with the oracle (all backends share one microkernel).
    runtime.inject_device_fault(2).unwrap();
    let xs: Vec<Matrix<f64>> = (0..4)
        .map(|i| seq_matrix(2, model.input_cols(), 10 + i))
        .collect();
    let oracles: Vec<Matrix<f64>> = xs.iter().map(|x| oracle(x, &factors)).collect();
    let tickets = runtime
        .submit_linked(xs.into_iter().map(|x| (&model, x)).collect())
        .unwrap();
    let mut recovered = 0;
    for (i, (t, e)) in tickets.into_iter().zip(oracles.iter()).enumerate() {
        let (y, receipt) = t.wait_with_receipt().unwrap();
        assert_matrices_close(&y, e, &format!("request {i}"));
        if receipt.attempts > 1 {
            recovered += 1;
        }
    }
    assert!(recovered >= 1, "the faulted chunk must report a retry");

    // The very next batch succeeds — no hang, no residue — and the stats
    // ledger shows the drill: a retry happened, clients recovered.
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "post-fault batch");
    let stats = runtime.stats();
    assert!(stats.sharded_batches >= 2, "stats: {stats:?}");
    assert!(stats.retries >= 1, "stats: {stats:?}");
    assert!(stats.recovered_requests >= 1, "stats: {stats:?}");
}

#[test]
fn device_fault_surfaces_when_retry_disabled() {
    // `max_attempts: 0` restores the pre-retry contract: the fault fails
    // only its own batch, client-visibly, and the queue moves on.
    let runtime = Runtime::new(RuntimeConfig {
        retry: kron_runtime::RetryPolicy {
            max_attempts: 0,
            backoff_us: 0,
            degrade: false,
        },
        ..dist_config()
    });
    let factors = model_factors(&[(4, 4), (4, 4), (4, 4)], 5);
    let model = runtime.load_model(factors.clone()).unwrap();
    let x = seq_matrix(4, model.input_cols(), 2);
    let expected = oracle(&x, &factors);

    // Healthy batch first.
    let y = runtime.execute(&model, x.clone()).unwrap();
    assert_matrices_close(&y, &expected, "pre-fault batch");

    runtime.inject_device_fault(2).unwrap();
    let xs: Vec<Matrix<f64>> = (0..4)
        .map(|i| seq_matrix(2, model.input_cols(), 10 + i))
        .collect();
    let oracles: Vec<Matrix<f64>> = xs.iter().map(|x| oracle(x, &factors)).collect();
    let tickets = runtime
        .submit_linked(xs.into_iter().map(|x| (&model, x)).collect())
        .unwrap();
    let mut failures = 0;
    for (i, (t, e)) in tickets.into_iter().zip(oracles.iter()).enumerate() {
        match t.wait() {
            Err(KronError::DeviceFailure { gpu, ref reason }) => {
                assert_eq!(gpu, 2, "request {i}");
                assert!(reason.contains("injected device fault"), "{reason}");
                failures += 1;
            }
            Ok(y) => assert_matrices_close(&y, e, &format!("non-faulted request {i}")),
            Err(other) => panic!("request {i}: unexpected error {other:?}"),
        }
        if i == 0 {
            assert_eq!(failures, 1, "request 0 must ride the faulted batch");
        }
    }
    assert!(failures >= 1);

    // The very next batch succeeds (fresh engine) — no
    // hang, no residue, and nothing counted as a retry.
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "post-fault batch");
    let stats = runtime.stats();
    assert!(stats.sharded_batches >= 2, "stats: {stats:?}");
    assert_eq!(stats.retries, 0, "stats: {stats:?}");
}

#[test]
fn linked_batch_serves_and_validates() {
    let runtime = Runtime::new(dist_config());
    let factors = model_factors(&[(4, 4), (4, 4)], 9);
    let model = runtime.load_model(factors.clone()).unwrap();

    let xs: Vec<Matrix<f64>> = (0..5)
        .map(|i| seq_matrix(1 + i % 3, model.input_cols(), 40 + i))
        .collect();
    let expected: Vec<Matrix<f64>> = xs.iter().map(|x| oracle(x, &factors)).collect();
    let tickets = runtime
        .submit_linked(xs.into_iter().map(|x| (&model, x)).collect())
        .unwrap();
    for (i, (t, e)) in tickets.into_iter().zip(expected.iter()).enumerate() {
        let (y, stats) = t.wait_with_stats().unwrap();
        assert_matrices_close(&y, e, &format!("linked request {i}"));
        // Sharded serving attributes a simulated share to every request.
        let s = stats.expect("sharded requests carry a summary");
        assert!(s.seconds > 0.0 && s.comm_bytes > 0, "summary {s:?}");
    }
    // An empty linked batch is a no-op.
    assert!(runtime.submit_linked::<f64>(Vec::new()).unwrap().is_empty());
}

#[test]
fn same_shape_models_share_one_plan() {
    // Two models with identical factor-shape chains but different values:
    // the plan cache is shape-keyed, so the second model rides the first
    // model's cache entry and workspace — and still gets its own numbers.
    let runtime = Runtime::with_defaults();
    let fa = model_factors(&[(4, 4), (4, 4)], 1);
    let fb = model_factors(&[(4, 4), (4, 4)], 99);
    let a = runtime.load_model(fa.clone()).unwrap();
    let b = runtime.load_model(fb.clone()).unwrap();
    for i in 0..4 {
        let x = seq_matrix(3, a.input_cols(), i);
        let ya = runtime.execute(&a, x.clone()).unwrap();
        let yb = runtime.execute(&b, x.clone()).unwrap();
        assert_matrices_close(&ya, &oracle(&x, &fa), &format!("model a req {i}"));
        assert_matrices_close(&yb, &oracle(&x, &fb), &format!("model b req {i}"));
        assert_ne!(ya, yb, "different factor values must differ");
    }
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, 1, "stats: {stats:?}");
    assert_eq!(stats.plan_hits, 7, "stats: {stats:?}");
}

#[test]
fn session_calls_fail_cleanly_after_shutdown() {
    let runtime = Runtime::with_defaults();
    let factors = model_factors(&[(4, 4)], 5);
    let model = runtime.load_model(factors.clone()).unwrap();
    let mut session = runtime.session();

    // Session works while the runtime is up...
    let x = seq_matrix(2, 4, 1);
    let y = Matrix::zeros(2, 4);
    let (x, y) = session.call(&model, x, y).unwrap();
    assert_matrices_close(&y, &oracle(&x, &factors), "pre-shutdown call");

    // ...and degrades to a clean error afterwards instead of hanging.
    runtime.shutdown();
    let err = session.call(&model, x, y).unwrap_err();
    assert_eq!(err, KronError::Shutdown);
}

/// N submitter threads × M mixed-dtype requests through the sharded
/// scheduler (4 lanes): every result stays bit-exact against the
/// shuffle oracle, and the serve ledger reconciles **per lane** as well
/// as globally — `served == batched + solo + bypassed + error_replies`
/// on each live lane, lane sums equal the global counters, and every
/// inflight gauge returns to zero.
#[test]
fn multi_producer_contention_reconciles_per_lane_and_globally() {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        scheduler_lanes: 4,
        max_batch_rows: 32,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    }));

    // Six f64 models with distinct shape chains (spread across lanes by
    // the plan-identity hash) plus two f32 models sharing chains with
    // f64 ones — the dtype folds into the hash, so same-shape mixed
    // traffic can still split.
    let f64_shapes: Vec<Vec<(usize, usize)>> = vec![
        vec![(4, 4), (4, 4)],
        vec![(8, 8), (8, 8)],
        vec![(2, 3), (5, 2), (3, 4)],
        vec![(3, 3), (3, 3), (3, 3)],
        vec![(16, 16)],
        vec![(2, 2), (2, 2), (2, 2), (2, 2)],
    ];
    let f64_factors: Vec<Vec<Matrix<f64>>> = f64_shapes
        .iter()
        .enumerate()
        .map(|(i, s)| model_factors(s, 13 * i + 1))
        .collect();
    let f64_models: Vec<Model<f64>> = f64_factors
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).unwrap())
        .collect();
    let f32_factors: Vec<Vec<Matrix<f32>>> = f64_shapes[..2]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.iter()
                .enumerate()
                .map(|(j, &(p, q))| {
                    Matrix::from_fn(p, q, |r, c| {
                        ((i * 31 + j * 5 + 7 * r * q + 3 * c) % 19) as f32 - 9.0
                    })
                })
                .collect()
        })
        .collect();
    let f32_models: Vec<Model<f32>> = f32_factors
        .iter()
        .map(|fs| runtime.load_model(fs.clone()).unwrap())
        .collect();
    let f64_factors = Arc::new(f64_factors);
    let f64_models = Arc::new(f64_models);
    let f32_factors = Arc::new(f32_factors);
    let f32_models = Arc::new(f32_models);

    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 48;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let runtime = Arc::clone(&runtime);
        let f64_models = Arc::clone(&f64_models);
        let f64_factors = Arc::clone(&f64_factors);
        let f32_models = Arc::clone(&f32_models);
        let f32_factors = Arc::clone(&f32_factors);
        handles.push(std::thread::spawn(move || {
            for i in 0..REQUESTS_PER_THREAD {
                let m = 1 + (t * 7 + i * 3) % 24;
                if (t + i) % 3 == 0 {
                    let which = (t + i) % f32_models.len();
                    let model = &f32_models[which];
                    let x = Matrix::<f32>::from_fn(m, model.input_cols(), |r, c| {
                        ((t * 100 + i + 7 * r + 3 * c) % 19) as f32 - 9.0
                    });
                    let refs: Vec<&Matrix<f32>> = f32_factors[which].iter().collect();
                    let expected = kron_matmul_shuffle(&x, &refs).unwrap();
                    let y = runtime.execute(model, x).unwrap();
                    assert_eq!(y, expected, "f32 thread {t} req {i} must be bit-exact");
                } else {
                    let which = (t + i) % f64_models.len();
                    let model = &f64_models[which];
                    let x = seq_matrix(m, model.input_cols(), t * 100 + i);
                    let expected = oracle(&x, &f64_factors[which]);
                    let y = runtime.execute(model, x).unwrap();
                    assert_matrices_close(&y, &expected, &format!("f64 thread {t} req {i}"));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = runtime.stats();
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(stats.submitted, total, "stats: {stats:?}");
    assert_eq!(stats.served, total, "stats: {stats:?}");
    assert_eq!(stats.scheduler_lanes, 4, "stats: {stats:?}");
    assert_eq!(
        stats.batched_requests
            + stats.solo_requests
            + stats.bypassed_requests
            + stats.error_replies,
        stats.served,
        "global decomposition: {stats:?}"
    );
    let lanes = stats.lanes();
    assert_eq!(lanes.len(), 4);
    let mut lane_served_sum = 0;
    let mut used = 0;
    for (i, lane) in lanes.iter().enumerate() {
        assert_eq!(
            lane.batched_requests
                + lane.solo_requests
                + lane.bypassed_requests
                + lane.error_replies,
            lane.served,
            "lane {i} decomposition: {lane:?}"
        );
        assert_eq!(lane.inflight, 0, "lane {i} gauge must drain: {lane:?}");
        lane_served_sum += lane.served;
        if lane.served > 0 {
            used += 1;
        }
    }
    assert_eq!(lane_served_sum, stats.served, "lane sums: {lanes:?}");
    assert_eq!(stats.inflight_requests, 0, "stats: {stats:?}");
    // Eight distinct plan identities over four lanes: the hash must not
    // funnel everything into one lane (stealing may shift serves, but
    // only *away* from a busy lane — at least two lanes see traffic).
    assert!(used >= 2, "all traffic on one lane: {lanes:?}");
}

/// Two (or eight) concurrent submitters against one warm model race the
/// bypass eligibility check. Eligibility is a CAS claim on the lane's
/// inflight gauge, so at most one wins the inline path at a time; the
/// rest batch. Every result stays oracle-exact, the ledger decomposes,
/// and the gauges return to zero — the regression test for the
/// two-readers-both-see-idle race the Relaxed-load gate allowed.
#[test]
fn concurrent_bypass_claims_race_safely_on_one_warm_model() {
    let runtime = Arc::new(Runtime::with_defaults());
    let factors = model_factors(&[(4, 4), (4, 4)], 21);
    let model = Arc::new(runtime.load_model(factors.clone()).unwrap());
    // Warm the full-width plan so every submitter sees a bypassable
    // entry.
    let warm = seq_matrix(2, model.input_cols(), 0);
    runtime.execute(&model, warm).unwrap();

    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 60;
    let factors = Arc::new(factors);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let runtime = Arc::clone(&runtime);
        let model = Arc::clone(&model);
        let factors = Arc::clone(&factors);
        handles.push(std::thread::spawn(move || {
            for i in 0..REQUESTS_PER_THREAD {
                let x = seq_matrix(1 + i % 3, model.input_cols(), t * 1000 + i);
                let expected = oracle(&x, &factors);
                let y = runtime.execute(&model, x).unwrap();
                assert_matrices_close(&y, &expected, &format!("claim race thread {t} req {i}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = runtime.stats();
    let total = 1 + (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(stats.served, total, "stats: {stats:?}");
    assert_eq!(
        stats.batched_requests
            + stats.solo_requests
            + stats.bypassed_requests
            + stats.error_replies,
        stats.served,
        "decomposition: {stats:?}"
    );
    assert_eq!(stats.inflight_requests, 0, "gauge must drain: {stats:?}");
    for (i, lane) in stats.lanes().iter().enumerate() {
        assert_eq!(lane.inflight, 0, "lane {i} gauge must drain: {lane:?}");
    }
}

/// One hot model backlogs its home lane while three sibling lanes sit
/// idle: the idle lanes must steal from the deep ring (observable in
/// `lane_steals` and per-lane `steals`/`served`), and every stolen
/// request still matches the oracle bit-for-bit.
#[test]
fn work_stealing_relieves_a_backlogged_lane() {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        scheduler_lanes: 4,
        max_batch_rows: 16,
        batch_max_m: 8,
        inline_bypass: false,
        ..RuntimeConfig::default()
    }));
    let factors = model_factors(&[(4, 4), (4, 4)], 33);
    let model = Arc::new(runtime.load_model(factors.clone()).unwrap());
    let home_lane = runtime.lane_for(&model);

    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 400;
    let factors = Arc::new(factors);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let runtime = Arc::clone(&runtime);
        let model = Arc::clone(&model);
        let factors = Arc::clone(&factors);
        handles.push(std::thread::spawn(move || {
            for i in 0..REQUESTS_PER_THREAD {
                let x = seq_matrix(1 + i % 4, model.input_cols(), t * 10_000 + i);
                let expected = oracle(&x, &factors);
                let y = runtime.execute(&model, x).unwrap();
                assert_matrices_close(&y, &expected, &format!("steal thread {t} req {i}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = runtime.stats();
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(stats.served, total, "stats: {stats:?}");
    assert!(
        stats.lane_steals >= 1,
        "idle lanes never stole from the backlogged ring: {stats:?}"
    );
    let lanes = stats.lanes();
    // Stolen work is served (and counted) on the thief's lane.
    let stolen_serves: u64 = lanes
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != home_lane)
        .map(|(_, l)| l.served)
        .sum();
    assert!(
        stolen_serves >= 1,
        "thief lanes served nothing (home {home_lane}): {lanes:?}"
    );
    let lane_served_sum: u64 = lanes.iter().map(|l| l.served).sum();
    assert_eq!(lane_served_sum, stats.served, "lane sums: {lanes:?}");
}

#[test]
fn submit_validates_shapes() {
    let runtime = Runtime::with_defaults();
    let model = runtime.load_model(model_factors(&[(4, 4)], 1)).unwrap();
    // Wrong input width.
    assert!(runtime.submit(&model, seq_matrix(2, 5, 0)).is_err());
    // Zero rows.
    assert!(runtime.submit(&model, Matrix::<f64>::zeros(0, 4)).is_err());
    // Session with a mis-shaped output buffer.
    let mut session = runtime.session();
    assert!(session
        .call(&model, seq_matrix(2, 4, 0), Matrix::zeros(2, 5))
        .is_err());
    // Degenerate models are rejected at load.
    assert!(runtime.load_model::<f64>(vec![]).is_err());
    assert!(runtime
        .load_model(vec![Matrix::<f64>::zeros(0, 3)])
        .is_err());
}

/// The public handles cross threads: a session moves to the thread that
/// calls through it, a ticket to the thread that waits on it, a model or
/// a pin to whichever thread serves or holds it, and one runtime is
/// shared by every client thread. Checked at compile time, so a handle
/// that loses `Send` (or the runtime `Sync`) fails the build.
#[test]
fn public_handles_are_send() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Session<f32>>();
    assert_send::<Session<f64>>();
    assert_send::<Ticket<f32>>();
    assert_send::<Model<f64>>();
    assert_send::<ModelPin>();
    assert_send_sync::<Runtime>();
}
