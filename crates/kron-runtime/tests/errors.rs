//! Error-path contract of the distributed serving stack: misconfigured
//! grids, unshardable shapes, and mixed-model batches return the
//! documented `KronError` variants — never a panic, never a hang.

use gpu_sim::device::V100;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, KronError, KronProblem, Matrix};
use kron_dist::DistFastKron;
use kron_runtime::{
    Backend, BreakerPolicy, BreakerState, Clock, FaultEvent, FaultKind, FaultPlan, FaultTrigger,
    Runtime, RuntimeConfig,
};

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 5 * r * cols + 2 * c) % 17) as f64 - 8.0
    })
}

fn dist_runtime_config(gpus: usize) -> RuntimeConfig {
    RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed { gpus, p2p: false },
        ..RuntimeConfig::default()
    }
}

fn dist_runtime(gpus: usize) -> Runtime {
    Runtime::new(dist_runtime_config(gpus))
}

#[test]
fn non_power_of_two_grid_is_a_clean_config_error() {
    // The SUMMA grid rule needs a power of two; 6 GPUs cannot be arranged.
    // The runtime still constructs (the scheduler must exist to reply),
    // but every request fails with the documented InvalidGrid error.
    let runtime = dist_runtime(6);
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let model = runtime.load_model(factors).unwrap();
    for i in 0..3 {
        let err = runtime
            .execute(&model, seq_matrix(4, model.input_cols(), i))
            .unwrap_err();
        match err {
            KronError::InvalidGrid { ref reason } => {
                assert!(reason.contains("power of two"), "{reason}")
            }
            other => panic!("expected InvalidGrid, got {other:?}"),
        }
    }
    // Shutdown still drains cleanly.
    runtime.shutdown();
}

#[test]
fn indivisible_k_errors_directly_and_falls_back_in_the_runtime() {
    // K = 3² = 9 does not divide over GK = 2.
    let problem = KronProblem::uniform(4, 3, 2).unwrap();
    let engine = DistFastKron::new(&V100, 4).unwrap();
    match engine.workspace::<f64>(&problem) {
        Err(KronError::InvalidGrid { ref reason }) => {
            assert!(reason.contains("not divisible by GK"), "{reason}")
        }
        other => panic!("expected InvalidGrid, got {other:?}"),
    }
    assert!(matches!(
        engine.simulate::<f64>(&problem),
        Err(KronError::InvalidGrid { .. })
    ));

    // The runtime's Distributed backend serves the same model through the
    // documented local fallback — correct results, fallback counted.
    let runtime = dist_runtime(4);
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(3, 3, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    let x = seq_matrix(4, model.input_cols(), 3);
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let expected = kron_matmul_shuffle(&x, &refs).unwrap();
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "fallback serve");
    assert!(runtime.stats().local_fallbacks >= 1);
    assert_eq!(runtime.stats().sharded_batches, 0);
}

#[test]
fn indivisible_m_errors_directly_but_the_runtime_pads() {
    // Direct engine: M = 3 does not divide over GM = 2.
    let engine = DistFastKron::new(&V100, 4).unwrap();
    let x = seq_matrix(3, 16, 0);
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    match engine.execute(&x, &refs) {
        Err(KronError::InvalidGrid { ref reason }) => {
            assert!(reason.contains("not divisible by GM"), "{reason}")
        }
        other => panic!("expected InvalidGrid, got {other:?}"),
    }

    // The runtime zero-pads the batch to a GM multiple and shards anyway.
    let runtime = dist_runtime(4);
    let model = runtime.load_model(factors.clone()).unwrap();
    let expected = kron_matmul_shuffle(&x, &refs).unwrap();
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "padded serve");
    let stats = runtime.stats();
    assert_eq!(stats.sharded_batches, 1, "stats: {stats:?}");
    assert_eq!(stats.local_fallbacks, 0, "stats: {stats:?}");
}

#[test]
fn mixed_model_linked_batch_is_rejected_atomically() {
    let runtime = dist_runtime(4);
    let fa: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let fb: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(2, 2, i)).collect();
    let a = runtime.load_model(fa).unwrap();
    let b = runtime.load_model(fb).unwrap();

    let err = runtime
        .submit_linked(vec![
            (&a, seq_matrix(2, a.input_cols(), 0)),
            (&a, seq_matrix(1, a.input_cols(), 1)),
            (&b, seq_matrix(2, b.input_cols(), 2)),
        ])
        .unwrap_err();
    assert_eq!(
        err,
        KronError::MixedModelBatch {
            first: a.id(),
            conflicting: b.id(),
        }
    );
    // Rejection is atomic: nothing entered the queue.
    assert_eq!(runtime.stats().submitted, 0);

    // A shape error anywhere also rejects the whole batch.
    let err = runtime
        .submit_linked(vec![
            (&a, seq_matrix(2, a.input_cols(), 0)),
            (&a, seq_matrix(2, a.input_cols() + 1, 1)),
        ])
        .unwrap_err();
    assert!(matches!(err, KronError::ShapeMismatch { .. }));
    assert_eq!(runtime.stats().submitted, 0);
}

#[test]
fn fault_on_single_node_backend_is_inert() {
    // No devices to fault: the flag is simply never consumed.
    let runtime = Runtime::new(RuntimeConfig::default());
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    runtime.inject_device_fault(0).unwrap();
    let x = seq_matrix(4, model.input_cols(), 1);
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let expected = kron_matmul_shuffle(&x, &refs).unwrap();
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "single-node serve with armed fault");
}

#[test]
fn fault_scripts_are_validated_whole_before_anything_installs() {
    let event = |gpu, repeat, kind| FaultEvent {
        gpu,
        trigger: FaultTrigger::AtTimeUs(u64::MAX),
        repeat,
        kind,
    };
    let out_of_range = |err: KronError| match err {
        KronError::InvalidGrid { reason } => reason.contains("device 4 outside a 4 GPU machine"),
        _ => false,
    };
    let runtime = dist_runtime(4);
    // An event that fires zero times is a malformed script.
    let err = runtime
        .install_fault_plan(FaultPlan::new().event(event(0, 0, FaultKind::Panic)))
        .unwrap_err();
    assert!(matches!(err, KronError::EmptyDimension { .. }), "{err:?}");
    // A device outside the machine could never fire. The plan is
    // rejected whole: its valid leading events install nothing.
    let plan = FaultPlan::new()
        .panic_on_batch(0, 0)
        .stall_on_batch(3, 1, 100)
        .panic_on_batch(4, 2);
    assert!(out_of_range(runtime.install_fault_plan(plan).unwrap_err()));
    assert_eq!(runtime.pending_fault_events(), 0);
    // A scheduler panic ignores `gpu`, so any value is accepted.
    runtime
        .install_fault_plan(FaultPlan::new().event(event(4, 1, FaultKind::SchedulerPanic)))
        .unwrap();
    assert_eq!(runtime.pending_fault_events(), 1);
    // The one-shot injector applies the same device check.
    assert!(out_of_range(runtime.inject_device_fault(4).unwrap_err()));
    assert_eq!(runtime.pending_fault_events(), 1);
    runtime.install_fault_plan(FaultPlan::new()).unwrap();

    // Device faults are inert on a single node, so any device is accepted.
    let single = Runtime::new(RuntimeConfig::default());
    single
        .install_fault_plan(FaultPlan::new().panic_on_batch(1_000, 0))
        .unwrap();
    single.inject_device_fault(1_000).unwrap();
    assert_eq!(single.pending_fault_events(), 2);
}

/// Every `KronError` variant has a stable, self-describing `Display`
/// message and a `Debug` form naming the variant — exhaustively, so a
/// newly-added variant without a message shows up here as a missing row.
#[test]
fn every_error_variant_round_trips_display_and_debug() {
    let cases: Vec<(KronError, &str, &str)> = vec![
        (
            KronError::ShapeMismatch {
                expected: "M×64".into(),
                found: "M×63".into(),
            },
            "shape mismatch: expected M×64, found M×63",
            "ShapeMismatch",
        ),
        (
            KronError::NoFactors,
            "Kron-Matmul requires at least one factor",
            "NoFactors",
        ),
        (
            KronError::EmptyDimension {
                what: "factor 2 has 0 rows".into(),
            },
            "empty dimension: factor 2 has 0 rows",
            "EmptyDimension",
        ),
        (
            KronError::InvalidTileConfig {
                reason: "TP must divide P".into(),
            },
            "invalid tile configuration: TP must divide P",
            "InvalidTileConfig",
        ),
        (
            KronError::ResourceExhausted {
                what: "shared memory over by 4096 bytes".into(),
            },
            "resource exhausted: shared memory over by 4096 bytes",
            "ResourceExhausted",
        ),
        (
            KronError::InvalidGrid {
                reason: "6 GPUs is not a power of two".into(),
            },
            "invalid GPU grid: 6 GPUs is not a power of two",
            "InvalidGrid",
        ),
        (
            KronError::DeviceFailure {
                gpu: 3,
                reason: "injected device fault".into(),
            },
            "simulated device 3 failed: injected device fault",
            "DeviceFailure",
        ),
        (
            KronError::MixedModelBatch {
                first: 1,
                conflicting: 7,
            },
            "linked batch mixes models 1 and 7; a batch stacks rows against one factor set",
            "MixedModelBatch",
        ),
        (
            KronError::DeadlineExceeded {
                deadline_us: 500,
                now_us: 750,
            },
            "deadline exceeded: due at 500us, scheduled at 750us",
            "DeadlineExceeded",
        ),
        (
            KronError::DeviceTimeout {
                gpu: 2,
                waited_us: 2_000_000,
            },
            "simulated device 2 timed out: no completion after 2000000us (watchdog)",
            "DeviceTimeout",
        ),
        (
            KronError::Shutdown,
            "the serving runtime has shut down",
            "Shutdown",
        ),
        (
            KronError::CacheBudgetExceeded {
                required_bytes: 4096,
                max_bytes: 1024,
            },
            "plan-cache byte budget exceeded: entry needs ~4096 bytes but the whole budget is 1024 bytes",
            "CacheBudgetExceeded",
        ),
    ];
    for (err, display, variant) in &cases {
        assert_eq!(&err.to_string(), display, "{variant} Display drifted");
        let debug = format!("{err:?}");
        assert!(debug.contains(variant), "{variant} not in Debug: {debug}");
        // The std::error::Error impl reports the same message.
        let dynamic: &dyn std::error::Error = err;
        assert_eq!(dynamic.to_string(), *display, "{variant} via dyn Error");
    }
    // Exhaustive: compiling this match is the proof no variant is missing
    // a row above (add the variant here AND a case above when extending).
    for (err, _, _) in &cases {
        match err {
            KronError::ShapeMismatch { .. }
            | KronError::NoFactors
            | KronError::EmptyDimension { .. }
            | KronError::InvalidTileConfig { .. }
            | KronError::ResourceExhausted { .. }
            | KronError::InvalidGrid { .. }
            | KronError::DeviceFailure { .. }
            | KronError::MixedModelBatch { .. }
            | KronError::DeadlineExceeded { .. }
            | KronError::DeviceTimeout { .. }
            | KronError::Shutdown
            | KronError::CacheBudgetExceeded { .. } => {}
        }
    }
    assert_eq!(cases.len(), 12, "new variant? add its row");
}

/// `RuntimeStats::Display` renders an aligned table with one row per
/// counter — exhaustively, so a newly-added counter without a row shows
/// up here as a failing count.
#[test]
fn runtime_stats_display_renders_every_counter_row() {
    let runtime = dist_runtime(4);
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let model = runtime.load_model(factors).unwrap();
    runtime
        .execute(&model, seq_matrix(4, model.input_cols(), 1))
        .unwrap();

    let stats = runtime.stats();
    let table = stats.to_string();
    assert!(table.starts_with("runtime stats\n"), "{table}");
    let rows = [
        "submitted",
        "requests_f32",
        "requests_f64",
        "served",
        "batches",
        "batched_requests",
        "solo_requests",
        "bypassed_requests",
        "error_replies",
        "plan_hits",
        "plan_misses",
        "sharded_batches",
        "local_fallbacks",
        "comm_bytes",
        "evictions",
        "rebuilds",
        "deadline_shed",
        "retries",
        "degraded_batches",
        "recovered_requests",
        "breaker_trips",
        "cached_entries",
        "cached_bytes",
        "current_linger_us",
        "inflight_requests",
        "scheduler_lanes",
        "lane_steals",
    ];
    for name in rows {
        assert!(
            table.contains(&format!("  {name:<20}")),
            "missing row {name} in:\n{table}"
        );
    }
    // One header plus exactly one row per counter plus one row per live
    // scheduler lane — a new counter must add a row (the Display impl
    // destructures exhaustively).
    assert_eq!(
        table.lines().count(),
        1 + rows.len() + stats.lanes().len(),
        "{table}"
    );
    // Spot-check a value landed in its row, right-aligned.
    let served_row = table
        .lines()
        .find(|l| l.trim_start().starts_with("served"))
        .unwrap();
    assert!(
        served_row.ends_with(&format!("{:>12}", stats.served)),
        "{served_row:?}"
    );
}

/// `ServeReceipt::Display` renders the serve metadata — sequence,
/// attempts, grid, shard traffic, and the stage timeline — for both a
/// sharded and a local serve.
#[test]
fn serve_receipt_display_round_trips_sharded_and_local() {
    // Sharded: a 4-GPU grid with real comm traffic on the receipt.
    let runtime = dist_runtime(4);
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let model = runtime.load_model(factors).unwrap();
    let t = runtime
        .submit(&model, seq_matrix(4, model.input_cols(), 2))
        .unwrap();
    let (_, receipt) = t.wait_with_receipt().unwrap();
    let text = receipt.to_string();
    assert!(text.starts_with("serve receipt\n"), "{text}");
    for needle in ["seq", "attempts", "grid", "2x2", "shard", " B", "timings"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert!(
        text.contains(&format!(
            "queue {}us | linger {}us | plan {}us | exec {}us | scatter {}us | retry {}us | total {}us",
            receipt.timings.queue_us,
            receipt.timings.linger_us,
            receipt.timings.plan_us,
            receipt.timings.exec_us,
            receipt.timings.scatter_us,
            receipt.timings.retry_us,
            receipt.timings.total_us(),
        )),
        "timeline row must render every stage:\n{text}"
    );

    // Local: no grid, no shard summary.
    let runtime = Runtime::new(RuntimeConfig::default());
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let model = runtime.load_model(factors).unwrap();
    let t = runtime
        .submit(&model, seq_matrix(4, model.input_cols(), 3))
        .unwrap();
    let (_, receipt) = t.wait_with_receipt().unwrap();
    let text = receipt.to_string();
    assert!(text.contains("local"), "local serve has no grid:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.trim_start().starts_with("shard") && l.trim_end().ends_with('-')),
        "local serve has no shard row value:\n{text}"
    );
}

/// Full breaker lifecycle through the public runtime API, deterministic
/// on a manual clock: repeated faults on one device trip its breaker,
/// traffic degrades around the quarantine (clients keep seeing Ok), the
/// cooldown relaxes the breaker to half-open, and a clean full-width
/// batch closes it.
#[test]
fn breaker_trips_quarantines_and_recovers_on_manual_clock() {
    let clock = Clock::manual();
    let handle = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        breaker: BreakerPolicy {
            trip_after: 2,
            cooldown_us: 1_000,
        },
        ..dist_runtime_config(4)
    });
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let model = runtime.load_model(factors.clone()).unwrap();

    // Device 1 fails the first two sharded executes: attempt 0 and the
    // same-width retry both fault, tripping the breaker (trip_after: 2);
    // the degraded third attempt routes around the quarantine and
    // succeeds — the client never sees the fault.
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch_repeat(1, 0, 2))
        .unwrap();
    let x = seq_matrix(4, model.input_cols(), 9);
    let expected = kron_matmul_shuffle(&x, &refs).unwrap();
    let t = runtime.submit(&model, x.clone()).unwrap();
    let (y, receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "recovered through quarantine");
    assert_eq!(receipt.attempts, 3, "two faults then a degraded success");
    assert_eq!(runtime.pending_fault_events(), 0, "plan fully consumed");

    let health = runtime.device_health();
    assert_eq!(health.len(), 4);
    assert_eq!(health[1].state, BreakerState::Open);
    assert_eq!(health[1].trips, 1);
    assert_eq!(health[1].consecutive_failures, 2);
    let stats = runtime.stats();
    assert_eq!(stats.breaker_trips, 1, "stats: {stats:?}");
    assert!(stats.retries >= 2, "stats: {stats:?}");
    assert_eq!(stats.recovered_requests, 1, "stats: {stats:?}");

    // While quarantined, serving continues degraded — Ok on the first
    // attempt, no retry, breaker still open (a degraded success proves
    // nothing about the sick device).
    let y = runtime.execute(&model, x.clone()).unwrap();
    assert_matrices_close(&y, &expected, "degraded serve under quarantine");
    assert_eq!(runtime.device_health()[1].state, BreakerState::Open);

    // Cooldown elapses on the manual clock: half-open, full grid offered.
    handle.advance_us(1_000);
    assert_eq!(runtime.device_health()[1].state, BreakerState::HalfOpen);

    // The probing batch succeeds at full width and closes the breaker.
    let t = runtime.submit(&model, x).unwrap();
    let (y, receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "half-open probe");
    assert_eq!(receipt.attempts, 1);
    assert_eq!(receipt.grid, Some((2, 2)), "probe ran the full 4-GPU grid");
    let health = runtime.device_health();
    assert_eq!(health[1].state, BreakerState::Closed);
    assert_eq!(health[1].consecutive_failures, 0);
    assert_eq!(health[1].trips, 1, "trip count is cumulative");
}
