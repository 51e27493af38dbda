//! Chaos-plane drills against the public runtime API: scripted device
//! faults, watchdog-bounded stalls, scheduler panics, and pre-warm
//! faults — each exercising one leg of the self-healing machinery
//! (transparent retry, degraded re-sharding, poisoned-runtime
//! containment, fault-time cache eviction).

use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, KronError, Matrix};
use kron_runtime::{Backend, Clock, FaultPlan, ManualClock, RetryPolicy, Runtime, RuntimeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 5 * r * cols + 2 * c) % 17) as f64 - 8.0
    })
}

fn dist_config(gpus: usize) -> RuntimeConfig {
    RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed { gpus, p2p: false },
        ..RuntimeConfig::default()
    }
}

fn model_factors(shapes: &[(usize, usize)], seed: usize) -> Vec<Matrix<f64>> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| seq_matrix(p, q, seed + 3 * i + 1))
        .collect()
}

fn oracle(x: &Matrix<f64>, factors: &[Matrix<f64>]) -> Matrix<f64> {
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    kron_matmul_shuffle(x, &refs).unwrap()
}

/// Runs `f` while a second thread steps `time` forward 100 ms per real
/// millisecond, so a stall held on the runtime's manual clock outlasts
/// the 2 s watchdog budget in tens of real milliseconds.
fn with_clock_pump<R>(time: &ManualClock, f: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                time.advance_us(100_000);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        out
    })
}

/// A repeated fault (below the breaker threshold) walks the degrade
/// ladder: two full-width attempts fail, the third halves the grid and
/// serves — attempts and the degraded grid are on the receipt, the
/// batch counts as degraded, and the result stays bit-exact.
#[test]
fn repeated_fault_degrades_grid_and_reports_receipt() {
    let runtime = Runtime::new(dist_config(4));
    let factors = model_factors(&[(4, 4), (4, 4)], 2);
    let model = runtime.load_model(factors.clone()).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch_repeat(0, 0, 2))
        .unwrap();

    let x = seq_matrix(4, model.input_cols(), 11);
    let expected = oracle(&x, &factors);
    let t = runtime.submit(&model, x).unwrap();
    let (y, receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "degraded serve");
    assert_eq!(receipt.attempts, 3, "two full-width failures then success");
    assert_eq!(
        receipt.grid,
        Some((1, 2)),
        "third attempt halved 4 → 2 GPUs"
    );

    let stats = runtime.stats();
    assert!(stats.retries >= 2, "stats: {stats:?}");
    assert_eq!(stats.degraded_batches, 1, "stats: {stats:?}");
    assert_eq!(stats.recovered_requests, 1, "stats: {stats:?}");
    assert_eq!(stats.breaker_trips, 0, "below the trip threshold");
    assert_eq!(runtime.pending_fault_events(), 0);
}

/// A stall within the watchdog budget is a latency blip: the device is
/// released on schedule and the batch succeeds on its first attempt.
#[test]
fn stall_within_watchdog_budget_is_a_latency_blip() {
    let runtime = Runtime::new(dist_config(4));
    let factors = model_factors(&[(4, 4), (4, 4)], 4);
    let model = runtime.load_model(factors.clone()).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().stall_on_batch(1, 0, 500))
        .unwrap();

    let x = seq_matrix(4, model.input_cols(), 3);
    let expected = oracle(&x, &factors);
    let t = runtime.submit(&model, x).unwrap();
    let (y, receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "stalled-but-tolerable serve");
    assert_eq!(receipt.attempts, 1);
    assert_eq!(runtime.stats().retries, 0);
}

/// A stall past the watchdog budget becomes the bounded `DeviceTimeout`:
/// with retry disabled the client sees it raw, correctly attributed.
#[test]
fn stall_past_watchdog_surfaces_device_timeout_when_retry_disabled() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        retry: RetryPolicy {
            max_attempts: 0,
            backoff_us: 0,
            degrade: false,
        },
        ..dist_config(4)
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 6);
    let model = runtime.load_model(factors).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().stall_on_batch(1, 0, 60_000_000))
        .unwrap();

    let x = seq_matrix(4, model.input_cols(), 5);
    match with_clock_pump(&time, || runtime.execute(&model, x)) {
        Err(KronError::DeviceTimeout { gpu, waited_us }) => {
            assert_eq!(gpu, 1);
            assert!(waited_us >= 3_000, "waited {waited_us}us");
        }
        other => panic!("expected DeviceTimeout, got {other:?}"),
    }
    // The hung device was attributed like any other device fault.
    assert_eq!(runtime.device_health()[1].consecutive_failures, 1);
}

/// The same hung device under the default policy is retried away: the
/// timed-out engine is evicted, the rebuilt one serves, and the client
/// sees Ok with the retry on the receipt.
#[test]
fn stall_past_watchdog_recovers_transparently_with_retry() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        ..dist_config(4)
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 8);
    let model = runtime.load_model(factors.clone()).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().stall_on_batch(2, 0, 60_000_000))
        .unwrap();

    let x = seq_matrix(4, model.input_cols(), 7);
    let expected = oracle(&x, &factors);
    let t = runtime.submit(&model, x).unwrap();
    let (y, receipt) = with_clock_pump(&time, || t.wait_with_receipt()).unwrap();
    assert_matrices_close(&y, &expected, "recovered from hung device");
    assert!(receipt.attempts > 1, "receipt: {receipt:?}");
    let stats = runtime.stats();
    assert!(stats.retries >= 1, "stats: {stats:?}");
    assert!(stats.recovered_requests >= 1, "stats: {stats:?}");
    assert!(stats.evictions >= 1, "timed-out engine must be evicted");
}

/// A scheduler panic must not strand `Ticket::wait` callers: pending
/// tickets fail with `Shutdown`, later submits error instead of queueing
/// into a dead thread, and teardown still joins cleanly.
#[test]
fn scheduler_panic_poisons_runtime_without_stranding_waiters() {
    let clock = Clock::manual();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        ..dist_config(4)
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 10);
    let model = runtime.load_model(factors).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().scheduler_panic_at_time(0))
        .unwrap();

    // Whichever requests are accepted before the panic lands must all
    // resolve with Shutdown — no caller may hang on the dead thread.
    let mut tickets = Vec::new();
    let mut rejected = 0;
    for i in 0..4 {
        match runtime.submit(&model, seq_matrix(2, model.input_cols(), i)) {
            Ok(t) => tickets.push(t),
            Err(KronError::Shutdown) => rejected += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert!(!tickets.is_empty(), "at least the first submit is accepted");
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Err(KronError::Shutdown) => {}
            other => panic!("ticket {i}: expected Shutdown, got {other:?}"),
        }
    }
    let _ = rejected;

    // The runtime is poisoned: every later submit errors immediately.
    assert!(matches!(
        runtime.submit(&model, seq_matrix(2, model.input_cols(), 9)),
        Err(KronError::Shutdown)
    ));
    // And explicit shutdown still returns (join of the dead thread).
    runtime.shutdown();
}

/// The poisoned-gate panic leak, fixed: after a scheduler panic, a
/// submit from a **fresh thread** (one that never touched the runtime
/// before the panic) must return the documented `KronError::Shutdown` —
/// not panic. The old mutex-guarded gate could be left poisoned by the
/// panicking scheduler, and client threads then panicked on
/// `gate.lock().unwrap()` instead of erroring; the striped atomic gate
/// has no lock to poison, and this drill pins the contract.
#[test]
fn poisoned_runtime_rejects_fresh_thread_submits_without_panicking() {
    let clock = Clock::manual();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        ..dist_config(4)
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 14);
    let model = runtime.load_model(factors).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().scheduler_panic_at_time(0))
        .unwrap();

    // Trip the panic: the first accepted request reaches the scheduler,
    // which panics before serving and poisons the runtime. Resolving the
    // ticket (or an immediate rejection) proves poisoning completed —
    // the gates close before pending tickets are failed.
    match runtime.submit(&model, seq_matrix(2, model.input_cols(), 1)) {
        Ok(t) => match t.wait() {
            Err(KronError::Shutdown) => {}
            other => panic!("expected Shutdown from poisoned runtime, got {other:?}"),
        },
        Err(KronError::Shutdown) => {}
        Err(other) => panic!("unexpected submit error {other:?}"),
    }

    // A fresh thread now submits (and opens a session) for the first
    // time. Both must fail with Shutdown; a panic would surface as a
    // join error.
    std::thread::scope(|s| {
        let result = s
            .spawn(|| {
                let submit = runtime.submit(&model, seq_matrix(2, model.input_cols(), 2));
                let mut session = runtime.session();
                let call = session.call(
                    &model,
                    seq_matrix(2, model.input_cols(), 3),
                    kron_core::Matrix::zeros(2, model.output_cols()),
                );
                (submit, call)
            })
            .join()
            .expect("fresh-thread submit must not panic on a poisoned runtime");
        assert!(
            matches!(result.0, Err(KronError::Shutdown)),
            "{:?}",
            result.0
        );
        assert!(
            matches!(result.1, Err(KronError::Shutdown)),
            "{:?}",
            result.1
        );
    });
    runtime.shutdown();
}

/// A device fault during `pin_model`'s pre-warm must evict the broken
/// entry instead of pinning a dead engine: the pin fails, the cache
/// drops the entry, and the next request builds fresh and serves.
#[test]
fn prewarm_fault_evicts_instead_of_pinning_a_dead_engine() {
    let runtime = Runtime::new(dist_config(4));
    let factors = model_factors(&[(4, 4), (4, 4)], 12);
    let model = runtime.load_model(factors.clone()).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(3, 0))
        .unwrap();

    match runtime.pin_model(&model) {
        Err(KronError::DeviceFailure { gpu, ref reason }) => {
            assert_eq!(gpu, 3);
            assert!(reason.contains("injected"), "{reason}");
        }
        other => panic!("expected DeviceFailure from pre-warm, got {other:?}"),
    }
    let stats = runtime.stats();
    assert!(
        stats.evictions >= 1,
        "broken entry must be evicted: {stats:?}"
    );
    assert_eq!(stats.cached_entries, 0, "nothing pinned: {stats:?}");
    assert_eq!(runtime.device_health()[3].consecutive_failures, 1);

    // The next request rebuilds from scratch and serves bit-exactly.
    let x = seq_matrix(4, model.input_cols(), 13);
    let expected = oracle(&x, &factors);
    let y = runtime.execute(&model, x).unwrap();
    assert_matrices_close(&y, &expected, "post-prewarm-fault serve");
    assert_eq!(runtime.stats().cached_entries, 1);

    // A clean pin after the fault works and survives pressure.
    let _pin = runtime.pin_model(&model).unwrap();
    assert!(runtime.stats().cached_entries >= 1);
}
