//! Scripted stage-timeline suite: on a manual clock, every microsecond
//! the scheduler spends on a request is attributable to a configured
//! policy knob — the linger window, the retry backoff, or the breaker
//! cooldown — and the `StageTimings` on the receipt must account for
//! those legs **exactly**. Five phases, one fresh runtime each:
//!
//! 1. a fixed 300us linger window lands as `linger_us == 300`;
//! 2. a 700us retry backoff lands as `retry_us == 700` on the retried
//!    request and as `queue_us == 700` on a request submitted while the
//!    scheduler was parked in that backoff;
//! 3. a tripped breaker's cooldown is paid through two backoff parks
//!    (`retry_us == 1_400`, three attempts) and the flight recorder
//!    holds the Open → HalfOpen → Closed transition in causal order;
//! 4. a warm-plan submit on an idle runtime takes the inline bypass
//!    lane: `queue_us == 0` and `linger_us == 0` on a frozen clock,
//!    with a `Bypass` event (and no `Admit`) on the flight recorder;
//! 5. a deadline that falls inside a 700us retry backoff sheds its
//!    request when the backoff ends (`now_us == t0 + 700`), alone or out
//!    of a two-request chunk whose deadline-free member the retry serves.
//!
//! Exactness is what's under test: each phase advances virtual time by
//! precisely the scripted amount at a deterministic sync point (the
//! linger gauge, the retry counter), so any drift in how the scheduler
//! stamps `enqueued/drained/window-close` shows up as a failed
//! microsecond count, not a tolerance miss.

use std::sync::Arc;

use kron_core::{KronError, Matrix};
use kron_runtime::{
    Backend, BreakerPolicy, BreakerState, Clock, FaultPlan, ManualClock, Model, RetryPolicy,
    Runtime, RuntimeConfig, ServeEventKind, SubmitOptions, Ticket,
};
use kron_testkit::ExpectedTimings;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 5 * r * cols + 2 * c) % 17) as f64 - 8.0
    })
}

fn model_factors(shapes: &[(usize, usize)], seed: usize) -> Vec<Matrix<f64>> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| seq_matrix(p, q, seed + 5 * i + 1))
        .collect()
}

fn manual_runtime(cfg: RuntimeConfig) -> (Runtime, Arc<ManualClock>) {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig { clock, ..cfg });
    (runtime, time)
}

/// Blocks (yielding, clock untouched) until `probe` observes the
/// scheduler reaching a scripted sync point.
fn sync_on(probe: impl Fn() -> bool) {
    while !probe() {
        std::thread::yield_now();
    }
}

fn expect(ticket: Ticket<f64>, label: &str, want: ExpectedTimings) {
    let (_, receipt) = ticket.wait_with_receipt().unwrap();
    want.check(label, &receipt).unwrap();
}

/// Phase 1 — the linger window. A fixed (non-adaptive) 300us window
/// opens when the first request of a cycle is drained; the 300us the
/// test advances to close it must land on the receipt as `linger_us`,
/// with zero queue time (the request was drained the instant it
/// arrived, on a frozen clock).
#[test]
fn fixed_linger_window_is_charged_as_linger_microseconds() {
    let (runtime, time) = manual_runtime(RuntimeConfig {
        batch_linger_us: 300,
        adaptive_linger: false,
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 1))
        .unwrap();

    time.set_us(1_000);
    let a = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 10))
        .unwrap();
    // The gauge is stored when the window opens — once it reads 300 the
    // request is drained and the scheduler is parked in the window.
    sync_on(|| runtime.stats().current_linger_us == 300);
    time.advance_us(300);

    expect(
        a,
        "phase 1 lingered request",
        ExpectedTimings {
            queue_us: 0,
            linger_us: 300,
            retry_us: 0,
            attempts: 1,
        },
    );
}

/// Phase 2 — the retry backoff. A scripted device fault fails the first
/// attempt; the scheduler parks for the 700us backoff. The retried
/// request is charged those 700us as `retry_us`; a second request
/// submitted *while the scheduler was parked* is charged the same 700us
/// as `queue_us` (it sat in the channel until the park ended).
#[test]
fn retry_backoff_is_charged_as_retry_and_queue_microseconds() {
    let (runtime, time) = manual_runtime(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        batch_linger_us: 0,
        backend: Backend::Distributed {
            gpus: 2,
            p2p: false,
        },
        retry: RetryPolicy {
            max_attempts: 2,
            backoff_us: 700,
            degrade: false,
        },
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 3))
        .unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(0, 0))
        .unwrap();

    time.set_us(5_000);
    let b = runtime
        .submit(&model, seq_matrix(4, model.input_cols(), 20))
        .unwrap();
    // retries increments before the backoff park: once it reads 1 the
    // clock (frozen at 5_000) pins the park's deadline at 5_700.
    sync_on(|| runtime.stats().retries == 1);
    let c = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 30))
        .unwrap();
    time.advance_us(700);

    expect(
        b,
        "phase 2 retried request",
        ExpectedTimings {
            queue_us: 0,
            linger_us: 0,
            retry_us: 700,
            attempts: 2,
        },
    );
    expect(
        c,
        "phase 2 parked-behind-backoff request",
        ExpectedTimings {
            queue_us: 700,
            linger_us: 0,
            retry_us: 0,
            attempts: 1,
        },
    );
}

/// Phase 3 — the breaker cooldown. Two scripted faults on device 0 trip
/// its breaker (`trip_after: 2`); the third attempt starts after the
/// 400us cooldown elapsed inside the second 700us backoff, so the
/// breaker relaxes to half-open, the rebuilt full-width grid serves,
/// and the success closes the breaker. The request is charged exactly
/// the two backoffs (`retry_us == 1_400`) and the flight recorder holds
/// Open -> HalfOpen -> Closed in causal order.
#[test]
fn breaker_cooldown_trip_and_recovery_have_exact_timeline() {
    let (runtime, time) = manual_runtime(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        batch_linger_us: 0,
        backend: Backend::Distributed {
            gpus: 2,
            p2p: false,
        },
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_us: 700,
            degrade: false,
        },
        breaker: BreakerPolicy {
            trip_after: 2,
            cooldown_us: 400,
        },
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 5))
        .unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch_repeat(0, 0, 2))
        .unwrap();

    time.set_us(10_000);
    let g = runtime
        .submit(&model, seq_matrix(4, model.input_cols(), 40))
        .unwrap();
    // Attempt 1 fails at 10_000 (consecutive failures: 1); the first
    // backoff parks until 10_700.
    sync_on(|| runtime.stats().retries == 1);
    time.advance_us(700);
    // Attempt 2 fails at 10_700 and trips the breaker open; the second
    // backoff parks until 11_400 — past the 400us cooldown.
    sync_on(|| runtime.stats().retries == 2);
    time.advance_us(700);

    let (_, receipt) = g.wait_with_receipt().unwrap();
    ExpectedTimings {
        queue_us: 0,
        linger_us: 0,
        retry_us: 1_400,
        attempts: 3,
    }
    .check("phase 3 breaker-recovery request", &receipt)
    .unwrap();
    assert!(receipt.grid.is_some(), "half-open rebuild stays sharded");

    let stats = runtime.stats();
    assert_eq!(stats.retries, 2, "stats: {stats}");
    assert_eq!(stats.breaker_trips, 1, "stats: {stats}");
    assert_eq!(
        stats.served,
        stats.batched_requests + stats.solo_requests + stats.error_replies,
        "decomposition holds under chaos: {stats}"
    );

    // The breaker's life cycle is on the flight recorder, in order.
    let events = runtime.drain_events();
    let breaker = |want: BreakerState| {
        events
            .iter()
            .position(|e| matches!(e.kind, ServeEventKind::Breaker { gpu: 0, to } if to == want))
    };
    let open = breaker(BreakerState::Open).expect("trip recorded");
    let half_open = breaker(BreakerState::HalfOpen).expect("cooldown relax recorded");
    let closed = breaker(BreakerState::Closed).expect("recovery close recorded");
    assert!(open < half_open, "tripped before the cooldown relaxed");
    assert!(half_open < closed, "relaxed before the success closed it");
    assert_eq!(events[open].at_us, 10_700, "tripped when attempt 2 failed");
    assert_eq!(events[half_open].at_us, 11_400, "relaxed at attempt 3");

    // The health probe agrees: recovered, closed, one trip on record.
    let health = runtime.device_health();
    assert_eq!(health[0].state, BreakerState::Closed);
    assert_eq!(health[0].consecutive_failures, 0);
    assert_eq!(health[0].trips, 1);
    assert_eq!(health[0].metrics.faults, 2, "both scripted faults blamed");
}

/// Phase 4 — the bypass lane. With the plan warm and the runtime idle,
/// a lone submit never reaches the scheduler: enqueue, drain, and
/// window close all collapse to the submit instant on the submitting
/// thread, so the queue and linger stages are exactly zero even though
/// the clock never advances past the submit. The flight recorder holds
/// a `Bypass` event in place of an `Admit` for the serve.
#[test]
fn bypassed_request_charges_zero_queue_and_linger() {
    let (runtime, time) = manual_runtime(RuntimeConfig {
        batch_linger_us: 0,
        adaptive_linger: false,
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 7))
        .unwrap();

    time.set_us(2_000);
    // Cold: the first request builds the plan through the scheduler.
    let warm = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 40))
        .unwrap();
    warm.wait().unwrap();
    runtime.drain_events();

    // Warm plan, empty queue, frozen clock: the inline lane serves this
    // on the submitting thread before `submit` even returns.
    let t = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 41))
        .unwrap();
    assert_eq!(runtime.stats().bypassed_requests, 1, "served inline");
    expect(
        t,
        "phase 4 bypassed request",
        ExpectedTimings {
            queue_us: 0,
            linger_us: 0,
            retry_us: 0,
            attempts: 1,
        },
    );
    let events = runtime.drain_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::Bypass { rows: 2, .. })),
        "bypass event on the record: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::Admit { .. })),
        "a bypassed serve is never admitted to a window: {events:?}"
    );
}

/// Phase 5 — deadlines that expire inside a retry backoff. A scripted
/// device fault fails the first sharded execute and the scheduler parks
/// for the 700us backoff. A request whose deadline falls inside that park
/// is shed when it ends, with the post-backoff clock on its error,
/// instead of being served late: (a) a lone request, and (b) one member
/// of a two-request chunk, whose deadline-free sibling the retry still
/// serves (`attempts == 2`, `retry_us == 700`).
#[test]
fn deadline_inside_retry_backoff_is_shed_when_the_backoff_ends() {
    fn faulting_runtime(linger_us: u64) -> (Runtime, Arc<ManualClock>, Model<f64>) {
        let (runtime, time) = manual_runtime(RuntimeConfig {
            max_batch_rows: 32,
            batch_max_m: 16,
            batch_linger_us: linger_us,
            adaptive_linger: false,
            backend: Backend::Distributed {
                gpus: 2,
                p2p: false,
            },
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_us: 700,
                degrade: false,
            },
            ..RuntimeConfig::default()
        });
        let model = runtime
            .load_model(model_factors(&[(4, 4), (4, 4)], 9))
            .unwrap();
        runtime
            .install_fault_plan(FaultPlan::new().panic_on_batch(0, 0))
            .unwrap();
        (runtime, time, model)
    }
    fn expect_shed(ticket: Ticket<f64>, label: &str, deadline_us: u64, now_us: u64) {
        match ticket.wait() {
            Err(KronError::DeadlineExceeded {
                deadline_us: d,
                now_us: n,
            }) => assert_eq!((d, n), (deadline_us, now_us), "{label}"),
            other => panic!("{label}: expected a post-backoff shed, got {other:?}"),
        }
    }

    // (a) A lone request, due at t0 + 300: drained in time, it fails its
    // first execute at t0 and is shed when the backoff ends at t0 + 700.
    let (runtime, time, model) = faulting_runtime(0);
    let t0 = 30_000;
    time.set_us(t0);
    let lone = runtime
        .submit_with(
            &model,
            seq_matrix(4, model.input_cols(), 50),
            SubmitOptions::default().with_deadline_us(t0 + 300),
        )
        .unwrap();
    sync_on(|| runtime.stats().retries == 1);
    time.advance_us(700);
    expect_shed(lone, "phase 5a lone request", t0 + 300, t0 + 700);
    let stats = runtime.stats();
    assert_eq!(stats.retries, 1, "stats: {stats}");
    assert_eq!(stats.deadline_shed, 1, "stats: {stats}");
    assert_eq!(stats.error_replies, 1, "stats: {stats}");
    assert_eq!(stats.batched_requests, 0, "stats: {stats}");
    assert_eq!(stats.solo_requests, 0, "stats: {stats}");

    // (b) Two requests of one model share a 300us window that closes at
    // t0 + 300; the chunk fails there and backs off until t0 + 1_000,
    // past the second request's t0 + 600 deadline.
    let (runtime, time, model) = faulting_runtime(300);
    let t0 = 40_000;
    time.set_us(t0);
    let free = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 60))
        .unwrap();
    sync_on(|| runtime.stats().current_linger_us == 300);
    let timed = runtime
        .submit_with(
            &model,
            seq_matrix(2, model.input_cols(), 61),
            SubmitOptions::default().with_deadline_us(t0 + 600),
        )
        .unwrap();
    // An empty ring means the scheduler drained the second request into
    // the open window.
    sync_on(|| runtime.stats().lanes()[0].depth == 0);
    time.advance_us(300);
    sync_on(|| runtime.stats().retries == 1);
    time.advance_us(700);
    expect_shed(timed, "phase 5b deadline member", t0 + 600, t0 + 1_000);
    expect(
        free,
        "phase 5b deadline-free member",
        ExpectedTimings {
            queue_us: 0,
            linger_us: 300,
            retry_us: 700,
            attempts: 2,
        },
    );
    let stats = runtime.stats();
    assert_eq!(stats.retries, 1, "stats: {stats}");
    assert_eq!(stats.deadline_shed, 1, "stats: {stats}");
    assert_eq!(stats.error_replies, 1, "stats: {stats}");
    assert_eq!(stats.batched_requests, 1, "stats: {stats}");
    assert_eq!(stats.solo_requests, 0, "stats: {stats}");
}
