//! Admission-control contract, time-virtualized via the manual clock:
//! expired deadlines shed without executing, high-priority groups drain
//! before low within a scheduling window, starving low-priority work ages
//! past fresh high-priority traffic, tighter deadlines serve first at
//! equal priority, mixed f32/f64 traffic shares one window and one
//! priority order through the erased runtime, linked batches inherit one
//! deadline atomically, the linger window adapts to load, and a full
//! drain window closes without lingering.

use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, KronError, Matrix};
use kron_runtime::{Clock, ManualClock, Runtime, RuntimeConfig, SubmitOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pumps virtual time forward until the runtime has served `target`
/// requests. The scheduler computes its linger deadline from virtual
/// "now" whenever it opens a window, so a single big advance can land
/// *before* the window opens and never close it; stepping until the work
/// lands is robust against that ordering while staying exact about
/// *which* requests share the window (everything already submitted is
/// drained from the channel before the scheduler re-checks the
/// deadline).
fn pump_until_served(runtime: &Runtime, time: &Arc<ManualClock>, target: u64) {
    while runtime.stats().served < target {
        time.advance_us(50_000);
        std::thread::yield_now();
    }
}

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

fn oracle(x: &Matrix<f64>, factors: &[Matrix<f64>]) -> Matrix<f64> {
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    kron_matmul_shuffle(x, &refs).unwrap()
}

#[test]
fn expired_deadline_sheds_without_executing() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 1);
    let model = runtime.load_model(factors.clone()).unwrap();

    // Virtual now = 1000; the request's deadline (500) already passed.
    time.set_us(1_000);
    let x = seq_matrix(2, model.input_cols(), 3);
    let ticket = runtime
        .submit_with(&model, x, SubmitOptions::default().with_deadline_us(500))
        .unwrap();
    match ticket.wait() {
        Err(KronError::DeadlineExceeded {
            deadline_us,
            now_us,
        }) => {
            assert_eq!(deadline_us, 500);
            assert!(now_us >= 1_000, "shed at virtual {now_us}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Shed before any execute — or even a plan lookup.
    let stats = runtime.stats();
    assert_eq!(stats.deadline_shed, 1, "stats: {stats:?}");
    assert_eq!(stats.served, 1, "shed requests still complete: {stats:?}");
    assert_eq!(stats.plan_misses, 0, "no plan was built: {stats:?}");
    assert_eq!(stats.batches, 0, "stats: {stats:?}");
    assert_eq!(stats.solo_requests, 0, "stats: {stats:?}");
    assert_eq!(stats.batched_requests, 0, "stats: {stats:?}");

    // A timely request on the same runtime still executes correctly.
    let x = seq_matrix(2, model.input_cols(), 4);
    let expected = oracle(&x, &factors);
    let y = runtime
        .execute(&model, x)
        .expect("no-deadline requests are never shed");
    assert_matrices_close(&y, &expected, "timely request after a shed one");
}

#[test]
fn high_priority_groups_drain_before_low_under_a_full_window() {
    // Manual clock + a fixed linger window: the scheduler opens the
    // window on the first submit and cannot close it until virtual time
    // advances, so every request below is guaranteed to share ONE
    // scheduling window — the "full queue" case, deterministically.
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        batch_linger_us: 10_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let f_low = model_factors(&[(4, 4), (4, 4)], 1);
    let f_high = model_factors(&[(2, 2), (2, 2)], 2);
    let low = runtime.load_model(f_low.clone()).unwrap();
    let high = runtime.load_model(f_high.clone()).unwrap();

    // Low-priority group submitted FIRST; high-priority second. Also two
    // solo (large-M) requests with the same priority inversion.
    let mut low_tickets = Vec::new();
    let mut high_tickets = Vec::new();
    for i in 0..3 {
        let x = seq_matrix(2, low.input_cols(), 10 + i);
        low_tickets.push((
            runtime
                .submit_with(&low, x.clone(), SubmitOptions::priority(1))
                .unwrap(),
            oracle(&x, &f_low),
        ));
    }
    for i in 0..3 {
        let x = seq_matrix(2, high.input_cols(), 20 + i);
        high_tickets.push((
            runtime
                .submit_with(&high, x.clone(), SubmitOptions::priority(7))
                .unwrap(),
            oracle(&x, &f_high),
        ));
    }
    let x_solo_low = seq_matrix(12, low.input_cols(), 30);
    let solo_low = (
        runtime
            .submit_with(&low, x_solo_low.clone(), SubmitOptions::priority(0))
            .unwrap(),
        oracle(&x_solo_low, &f_low),
    );
    let x_solo_high = seq_matrix(12, high.input_cols(), 31);
    let solo_high = (
        runtime
            .submit_with(&high, x_solo_high.clone(), SubmitOptions::priority(9))
            .unwrap(),
        oracle(&x_solo_high, &f_high),
    );

    // Close the window: everything above drains as one cycle (all eight
    // submissions completed before any advance, and the scheduler drains
    // the whole channel before re-checking its window deadline).
    pump_until_served(&runtime, &time, 8);

    let low_seqs: Vec<u64> = low_tickets
        .into_iter()
        .enumerate()
        .map(|(i, (t, expected))| {
            let (y, receipt) = t.wait_with_receipt().unwrap();
            assert_matrices_close(&y, &expected, &format!("low request {i}"));
            receipt.seq
        })
        .collect();
    let high_seqs: Vec<u64> = high_tickets
        .into_iter()
        .enumerate()
        .map(|(i, (t, expected))| {
            let (y, receipt) = t.wait_with_receipt().unwrap();
            assert_matrices_close(&y, &expected, &format!("high request {i}"));
            receipt.seq
        })
        .collect();

    // The high-priority group drained before the low one despite
    // arriving later.
    let max_high = *high_seqs.iter().max().unwrap();
    let min_low = *low_seqs.iter().min().unwrap();
    assert!(
        max_high < min_low,
        "high group must fully drain first: high {high_seqs:?} vs low {low_seqs:?}"
    );

    // Same inversion among solos (solos drain after batched groups).
    let (t, expected) = solo_high;
    let (y, high_receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "solo high");
    let (t, expected) = solo_low;
    let (y, low_receipt) = t.wait_with_receipt().unwrap();
    assert_matrices_close(&y, &expected, "solo low");
    assert!(
        high_receipt.seq < low_receipt.seq,
        "high solo ({}) must precede low solo ({})",
        high_receipt.seq,
        low_receipt.seq
    );
    // Every group member, the priority-1 ones included, precedes both
    // solos, the priority-9 one included.
    let last_group = *high_seqs.iter().chain(&low_seqs).max().unwrap();
    assert!(
        last_group < high_receipt.seq.min(low_receipt.seq),
        "groups {high_seqs:?} {low_seqs:?} must precede both solos ({}, {})",
        high_receipt.seq,
        low_receipt.seq
    );

    // And the window really did coalesce: the two groups batched.
    let stats = runtime.stats();
    assert_eq!(stats.batched_requests, 6, "stats: {stats:?}");
    assert_eq!(stats.solo_requests, 2, "stats: {stats:?}");
}

/// The shared setup for the two aging cases below: a low-priority request
/// enqueued 300 virtual ms before a high-priority one, both guaranteed to
/// share ONE scheduling window (the fixed linger holds it open far past
/// the advance). Returns `(low_seq, high_seq)`.
fn aging_inversion_seqs(priority_aging_us: u64) -> (u64, u64) {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        // A very wide fixed window: it cannot close during the 300 ms
        // virtual wait below, so both submissions land in one cycle.
        batch_linger_us: 10_000_000,
        adaptive_linger: false,
        priority_aging_us,
        clock,
        ..RuntimeConfig::default()
    });
    let f_low = model_factors(&[(4, 4), (4, 4)], 1);
    let f_high = model_factors(&[(2, 2), (2, 2)], 2);
    let low = runtime.load_model(f_low.clone()).unwrap();
    let high = runtime.load_model(f_high.clone()).unwrap();

    // The starving request: priority 0, enqueued at t = 0.
    let x_low = seq_matrix(2, low.input_cols(), 10);
    let t_low = runtime
        .submit_with(&low, x_low.clone(), SubmitOptions::priority(0))
        .unwrap();
    // It waits 300 virtual ms (the window is still open), then fresh
    // high-priority traffic arrives.
    time.advance_us(300_000);
    let x_high = seq_matrix(2, high.input_cols(), 20);
    let t_high = runtime
        .submit_with(&high, x_high.clone(), SubmitOptions::priority(7))
        .unwrap();

    pump_until_served(&runtime, &time, 2);
    let (y_low, low_receipt) = t_low.wait_with_receipt().unwrap();
    assert_matrices_close(&y_low, &oracle(&x_low, &f_low), "aged low request");
    let (y_high, high_receipt) = t_high.wait_with_receipt().unwrap();
    assert_matrices_close(&y_high, &oracle(&x_high, &f_high), "fresh high request");
    (low_receipt.seq, high_receipt.seq)
}

#[test]
fn starving_low_priority_ages_past_fresh_high_priority() {
    // With aging at one step per virtual millisecond, 300 ms of queue age
    // boosts priority 0 by ~300 steps over priority 7's head start (both
    // also age while the window drains, but by the same amount — only
    // the 300 ms enqueue gap differs). The starving request drains first.
    let (low_seq, high_seq) = aging_inversion_seqs(1_000);
    assert!(
        low_seq < high_seq,
        "aged low-priority must outrank fresh high-priority: low {low_seq} vs high {high_seq}"
    );
}

#[test]
fn aging_disabled_restores_strict_priority_order() {
    // The identical trace with aging off: static priorities rule and the
    // high-priority request drains first however long the other waited.
    let (low_seq, high_seq) = aging_inversion_seqs(0);
    assert!(
        high_seq < low_seq,
        "with aging disabled strict priority must hold: low {low_seq} vs high {high_seq}"
    );
}

#[test]
fn tighter_deadline_group_serves_first_at_equal_priority() {
    // Three same-priority model groups in one held window, submitted in
    // the order no-deadline, loose-deadline, tight-deadline (arrival
    // order favors the WRONG outcome, so only deadline-aware ordering
    // can produce the right one). All deadlines are far in the future —
    // nothing sheds; the deadline shapes the *order*.
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        batch_linger_us: 200_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let f_none = model_factors(&[(4, 4), (4, 4)], 1);
    let f_loose = model_factors(&[(2, 2), (2, 2)], 2);
    let f_tight = model_factors(&[(3, 3)], 3);
    let none = runtime.load_model(f_none.clone()).unwrap();
    let loose = runtime.load_model(f_loose.clone()).unwrap();
    let tight = runtime.load_model(f_tight.clone()).unwrap();

    let submit_pair = |model: &kron_runtime::Model<f64>,
                       factors: &[Matrix<f64>],
                       seed: usize,
                       opts: SubmitOptions| {
        (0..2)
            .map(|i| {
                let x = seq_matrix(2, model.input_cols(), seed + i);
                let expected = oracle(&x, factors);
                (runtime.submit_with(model, x, opts).unwrap(), expected)
            })
            .collect::<Vec<_>>()
    };
    let now = runtime.now_us();
    let group_none = submit_pair(&none, &f_none, 10, SubmitOptions::priority(2));
    let group_loose = submit_pair(
        &loose,
        &f_loose,
        20,
        SubmitOptions::priority(2).with_deadline_us(now + 1_000_000_000),
    );
    let group_tight = submit_pair(
        &tight,
        &f_tight,
        30,
        SubmitOptions::priority(2).with_deadline_us(now + 500_000_000),
    );

    pump_until_served(&runtime, &time, 6);
    let seqs = |group: Vec<(kron_runtime::Ticket<f64>, Matrix<f64>)>, tag: &str| {
        group
            .into_iter()
            .enumerate()
            .map(|(i, (t, expected))| {
                let (y, receipt) = t.wait_with_receipt().unwrap();
                assert_matrices_close(&y, &expected, &format!("{tag} request {i}"));
                receipt.seq
            })
            .collect::<Vec<u64>>()
    };
    let seq_none = seqs(group_none, "no-deadline");
    let seq_loose = seqs(group_loose, "loose-deadline");
    let seq_tight = seqs(group_tight, "tight-deadline");

    // Full group order: tight < loose < none, despite inverse arrival.
    assert!(
        seq_tight.iter().max() < seq_loose.iter().min(),
        "tightest deadline must drain first: tight {seq_tight:?} vs loose {seq_loose:?}"
    );
    assert!(
        seq_loose.iter().max() < seq_none.iter().min(),
        "deadline-less work drains last at equal priority: loose {seq_loose:?} vs none {seq_none:?}"
    );
}

#[test]
fn mixed_dtype_requests_share_one_window_and_one_priority_order() {
    // The erased runtime's cross-dtype admission contract: f32 and f64
    // requests drain from ONE window in ONE priority order, each batched
    // within its own (typed) model group, every result bit-correct for
    // its dtype.
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        batch_linger_us: 10_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let f_f64 = model_factors(&[(4, 4), (4, 4)], 1);
    let model_f64 = runtime.load_model(f_f64.clone()).unwrap();
    let f_f32: Vec<Matrix<f32>> = (0..2)
        .map(|i| Matrix::from_fn(2, 2, |r, c| ((i * 5 + r * 2 + c) % 7) as f32 - 3.0))
        .collect();
    let model_f32 = runtime.load_model(f_f32.clone()).unwrap();
    let refs_f32: Vec<&Matrix<f32>> = f_f32.iter().collect();

    // Low-priority f32 group submitted FIRST, high-priority f64 second:
    // the f64 group must fully drain before any f32 request, which is
    // only possible if one priority order spans both dtypes.
    let mut f32_tickets = Vec::new();
    for i in 0..3 {
        let x = Matrix::<f32>::from_fn(2, model_f32.input_cols(), |r, c| {
            ((i + 2 * r + c) % 5) as f32 - 2.0
        });
        let expected = kron_core::shuffle::kron_matmul_shuffle(&x, &refs_f32).unwrap();
        f32_tickets.push((
            runtime
                .submit_with(&model_f32, x, SubmitOptions::priority(1))
                .unwrap(),
            expected,
        ));
    }
    let mut f64_tickets = Vec::new();
    for i in 0..3 {
        let x = seq_matrix(2, model_f64.input_cols(), 40 + i);
        f64_tickets.push((
            runtime
                .submit_with(&model_f64, x.clone(), SubmitOptions::priority(7))
                .unwrap(),
            oracle(&x, &f_f64),
        ));
    }

    pump_until_served(&runtime, &time, 6);
    let f64_seqs: Vec<u64> = f64_tickets
        .into_iter()
        .enumerate()
        .map(|(i, (t, expected))| {
            let (y, receipt) = t.wait_with_receipt().unwrap();
            assert_matrices_close(&y, &expected, &format!("f64 request {i}"));
            receipt.seq
        })
        .collect();
    let f32_seqs: Vec<u64> = f32_tickets
        .into_iter()
        .enumerate()
        .map(|(i, (t, expected))| {
            let (y, receipt) = t.wait_with_receipt().unwrap();
            assert_matrices_close(&y, &expected, &format!("f32 request {i}"));
            receipt.seq
        })
        .collect();
    assert!(
        f64_seqs.iter().max() < f32_seqs.iter().min(),
        "high-priority f64 group must drain before the low-priority f32 one: \
         f64 {f64_seqs:?} vs f32 {f32_seqs:?}"
    );

    // Both dtypes batched (one fused execute each), through one runtime.
    let stats = runtime.stats();
    assert_eq!(stats.requests_f32, 3, "stats: {stats:?}");
    assert_eq!(stats.requests_f64, 3, "stats: {stats:?}");
    assert_eq!(stats.batched_requests, 6, "stats: {stats:?}");
    assert_eq!(stats.batches, 2, "stats: {stats:?}");
    assert_eq!(stats.plan_misses, 2, "one entry per dtype: {stats:?}");
}

#[test]
fn linked_batches_inherit_one_deadline_atomically() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 16,
        batch_max_m: 8,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 1);
    let model = runtime.load_model(factors.clone()).unwrap();

    // Late: the whole linked group shares the expired deadline — every
    // member is shed, none executes.
    time.set_us(1_000);
    let xs: Vec<Matrix<f64>> = (0..3)
        .map(|i| seq_matrix(1 + i, model.input_cols(), 40 + i))
        .collect();
    let tickets = runtime
        .submit_linked_with(
            xs.iter().map(|x| (&model, x.clone())).collect(),
            SubmitOptions::priority(3).with_deadline_us(900),
        )
        .unwrap();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Err(KronError::DeadlineExceeded { deadline_us, .. }) => {
                assert_eq!(deadline_us, 900, "request {i}")
            }
            other => panic!("request {i}: expected DeadlineExceeded, got {other:?}"),
        }
    }
    let stats = runtime.stats();
    assert_eq!(stats.deadline_shed, 3, "stats: {stats:?}");
    assert_eq!(stats.plan_misses, 0, "nothing executed: {stats:?}");

    // Timely: the same group with a future deadline fully executes,
    // bit-correct.
    let tickets = runtime
        .submit_linked_with(
            xs.iter().map(|x| (&model, x.clone())).collect(),
            SubmitOptions::priority(3).with_deadline_us(runtime.now_us() + 1_000_000),
        )
        .unwrap();
    for (i, (t, x)) in tickets.into_iter().zip(xs.iter()).enumerate() {
        let y = t.wait().unwrap();
        assert_matrices_close(&y, &oracle(x, &factors), &format!("timely linked {i}"));
    }
    let stats = runtime.stats();
    assert_eq!(stats.deadline_shed, 3, "no further sheds: {stats:?}");
    assert_eq!(stats.served, 6, "stats: {stats:?}");
}

#[test]
fn adaptive_linger_breathes_with_load() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 8,
        batch_linger_us: 400,
        adaptive_linger: true,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 1);
    let model = runtime.load_model(factors.clone()).unwrap();
    let expected1 = oracle(&seq_matrix(1, model.input_cols(), 0), &factors);

    // Burst phase: linked batches arrive atomically, so once the
    // scheduler drains one whole burst in a cycle the smoothed depth
    // crosses the linger threshold and the gauge opens. (Bounded retry
    // only because a cycle may catch a partial burst; one pass is the
    // overwhelmingly common case.)
    let mut opened = 0;
    for round in 0..50 {
        let xs: Vec<Matrix<f64>> = (0..12)
            .map(|i| seq_matrix(1, model.input_cols(), 100 * round + i))
            .collect();
        let tickets = runtime
            .submit_linked(xs.iter().map(|x| (&model, x.clone())).collect())
            .unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        opened = runtime.stats().current_linger_us;
        if opened > 0 {
            break;
        }
    }
    assert!(opened > 0, "linger must open under burst load");
    assert!(opened <= 400, "linger never exceeds the cap");

    // Sequential phase: strictly one request per cycle decays the
    // smoothed depth back to one, collapsing the window to zero — solo
    // traffic pays no linger latency.
    for i in 0..64 {
        let x = seq_matrix(1, model.input_cols(), i);
        let y = runtime.execute(&model, x).unwrap();
        if i == 0 {
            assert_matrices_close(&y, &expected1, "sequential request 0");
        }
    }
    assert_eq!(
        runtime.stats().current_linger_us,
        0,
        "sequential traffic must not linger"
    );
}

#[test]
fn fixed_linger_reports_the_cap() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        batch_linger_us: 750,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(2, 2)], 1);
    let model = runtime.load_model(factors.clone()).unwrap();
    let x = seq_matrix(1, model.input_cols(), 0);
    let ticket = runtime.submit(&model, x.clone()).unwrap();
    pump_until_served(&runtime, &time, 1);
    let y = ticket.wait().unwrap();
    assert_matrices_close(&y, &oracle(&x, &factors), "fixed-linger request");
    assert_eq!(runtime.stats().current_linger_us, 750);
}

/// The drain window holds at most 1024 requests: a window that fills
/// closes at once, however long the linger it opened with, and the
/// overflow waits in the next window.
#[test]
fn window_cap_closes_a_full_window_without_lingering() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    time.set_us(1_000);
    let runtime = Runtime::new(RuntimeConfig {
        // One batch can take a whole window, so the batch count shows
        // how many windows served the first 1024.
        max_batch_rows: 1024,
        batch_linger_us: 10_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(2, 2), (2, 2)], 3);
    let model = runtime.load_model(factors.clone()).unwrap();
    let xs: Vec<Matrix<f64>> = (0..1032)
        .map(|i| seq_matrix(1, model.input_cols(), i))
        .collect();
    let tickets = runtime
        .submit_linked(xs.iter().map(|x| (&model, x.clone())).collect())
        .unwrap();

    // The first window fills to the cap and is served with virtual time
    // standing still: it never lingered.
    let start = Instant::now();
    while runtime.stats().served < 1024 {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "a full window never closed: served {}",
            runtime.stats().served
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(time.now_us(), 1_000);
    // Waiting on the served tickets orders the next read after their
    // batch was counted.
    let mut tickets = tickets.into_iter();
    let mut ys: Vec<Matrix<f64>> = tickets
        .by_ref()
        .take(1024)
        .map(|t| t.wait().unwrap())
        .collect();
    assert_eq!(runtime.stats().batches, 1, "one full window, one batch");

    // The last 8 opened a second window, which lingers on the clock.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(runtime.stats().served, 1024);

    pump_until_served(&runtime, &time, 1032);
    ys.extend(tickets.map(|t| t.wait().unwrap()));
    for (i, (y, x)) in ys.iter().zip(&xs).enumerate() {
        assert_matrices_close(y, &oracle(x, &factors), &format!("request {i}"));
    }
}

/// An already-expired deadline sheds with `DeadlineExceeded` before any
/// plan lookup or execution on BOTH lanes: inline on the bypass lane
/// (resolved at submit time, no scheduler round-trip) and at drain time
/// on the scheduler lane. The two lanes must account the shed
/// identically — same counters, same error payload.
#[test]
fn expired_deadline_sheds_identically_on_both_lanes() {
    let run = |inline_bypass: bool| {
        let clock = Clock::manual();
        let time = clock.manual_handle().unwrap();
        let runtime = Runtime::new(RuntimeConfig {
            inline_bypass,
            batch_linger_us: 0,
            adaptive_linger: false,
            clock,
            ..RuntimeConfig::default()
        });
        let factors = model_factors(&[(4, 4), (4, 4)], 5);
        let model = runtime.load_model(factors.clone()).unwrap();

        // Warm the plan through the scheduler (the first submit is cold
        // on either lane), then claim it so the bypass gate sees an idle
        // runtime.
        time.set_us(1_000);
        let x = seq_matrix(2, model.input_cols(), 6);
        let expected = oracle(&x, &factors);
        let warm = runtime.submit(&model, x).unwrap();
        pump_until_served(&runtime, &time, 1);
        let y = warm.wait().unwrap();
        assert_matrices_close(&y, &expected, "warming request");

        // Pumping the warm-up moved virtual time an unknown amount, so
        // the expired deadline is relative to where it stopped: now moves
        // 1_000_000 on, and the deadline (500_000 on) already passed.
        let warmed = time.now_us();
        time.advance_us(1_000_000);
        let deadline = warmed + 500_000;
        let t = runtime
            .submit_with(
                &model,
                seq_matrix(2, model.input_cols(), 7),
                SubmitOptions::default().with_deadline_us(deadline),
            )
            .unwrap();
        if inline_bypass {
            // The bypass lane resolves the shed inline at submit time —
            // no pumping, no scheduler involvement.
            assert_eq!(runtime.stats().served, 2, "shed resolved inline");
        }
        pump_until_served(&runtime, &time, 2);
        match t.wait() {
            Err(KronError::DeadlineExceeded {
                deadline_us,
                now_us,
            }) => {
                assert_eq!(deadline_us, deadline);
                assert!(now_us >= warmed + 1_000_000, "shed at virtual {now_us}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        runtime.stats()
    };

    let bypass = run(true);
    let sched = run(false);
    for (name, a, b) in [
        ("submitted", bypass.submitted, sched.submitted),
        ("served", bypass.served, sched.served),
        ("deadline_shed", bypass.deadline_shed, sched.deadline_shed),
        ("error_replies", bypass.error_replies, sched.error_replies),
        ("plan_hits", bypass.plan_hits, sched.plan_hits),
        ("plan_misses", bypass.plan_misses, sched.plan_misses),
        (
            "inflight_requests",
            bypass.inflight_requests,
            sched.inflight_requests,
        ),
    ] {
        assert_eq!(a, b, "{name} must match across lanes");
    }
    assert_eq!(bypass.deadline_shed, 1, "stats: {bypass:?}");
    assert_eq!(bypass.error_replies, 1, "stats: {bypass:?}");
    assert_eq!(bypass.served, 2, "stats: {bypass:?}");
    assert_eq!(bypass.inflight_requests, 0, "nothing left unclaimed");
    // The shed never ran: no bypassed success was recorded on either
    // lane (the shed is an error reply, not a bypassed serve).
    assert_eq!(bypass.bypassed_requests, 0, "stats: {bypass:?}");
}

/// The bypass eligibility gate is scoped to the **submit lane**, not the
/// whole runtime: an unclaimed ticket pinning one lane's inflight gauge
/// at 1 closes the bypass door for models hashed to that lane only —
/// a warm model on an idle sibling lane still serves inline.
#[test]
fn bypass_eligibility_is_scoped_to_the_submit_lane() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        scheduler_lanes: 4,
        batch_linger_us: 0,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    time.set_us(1_000);

    // Lane placement hashes the plan shape, so hash-distinct chains
    // land on different lanes; pick the first two that diverge.
    let chains: &[&[(usize, usize)]] = &[
        &[(4, 4), (4, 4)],
        &[(8, 8)],
        &[(16, 16)],
        &[(2, 2), (2, 2)],
        &[(2, 2), (2, 2), (2, 2)],
        &[(4, 4), (4, 4), (4, 4)],
        &[(2, 2), (4, 4)],
        &[(4, 4), (2, 2)],
    ];
    let mut models = Vec::new();
    for (i, chain) in chains.iter().enumerate() {
        let factors = model_factors(chain, 11 + i);
        let model = runtime.load_model(factors.clone()).unwrap();
        let lane = runtime.lane_for(&model);
        models.push((model, factors, lane));
    }
    let free_idx = (1..models.len())
        .find(|&i| models[i].2 != models[0].2)
        .expect("two of eight shape chains must hash to distinct lanes");
    let (held_model, held_factors, held_lane) = &models[0];
    let (free_model, free_factors, free_lane) = &models[free_idx];
    let (held_lane, free_lane) = (*held_lane, *free_lane);

    // Warm both plans through the scheduler (first submits are cold).
    for (model, factors) in [(held_model, held_factors), (free_model, free_factors)] {
        let x = seq_matrix(2, model.input_cols(), 6);
        let t = runtime.submit(model, x.clone()).unwrap();
        pump_until_served(&runtime, &time, runtime.stats().submitted);
        assert_matrices_close(&t.wait().unwrap(), &oracle(&x, factors), "warming request");
    }

    // Pin the held lane: a warm-plan submit bypasses inline, but its
    // admission claim is only released when the ticket is claimed — so
    // leaving the ticket unwaited keeps the lane's inflight gauge at 1.
    let hold = runtime
        .submit(held_model, seq_matrix(2, held_model.input_cols(), 30))
        .unwrap();
    let pinned = runtime.stats();
    assert_eq!(pinned.bypassed_requests, 1, "stats: {pinned:?}");
    assert_eq!(pinned.lanes()[held_lane].inflight, 1, "stats: {pinned:?}");
    assert_eq!(pinned.lanes()[free_lane].inflight, 0, "stats: {pinned:?}");

    // The idle sibling lane's door is still open: a warm model hashed
    // there serves inline at submit time.
    let x_free = seq_matrix(2, free_model.input_cols(), 31);
    let t_free = runtime.submit(free_model, x_free.clone()).unwrap();
    let after_free = runtime.stats();
    assert_eq!(
        after_free.bypassed_requests, 2,
        "idle lane must bypass: {after_free:?}"
    );
    assert_eq!(after_free.lanes()[free_lane].bypassed_requests, 1);

    // The pinned lane's door is closed: the same warm model that just
    // bypassed now routes through the scheduler instead.
    let x_held = seq_matrix(2, held_model.input_cols(), 32);
    let t_held = runtime.submit(held_model, x_held.clone()).unwrap();
    let after_held = runtime.stats();
    assert_eq!(
        after_held.bypassed_requests, 2,
        "pinned lane must not bypass: {after_held:?}"
    );

    pump_until_served(&runtime, &time, after_held.submitted);
    assert_matrices_close(
        &t_free.wait().unwrap(),
        &oracle(&x_free, free_factors),
        "bypassed",
    );
    assert_matrices_close(
        &t_held.wait().unwrap(),
        &oracle(&x_held, held_factors),
        "batched",
    );
    drop(hold);

    let stats = runtime.stats();
    assert_eq!(stats.inflight_requests, 0, "stats: {stats:?}");
    for (i, lane) in stats.lanes().iter().enumerate() {
        assert_eq!(lane.inflight, 0, "lane {i} gauge: {lane:?}");
    }
    assert_eq!(stats.lanes()[held_lane].bypassed_requests, 1, "the hold");
    runtime.shutdown();
}
