//! Observability contract against the public runtime API: the stats
//! decomposition invariant (`served == batched + solo + error_replies`),
//! per-stage and per-outcome latency histograms, the per-model registry,
//! what the plan-lookup counters count, the flight recorder's causal
//! event trace under a chaos drill, and the stable JSON / Prometheus
//! renderings of one coherent snapshot.

use kron_core::{KronError, Matrix};
use kron_runtime::{
    Backend, BreakerPolicy, Clock, FaultPlan, HistogramSnapshot, ManualClock, Outcome, Runtime,
    RuntimeConfig, ServeEventKind, Stage, SubmitOptions,
};
use std::sync::Arc;

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

/// Pumps virtual time forward until the runtime has served `target`
/// requests (see `tests/admission.rs` for why stepping beats one big
/// advance).
fn pump_until_served(runtime: &Runtime, time: &Arc<ManualClock>, target: u64) {
    while runtime.stats().served < target {
        time.advance_us(50_000);
        std::thread::yield_now();
    }
}

/// Mixed traffic — a batched group, a large-M solo, and an
/// expired-deadline shed — must decompose `served` exactly: every reply
/// lands in exactly one of `batched_requests`, `solo_requests`, or
/// `error_replies`. (Before the centralized reply path, error replies
/// leaked into the batched/solo counters, so nothing pinned this.)
#[test]
fn served_decomposes_into_batched_solo_and_error_replies() {
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
    let factors = model_factors(&[(4, 4), (4, 4)], 1);
    let model = runtime.load_model(factors).unwrap();

    time.set_us(1_000);
    // One window: three batchable members, one large-M solo, one request
    // whose deadline (500) already passed at virtual now = 1000.
    let mut tickets = Vec::new();
    for i in 0..3 {
        let x = seq_matrix(2, model.input_cols(), 10 + i);
        tickets.push(runtime.submit(&model, x).unwrap());
    }
    let solo_x = seq_matrix(16, model.input_cols(), 20);
    tickets.push(runtime.submit(&model, solo_x).unwrap());
    let shed_x = seq_matrix(2, model.input_cols(), 30);
    let shed = runtime
        .submit_with(
            &model,
            shed_x,
            SubmitOptions::default().with_deadline_us(500),
        )
        .unwrap();

    pump_until_served(&runtime, &time, 5);
    for t in tickets {
        t.wait().expect("timely requests serve");
    }
    shed.wait().expect_err("expired deadline must shed");

    let stats = runtime.stats();
    assert_eq!(stats.served, 5, "stats: {stats}");
    assert_eq!(stats.batched_requests, 3, "stats: {stats}");
    assert_eq!(stats.solo_requests, 1, "stats: {stats}");
    assert_eq!(stats.error_replies, 1, "stats: {stats}");
    assert_eq!(stats.deadline_shed, 1, "stats: {stats}");
    assert_eq!(
        stats.served,
        stats.batched_requests + stats.solo_requests + stats.error_replies,
        "decomposition invariant: {stats}"
    );
    assert_eq!(stats.submitted, stats.served, "nothing in flight: {stats}");

    // The same traffic, attributed in the histograms: every stage saw
    // every reply, and the outcomes split 4 ok / 1 shed / 0 error.
    let snap = runtime.metrics_snapshot();
    for (stage, h) in &snap.stages {
        assert_eq!(h.count, 5, "stage {} saw every reply", stage.name());
    }
    let outcome = |want: Outcome| {
        snap.outcomes
            .iter()
            .find(|(o, _)| *o == want)
            .map(|(_, h)| h.count)
            .unwrap()
    };
    assert_eq!(outcome(Outcome::Ok), 4);
    assert_eq!(outcome(Outcome::Shed), 1);
    assert_eq!(outcome(Outcome::Error), 0);
}

/// The per-model registry attributes serves, plan hits, and plan misses
/// to the plan key that served them.
#[test]
fn model_registry_tracks_serves_hits_and_misses() {
    let runtime = Runtime::new(RuntimeConfig {
        batch_linger_us: 0,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 3);
    let model = runtime.load_model(factors).unwrap();

    for i in 0..3 {
        let x = seq_matrix(2, model.input_cols(), 40 + i);
        runtime.execute(&model, x).unwrap();
    }

    let models = runtime.model_stats();
    let entry = models
        .iter()
        .find(|m| m.shape_key == model.shape_key())
        .expect("served model is in the registry");
    assert_eq!(entry.serves, 3, "entry: {entry:?}");
    assert_eq!(entry.errors, 0, "entry: {entry:?}");
    assert_eq!(entry.plan_misses, 1, "first lookup builds: {entry:?}");
    assert_eq!(entry.plan_hits, 2, "warm lookups hit: {entry:?}");
    assert_eq!(entry.latency.count, 3, "entry: {entry:?}");
    assert!(!entry.overflow);
}

/// `plan_hits` and `plan_misses` count cache lookups, not requests or
/// builds: a batch of 8 requests served as one execute looks its entry up
/// once, and a lookup whose build fails still counts as a miss.
#[test]
fn plan_counters_count_lookups_not_requests_or_builds() {
    // Manual clock + a fixed linger, as in `tests/admission.rs`: the
    // window cannot close before the whole linked batch is queued.
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        batch_linger_us: 10_000,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 5))
        .unwrap();
    let warm = runtime
        .submit(&model, seq_matrix(1, model.input_cols(), 50))
        .unwrap();
    pump_until_served(&runtime, &time, 1);
    warm.wait().unwrap();
    let before = runtime.stats();
    let batch = (0..8)
        .map(|i| (&model, seq_matrix(1, model.input_cols(), 60 + i)))
        .collect();
    let tickets = runtime.submit_linked(batch).unwrap();
    pump_until_served(&runtime, &time, before.served + 8);
    for t in tickets {
        t.wait().unwrap();
    }
    let after = runtime.stats();
    assert_eq!(after.batches - before.batches, 1, "{after}");
    assert_eq!(after.batched_requests - before.batched_requests, 8);
    assert_eq!(
        after.plan_hits - before.plan_hits,
        1,
        "one lookup per batch"
    );
    assert_eq!(after.plan_misses, before.plan_misses);

    // Three GPUs form no grid, so every build fails, and every failed
    // build is a miss that caches nothing.
    let runtime = Runtime::new(RuntimeConfig {
        backend: Backend::Distributed {
            gpus: 3,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 6))
        .unwrap();
    for i in 0..3 {
        let x = seq_matrix(2, model.input_cols(), 70 + i);
        let err = runtime.execute(&model, x).unwrap_err();
        assert!(matches!(err, KronError::InvalidGrid { .. }), "{err:?}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, 3, "{stats}");
    assert_eq!(stats.plan_hits, 0, "{stats}");
    assert_eq!(stats.cached_entries, 0, "{stats}");
}

/// A chaos drill leaves a causal post-mortem in the flight recorder:
/// admit, the injected fault, the failed execute, the blamed device, the
/// eviction, the retry, and the recovering execute — in that order, with
/// non-decreasing timestamps. A second drain starts after the first.
#[test]
fn flight_recorder_yields_causally_ordered_chaos_trace() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 5);
    let model = runtime.load_model(factors).unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(0, 0))
        .unwrap();

    let x = seq_matrix(4, model.input_cols(), 50);
    let t = runtime.submit(&model, x).unwrap();
    let (_, receipt) = t.wait_with_receipt().unwrap();
    assert!(receipt.attempts > 1, "receipt: {receipt}");

    let events = runtime.drain_events();
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[0].at_us <= w[1].at_us, "timestamps are causal");
    }
    let pos = |pred: &dyn Fn(&ServeEventKind) -> bool| events.iter().position(|e| pred(&e.kind));
    let admit = pos(&|k| matches!(k, ServeEventKind::Admit { .. })).expect("admit");
    let injected =
        pos(&|k| matches!(k, ServeEventKind::FaultInjected { gpu: 0, .. })).expect("injected");
    let failed = pos(&|k| matches!(k, ServeEventKind::Execute { ok: false, .. })).expect("failed");
    let fault = pos(&|k| matches!(k, ServeEventKind::Fault { gpu: 0, .. })).expect("fault");
    let eviction = pos(&|k| matches!(k, ServeEventKind::Eviction { .. })).expect("eviction");
    let retry = pos(&|k| matches!(k, ServeEventKind::Retry { attempt: 2, .. })).expect("retry");
    let recovered = events
        .iter()
        .rposition(|e| matches!(e.kind, ServeEventKind::Execute { ok: true, .. }))
        .expect("recovered");
    assert!(admit < injected, "admitted before the fault armed");
    assert!(injected < failed, "armed before the execute failed");
    assert!(failed < fault, "execute failed before blame assigned");
    assert!(fault < eviction, "blamed before the engine was evicted");
    assert!(eviction < retry, "evicted before the retry was scheduled");
    assert!(retry < recovered, "retried before the recovery execute");

    // The drain cursor advanced: nothing served since, nothing returned.
    assert!(runtime.drain_events().is_empty());
}

/// The snapshot renders to stable JSON and Prometheus text carrying the
/// counters, stage histograms, model registry, and device registry.
#[test]
fn snapshot_renders_stable_json_and_prometheus_text() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 2,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 7);
    let model = runtime.load_model(factors).unwrap();
    for i in 0..2 {
        let x = seq_matrix(4, model.input_cols(), 60 + i);
        runtime.execute(&model, x).unwrap();
    }

    let snap = runtime.metrics_snapshot();
    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for needle in [
        "\"served\":2",
        "\"error_replies\":0",
        "\"stages\":{\"queue\":",
        "\"total\":{\"count\":2",
        "\"outcomes\":{\"ok\":",
        "\"models\":[{\"dtype\":\"f64\"",
        "\"devices\":[{\"gpu\":0,",
        "\"scheduler_lanes\":1",
        "\"lanes\":[{\"lane\":0,",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }

    let prom = snap.to_prometheus();
    for needle in [
        "# TYPE kron_served_total counter\nkron_served_total 2",
        "# TYPE kron_stage_total_us histogram",
        "kron_stage_total_us_bucket{le=\"+Inf\"} 2",
        "kron_stage_total_us_count 2",
        "kron_model_serves_total{dtype=\"f64\"",
        "kron_device_executes_total{gpu=\"0\"} 2",
        "# TYPE kron_scheduler_lanes gauge\nkron_scheduler_lanes 1",
        "kron_lane_served_total{lane=\"0\"} 2",
    ] {
        assert!(prom.contains(needle), "missing {needle} in {prom}");
    }

    // Per-device execute latencies surfaced through device_health too.
    let health = runtime.device_health();
    assert_eq!(health.len(), 2);
    for d in &health {
        assert_eq!(d.metrics.executes, 2, "device {}: {d:?}", d.gpu);
        assert_eq!(d.metrics.faults, 0);
        assert_eq!(d.metrics.exec_latency.count, 2);
    }
}

/// Every Prometheus family is one contiguous group: typed once, with
/// each sample right under its own `# TYPE` line (a histogram's samples
/// add `_bucket`, `_sum` or `_count`). The device families used to
/// alternate device by device, splitting both as soon as a runtime had
/// two GPUs.
#[test]
fn prometheus_families_are_contiguous_on_a_multi_gpu_runtime() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 2,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let model = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 13))
        .unwrap();
    runtime
        .execute(&model, seq_matrix(4, model.input_cols(), 80))
        .unwrap();

    let prom = runtime.metrics_snapshot().to_prometheus();
    let mut typed: Vec<(&str, &str)> = Vec::new();
    for line in prom.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl.split_once(' ').expect("# TYPE <family> <kind>");
            assert!(
                typed.iter().all(|&(f, _)| f != family),
                "{family} typed twice:\n{prom}"
            );
            typed.push((family, kind));
            continue;
        }
        let sample = line.split(['{', ' ']).next().unwrap_or_default();
        let &(family, kind) = typed.last().expect("a sample before any # TYPE line");
        let suffix = sample.strip_prefix(family);
        let own = suffix == Some("")
            || (kind == "histogram" && matches!(suffix, Some("_bucket" | "_sum" | "_count")));
        assert!(own, "`{line}` is not in family {family}:\n{prom}");
    }
    // The per-lane reply classes export beside the lane's served total.
    for class in [
        "batched_requests",
        "solo_requests",
        "bypassed_requests",
        "error_replies",
    ] {
        let family = format!("kron_lane_{class}_total");
        assert!(
            typed.contains(&(family.as_str(), "counter")),
            "missing {family}:\n{prom}"
        );
    }
}

/// Each fact the runtime reports has one source, so the counters that
/// restate another record agree with it on one snapshot. The traffic
/// covers a bypass, a batch, a deadline shed, plan misses and hits, and
/// a scripted device fault that trips a breaker.
#[test]
fn counters_agree_with_the_records_they_restate() {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        // A fixed window holds the linked group below in one batch.
        batch_linger_us: 20_000,
        adaptive_linger: false,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        breaker: BreakerPolicy {
            trip_after: 1,
            ..BreakerPolicy::default()
        },
        ..RuntimeConfig::default()
    });
    // 3×3 factors do not shard over a 2×2 grid: the model serves from a
    // local entry, built by its first request (a plan miss) and found
    // warm by the second, which the idle runtime serves inline.
    let local = runtime
        .load_model(model_factors(&[(3, 3), (3, 3)], 15))
        .unwrap();
    for i in 0..2 {
        runtime
            .execute(&local, seq_matrix(2, local.input_cols(), 90 + i))
            .unwrap();
    }
    // A shardable model: a linked batch whose first sharded execute
    // faults on device 0, tripping its breaker before the retry serves
    // it, and a request whose deadline has already passed.
    let sharded = runtime
        .load_model(model_factors(&[(4, 4), (4, 4)], 17))
        .unwrap();
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(0, 0))
        .unwrap();
    let batch = runtime
        .submit_linked(
            (0..3)
                .map(|i| (&sharded, seq_matrix(2, sharded.input_cols(), 100 + i)))
                .collect(),
        )
        .unwrap();
    let shed = runtime
        .submit_with(
            &sharded,
            seq_matrix(2, sharded.input_cols(), 110),
            SubmitOptions::default().with_deadline_us(0),
        )
        .unwrap();
    for t in batch {
        t.wait().expect("the fault is retried away");
    }
    shed.wait().expect_err("an expired deadline sheds");

    let snap = runtime.metrics_snapshot();
    let stats = snap.stats;
    assert!(stats.bypassed_requests >= 1, "stats: {stats}");
    assert!(stats.batches >= 1, "stats: {stats}");
    assert!(stats.deadline_shed >= 1, "stats: {stats}");
    assert!(stats.plan_hits >= 1, "stats: {stats}");
    assert!(stats.plan_misses >= 1, "stats: {stats}");
    assert!(stats.breaker_trips >= 1, "stats: {stats}");

    assert_eq!(stats.submitted, stats.requests_f32 + stats.requests_f64);
    let models = &snap.models;
    assert_eq!(stats.plan_hits, models.iter().map(|m| m.plan_hits).sum());
    assert_eq!(
        stats.plan_misses,
        models.iter().map(|m| m.plan_misses).sum()
    );
    let outcome = |want: Outcome| {
        snap.outcomes
            .iter()
            .find(|(o, _)| *o == want)
            .map(|(_, h)| *h)
            .unwrap()
    };
    assert_eq!(stats.deadline_shed, outcome(Outcome::Shed).count);
    let trips: u64 = runtime.device_health().iter().map(|d| d.trips).sum();
    assert_eq!(stats.breaker_trips, trips);
    let total = snap
        .stages
        .iter()
        .find(|(s, _)| *s == Stage::Total)
        .map(|(_, h)| *h)
        .unwrap();
    let mut outcomes_sum = HistogramSnapshot::default();
    for &o in &Outcome::ALL {
        let h = outcome(o);
        for (sum, b) in outcomes_sum.buckets.iter_mut().zip(h.buckets) {
            *sum += b;
        }
        outcomes_sum.count += h.count;
        outcomes_sum.sum_us += h.sum_us;
    }
    assert_eq!(total, outcomes_sum);
    assert_eq!(stats.cached_entries, runtime.cached_entries() as u64);
    assert_eq!(stats.cached_bytes, runtime.cached_bytes() as u64);
}

/// Percentile readout walks the log2 buckets and interpolates inside the
/// bucket holding the requested rank, so readouts stay within the span of
/// an occupied bucket instead of snapping to its upper bound.
#[test]
fn snapshot_percentiles_read_from_log2_buckets() {
    let runtime = Runtime::new(RuntimeConfig::default());
    let factors = model_factors(&[(4, 4), (4, 4)], 9);
    let model = runtime.load_model(factors).unwrap();
    for i in 0..8 {
        let x = seq_matrix(2, model.input_cols(), 70 + i);
        runtime.execute(&model, x).unwrap();
    }
    let snap = runtime.metrics_snapshot();
    let total = snap
        .stages
        .iter()
        .find(|(s, _)| *s == Stage::Total)
        .map(|(_, h)| *h)
        .unwrap();
    assert_eq!(total.count, 8);
    let p50 = total.percentile(0.50);
    let p99 = total.percentile(0.99);
    assert!(p50 <= p99, "p50 {p50} <= p99 {p99}");
    // Every percentile readout interpolates inside an occupied log2
    // bucket: bucket 0 holds exactly 0, bucket i spans [2^(i-1), 2^i - 1].
    let inside_occupied = |v: u64| {
        total
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .any(|(i, _)| {
                if i == 0 {
                    v == 0
                } else {
                    v >= (1u64 << (i - 1)) && v < (1u64 << i)
                }
            })
    };
    for p in [p50, p99] {
        assert!(inside_occupied(p), "inside an occupied bucket, got {p}");
    }
}

/// A bypassed request's receipt proves it never touched the scheduler:
/// the queue and linger stages are exactly zero (enqueue, drain, and
/// window close collapse to the submit instant), it served in one
/// attempt, and the flight recorder holds a `Bypass` event for it. The
/// batching outcome histogram attributes it to the `bypass` outcome, and
/// `bypassed_requests` joins the served decomposition.
#[test]
fn bypass_receipt_reports_zero_queue_and_linger() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        batch_linger_us: 0,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 11);
    let model = runtime.load_model(factors).unwrap();

    // Warm the plan through the scheduler, then retire its traffic from
    // the recorder so the drain below covers only the bypassed serve.
    time.set_us(1_000);
    let warm = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 12))
        .unwrap();
    pump_until_served(&runtime, &time, 1);
    warm.wait().unwrap();
    runtime.drain_events();

    // Idle runtime + warm plan: this submit takes the inline lane.
    let t = runtime
        .submit(&model, seq_matrix(2, model.input_cols(), 13))
        .unwrap();
    let (_, receipt) = t.wait_with_receipt().unwrap();
    assert_eq!(receipt.timings.queue_us, 0, "receipt: {receipt}");
    assert_eq!(receipt.timings.linger_us, 0, "receipt: {receipt}");
    assert_eq!(receipt.attempts, 1, "receipt: {receipt}");

    let stats = runtime.stats();
    assert_eq!(stats.bypassed_requests, 1, "stats: {stats}");
    assert_eq!(stats.served, 2, "stats: {stats}");
    assert_eq!(
        stats.served,
        stats.batched_requests + stats.solo_requests + stats.bypassed_requests,
        "decomposition invariant: {stats}"
    );

    // The flight recorder carries the lane decision: a Bypass event
    // (with the executed row count) and no Admit for this serve.
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
        "a bypassed request is never admitted to a window: {events:?}"
    );

    // The outcome histogram attributes it to the bypass lane.
    let snap = runtime.metrics_snapshot();
    let outcome = |want: Outcome| {
        snap.outcomes
            .iter()
            .find(|(o, _)| *o == want)
            .map(|(_, h)| h.count)
            .unwrap()
    };
    assert_eq!(outcome(Outcome::Bypass), 1);
    assert_eq!(outcome(Outcome::Ok), 1, "the warming serve");
}

/// The `inflight_requests` gauge (global and per lane) must reconcile
/// to zero after every traffic pattern — including tickets **dropped
/// unclaimed** after an error reply, the path where a double decrement
/// (once at reply, once at ticket drop) would underflow the gauge. A
/// slot releases its admission exactly once: `wait`/`take_blocking` if
/// the ticket is claimed, the slot's `Drop` otherwise.
#[test]
fn inflight_gauge_reconciles_to_zero_after_abandoned_tickets() {
    let clock = Clock::manual();
    let time = clock.manual_handle().unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 8,
        batch_linger_us: 0,
        adaptive_linger: false,
        clock,
        ..RuntimeConfig::default()
    });
    let factors = model_factors(&[(4, 4), (4, 4)], 23);
    let model = runtime.load_model(factors).unwrap();
    time.set_us(10_000);

    // Waited Ok replies, abandoned Ok replies, and — the underflow
    // hazard — abandoned *error* replies (expired deadlines shed with
    // DeadlineExceeded, ticket dropped without waiting).
    let mut waited = Vec::new();
    let mut abandoned = Vec::new();
    for i in 0..4 {
        waited.push(
            runtime
                .submit(&model, seq_matrix(2, model.input_cols(), 40 + i))
                .unwrap(),
        );
        abandoned.push(
            runtime
                .submit(&model, seq_matrix(2, model.input_cols(), 50 + i))
                .unwrap(),
        );
        abandoned.push(
            runtime
                .submit_with(
                    &model,
                    seq_matrix(2, model.input_cols(), 60 + i),
                    SubmitOptions::default().with_deadline_us(500),
                )
                .unwrap(),
        );
    }
    pump_until_served(&runtime, &time, 12);
    let mid = runtime.stats();
    assert!(
        mid.inflight_requests <= 12,
        "gauge can never exceed admissions: {mid:?}"
    );
    for t in waited {
        t.wait().expect("timely requests serve");
    }
    // Dropping unclaimed tickets releases their admission through the
    // slot's Drop — exactly once each, error replies included.
    drop(abandoned);

    let stats = runtime.stats();
    assert_eq!(stats.served, 12, "stats: {stats:?}");
    assert_eq!(stats.error_replies, 4, "the shed requests: {stats:?}");
    assert_eq!(
        stats.inflight_requests, 0,
        "global gauge must return to zero: {stats:?}"
    );
    for (i, lane) in stats.lanes().iter().enumerate() {
        assert_eq!(
            lane.inflight, 0,
            "lane {i} gauge must return to zero: {lane:?}"
        );
        assert_eq!(
            lane.batched_requests
                + lane.solo_requests
                + lane.bypassed_requests
                + lane.error_replies,
            lane.served,
            "lane {i} decomposition: {lane:?}"
        );
    }
    runtime.shutdown();
}
