//! The serving flight deck: per-request stage timelines, zero-alloc
//! latency histograms, per-model / per-device registries, and the chaos
//! flight recorder — driven by a mixed f32/f64 burst with one scripted
//! device fault in the middle.
//!
//! The tour:
//!
//! 1. serve a burst of batched f32 and f64 requests plus one large solo,
//!    with a one-shot device panic injected mid-burst (retried away);
//! 2. read one request's `ServeReceipt` — the exact microseconds it
//!    spent queued, lingering, planning, executing, scattering, and
//!    waiting out retry backoff;
//! 3. read the `RuntimeStats` table and the decomposition invariant
//!    (`served == batched + solo + error_replies`);
//! 4. read the `MetricsSnapshot` — per-stage/per-outcome histograms with
//!    p50/p95/p99, the per-model registry, the per-device registry — and
//!    render it as JSON and Prometheus text;
//! 5. drain the flight recorder: the burst's admits, batches, executes,
//!    the injected fault, the blame, the eviction, and the retry, in
//!    causal order.
//!
//! Run with `cargo run --release --example serving_observability`.

use fastkron::prelude::*;

fn f64_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 3 * r * cols + c) % 13) as f64 - 6.0
    })
}

fn f32_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 5 * r * cols + 2 * c) % 11) as f32 - 5.0
    })
}

fn event_line(e: &ServeEvent) -> String {
    let kind = match e.kind {
        ServeEventKind::Admit { dtype, rows, .. } => {
            format!("admit        {rows} rows ({dtype:?})")
        }
        ServeEventKind::Shed {
            deadline_us,
            now_us,
        } => format!("shed         deadline {deadline_us}us < now {now_us}us"),
        ServeEventKind::BatchFormed { requests, rows, .. } => {
            format!("batch-formed {requests} requests / {rows} rows")
        }
        ServeEventKind::Execute {
            rows,
            sharded,
            ok,
            exec_us,
        } => format!(
            "execute      {rows} rows {} -> {} in {exec_us}us",
            if sharded { "sharded" } else { "local" },
            if ok { "ok" } else { "FAIL" },
        ),
        ServeEventKind::Fault { gpu, timeout } => format!(
            "fault        gpu{gpu} blamed{}",
            if timeout { " (watchdog timeout)" } else { "" }
        ),
        ServeEventKind::FaultInjected { gpu, kind } => {
            format!("chaos        injected {kind:?} on gpu{gpu}")
        }
        ServeEventKind::Retry {
            attempt,
            limit_gpus,
        } => {
            format!("retry        attempt {attempt} on <= {limit_gpus} gpus")
        }
        ServeEventKind::Degrade { from_gpus, to_gpus } => {
            format!("degrade      {from_gpus} -> {to_gpus} gpus")
        }
        ServeEventKind::Breaker { gpu, to } => format!("breaker      gpu{gpu} -> {to:?}"),
        ServeEventKind::Eviction {
            capacity, reason, ..
        } => {
            format!("eviction     capacity {capacity} ({reason:?})")
        }
        ServeEventKind::Bypass {
            dtype,
            rows,
            exec_us,
            ..
        } => {
            format!("bypass       {rows} rows ({dtype:?}) in {exec_us}us")
        }
        ServeEventKind::Steal { from, to, requests } => {
            format!("steal        lane {from} -> lane {to} ({requests} requests)")
        }
    };
    format!("  [{:>8}us] {kind}", e.at_us)
}

fn main() {
    // Keep the injected device panic's backtrace out of the tour (any
    // other panic still reports normally).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload().downcast_ref::<&str>() == Some(&"injected device fault");
        if !injected {
            default_hook(info);
        }
    }));

    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 8,
        batch_linger_us: 200,
        backend: Backend::Distributed { gpus: 4, p2p: true },
        ..RuntimeConfig::default()
    });
    let model64 = runtime
        .load_model((0..2).map(|i| f64_matrix(4, 4, i + 1)).collect())
        .expect("valid f64 model");
    let model32 = runtime
        .load_model((0..2).map(|i| f32_matrix(4, 4, i + 2)).collect())
        .expect("valid f32 model");

    // ---- 1. the burst, with one scripted fault mid-flight. -----------
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(1, 0))
        .expect("valid plan");
    let mut tickets64 = Vec::new();
    let mut tickets32 = Vec::new();
    for i in 0..12 {
        tickets64.push(
            runtime
                .submit(&model64, f64_matrix(4, model64.input_cols(), 10 + i))
                .expect("submit f64"),
        );
        tickets32.push(
            runtime
                .submit(&model32, f32_matrix(4, model32.input_cols(), 20 + i))
                .expect("submit f32"),
        );
    }
    // One large-M request: served solo, past the batching lane.
    let solo = runtime
        .submit(&model64, f64_matrix(32, model64.input_cols(), 40))
        .expect("submit solo");

    let mut worst: Option<ServeReceipt> = None;
    let mut keep_worst = |r: ServeReceipt| {
        if worst.as_ref().is_none_or(|w| r.attempts > w.attempts) {
            worst = Some(r);
        }
    };
    for t in tickets64 {
        let (_, r) = t.wait_with_receipt().expect("f64 serve");
        keep_worst(r);
    }
    for t in tickets32 {
        let (_, r) = t.wait_with_receipt().expect("f32 serve");
        keep_worst(r);
    }
    let (_, solo_receipt) = solo.wait_with_receipt().expect("solo serve");
    let worst = worst.expect("had f64 receipts");

    // ---- 2. one request's timeline. ----------------------------------
    println!("== the faulted batch's receipt ==\n{worst}");
    assert!(worst.attempts > 1, "the scripted fault was retried away");
    println!("solo timeline: {}\n", solo_receipt.timings);

    // ---- 3. the stats table and its invariant. -----------------------
    let stats = runtime.stats();
    println!("== runtime stats ==\n{stats}");
    assert_eq!(
        stats.served,
        stats.batched_requests + stats.solo_requests + stats.error_replies,
        "every reply lands in exactly one bucket"
    );

    // ---- 4. the snapshot: histograms and registries. -----------------
    let snap = runtime.metrics_snapshot();
    println!("== stage tails (microseconds) ==");
    for (stage, h) in &snap.stages {
        println!(
            "  {:<8} count {:>3}  p50 {:>6}  p95 {:>6}  p99 {:>6}",
            stage.name(),
            h.count,
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
        );
    }
    println!("== model registry ==");
    for m in &snap.models {
        println!(
            "  {:?} shape {:#018x} capacity {:>3}: {} serves, {} hits/{} misses, p99 {}us",
            m.dtype,
            m.shape_key,
            m.capacity,
            m.serves,
            m.plan_hits,
            m.plan_misses,
            m.latency.percentile(0.99),
        );
    }
    println!("== device registry ==");
    for d in &snap.devices {
        println!(
            "  gpu{}: {} executes, {} faults, exec p99 {}us",
            d.gpu,
            d.metrics.executes,
            d.metrics.faults,
            d.metrics.exec_latency.percentile(0.99),
        );
    }
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    println!("json export: {} bytes (stable keys)", json.len());
    println!("prometheus export: {} lines, e.g.:", prom.lines().count());
    for line in prom.lines().filter(|l| l.starts_with("kron_served")) {
        println!("  {line}");
    }

    // ---- 5. the flight recorder. -------------------------------------
    let events = runtime.drain_events();
    println!("\n== flight recorder ({} events) ==", events.len());
    let fault_at = events
        .iter()
        .position(|e| matches!(e.kind, ServeEventKind::Fault { .. }))
        .expect("the scripted fault is on the record");
    // Print the window around the chaos: the fault, its cause, and the
    // recovery — the whole incident is reconstructable post-mortem.
    let lo = fault_at.saturating_sub(4);
    let hi = (fault_at + 5).min(events.len());
    for e in &events[lo..hi] {
        println!("{}", event_line(e));
    }
    assert!(
        runtime.drain_events().is_empty(),
        "the drain cursor advanced"
    );

    runtime.shutdown();
}
