//! Counting-allocator proof of the runtime's steady-state contract: after
//! warmup, serving a request through a [`Session`] performs **zero heap
//! allocations** across the whole process — client submit, channel
//! handoff, scheduler batching scratch, plan-cache lookup, fused execute,
//! and reply all reuse warmed state.
//!
//! This extends `fastkron-core`'s `alloc_free` test (which proves the
//! execute path alone is allocation-free) up through the serving stack.
//! The allocator counts from every thread, so the scheduler thread is
//! covered, not just the client.

use kron_core::{assert_matrices_close, Matrix};
use kron_runtime::{Backend, Runtime, RuntimeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` — every layout/pointer
// contract is forwarded unchanged; the only addition is a relaxed
// counter bump, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: pass-through to `System::realloc`, contracts forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the whole process performed while running `f`, counted
/// once the process has gone quiet (see [`settle`]).
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    settle();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result)
}

/// Waits until no thread has allocated for 20 ms (at most 2 s), so
/// one-time work outside serving cannot land in a measured window: the
/// test harness starting the next test, or a thread the runtime or the
/// worker pool just spawned copying its name at start-up. Warm serving
/// and idle lanes allocate nothing, so the process does go quiet; if
/// something kept allocating, the window that follows counts it.
fn settle() {
    use std::time::{Duration, Instant};
    let give_up = Instant::now() + Duration::from_secs(2);
    let mut seen = ALLOCATIONS.load(Ordering::SeqCst);
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(20) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
        let now = ALLOCATIONS.load(Ordering::SeqCst);
        if now != seen {
            (seen, quiet_since) = (now, Instant::now());
        }
    }
}

/// The counter is process-global, so the two tests in this binary must
/// not run concurrently — a sibling test's allocations inside this
/// test's measurement window would flake it.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + r * cols + c) % 13) as f64 - 6.0
    })
}

#[test]
fn steady_state_serving_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    });
    // A Table 3/4-style small-M serving shape: M=4 against 4⊗4 factors.
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    let mut session = runtime.session();

    let mut x = seq_matrix(4, model.input_cols(), 3);
    let mut y = Matrix::zeros(4, model.output_cols());

    // Warmup: grows the channel queue, scheduler scratch, plan cache
    // entry (its workspace), and the session slot to their steady-state
    // capacities.
    for _ in 0..16 {
        (x, y) = session.call(&model, x, y).unwrap();
    }

    const SERVED: usize = 64;
    let (allocs, moved) = allocations_during(|| {
        let mut bufs = (x, y);
        for _ in 0..SERVED {
            bufs = session.call(&model, bufs.0, bufs.1).unwrap();
        }
        bufs
    });
    let (x, y) = moved;
    assert_eq!(
        allocs, 0,
        "serving {SERVED} warm requests allocated {allocs} times \
         (expected zero steady-state allocations per served request)"
    );

    // The served results are still right, not just cheap.
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap();
    assert_matrices_close(&y, &oracle, "steady-state result");

    // And the cache really did plan exactly once for this shape.
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, 1, "stats: {stats:?}");
    assert_eq!(stats.served, 16 + SERVED as u64);
}

/// The erased-runtime contract: ONE runtime serving interleaved f32 and
/// f64 sessions stays allocation-free once both dtype lanes are warm.
/// The erased request enum is a move (never a box), the scheduler's
/// typed-lane scratch and the global ordering buffers are reused, and the
/// dtype-spanning plan cache hands both entries out lock-only — so mixing
/// dtypes costs exactly zero allocations per request, same as the
/// monomorphic runtime did.
#[test]
fn steady_state_mixed_dtype_serving_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    });
    let f64_factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let f32_factors: Vec<Matrix<f32>> = (0..2)
        .map(|i| Matrix::from_fn(4, 4, |r, c| (((i + 1) + r * 4 + c) % 13) as f32 - 6.0))
        .collect();
    let model64 = runtime.load_model(f64_factors.clone()).unwrap();
    let model32 = runtime.load_model(f32_factors.clone()).unwrap();
    let mut session64 = runtime.session::<f64>();
    let mut session32 = runtime.session::<f32>();

    let mut x64 = seq_matrix(4, model64.input_cols(), 3);
    let mut y64 = Matrix::zeros(4, model64.output_cols());
    let mut x32 = Matrix::<f32>::from_fn(4, model32.input_cols(), |r, c| ((3 + r + c) % 9) as f32);
    let mut y32 = Matrix::<f32>::zeros(4, model32.output_cols());

    // Warm both dtype lanes: channel queues, per-lane scheduler scratch,
    // the global ordering buffers, one plan-cache entry per dtype, and
    // both session slots.
    for _ in 0..16 {
        (x64, y64) = session64.call(&model64, x64, y64).unwrap();
        (x32, y32) = session32.call(&model32, x32, y32).unwrap();
    }

    const SERVED: usize = 32;
    let (allocs, moved) = allocations_during(|| {
        let mut b64 = (x64, y64);
        let mut b32 = (x32, y32);
        for _ in 0..SERVED {
            b64 = session64.call(&model64, b64.0, b64.1).unwrap();
            b32 = session32.call(&model32, b32.0, b32.1).unwrap();
        }
        (b64, b32)
    });
    let ((x64, y64), (x32, y32)) = moved;
    assert_eq!(
        allocs, 0,
        "serving {SERVED} interleaved f32+f64 request pairs allocated {allocs} times \
         (expected zero steady-state allocations through the erased runtime)"
    );

    // Both lanes still serve the right numbers.
    let refs64: Vec<&Matrix<f64>> = f64_factors.iter().collect();
    let oracle64 = kron_core::shuffle::kron_matmul_shuffle(&x64, &refs64).unwrap();
    assert_matrices_close(&y64, &oracle64, "mixed steady-state f64 result");
    let refs32: Vec<&Matrix<f32>> = f32_factors.iter().collect();
    let oracle32 = kron_core::shuffle::kron_matmul_shuffle(&x32, &refs32).unwrap();
    assert_matrices_close(&y32, &oracle32, "mixed steady-state f32 result");

    // One plan per dtype, both counted on the one stats surface.
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, 2, "stats: {stats:?}");
    assert_eq!(stats.requests_f64, (16 + SERVED) as u64, "stats: {stats:?}");
    assert_eq!(stats.requests_f32, (16 + SERVED) as u64, "stats: {stats:?}");
}

/// The same contract across the simulated multi-GPU machine: once the
/// sharded engine, its per-device blocks, and the circulating exchange
/// buffers are warm, serving a request through the `Distributed` backend —
/// gather, `GM × GK` device commands, `Nlocal`-grouped local multiplies,
/// the all-to-all relocation rounds, scatter, and the per-request
/// simulated-stats reply — allocates **nothing**, on any thread.
#[test]
fn steady_state_sharded_serving_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    // Shardable over the {2, 2} grid: K = 16, GK = 2 | 16, GK ≤ P.
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    let mut session = runtime.session();

    let mut x = seq_matrix(4, model.input_cols(), 3);
    let mut y = Matrix::zeros(4, model.output_cols());

    // Warmup: build the sharded engine (every device block is allocated
    // once, at construction) and the entry's staging buffers.
    for _ in 0..16 {
        (x, y) = session.call(&model, x, y).unwrap();
    }

    const SERVED: usize = 64;
    let (allocs, moved) = allocations_during(|| {
        let mut bufs = (x, y);
        for _ in 0..SERVED {
            bufs = session.call(&model, bufs.0, bufs.1).unwrap();
        }
        bufs
    });
    let (x, y) = moved;
    assert_eq!(
        allocs, 0,
        "sharded serving of {SERVED} warm requests allocated {allocs} times \
         (expected zero steady-state allocations per request)"
    );

    // Served correctly, actually sharded, and stats flowed back.
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap();
    assert_matrices_close(&y, &oracle, "sharded steady-state result");
    let stats = runtime.stats();
    assert_eq!(stats.plan_misses, 1, "stats: {stats:?}");
    assert_eq!(
        stats.sharded_batches,
        16 + SERVED as u64,
        "stats: {stats:?}"
    );
    assert_eq!(stats.local_fallbacks, 0, "stats: {stats:?}");
    assert!(
        session.last_shard_summary().is_some(),
        "sharded session calls carry a summary"
    );
}

/// The flight deck must cost nothing to keep lit: with every instrument
/// active — per-request stage timelines stamped on each reply, per-stage
/// and per-outcome log2 histograms, the per-model and per-device
/// registries, Admit/BatchFormed/Execute events into the flight
/// recorder — warm serving still allocates **zero** times. The
/// histograms are preallocated atomics, the event ring is fixed-capacity
/// seqlock slots, and the registries stop growing once their keys are
/// warm; only the *readouts* (snapshot, drain) may allocate, and those
/// happen outside the measured window.
#[test]
fn steady_state_serving_with_instruments_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    let mut session = runtime.session();

    let mut x = seq_matrix(4, model.input_cols(), 3);
    let mut y = Matrix::zeros(4, model.output_cols());
    for _ in 0..16 {
        (x, y) = session.call(&model, x, y).unwrap();
    }
    // Retire warmup traffic from the recorder so the post-window drain
    // observably covers events recorded *inside* the measured window.
    runtime.drain_events();
    let warm = runtime.metrics_snapshot();

    const SERVED: usize = 64;
    let (allocs, moved) = allocations_during(|| {
        let mut bufs = (x, y);
        for _ in 0..SERVED {
            bufs = session.call(&model, bufs.0, bufs.1).unwrap();
        }
        bufs
    });
    let (x, y) = moved;
    assert_eq!(
        allocs, 0,
        "serving {SERVED} warm requests with histograms, timelines, \
         registries, and the flight recorder active allocated {allocs} \
         times (expected the instruments to be allocation-free)"
    );

    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap();
    assert_matrices_close(&y, &oracle, "instrumented steady-state result");

    // Everything served inside the window was observed: the histograms
    // advanced by exactly SERVED, the model registry attributed them,
    // the device registry saw every sharded execute, and the recorder
    // holds the window's admit/execute trail.
    let snap = runtime.metrics_snapshot();
    let count = |s: &kron_runtime::MetricsSnapshot, want: kron_runtime::Stage| {
        s.stages
            .iter()
            .find(|(stage, _)| *stage == want)
            .map(|(_, h)| h.count)
            .unwrap()
    };
    let total_before = count(&warm, kron_runtime::Stage::Total);
    let total_after = count(&snap, kron_runtime::Stage::Total);
    assert_eq!(total_after - total_before, SERVED as u64);
    let entry = runtime
        .model_stats()
        .into_iter()
        .find(|m| m.shape_key == model.shape_key())
        .expect("served model is registered");
    assert_eq!(entry.serves, 16 + SERVED as u64);
    for d in &runtime.device_health() {
        assert_eq!(d.metrics.executes, 16 + SERVED as u64, "gpu {}", d.gpu);
    }
    let events = runtime.drain_events();
    use kron_runtime::ServeEventKind;
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::Admit { .. })),
        "window admits reached the recorder"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::Execute { ok: true, .. })),
        "window executes reached the recorder"
    );
}

/// The self-healing machinery must cost nothing once the storm passes:
/// after a device fault is retried away (evict, rebuild, re-execute) and
/// the health ledger returns to clean, warm serving is allocation-free
/// again — the retry scratch, fault plane, and breaker fast path leave
/// no per-request residue.
#[test]
fn steady_state_after_fault_recovery_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        backend: Backend::Distributed {
            gpus: 4,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();
    let mut session = runtime.session();

    let mut x = seq_matrix(4, model.input_cols(), 3);
    let mut y = Matrix::zeros(4, model.output_cols());
    for _ in 0..8 {
        (x, y) = session.call(&model, x, y).unwrap();
    }

    // The storm: a one-shot device fault, transparently retried away
    // (allocates freely — eviction and rebuild are the expensive path).
    runtime.inject_device_fault(2).unwrap();
    (x, y) = session.call(&model, x, y).unwrap();
    let stats = runtime.stats();
    assert!(stats.retries >= 1, "the fault must have fired: {stats:?}");
    assert!(stats.evictions >= 1, "stats: {stats:?}");

    // Re-warm the rebuilt engine, then hold the steady-state bar.
    for _ in 0..16 {
        (x, y) = session.call(&model, x, y).unwrap();
    }
    const SERVED: usize = 64;
    let (allocs, moved) = allocations_during(|| {
        let mut bufs = (x, y);
        for _ in 0..SERVED {
            bufs = session.call(&model, bufs.0, bufs.1).unwrap();
        }
        bufs
    });
    let (x, y) = moved;
    assert_eq!(
        allocs, 0,
        "post-recovery serving of {SERVED} warm requests allocated {allocs} times \
         (expected the self-healing path to leave zero steady-state residue)"
    );

    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap();
    assert_matrices_close(&y, &oracle, "post-recovery steady-state result");
    assert_eq!(runtime.stats().local_fallbacks, 0);
}

/// The bypass lane holds the same bar explicitly: with warm plans, an
/// empty admission queue, and mixed f32/f64 sessions calling
/// sequentially, every request takes the inline lane (`bypassed_requests`
/// advances one-for-one) and the whole round trip — eligibility check,
/// warm-plan pin, fused execute, reply — allocates **zero** times. The
/// pinned cache entry and the reply slot are reused steady state, and the
/// execute reads the model's factors in place.
#[test]
fn steady_state_bypass_lane_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    });
    let f64_factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let f32_factors: Vec<Matrix<f32>> = (0..2)
        .map(|i| Matrix::from_fn(4, 4, |r, c| (((i + 1) + r * 4 + c) % 13) as f32 - 6.0))
        .collect();
    let model64 = runtime.load_model(f64_factors.clone()).unwrap();
    let model32 = runtime.load_model(f32_factors.clone()).unwrap();
    let mut session64 = runtime.session::<f64>();
    let mut session32 = runtime.session::<f32>();

    let mut x64 = seq_matrix(4, model64.input_cols(), 3);
    let mut y64 = Matrix::zeros(4, model64.output_cols());
    let mut x32 = Matrix::<f32>::from_fn(4, model32.input_cols(), |r, c| ((3 + r + c) % 9) as f32);
    let mut y32 = Matrix::<f32>::zeros(4, model32.output_cols());

    // Warm both dtype lanes. The first call per dtype is cold (plan
    // build through the scheduler); everything after is bypass-eligible:
    // the queue is empty and the plan is warm by the time each
    // subsequent call submits.
    for _ in 0..16 {
        (x64, y64) = session64.call(&model64, x64, y64).unwrap();
        (x32, y32) = session32.call(&model32, x32, y32).unwrap();
    }
    let bypassed_before = runtime.stats().bypassed_requests;
    assert!(
        bypassed_before >= 1,
        "warm sequential traffic already bypasses: {:?}",
        runtime.stats()
    );

    const SERVED: usize = 32;
    let (allocs, moved) = allocations_during(|| {
        let mut b64 = (x64, y64);
        let mut b32 = (x32, y32);
        for _ in 0..SERVED {
            b64 = session64.call(&model64, b64.0, b64.1).unwrap();
            b32 = session32.call(&model32, b32.0, b32.1).unwrap();
        }
        (b64, b32)
    });
    let ((x64, y64), (x32, y32)) = moved;
    assert_eq!(
        allocs, 0,
        "bypassing {SERVED} interleaved f32+f64 request pairs allocated {allocs} times \
         (expected the inline lane to be allocation-free)"
    );

    // Every measured request took the inline lane — none fell back to
    // the scheduler — and both dtypes still serve the right numbers.
    let stats = runtime.stats();
    assert_eq!(
        stats.bypassed_requests - bypassed_before,
        2 * SERVED as u64,
        "stats: {stats:?}"
    );
    assert_eq!(stats.inflight_requests, 0, "stats: {stats:?}");
    let refs64: Vec<&Matrix<f64>> = f64_factors.iter().collect();
    let oracle64 = kron_core::shuffle::kron_matmul_shuffle(&x64, &refs64).unwrap();
    assert_matrices_close(&y64, &oracle64, "bypassed f64 result");
    let refs32: Vec<&Matrix<f32>> = f32_factors.iter().collect();
    let oracle32 = kron_core::shuffle::kron_matmul_shuffle(&x32, &refs32).unwrap();
    assert_matrices_close(&y32, &oracle32, "bypassed f32 result");
}

/// `Runtime::submit` on the bypass lane allocates what it hands the
/// caller and nothing more: the result `Y` and the ticket's reply slot,
/// two allocations per request. The execute reads the model's factors in
/// place, so a submit builds no list of references to them. Every
/// request in the window is sequential on an idle runtime with a warm
/// plan, so each one takes the inline lane.
#[test]
fn bypassed_submit_allocates_only_its_result_and_reply_slot() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        ..RuntimeConfig::default()
    });
    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let model = runtime.load_model(factors.clone()).unwrap();

    // Warmup: the first submit builds the plan through the scheduler;
    // the rest bypass and warm the model's registry entry.
    for i in 0..16 {
        let x = seq_matrix(4, model.input_cols(), i);
        runtime.submit(&model, x).unwrap().wait().unwrap();
    }

    const SERVED: usize = 64;
    let xs: Vec<Matrix<f64>> = (0..SERVED)
        .map(|i| seq_matrix(4, model.input_cols(), i + 3))
        .collect();
    let inputs = xs.clone();
    let mut ys = Vec::with_capacity(SERVED);
    let bypassed_before = runtime.stats().bypassed_requests;
    let (allocs, ()) = allocations_during(|| {
        for x in xs {
            ys.push(runtime.submit(&model, x).unwrap().wait().unwrap());
        }
    });
    let stats = runtime.stats();
    assert_eq!(
        stats.bypassed_requests - bypassed_before,
        SERVED as u64,
        "every submit must take the inline lane: {stats:?}"
    );
    assert_eq!(
        allocs,
        2 * SERVED as u64,
        "{SERVED} bypassed submits allocated {allocs} times \
         (expected two per request: Y and the reply slot)"
    );

    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    for (x, y) in inputs.iter().zip(&ys) {
        let oracle = kron_core::shuffle::kron_matmul_shuffle(x, &refs).unwrap();
        assert_matrices_close(y, &oracle, "bypassed submit result");
    }
}

/// The sharded scheduler topology holds the same bar: with four service
/// lanes live (idle siblings polling their rings and probing for work to
/// steal), two warm models hashed to different lanes serving through the
/// scheduler path allocate **zero** times steady state. The lock-free
/// admission ring, the per-lane depth gauges, the steal probe, and the
/// per-lane counters are all preallocated atomics — scaling the lane
/// count must not reintroduce per-request heap traffic anywhere in the
/// process.
#[test]
fn steady_state_lane_sharded_serving_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 32,
        batch_max_m: 16,
        scheduler_lanes: 4,
        inline_bypass: false,
        ..RuntimeConfig::default()
    });
    // Hash-distinct shapes so the two models exercise different lanes.
    let f_a: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let f_b: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(2, 2, i + 4)).collect();
    let model_a = runtime.load_model(f_a.clone()).unwrap();
    let model_b = runtime.load_model(f_b.clone()).unwrap();
    let mut session = runtime.session();

    let mut xa = seq_matrix(4, model_a.input_cols(), 3);
    let mut ya = Matrix::zeros(4, model_a.output_cols());
    let mut xb = seq_matrix(4, model_b.input_cols(), 5);
    let mut yb = Matrix::zeros(4, model_b.output_cols());

    // Warm both lanes: plans built, rings circulated, reply slots and
    // batching scratch grown to steady size on every lane involved.
    for _ in 0..16 {
        (xa, ya) = session.call(&model_a, xa, ya).unwrap();
        (xb, yb) = session.call(&model_b, xb, yb).unwrap();
    }

    const SERVED: usize = 32;
    let (allocs, moved) = allocations_during(|| {
        let mut ba = (xa, ya);
        let mut bb = (xb, yb);
        for _ in 0..SERVED {
            ba = session.call(&model_a, ba.0, ba.1).unwrap();
            bb = session.call(&model_b, bb.0, bb.1).unwrap();
        }
        (ba, bb)
    });
    let ((xa, ya), (xb, yb)) = moved;
    assert_eq!(
        allocs, 0,
        "lane-sharded serving of {SERVED} warm request pairs allocated {allocs} times \
         (expected zero steady-state allocations per request across all lanes)"
    );

    // Right answers, full reconciliation across the lane topology.
    let refs_a: Vec<&Matrix<f64>> = f_a.iter().collect();
    let oracle_a = kron_core::shuffle::kron_matmul_shuffle(&xa, &refs_a).unwrap();
    assert_matrices_close(&ya, &oracle_a, "lane-sharded result A");
    let refs_b: Vec<&Matrix<f64>> = f_b.iter().collect();
    let oracle_b = kron_core::shuffle::kron_matmul_shuffle(&xb, &refs_b).unwrap();
    assert_matrices_close(&yb, &oracle_b, "lane-sharded result B");
    let stats = runtime.stats();
    assert_eq!(stats.scheduler_lanes, 4, "stats: {stats:?}");
    assert_eq!(stats.inflight_requests, 0, "stats: {stats:?}");
    let lane_served: u64 = stats.lanes().iter().map(|l| l.served).sum();
    assert_eq!(lane_served, stats.served, "stats: {stats:?}");
    for (i, lane) in stats.lanes().iter().enumerate() {
        assert_eq!(lane.inflight, 0, "lane {i} gauge: {lane:?}");
    }
}
