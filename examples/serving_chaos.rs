//! Self-healing serving under a scripted chaos drill: transparent batch
//! retry with degraded re-sharding, per-device circuit breakers, the
//! slow-device watchdog, and the stats/health probes that make recovery
//! observable.
//!
//! The drill serves one model on the simulated 4-GPU machine while a
//! `FaultPlan` injects scripted device faults mid-trace:
//!
//! 1. a one-shot device panic — retried away on a rebuilt grid, invisible
//!    to the client (the receipt shows the attempt count);
//! 2. a repeated panic on one device — the retry ladder degrades the grid
//!    (4 → 2 GPUs) and the device's circuit breaker trips, quarantining
//!    it until a cooldown + clean probe close it again;
//! 3. a device stall past the watchdog budget — bounded into a
//!    `DeviceTimeout` and then retried like any other device fault.
//!
//! Every served result is checked against the shuffle oracle: recovery is
//! bit-exact, not approximate, because every backend and every degraded
//! grid runs the same microkernel.
//!
//! Run with `cargo run --release --example serving_chaos`.

use fastkron::prelude::*;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 3 * r * cols + c) % 13) as f64 - 6.0
    })
}

fn health_line(runtime: &Runtime) -> String {
    runtime
        .device_health()
        .iter()
        .map(|d| {
            let state = match d.state {
                BreakerState::Closed => "closed",
                BreakerState::Open => "OPEN",
                BreakerState::HalfOpen => "half-open",
            };
            format!("gpu{}:{state}({} fails)", d.gpu, d.consecutive_failures)
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    // Injected device faults are *caught* panics in a simulated device's
    // step; keep their default backtrace spew out of the drill's
    // narrative (any other panic still reports normally).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload().downcast_ref::<&str>() == Some(&"injected device fault");
        if !injected {
            default_hook(info);
        }
    }));

    // Manual clock: every timing decision in the drill — retry backoff,
    // breaker cooldown, watchdog verdicts — is deterministic.
    let clock = Clock::manual();
    let handle = clock.manual_handle().expect("manual clock");
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 16,
        clock,
        backend: Backend::Distributed { gpus: 4, p2p: true },
        // Defaults shown explicitly: up to 3 re-executions, immediate
        // retry, degrade the grid after the first same-width rebuild.
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_us: 0,
            degrade: true,
        },
        // Trip a device after 2 consecutive faults; quarantine for 5 ms
        // of clock time before offering it again half-open.
        breaker: BreakerPolicy {
            trip_after: 2,
            cooldown_us: 5_000,
        },
        ..RuntimeConfig::default()
    });

    let factors: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i + 1)).collect();
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();
    let model = runtime.load_model(factors.clone()).expect("valid model");
    let x = seq_matrix(8, model.input_cols(), 3);
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).expect("oracle");

    // ---- Act 1: a transient fault, retried away transparently. -------
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch(2, 0))
        .expect("valid plan");
    let t = runtime.submit(&model, x.clone()).expect("submit");
    let (y, receipt) = t.wait_with_receipt().expect("client never sees the fault");
    assert_matrices_close(&y, &oracle, "act 1");
    println!(
        "act 1: device 2 panicked mid-batch -> served Ok in {} attempts on grid {:?}",
        receipt.attempts, receipt.grid
    );

    // ---- Act 2: a persistent fault trips the breaker and degrades. ---
    runtime
        .install_fault_plan(FaultPlan::new().panic_on_batch_repeat(1, 0, 2))
        .expect("valid plan");
    let t = runtime.submit(&model, x.clone()).expect("submit");
    let (y, receipt) = t.wait_with_receipt().expect("recovered degraded");
    assert_matrices_close(&y, &oracle, "act 2");
    println!(
        "act 2: device 1 failed twice -> breaker tripped, served Ok in {} attempts on grid {:?}",
        receipt.attempts, receipt.grid
    );
    println!("       health: {}", health_line(&runtime));

    // Quarantined serving: still Ok, first attempt, routed around gpu 1.
    let y = runtime.execute(&model, x.clone()).expect("degraded serve");
    assert_matrices_close(&y, &oracle, "quarantined serve");

    // Cooldown elapses on the manual clock; a clean full-width batch
    // closes the breaker.
    handle.advance_us(5_000);
    let t = runtime.submit(&model, x.clone()).expect("submit");
    let (y, receipt) = t.wait_with_receipt().expect("half-open probe");
    assert_matrices_close(&y, &oracle, "probe");
    println!(
        "       after cooldown: probe served on grid {:?}; health: {}",
        receipt.grid,
        health_line(&runtime)
    );

    // ---- Act 3: a hung device, bounded by the watchdog. --------------
    // The stall (60 s) dwarfs the watchdog budget (2 s of clock time),
    // so the sharded engine converts the hang into DeviceTimeout and the
    // retry machinery takes it from there. The manual clock is
    // advanced from a helper thread so the watchdog sees time pass.
    runtime
        .install_fault_plan(FaultPlan::new().stall_on_batch(
            3,
            runtime.stats().sharded_batches,
            60_000_000,
        ))
        .expect("valid plan");
    let ticker = {
        let handle = std::sync::Arc::clone(&handle);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&done);
        let join = std::thread::spawn(move || {
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                handle.advance_us(100_000);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        (done, join)
    };
    let t = runtime.submit(&model, x.clone()).expect("submit");
    let (y, receipt) = t.wait_with_receipt().expect("timeout retried away");
    ticker.0.store(true, std::sync::atomic::Ordering::SeqCst);
    ticker.1.join().expect("ticker joins");
    assert_matrices_close(&y, &oracle, "act 3");
    println!(
        "act 3: device 3 hung -> watchdog verdict, retried -> Ok in {} attempts on grid {:?}",
        receipt.attempts, receipt.grid
    );

    let stats = runtime.stats();
    println!(
        "\nledger: retries={} degraded_batches={} recovered_requests={} breaker_trips={} evictions={}",
        stats.retries,
        stats.degraded_batches,
        stats.recovered_requests,
        stats.breaker_trips,
        stats.evictions
    );
    assert!(stats.retries >= 4);
    assert!(stats.recovered_requests >= 3);
    assert!(stats.breaker_trips >= 1);
    println!("every recovery bit-exact against the shuffle oracle");

    runtime.shutdown();
}
