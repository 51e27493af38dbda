//! Serving bench: batched runtime serving vs the unbatched per-request
//! paths on small-M shapes (the Table 3/4 sizes that motivate the
//! `kron-runtime` batcher), emitting `BENCH_serve.json` at the repo root.
//!
//! Four serving strategies over the same request stream:
//!
//! * **planned** — the unbatched per-request path through the library's
//!   planned API: `FastKron::plan` + `execute` for every request, i.e.
//!   what a server built on the pre-runtime public API does (planning and
//!   workspace allocation per request).
//! * **direct** — `kron_matmul_fused` per request: no autotuning, but a
//!   throwaway workspace and result allocation per request.
//! * **batched** — the `kron-runtime` runtime under burst load: plan
//!   cached after the first request, same-model requests coalesced into
//!   one large-M fused execute per batch window.
//! * **bypass** — the same runtime at queue depth 1: sequential
//!   submit→wait, where the inline bypass lane executes each request on
//!   the submitting thread against the warm cached plan (no channel hop,
//!   no linger window).
//!
//! The headline `speedup` compares batched against the planned
//! per-request path (the runtime's plan cache plus the batcher);
//! `speedup_vs_direct` isolates what batching and buffer reuse add over
//! a plan-free but allocating per-request loop.
//!
//! The batched path runs in [`TWIN_PAIRS`] pairs with a twin runtime whose
//! retry machinery is disabled, alternating which of the two runs first;
//! `batched` and `batched_noretry` are each side's median run by p50.
//!
//! Each case also records `batches` and `batched_tails` of the run that
//! `batched` reports: the batches it formed, and its p50/p95/p99 as the
//! *runtime itself* measured them, read back from the per-model latency
//! histograms behind `Runtime::metrics_snapshot` — the numbers a
//! production scrape would see, cross-checkable against that run's
//! client-side percentiles.

use fastkron_core::exec::kron_matmul_fused;
use fastkron_core::FastKron;
use gpu_sim::device::V100;
use kron_core::{KronProblem, Matrix};
use kron_runtime::{HistogramSnapshot, RetryPolicy, Runtime, RuntimeConfig};
use std::time::Instant;

/// Requests per case for the direct and batched paths.
const REQUESTS: usize = 1024;

/// Requests per case for the planned path (it re-tunes per request, which
/// is exactly why it is slow; fewer samples keep the bench's wall clock
/// sane).
const PLANNED_REQUESTS: usize = 32;

/// (armed, twin) run pairs behind the fault-free-overhead gate, which
/// compares each side's median p50. With one run per side in a fixed
/// order, the order itself could decide the comparison: the twin, always
/// second, led on 5 of 8 shapes by 1.06–1.49× on a shared two-core host.
const TWIN_PAIRS: usize = 5;

/// Small-M serving shapes: `(m, p, n)` with M ≤ 16, Table 3/4 style.
const CASES: &[(usize, usize, usize)] = &[
    (1, 8, 2),
    (2, 8, 2),
    (4, 8, 2),
    (16, 8, 2),
    (4, 16, 2),
    (16, 16, 2),
    (2, 4, 4),
    (8, 32, 2),
];

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 3 * r * cols + c) % 13) as f32 - 6.0
    })
}

/// Latency distribution + throughput for one strategy on one case.
struct PathResult {
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * pct).round() as usize;
    sorted[idx]
}

/// One timed pipelined window on a runtime.
struct BatchedRun {
    path: PathResult,
    /// Batches the runtime formed during the window.
    batches: u64,
    /// The window's end-to-end latencies as the runtime recorded them.
    tails: HistogramSnapshot,
}

/// The run with the median p50 of `runs`.
fn median_run(mut runs: Vec<BatchedRun>) -> BatchedRun {
    runs.sort_by(|a, b| a.path.p50_us.total_cmp(&b.path.p50_us));
    runs.swap_remove(runs.len() / 2)
}

fn summarize(mut latencies_s: Vec<f64>, wall_s: f64) -> PathResult {
    let n = latencies_s.len();
    latencies_s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PathResult {
        rps: n as f64 / wall_s,
        p50_us: percentile(&latencies_s, 0.50) * 1e6,
        p95_us: percentile(&latencies_s, 0.95) * 1e6,
        p99_us: percentile(&latencies_s, 0.99) * 1e6,
    }
}

/// The timed batched window's end-to-end latency histogram, read back
/// from the runtime's own per-model registry (not client-side clocks):
/// the same zero-alloc log2 buckets `Runtime::metrics_snapshot` exports
/// to Prometheus. Diffed before/after the window because cases sharing a
/// factor-shape family (e.g. every `8^2` M-sweep case) share one registry
/// entry.
fn model_latency(runtime: &Runtime, model: &kron_runtime::Model<f32>) -> HistogramSnapshot {
    runtime
        .model_stats()
        .into_iter()
        .find(|e| e.shape_key == model.shape_key())
        .map(|e| e.latency)
        .unwrap_or_default()
}

/// Per-request planning + execution: the pre-runtime planned API loop.
fn run_planned(problem: &KronProblem, xs: &[Matrix<f32>], refs: &[&Matrix<f32>]) -> PathResult {
    let mut lat = Vec::with_capacity(xs.len());
    let t0 = Instant::now();
    for x in xs {
        let t = Instant::now();
        let plan = FastKron::plan::<f32>(problem, &V100).expect("plan");
        let y = plan.execute(x, refs).expect("execute");
        std::hint::black_box(&y);
        lat.push(t.elapsed().as_secs_f64());
    }
    summarize(lat, t0.elapsed().as_secs_f64())
}

/// Per-request fused execution with a throwaway workspace.
fn run_direct(xs: &[Matrix<f32>], refs: &[&Matrix<f32>]) -> PathResult {
    let mut lat = Vec::with_capacity(xs.len());
    let t0 = Instant::now();
    for x in xs {
        let t = Instant::now();
        let y = kron_matmul_fused(x, refs).expect("fused");
        std::hint::black_box(&y);
        lat.push(t.elapsed().as_secs_f64());
    }
    summarize(lat, t0.elapsed().as_secs_f64())
}

/// Pipelined runtime serving: submit every request, then drain tickets.
fn run_batched(
    runtime: &Runtime,
    model: &kron_runtime::Model<f32>,
    xs: &[Matrix<f32>],
) -> BatchedRun {
    let batches_before = runtime.stats().batches;
    let tails_before = model_latency(runtime, model);
    let t0 = Instant::now();
    let mut submitted = Vec::with_capacity(xs.len());
    let mut tickets = Vec::with_capacity(xs.len());
    for x in xs {
        submitted.push(Instant::now());
        tickets.push(runtime.submit(model, x.clone()).expect("submit"));
    }
    let mut lat = Vec::with_capacity(xs.len());
    for (t, s) in tickets.into_iter().zip(submitted) {
        let y = t.wait().expect("wait");
        std::hint::black_box(&y);
        lat.push(s.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    BatchedRun {
        path: summarize(lat, wall),
        batches: runtime.stats().batches - batches_before,
        tails: model_latency(runtime, model).since(&tails_before),
    }
}

/// Sequential (queue-depth-1) runtime serving: submit one request and
/// wait for its reply before submitting the next — the latency-sensitive
/// pattern the inline bypass lane exists for. With the queue empty and
/// the plan warm, every request executes inline on this thread.
fn run_bypass(
    runtime: &Runtime,
    model: &kron_runtime::Model<f32>,
    xs: &[Matrix<f32>],
) -> (PathResult, u64) {
    let bypassed_before = runtime.stats().bypassed_requests;
    let mut lat = Vec::with_capacity(xs.len());
    let t0 = Instant::now();
    for x in xs {
        let t = Instant::now();
        let ticket = runtime.submit(model, x.clone()).expect("submit");
        let y = ticket.wait().expect("wait");
        std::hint::black_box(&y);
        lat.push(t.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    let bypassed = runtime.stats().bypassed_requests - bypassed_before;
    (summarize(lat, wall), bypassed)
}

/// Submitter threads for the multi-producer burst gate.
const MP_THREADS: usize = 4;
/// Pipelined bursts per submitter thread.
const MP_ROUNDS: usize = 16;
/// Requests per burst (submitted before any ticket is waited).
const MP_BURST: usize = 32;
/// (single-lane, sharded) run pairs behind the multi-producer gate,
/// which reads the median pair's ratio: one 2048-request run per side
/// varied by 2× from run to run on a shared two-core host.
const MP_PAIRS: usize = 5;

struct MultiProducerResult {
    lanes: u64,
    rps: f64,
    steals: u64,
    lanes_used: usize,
}

/// Multi-producer burst serving: [`MP_THREADS`] submitter threads, each
/// owning two hash-distinct models, pipelining [`MP_BURST`]-request
/// bursts against one shared runtime. Run once with a single scheduler
/// lane (the pre-sharding admission topology) and once sharded, the two
/// throughputs price what lane sharding buys concurrent producers.
fn run_multi_producer(scheduler_lanes: usize) -> MultiProducerResult {
    let runtime = Runtime::new(RuntimeConfig {
        max_batch_rows: 256,
        batch_max_m: 32,
        batch_linger_us: 300,
        scheduler_lanes,
        // Scheduler-path only: with producers keeping every lane busy the
        // bypass door would stay shut anyway, and closing it keeps the
        // single-lane and sharded runs on the identical code path.
        inline_bypass: false,
        ..RuntimeConfig::default()
    });
    // Two models per submitter thread, shapes chosen hash-distinct so
    // the sharded run spreads them across lanes.
    let chains: [(usize, usize); MP_THREADS * 2] = [
        (8, 2),
        (4, 4),
        (16, 2),
        (2, 6),
        (4, 3),
        (8, 3),
        (2, 4),
        (32, 2),
    ];
    let models: Vec<kron_runtime::Model<f32>> = chains
        .iter()
        .enumerate()
        .map(|(i, &(p, n))| {
            let factors: Vec<Matrix<f32>> =
                (0..n).map(|j| seq_matrix(p, p, i + 3 * j + 1)).collect();
            runtime.load_model(factors).expect("load model")
        })
        .collect();
    // Warm every plan through the scheduler before timing.
    for model in &models {
        let x = seq_matrix(4, model.input_cols(), 7);
        runtime
            .submit(model, x)
            .expect("warm")
            .wait()
            .expect("warm wait");
    }

    let total = MP_THREADS * MP_ROUNDS * MP_BURST;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..MP_THREADS {
            let own = &models[2 * t..2 * t + 2];
            let runtime = &runtime;
            scope.spawn(move || {
                let xs: Vec<Matrix<f32>> = own
                    .iter()
                    .map(|m| seq_matrix(4, m.input_cols(), 11 + t))
                    .collect();
                for _ in 0..MP_ROUNDS {
                    let mut tickets = Vec::with_capacity(MP_BURST);
                    for i in 0..MP_BURST {
                        let which = i % own.len();
                        tickets.push(
                            runtime
                                .submit(&own[which], xs[which].clone())
                                .expect("submit"),
                        );
                    }
                    for ticket in tickets {
                        let y = ticket.wait().expect("wait");
                        std::hint::black_box(&y);
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = runtime.stats();
    assert_eq!(
        stats.served,
        (total + models.len()) as u64,
        "every request must serve: {stats:?}"
    );
    MultiProducerResult {
        lanes: stats.scheduler_lanes,
        rps: total as f64 / wall,
        steals: stats.lane_steals,
        lanes_used: stats.lanes().iter().filter(|l| l.served > 0).count(),
    }
}

struct CaseResult {
    m: usize,
    p: usize,
    n: usize,
    planned: PathResult,
    direct: PathResult,
    /// The median batched run on the armed runtime.
    batched: PathResult,
    /// The median batched run on a twin runtime with retry disabled —
    /// the fault-free-overhead control (self-healing must be free when
    /// nothing fails).
    noretry: PathResult,
    /// Each pair's (armed, twin) p50 in µs; pair `i` ran the armed
    /// runtime first when `i` is even, the twin first when it is odd.
    pairs: Vec<(f64, f64)>,
    /// How many requests the runtime's histograms counted in each armed
    /// run, in run order.
    counted: Vec<u64>,
    /// Queue-depth-1 sequential serving through the runtime: the inline
    /// bypass lane.
    bypass: PathResult,
    /// How many of the timed queue-depth-1 requests actually took the
    /// inline lane (`bypassed_requests` delta over the timed window).
    bypassed: u64,
    /// Batches formed in the median armed run.
    batches: u64,
    /// Runtime-reported tail histogram of the median armed run.
    tails: HistogramSnapshot,
    /// Runtime-reported tail histogram for the timed queue-depth-1
    /// window. Unlike the burst window — where a request served late in
    /// a cycle waits out earlier batch executes in no timeline stage —
    /// the bypass timeline is complete (plan + exec is the whole serve),
    /// so these tails are directly comparable to the client-side clocks.
    bypass_tails: HistogramSnapshot,
}

fn run_case(runtime: &Runtime, noretry_rt: &Runtime, m: usize, p: usize, n: usize) -> CaseResult {
    let problem = KronProblem::uniform(m, p, n).expect("valid case");
    let k = problem.input_cols();
    let factors: Vec<Matrix<f32>> = (0..n).map(|i| seq_matrix(p, p, i + 2)).collect();
    let refs: Vec<&Matrix<f32>> = factors.iter().collect();
    let model = runtime.load_model(factors.clone()).expect("load model");

    let xs: Vec<Matrix<f32>> = (0..REQUESTS).map(|i| seq_matrix(m, k, i + 1)).collect();

    // Correctness cross-check before timing anything.
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&xs[0], &refs).expect("oracle");
    let served = runtime.execute(&model, xs[0].clone()).expect("serve");
    kron_core::assert_matrices_close(&served, &oracle, &format!("case M={m} {p}^{n}"));

    // Warmup each path (plan cache, allocator, branch predictors).
    let _ = run_direct(&xs[..64.min(xs.len())], &refs);
    let _ = run_batched(runtime, &model, &xs[..64.min(xs.len())]);
    let _ = run_planned(&problem, &xs[..4], &refs);

    // Fault-free-overhead control: the identical request stream through a
    // twin runtime whose retry machinery is disabled.
    let noretry_model = noretry_rt.load_model(factors.clone()).expect("load model");
    let _ = run_batched(noretry_rt, &noretry_model, &xs[..64.min(xs.len())]);

    let planned = run_planned(&problem, &xs[..PLANNED_REQUESTS], &refs);
    let direct = run_direct(&xs, &refs);
    // Alternate which runtime runs first, so that neither run order nor a
    // drift in the host's speed favours one side.
    let (mut armed, mut twin) = (Vec::new(), Vec::new());
    for i in 0..TWIN_PAIRS {
        if i % 2 == 1 {
            twin.push(run_batched(noretry_rt, &noretry_model, &xs));
        }
        armed.push(run_batched(runtime, &model, &xs));
        if i % 2 == 0 {
            twin.push(run_batched(noretry_rt, &noretry_model, &xs));
        }
    }
    let pairs = armed
        .iter()
        .zip(&twin)
        .map(|(a, t)| (a.path.p50_us, t.path.p50_us))
        .collect();
    let counted = armed.iter().map(|a| a.tails.count).collect();
    let BatchedRun {
        path: batched,
        batches,
        tails,
    } = median_run(armed);
    let noretry = median_run(twin).path;
    // Queue depth 1 over the same warm runtime: every wait has drained
    // the queue before the next submit, so the inline lane carries the
    // whole stream.
    let (_, _) = run_bypass(runtime, &model, &xs[..64.min(xs.len())]);
    let bypass_before = model_latency(runtime, &model);
    let (bypass, bypassed) = run_bypass(runtime, &model, &xs);
    let bypass_tails = model_latency(runtime, &model).since(&bypass_before);

    CaseResult {
        m,
        p,
        n,
        planned,
        direct,
        batched,
        noretry,
        pairs,
        counted,
        bypass,
        bypassed,
        batches,
        tails,
        bypass_tails,
    }
}

fn path_json(r: &PathResult) -> String {
    format!(
        "{{\"rps\": {:.1}, \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}}}",
        r.rps, r.p50_us, r.p95_us, r.p99_us
    )
}

/// Tail object for the runtime-reported histogram: percentiles
/// interpolated within the log2 buckets, in whole microseconds.
fn tails_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
        h.count,
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99)
    )
}

fn multi_producer_json(single: &MultiProducerResult, sharded: &MultiProducerResult) -> String {
    let lane_json = |r: &MultiProducerResult| {
        format!(
            "{{\"scheduler_lanes\": {}, \"rps\": {:.1}, \"steals\": {}, \"lanes_used\": {}}}",
            r.lanes, r.rps, r.steals, r.lanes_used
        )
    };
    format!(
        concat!(
            "{{\"threads\": {}, \"rounds\": {}, \"burst\": {},\n",
            "     \"single\": {},\n",
            "     \"sharded\": {},\n",
            "     \"speedup\": {:.3}}}"
        ),
        MP_THREADS,
        MP_ROUNDS,
        MP_BURST,
        lane_json(single),
        lane_json(sharded),
        sharded.rps / single.rps,
    )
}

fn emit_json(results: &[CaseResult], threads: usize, multi_producer: &str) -> String {
    let cases: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"m\": {}, \"p\": {}, \"n\": {},\n",
                    "     \"unbatched_planned\": {},\n",
                    "     \"unbatched_direct\": {},\n",
                    "     \"batched\": {},\n",
                    "     \"batched_noretry\": {},\n",
                    "     \"batched_bypass\": {},\n",
                    "     \"batched_tails\": {},\n",
                    "     \"bypass_tails\": {},\n",
                    "     \"batches\": {}, \"bypassed\": {},\n",
                    "     \"speedup\": {:.3}, \"speedup_vs_direct\": {:.3}, ",
                    "\"bypass_p50_vs_direct\": {:.3}}}"
                ),
                r.m,
                r.p,
                r.n,
                path_json(&r.planned),
                path_json(&r.direct),
                path_json(&r.batched),
                path_json(&r.noretry),
                path_json(&r.bypass),
                tails_json(&r.tails),
                tails_json(&r.bypass_tails),
                r.batches,
                r.bypassed,
                r.batched.rps / r.planned.rps,
                r.batched.rps / r.direct.rps,
                r.bypass.p50_us / r.direct.p50_us,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"description\": \"batched runtime serving vs unbatched per-request paths, small-M shapes\",\n",
            "  \"dtype\": \"f32\",\n",
            "  \"requests\": {},\n",
            "  \"planned_requests\": {},\n",
            "  \"threads\": {},\n",
            "  \"paths\": [\"unbatched_planned\", \"unbatched_direct\", \"batched\", ",
            "\"batched_noretry\", \"batched_bypass\"],\n",
            "  \"multi_producer\": {},\n",
            "  \"cases\": [\n{}\n  ]\n",
            "}}\n"
        ),
        REQUESTS,
        PLANNED_REQUESTS,
        threads,
        multi_producer,
        cases.join(",\n")
    )
}

fn main() {
    let config = RuntimeConfig {
        max_batch_rows: 256,
        batch_max_m: 32,
        // Linger briefly so bursts coalesce even when the submitting
        // thread and the scheduler contend for the same core.
        batch_linger_us: 300,
        ..RuntimeConfig::default()
    };
    // Default config: retry/breaker/chaos machinery compiled in and armed
    // (but never firing — this bench is the fault-free path).
    let runtime = Runtime::new(config.clone());
    // Control: identical twin with the retry machinery disabled, to price
    // what self-healing costs a healthy server.
    let noretry_rt = Runtime::new(RuntimeConfig {
        retry: RetryPolicy {
            max_attempts: 0,
            backoff_us: 0,
            degrade: false,
        },
        ..config
    });
    let threads = rayon::ThreadPool::global().threads();

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "case", "planned/s", "direct/s", "batched/s", "bypass/s", "speedup", "byp_p50", "batches"
    );
    let mut results = Vec::new();
    for &(m, p, n) in CASES {
        let r = run_case(&runtime, &noretry_rt, m, p, n);
        println!(
            "{:>10} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>8.2}x {:>8.2}x {:>8}",
            format!("M={m} {p}^{n}"),
            r.planned.rps,
            r.direct.rps,
            r.batched.rps,
            r.bypass.rps,
            r.batched.rps / r.planned.rps,
            r.bypass.p50_us / r.direct.p50_us,
            r.batches,
        );
        let pairs: Vec<String> = r
            .pairs
            .iter()
            .enumerate()
            .map(|(i, &(armed, twin))| match i % 2 {
                0 => format!("armed {armed:.1} → twin {twin:.1}"),
                _ => format!("twin {twin:.1} → armed {armed:.1}"),
            })
            .collect();
        println!("{:>10} p50 us in run order: {}", "", pairs.join(" | "));
        results.push(r);
    }

    // Multi-producer burst gate: the same 4-thread pipelined workload
    // against a single-lane runtime (the pre-sharding admission
    // topology) and a sharded one, in pairs whose order alternates so
    // that a drift in the host's speed favours neither side.
    let mut mp_pairs: Vec<(MultiProducerResult, MultiProducerResult)> = (0..MP_PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let single = run_multi_producer(1);
                (single, run_multi_producer(4))
            } else {
                let sharded = run_multi_producer(4);
                (run_multi_producer(1), sharded)
            }
        })
        .collect();
    let pair_ratio =
        |(single, sharded): &(MultiProducerResult, MultiProducerResult)| sharded.rps / single.rps;
    let mp_ratios: Vec<String> = mp_pairs
        .iter()
        .map(|pair| format!("{:.2}x", pair_ratio(pair)))
        .collect();
    let mp_min_lanes_used = mp_pairs
        .iter()
        .map(|(_, sharded)| sharded.lanes_used)
        .min()
        .unwrap_or(0);
    mp_pairs.sort_by(|a, b| pair_ratio(a).total_cmp(&pair_ratio(b)));
    let median = &mp_pairs[MP_PAIRS / 2];
    let (mp_single, mp_sharded) = median;
    let mp_ratio = pair_ratio(median);
    println!(
        "multi-producer ({MP_THREADS} threads, {MP_PAIRS} pairs): sharded/single {} | \
         median pair: single-lane {:.0}/s | {} lanes {:.0}/s ({:.2}x, {} lanes used, {} steals)",
        mp_ratios.join(" "),
        mp_single.rps,
        mp_sharded.lanes,
        mp_sharded.rps,
        mp_ratio,
        mp_sharded.lanes_used,
        mp_sharded.steals,
    );

    let json = emit_json(
        &results,
        threads,
        &multi_producer_json(mp_single, mp_sharded),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("\nwrote {path}");

    let stats = runtime.stats();
    println!(
        "runtime totals: served={} batches={} batched_requests={} plan hits/misses={}/{}",
        stats.served, stats.batches, stats.batched_requests, stats.plan_hits, stats.plan_misses
    );

    // Acceptance gates. (1) Throughput: batched ≥ 2× the unbatched
    // per-request (planned) path on at least 3 small-M shapes. (2) The
    // batcher actually engaged on every case — planned-path speedup alone
    // would stay green even if the scheduler degenerated into lockstep
    // one-request cycles, so a coalescing regression must fail the smoke
    // job too. (`speedup_vs_direct` stays informational: it depends on
    // host width — below 1 on single-core containers where the pool's
    // parallel win is dormant, above it on wide hosts.)
    let wins = results
        .iter()
        .filter(|r| r.m <= 16 && r.batched.rps >= 2.0 * r.planned.rps)
        .count();
    let unbatched_cases: Vec<String> = results
        .iter()
        .filter(|r| r.batches == 0)
        .map(|r| format!("M={} {}^{}", r.m, r.p, r.n))
        .collect();
    let mut failed = false;
    if wins >= 3 {
        println!(
            "batched ≥ 2x unbatched on {wins}/{} small-M shapes",
            results.len()
        );
    } else {
        println!(
            "FAIL: batched ≥ 2x unbatched on only {wins}/{} shapes",
            results.len()
        );
        failed = true;
    }
    if unbatched_cases.is_empty() {
        println!("cross-request batching engaged on every case");
    } else {
        println!("FAIL: no batches formed on: {}", unbatched_cases.join(", "));
        failed = true;
    }
    // (2b) Tail integrity: in every armed run of every case, the
    // runtime's own histograms attributed every timed request to its
    // model entry — `batched_tails` is a real measurement, not a stale or
    // cross-wired one.
    let tail_gaps: Vec<String> = results
        .iter()
        .filter(|r| r.counted.iter().any(|&c| c != REQUESTS as u64))
        .map(|r| {
            format!(
                "M={} {}^{} counted {:?}/{REQUESTS}",
                r.m, r.p, r.n, r.counted
            )
        })
        .collect();
    if tail_gaps.is_empty() {
        println!("runtime histograms attributed all {REQUESTS} timed requests of every armed run");
    } else {
        println!("FAIL: histogram attribution gaps: {}", tail_gaps.join(", "));
        failed = true;
    }
    // (2c) Tail fidelity, pinned on the queue-depth-1 window: with
    // percentile interpolation inside the log2 buckets, the runtime-side
    // p50/p95 must land within one bucket of the client-side measurement
    // of the same window. (Before the interpolation fix, every readout
    // snapped to its bucket's upper bound — up to 2x the true value —
    // and nothing pinned the agreement.) The bypass window is the one
    // whose timeline is complete: under burst, a request served late in
    // a cycle waits out earlier batch executes in no timeline stage, so
    // runtime-side burst tails legitimately read below the client's.
    // One bucket of slack covers the client clock starting before
    // submit-side bookkeeping; the 4µs absolute floor covers sub-bucket
    // clock granularity on the fastest shapes; 6/8 covers host jitter.
    let log2_bucket = |us: f64| -> i64 {
        let v = us.round().max(0.0) as u64;
        if v == 0 {
            0
        } else {
            (u64::BITS - v.leading_zeros()) as i64
        }
    };
    let close = |runtime_us: u64, client_us: f64| {
        (log2_bucket(runtime_us as f64) - log2_bucket(client_us)).abs() <= 1
            || (runtime_us as f64 - client_us).abs() <= 4.0
    };
    let tails_faithful = results
        .iter()
        .filter(|r| {
            close(r.bypass_tails.percentile(0.50), r.bypass.p50_us)
                && close(r.bypass_tails.percentile(0.95), r.bypass.p95_us)
        })
        .count();
    if tails_faithful >= 6 {
        println!(
            "runtime-side p50/p95 within one log2 bucket of client-side on {tails_faithful}/{} queue-depth-1 cases",
            results.len()
        );
    } else {
        for r in &results {
            println!(
                "  M={} {}^{}: client p50={:.1}us p95={:.1}us | runtime p50={}us p95={}us",
                r.m,
                r.p,
                r.n,
                r.bypass.p50_us,
                r.bypass.p95_us,
                r.bypass_tails.percentile(0.50),
                r.bypass_tails.percentile(0.95),
            );
        }
        println!(
            "FAIL: runtime-side tails disagree with client-side on {}/{} cases",
            results.len() - tails_faithful,
            results.len()
        );
        failed = true;
    }
    // (3) Fault-free overhead: with no fault firing, the retry-enabled
    // runtime's p50 must be indistinguishable from the retry-disabled
    // twin's — the self-healing machinery may not tax the healthy path.
    // Each side's p50 is its median over the alternating pairs. The bound
    // is generous (1.5x + 20µs) because single-digit-µs p50s on shared CI
    // hosts jitter by more than the machinery could ever cost; a real
    // regression (a lock or allocation on the hot path) blows through it
    // anyway.
    let overhead_ok = results
        .iter()
        .filter(|r| r.batched.p50_us <= 1.5 * r.noretry.p50_us + 20.0)
        .count();
    if overhead_ok >= 6 {
        println!(
            "retry-enabled median p50 within noise of retry-disabled on {overhead_ok}/{} cases",
            results.len()
        );
    } else {
        for r in &results {
            println!(
                "  M={} {}^{}: median p50 retry={:.2}us noretry={:.2}us",
                r.m, r.p, r.n, r.batched.p50_us, r.noretry.p50_us
            );
        }
        println!(
            "FAIL: fault-free retry overhead visible on {}/{} cases",
            results.len() - overhead_ok,
            results.len()
        );
        failed = true;
    }
    // (4) Queue-depth-1 latency: the inline bypass lane must hold
    // sequential submit→wait within ~2x of the raw fused call — the
    // batching tax (linger window + channel round-trip + scheduler wake)
    // is gone from the direct path. The +25µs grace absorbs OS jitter on
    // shared hosts where direct p50s are single-digit µs. Every timed
    // request must also have actually taken the inline lane: a silent
    // fallback to the scheduler would only pass by luck.
    let bypass_ok = results
        .iter()
        .filter(|r| {
            r.bypassed == REQUESTS as u64 && r.bypass.p50_us <= 2.0 * r.direct.p50_us + 25.0
        })
        .count();
    if bypass_ok >= 6 {
        println!(
            "queue-depth-1 p50 within 2x of unbatched_direct on {bypass_ok}/{} cases",
            results.len()
        );
    } else {
        for r in &results {
            println!(
                "  M={} {}^{}: p50 bypass={:.2}us direct={:.2}us bypassed={}/{REQUESTS}",
                r.m, r.p, r.n, r.bypass.p50_us, r.direct.p50_us, r.bypassed
            );
        }
        println!(
            "FAIL: queue-depth-1 latency tax visible on {}/{} cases",
            results.len() - bypass_ok,
            results.len()
        );
        failed = true;
    }
    // (5) Multi-producer scaling: with 4 submitter threads pipelining
    // bursts, every sharded run must actually use its lanes (hash
    // placement spread the eight models over ≥ 2 lanes — deterministic,
    // host-independent), and the median pair's sharded run must beat its
    // single-lane twin's throughput on hosts wide enough for lanes to run
    // in parallel. On single-core hosts the lanes time-slice one core, so
    // the ratio gate degrades to a regression bound: sharding may not
    // cost more than half the single-lane throughput even when its
    // parallelism is dormant.
    if mp_min_lanes_used >= 2 {
        println!("every sharded run spread load across ≥ {mp_min_lanes_used} lanes");
    } else {
        println!("FAIL: a sharded run served everything on {mp_min_lanes_used} lane(s)");
        failed = true;
    }
    let (mp_floor, mp_label) = if threads >= 2 {
        (1.05, "multi-core scaling")
    } else {
        (0.5, "single-core regression bound")
    };
    if mp_ratio >= mp_floor {
        println!(
            "multi-producer sharded/single throughput, median of {MP_PAIRS} pairs, \
             {mp_ratio:.2}x ≥ {mp_floor}x ({mp_label})"
        );
    } else {
        println!(
            "FAIL: multi-producer sharded/single throughput, median of {MP_PAIRS} pairs, \
             {mp_ratio:.2}x < {mp_floor}x ({mp_label})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
