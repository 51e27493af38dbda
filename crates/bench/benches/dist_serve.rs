//! Distributed serving bench: the `kron-runtime` `Distributed` backend on
//! the paper's Figure 11 uniform shapes, emitting `BENCH_dist_serve.json`
//! at the repo root.
//!
//! Two measurements per shape:
//!
//! * **Simulated speedup** (`speedup_vs_single`, the gate) — simulated
//!   wall-clock of the sharded Algorithm 2 execution on 8 GPUs versus one
//!   device, both priced by the same trace-driven cost model at the
//!   paper's full `M`. This is the number Figure 11 reports, and it is
//!   host-independent — the right gate on a container whose real core
//!   count has nothing to do with the simulated machine.
//! * **Functional serving** (correctness + wall-clock, informational) —
//!   the runtime *actually serves* each shape at a CPU-scaled `M`
//!   (`BENCH_exec.json` precedent) through both backends, every result
//!   checked against the shuffle oracle, per-request simulated stats
//!   flowing back through `Ticket::wait_with_stats`.
//!
//! Gate: sharded simulated serving ≥ 1.5× single-device on ≥ 6 of 8
//! shapes (and every functional check passes), else exit 1.

use gpu_sim::device::V100;
use kron_core::{assert_matrices_close, KronProblem, Matrix};
use kron_dist::DistFastKron;
use kron_runtime::{Backend, Runtime, RuntimeConfig, Ticket};
use std::time::Instant;

/// Simulated GPUs in the sharded configuration (a DGX-style machine).
const GPUS: usize = 8;

/// Figure 11 uniform shapes `(m, p, n)` at the paper's scale (used for the
/// simulated gate).
const CASES: &[(usize, usize, usize)] = &[
    (1024, 64, 3),
    (512, 64, 3),
    (1024, 32, 4),
    (512, 32, 4),
    (1024, 16, 4),
    (512, 16, 4),
    (1024, 128, 2),
    (512, 128, 2),
];

/// Rows actually served functionally per shape (CPU-scaled `M`, split into
/// `SCALED_M` single-row requests batched by the runtime).
const SCALED_M: usize = 8;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 3 * r * cols + c) % 13) as f32 - 6.0
    })
}

struct CaseResult {
    m: usize,
    p: usize,
    n: usize,
    sim_single_ms: f64,
    sim_dist_ms: f64,
    speedup_vs_single: f64,
    sim_comm_gb: f64,
    served_rows: usize,
    dist_rps: f64,
    single_rps: f64,
    served_comm_bytes: u64,
}

/// Serves `SCALED_M` single-row requests of the scaled shape as one linked
/// batch; returns wall-clock requests/second and the summed per-request
/// simulated communication bytes.
fn serve_scaled(
    runtime: &Runtime,
    factors: &[Matrix<f32>],
    x_all: &Matrix<f32>,
    oracle_rows: &Matrix<f32>,
    label: &str,
) -> (f64, u64) {
    let model = runtime.load_model(factors.to_vec()).expect("load model");
    let k = model.input_cols();
    let xs: Vec<Matrix<f32>> = (0..SCALED_M)
        .map(|i| Matrix::from_fn(1, k, |_, c| x_all[(i, c)]))
        .collect();
    let t0 = Instant::now();
    let tickets: Vec<Ticket<f32>> = runtime
        .submit_linked(xs.into_iter().map(|x| (&model, x)).collect())
        .expect("linked submit");
    let mut comm = 0u64;
    for (i, t) in tickets.into_iter().enumerate() {
        let (y, stats) = t.wait_with_stats().expect("serve");
        let expected = Matrix::from_fn(1, model.output_cols(), |_, c| oracle_rows[(i, c)]);
        assert_matrices_close(&y, &expected, &format!("{label} row {i}"));
        comm += stats.map_or(0, |s| s.comm_bytes);
    }
    let wall = t0.elapsed().as_secs_f64();
    (SCALED_M as f64 / wall, comm)
}

fn run_case(dist_rt: &Runtime, single_rt: &Runtime, m: usize, p: usize, n: usize) -> CaseResult {
    // Simulated gate at the paper's full M.
    let problem = KronProblem::uniform(m, p, n).expect("valid case");
    let single = DistFastKron::new(&V100, 1).expect("grid");
    let sharded = DistFastKron::new(&V100, GPUS).expect("grid");
    let rep_single = single.simulate::<f32>(&problem).expect("simulate single");
    let rep_dist = sharded.simulate::<f32>(&problem).expect("simulate sharded");

    // Functional serving at CPU-scaled M through both backends.
    let factors: Vec<Matrix<f32>> = (0..n).map(|i| seq_matrix(p, p, i + 2)).collect();
    let refs: Vec<&Matrix<f32>> = factors.iter().collect();
    let x_all = seq_matrix(SCALED_M, problem.input_cols(), 1);
    let oracle = kron_core::shuffle::kron_matmul_shuffle(&x_all, &refs).expect("oracle");
    let (dist_rps, served_comm_bytes) =
        serve_scaled(dist_rt, &factors, &x_all, &oracle, &format!("dist {p}^{n}"));
    let (single_rps, _) = serve_scaled(
        single_rt,
        &factors,
        &x_all,
        &oracle,
        &format!("single {p}^{n}"),
    );

    CaseResult {
        m,
        p,
        n,
        sim_single_ms: rep_single.seconds * 1e3,
        sim_dist_ms: rep_dist.seconds * 1e3,
        speedup_vs_single: rep_single.seconds / rep_dist.seconds,
        sim_comm_gb: rep_dist.comm_bytes as f64 / 1e9,
        served_rows: SCALED_M,
        dist_rps,
        single_rps,
        served_comm_bytes,
    }
}

fn emit_json(results: &[CaseResult]) -> String {
    let cases: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"m\": {}, \"p\": {}, \"n\": {},\n",
                    "     \"sim_single_ms\": {:.4}, \"sim_dist_ms\": {:.4},\n",
                    "     \"speedup_vs_single\": {:.3}, \"sim_comm_gb\": {:.4},\n",
                    "     \"served_rows\": {}, \"dist_rps\": {:.1}, \"single_rps\": {:.1},\n",
                    "     \"served_comm_bytes\": {}}}"
                ),
                r.m,
                r.p,
                r.n,
                r.sim_single_ms,
                r.sim_dist_ms,
                r.speedup_vs_single,
                r.sim_comm_gb,
                r.served_rows,
                r.dist_rps,
                r.single_rps,
                r.served_comm_bytes,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"dist_serve\",\n",
            "  \"description\": \"runtime Distributed backend on Figure 11 uniform shapes: \
             simulated 8-GPU sharding vs single device (gate), functional serving at \
             CPU-scaled M (correctness + informational wall-clock)\",\n",
            "  \"dtype\": \"f32\",\n",
            "  \"gpus\": {},\n",
            "  \"scaled_m\": {},\n",
            "  \"gate\": \"speedup_vs_single >= 1.5 on >= 6/8 shapes\",\n",
            "  \"cases\": [\n{}\n  ]\n",
            "}}\n"
        ),
        GPUS,
        SCALED_M,
        cases.join(",\n")
    )
}

fn main() {
    let dist_rt = Runtime::new(RuntimeConfig {
        max_batch_rows: SCALED_M,
        batch_max_m: SCALED_M,
        backend: Backend::Distributed {
            gpus: GPUS,
            p2p: false,
        },
        ..RuntimeConfig::default()
    });
    let single_rt = Runtime::new(RuntimeConfig {
        max_batch_rows: SCALED_M,
        batch_max_m: SCALED_M,
        ..RuntimeConfig::default()
    });

    println!(
        "{:>12} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "case", "sim 1GPU ms", "sim 8GPU ms", "speedup", "dist r/s", "single r/s"
    );
    let mut results = Vec::new();
    for &(m, p, n) in CASES {
        let r = run_case(&dist_rt, &single_rt, m, p, n);
        println!(
            "{:>12} {:>12.3} {:>12.3} {:>8.2}x {:>10.1} {:>10.1}",
            format!("M={m} {p}^{n}"),
            r.sim_single_ms,
            r.sim_dist_ms,
            r.speedup_vs_single,
            r.dist_rps,
            r.single_rps,
        );
        results.push(r);
    }

    let json = emit_json(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist_serve.json");
    std::fs::write(path, &json).expect("write BENCH_dist_serve.json");
    println!("\nwrote {path}");

    let stats = dist_rt.stats();
    println!(
        "distributed runtime totals: served={} sharded_batches={} comm_bytes={} \
         local_fallbacks={} plan hits/misses={}/{}",
        stats.served,
        stats.sharded_batches,
        stats.comm_bytes,
        stats.local_fallbacks,
        stats.plan_hits,
        stats.plan_misses
    );

    // Acceptance gates. (1) Simulated sharded serving ≥ 1.5× single-device
    // on ≥ 6/8 Figure 11 shapes. (2) Every shape actually sharded when
    // served (no silent fallback). Functional correctness already asserted
    // per request above.
    let wins = results
        .iter()
        .filter(|r| r.speedup_vs_single >= 1.5)
        .count();
    let mut failed = false;
    if wins >= 6 {
        println!(
            "simulated sharded ≥ 1.5x single-device on {wins}/{} shapes",
            results.len()
        );
    } else {
        println!(
            "FAIL: simulated sharded ≥ 1.5x single-device on only {wins}/{} shapes",
            results.len()
        );
        failed = true;
    }
    if stats.local_fallbacks == 0 && stats.sharded_batches >= CASES.len() as u64 {
        println!("every served batch sharded across the grid");
    } else {
        println!(
            "FAIL: sharding did not engage everywhere (sharded={} fallbacks={})",
            stats.sharded_batches, stats.local_fallbacks
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
