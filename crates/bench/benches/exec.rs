//! Fused-exec bench: naive vs shuffle vs FTMMT vs the fused sliced-multiply
//! path across the Figure 9 factor sizes, emitting `BENCH_exec.json` at the
//! repo root — the first point of the perf trajectory.
//!
//! The paper's Figure 9 runs `M = 1024` on a 32 GB V100; this is a CPU
//! host, so the (P, N) grid is kept and `M` is scaled down to keep wall
//! clock sane while leaving every case large enough that the engines'
//! memory behavior (the thing the fused path changes) dominates. The
//! naive engine materializes the `∏P × ∏Q` Kronecker matrix, which only
//! fits for the smallest case; it is skipped (`null` in the JSON)
//! elsewhere.
//!
//! Timing protocol per engine/case: one warm-up run, then enough timed
//! runs to cover ~300 ms (2..=10), reporting the minimum (min-of-N is
//! the standard low-noise estimator for single-threaded kernels).

use bench::{fig9_label, figure9_cases};
use fastkron_core::exec::Workspace;
use kron_core::ftmmt::kron_matmul_ftmmt;
use kron_core::naive::kron_matmul_naive;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{KronProblem, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Bench-scale row count (Figure 9 uses 1024 on the GPU).
const M: usize = 16;

/// Skip the naive engine when the materialized Kronecker matrix would
/// exceed this element count (64 MB of f32).
const NAIVE_MAX_ELEMS: usize = 1 << 24;

/// Timed runs aim to cover this much wall clock after warm-up.
const TARGET_SECONDS: f64 = 0.3;

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + 3 * r * cols + c) % 13) as f32 - 6.0
    })
}

/// Min-of-N wall-clock seconds for `routine`, N adapted from the warm-up.
fn measure<R>(mut routine: impl FnMut() -> R) -> f64 {
    let warm = Instant::now();
    black_box(routine());
    let est = warm.elapsed().as_secs_f64();
    let samples = ((TARGET_SECONDS / est.max(1e-9)).ceil() as usize).clamp(2, 10);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(routine());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct CaseResult {
    p: usize,
    n: usize,
    flops: u64,
    naive_s: Option<f64>,
    shuffle_s: f64,
    ftmmt_s: f64,
    fused_s: f64,
}

impl CaseResult {
    fn gflops(&self, seconds: f64) -> f64 {
        self.flops as f64 / seconds / 1e9
    }
}

fn run_case(p: usize, n: usize) -> CaseResult {
    let problem = KronProblem::uniform(M, p, n).expect("valid Figure 9 case");
    let k = problem.input_cols();
    let x = seq_matrix(M, k, 1);
    let fs: Vec<Matrix<f32>> = (0..n).map(|i| seq_matrix(p, p, i + 2)).collect();
    let refs: Vec<&Matrix<f32>> = fs.iter().collect();

    let mut workspace = Workspace::new(&problem);
    let mut y = Matrix::zeros(M, problem.output_cols());
    let fused_s = measure(|| workspace.execute_into(&x, &refs, &mut y).unwrap());
    let shuffle_s = measure(|| kron_matmul_shuffle(&x, &refs).unwrap());
    let ftmmt_s = measure(|| kron_matmul_ftmmt(&x, &refs).unwrap());
    let naive_s = (k * problem.output_cols() <= NAIVE_MAX_ELEMS)
        .then(|| measure(|| kron_matmul_naive(&x, &refs).unwrap()));

    // Cross-check while we are here: the numbers being compared must be
    // the same numbers.
    let oracle = kron_matmul_shuffle(&x, &refs).unwrap();
    kron_core::assert_matrices_close(&y, &oracle, &format!("bench case {p}^{n}"));

    CaseResult {
        p,
        n,
        flops: problem.flops(),
        naive_s,
        shuffle_s,
        ftmmt_s,
        fused_s,
    }
}

fn json_opt_gflops(r: &CaseResult, s: Option<f64>) -> String {
    match s {
        Some(sec) => format!("{:.3}", r.gflops(sec)),
        None => "null".to_string(),
    }
}

fn emit_json(results: &[CaseResult]) -> String {
    let mut cases = Vec::new();
    for r in results {
        cases.push(format!(
            concat!(
                "    {{\"p\": {}, \"n\": {}, \"flops\": {},\n",
                "     \"seconds\": {{\"naive\": {}, \"shuffle\": {:.6}, \"ftmmt\": {:.6}, \"fused\": {:.6}}},\n",
                "     \"gflops\": {{\"naive\": {}, \"shuffle\": {:.3}, \"ftmmt\": {:.3}, \"fused\": {:.3}}},\n",
                "     \"fused_speedup_vs_shuffle\": {:.3}}}"
            ),
            r.p,
            r.n,
            r.flops,
            r.naive_s
                .map(|s| format!("{s:.6}"))
                .unwrap_or_else(|| "null".to_string()),
            r.shuffle_s,
            r.ftmmt_s,
            r.fused_s,
            json_opt_gflops(r, r.naive_s),
            r.gflops(r.shuffle_s),
            r.gflops(r.ftmmt_s),
            r.gflops(r.fused_s),
            r.shuffle_s / r.fused_s,
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"exec\",\n",
            "  \"description\": \"Figure 9 (P,N) grid, CPU-scaled M; min-of-N wall clock\",\n",
            "  \"dtype\": \"f32\",\n",
            "  \"m\": {},\n",
            "  \"engines\": [\"naive\", \"shuffle\", \"ftmmt\", \"fused\"],\n",
            "  \"cases\": [\n{}\n  ]\n",
            "}}\n"
        ),
        M,
        cases.join(",\n")
    )
}

fn main() {
    let mut results = Vec::new();
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "case", "flops", "naive", "shuffle", "ftmmt", "fused", "speedup"
    );
    for (p, n) in figure9_cases() {
        let r = run_case(p, n);
        println!(
            "{:>8} {:>12} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x",
            fig9_label(p, n),
            r.flops,
            r.naive_s
                .map(|s| format!("{:.2}", r.gflops(s)))
                .unwrap_or_else(|| "-".to_string()),
            r.gflops(r.shuffle_s),
            r.gflops(r.ftmmt_s),
            r.gflops(r.fused_s),
            r.shuffle_s / r.fused_s,
        );
        results.push(r);
    }

    let json = emit_json(&results);
    // crates/bench -> repo root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, &json).expect("write BENCH_exec.json");
    println!("\nwrote {path}");

    let losses: Vec<String> = results
        .iter()
        .filter(|r| r.fused_s > r.shuffle_s)
        .map(|r| fig9_label(r.p, r.n))
        .collect();
    if losses.is_empty() {
        println!("fused beats shuffle on every Figure 9 size");
    } else {
        println!("fused SLOWER than shuffle on: {}", losses.join(", "));
        std::process::exit(1);
    }
}
