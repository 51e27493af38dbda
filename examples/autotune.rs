//! Autotuner walk-through: candidate enumeration, pruning, the chosen
//! tile configuration, and fused-vs-unfused planning for several shapes.
//!
//! Run with `cargo run --release --example autotune`.

use fastkron::kron::tuner::AutoTuner;
use fastkron::kron::FastKron;
use fastkron::prelude::*;
use kron_core::DType;

fn main() {
    let tuner = AutoTuner::new(&V100);
    for (m, p, n) in [(1024usize, 8usize, 5usize), (16, 64, 3), (20, 9, 3)] {
        let k = p.pow(n as u32);
        let out = tuner.tune(m, k, p, p, DType::F32).expect("tunable shape");
        let (generated, scored) = (out.report.generated, out.report.scored);
        assert!(
            0 < scored && scored <= generated,
            "{scored} of {generated} scored"
        );
        out.config
            .validate(m, k, p, p)
            .expect("the winner is a valid tile");
        println!("shape M={m}, {p}^{n} (K={k}):");
        println!(
            "  {} candidates generated, {} scored in {:.1} ms",
            out.report.generated,
            out.report.scored,
            out.report.tuning_seconds * 1e3
        );
        let c = out.config;
        println!(
            "  winner: TM={} TK={} TQ={} TP={} / RK={} RQ={} RP={} ({:?} caching)",
            c.tm, c.tk, c.tq, c.tp, c.rk, c.rq, c.rp, c.caching
        );
        println!("  estimated kernel time: {:.3} ms", out.est_seconds * 1e3);

        let problem = KronProblem::uniform(m, p, n).expect("valid");
        let plan = FastKron::plan::<f32>(&problem, &V100).expect("plan");
        let mut covered: Vec<usize> = plan
            .stages
            .iter()
            .flat_map(|s| s.factor_indices.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..n).collect::<Vec<_>>(), "each factor once");
        let stages: Vec<String> = plan
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{}[{}]",
                    if s.fused() { "fused" } else { "sliced" },
                    s.factor_indices.len()
                )
            })
            .collect();
        println!(
            "  plan: {} launches: {}\n",
            plan.launches(),
            stages.join(" → ")
        );
    }
}
