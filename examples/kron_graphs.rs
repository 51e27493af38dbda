//! Kronecker graphs (Table 4 rows 17–19): the adjacency structure of a
//! stochastic Kronecker graph is the N-fold Kronecker power of a small
//! initiator matrix; seed-vector propagation through the graph is a
//! Kron-Matmul. This example propagates a batch of indicator vectors
//! through a 3×3-initiator graph, checks the result against the shuffle
//! oracle, and reports the simulated-GPU speedup of FastKron over the
//! shuffle algorithm for the workload.
//!
//! Run with `cargo run --release --example kron_graphs`.

use fastkron::baselines::{Engine, FastKronEngine, ShuffleEngine};
use fastkron::prelude::*;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{assert_matrices_close, Matrix};

fn main() {
    // Leskovec-style initiator: probabilities of edge blocks.
    let initiator =
        Matrix::<f64>::from_vec(3, 3, vec![0.9, 0.5, 0.1, 0.5, 0.3, 0.2, 0.1, 0.2, 0.8])
            .expect("initiator");
    let levels = 7; // 3^7 = 2187 vertices
    let problem = KronProblem::uniform(8, 3, levels).expect("shape");
    let vertices = problem.input_cols();

    // A batch of 8 seed distributions over the vertices.
    let seeds = Matrix::<f64>::from_fn(8, vertices, |r, c| {
        if c % (r + 2) == 0 {
            1.0 / vertices as f64
        } else {
            0.0
        }
    });
    let factors: Vec<&Matrix<f64>> = (0..levels).map(|_| &initiator).collect();

    // One step of probability propagation: s' = s · (⊗ initiator).
    let engine = FastKronEngine::new(&V100);
    let propagated = engine.execute(&seeds, &factors).expect("propagate");
    let oracle = kron_matmul_shuffle(&seeds, &factors).expect("shuffle oracle");
    assert_matrices_close(&propagated, &oracle, "propagation vs the shuffle oracle");
    let mass: f64 = propagated.row(0).iter().sum();
    println!("Propagated 8 seed vectors over a 3^{levels} = {vertices}-vertex Kronecker graph");
    println!("Row-0 probability mass after one step: {mass:.4}");

    // Simulated device comparison for this exact workload (Table 4 id 17).
    let big = KronProblem::uniform(1024, 3, 7).expect("table-4 case");
    let t_fk = Engine::<f64>::simulate(&engine, &big).unwrap().seconds;
    let t_gp = Engine::<f64>::simulate(&ShuffleEngine::new(&V100), &big)
        .unwrap()
        .seconds;
    println!(
        "Table 4 id 17 (M=1024, 3^7): FastKron {:.2} ms vs GPyTorch {:.2} ms ({:.1}x)",
        t_fk * 1e3,
        t_gp * 1e3,
        t_gp / t_fk
    );
    assert!(t_fk < t_gp, "FastKron must beat GPyTorch on Table 4 id 17");
}
