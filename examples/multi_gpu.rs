//! Distributed Kron-Matmul on a simulated 8-GPU fabric: functional
//! execution with the simulated GPUs stepped in lockstep, verification
//! against the single-device engine, and the communication-volume
//! comparison against the CTF/DISTAL models.
//!
//! Run with `cargo run --release --example multi_gpu`.

use fastkron::dist::{CtfEngine, DistFastKron, DistalEngine};
use fastkron::prelude::*;
use kron_core::Matrix;

fn main() {
    let gpus = 8;
    let problem = KronProblem::uniform(16, 8, 4).expect("valid shape");
    let k = problem.input_cols();

    let x = Matrix::<f64>::from_fn(16, k, |r, c| ((r * 13 + c) % 17) as f64 - 8.0);
    let factors: Vec<Matrix<f64>> = (0..4)
        .map(|i| Matrix::from_fn(8, 8, |r, c| ((i * 7 + r * 8 + c) % 9) as f64 - 4.0))
        .collect();
    let refs: Vec<&Matrix<f64>> = factors.iter().collect();

    let engine = DistFastKron::new(&V100, gpus).expect("grid");
    let grid = engine.grid();
    println!(
        "Distributing M=16, 8^4 over {gpus} GPUs as a {}×{} grid",
        grid.gm, grid.gk
    );

    // Functional distributed run (lockstep devices) vs single-device.
    let y_dist = engine.execute(&x, &refs).expect("distributed run");
    let y_single = fastkron::kron::algorithm::kron_matmul_fastkron(&x, &refs).expect("single run");
    assert_matrices_close(&y_dist, &y_single, "distributed == single");
    println!("Distributed result matches the single-device engine.");

    // Communication accounting.
    let vol = engine.comm_volume_elements(&problem).expect("volume");
    println!("FastKron communication: {vol} elements (Algorithm 2, grouped rounds)");

    let fk = engine.simulate::<f64>(&problem).expect("sim");
    let ctf = CtfEngine::new(&V100, gpus)
        .unwrap()
        .simulate::<f64>(&problem)
        .unwrap();
    let distal = DistalEngine::new(&V100, gpus)
        .unwrap()
        .simulate::<f64>(&problem)
        .unwrap();
    println!(
        "Simulated wall time: FastKron {:.3} ms | DISTAL {:.3} ms | CTF {:.3} ms",
        fk.seconds * 1e3,
        distal.seconds * 1e3,
        ctf.seconds * 1e3
    );
    println!(
        "Comm bytes: FastKron {} | DISTAL {} | CTF {}",
        fk.comm_bytes, distal.comm_bytes, ctf.comm_bytes
    );
}
