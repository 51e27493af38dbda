//! Table 5 in miniature: train a SKI Gaussian process on a synthetic
//! dataset, verify the CG solve functionally, and compare simulated epoch
//! times of the vanilla-GPyTorch vs FastKron-integrated backends.
//!
//! Run with `cargo run --release --example gaussian_process`.

use fastkron::gp::train::{GpVariant, KronBackend, TrainTimer};
use fastkron::gp::{Dataset, InducingGrid, SkiGp, UciDataset};
use fastkron::prelude::*;
use kron_core::Matrix;

fn main() {
    // Functional: a small SKI-GP solve on synthetic "servo"-like data.
    let data = Dataset::synthesize_subsampled(UciDataset::Servo, 42, 120);
    let grid = InducingGrid::new(data.source.dims(), 4, 0.4).expect("grid");
    let gp = SkiGp::<f64>::new(grid, &data.features, 0.4).expect("model");
    let n = data.len();
    let mut b = Matrix::<f64>::zeros(1, n);
    for (j, &t) in data.targets.iter().enumerate() {
        b[(0, j)] = t;
    }
    let (max_iters, tol) = (100, 1e-8);
    let solve = gp.solve(&b, max_iters, tol).expect("CG");
    println!(
        "SKI-GP solve on {} ({} pts, {} dims, grid 4^{}): {} CG iterations, residual {:.2e}",
        data.source.name(),
        n,
        data.source.dims(),
        data.source.dims(),
        solve.iterations,
        solve.residuals[0]
    );
    // CG's stopping rule: the residual fell to `tol · ‖b‖` before the
    // iteration cap.
    let b_norm = b.row(0).iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(
        solve.iterations < max_iters && solve.residuals[0] <= tol * b_norm,
        "CG did not converge"
    );

    // Timing study: one Table 5 row.
    let timer = TrainTimer::new(&V100);
    let (ds, p) = (UciDataset::Yacht, 16);
    for variant in GpVariant::all() {
        let vanilla = timer
            .epoch_seconds::<f32>(ds, p, variant, KronBackend::GPyTorch)
            .unwrap();
        let fk1 = timer
            .epoch_seconds::<f32>(ds, p, variant, KronBackend::FastKron { gpus: 1 })
            .unwrap();
        let fk16 = timer
            .epoch_seconds::<f32>(ds, p, variant, KronBackend::FastKron { gpus: 16 })
            .unwrap();
        println!(
            "{} on yacht 16^6: vanilla {:.2} s | FastKron-1GPU {:.2} s ({:.1}x) | FastKron-16GPU {:.2} s ({:.1}x)",
            variant.name(),
            vanilla,
            fk1,
            vanilla / fk1,
            fk16,
            vanilla / fk16
        );
        assert!(
            fk1 < vanilla,
            "{}: FastKron-1GPU must beat vanilla",
            variant.name()
        );
        assert!(fk16 < fk1, "{}: 16 GPUs must beat 1", variant.name());
    }
}
