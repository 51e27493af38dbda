//! # fastkron — facade crate
//!
//! Re-exports the whole FastKron workspace behind one dependency:
//!
//! * [`core`] — matrices, shapes, reference algorithms (`kron-core`),
//! * [`sim`] — the GPU performance simulator (`gpu-sim`),
//! * [`kron`] — the FastKron engine: Algorithm 1, tiled kernels, shift
//!   caching, fusion, autotuner (`fastkron-core`),
//! * [`baselines`] — GPyTorch-, COGENT-, cuTensor-style engines
//!   (`kron-baselines`),
//! * [`dist`] — the multi-GPU engine and distributed baselines (`kron-dist`),
//! * [`gp`] — the Gaussian-process case study (`kron-gp`),
//! * [`runtime`] — the persistent serving runtime: plan caching and
//!   cross-request batching (`kron-runtime`).
//!
//! ```
//! use fastkron::prelude::*;
//!
//! // Y = X · (F1 ⊗ F2) with two 4×4 factors.
//! let problem = KronProblem::uniform(8, 4, 2).unwrap();
//! let x = Matrix::<f32>::from_fn(8, 16, |r, c| (r + c) as f32);
//! let f = Matrix::<f32>::identity(4);
//! let engine = FastKron::plan::<f32>(&problem, &V100).unwrap();
//! let y = engine.execute(&x, &[&f, &f]).unwrap();
//! assert_eq!(y, x); // identity factors ⇒ identity map
//! ```

pub use fastkron_core as kron;
pub use gpu_sim as sim;
pub use kron_baselines as baselines;
pub use kron_core as core;
pub use kron_dist as dist;
pub use kron_gp as gp;
pub use kron_runtime as runtime;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use fastkron_core::{FastKron, KronPlan, TileConfig, Workspace};
    pub use gpu_sim::device::{DeviceSpec, A100, V100};
    pub use gpu_sim::ExecSummary;
    pub use kron_core::{
        assert_matrices_close, ExecBackend, FactorShape, KronProblem, Matrix, PlanKey,
    };
    pub use kron_dist::{DistFastKron, GpuGrid, ShardedEngine};
    pub use kron_runtime::{
        adaptive_linger_us, aged_priority, Backend, BreakerPolicy, BreakerState, CachePolicy,
        Clock, DeviceHealthReport, DeviceMetricsSnapshot, EvictReason, FaultEvent, FaultKind,
        FaultPlan, FaultTrigger, HistogramSnapshot, LaneStats, ManualClock, MetricsSnapshot,
        ModelPin, ModelStats, Outcome, RetryPolicy, Runtime, RuntimeConfig, RuntimeStats,
        ServeElement, ServeEvent, ServeEventKind, ServeReceipt, Session, Stage, StageTimings,
        SubmitOptions, Ticket, MAX_LANES,
    };
}
