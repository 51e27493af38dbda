//! # kron-baselines
//!
//! The rival Kron-Matmul engines FastKron is evaluated against in §6 of the
//! paper, rebuilt at the fidelity the experiments need:
//!
//! * [`ShuffleEngine`] — GPyTorch 1.11 / PyKronecker: per factor
//!   `reshape → cuBLAS GEMM → 3-D inner transpose`. Functionally exact
//!   (`kron-core`'s shuffle reference); timed with the calibrated cuBLAS
//!   and transpose models. Reports the matmul/transpose split of Table 1.
//! * [`FtmmtEngine`] — COGENT (CGO'19 tensor-contraction code generator):
//!   fused transpose+multiply per factor, *direct* shared-memory caching
//!   with a whole slice per thread (§2.2), per-iteration global
//!   intermediates. Planned by FastKron's one planner
//!   ([`fastkron_core::FastKron::plan_with`]) with fusion off and a tuning
//!   rule constrained to COGENT's caching strategy, then priced by the
//!   same kernel emulator FastKron's plans are — this is what makes
//!   Table 2 (shared-memory transactions) a controlled comparison.
//! * [`CuTensorEngine`] — NVIDIA cuTensor: same FTMMT structure and
//!   planner, direct caching, runtime-autotuned tiles (the paper finds it
//!   within ~10% of COGENT and "as good as manually tuned CUTLASS").
//! * [`NaiveEngine`] — materialize `F1 ⊗ … ⊗ FN`, one huge GEMM; the
//!   `O(M·Pᴺ·Qᴺ)` strawman of §2.
//!
//! All engines implement [`Engine`] so examples and benches can swap them.

#![deny(missing_docs)]

pub mod engine;
pub mod ftmmt;
pub mod naive;
pub mod shuffle;

pub use engine::{Engine, FastKronEngine};
pub use ftmmt::{CuTensorEngine, FtmmtEngine};
pub use naive::NaiveEngine;
pub use shuffle::ShuffleEngine;
