//! # fastkron-core
//!
//! The paper's contribution: Kron-Matmul by *sliced multiplication*
//! (Algorithm 1), a tiled kernel with shift caching (§4.1), fusion of
//! consecutive sliced multiplications in shared memory (§4.2), and an
//! autotuner over tile sizes (§4.3).
//!
//! Three layers are provided:
//!
//! * [`exec`] — **Algorithm 1, the production path**: fused
//!   sliced-multiply execution with zero intermediate allocations and no
//!   transpose pass. A [`exec::Workspace`] holds two ping-pong buffers
//!   sized once from [`kron_core::KronProblem::max_intermediate_elems`];
//!   each factor step runs a register-blocked microkernel (an `RK × W`
//!   FMA accumulator tile of slices read in place and up to 16 factor
//!   columns) whose epilogue scatters results directly to output column
//!   `q·K/P + slice` ([`exec::fused_output_col`]) — the memory shuffle
//!   the shuffle algorithm pays for never happens. On x86_64 builds with
//!   AVX2 and FMA an explicit 256-bit tile broadcasts `X` against `F` row
//!   segments and transposes its block in registers before one
//!   contiguous store per column; tails, and builds without those
//!   features, run a plain scalar tile with the same FMA order, so
//!   results are bit-identical (`tests/exact_order.rs`, on a native and a
//!   `RUSTFLAGS="-C target-cpu=x86-64"` build). Every execute runs one
//!   step function over a `(row groups, slice groups)` grid: with one
//!   slice group, each row tile threads its *entire* factor chain through
//!   its own rows of the workspace as one pool task; with several, each
//!   factor step is one pool broadcast over the grid. Which grid runs is
//!   measured, as the paper's autotuner measures kernel configurations:
//!   the first execute of a chain, dtype and row bucket times the serial
//!   grid against the pool's and keeps the fastest for the process.
//!   [`exec::kron_matmul_fused`] is the one-call form. One sliced
//!   multiply on its own is [`kron_core::ftmmt::ftmmt_iteration`]: FTMMT
//!   computes the same per-iteration map, and the tests use it as the
//!   reference.
//! * [`kernel`] — thread-block-accurate emulation of the CUDA kernel, one
//!   emulator for a launch of one factor (Figure 3) and for a fused launch
//!   of several (Figure 7), usable both functionally (tests) and in
//!   address-only trace mode (performance counters).
//!   [`kernel::price_launch`] prices every simulated launch. The kernel
//!   epilogue and [`exec`] share one output-column map, so the layers
//!   cannot drift apart.
//! * [`engine`] — the public planned API: [`FastKron::plan`] autotunes tile
//!   sizes for a problem on a device, [`KronPlan::execute`] computes (on
//!   the fused path), and [`KronPlan::simulate`] produces a simulated-time
//!   [`gpu_sim::ExecReport`].

#![deny(missing_docs)]

pub mod engine;
pub mod exec;
pub mod kernel;
pub mod tile;
pub mod tuner;

pub use engine::{FastKron, KronPlan, PlanStage};
pub use exec::{kron_matmul_fused, sliced_multiply_rows_into, PackPanel, Workspace};
pub use tile::{Caching, TileConfig};
pub use tuner::{AutoTuner, Constraints, TuneOutcome, TuneReport};
