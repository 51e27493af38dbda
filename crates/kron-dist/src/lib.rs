//! # kron-dist
//!
//! Distributed Kron-Matmul on a simulated multi-GPU machine (§5 of the
//! paper).
//!
//! * [`fabric`] — the machine model: a SUMMA-style `{GM, GK}` grid of
//!   simulated GPUs and an α–β communication-time model standing in for
//!   NCCL over NVLink 2.
//! * [`fastkron`] — Algorithm 2: each GPU performs
//!   `Nlocal = ⌊log_P TGK⌋` *local* sliced multiplications before one
//!   all-to-all relocation round (`StoreGPUTile`), cutting communication
//!   volume by `Nlocal` versus per-iteration exchanges. Functionally
//!   executable and analytically timeable.
//! * [`engine`] — [`ShardedEngine`], the serving-grade form of Algorithm 2:
//!   the simulated devices are plain state stepped in lockstep on the
//!   caller's thread, each exchange is one copy pass between device
//!   blocks, and every block is allocated once, so a warmed engine
//!   executes with **zero allocations** and a faulted device fails its
//!   batch cleanly. Built via [`DistFastKron::workspace`]; this is what
//!   `kron-runtime`'s `Distributed` backend serves through.
//! * [`baselines`] — the two rival distributed systems of §6.3: CTF
//!   (distributed shuffle: GEMM + distributed transpose every iteration)
//!   and DISTAL (distributed FTMMT: fused contraction, but still one
//!   exchange per iteration).

#![deny(missing_docs)]

pub mod baselines;
pub mod engine;
pub mod fabric;
pub mod fastkron;

pub use baselines::{CtfEngine, DistalEngine};
pub use engine::{ShardedEngine, Watchdog};
pub use fabric::{CommModel, GpuGrid};
pub use fastkron::DistFastKron;
