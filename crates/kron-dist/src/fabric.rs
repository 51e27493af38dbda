//! The simulated multi-GPU machine: grid layout and communication model.

use gpu_sim::device::DeviceSpec;
use kron_core::{KronError, Result};

/// A 2-D grid of GPUs `{GM, GK}`: `GM` row groups × `GK` column groups.
///
/// Following SUMMA (and §5 of the paper), a machine of `G` GPUs is
/// arranged as `{√G, √G}` when `G` is a perfect square and
/// `{2^⌈log₂√G⌉, 2^⌊log₂√G⌋}` otherwise (powers of two only — the DGX-2
/// configurations the paper evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuGrid {
    /// Row groups (partition of `M`).
    pub gm: usize,
    /// Column groups (partition of `K`).
    pub gk: usize,
}

impl GpuGrid {
    /// Builds the grid for `g` GPUs.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] unless `g` is a power of two (the
    /// paper's partitioning rule produces a grid of exactly `g` GPUs only
    /// then).
    pub fn for_gpus(g: usize) -> Result<GpuGrid> {
        if g == 0 || !g.is_power_of_two() {
            return Err(KronError::InvalidGrid {
                reason: format!("{g} GPUs: the SUMMA-style grid rule needs a power of two"),
            });
        }
        let log2 = g.trailing_zeros() as usize;
        let gk = 1usize << log2.div_ceil(2);
        let gm = 1usize << (log2 / 2);
        debug_assert_eq!(gm * gk, g);
        Ok(GpuGrid { gm, gk })
    }

    /// Total GPUs in the grid.
    pub fn gpus(&self) -> usize {
        self.gm * self.gk
    }

    /// Linear id for GPU `(row, col)`.
    pub fn id(&self, row: usize, col: usize) -> usize {
        row * self.gk + col
    }
}

/// α–β timing for NVLink/NCCL point-to-point transfers.
#[derive(Debug, Clone)]
pub struct CommModel {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Per-GPU egress bandwidth, bytes/second.
    pub beta_bw: f64,
}

impl CommModel {
    /// NCCL over the device's NVLink fabric.
    pub fn nccl(device: &DeviceSpec) -> Self {
        CommModel {
            alpha: device.nvlink_latency,
            beta_bw: device.nvlink_bw,
        }
    }

    /// Direct P2P loads/stores from a single CUDA kernel — the §5
    /// optimization FastKron uses when peer access is available; saves
    /// most of the per-message software latency.
    pub fn p2p(device: &DeviceSpec) -> Self {
        CommModel {
            alpha: device.nvlink_latency / 4.0,
            beta_bw: device.nvlink_bw,
        }
    }

    /// Seconds for one GPU to send `bytes` split across `peers` messages
    /// (egress is serialized per GPU; NVSwitch gives full bandwidth to the
    /// aggregate).
    pub fn send_time(&self, bytes: u64, peers: usize) -> f64 {
        self.alpha * peers as f64 + bytes as f64 / self.beta_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::V100;

    #[test]
    fn grid_rule_matches_paper() {
        // {√G, √G} for squares; {2^⌈log₂√G⌉, 2^⌊log₂√G⌋} otherwise.
        assert_eq!(GpuGrid::for_gpus(1).unwrap(), GpuGrid { gm: 1, gk: 1 });
        assert_eq!(GpuGrid::for_gpus(2).unwrap(), GpuGrid { gm: 1, gk: 2 });
        assert_eq!(GpuGrid::for_gpus(4).unwrap(), GpuGrid { gm: 2, gk: 2 });
        assert_eq!(GpuGrid::for_gpus(8).unwrap(), GpuGrid { gm: 2, gk: 4 });
        assert_eq!(GpuGrid::for_gpus(16).unwrap(), GpuGrid { gm: 4, gk: 4 });
        assert!(GpuGrid::for_gpus(6).is_err());
        assert!(GpuGrid::for_gpus(0).is_err());
    }

    #[test]
    fn comm_model_scales() {
        let m = CommModel::nccl(&V100);
        let t1 = m.send_time(150_000_000_000 / 100, 1); // 1% of a second of data
        assert!((t1 - (5e-6 + 0.01)).abs() < 1e-9);
        assert!(CommModel::p2p(&V100).alpha < m.alpha);
    }
}
