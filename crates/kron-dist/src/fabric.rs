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

/// Messages one mailbox of a [`Fabric`] holds. In Algorithm 2 a device
/// sends each row peer one part per relocation round and receives every
/// peer's part before its next round, so it runs at most one round ahead
/// of a peer: two parts in flight per pair. The buffers peers hand back
/// after placing a part obey the same bound, and a new execute starts
/// only after every device reported the last one done.
pub(crate) const MAILBOX_DEPTH: usize = 2;

/// Point-to-point mailbox fabric for functional distributed runs: one
/// bounded crossbeam channel per ordered GPU pair, holding
/// `MAILBOX_DEPTH` (2) messages. A send into a full mailbox waits until
/// its receiver pops, so a caller must keep each pair's traffic within
/// that depth, as Algorithm 2's rounds do.
pub struct Fabric<M> {
    grid: GpuGrid,
    senders: Vec<crossbeam::channel::Sender<M>>,
    receivers: Vec<crossbeam::channel::Receiver<M>>,
}

impl<M: Send> Fabric<M> {
    /// Creates the mailboxes for `grid`.
    pub fn new(grid: GpuGrid) -> Self {
        let n = grid.gpus();
        let mut senders = Vec::with_capacity(n * n);
        let mut receivers = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            let (s, r) = crossbeam::channel::bounded(MAILBOX_DEPTH);
            senders.push(s);
            receivers.push(r);
        }
        Fabric {
            grid,
            senders,
            receivers,
        }
    }

    /// The grid this fabric connects.
    pub fn grid(&self) -> GpuGrid {
        self.grid
    }

    /// Sender handle for messages `src → dst`.
    pub fn sender(&self, src: usize, dst: usize) -> crossbeam::channel::Sender<M> {
        self.senders[src * self.grid.gpus() + dst].clone()
    }

    /// Receiver handle for messages `src → dst`.
    pub fn receiver(&self, src: usize, dst: usize) -> crossbeam::channel::Receiver<M> {
        self.receivers[src * self.grid.gpus() + dst].clone()
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

    #[test]
    fn fabric_routes_messages() {
        let grid = GpuGrid::for_gpus(4).unwrap();
        let fabric: Fabric<u32> = Fabric::new(grid);
        fabric.sender(0, 3).send(42).unwrap();
        fabric.sender(3, 0).send(7).unwrap();
        assert_eq!(fabric.receiver(0, 3).recv().unwrap(), 42);
        assert_eq!(fabric.receiver(3, 0).recv().unwrap(), 7);
        // No cross-talk.
        assert!(fabric.receiver(0, 1).try_recv().is_err());
    }
}
