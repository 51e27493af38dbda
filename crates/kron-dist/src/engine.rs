//! The persistent sharded execution engine: Algorithm 2 as a caller-owned
//! workspace instead of a per-call plan.
//!
//! [`crate::DistFastKron::execute`] builds a throwaway engine per call —
//! fine for one-shot runs, but a serving runtime promises zero
//! steady-state allocations per request. A [`ShardedEngine`] validates
//! the shape and allocates every simulated device's state once, at
//! construction, and then executes any number of batches.
//!
//! Algorithm 2 is bulk-synchronous: every GPU runs `Nlocal` local sliced
//! multiplies, then one `StoreGPUTile` all-to-all per round. The cost
//! model prices it as all GPUs progressing in lockstep
//! ([`crate::DistFastKron::simulate`]), and the engine executes it the
//! same way, on the caller's thread:
//!
//! * **Devices are plain state** — each device's `TGM × TGK` block lives
//!   in two device-major arrays, `local` and `next`. An execute gathers
//!   every block out of the caller's row-major input, runs each local
//!   step device by device (then swaps the arrays), and finally scatters
//!   every block straight into the caller's output.
//! * **The exchange is one copy pass** — after every `Nlocal` local
//!   steps, each element of `local` is copied to its canonical device and
//!   column in `next`: the `StoreFusedShMem` layout map with the GPU in
//!   place of the thread block (paper Figure 8).
//! * **Fault isolation** — each device step runs under `catch_unwind`. A
//!   panic there ([`ShardedEngine::inject_fault`], or a genuine kernel
//!   bug) or a kernel error fails the batch with
//!   [`KronError::DeviceFailure`] naming the first failing device. The
//!   next execute gathers every block afresh, so the engine stays usable.
//! * **Slow-device watchdog** — [`ShardedEngine::inject_stall`] holds the
//!   batch before its first round, timed on a caller-injected clock (see
//!   [`Watchdog`]). A stall within the watchdog budget ends on schedule
//!   and the batch succeeds (a latency blip); a stall past the budget
//!   ends *at* the budget with a bounded [`KronError::DeviceTimeout`].
//!
//! The local multiply steps run [`fastkron_core::sliced_multiply_rows_into`]
//! — the exact microkernel of the single-device fused path — so sharded
//! results agree **bit-for-bit** with every single-device engine on
//! integer-valued data (and to the usual FMA rounding elsewhere).

use crate::fabric::{CommModel, GpuGrid};
use crate::fastkron::{dist_shape, simulate_sharded, DistShape};
use fastkron_core::{sliced_multiply_rows_into, PackPanel};
use gpu_sim::device::DeviceSpec;
use gpu_sim::{ExecReport, ExecSummary};
use kron_core::{Element, KronError, KronProblem, Matrix, Result};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Real time between two watchdog-clock reads while a stall holds the
/// batch, so that manual-clock tests (where virtual time only moves when
/// the test advances it) still make progress.
const WATCHDOG_POLL: Duration = Duration::from_micros(200);

/// Clock bridge for the slow-device watchdog. The engine itself is
/// clock-free; its owner (the serving runtime, or a test) injects its
/// timeline as a `now_us` closure plus a timeout budget, so watchdog
/// verdicts are deterministic under a manual clock.
pub struct Watchdog {
    timeout_us: u64,
    now_us: Box<dyn Fn() -> u64 + Send>,
}

impl Watchdog {
    /// A watchdog declaring [`KronError::DeviceTimeout`] after
    /// `timeout_us` on the timeline `now_us` reads.
    pub fn new(timeout_us: u64, now_us: Box<dyn Fn() -> u64 + Send>) -> Self {
        Watchdog { timeout_us, now_us }
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("timeout_us", &self.timeout_us)
            .finish_non_exhaustive()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unidentified panic payload".to_string()
    }
}

/// A persistent Algorithm 2 engine over a simulated `{GM, GK}` GPU grid:
/// planned once for a row capacity, executable many times against
/// caller-owned buffers with zero steady-state allocations.
///
/// Built via [`crate::DistFastKron::workspace`] (or [`ShardedEngine::new`]).
/// See the module docs for how the devices step in lockstep.
pub struct ShardedEngine<T: Element> {
    grid: GpuGrid,
    problem: KronProblem,
    shape: DistShape,
    device: DeviceSpec,
    comm: CommModel,
    /// Simulated report for a capacity-rows execute, priced lazily on
    /// first use — a one-shot functional execute never pays the autotuner
    /// sweep. Inner `None` when the cost model cannot cover the per-GPU
    /// block shape; execution still works, only pricing is unavailable.
    report: OnceCell<Option<ExecReport>>,
    /// Every device's block, device-major: device `d` owns the
    /// `TGM × TGK` slot at `d · TGM · TGK` (capacity `TGM`, row stride
    /// `TGK`); a call of fewer rows uses the top of each slot.
    local: Vec<T>,
    /// Output blocks of the current local step or exchange, laid out as
    /// `local` and swapped with it after each.
    next: Vec<T>,
    pending_fault: Option<usize>,
    /// Armed slow-device injection: `(gpu, stall_us)`.
    pending_stall: Option<(usize, u64)>,
    watchdog: Option<Watchdog>,
}

impl<T: Element> std::fmt::Debug for ShardedEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("grid", &self.grid)
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

impl<T: Element> ShardedEngine<T> {
    /// Plans the engine: validates shardability and allocates every
    /// device's block. `problem.m` is the row capacity (must be a
    /// multiple of the grid's `GM`).
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when `problem` cannot shard over `grid`.
    pub fn new(
        device: &DeviceSpec,
        grid: GpuGrid,
        comm: CommModel,
        problem: &KronProblem,
    ) -> Result<Self> {
        let shape = dist_shape(grid, problem)?;
        let elems = grid.gpus() * shape.tgm * shape.tgk;
        Ok(ShardedEngine {
            grid,
            problem: problem.clone(),
            shape,
            device: device.clone(),
            comm,
            report: OnceCell::new(),
            local: vec![T::ZERO; elems],
            next: vec![T::ZERO; elems],
            pending_fault: None,
            pending_stall: None,
            watchdog: None,
        })
    }

    /// The grid this engine shards over.
    pub fn grid(&self) -> GpuGrid {
        self.grid
    }

    /// The capacity problem the engine was planned for (`m` = row
    /// capacity).
    pub fn problem(&self) -> &KronProblem {
        &self.problem
    }

    /// Row capacity (`problem().m`).
    pub fn capacity(&self) -> usize {
        self.problem.m
    }

    /// Simulated execution report for a capacity-rows execute, when the
    /// cost model covers the per-GPU block shape. Priced (autotuner sweep
    /// + block trace) on first call and cached for the engine's lifetime.
    pub fn report(&self) -> Option<&ExecReport> {
        self.report
            .get_or_init(|| {
                simulate_sharded::<T>(&self.device, self.grid, &self.comm, &self.problem).ok()
            })
            .as_ref()
    }

    /// `Copy` digest of [`Self::report`] for allocation-free attribution.
    pub fn summary(&self) -> Option<ExecSummary> {
        self.report().map(ExecReport::summary)
    }

    /// Arms a one-shot fault: on the next [`Self::execute_rows`], device
    /// `gpu`'s first step panics with `"injected device fault"`. The panic
    /// is caught and fails that batch with [`KronError::DeviceFailure`];
    /// the engine stays usable for later batches. Simulator
    /// instrumentation for fault-isolation tests and chaos drills.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when `gpu` is outside the grid.
    pub fn inject_fault(&mut self, gpu: usize) -> Result<()> {
        if gpu >= self.grid.gpus() {
            return Err(KronError::InvalidGrid {
                reason: format!("device {gpu} outside a {} GPU grid", self.grid.gpus()),
            });
        }
        self.pending_fault = Some(gpu);
        Ok(())
    }

    /// Installs (or replaces) the slow-device watchdog. Required before
    /// [`Self::inject_stall`]; without a stall armed the watchdog is
    /// never consulted, so healthy executes never read its clock.
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// Arms a one-shot slow-device injection: the next
    /// [`Self::execute_rows`] holds device `gpu`, and with it the whole
    /// lockstep batch, for `stall_us` of watchdog-clock time before the
    /// first round. A stall within the watchdog budget is a latency blip
    /// (the batch succeeds); a stall past it fails the batch with
    /// [`KronError::DeviceTimeout`] once the budget has passed.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when `gpu` is outside the grid or no
    /// watchdog is installed (an unbudgeted stall could hang the engine).
    pub fn inject_stall(&mut self, gpu: usize, stall_us: u64) -> Result<()> {
        if gpu >= self.grid.gpus() {
            return Err(KronError::InvalidGrid {
                reason: format!("device {gpu} outside a {} GPU grid", self.grid.gpus()),
            });
        }
        if self.watchdog.is_none() {
            return Err(KronError::InvalidGrid {
                reason: "slow-device injection requires a watchdog (call set_watchdog)".into(),
            });
        }
        self.pending_stall = Some((gpu, stall_us));
        Ok(())
    }

    /// Computes the first `rows` rows of `Y = X · (F1 ⊗ … ⊗ FN)` sharded
    /// across the grid, where `rows` may be anything up to the planned
    /// capacity that is a multiple of `GM`, and `X`/`Y` hold **at least**
    /// `rows` rows. `rows == 0` is a no-op. Zero steady-state allocations.
    ///
    /// # Errors
    /// Shape mismatches against the capacity problem;
    /// [`KronError::InvalidGrid`] when `rows` does not shard;
    /// [`KronError::DeviceFailure`] when a simulated device step failed or
    /// panicked, and [`KronError::DeviceTimeout`] when an injected stall
    /// outlasted the watchdog budget — either way the batch failed but
    /// the engine remains usable.
    pub fn execute_rows(
        &mut self,
        x: &Matrix<T>,
        factors: &[&Matrix<T>],
        y: &mut Matrix<T>,
        rows: usize,
    ) -> Result<()> {
        self.problem.check_factors(factors)?;
        self.problem.check_rows(x, y, rows)?;
        if !rows.is_multiple_of(self.grid.gm) {
            return Err(KronError::InvalidGrid {
                reason: format!("{rows} rows not divisible by GM = {}", self.grid.gm),
            });
        }
        if rows == 0 {
            return Ok(());
        }

        let fault = self.pending_fault.take();
        if let Some((gpu, stall_us)) = self.pending_stall.take() {
            self.hold_for_stall(gpu, stall_us)?;
        }
        let (k, gk) = (self.problem.input_cols(), self.grid.gk);
        let (tgm, tgk) = (rows / self.grid.gm, self.shape.tgk);
        let slot = self.shape.tgm * tgk;
        // Offset of row `r` of device `d`'s block in the caller's X and Y,
        // which share the row stride K (the factors are square).
        let at = |d: usize, r: usize| ((d / gk) * tgm + r) * k + (d % gk) * tgk;

        let xs = x.as_slice();
        for (d, block) in self.local.chunks_exact_mut(slot).enumerate() {
            for r in 0..tgm {
                block[r * tgk..][..tgk].copy_from_slice(&xs[at(d, r)..][..tgk]);
            }
        }

        // Algorithm 2: groups of Nlocal local sliced multiplies, last
        // factor first, with one relocation round after each group.
        let mut remaining = factors.len();
        while remaining > 0 {
            let nl = self.shape.nlocal.min(remaining);
            for f in factors[remaining - nl..remaining].iter().rev() {
                let blocks = self.local.chunks_exact(slot);
                for (d, (src, dst)) in blocks.zip(self.next.chunks_exact_mut(slot)).enumerate() {
                    let step = catch_unwind(AssertUnwindSafe(|| {
                        if fault == Some(d) {
                            panic!("injected device fault");
                        }
                        sliced_multiply_rows_into(
                            src,
                            tgk,
                            f,
                            tgm,
                            tgk,
                            dst,
                            tgk,
                            &mut PackPanel::new(),
                        )
                    }));
                    let reason = match step {
                        Ok(Ok(())) => continue,
                        Ok(Err(e)) => e.to_string(),
                        Err(payload) => panic_message(payload),
                    };
                    return Err(KronError::DeviceFailure { gpu: d, reason });
                }
                std::mem::swap(&mut self.local, &mut self.next);
            }
            remaining -= nl;
            if gk > 1 {
                self.exchange(tgm, nl, k);
            }
        }

        let ys = y.as_mut_slice();
        for (d, block) in self.local.chunks_exact(slot).enumerate() {
            for r in 0..tgm {
                ys[at(d, r)..][..tgk].copy_from_slice(&block[r * tgk..][..tgk]);
            }
        }
        Ok(())
    }

    /// Holds the batch for a stall armed on device `gpu`: until `stall_us`
    /// or the watchdog budget has passed on the watchdog clock, whichever
    /// is sooner.
    ///
    /// # Errors
    /// [`KronError::DeviceTimeout`] at the budget when the stall outlasts
    /// it.
    fn hold_for_stall(&self, gpu: usize, stall_us: u64) -> Result<()> {
        let wd = self
            .watchdog
            .as_ref()
            .expect("inject_stall requires a watchdog");
        let start = (wd.now_us)();
        let until = start.saturating_add(stall_us.min(wd.timeout_us));
        let mut now = start;
        while now < until {
            std::thread::sleep(WATCHDOG_POLL);
            now = (wd.now_us)();
        }
        if stall_us > wd.timeout_us {
            let waited_us = now.saturating_sub(start);
            return Err(KronError::DeviceTimeout { gpu, waited_us });
        }
        Ok(())
    }

    /// One relocation round (`StoreGPUTile`) over the first `tgm` rows of
    /// every block, after `nl` local steps: each element of a device's
    /// block in `local` is copied to its canonical device and column in
    /// `next`, then the arrays swap.
    fn exchange(&mut self, tgm: usize, nl: usize, k: usize) {
        let (gk, p, tgk) = (self.grid.gk, self.shape.p, self.shape.tgk);
        let slot = self.shape.tgm * tgk;
        // Layout scales of paper Figure 8.
        let pn = p.pow(nl as u32);
        let (xl_s, xg_s) = (tgk / p, k / p);
        let (xl_f, xg_f) = (tgk / pn, k / pn);
        // Global column of local column `j` of a block in column group
        // `src`.
        let col_of = |src: usize, j: usize| {
            (j / xl_s) * xg_s + ((j % xl_s) / xl_f) * xg_f + src * xl_f + (j % xl_f)
        };
        for (d, block) in self.local.chunks_exact(slot).enumerate() {
            let (bm, src) = (d / gk, d % gk);
            for j in 0..tgk {
                let col = col_of(src, j);
                let to = (bm * gk + col / tgk) * slot + col % tgk;
                for r in 0..tgm {
                    self.next[to + r * tgk] = block[r * tgk + j];
                }
            }
        }
        std::mem::swap(&mut self.local, &mut self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistFastKron;
    use fastkron_core::kron_matmul_fused;
    use gpu_sim::device::V100;
    use std::sync::atomic::Ordering;

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 3 * r * cols + c) % 13) as f64 - 6.0
        })
    }

    fn engine_for(m: usize, p: usize, n: usize, gpus: usize) -> ShardedEngine<f64> {
        let problem = KronProblem::uniform(m, p, n).unwrap();
        DistFastKron::new(&V100, gpus)
            .unwrap()
            .workspace(&problem)
            .unwrap()
    }

    #[test]
    fn reusable_and_partial_rows_match_single_device_bit_for_bit() {
        // Grid {2, 2}, and the rectangular grid {2, 4} with 4⁴ factors
        // (K = 256, `Nlocal` 3): both run two relocation rounds.
        for (n, gpus) in [(3usize, 4usize), (4, 8)] {
            let mut engine = engine_for(8, 4, n, gpus);
            let k = 4usize.pow(n as u32);
            let fs: Vec<Matrix<f64>> = (0..n).map(|i| seq_matrix(4, 4, 5 * i + 2)).collect();
            let refs: Vec<&Matrix<f64>> = fs.iter().collect();
            for rows in [8usize, 4, 2, 8] {
                let x = seq_matrix(8, k, rows);
                let mut y = Matrix::zeros(8, k);
                engine.execute_rows(&x, &refs, &mut y, rows).unwrap();
                let oracle = kron_matmul_fused(&x, &refs).unwrap();
                for r in 0..rows {
                    assert_eq!(y.row(r), oracle.row(r), "row {r} of {rows} on {gpus} GPUs");
                }
            }
        }
    }

    #[test]
    fn validates_rows_and_operands() {
        let mut engine = engine_for(8, 4, 2, 4);
        let fs: Vec<Matrix<f64>> = (0..2).map(|i| seq_matrix(4, 4, i)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let x = seq_matrix(8, 16, 0);
        let mut y = Matrix::zeros(8, 16);
        // rows above capacity / not a GM multiple / bad operand shapes.
        assert!(engine.execute_rows(&x, &refs, &mut y, 10).is_err());
        assert!(matches!(
            engine.execute_rows(&x, &refs, &mut y, 3),
            Err(KronError::InvalidGrid { .. })
        ));
        assert!(engine.execute_rows(&x, &refs[..1], &mut y, 4).is_err());
        let wrong = seq_matrix(8, 8, 0);
        assert!(engine.execute_rows(&wrong, &refs, &mut y, 4).is_err());
        let mut wrong_y = Matrix::zeros(8, 8);
        assert!(engine.execute_rows(&x, &refs, &mut wrong_y, 4).is_err());
        // rows == 0 is a no-op.
        engine.execute_rows(&x, &refs, &mut y, 0).unwrap();
        // A valid call still works after the rejected ones.
        engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
    }

    #[test]
    fn injected_fault_fails_one_batch_then_recovers() {
        // Grid {2, 2}: one row peer per device. Grid {4, 4} (`Nlocal` 3):
        // three row peers. Both run two relocation rounds.
        for (n, gpus) in [(3usize, 4usize), (4, 16)] {
            let mut engine = engine_for(8, 4, n, gpus);
            assert_eq!(engine.shape.rounds, 2);
            let k = 4usize.pow(n as u32);
            let fs: Vec<Matrix<f64>> = (0..n).map(|i| seq_matrix(4, 4, 7 * i + 1)).collect();
            let refs: Vec<&Matrix<f64>> = fs.iter().collect();
            let x = seq_matrix(8, k, 3);
            let mut y = Matrix::zeros(8, k);

            assert!(engine.inject_fault(99).is_err());
            engine.inject_fault(2).unwrap();
            let err = engine.execute_rows(&x, &refs, &mut y, 8).unwrap_err();
            match err {
                KronError::DeviceFailure { gpu, ref reason } => {
                    assert_eq!(gpu, 2);
                    assert!(reason.contains("injected device fault"), "{reason}");
                }
                other => panic!("expected DeviceFailure, got {other:?}"),
            }

            // The fault was one-shot: the very next batch on the same
            // engine succeeds and is correct.
            engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
            let oracle = kron_matmul_fused(&x, &refs).unwrap();
            assert_eq!(y.as_slice(), oracle.as_slice(), "{gpus} GPUs");
        }
    }

    /// A deterministic watchdog timeline for single-threaded tests: every
    /// read advances virtual time by `step_us`, so the watchdog's poll
    /// loop observes time passing without a second thread driving it.
    fn ticking_clock(step_us: u64) -> Box<dyn Fn() -> u64 + Send> {
        let t = std::sync::atomic::AtomicU64::new(0);
        Box::new(move || t.fetch_add(step_us, Ordering::SeqCst))
    }

    #[test]
    fn stall_within_watchdog_budget_is_a_latency_blip() {
        let mut engine = engine_for(8, 4, 3, 4);
        let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, 7 * i + 1)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let x = seq_matrix(8, 64, 3);
        let mut y = Matrix::zeros(8, 64);

        engine.set_watchdog(Watchdog::new(10_000, ticking_clock(250)));
        engine.inject_stall(1, 500).unwrap();
        engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
        let oracle = kron_matmul_fused(&x, &refs).unwrap();
        assert_eq!(y.as_slice(), oracle.as_slice());
    }

    #[test]
    fn stall_past_watchdog_budget_is_a_bounded_timeout() {
        let mut engine = engine_for(8, 4, 3, 4);
        let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, 2 * i + 3)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let x = seq_matrix(8, 64, 9);
        let mut y = Matrix::zeros(8, 64);

        engine.set_watchdog(Watchdog::new(1_000, ticking_clock(250)));
        engine.inject_stall(2, 50_000).unwrap();
        let err = engine.execute_rows(&x, &refs, &mut y, 8).unwrap_err();
        match err {
            KronError::DeviceTimeout { gpu, waited_us } => {
                assert_eq!(gpu, 2);
                assert!(waited_us >= 1_000, "waited {waited_us}us");
            }
            other => panic!("expected DeviceTimeout, got {other:?}"),
        }

        // The stall was one-shot: the very next batch succeeds.
        engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
        let oracle = kron_matmul_fused(&x, &refs).unwrap();
        assert_eq!(y.as_slice(), oracle.as_slice());
    }

    #[test]
    fn stall_injection_is_validated() {
        let mut engine = engine_for(8, 4, 2, 4);
        // No watchdog installed: an unbudgeted stall is refused.
        assert!(matches!(
            engine.inject_stall(1, 100),
            Err(KronError::InvalidGrid { .. })
        ));
        engine.set_watchdog(Watchdog::new(1_000, ticking_clock(100)));
        assert!(matches!(
            engine.inject_stall(99, 100),
            Err(KronError::InvalidGrid { .. })
        ));
        engine.inject_stall(3, 100).unwrap();
        // Dropping the engine with a stall still armed (never executed)
        // must not hang.
    }

    #[test]
    fn capacity_report_prorates() {
        let engine = engine_for(64, 16, 2, 4);
        let report = engine.report().expect("tunable block");
        assert!(report.seconds > 0.0);
        assert!(report.comm_bytes > 0);
        let summary = engine.summary().unwrap();
        assert_eq!(summary.comm_bytes, report.comm_bytes);
        let half = summary.prorated(32, 64);
        assert!((half.seconds - summary.seconds / 2.0).abs() < 1e-12);
    }
}
