//! The persistent sharded execution engine: Algorithm 2 as a caller-owned
//! workspace instead of a per-call plan.
//!
//! [`crate::DistFastKron::execute`] plans, allocates, and spawns threads on
//! every call — fine for one-shot runs, fatal for a serving runtime that
//! promises zero steady-state allocations per request. A [`ShardedEngine`]
//! front-loads all of that at construction:
//!
//! * **Persistent simulated devices** — one OS thread per GPU of the
//!   `{GM, GK}` grid, parked on a command channel for the engine's
//!   lifetime. An execute costs one command send per device, never a
//!   thread spawn.
//! * **Caller-owned batch buffers** — devices gather their `TGM × TGK`
//!   block straight out of the caller's row-major input and scatter their
//!   final block straight into the caller's output; the engine itself
//!   never holds the full `M × K` operands.
//! * **Recycled exchange buffers** — the grouped all-to-all
//!   (`StoreGPUTile`) sends parts in `Vec` buffers that the receiver
//!   returns to the sender over a second fabric after placing them, so a
//!   warmed engine's relocation rounds allocate nothing.
//! * **Fault isolation** — a panic on a simulated device (injected via
//!   [`ShardedEngine::inject_fault`] or a genuine kernel bug) is caught on
//!   that device; the device then degrades to *protocol completion* mode,
//!   still forwarding its (stale) exchange parts so peers' message counts
//!   stay balanced and the fabric never hangs. The batch fails with
//!   [`KronError::DeviceFailure`] naming the device; the engine stays
//!   consistent for later batches.
//! * **Slow-device watchdog** — [`ShardedEngine::inject_stall`] parks a
//!   device at the top of its next batch until the coordinator releases
//!   it. The coordinator times the stall on a caller-injected clock (see
//!   [`Watchdog`]): a stall within the watchdog budget is released on
//!   schedule and the batch succeeds (a latency blip); a stall past the
//!   budget is released *at* the budget and the batch fails with a
//!   bounded [`KronError::DeviceTimeout`] — a hung device can never hang
//!   the engine. Either way every device's `Done` is collected, so the
//!   fabric stays balanced.
//!
//! The local multiply steps run [`fastkron_core::sliced_multiply_rows_into`]
//! — the exact microkernel of the single-device fused path, which reads
//! each block in place and needs no per-worker buffer — so sharded
//! results agree **bit-for-bit** with every single-device engine on
//! integer-valued data (and to the usual FMA rounding elsewhere).

use crate::fabric::{CommModel, Fabric, GpuGrid};
use crate::fastkron::{dist_shape, simulate_sharded, DistShape};
use crossbeam::channel::{unbounded, Receiver, Sender};
use fastkron_core::{sliced_multiply_rows_into, PackPanel};
use gpu_sim::device::DeviceSpec;
use gpu_sim::{ExecReport, ExecSummary};
use kron_core::{Element, KronError, KronProblem, Matrix, Result};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// Process-wide count of live simulated-device worker threads, across all
/// [`ShardedEngine`]s. Incremented as each worker is spawned and
/// decremented after it is joined, so once any engine's `Drop` returns the
/// count is exact — the probe runtime-lifecycle tests use to assert that
/// evicting a sharded plan-cache entry really tears its `GM·GK` workers
/// down (and that a capacity-bounded cache never holds more engines than
/// its limit).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of simulated-device worker threads currently alive in this
/// process: spawns minus joins, exact once an engine's `Drop` returns.
/// Tests that assert on this should serialize against other
/// engine-creating tests in the same binary.
pub fn live_sim_worker_threads() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Upper bound a device waits on a fabric receive before declaring the
/// sending peer lost. Normal exchanges complete in microseconds (the
/// bound only has to outlast a peer's local compute on a loaded host), so
/// this never fires in healthy operation; it exists so that a peer that
/// died mid-protocol (an engine bug escaping the compute guards) degrades
/// into a bounded-latency `DeviceFailure` instead of a permanent hang.
const FABRIC_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Real-time granularity of the watchdog's completion poll while a stall
/// is armed: the coordinator alternates between checking the injected
/// clock and a bounded `done_rx` receive so that manual-clock tests (where
/// virtual time only moves when the test advances it) still make progress.
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

/// One execution command broadcast to every simulated device. The raw
/// pointers stay valid because [`ShardedEngine::execute_rows`] blocks until
/// every device reports done.
struct Cmd<T> {
    x: *const T,
    y: *mut T,
    factors: *const *const Matrix<T>,
    n_factors: usize,
    /// Total rows this call (a multiple of `GM`).
    rows: usize,
    /// Row stride of both `x` and `y` (`K`; factors are square).
    k: usize,
    /// Device id to fault-inject on, or `usize::MAX` for none.
    fault: usize,
    /// Device id to stall at batch start, or `usize::MAX` for none. The
    /// stalled device parks on its resume channel until the coordinator's
    /// watchdog releases it.
    stall: usize,
}

impl<T> Clone for Cmd<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Cmd<T> {}

// SAFETY: the pointers are only dereferenced while the coordinator is
// blocked in `execute_rows`, which keeps the referents borrowed; each
// device reads/writes only its own disjoint block of `y`.
unsafe impl<T: Element> Send for Cmd<T> {}

/// Completion report from one simulated device.
struct Done {
    gpu: usize,
    /// `None` on success; the captured panic / error message otherwise.
    failure: Option<String>,
}

/// Persistent state of one simulated device thread.
struct Worker<T: Element> {
    bm: usize,
    bk: usize,
    me: usize,
    gm: usize,
    gk: usize,
    p: usize,
    tgk: usize,
    nlocal: usize,
    cmd_rx: Receiver<Cmd<T>>,
    done_tx: Sender<Done>,
    /// Release channel for an injected stall; closed channels release
    /// immediately, so engine teardown can never deadlock on a stalled
    /// device.
    resume_rx: Receiver<()>,
    /// Data fabric senders to row peers, indexed by destination column
    /// (`None` at our own column).
    data_tx: Vec<Option<Sender<Vec<T>>>>,
    /// Data fabric receivers from row peers, indexed by source column.
    data_rx: Vec<Option<Receiver<Vec<T>>>>,
    /// Buffer-return senders back to the part's original sender.
    recycle_tx: Vec<Option<Sender<Vec<T>>>>,
    /// Buffer returns coming back from peers we sent parts to.
    recycle_rx: Vec<Option<Receiver<Vec<T>>>>,
    /// Ping-pong block buffers (`TGM_cap × TGK`, row stride `tgk`).
    local: Vec<T>,
    next: Vec<T>,
    /// Freelist of exchange part buffers (refilled from `recycle_rx`).
    free: Vec<Vec<T>>,
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

impl<T: Element> Worker<T> {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            // Belt and braces: a panic escaping `serve` (an engine bug in
            // gather/scatter/exchange, not simulated-kernel compute) still
            // reports done, so the coordinator cannot hang on *this*
            // device. Row peers blocked on a part this device never sent
            // unblock via `FABRIC_RECV_TIMEOUT` and report their own
            // failure, so every device's `Done` arrives in bounded time.
            // The fabric may then hold stale parts; the caller must
            // discard the engine (the runtime evicts on `DeviceFailure`).
            let done = match catch_unwind(AssertUnwindSafe(|| self.serve(&cmd))) {
                Ok(done) => done,
                Err(p) => Done {
                    gpu: self.me,
                    failure: Some(format!("device thread fault: {}", panic_message(p))),
                },
            };
            let _ = self.done_tx.send(done);
        }
    }

    fn serve(&mut self, cmd: &Cmd<T>) -> Done {
        if cmd.stall == self.me {
            // Simulated slow device: park until the coordinator's watchdog
            // releases us — on schedule for a tolerable stall, at the
            // timeout verdict for an excessive one. A closed channel
            // (engine teardown) releases immediately.
            let _ = self.resume_rx.recv();
        }
        let tgm = cmd.rows / self.gm;
        let (k, tgk) = (cmd.k, self.tgk);
        // SAFETY: the coordinator blocks until we send `Done`, keeping the
        // operands borrowed; reads are shared, and our writes go only to
        // this device's `(bm, bk)` block, which no other device touches.
        let x = unsafe { std::slice::from_raw_parts(cmd.x, cmd.rows * k) };
        let factors: &[&Matrix<T>] =
            unsafe { std::slice::from_raw_parts(cmd.factors.cast(), cmd.n_factors) };

        // Gather this device's TGM × TGK block.
        for r in 0..tgm {
            self.local[r * tgk..r * tgk + tgk]
                .copy_from_slice(&x[(self.bm * tgm + r) * k + self.bk * tgk..][..tgk]);
        }

        let mut failure: Option<String> = None;
        if cmd.fault == self.me {
            // The injected fault is a genuine unwound panic, caught exactly
            // where a kernel bug would be.
            let payload = catch_unwind(|| panic!("injected device fault")).unwrap_err();
            failure = Some(panic_message(payload));
        }

        // Algorithm 2: groups of Nlocal local sliced multiplies, one
        // relocation round after each group. A failed device skips the
        // compute but still runs every relocation round so the fabric's
        // message counts stay balanced — peers never hang on it.
        let mut remaining = cmd.n_factors;
        let mut fidx = cmd.n_factors;
        while remaining > 0 {
            let nl = self.nlocal.min(remaining);
            if failure.is_none() {
                let local = &mut self.local;
                let next = &mut self.next;
                let res = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
                    for j in 0..nl {
                        sliced_multiply_rows_into(
                            local,
                            tgk,
                            factors[fidx - 1 - j],
                            tgm,
                            tgk,
                            next,
                            tgk,
                            &mut PackPanel::new(),
                        )?;
                        std::mem::swap(local, next);
                    }
                    Ok(())
                }));
                match res {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => failure = Some(e.to_string()),
                    Err(p) => failure = Some(panic_message(p)),
                }
            }
            fidx -= nl;
            remaining -= nl;
            if self.gk > 1 {
                if let Err(e) = self.exchange(tgm, nl, k) {
                    // The fabric itself broke (a peer vanished): stop the
                    // protocol — the engine is unusable and must be
                    // discarded, which the DeviceFailure reply triggers.
                    failure.get_or_insert(e);
                    break;
                }
            }
        }

        if failure.is_none() {
            // SAFETY: see above — disjoint block writes, operands pinned.
            let y = unsafe { std::slice::from_raw_parts_mut(cmd.y, cmd.rows * k) };
            for r in 0..tgm {
                y[(self.bm * tgm + r) * k + self.bk * tgk..][..tgk]
                    .copy_from_slice(&self.local[r * tgk..r * tgk + tgk]);
            }
        }
        Done {
            gpu: self.me,
            failure,
        }
    }

    /// One relocation round (`StoreGPUTile`): split the local intermediate
    /// into `GK` parts, exchange them within the row over recycled
    /// buffers, and place received parts at their canonical positions.
    ///
    /// # Errors
    /// A message describing the lost peer when a fabric receive times out
    /// or disconnects — the caller abandons the protocol and the engine.
    fn exchange(&mut self, tgm: usize, nl: usize, k: usize) -> std::result::Result<(), String> {
        let (gk, tgk) = (self.gk, self.tgk);
        let part_cols = tgk / gk;

        // Reclaim buffers peers finished with in earlier rounds.
        for dst in 0..gk {
            if let Some(rx) = &self.recycle_rx[dst] {
                while let Ok(buf) = rx.try_recv() {
                    self.free.push(buf);
                }
            }
        }

        // Send part `dst` to GPU (bm, dst); sends never block (unbounded).
        for dst in 0..gk {
            if dst == self.bk {
                continue;
            }
            // The seeded freelist makes the pop succeed in steady state;
            // the fallback allocates the full part in one shot so even a
            // pathological interleaving costs one allocation, not an
            // amortized-growth series.
            let mut buf = self
                .free
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(tgm * part_cols));
            buf.clear();
            for r in 0..tgm {
                buf.extend_from_slice(&self.local[r * tgk + dst * part_cols..][..part_cols]);
            }
            let _ = self.data_tx[dst].as_ref().expect("row peer").send(buf);
        }

        // Layout scales (paper Figure 8; identical in structure to
        // StoreFusedShMem with the GPU in place of the thread block).
        let pn = self.p.pow(nl as u32);
        let xl_s = tgk / self.p;
        let xg_s = k / self.p;
        let xl_f = tgk / pn;
        let xg_f = k / pn;
        let my_base = self.bk * tgk;
        // j = index in the source GPU's full local buffer.
        let col_of = |src_rank: usize, jp: usize| {
            let j = self.bk * part_cols + jp;
            (j / xl_s) * xg_s + ((j % xl_s) / xl_f) * xg_f + src_rank * xl_f + (j % xl_f)
        };

        // Own part placed directly out of `local`.
        for r in 0..tgm {
            for jp in 0..part_cols {
                self.next[r * tgk + col_of(self.bk, jp) - my_base] =
                    self.local[r * tgk + self.bk * part_cols + jp];
            }
        }

        for src in 0..gk {
            if src == self.bk {
                continue;
            }
            let part = self.data_rx[src]
                .as_ref()
                .expect("row peer")
                .recv_timeout(FABRIC_RECV_TIMEOUT)
                .map_err(|e| format!("lost peer at column {src} during exchange: {e:?}"))?;
            for r in 0..tgm {
                let row = &part[r * part_cols..(r + 1) * part_cols];
                for (jp, &v) in row.iter().enumerate() {
                    self.next[r * tgk + col_of(src, jp) - my_base] = v;
                }
            }
            // Hand the buffer back to its sender for the next round.
            let _ = self.recycle_tx[src].as_ref().expect("row peer").send(part);
        }
        std::mem::swap(&mut self.local, &mut self.next);
        Ok(())
    }
}

/// A persistent Algorithm 2 engine over a simulated `{GM, GK}` GPU grid:
/// planned once for a row capacity, executable many times against
/// caller-owned buffers with zero steady-state allocations.
///
/// Built via [`crate::DistFastKron::workspace`] (or [`ShardedEngine::new`]).
/// See the module docs for the worker/fabric architecture.
pub struct ShardedEngine<T: Element> {
    grid: GpuGrid,
    problem: KronProblem,
    #[allow(dead_code)]
    shape: DistShape,
    device: DeviceSpec,
    comm: CommModel,
    /// Simulated report for a capacity-rows execute, priced lazily on
    /// first use — a one-shot functional execute never pays the autotuner
    /// sweep. Inner `None` when the cost model cannot cover the per-GPU
    /// block shape; execution still works, only pricing is unavailable.
    report: OnceCell<Option<ExecReport>>,
    cmd_txs: Vec<Sender<Cmd<T>>>,
    done_rx: Receiver<Done>,
    /// Per-device stall release channels, indexed by linear device id.
    resume_txs: Vec<Sender<()>>,
    pending_fault: Option<usize>,
    /// Armed slow-device injection: `(gpu, stall_us)`.
    pending_stall: Option<(usize, u64)>,
    watchdog: Option<Watchdog>,
    workers: Vec<JoinHandle<()>>,
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
    /// Plans the engine: validates shardability, spawns the device
    /// threads, and allocates every per-device buffer. `problem.m` is the
    /// row capacity (must be a multiple of the grid's `GM`).
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
        let (gm, gk) = (grid.gm, grid.gk);
        let data: Fabric<Vec<T>> = Fabric::new(grid);
        let recycle: Fabric<Vec<T>> = Fabric::new(grid);
        let (done_tx, done_rx) = unbounded();
        let mut cmd_txs = Vec::with_capacity(gm * gk);
        let mut resume_txs: Vec<Option<Sender<()>>> = (0..gm * gk).map(|_| None).collect();
        let mut workers = Vec::with_capacity(gm * gk);
        for bm in 0..gm {
            for bk in 0..gk {
                let me = grid.id(bm, bk);
                let (cmd_tx, cmd_rx) = unbounded();
                cmd_txs.push(cmd_tx);
                let (resume_tx, resume_rx) = unbounded();
                resume_txs[me] = Some(resume_tx);
                let peer = |other: usize| (other != bk).then(|| grid.id(bm, other));
                let worker = Worker {
                    bm,
                    bk,
                    me,
                    gm,
                    gk,
                    p: shape.p,
                    tgk: shape.tgk,
                    nlocal: shape.nlocal,
                    cmd_rx,
                    done_tx: done_tx.clone(),
                    resume_rx,
                    data_tx: (0..gk)
                        .map(|d| peer(d).map(|id| data.sender(me, id)))
                        .collect(),
                    data_rx: (0..gk)
                        .map(|s| peer(s).map(|id| data.receiver(id, me)))
                        .collect(),
                    recycle_tx: (0..gk)
                        .map(|s| peer(s).map(|id| recycle.sender(me, id)))
                        .collect(),
                    recycle_rx: (0..gk)
                        .map(|d| peer(d).map(|id| recycle.receiver(id, me)))
                        .collect(),
                    local: vec![T::ZERO; shape.tgm * shape.tgk],
                    next: vec![T::ZERO; shape.tgm * shape.tgk],
                    // Pre-seed enough part buffers that exchanges never
                    // allocate in steady state, however the recycle sends
                    // and reclaim drains interleave: per relocation round
                    // a worker sends `gk-1` parts, and peers can lag a
                    // couple of rounds behind before the happens-before
                    // chain forces their recycles to be visible. An empty
                    // freelist here used to make the zero-allocation
                    // serving tests timing-dependent.
                    free: (0..4 * gk.saturating_sub(1))
                        .map(|_| Vec::with_capacity(shape.tgm * (shape.tgk / gk.max(1))))
                        .collect(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("kron-sim-gpu-{me}"))
                    .spawn(move || worker.run())
                    .expect("spawn simulated device thread");
                LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
                workers.push(handle);
            }
        }
        Ok(ShardedEngine {
            grid,
            problem: problem.clone(),
            shape,
            device: device.clone(),
            comm,
            report: OnceCell::new(),
            cmd_txs,
            done_rx,
            resume_txs: resume_txs
                .into_iter()
                .map(|tx| tx.expect("every linear id visited"))
                .collect(),
            pending_fault: None,
            pending_stall: None,
            watchdog: None,
            workers,
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

    /// Number of parked simulated-device worker threads this engine owns
    /// (`GM · GK`); they live until the engine drops.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
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

    /// Arms a one-shot fault: the next [`Self::execute_rows`] raises a
    /// caught panic on device `gpu`, failing that batch with
    /// [`KronError::DeviceFailure`] while the engine and fabric stay
    /// consistent for later batches. Simulator instrumentation for
    /// fault-isolation tests and chaos drills.
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
    /// never consulted, so healthy executes stay on the zero-overhead
    /// blocking path.
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// Arms a one-shot slow-device injection: on the next
    /// [`Self::execute_rows`], device `gpu` parks at batch start for
    /// `stall_us` of watchdog-clock time. A stall within the watchdog
    /// budget is a latency blip (the batch succeeds); a stall past it
    /// fails the batch with [`KronError::DeviceTimeout`] — the result
    /// must then be discarded, though the engine's fabric stays balanced.
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
    /// [`KronError::DeviceFailure`] when a simulated device panicked — the
    /// batch failed but the engine remains usable.
    pub fn execute_rows(
        &mut self,
        x: &Matrix<T>,
        factors: &[&Matrix<T>],
        y: &mut Matrix<T>,
        rows: usize,
    ) -> Result<()> {
        if factors.len() != self.problem.num_factors() {
            return Err(KronError::ShapeMismatch {
                expected: format!("{} factors", self.problem.num_factors()),
                found: format!("{} factors", factors.len()),
            });
        }
        for (i, (f, s)) in factors.iter().zip(self.problem.factors.iter()).enumerate() {
            if f.rows() != s.p || f.cols() != s.q {
                return Err(KronError::ShapeMismatch {
                    expected: format!("factor {} of shape {s}", i + 1),
                    found: format!("{}×{}", f.rows(), f.cols()),
                });
            }
        }
        if rows > self.problem.m {
            return Err(KronError::ShapeMismatch {
                expected: format!("at most {} rows (engine capacity)", self.problem.m),
                found: format!("{rows} rows"),
            });
        }
        if !rows.is_multiple_of(self.grid.gm) {
            return Err(KronError::InvalidGrid {
                reason: format!("{rows} rows not divisible by GM = {}", self.grid.gm),
            });
        }
        let k = self.problem.input_cols();
        if x.rows() < rows || x.cols() != k {
            return Err(KronError::ShapeMismatch {
                expected: format!("X with ≥{rows} rows × {k}"),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        let l = self.problem.output_cols();
        if y.rows() < rows || y.cols() != l {
            return Err(KronError::ShapeMismatch {
                expected: format!("Y with ≥{rows} rows × {l}"),
                found: format!("Y {}×{}", y.rows(), y.cols()),
            });
        }
        if rows == 0 {
            return Ok(());
        }

        let fault = self.pending_fault.take().unwrap_or(usize::MAX);
        let stall = self.pending_stall.take();
        let cmd = Cmd {
            x: x.as_slice().as_ptr(),
            y: y.as_mut_slice().as_mut_ptr(),
            factors: factors.as_ptr().cast(),
            n_factors: factors.len(),
            rows,
            k,
            fault,
            stall: stall.map_or(usize::MAX, |(gpu, _)| gpu),
        };
        for tx in &self.cmd_txs {
            let _ = tx.send(cmd);
        }
        // Block until every device reports: this pins the Cmd pointers'
        // referents for the whole sharded execution. With a stall armed,
        // the coordinator doubles as the watchdog: it polls the injected
        // clock between bounded receives and releases the stalled device
        // either on schedule or at the budget's timeout verdict — every
        // Done is still collected, so the fabric stays balanced.
        let mut first_failure: Option<(usize, String)> = None;
        let mut timed_out: Option<(usize, u64)> = None;
        match stall {
            None => {
                for _ in 0..self.grid.gpus() {
                    let done = self.done_rx.recv().expect("device threads alive");
                    if let Some(reason) = done.failure {
                        let replace = first_failure.as_ref().is_none_or(|(g, _)| done.gpu < *g);
                        if replace {
                            first_failure = Some((done.gpu, reason));
                        }
                    }
                }
            }
            Some((gpu, stall_us)) => {
                let wd = self
                    .watchdog
                    .as_ref()
                    .expect("inject_stall requires watchdog");
                let start = (wd.now_us)();
                let release_at = start.saturating_add(stall_us);
                let deadline = start.saturating_add(wd.timeout_us);
                // Fire at whichever comes first: the scheduled release or
                // the watchdog's verdict.
                let (fire_at, verdict_is_timeout) = if release_at <= deadline {
                    (release_at, false)
                } else {
                    (deadline, true)
                };
                let mut released = false;
                let mut received = 0;
                while received < self.grid.gpus() {
                    if !released && (wd.now_us)() >= fire_at {
                        if verdict_is_timeout {
                            timed_out = Some((gpu, (wd.now_us)().saturating_sub(start)));
                        }
                        let _ = self.resume_txs[gpu].send(());
                        released = true;
                    }
                    match self.done_rx.recv_timeout(WATCHDOG_POLL) {
                        Ok(done) => {
                            if let Some(reason) = done.failure {
                                let replace =
                                    first_failure.as_ref().is_none_or(|(g, _)| done.gpu < *g);
                                if replace {
                                    first_failure = Some((done.gpu, reason));
                                }
                            }
                            received += 1;
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            unreachable!("device threads alive")
                        }
                    }
                }
            }
        }
        // A timeout verdict outranks any secondary failure: the stalled
        // device is the root cause and names the bounded wait.
        if let Some((gpu, waited_us)) = timed_out {
            return Err(KronError::DeviceTimeout { gpu, waited_us });
        }
        match first_failure {
            Some((gpu, reason)) => Err(KronError::DeviceFailure { gpu, reason }),
            None => Ok(()),
        }
    }
}

impl<T: Element> Drop for ShardedEngine<T> {
    fn drop(&mut self) {
        // Closing the command channels parks every worker out of its recv
        // loop; join for a clean teardown. The live-worker gauge drops
        // only after the join, so observers never see a joined thread
        // still counted. Resume channels close too, so a device parked in
        // an armed-but-never-executed stall can never block the join.
        self.cmd_txs.clear();
        self.resume_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
            LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistFastKron;
    use fastkron_core::algorithm::kron_matmul_fastkron;
    use gpu_sim::device::V100;

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
        let mut engine = engine_for(8, 4, 3, 4); // grid {2, 2}
        let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, 5 * i + 2)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        for rows in [8usize, 4, 2, 8] {
            let x = seq_matrix(8, 64, rows);
            let mut y = Matrix::zeros(8, 64);
            engine.execute_rows(&x, &refs, &mut y, rows).unwrap();
            let oracle = kron_matmul_fastkron(&x, &refs).unwrap();
            for r in 0..rows {
                assert_eq!(y.row(r), oracle.row(r), "row {r} of {rows}");
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
        let mut engine = engine_for(8, 4, 3, 4);
        let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, 7 * i + 1)).collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let x = seq_matrix(8, 64, 3);
        let mut y = Matrix::zeros(8, 64);

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

        // The fault was one-shot and the fabric stayed balanced: the very
        // next batch on the same engine succeeds and is correct.
        engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
        let oracle = kron_matmul_fastkron(&x, &refs).unwrap();
        assert_eq!(y.as_slice(), oracle.as_slice());
    }

    /// A deterministic watchdog timeline for single-threaded tests: every
    /// read advances virtual time by `step_us`, so the coordinator's poll
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
        let oracle = kron_matmul_fastkron(&x, &refs).unwrap();
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

        // Every Done was still collected (the verdict released the
        // stalled device), so the fabric stayed balanced and the very
        // next batch succeeds.
        engine.execute_rows(&x, &refs, &mut y, 8).unwrap();
        let oracle = kron_matmul_fastkron(&x, &refs).unwrap();
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
        // must not deadlock: resume channels close on teardown.
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
