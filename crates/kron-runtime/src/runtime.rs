//! The public runtime: models, request submission, tickets, sessions, and
//! graceful shutdown — dtype-erased, so **one** runtime serves mixed
//! `f32`/`f64` traffic through sharded scheduler lanes and one plan
//! cache. Admission is lock-free: each lane is a bounded MPMC ring
//! (`crossbeam::channel::bounded`) guarded by an atomic [`LaneGate`]
//! (a striped sender-count gate, not a mutex), requests hash to a lane by
//! plan identity (`(dtype, shape_key)`, see [`crate::cache`]'s
//! `lane_of`), and idle lanes steal queued work from busy siblings. The
//! per-lane scheduler threads live in [`crate::scheduler`].
//!
//! A lane has one stop signal: its closed gate, behind which the closer
//! sends the lane's final [`Msg::Shutdown`]. Orderly shutdown closes
//! each gate and sends `Shutdown`; a scheduler panic closes every gate,
//! so no submit, bypassed or not, is admitted after it. The ring itself
//! never disconnects.
//!
//! The erasure boundary is the request channel: typed entry points
//! (`submit`, `Session::call`, …) wrap their [`Request<T>`] into the
//! two-armed [`ErasedRequest`] enum via the sealed [`sealed::ErasedDtype`]
//! hooks, and the scheduler unwraps into fully-typed per-dtype lanes.
//! Enum dispatch only — no trait objects, no `Box<dyn>`, and no
//! allocation on the wrap/unwrap — so the zero-allocation steady-state
//! contract survives the redesign unchanged.

use crate::cache::{CachePolicy, PinnedEntry, PlanCache};
use crate::clock::Clock;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlane, FaultTrigger};
use crate::health::{BreakerPolicy, DeviceHealth, DeviceHealthReport};
use crate::metrics::{Field, MetricKind, MetricsHub, MetricsSnapshot, ModelStats, Outcome, Stage};
use crate::scheduler::{arm_scripted_fault, Scheduler, ServeCtx, WINDOW};
use crate::trace::{ServeEvent, ServeEventKind, StageTimings};
use crossbeam::channel::{bounded, Channel};
use gpu_sim::device::{DeviceSpec, V100};
use gpu_sim::ExecSummary;
use kron_core::{DType, Element, FactorShape, KronError, KronProblem, Matrix, PlanKey, Result};
// Atomics come through the `crossbeam::sync` facade so the admission
// protocol (LaneGate, bypass claim, inflight gauges) can be model-checked
// under `--cfg kron_loom`; in normal builds these are re-exports of the
// `std` types. `Mutex`/`Condvar`/`Arc` stay `std`: model executions here
// only exercise the atomic protocols, and the blocking paths are not
// driven inside model threads.
use crossbeam::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a runtime executes its batches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Backend {
    /// Everything runs on one device through the fused-path
    /// [`fastkron_core::Workspace`] — the classic serving configuration.
    #[default]
    SingleNode,
    /// Batches shard across a simulated multi-GPU machine: rows split
    /// `GM`-ways and columns `GK`-ways over a SUMMA-style grid, with
    /// Algorithm 2's grouped exchanges between factor groups
    /// ([`kron_dist::ShardedEngine`]).
    ///
    /// Models the grid cannot shard (mixed or rectangular factors, `K`
    /// not divisible by the grid) transparently fall back to single-node
    /// execution, counted in [`RuntimeStats::local_fallbacks`]. A GPU
    /// count the SUMMA rule cannot arrange (not a power of two) is a
    /// configuration error: every request then fails with the documented
    /// [`KronError::InvalidGrid`].
    Distributed {
        /// Number of simulated GPUs (must be a power of two).
        gpus: usize,
        /// Use the single-kernel P2P communication path instead of NCCL
        /// (§5's peer-access optimization; lower per-message latency).
        p2p: bool,
    },
}

impl Backend {
    /// The configured device count: the machine size under
    /// [`Backend::Distributed`], `1` on a single node.
    pub fn gpus(&self) -> usize {
        match self {
            Backend::SingleNode => 1,
            Backend::Distributed { gpus, .. } => *gpus,
        }
    }
}

/// Transparent batch-retry policy ([`RuntimeConfig::retry`]).
///
/// On a device fault ([`KronError::DeviceFailure`] /
/// [`KronError::DeviceTimeout`]) the scheduler evicts the broken entry
/// and re-executes the failed batch instead of surfacing the error: first
/// on a freshly rebuilt full grid, then — with [`RetryPolicy::degrade`] —
/// halving the grid toward the single-device fallback. Retried results
/// are *value-invisible*: every grid shape and the local path compute the
/// same bits on integer-valued data (the workspace's differential spine),
/// so a recovered client can't tell a retry happened except by reading
/// its [`ServeReceipt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-executions of a failed batch. `0` disables retry: a
    /// device fault surfaces to the client as the raw error (PR 3's
    /// behavior).
    pub max_attempts: u32,
    /// Wait between attempts, in microseconds on the runtime's clock
    /// (`0` retries immediately). A member whose deadline the retry
    /// would land past is shed with [`KronError::DeadlineExceeded`]
    /// instead of being retried — a batch never silently retries past
    /// its deadlines.
    pub backoff_us: u64,
    /// After the first same-size rebuild retry, halve the grid on each
    /// further attempt toward single-device execution. `false` rebuilds
    /// at full size every attempt.
    pub degrade: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_us: 0,
            degrade: true,
        }
    }
}

/// Tuning knobs for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum rows one batched execute covers; also the row capacity the
    /// cached batch workspaces are sized for.
    pub max_batch_rows: usize,
    /// Requests with `M` at or below this are eligible for cross-request
    /// batching; larger requests are served solo (they already saturate
    /// the fused path on their own). Clamped to `max_batch_rows`.
    pub batch_max_m: usize,
    /// Upper bound on how long the scheduler lingers after the first
    /// request of a cycle to let more requests arrive and coalesce
    /// (microseconds; `0` disables lingering). Trades per-request latency
    /// for batch occupancy — most useful on hosts where clients and the
    /// scheduler contend for cores, where serving would otherwise
    /// degenerate into lockstep one-request cycles. With
    /// [`RuntimeConfig::adaptive_linger`] (the default) this is a *cap*:
    /// the effective linger shrinks toward zero when the queue is shallow
    /// and grows toward the cap under load (see
    /// [`crate::adaptive_linger_us`]; the current value is the
    /// [`RuntimeStats::current_linger_us`] gauge).
    pub batch_linger_us: u64,
    /// Scale the effective linger with observed load instead of always
    /// lingering the full `batch_linger_us`. `false` restores the fixed
    /// window.
    pub adaptive_linger: bool,
    /// Microseconds of queue age per effective-priority step (see
    /// [`crate::aged_priority`]): a request that has waited `n ×
    /// priority_aging_us` is served as if its priority were `n` higher,
    /// so sustained high-priority traffic can delay low-priority work but
    /// never starve it. `0` disables aging (strict static priorities).
    pub priority_aging_us: u64,
    /// Bounds on the plan cache (LRU capacity, byte budget, and idle
    /// timeout), spanning both dtypes. The default is unbounded —
    /// production deployments serving many model shapes should set
    /// [`CachePolicy::max_entries`] and/or [`CachePolicy::max_bytes`],
    /// since every cached entry holds its buffers (a `Distributed` entry,
    /// every simulated device's blocks) until evicted.
    pub cache: CachePolicy,
    /// The clock deadlines, queue ages, idle ages, and linger windows are
    /// measured on. [`Clock::real`] (the default) in production;
    /// [`Clock::manual`] makes scheduler timing decisions deterministic
    /// in tests.
    pub clock: Clock,
    /// Simulated GPU model: it shapes the `Distributed` backend's engines,
    /// comm model and pricing, and names every [`PlanKey`]'s device.
    /// Single-device entries never read it, so a single-node runtime
    /// serves on any device, even one no GPU-sim tile configuration fits.
    pub device: DeviceSpec,
    /// Execution backend batches run on.
    pub backend: Backend,
    /// Transparent retry of device-faulted batches (see [`RetryPolicy`]).
    /// On by default; set `max_attempts: 0` for fail-fast serving.
    pub retry: RetryPolicy,
    /// Per-device circuit breaker quarantining repeatedly-failing devices
    /// (see [`BreakerPolicy`] and [`Runtime::device_health`]).
    pub breaker: BreakerPolicy,
    /// The low-latency lane (on by default): when the runtime is idle —
    /// no admitted request has an unclaimed result — and the request's
    /// plan is warm, local, and at full device width, `submit` and
    /// `Session::call` execute inline on the submitting thread instead
    /// of crossing the scheduler channel, eliminating the channel hop,
    /// linger window, and scheduler wake at queue depth 1. The moment
    /// load appears (results in flight, a cold or sharded plan, an open
    /// breaker's degraded rebuild) requests flow through the batching
    /// scheduler as before. `false` pins every request to the scheduler
    /// lane (useful for tests that assert scheduler-side behavior).
    pub inline_bypass: bool,
    /// Number of scheduler lanes (service threads), clamped to
    /// `1..=`[`MAX_LANES`]. Each lane owns a bounded lock-free admission
    /// ring and serves both dtypes; requests hash to a lane by plan
    /// identity (`(dtype, shape_key)`), so one model's traffic always
    /// lands on one lane (preserving cross-request batching) while
    /// distinct models spread across lanes. Idle lanes steal queued
    /// requests from busy siblings, so one hot model cannot starve the
    /// rest. The default `1` keeps the classic single-scheduler
    /// behavior: one global service order across every model and dtype
    /// (what the deterministic admission tests pin). Multi-lane runtimes
    /// order service *per lane*; the global serve-sequence counter stays
    /// coherent but interleaves across lanes.
    pub scheduler_lanes: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_batch_rows: 256,
            batch_max_m: 32,
            batch_linger_us: 0,
            adaptive_linger: true,
            priority_aging_us: 1_000,
            cache: CachePolicy::default(),
            clock: Clock::default(),
            device: V100.clone(),
            backend: Backend::SingleNode,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            inline_bypass: true,
            scheduler_lanes: 1,
        }
    }
}

/// Upper bound on [`RuntimeConfig::scheduler_lanes`]. Fixed so per-lane
/// counters can live in `Copy` arrays inside [`RuntimeStats`] — snapshots
/// stay allocation-free and the stats struct stays `Copy`.
pub const MAX_LANES: usize = 8;

/// Per-lane serving counters (see [`RuntimeStats::lanes`]): the
/// flight-deck view of the sharded scheduler topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Gauge: requests sitting in this lane's admission ring right now
    /// (admitted, not yet drained by a scheduler thread), read from the
    /// ring when the snapshot is taken.
    pub depth: u64,
    /// Gauge: admitted requests on this lane whose results have not been
    /// claimed — the lane's bypass-eligibility signal (a request bypasses
    /// only when its lane reads zero; see [`RuntimeConfig::inline_bypass`]).
    pub inflight: u64,
    /// Requests this lane completed (its throughput counter), including
    /// requests it stole from siblings and inline bypasses it hosted: the
    /// sum of the four reply classes below.
    pub served: u64,
    /// Requests this lane served through a multi-request batch.
    pub batched_requests: u64,
    /// Requests this lane served by a dedicated execute.
    pub solo_requests: u64,
    /// Requests served inline on the submitting thread against this
    /// lane's claim.
    pub bypassed_requests: u64,
    /// Requests this lane completed with an error reply. Per lane,
    /// `served == batched_requests + solo_requests + bypassed_requests +
    /// error_replies` — the same decomposition the global counters obey.
    pub error_replies: u64,
    /// Requests this lane stole from a sibling's admission ring while it
    /// was idle and the sibling was backlogged.
    pub steals: u64,
}

/// Counters describing what a runtime has done so far, across every
/// dtype it serves (the per-dtype split is `requests_f32`/`requests_f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Requests accepted by `submit`/`execute`/`Session::call`:
    /// `requests_f32 + requests_f64`.
    pub submitted: u64,
    /// Accepted requests carrying `f32` data.
    pub requests_f32: u64,
    /// Accepted requests carrying `f64` data.
    pub requests_f64: u64,
    /// Requests completed (successfully or with an error reply): the sum
    /// of every lane's [`LaneStats::served`].
    pub served: u64,
    /// Multi-request fused executes performed.
    pub batches: u64,
    /// Requests served through a multi-request batch.
    pub batched_requests: u64,
    /// Requests served by a dedicated execute (large `M`, or a batch
    /// window containing a single request).
    pub solo_requests: u64,
    /// Requests served inline on the submitting thread by the
    /// low-latency bypass lane (see [`RuntimeConfig::inline_bypass`]) —
    /// they never crossed the scheduler channel.
    pub bypassed_requests: u64,
    /// Requests that completed with an error reply (deadline sheds,
    /// execution errors, shutdown poisoning). Every served request is
    /// counted exactly once across `batched_requests`, `solo_requests`,
    /// `bypassed_requests`, and this counter:
    /// `served == batched + solo + bypassed + error_replies`.
    pub error_replies: u64,
    /// Plan-cache lookups that found a fresh entry. There is one lookup
    /// per scheduler chunk attempt (a batch of any size counts once),
    /// per bypassed request and per [`Runtime::pin_model`]. The sum of
    /// [`ModelStats::plan_hits`] over [`Runtime::model_stats`], overflow
    /// row included.
    pub plan_hits: u64,
    /// Plan-cache lookups that found no fresh entry, counted as
    /// `plan_hits` are. A miss counts before its build, so a build that
    /// fails (say with [`KronError::InvalidGrid`]) counts too. The sum of
    /// [`ModelStats::plan_misses`], as `plan_hits`.
    pub plan_misses: u64,
    /// Executes that sharded across the simulated GPU grid.
    pub sharded_batches: u64,
    /// Plan-cache entries that fell back to single-node execution because
    /// the grid could not shard the model (Distributed backend only).
    pub local_fallbacks: u64,
    /// Total simulated bytes exchanged over inter-GPU links by sharded
    /// executes (prorated per batch from the engine's capacity-rows
    /// simulation).
    pub comm_bytes: u64,
    /// Plan-cache entries evicted (LRU capacity, byte budget, idle
    /// timeout, or post-device-failure), each tearing down its workspace
    /// or sharded engine.
    pub evictions: u64,
    /// Plan builds for a shape that had previously been evicted — cache
    /// thrash; a rising rate means the cache bounds are too small for the
    /// live model set.
    pub rebuilds: u64,
    /// Requests shed with [`KronError::DeadlineExceeded`] because their
    /// deadline had already passed when the scheduler picked them up
    /// (they never reached an execute), or because a retry would have
    /// landed past their deadline. The count of the
    /// [`Outcome::Shed`] latency histogram.
    pub deadline_shed: u64,
    /// Batch re-executions after a device fault (each failed execute that
    /// was retried counts once, whatever grid the retry ran on).
    pub retries: u64,
    /// Successful executes that ran on a smaller grid than configured
    /// (retry degradation or breaker quarantine).
    pub degraded_batches: u64,
    /// Requests that saw a device fault but were ultimately served `Ok`
    /// by a retry — the transparent-recovery counter.
    pub recovered_requests: u64,
    /// Device circuit-breaker trips (Closed or HalfOpen → Open): the sum
    /// of [`DeviceHealthReport::trips`] over [`Runtime::device_health`].
    pub breaker_trips: u64,
    /// Gauge: plan-cache entries currently resident (both dtypes), read
    /// from the cache when the snapshot is taken
    /// ([`Runtime::cached_entries`]).
    pub cached_entries: u64,
    /// Gauge: estimated bytes resident across every plan-cache entry
    /// (workspace + staging + engine footprint; the
    /// [`CachePolicy::max_bytes`] accounting basis), read from the cache
    /// when the snapshot is taken ([`Runtime::cached_bytes`]).
    pub cached_bytes: u64,
    /// Gauge: the effective linger window of the most recent scheduling
    /// cycle (equals `batch_linger_us` with adaptation off; breathes with
    /// load otherwise).
    pub current_linger_us: u64,
    /// Gauge: admitted requests whose results have not yet been claimed
    /// by a waiter: the sum of every lane's [`LaneStats::inflight`], so
    /// it also counts a bypass claim in progress. A request is eligible
    /// for inline execution only when its lane reads zero, so pipelined
    /// bursts (submit many, wait later) keep flowing through the
    /// batching scheduler.
    pub inflight_requests: u64,
    /// Number of scheduler lanes this runtime runs
    /// ([`RuntimeConfig::scheduler_lanes`] after clamping); the first
    /// this many entries of `lane_stats` are live.
    pub scheduler_lanes: u64,
    /// Requests stolen across lanes in total (the sum of per-lane
    /// [`LaneStats::steals`]); always `0` on a single-lane runtime.
    pub lane_steals: u64,
    /// Per-lane counters; use [`RuntimeStats::lanes`] for the live
    /// prefix (entries past `scheduler_lanes` are zero).
    pub lane_stats: [LaneStats; MAX_LANES],
}

impl RuntimeStats {
    /// The live per-lane counters: one [`LaneStats`] per configured
    /// scheduler lane.
    pub fn lanes(&self) -> &[LaneStats] {
        &self.lane_stats[..(self.scheduler_lanes as usize).clamp(1, MAX_LANES)]
    }

    /// Every counter and gauge as `(name, kind, value)`, in declaration
    /// order: the one list `Display`, `to_json` and `to_prometheus`
    /// render (`lane_stats` renders per lane, through
    /// [`LaneStats::fields`]). Exhaustive destructure: adding a field
    /// without a row is a compile error.
    pub(crate) fn fields(&self) -> [Field; 27] {
        use MetricKind::{Counter, Gauge};
        let RuntimeStats {
            submitted,
            requests_f32,
            requests_f64,
            served,
            batches,
            batched_requests,
            solo_requests,
            bypassed_requests,
            error_replies,
            plan_hits,
            plan_misses,
            sharded_batches,
            local_fallbacks,
            comm_bytes,
            evictions,
            rebuilds,
            deadline_shed,
            retries,
            degraded_batches,
            recovered_requests,
            breaker_trips,
            cached_entries,
            cached_bytes,
            current_linger_us,
            inflight_requests,
            scheduler_lanes,
            lane_steals,
            lane_stats: _,
        } = *self;
        [
            ("submitted", Counter, submitted),
            ("requests_f32", Counter, requests_f32),
            ("requests_f64", Counter, requests_f64),
            ("served", Counter, served),
            ("batches", Counter, batches),
            ("batched_requests", Counter, batched_requests),
            ("solo_requests", Counter, solo_requests),
            ("bypassed_requests", Counter, bypassed_requests),
            ("error_replies", Counter, error_replies),
            ("plan_hits", Counter, plan_hits),
            ("plan_misses", Counter, plan_misses),
            ("sharded_batches", Counter, sharded_batches),
            ("local_fallbacks", Counter, local_fallbacks),
            ("comm_bytes", Counter, comm_bytes),
            ("evictions", Counter, evictions),
            ("rebuilds", Counter, rebuilds),
            ("deadline_shed", Counter, deadline_shed),
            ("retries", Counter, retries),
            ("degraded_batches", Counter, degraded_batches),
            ("recovered_requests", Counter, recovered_requests),
            ("breaker_trips", Counter, breaker_trips),
            ("cached_entries", Gauge, cached_entries),
            ("cached_bytes", Gauge, cached_bytes),
            ("current_linger_us", Gauge, current_linger_us),
            ("inflight_requests", Gauge, inflight_requests),
            ("scheduler_lanes", Gauge, scheduler_lanes),
            ("lane_steals", Counter, lane_steals),
        ]
    }
}

impl LaneStats {
    /// This lane's counters and gauges as `(name, kind, value)`, in
    /// declaration order (see [`RuntimeStats::fields`]).
    pub(crate) fn fields(&self) -> [Field; 8] {
        use MetricKind::{Counter, Gauge};
        let LaneStats {
            depth,
            inflight,
            served,
            batched_requests,
            solo_requests,
            bypassed_requests,
            error_replies,
            steals,
        } = *self;
        [
            ("depth", Gauge, depth),
            ("inflight", Gauge, inflight),
            ("served", Counter, served),
            ("batched_requests", Counter, batched_requests),
            ("solo_requests", Counter, solo_requests),
            ("bypassed_requests", Counter, bypassed_requests),
            ("error_replies", Counter, error_replies),
            ("steals", Counter, steals),
        ]
    }
}

/// Per-lane atomic counters behind [`LaneStats`]. The four reply
/// classes are the only per-reply counters: a lane's `served` and every
/// global class total are sums of them, formed at snapshot time.
#[derive(Default)]
pub(crate) struct LaneStatsInner {
    pub(crate) inflight: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    pub(crate) solo_requests: AtomicU64,
    pub(crate) bypassed_requests: AtomicU64,
    pub(crate) error_replies: AtomicU64,
    pub(crate) steals: AtomicU64,
}

impl LaneStatsInner {
    /// The lane's counters, with `depth` read off its ring by the caller.
    fn snapshot(&self, depth: u64) -> LaneStats {
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        let solo_requests = self.solo_requests.load(Ordering::Relaxed);
        let bypassed_requests = self.bypassed_requests.load(Ordering::Relaxed);
        let error_replies = self.error_replies.load(Ordering::Relaxed);
        LaneStats {
            depth,
            // relaxed: gauge snapshot for observability; admission
            // decisions go through the AcqRel CAS in `bypass_try_claim`.
            inflight: self.inflight.load(Ordering::Relaxed),
            served: batched_requests + solo_requests + bypassed_requests + error_replies,
            batched_requests,
            solo_requests,
            bypassed_requests,
            error_replies,
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

/// The atomic counters behind [`RuntimeStats`], held in the
/// [`MetricsHub`]. Only facts no other record implies live here; every
/// other field of a snapshot is derived in [`Runtime::stats`].
#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) requests_f32: AtomicU64,
    pub(crate) requests_f64: AtomicU64,
    /// Replies sent so far: issues each reply's [`ServeReceipt::seq`].
    /// [`RuntimeStats::served`] sums the lane classes instead.
    pub(crate) served: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) sharded_batches: AtomicU64,
    pub(crate) local_fallbacks: AtomicU64,
    pub(crate) comm_bytes: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) rebuilds: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) degraded_batches: AtomicU64,
    pub(crate) recovered_requests: AtomicU64,
    pub(crate) current_linger_us: AtomicU64,
    /// Smoothed requests-per-cycle in x16 fixed point; drives the
    /// adaptive linger window. Lives here (not on the scheduler) so the
    /// bypass lane's depth-1 inline serves decay it too. Not a public
    /// counter — snapshots don't report it.
    pub(crate) ewma_depth_x16: AtomicU64,
    /// Per-lane counters; only the first `scheduler_lanes` entries are
    /// live.
    pub(crate) lane_stats: [LaneStatsInner; MAX_LANES],
}

impl StatsInner {
    /// The accepted-request counter for `dtype`.
    pub(crate) fn requests(&self, dtype: DType) -> &AtomicU64 {
        match dtype {
            DType::F32 => &self.requests_f32,
            DType::F64 => &self.requests_f64,
        }
    }

    /// The per-lane counter block for `lane`.
    pub(crate) fn lane(&self, lane: usize) -> &LaneStatsInner {
        &self.lane_stats[lane]
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "runtime stats")?;
        for (name, _, value) in self.fields() {
            writeln!(f, "  {name:<20} {value:>12}")?;
        }
        for (i, lane) in self.lanes().iter().enumerate() {
            write!(f, "  lane {i:<2}")?;
            for (name, _, value) in lane.fields() {
                write!(f, " {name}={value}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A loaded set of Kronecker factors requests are served against.
///
/// Cross-request batching stacks inputs row-wise, which is only valid when
/// the requests share the *same factor values* — so batching is keyed on
/// model identity, the serving analog of "register the model once, then
/// send inputs". Models stay fully typed; the runtime that serves them is
/// dtype-erased, so `Model<f32>` and `Model<f64>` handles from the same
/// [`Runtime`] interleave through one scheduler.
#[derive(Clone)]
pub struct Model<T: Element> {
    pub(crate) inner: Arc<ModelInner<T>>,
}

pub(crate) struct ModelInner<T: Element> {
    pub(crate) id: u64,
    /// Hash of `shapes` — the plan-cache key, so models sharing a factor
    ///-shape chain share plans, workspaces, and sharded engines (the
    /// execution state depends on shapes only; factor *values* arrive per
    /// execute). The cache verifies the full chain on every hit, so a
    /// 64-bit collision costs a rebuild, never a wrong-shape workspace.
    pub(crate) shape_key: u64,
    factors: Box<[Matrix<T>]>,
    pub(crate) shapes: Vec<FactorShape>,
    k: usize,
    l: usize,
}

impl<T: Element> ModelInner<T> {
    /// Validates the factor set and derives the shape chain, its hash
    /// key, and the input/output widths.
    pub(crate) fn build(id: u64, factors: Vec<Matrix<T>>) -> Result<Self> {
        let shapes: Vec<FactorShape> = factors
            .iter()
            .map(|f| FactorShape::new(f.rows(), f.cols()))
            .collect();
        // Validates non-empty factors and non-zero dimensions.
        let probe = KronProblem::new(1, shapes.clone())?;
        let (k, l) = (probe.input_cols(), probe.output_cols());
        let shape_key = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            shapes.hash(&mut h);
            h.finish()
        };
        Ok(ModelInner {
            id,
            shape_key,
            factors: factors.into_boxed_slice(),
            shapes,
            k,
            l,
        })
    }

    pub(crate) fn factors(&self) -> &[Matrix<T>] {
        &self.factors
    }

    pub(crate) fn input_cols(&self) -> usize {
        self.k
    }

    pub(crate) fn output_cols(&self) -> usize {
        self.l
    }
}

impl<T: Element> Model<T> {
    /// The runtime-assigned model id (the identity cross-request batching
    /// and [`KronError::MixedModelBatch`] reports are keyed on). Ids are
    /// unique across dtypes within one runtime.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Columns a request's `X` must have (`∏ᵢ Pᵢ`).
    pub fn input_cols(&self) -> usize {
        self.inner.k
    }

    /// Columns of every result (`∏ᵢ Qᵢ`).
    pub fn output_cols(&self) -> usize {
        self.inner.l
    }

    /// Number of Kronecker factors.
    pub fn num_factors(&self) -> usize {
        self.inner.shapes.len()
    }

    /// The factor shapes, in Kronecker-product order.
    pub fn shapes(&self) -> &[FactorShape] {
        &self.inner.shapes
    }

    /// Hash of the factor-shape chain — the identity the plan cache and
    /// the per-model metrics registry ([`crate::ModelStats::shape_key`])
    /// key on. Models sharing a shape chain share this key.
    pub fn shape_key(&self) -> u64 {
        self.inner.shape_key
    }
}

/// One-shot result slot a request's reply travels through. Reused across
/// calls by [`Session`], freshly allocated per [`Ticket`].
///
/// The slot also carries the lane inflight gauge's release side:
/// admission ([`Slot::admit`]) marks one outstanding count held here,
/// and the count is released exactly once — when the waiter claims the
/// reply in [`Slot::take_blocking`], or, for an abandoned [`Ticket`],
/// when the last `Arc` drops.
pub(crate) struct Slot<T: Element> {
    inner: Mutex<SlotInner<T>>,
    ready: Condvar,
    /// The metrics plane the lane inflight gauges live in.
    hub: Arc<MetricsHub>,
}

/// A completed reply: outcome, the recycled buffers, and the
/// [`ServeReceipt`] the waiter reads — all `Copy` or moved, so replies
/// never allocate.
pub(crate) struct Reply<T: Element> {
    pub(crate) result: Result<()>,
    pub(crate) x: Matrix<T>,
    pub(crate) y: Matrix<T>,
    pub(crate) receipt: ServeReceipt,
}

struct SlotInner<T: Element> {
    result: Option<Reply<T>>,
    waiting: bool,
    /// `true` when this slot holds no outstanding inflight count (the
    /// idle default, and again after the waiter claims a reply).
    /// [`Slot::admit`] flips it to `false` per admitted request.
    claimed: bool,
    /// The scheduler lane the outstanding request was admitted on — the
    /// per-lane inflight gauge the release side must decrement.
    lane: usize,
}

impl<T: Element> Slot<T> {
    fn new(hub: Arc<MetricsHub>) -> Self {
        Slot {
            inner: Mutex::new(SlotInner {
                result: None,
                waiting: false,
                claimed: true,
                lane: 0,
            }),
            ready: Condvar::new(),
            hub,
        }
    }

    /// Marks one admitted request outstanding on this slot, raising the
    /// lane's inflight gauge — the bypass lane's idleness signal. Called
    /// once per admission, on whichever lane admits.
    pub(crate) fn admit(&self, lane: usize) {
        self.admit_claimed(lane);
        // relaxed: the count publishes no data, and the bypass claim's CAS,
        // a read-modify-write, reads the latest count under any ordering.
        self.hub
            .stats
            .lane(lane)
            .inflight
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Returns one admission's count to `lane`'s inflight gauge, once:
    /// from [`Slot::take_blocking`] or [`Slot::drop`].
    fn release(&self, lane: usize) {
        // relaxed: as in `admit` — the count publishes no data, and the
        // claim CAS reads it in modification order.
        let prev = self
            .hub
            .stats
            .lane(lane)
            .inflight
            .fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "lane {lane} inflight gauge underflow");
    }

    /// [`Slot::admit`] for a request whose lane-inflight count is
    /// already held by the bypass lane's CAS claim (see
    /// [`crate::scheduler::try_bypass`]): raises no gauge — the claim
    /// *becomes* this slot's lane count, which the release side
    /// ([`Slot::take_blocking`] / [`Slot::drop`]) returns.
    pub(crate) fn admit_claimed(&self, lane: usize) {
        let mut s = self.inner.lock().unwrap();
        debug_assert!(s.claimed, "slot admitted twice without a claim");
        s.claimed = false;
        s.lane = lane;
    }

    /// Deposits a reply. Notifies only when a waiter has registered, so
    /// pipelined clients (submit many, wait later) skip the wakeup
    /// syscall on all but the slot they are blocked on.
    pub(crate) fn fill(&self, reply: Reply<T>) {
        let mut s = self.inner.lock().unwrap();
        debug_assert!(s.result.is_none(), "slot filled twice");
        s.result = Some(reply);
        if s.waiting {
            // Notify while holding the lock so the waiter cannot observe
            // the result and drop the slot before this notify lands.
            self.ready.notify_all();
        }
    }

    fn take_blocking(&self) -> Reply<T> {
        let mut s = self.inner.lock().unwrap();
        while s.result.is_none() {
            s.waiting = true;
            s = self.ready.wait(s).unwrap();
        }
        s.waiting = false;
        let reply = s.result.take().expect("checked above");
        // Release-side audit: the `claimed` flag, read and flipped under
        // the slot lock, makes this release and the drop-side release
        // mutually exclusive — claiming here sets `claimed`, so the
        // final `Drop` sees a claimed slot and does not decrement again.
        // Error replies take the same path: a shed or failed request was
        // still admitted once and is released exactly once.
        let release = !s.claimed;
        s.claimed = true;
        let lane = s.lane;
        drop(s);
        if release {
            self.release(lane);
        }
        reply
    }
}

impl<T: Element> Drop for Slot<T> {
    fn drop(&mut self) {
        // An abandoned ticket (submitted, never waited — including one
        // holding an error reply) still releases its inflight count when
        // the last Arc — held by the serving lane until the reply is
        // filled — goes away. `claimed` guarantees single release: it is
        // only `false` between an admit and a `take_blocking` claim, and
        // this drop runs at most once per slot.
        if let Ok(s) = self.inner.get_mut() {
            if !s.claimed {
                let lane = s.lane;
                self.release(lane);
            }
        }
    }
}

/// Per-request admission-control options.
///
/// Deadlines are absolute microseconds on the runtime's clock timeline
/// (see [`Runtime::now_us`]); form them as `runtime.now_us() + budget`.
/// A request whose deadline has already passed when the scheduler picks
/// it up is shed with [`KronError::DeadlineExceeded`] before any plan
/// lookup or execute. Priorities order service within a scheduling
/// window, across both dtypes: higher-(aged-)priority model groups (and
/// solo requests) drain first, and within one priority level the group
/// with the tightest deadline goes first (see the scheduler docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Service priority within a scheduling window; higher drains first.
    /// Default `0`. Waiting raises the *effective* priority (see
    /// [`crate::aged_priority`] and
    /// [`RuntimeConfig::priority_aging_us`]).
    pub priority: u8,
    /// Absolute deadline in microseconds on the runtime's clock, or
    /// `None` for no deadline.
    pub deadline_us: Option<u64>,
}

impl SubmitOptions {
    /// Options with the given priority (no deadline).
    pub fn priority(priority: u8) -> Self {
        SubmitOptions {
            priority,
            ..SubmitOptions::default()
        }
    }

    /// Sets the absolute deadline (microseconds on the runtime's clock).
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

/// One queued request: input, pre-shaped output, admission-control
/// options, the enqueue timestamp (the priority-aging basis), and the
/// reply slot.
pub(crate) struct Request<T: Element> {
    pub(crate) model: Arc<ModelInner<T>>,
    pub(crate) x: Matrix<T>,
    pub(crate) y: Matrix<T>,
    pub(crate) priority: u8,
    pub(crate) deadline_us: Option<u64>,
    /// Clock time the request entered the queue (stamped under the send
    /// gate); `now - enqueued_us` is the queue age priority aging runs on.
    pub(crate) enqueued_us: u64,
    /// Clock time the scheduler pulled the request off the channel —
    /// `drained_us - enqueued_us` is the timeline's queue stage.
    pub(crate) drained_us: u64,
    pub(crate) slot: Arc<Slot<T>>,
}

impl<T: Element> Request<T> {
    /// A request replying into `slot`; admission sets its clock stamps.
    pub(crate) fn new(
        model: &Model<T>,
        x: Matrix<T>,
        y: Matrix<T>,
        opts: SubmitOptions,
        slot: Arc<Slot<T>>,
    ) -> Self {
        Request {
            model: Arc::clone(&model.inner),
            x,
            y,
            priority: opts.priority,
            deadline_us: opts.deadline_us,
            enqueued_us: 0,
            drained_us: 0,
            slot,
        }
    }
}

/// A typed request behind the dtype-erased channel: the enum the sealed
/// [`sealed::ErasedDtype::erase`] hook wraps into and the scheduler's
/// typed lanes unwrap out of. Plain enum dispatch — the wrap is a move,
/// never an allocation.
pub(crate) enum ErasedRequest {
    /// An `f32` request.
    F32(Request<f32>),
    /// An `f64` request.
    F64(Request<f64>),
}

/// Messages on the scheduler's channel. `Shutdown` is always the final
/// message (the gate guarantees no request is sent after it).
pub(crate) enum Msg {
    /// A request to serve, of either dtype.
    Request(ErasedRequest),
    /// Drain what is queued, then exit.
    Shutdown,
}

/// The sealed dtype-erasure hooks behind [`ServeElement`].
///
/// The module is private, so the trait cannot be named (or implemented)
/// outside this crate — which is what keeps the erased enum total: every
/// `T: ServeElement` is exactly one of the two arms, checked nowhere at
/// runtime on the hot path. (The trait is technically reachable as a
/// supertrait of the public [`ServeElement`], so its crate-private method
/// signatures trip `private_interfaces` — allowed deliberately: hiding
/// those types is the point of sealing.)
#[allow(private_interfaces)]
pub(crate) mod sealed {
    use super::{ErasedRequest, Request};
    use crate::cache::{CachedPlan, ErasedPlan};
    use kron_core::Element;

    /// Wrap/unwrap hooks between the typed and erased layers; implemented
    /// for `f32` and `f64` only.
    pub trait ErasedDtype: Element {
        /// Wraps a typed request into the erased channel enum.
        fn erase(req: Request<Self>) -> ErasedRequest;
        /// Wraps a typed cache entry into the erased cache enum.
        fn wrap_plan(plan: CachedPlan<Self>) -> ErasedPlan;
        /// The typed view of an erased cache entry; `None` when the entry
        /// holds the other dtype (unreachable after a dtype-keyed lookup,
        /// handled as a rebuild rather than trusted).
        fn plan_mut(plan: &mut ErasedPlan) -> Option<&mut CachedPlan<Self>>;
    }

    impl ErasedDtype for f32 {
        fn erase(req: Request<Self>) -> ErasedRequest {
            ErasedRequest::F32(req)
        }
        fn wrap_plan(plan: CachedPlan<Self>) -> ErasedPlan {
            ErasedPlan::F32(plan)
        }
        fn plan_mut(plan: &mut ErasedPlan) -> Option<&mut CachedPlan<Self>> {
            match plan {
                ErasedPlan::F32(p) => Some(p),
                ErasedPlan::F64(_) => None,
            }
        }
    }

    impl ErasedDtype for f64 {
        fn erase(req: Request<Self>) -> ErasedRequest {
            ErasedRequest::F64(req)
        }
        fn wrap_plan(plan: CachedPlan<Self>) -> ErasedPlan {
            ErasedPlan::F64(plan)
        }
        fn plan_mut(plan: &mut ErasedPlan) -> Option<&mut CachedPlan<Self>> {
            match plan {
                ErasedPlan::F32(_) => None,
                ErasedPlan::F64(p) => Some(p),
            }
        }
    }
}

/// Scalar types the dtype-erased [`Runtime`] serves: `f32` and `f64`.
///
/// Sealed — the supertrait lives in a private module — because the
/// runtime's erased request enum has exactly one arm per dtype; a foreign
/// `Element` impl could not flow through the channel. Everything generic
/// over request data (`load_model`, `submit`, `Session::call`, …) bounds
/// on this.
pub trait ServeElement: Element + sealed::ErasedDtype {}

impl ServeElement for f32 {}
impl ServeElement for f64 {}

/// One scheduler lane's admission surface: its bounded lock-free ring
/// (one handle: submitters send on it, the lane's scheduler receives
/// from it, and sibling lanes steal from it) and its striped gate, the
/// lane's one stop signal.
pub(crate) struct LaneHandle {
    pub(crate) ring: Channel<Msg>,
    pub(crate) gate: LaneGate,
}

/// A lock-free admission gate, one per scheduler lane (the striped
/// replacement for the old `Mutex<Gate>`): bit 0 is the closed flag,
/// the remaining bits count senders currently inside the gate (each
/// in-flight sender adds 2). Entering is one `fetch_add`; closing sets
/// the flag and waits for the sender count to drain, after which the
/// closer pushes `Shutdown` — provably the last message on the lane's
/// ring, with no mutex anywhere on the submit path. Being atomic, the
/// gate cannot be poisoned by a panicking thread: submitters racing a
/// scheduler panic get [`KronError::Shutdown`], never a propagated
/// panic (the poisoned-mutex leak the mutex gate had).
pub(crate) struct LaneGate {
    state: AtomicU64,
}

impl LaneGate {
    pub(crate) fn new() -> Self {
        LaneGate {
            state: AtomicU64::new(0),
        }
    }

    /// Registers this thread as an in-flight sender. `false` means the
    /// gate is closed (shutdown or poison) and nothing was registered.
    pub(crate) fn try_enter(&self) -> bool {
        let prev = self.state.fetch_add(2, Ordering::Acquire);
        if prev & 1 != 0 {
            let prev = self.state.fetch_sub(2, Ordering::Release);
            debug_assert!(prev >= 2, "gate sender count underflow backing out");
            return false;
        }
        true
    }

    /// De-registers an in-flight sender (pairs with a successful
    /// [`LaneGate::try_enter`]).
    pub(crate) fn exit(&self) {
        let prev = self.state.fetch_sub(2, Ordering::Release);
        debug_assert!(prev >= 2, "gate sender count underflow on exit");
    }

    /// Whether the gate has been closed (orderly shutdown or poison).
    pub(crate) fn is_closed(&self) -> bool {
        self.state.load(Ordering::Acquire) & 1 != 0
    }

    /// Sets the closed flag without waiting for in-flight senders.
    /// Idempotent. Callers that need the "no sender still pushing"
    /// guarantee follow up with [`LaneGate::senders_drained`] (the
    /// scheduler's poison path drains its ring while waiting, so a
    /// sender blocked on a full ring can finish its push and exit).
    pub(crate) fn begin_close(&self) {
        self.state.fetch_or(1, Ordering::AcqRel);
    }

    /// `true` once no sender is inside a closed gate: every request that
    /// won admission is in the ring, so a message pushed now is the last.
    pub(crate) fn senders_drained(&self) -> bool {
        self.state.load(Ordering::Acquire) == 1
    }

    /// Closes the gate and waits for in-flight senders to drain. Only
    /// safe where the lane's consumer keeps draining the ring (orderly
    /// shutdown) — a sender mid-push on a full ring needs the consumer
    /// to make room before it can exit.
    pub(crate) fn close(&self) {
        self.begin_close();
        while !self.senders_drained() {
            crossbeam::sync::thread::yield_now();
        }
    }
}

/// The bypass lane's idleness claim: CAS the lane's inflight gauge
/// `0 → 1`. `true` means this thread holds the claim — at most one
/// claimant per lane at a time, and only while the lane is idle. The
/// claim either transfers to the admitted slot ([`Slot::admit_claimed`])
/// or is returned via [`bypass_release_claim`]; the two are mutually
/// exclusive by construction (the bypass path does exactly one of them
/// on every exit). Extracted as a free function so the model-check
/// suites drive the identical protocol the submit path runs.
pub(crate) fn bypass_try_claim(lane_inflight: &AtomicU64) -> bool {
    // Acquire on success orders the claim before the idleness-dependent
    // reads that follow (gate state, cached plan).
    // relaxed: on failure — a busy lane just means "go batch", and no
    // data is read under it.
    lane_inflight
        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
}

/// Releases a claim taken by [`bypass_try_claim`] that did *not*
/// transfer to a slot (bypass declined: shutdown, poison, cold plan).
pub(crate) fn bypass_release_claim(lane_inflight: &AtomicU64) {
    // Release pairs with the next claimant's Acquire CAS.
    let prev = lane_inflight.fetch_sub(1, Ordering::Release);
    debug_assert!(prev > 0, "bypass claim released twice (gauge underflow)");
}

/// RAII sender registration: exits the gate even if the send path
/// unwinds, so [`LaneGate::close`] can never wait on a dead sender.
struct GateEntry<'a>(&'a LaneGate);

impl Drop for GateEntry<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// State shared between the runtime handle, its [`Session`]s, and the
/// per-lane scheduler threads. Dtype-erased: one set of lanes, one
/// cache, one metrics plane for all traffic. Every request enters
/// through [`Shared::submit`] (a linked batch through
/// [`Shared::send_requests`]), and every serve — a scheduler lane's or
/// the inline bypass lane's ([`crate::scheduler::try_bypass`]) — runs
/// against a [`ServeCtx`] borrowed from here.
pub(crate) struct Shared {
    /// The scheduler lanes. Requests hash to a lane by plan identity
    /// (`lane_of(dtype, shape_key)`), so one model's traffic — and any
    /// linked batch — always lands on one lane's ring. A lane's closed
    /// gate is its one stop signal, for orderly shutdown and a scheduler
    /// panic alike: the poison path closes every lane's gate before it
    /// fails a ticket, and nothing is admitted through a closed gate.
    pub(crate) lanes: Box<[LaneHandle]>,
    /// The plan cache, shared so clients can pin models, sweep idle
    /// entries, and introspect residency without a scheduler round-trip.
    /// Lock order: the cache lock is never taken while holding an entry
    /// lock.
    pub(crate) cache: Mutex<PlanCache>,
    pub(crate) clock: Clock,
    /// The metrics plane (counters, histograms, registries, flight
    /// recorder), shared with the cache, health ledger, fault plane, and
    /// every reply slot.
    pub(crate) hub: Arc<MetricsHub>,
    /// The chaos plane, consulted before every sharded execute.
    pub(crate) plane: FaultPlane,
    /// The device-health ledger: executes record outcomes, plan builds
    /// respect its quarantine limit.
    pub(crate) health: DeviceHealth,
    /// The (clamped) runtime configuration.
    pub(crate) cfg: RuntimeConfig,
}

impl Shared {
    /// The scheduler lane serving plan identity `(dtype, shape_key)`.
    pub(crate) fn lane_of_key(&self, dtype: DType, shape_key: u64) -> usize {
        crate::cache::lane_of(dtype, shape_key, self.lanes.len())
    }

    /// Admits one request: inline through the bypass lane when it takes
    /// the request, otherwise onto its lane's ring (which reports
    /// [`KronError::Shutdown`] once the runtime stops admitting).
    fn submit<T: ServeElement>(&self, req: Request<T>) -> Result<()> {
        let lane = self.lane_of_key(T::DTYPE, req.model.shape_key);
        match crate::scheduler::try_bypass(self, lane, req) {
            None => Ok(()),
            Some(req) => self.send_requests(lane, std::iter::once(req)),
        }
    }

    /// Enqueues several requests under one gate registration: either the
    /// whole group is admitted to `lane`'s ring ahead of any `Shutdown`,
    /// or the whole group is rejected — shutdown cannot split a linked
    /// batch. Admission is lock-free (an atomic sender count, then ring
    /// pushes); concurrent producers may interleave *within* the ring,
    /// which batching tolerates (windows group by model, not adjacency),
    /// and a linked batch always lands on one lane (one model → one
    /// lane). Stamps every request's enqueue time (the priority-aging
    /// basis) on entry.
    fn send_requests<T: ServeElement>(
        &self,
        lane: usize,
        reqs: impl Iterator<Item = Request<T>>,
    ) -> Result<()> {
        let handle = &self.lanes[lane];
        if !handle.gate.try_enter() {
            return Err(KronError::Shutdown);
        }
        let entry = GateEntry(&handle.gate);
        let now = self.clock.now_us();
        let dtype_counter = self.hub.stats.requests(T::DTYPE);
        for mut req in reqs {
            req.enqueued_us = now;
            dtype_counter.fetch_add(1, Ordering::Relaxed);
            req.slot.admit(lane);
            self.hub.event(
                now,
                ServeEventKind::Admit {
                    dtype: T::DTYPE,
                    model: req.model.id,
                    rows: req.x.rows() as u32,
                    priority: req.priority,
                },
            );
            handle.ring.send(Msg::Request(T::erase(req)));
        }
        drop(entry);
        Ok(())
    }
}

/// Handle to one result in flight; produced by [`Runtime::submit`].
pub struct Ticket<T: Element> {
    slot: Arc<Slot<T>>,
}

impl<T: Element> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<T: Element> Ticket<T> {
    /// Blocks until the request completes and returns its result matrix.
    ///
    /// # Errors
    /// Whatever execution error the scheduler replied with.
    pub fn wait(self) -> Result<Matrix<T>> {
        let reply = self.slot.take_blocking();
        reply.result.map(|()| reply.y)
    }

    /// Like [`Self::wait`], additionally returning this request's share of
    /// the simulated sharded execution it rode (its prorated
    /// [`ExecSummary`]: simulated seconds, inter-GPU bytes, launches).
    /// `None` when the request was served on a single device, or when the
    /// cost model could not price the per-GPU block shape.
    ///
    /// # Errors
    /// As [`Self::wait`].
    pub fn wait_with_stats(self) -> Result<(Matrix<T>, Option<ExecSummary>)> {
        let reply = self.slot.take_blocking();
        reply.result.map(|()| (reply.y, reply.receipt.shard))
    }

    /// Like [`Self::wait`], additionally returning the [`ServeReceipt`]:
    /// the runtime-global serve sequence number (which reveals the order
    /// the scheduler actually served requests in — across both dtypes;
    /// how priority and deadline-ordering tests observe what drained
    /// first) and the sharded execution share of
    /// [`Self::wait_with_stats`].
    ///
    /// # Errors
    /// As [`Self::wait`].
    pub fn wait_with_receipt(self) -> Result<(Matrix<T>, ServeReceipt)> {
        let reply = self.slot.take_blocking();
        reply.result.map(|()| (reply.y, reply.receipt))
    }
}

/// Serving metadata returned by [`Ticket::wait_with_receipt`].
#[derive(Debug, Clone, Copy)]
pub struct ServeReceipt {
    /// Runtime-global serve sequence number (0-based): the order the
    /// scheduler completed requests in, shared across both dtypes.
    pub seq: u64,
    /// The request's prorated share of its sharded execution, when it
    /// rode one (see [`Ticket::wait_with_stats`]).
    pub shard: Option<ExecSummary>,
    /// How many executes the serving batch went through: `1` means the
    /// first try served; `> 1` means a device fault was retried away
    /// transparently (see [`RetryPolicy`]).
    pub attempts: u32,
    /// `{GM, GK}` of the grid the successful execute ran on — smaller
    /// than the configured grid when the batch was served degraded.
    /// `None` for local (single-device) execution.
    pub grid: Option<(usize, usize)>,
    /// Where this request's microseconds went, stage by stage.
    pub timings: StageTimings,
}

impl std::fmt::Display for ServeReceipt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ServeReceipt {
            seq,
            shard,
            attempts,
            grid,
            timings,
        } = self;
        writeln!(f, "serve receipt")?;
        writeln!(f, "  {:<10} {seq:>12}", "seq")?;
        writeln!(f, "  {:<10} {attempts:>12}", "attempts")?;
        match grid {
            Some((gm, gk)) => writeln!(f, "  {:<10} {:>12}", "grid", format!("{gm}x{gk}"))?,
            None => writeln!(f, "  {:<10} {:>12}", "grid", "local")?,
        }
        match shard {
            Some(s) => writeln!(f, "  {:<10} {:>12}", "shard", format!("{} B", s.comm_bytes))?,
            None => writeln!(f, "  {:<10} {:>12}", "shard", "-")?,
        }
        writeln!(f, "  {:<10} {timings}", "timings")
    }
}

/// A synchronous serving connection with a reusable reply slot and
/// caller-recycled buffers: the allocation-free way to call the runtime.
///
/// One session serves one request at a time (like one connection) —
/// [`Session::call`] takes `&mut self` so the reply slot can never carry
/// two requests at once; concurrency comes from holding several sessions
/// on several threads. A session is typed; hold one per dtype against the
/// same erased runtime to serve mixed traffic.
pub struct Session<T: Element> {
    shared: Arc<Shared>,
    slot: Arc<Slot<T>>,
    last_summary: Option<ExecSummary>,
}

impl<T: ServeElement> Session<T> {
    /// The simulated sharded-execution share of this session's most recent
    /// successful [`Session::call`] (see [`Ticket::wait_with_stats`]);
    /// `None` when it was served on a single device. A `Copy` accessor so
    /// the allocation-free call path stays allocation-free.
    pub fn last_shard_summary(&self) -> Option<ExecSummary> {
        self.last_summary
    }
    /// Serves one request synchronously, recycling the caller's buffers:
    /// `x` is the input, `y` receives the result (it must already be
    /// `x.rows() × model.output_cols()`), and both are returned for
    /// reuse. After the first call of a given shape, a call performs zero
    /// heap allocations end to end.
    ///
    /// # Errors
    /// Shape mismatches, or [`KronError::Shutdown`] once the runtime has
    /// shut down. Errors consume the buffers.
    pub fn call(
        &mut self,
        model: &Model<T>,
        x: Matrix<T>,
        y: Matrix<T>,
    ) -> Result<(Matrix<T>, Matrix<T>)> {
        self.call_with(model, x, y, SubmitOptions::default())
    }

    /// [`Session::call`] with explicit admission-control options
    /// (priority and deadline; see [`SubmitOptions`]).
    ///
    /// # Errors
    /// As [`Session::call`], plus [`KronError::DeadlineExceeded`] when
    /// the deadline passed before the scheduler picked the request up.
    pub fn call_with(
        &mut self,
        model: &Model<T>,
        x: Matrix<T>,
        y: Matrix<T>,
        opts: SubmitOptions,
    ) -> Result<(Matrix<T>, Matrix<T>)> {
        validate_request(model, &x)?;
        if y.rows() != x.rows() || y.cols() != model.output_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("Y {}×{}", x.rows(), model.output_cols()),
                found: format!("Y {}×{}", y.rows(), y.cols()),
            });
        }
        // The low-latency lane: on an idle runtime with a warm plan the
        // call executes inline on this thread — no channel hop, no
        // linger window, no scheduler wake — and stays allocation-free:
        // it reuses this session's slot and the caller's buffers, and
        // the executor reads the model's factors in place. Otherwise
        // the request takes the scheduler channel.
        let req = Request::new(model, x, y, opts, Arc::clone(&self.slot));
        self.shared.submit(req)?;
        let reply = self.slot.take_blocking();
        if reply.result.is_ok() {
            // Failed replies carry no attribution; keep the last
            // successful call's summary, as documented.
            self.last_summary = reply.receipt.shard;
        }
        reply.result.map(|()| (reply.x, reply.y))
    }
}

fn validate_request<T: Element>(model: &Model<T>, x: &Matrix<T>) -> Result<()> {
    if x.rows() == 0 {
        return Err(KronError::EmptyDimension {
            what: "request with M = 0 rows".into(),
        });
    }
    if x.cols() != model.input_cols() {
        return Err(KronError::ShapeMismatch {
            expected: format!("X with {} cols", model.input_cols()),
            found: format!("X with {} cols", x.cols()),
        });
    }
    Ok(())
}

/// A persistent Kron-Matmul serving runtime: one or more scheduler lanes
/// ([`RuntimeConfig::scheduler_lanes`]) batching same-model requests of
/// either dtype behind lock-free admission rings, one shape-keyed
/// plan/workspace cache spanning `f32` and `f64`, and compute on the
/// process-wide persistent worker pool. Models, tickets, and sessions
/// stay typed; the runtime itself is not generic, so a deployment serving
/// mixed-dtype traffic runs one admission surface and one cache budget
/// instead of two half-blind ones. See the crate docs for the
/// architecture.
pub struct Runtime {
    shared: Arc<Shared>,
    schedulers: Vec<JoinHandle<()>>,
    next_model_id: AtomicU64,
}

impl Runtime {
    /// Starts a runtime with the given configuration (spawns the
    /// scheduler thread).
    pub fn new(mut cfg: RuntimeConfig) -> Self {
        cfg.max_batch_rows = cfg.max_batch_rows.max(1);
        cfg.batch_max_m = cfg.batch_max_m.min(cfg.max_batch_rows);
        cfg.cache.max_entries = cfg.cache.max_entries.max(1);
        cfg.scheduler_lanes = cfg.scheduler_lanes.clamp(1, MAX_LANES);
        let health_gpus = match cfg.backend {
            Backend::SingleNode => 0,
            Backend::Distributed { .. } => cfg.backend.gpus(),
        };
        let hub = Arc::new(MetricsHub::new(health_gpus));
        let cache = Mutex::new(PlanCache::new(
            cfg.device.clone(),
            &cfg.backend,
            cfg.cache,
            cfg.clock.clone(),
            Arc::clone(&hub),
        ));
        // Each lane's ring holds 2× the drain window, so producers only
        // feel backpressure (a spin in `send`) when a lane is more than
        // one full window behind — at which point siblings are stealing.
        let lanes = (0..cfg.scheduler_lanes)
            .map(|_| LaneHandle {
                ring: bounded(2 * WINDOW),
                gate: LaneGate::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            lanes,
            cache,
            clock: cfg.clock.clone(),
            plane: FaultPlane::new(Arc::clone(&hub)),
            health: DeviceHealth::new(health_gpus, cfg.breaker, Arc::clone(&hub)),
            hub,
            cfg,
        });
        let schedulers = (0..shared.cfg.scheduler_lanes)
            .map(|lane| {
                let scheduler = Scheduler::new(lane, Arc::clone(&shared));
                std::thread::Builder::new()
                    .name(format!("kron-runtime-scheduler-{lane}"))
                    .spawn(move || scheduler.run())
                    .expect("spawn scheduler thread")
            })
            .collect();
        Runtime {
            shared,
            schedulers,
            next_model_id: AtomicU64::new(0),
        }
    }

    /// Starts a runtime with [`RuntimeConfig::default`].
    pub fn with_defaults() -> Self {
        Runtime::new(RuntimeConfig::default())
    }

    /// Registers a factor set to serve requests against. The model is
    /// typed (`f32` or `f64`); any mix of loaded models is served by this
    /// one runtime.
    ///
    /// # Errors
    /// [`KronError::NoFactors`] / [`KronError::EmptyDimension`] for
    /// degenerate factor sets.
    pub fn load_model<T: ServeElement>(&self, factors: Vec<Matrix<T>>) -> Result<Model<T>> {
        let id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
        Ok(Model {
            inner: Arc::new(ModelInner::build(id, factors)?),
        })
    }

    /// Enqueues `Y = X · (F1 ⊗ … ⊗ FN)` and returns a [`Ticket`] for the
    /// result. Same-model small-`M` submissions in flight together are
    /// batched into one fused execute; requests of the other dtype
    /// interleave through the same scheduler without affecting this
    /// request's numerics.
    ///
    /// # Errors
    /// Shape mismatches against the model, or [`KronError::Shutdown`].
    pub fn submit<T: ServeElement>(&self, model: &Model<T>, x: Matrix<T>) -> Result<Ticket<T>> {
        self.submit_with(model, x, SubmitOptions::default())
    }

    /// [`Runtime::submit`] with explicit admission-control options: a
    /// service priority (higher drains first within a scheduling window,
    /// aged by queue time — see [`crate::aged_priority`]) and an absolute
    /// deadline on the runtime's clock (see [`Runtime::now_us`]); a
    /// request whose deadline has already passed when the scheduler picks
    /// it up is shed with [`KronError::DeadlineExceeded`] without
    /// executing, and within a window tighter-deadline groups are served
    /// first at equal priority.
    ///
    /// # Errors
    /// As [`Runtime::submit`].
    pub fn submit_with<T: ServeElement>(
        &self,
        model: &Model<T>,
        x: Matrix<T>,
        opts: SubmitOptions,
    ) -> Result<Ticket<T>> {
        validate_request(model, &x)?;
        let y = Matrix::zeros(x.rows(), model.output_cols());
        let slot = Arc::new(Slot::new(Arc::clone(&self.shared.hub)));
        // The low-latency lane: an idle runtime with a warm plan serves
        // the request inline right here (the ticket is already filled
        // when it returns); under load — or cold — the request takes
        // the scheduler channel. A submit allocates `y` and the slot, and
        // nothing else when it bypasses; the allocation-free inline path
        // is `Session::call`.
        let req = Request::new(model, x, y, opts, Arc::clone(&slot));
        self.shared.submit(req)?;
        Ok(Ticket { slot })
    }

    /// Synchronous convenience: submit and wait.
    ///
    /// # Errors
    /// As [`Runtime::submit`].
    pub fn execute<T: ServeElement>(&self, model: &Model<T>, x: Matrix<T>) -> Result<Matrix<T>> {
        self.submit(model, x)?.wait()
    }

    /// Submits several requests against **one** model as a linked batch:
    /// all of them enter the scheduler's queue atomically (one gate
    /// acquisition), so they are contiguous in the queue and shutdown can
    /// never split the group — every linked request is either all
    /// accepted or all rejected. Contiguity makes co-batching into one
    /// execute the overwhelmingly common case, but it is not a guarantee:
    /// a scheduler that wakes mid-enqueue may serve the group across
    /// consecutive windows (and a group wider than `max_batch_rows`
    /// always chunks). Returns one [`Ticket`] per request, in submission
    /// order.
    ///
    /// # Errors
    /// [`KronError::MixedModelBatch`] when the requests do not all target
    /// the same model (row-stacking is only valid against one factor
    /// set); shape mismatches; [`KronError::Shutdown`]. On any error,
    /// nothing is enqueued.
    pub fn submit_linked<T: ServeElement>(
        &self,
        batch: Vec<(&Model<T>, Matrix<T>)>,
    ) -> Result<Vec<Ticket<T>>> {
        self.submit_linked_with(batch, SubmitOptions::default())
    }

    /// [`Runtime::submit_linked`] with one set of admission-control
    /// options for the whole group: every linked request inherits the
    /// same priority and the same deadline atomically. Deadlines are
    /// checked once per scheduling window, so within the window that
    /// picks the group up the outcome is uniform — timely and every
    /// member executes, or late and every member is shed with
    /// [`KronError::DeadlineExceeded`]. A group too wide for one drain
    /// window (more than the window's 1024 requests, or arriving as a
    /// window fills) is served across consecutive windows like any linked
    /// batch, and a deadline that expires *between* those windows sheds
    /// only the not-yet-served remainder — size deadline budgets to
    /// cover the whole group's service time.
    ///
    /// # Errors
    /// As [`Runtime::submit_linked`].
    pub fn submit_linked_with<T: ServeElement>(
        &self,
        batch: Vec<(&Model<T>, Matrix<T>)>,
        opts: SubmitOptions,
    ) -> Result<Vec<Ticket<T>>> {
        if let Some((first, _)) = batch.first() {
            let first_id = first.id();
            for (model, _) in &batch {
                if model.id() != first_id {
                    return Err(KronError::MixedModelBatch {
                        first: first_id,
                        conflicting: model.id(),
                    });
                }
            }
        }
        for (model, x) in &batch {
            validate_request(model, x)?;
        }
        // One model => one lane: the whole linked group lands on one
        // ring, so one drain window can pick it up together.
        let lane = batch
            .first()
            .map(|(model, _)| self.shared.lane_of_key(T::DTYPE, model.inner.shape_key))
            .unwrap_or(0);
        let mut tickets = Vec::with_capacity(batch.len());
        let reqs: Vec<Request<T>> = batch
            .into_iter()
            .map(|(model, x)| {
                let y = Matrix::zeros(x.rows(), model.output_cols());
                let slot = Arc::new(Slot::new(Arc::clone(&self.shared.hub)));
                tickets.push(Ticket {
                    slot: Arc::clone(&slot),
                });
                Request::new(model, x, y, opts, slot)
            })
            .collect();
        self.shared.send_requests(lane, reqs.into_iter())?;
        Ok(tickets)
    }

    /// Arms a one-shot fault on simulated device `gpu`: the next sharded
    /// execute raises (and catches) a panic on that device, failing that
    /// attempt with [`KronError::DeviceFailure`] while every other batch —
    /// before, after, or on other models — is unaffected. Under the
    /// default [`RetryPolicy`] the client never sees the fault (the batch
    /// is retried transparently); set `max_attempts: 0` to surface it.
    /// No-op on the [`Backend::SingleNode`] runtime (there is no device
    /// to fault). Sugar for a one-event [`FaultPlan`] — see
    /// [`Runtime::install_fault_plan`] for scripted chaos.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when `gpu` is outside the configured
    /// grid — an out-of-range fault could otherwise never fire and would
    /// stay armed forever, silently defeating the drill.
    pub fn inject_device_fault(&self, gpu: usize) -> Result<()> {
        let event = FaultEvent {
            gpu,
            trigger: FaultTrigger::OnShardedBatch(self.shared.plane.current_batch()),
            repeat: 1,
            kind: FaultKind::Panic,
        };
        self.check_fault_event(&event)?;
        self.shared.plane.push(event);
        Ok(())
    }

    /// Installs a scripted [`FaultPlan`], replacing any pending events:
    /// each event fires deterministically on its trigger (the Nth sharded
    /// execute since runtime start, or a clock time), `repeat` times,
    /// injecting a device panic, a device stall (caught by the engine
    /// watchdog as [`KronError::DeviceTimeout`]), or a scheduler-thread
    /// panic. The chaos plane for repeatable self-healing drills; see the
    /// crate docs.
    ///
    /// # Errors
    /// [`KronError::InvalidGrid`] when a device event names a device
    /// outside the configured grid (as [`Runtime::inject_device_fault`]);
    /// [`KronError::EmptyDimension`] when an event has `repeat == 0`.
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Result<()> {
        for event in &plan.events {
            self.check_fault_event(event)?;
        }
        self.shared.plane.install(plan);
        Ok(())
    }

    /// Validates one fault event: `repeat ≥ 1`, and a device event on a
    /// distributed runtime names a configured device (device events are
    /// inert on a single node; a scheduler panic ignores `gpu`).
    fn check_fault_event(&self, event: &FaultEvent) -> Result<()> {
        if event.repeat == 0 {
            return Err(KronError::EmptyDimension {
                what: "fault-plan event repeat count".into(),
            });
        }
        if let Backend::Distributed { gpus, .. } = self.shared.cfg.backend {
            if event.gpu >= gpus && event.kind != FaultKind::SchedulerPanic {
                return Err(KronError::InvalidGrid {
                    reason: format!("device {} outside a {gpus} GPU machine", event.gpu),
                });
            }
        }
        Ok(())
    }

    /// Scripted fault events still pending (not yet fired). `0` once a
    /// plan has fully played out — how chaos drills assert the script
    /// actually ran.
    pub fn pending_fault_events(&self) -> usize {
        self.shared.plane.pending()
    }

    /// Per-device health snapshot: consecutive failures, circuit-breaker
    /// state, and lifetime trip count for every simulated device (empty
    /// under [`Backend::SingleNode`]). Read-only and clock-consistent
    /// with [`Runtime::now_us`]; see the crate docs for breaker
    /// semantics.
    pub fn device_health(&self) -> Vec<DeviceHealthReport> {
        self.shared.health.report(self.shared.clock.now_us())
    }

    /// Current time in microseconds on this runtime's [`Clock`] — the
    /// timeline [`SubmitOptions::deadline_us`] deadlines are measured on.
    /// Form deadlines as `runtime.now_us() + budget_us`.
    pub fn now_us(&self) -> u64 {
        self.shared.clock.now_us()
    }

    /// Builds (if absent) and pins the plan-cache entry serving `model`'s
    /// shape at the batch row capacity. While the returned [`ModelPin`]
    /// is alive the entry is exempt from LRU, byte-budget, and idle
    /// eviction — its plan, workspaces, and (under the `Distributed`
    /// backend) sharded engine stay warm however many other shapes *of
    /// either dtype* rotate through a bounded cache. Dropping the pin
    /// re-subjects the entry to policy.
    ///
    /// Also an explicit pre-warm: a sharded entry executes one throwaway
    /// batch here, so the first real request pays neither planning,
    /// engine construction, nor first-touch staging — and a device that
    /// faults during the warm-up run fails *this* call (the broken engine
    /// is evicted and the failure recorded against the device) instead of
    /// leaving a pinned dead engine for the first request to trip over.
    ///
    /// # Errors
    /// Whatever building the entry can raise (e.g. the documented
    /// [`KronError::InvalidGrid`] on a misconfigured distributed backend,
    /// or [`KronError::CacheBudgetExceeded`] for an entry larger than the
    /// whole byte budget), plus [`KronError::DeviceFailure`] /
    /// [`KronError::DeviceTimeout`] when a device faults during the
    /// pre-warm execute.
    pub fn pin_model<T: ServeElement>(&self, model: &Model<T>) -> Result<ModelPin> {
        let shared = &*self.shared;
        let now = shared.clock.now_us();
        let limit = shared.health.allowed_gpus(now, shared.cfg.backend.gpus());
        let capacity = shared.cfg.max_batch_rows;
        let pinned = {
            let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.get_or_create(&model.inner, capacity, limit)?
        };
        // Pre-warm execute (sharded entries only: a local workspace has
        // no lazily-allocated staging to warm, and no device to fault).
        // Zero input — the output is discarded.
        let warm_result = {
            let mut guard = pinned.lock();
            match <T as sealed::ErasedDtype>::plan_mut(&mut guard) {
                Some(entry) if entry.is_sharded() => {
                    entry.batch_buffers().0.as_mut_slice().fill(T::ZERO);
                    arm_scripted_fault(entry, &shared.plane, &shared.clock);
                    let rows = entry.grid().map_or(1, |g| g.gm);
                    entry.run(model.inner.factors(), rows, None)
                }
                _ => Ok(()),
            }
        };
        if let Err(err) = warm_result {
            // Drop the pin first so the evicted entry tears down.
            drop(pinned);
            let lane = shared.lane_of_key(T::DTYPE, model.inner.shape_key);
            ServeCtx::new(shared, lane, now).device_fault(
                &err,
                T::DTYPE,
                model.inner.shape_key,
                capacity,
            );
            return Err(err);
        }
        Ok(ModelPin { _pinned: pinned })
    }

    /// Runs an idle sweep of the plan cache now (the scheduler also
    /// sweeps at the start of every serve cycle): evicts unpinned entries
    /// of either dtype idle longer than the policy's `max_idle_us` on the
    /// runtime's clock, tearing down their workspaces/engines. Returns
    /// how many entries were evicted. A no-op when idle eviction is
    /// disabled.
    pub fn sweep(&self) -> usize {
        let mut cache = self.shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.sweep_idle()
    }

    /// Number of plan-cache entries currently resident across both dtypes
    /// (each owns a workspace or a sharded engine).
    pub fn cached_entries(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Estimated bytes resident across every plan-cache entry — the
    /// ledger [`CachePolicy::max_bytes`] budgets against (also the
    /// [`RuntimeStats::cached_bytes`] gauge).
    pub fn cached_bytes(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .resident_bytes()
    }

    /// Snapshot of the structural identities ([`PlanKey`]s, which carry
    /// the dtype) of every resident plan-cache entry.
    pub fn cache_keys(&self) -> Vec<PlanKey> {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
    }

    /// Opens a typed [`Session`]: a synchronous connection with a
    /// reusable reply slot, for allocation-free steady-state serving.
    /// Hold one session per dtype to serve mixed traffic through this
    /// runtime. Sessions outlive shutdown gracefully (calls then return
    /// [`KronError::Shutdown`]).
    pub fn session<T: ServeElement>(&self) -> Session<T> {
        Session {
            slot: Arc::new(Slot::new(Arc::clone(&self.shared.hub))),
            shared: Arc::clone(&self.shared),
            last_summary: None,
        }
    }

    /// Snapshot of the serving counters (spanning both dtypes; see
    /// [`RuntimeStats::requests_f32`]/[`RuntimeStats::requests_f64`] for
    /// the split, and [`RuntimeStats::lanes`] for the per-lane view).
    pub fn stats(&self) -> RuntimeStats {
        // Each counter is read from its one source: the hub's atomics, the
        // lanes' reply classes and inflight gauges, the ring lengths, the
        // model registry, the outcome histograms, the device-health
        // ledger, and the plan cache. The registry, cache, and ledger
        // locks are taken one at a time, never nested (the lookup path
        // holds the cache lock while it takes the registry lock), and
        // nothing allocates.
        let shared = &*self.shared;
        let (plan_hits, plan_misses) = shared.hub.plan_lookups();
        let (cached_entries, cached_bytes) = {
            let cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
            (cache.len() as u64, cache.resident_bytes() as u64)
        };
        let c = &shared.hub.stats;
        let lane_stats: [LaneStats; MAX_LANES] = std::array::from_fn(|i| {
            let depth = shared.lanes.get(i).map_or(0, |l| l.ring.len() as u64);
            c.lane(i).snapshot(depth)
        });
        let live = &lane_stats[..shared.lanes.len()];
        let sum = |class: fn(&LaneStats) -> u64| live.iter().map(class).sum();
        let requests_f32 = c.requests_f32.load(Ordering::Relaxed);
        let requests_f64 = c.requests_f64.load(Ordering::Relaxed);
        RuntimeStats {
            submitted: requests_f32 + requests_f64,
            requests_f32,
            requests_f64,
            served: sum(|l| l.served),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: sum(|l| l.batched_requests),
            solo_requests: sum(|l| l.solo_requests),
            bypassed_requests: sum(|l| l.bypassed_requests),
            error_replies: sum(|l| l.error_replies),
            plan_hits,
            plan_misses,
            sharded_batches: c.sharded_batches.load(Ordering::Relaxed),
            local_fallbacks: c.local_fallbacks.load(Ordering::Relaxed),
            comm_bytes: c.comm_bytes.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            rebuilds: c.rebuilds.load(Ordering::Relaxed),
            deadline_shed: shared.hub.outcome_snapshot(Outcome::Shed).count,
            retries: c.retries.load(Ordering::Relaxed),
            degraded_batches: c.degraded_batches.load(Ordering::Relaxed),
            recovered_requests: c.recovered_requests.load(Ordering::Relaxed),
            breaker_trips: shared.health.trips(),
            cached_entries,
            cached_bytes,
            current_linger_us: c.current_linger_us.load(Ordering::Relaxed),
            inflight_requests: sum(|l| l.inflight),
            scheduler_lanes: shared.lanes.len() as u64,
            lane_steals: sum(|l| l.steals),
            lane_stats,
        }
    }

    /// The scheduler lane serving `model`'s traffic: the stable hash of
    /// its plan identity (`(dtype, shape_key)`) over
    /// [`RuntimeConfig::scheduler_lanes`]. Index into
    /// [`RuntimeStats::lanes`] with this to read one model's lane
    /// counters; always `0` on a single-lane runtime.
    pub fn lane_for<T: ServeElement>(&self, model: &Model<T>) -> usize {
        self.shared.lane_of_key(T::DTYPE, model.inner.shape_key)
    }

    /// One coherent view of everything the runtime measures: lifetime
    /// counters, per-stage and per-outcome latency histograms with
    /// percentile readout, the per-model registry, and per-device health
    /// and metrics. Renders to stable JSON ([`MetricsSnapshot::to_json`])
    /// or Prometheus text ([`MetricsSnapshot::to_prometheus`]). Cold
    /// path: snapshotting allocates; recording never does.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let hub = &self.shared.hub;
        MetricsSnapshot {
            at_us: self.shared.clock.now_us(),
            stats: self.stats(),
            stages: Stage::ALL
                .iter()
                .map(|&st| (st, hub.stage_snapshot(st)))
                .collect(),
            outcomes: Outcome::ALL
                .iter()
                .map(|&o| (o, hub.outcome_snapshot(o)))
                .collect(),
            models: hub.model_stats(),
            devices: self.device_health(),
        }
    }

    /// Per-plan-key serving stats from the bounded model registry:
    /// serves, errors, plan hits/misses, and an end-to-end latency
    /// histogram per `(dtype, shape_key, capacity)` — match entries to a
    /// handle via [`Model::shape_key`]. Past the registry's bound, new
    /// keys aggregate into a single overflow row.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        self.shared.hub.model_stats()
    }

    /// Drains the flight recorder: every [`ServeEvent`] recorded since
    /// the last drain (bounded by the ring's capacity — the oldest
    /// events are overwritten under sustained load, and a writer that
    /// finds its slot mid-write drops its event), in causal record
    /// order. The post-mortem trace for chaos drills and test failures.
    pub fn drain_events(&self) -> Vec<ServeEvent> {
        self.shared.hub.drain_events()
    }

    /// Graceful shutdown: every request already accepted is served, then
    /// the scheduler exits and this call returns. Subsequent calls through
    /// surviving [`Session`]s fail with [`KronError::Shutdown`]. Dropping
    /// the runtime does the same implicitly.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let handles = std::mem::take(&mut self.schedulers);
        if handles.is_empty() {
            return;
        }
        for lane in self.shared.lanes.iter() {
            // Close the striped gate and wait for in-flight senders to
            // finish their pushes, then send Shutdown: it is provably
            // the last message on this lane's ring. A poisoned
            // (panicked) lane never reads it — its gate was closed and
            // ring drained at poison time, so the push lands in an
            // empty ring nobody consumes and the join below observes
            // the already-dead thread.
            lane.gate.close();
            lane.ring.send(Msg::Shutdown);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.close();
    }
}

/// RAII pin on one model's plan-cache entry, from [`Runtime::pin_model`]:
/// while alive, the entry is exempt from LRU, byte-budget, and idle
/// eviction and its execution state stays warm. Dropping releases the
/// pin. Not generic — the pin holds the erased entry, so pins for models
/// of different dtypes can live in one collection.
pub struct ModelPin {
    _pinned: PinnedEntry,
}

impl std::fmt::Debug for ModelPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelPin").finish_non_exhaustive()
    }
}
