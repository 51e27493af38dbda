//! The shape-keyed plan + workspace cache: the reason steady-state serving
//! does zero planning and zero allocation per request — now dtype-erased
//! and byte-accounted.
//!
//! Entries are indexed by `(DType, factor-shape-chain hash, row capacity)`
//! — a hash over three small values, so lookups themselves are
//! allocation-free — and each entry carries the full [`PlanKey`] (problem
//! shape × dtype × device × backend/grid) for introspection and as the
//! structural identity the integer key stands in for (every hit
//! re-verifies the full chain against the entry's key, so a 64-bit hash
//! collision costs one rebuild, never a wrong-shape workspace). Keying on
//! *shapes* rather than model identity means same-shape models — the
//! multi-tenant case — share plans, workspaces, and sharded engines:
//! execution state depends only on shapes; factor values arrive with each
//! execute. A capacity-`max_batch_rows` entry serves every small-`M`
//! request and batch of its shape; solo large-`M` requests get entries at
//! power-of-two capacities so nearby sizes share workspaces instead of
//! fragmenting the cache.
//!
//! ## One cache for both dtypes
//!
//! The map stores [`ErasedPlan`] — an `f32`/`f64` enum over the typed
//! [`CachedPlan<T>`] — so one cache, one [`CachePolicy`], and one LRU
//! order span all traffic a mixed-dtype runtime serves. Eviction
//! pressure from a burst of `f64` models can reclaim idle `f32` entries
//! and vice versa: the bounds are global, which is the point of serving
//! both dtypes through one runtime. Typed access in and out goes through
//! the sealed [`crate::runtime::sealed::ErasedDtype`] hooks — enum
//! dispatch, no `Box<dyn>` anywhere near the hot path.
//!
//! ## Bounded lifecycle
//!
//! Left unbounded, a many-model deployment leaks: every entry holds its
//! workspace or engine buffers (a `Distributed` entry, every simulated
//! device's blocks) forever. [`CachePolicy`] bounds the cache three ways:
//!
//! * **LRU capacity** (`max_entries`) — before building an entry that
//!   would exceed the bound, the least-recently-used unpinned entry is
//!   evicted, so the number of live engines never exceeds the bound.
//! * **Byte budget** (`max_bytes`) — every entry is accounted at its
//!   [`PlanKey::estimated_bytes`] (workspace + batch staging + engine
//!   footprint). A miss first decides the entry's key (`entry_key`:
//!   sharded, or local when the grid cannot shard the shape), then LRU
//!   eviction also runs until that key's estimate fits the budget
//!   *before* the entry builds, and the build makes exactly that key.
//!   An entry whose estimate alone exceeds the whole budget fails with
//!   the documented [`KronError::CacheBudgetExceeded`] — no amount of
//!   eviction could admit it. The resident total is what the
//!   [`crate::RuntimeStats::cached_bytes`] gauge reads.
//! * **Idle timeout** (`max_idle_us`) — [`PlanCache::sweep_idle`] evicts
//!   unpinned entries whose last use is older than the timeout on the
//!   runtime's [`Clock`]; the scheduler sweeps at the start of every
//!   serve cycle, and [`crate::Runtime::sweep`] does it on demand.
//!
//! Dropping an entry's last reference frees its state synchronously, a
//! `Sharded` entry's [`kron_dist::ShardedEngine`] blocks included.
//!
//! ## Pinning
//!
//! Lookups hand out a [`PinnedEntry`] — a clone of the entry's `Arc`, whose
//! strong count is the pin count — so an in-flight batch can never have
//! its engine dropped underneath it: policy eviction (LRU, bytes, and
//! idle) skips pinned entries entirely, and the targeted
//! post-`DeviceFailure` eviction ([`PlanCache::evict_failed`]) merely
//! detaches the entry from the map — the engine lives until the last pin
//! drops. [`crate::Runtime::pin_model`] exposes the same mechanism to
//! clients for keeping a hot model resident.
//!
//! A lookup reads the [`PlanKey`] the map keeps beside each entry and
//! never locks the entry itself, so a lookup of a shape that another
//! thread is executing on does not wait for that execute while it holds
//! the cache mutex.
//!
//! Evictions and rebuilds are counted in the runtime's metrics plane
//! ([`crate::RuntimeStats::evictions`], [`crate::RuntimeStats::rebuilds`]),
//! and plan hits and misses in its per-model registry. A snapshot reads
//! the `cached_entries` / `cached_bytes` gauges straight from the cache.

use crate::clock::Clock;
use crate::metrics::MetricsHub;
use crate::runtime::sealed::ErasedDtype;
use crate::runtime::{Backend, ModelInner};
use crate::trace::{EvictReason, ServeEventKind};
use crossbeam::sync::atomic::Ordering;
use fastkron_core::Workspace;
use gpu_sim::device::DeviceSpec;
use gpu_sim::ExecSummary;
use kron_core::{DType, Element, ExecBackend, KronError, KronProblem, Matrix, PlanKey, Result};
use kron_dist::{CommModel, GpuGrid, ShardedEngine, Watchdog};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// The scheduler lane a plan identity hashes to — the per-shard pinning
/// rule: every request for one `(dtype, shape_key)` plan identity lands
/// on one lane, so a model's whole batch window (and its cache-entry
/// locality) stays on one service thread. A Fibonacci multiplicative
/// mix spreads the shape-key bits (shape keys of related models differ
/// in few bits) and folds the dtype in, so mixed-dtype traffic over the
/// same shapes still splits across lanes.
///
/// Pure and stable for a given lane count — the submit path, the bypass
/// eligibility claim, and [`crate::Runtime::lane_for`] all agree on it.
pub(crate) fn lane_of(dtype: DType, shape_key: u64, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (shape_key ^ (dtype as u64).wrapping_mul(MIX)).wrapping_mul(MIX);
    ((h >> 32) % lanes as u64) as usize
}

/// Bounds on the plan cache's resident entries (and therefore on live
/// engines, workspaces, staging buffers, and — under the `Distributed`
/// backend — simulated-device blocks). One policy spans every dtype the
/// runtime serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Maximum resident entries. When a build would exceed this, the
    /// least-recently-used unpinned entry is evicted first. Pinned
    /// entries are never evicted, so a fully-pinned cache may temporarily
    /// exceed the bound — an explicit client override, not a leak.
    pub max_entries: usize,
    /// Evict entries idle longer than this many microseconds on the
    /// runtime's clock (`None` disables idle eviction). Enforced at the
    /// start of every scheduler cycle and by [`crate::Runtime::sweep`].
    pub max_idle_us: Option<u64>,
    /// Byte budget over every resident entry's estimated footprint
    /// ([`PlanKey::estimated_bytes`]: workspace + batch staging + engine
    /// blocks), across both dtypes (`None` disables byte accounting).
    /// LRU eviction runs until a new entry's estimate fits *before* it
    /// builds; an entry larger than the whole budget fails with
    /// [`KronError::CacheBudgetExceeded`]. As with `max_entries`, pinned
    /// entries may hold the total over budget until released.
    pub max_bytes: Option<usize>,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            max_entries: usize::MAX,
            max_idle_us: None,
            max_bytes: None,
        }
    }
}

/// The execution state behind one cache entry.
pub(crate) enum Compute<T: Element> {
    /// Single-device fused path: its reusable ping-pong workspace.
    Local(Workspace<T>),
    /// Sharded across the simulated GPU grid (boxed: the engine carries
    /// its device spec, grid state, and lazy report, dwarfing a
    /// workspace; it prices its own simulation internally).
    Sharded(Box<ShardedEngine<T>>),
}

/// One cached execution state: the compute state and the gather/scatter
/// staging pair. Every execute goes through [`Self::run`]: a lone request
/// on a local entry runs in place from its own buffers, everything else
/// over the staging pair.
pub(crate) struct CachedPlan<T: Element> {
    /// The compute state requests execute through.
    pub(crate) compute: Compute<T>,
    /// Row-stacked input/output staging for multi-request batches (and for
    /// sharded solos, which need padding), allocated on first use.
    batch: Option<(Matrix<T>, Matrix<T>)>,
}

impl<T: Element> CachedPlan<T> {
    /// Whether requests through this entry execute sharded.
    pub(crate) fn is_sharded(&self) -> bool {
        matches!(self.compute, Compute::Sharded(_))
    }

    /// The batch staging buffers, allocating them on first use at the
    /// capacity problem the compute state was built for.
    pub(crate) fn batch_buffers(&mut self) -> &mut (Matrix<T>, Matrix<T>) {
        let problem = match &self.compute {
            Compute::Local(workspace) => workspace.problem(),
            Compute::Sharded(engine) => engine.problem(),
        };
        self.batch.get_or_insert_with(|| {
            (
                Matrix::zeros(problem.m, problem.input_cols()),
                Matrix::zeros(problem.m, problem.output_cols()),
            )
        })
    }

    /// Arms a one-shot device fault on a sharded entry; returns whether
    /// the entry could take it (Local entries have no devices to fault).
    pub(crate) fn arm_fault(&mut self, gpu: usize) -> bool {
        match &mut self.compute {
            Compute::Sharded(engine) => engine.inject_fault(gpu).is_ok(),
            Compute::Local(_) => false,
        }
    }

    /// Arms a one-shot `stall_us` stall on device `gpu` of a sharded
    /// entry (the engine's watchdog converts a stall past its budget into
    /// [`KronError::DeviceTimeout`]); returns whether the entry could
    /// take it.
    pub(crate) fn arm_stall(&mut self, gpu: usize, stall_us: u64) -> bool {
        match &mut self.compute {
            Compute::Sharded(engine) => engine.inject_stall(gpu, stall_us).is_ok(),
            Compute::Local(_) => false,
        }
    }

    /// The `{GM, GK}` grid a sharded entry executes over; `None` for
    /// local entries. Reveals degraded builds to receipts and tests.
    pub(crate) fn grid(&self) -> Option<GpuGrid> {
        match &self.compute {
            Compute::Sharded(engine) => Some(engine.grid()),
            Compute::Local(_) => None,
        }
    }

    /// Executes `rows` rows through the compute state, reading the
    /// model's own `factors` in place. `in_place` carries a lone
    /// request's own `x` and `y` on a local entry, which executes
    /// straight from one into the other. Otherwise the rows run over the
    /// staging pair, gathered through [`Self::batch_buffers`] and read
    /// back from it; a sharded entry first zero-pads them up to the next
    /// `GM` multiple (the padding always fits: the capacity is a `GM`
    /// multiple ≥ `rows`), since it cannot execute in place.
    pub(crate) fn run(
        &mut self,
        factors: &[Matrix<T>],
        rows: usize,
        in_place: Option<(&Matrix<T>, &mut Matrix<T>)>,
    ) -> Result<()> {
        if let (Compute::Local(workspace), Some((x, y))) = (&mut self.compute, in_place) {
            return workspace.execute_rows(x, factors, y, rows);
        }
        let (bx, by) = self.batch.as_mut().expect("gather before run");
        match &mut self.compute {
            Compute::Local(workspace) => workspace.execute_rows(bx, factors, by, rows),
            Compute::Sharded(engine) => {
                let gm = engine.grid().gm;
                let padded = rows.div_ceil(gm) * gm;
                if padded > rows {
                    let k = engine.problem().input_cols();
                    bx.as_mut_slice()[rows * k..padded * k].fill(T::ZERO);
                }
                engine.execute_rows(bx, factors, by, padded)
            }
        }
    }

    /// Simulated-execution digest for `rows` of this entry's capacity,
    /// prorated from the engine's capacity-rows simulation. `None` on
    /// Local entries (no communication to attribute) and when the cost
    /// model cannot cover the per-GPU block shape.
    pub(crate) fn shard_summary(&self, rows: usize) -> Option<ExecSummary> {
        match &self.compute {
            Compute::Sharded(engine) => engine
                .summary()
                .map(|s| s.prorated(rows, engine.capacity())),
            Compute::Local(_) => None,
        }
    }
}

/// A dtype-erased cache entry: the typed [`CachedPlan`] behind one of two
/// enum arms. The map key carries the same [`DType`], so an entry's arm
/// always matches its key — the typed lanes unwrap with the sealed
/// [`ErasedDtype::plan_mut`] hook after the lookup verified the dtype.
pub(crate) enum ErasedPlan {
    /// `f32` execution state.
    F32(CachedPlan<f32>),
    /// `f64` execution state.
    F64(CachedPlan<f64>),
}

/// A pinned reference to one cache entry. While any pin is alive the
/// entry is exempt from policy eviction, and the `Arc` guarantees the
/// engine outlives every in-flight use even if the entry is detached from
/// the map (post-failure eviction). Dropping the pin releases both.
pub(crate) struct PinnedEntry {
    entry: Arc<Mutex<ErasedPlan>>,
}

impl PinnedEntry {
    fn new(slot: &Slot) -> Self {
        PinnedEntry {
            entry: Arc::clone(&slot.entry),
        }
    }

    /// Locks the entry for exclusive use (the scheduler holds this for
    /// the duration of one gather/execute/scatter). The guard yields the
    /// erased enum; the lookup that produced this pin was keyed by the
    /// dtype, so the lane's typed unwrap cannot fail.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ErasedPlan> {
        self.entry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Map value: the shared erased entry, the key it was built for, and
/// recency bookkeeping.
struct Slot {
    entry: Arc<Mutex<ErasedPlan>>,
    /// Structural identity of the built entry. Lookups and
    /// [`PlanCache::keys`] read it here without locking the entry, and its
    /// [`PlanKey::estimated_bytes`] is the byte-budget accounting unit.
    key: PlanKey,
    /// Monotonic touch sequence — the LRU order (deterministic even when
    /// a manual clock never advances).
    last_used_seq: u64,
    /// Clock time of the last touch — the idle-timeout basis.
    last_used_us: u64,
    /// The device limit the entry was built under (see
    /// [`PlanCache::get_or_create`]'s `limit`): a hit must match the
    /// current limit, so a degraded entry is rebuilt at full width once
    /// the grid heals (and vice versa) instead of serving degraded
    /// forever.
    built_limit: usize,
}

impl Slot {
    /// Whether a [`PinnedEntry`] holds the entry: each pin is a clone of
    /// `entry`. Pins are made only under the cache mutex, so a pin that
    /// drops concurrently can only leave this `true` a moment too long,
    /// which skips one eviction.
    fn pinned(&self) -> bool {
        Arc::strong_count(&self.entry) > 1
    }
}

/// Resolved backend state: `None` means single-node, `Some` carries the
/// grid and fabric model sharded entries are built against.
type BackendState = std::result::Result<Option<(GpuGrid, CommModel)>, KronError>;

/// Map key: `(dtype, factor-shape-chain hash, row capacity)`.
type MapKey = (DType, u64, usize);

/// Bound on the evicted-key memory behind `rebuilds` attribution. Past
/// this many distinct evicted keys the set resets (rebuild counting is
/// observability, not correctness) so unbounded model churn cannot leak
/// through the very subsystem that bounds the cache.
const EVICTED_KEYS_CAP: usize = 4096;

/// Watchdog budget installed on every engine this cache builds, in
/// microseconds on the runtime's clock (2 s): a device stalled past it
/// fails its batch with [`KronError::DeviceTimeout`] instead of hanging
/// the batch.
const WATCHDOG_US: u64 = 2_000_000;

/// Dtype-spanning plan/workspace cache keyed by `(dtype, factor-shape
/// chain, row capacity)`, bounded by a [`CachePolicy`]. See the module
/// docs for the lifecycle.
pub(crate) struct PlanCache {
    device: DeviceSpec,
    backend: BackendState,
    policy: CachePolicy,
    clock: Clock,
    entries: HashMap<MapKey, Slot>,
    /// Keys that were evicted at some point — a later build for one of
    /// them counts as a `rebuild` (cache thrash observability). Keys
    /// only, and capped at [`EVICTED_KEYS_CAP`] (the set resets past
    /// that), so it stays small however long the runtime serves.
    evicted_keys: HashSet<MapKey>,
    use_seq: u64,
    /// Sum of every resident slot's estimated bytes — the budget's
    /// ledger, which the `cached_bytes` gauge reads.
    total_bytes: usize,
    /// Metrics plane evictions, rebuilds, local fallbacks, and per-model
    /// plan lookups are recorded into.
    hub: Arc<MetricsHub>,
}

impl PlanCache {
    /// Creates an empty cache building entries for `backend`, bounded by
    /// `policy`, with idle ages measured on `clock`, recording into the
    /// runtime's metrics `hub`. `device` models the simulated GPUs of
    /// sharded entries and names every [`PlanKey`]'s device. An invalid
    /// distributed configuration (e.g. a non-power-of-two GPU count) is
    /// captured here and surfaces as the documented
    /// [`KronError::InvalidGrid`] on every subsequent request.
    pub(crate) fn new(
        device: DeviceSpec,
        backend: &Backend,
        policy: CachePolicy,
        clock: Clock,
        hub: Arc<MetricsHub>,
    ) -> Self {
        let backend = match backend {
            Backend::SingleNode => Ok(None),
            Backend::Distributed { gpus, p2p } => GpuGrid::for_gpus(*gpus).map(|grid| {
                let comm = if *p2p {
                    CommModel::p2p(&device)
                } else {
                    CommModel::nccl(&device)
                };
                Some((grid, comm))
            }),
        };
        PlanCache {
            device,
            backend,
            policy,
            clock,
            entries: HashMap::new(),
            evicted_keys: HashSet::new(),
            use_seq: 0,
            total_bytes: 0,
            hub,
        }
    }

    /// Number of cached entries (across both dtypes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Estimated bytes resident across every cached entry (the
    /// byte-budget ledger; see [`PlanKey::estimated_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The structural identities of every cached entry (snapshot).
    pub fn keys(&self) -> Vec<PlanKey> {
        self.entries.values().map(|s| s.key.clone()).collect()
    }

    /// Evicts one slot, if present: removes it from the map and the byte
    /// ledger, counts it in `evictions`, marks its key for rebuild
    /// attribution (the mark set resets at [`EVICTED_KEYS_CAP`] instead
    /// of growing forever), and records it on the flight recorder.
    fn evict(&mut self, key: MapKey, reason: EvictReason) {
        let Some(slot) = self.entries.remove(&key) else {
            return;
        };
        self.total_bytes -= slot.key.estimated_bytes();
        self.hub.stats.evictions.fetch_add(1, Ordering::Relaxed);
        if self.evicted_keys.len() >= EVICTED_KEYS_CAP {
            self.evicted_keys.clear();
        }
        self.evicted_keys.insert(key);
        self.hub.event(
            self.clock.now_us(),
            ServeEventKind::Eviction {
                dtype: key.0,
                capacity: key.2 as u32,
                reason,
            },
        );
    }

    /// Evicts the entry after a device failure, so the next batch of the
    /// shape rebuilds a fresh engine instead of reusing the one that
    /// failed. Unconditional: a pinned (in-flight) entry is
    /// detached from the map and lives until its last pin drops — it is
    /// never handed out again.
    pub(crate) fn evict_failed(&mut self, dtype: DType, shape_key: u64, capacity: usize) {
        self.evict((dtype, shape_key, capacity), EvictReason::Failed);
    }

    /// Evicts unpinned entries idle longer than the policy's
    /// `max_idle_us`; returns how many were evicted. A no-op when idle
    /// eviction is disabled. Each eviction re-scans the map for the next
    /// idle entry, so the sweep allocates nothing.
    pub(crate) fn sweep_idle(&mut self) -> usize {
        let Some(max_idle) = self.policy.max_idle_us else {
            return 0;
        };
        let now = self.clock.now_us();
        let mut evicted = 0;
        while let Some(key) = self
            .entries
            .iter()
            .find(|(_, slot)| !slot.pinned() && now.saturating_sub(slot.last_used_us) > max_idle)
            .map(|(key, _)| *key)
        {
            self.evict(key, EvictReason::Idle);
            evicted += 1;
        }
        evicted
    }

    /// The device limit an entry actually builds under for a requested
    /// `limit` (from the health ledger / retry ladder): clamped to the
    /// configured grid and floored to a power of two so it always maps to
    /// a valid [`GpuGrid`]. `1` on a single-node (or misconfigured)
    /// backend, where every entry is local anyway.
    fn effective_limit(&self, limit: usize) -> usize {
        match self.backend.as_ref() {
            Ok(Some((grid, _))) => {
                let clamped = limit.clamp(1, grid.gpus());
                if clamped.is_power_of_two() {
                    clamped
                } else {
                    clamped.next_power_of_two() / 2
                }
            }
            _ => 1,
        }
    }

    /// Looks up (or builds) the execution state for `model`'s shape chain
    /// at `capacity` rows — a workspace, or a sharded engine — recording
    /// the hit or miss in the model registry (and counting the local
    /// fallback when the grid cannot shard the model).
    /// `limit` caps how many simulated devices the entry may span (the
    /// breaker's quarantine and the retry ladder's degradation both pass
    /// fewer than the configured grid; pass `usize::MAX` for "whatever
    /// the backend has") — a resident entry built under a different
    /// effective limit is rebuilt in place, so healing and degradation
    /// both converge. Returns the entry pinned; the pin must outlive
    /// every use of the entry this serve. The lookup is keyed by the dtype
    /// and verifies the full shape chain, so a later
    /// [`ErasedDtype::plan_mut`] on the pinned entry is infallible.
    pub(crate) fn get_or_create<T: ErasedDtype>(
        &mut self,
        model: &ModelInner<T>,
        capacity: usize,
        limit: usize,
    ) -> Result<PinnedEntry> {
        let eff_limit = self.effective_limit(limit);
        if let Some(pinned) = self.hit(model, capacity, eff_limit, false) {
            return Ok(pinned);
        }
        let map_key = (T::DTYPE, model.shape_key, capacity);
        self.use_seq += 1;
        let (seq, now) = (self.use_seq, self.clock.now_us());
        // A resident slot here is stale: a 64-bit shape-hash collision, or
        // a device-limit transition (degraded ↔ full width). Never serve a
        // wrong-shape or wrong-width state. Drop the stale slot from the
        // map and the ledger (not an eviction: no count, event or rebuild
        // mark) and build on the miss path below, budget check and
        // eviction included. An in-flight pin keeps the old engine alive
        // until it drops.
        if let Some(stale) = self.entries.remove(&map_key) {
            self.total_bytes -= stale.key.estimated_bytes();
        }

        self.hub
            .record_plan_lookup(T::DTYPE, model.shape_key, capacity, false);
        // Decide the entry, then make room for its footprint *before*
        // building it, so live engines never exceed the entry bound (the
        // new engine allocates only after the evicted one's memory is
        // freed) and the byte ledger never exceeds the budget even
        // transiently.
        // Deciding first also surfaces a misconfigured backend (e.g. a
        // non-power-of-two grid), which fails every build forever, before
        // anyone is evicted — so a stream of doomed requests cannot flush
        // healthy entries.
        let (key, grid) = self.entry_key(model, capacity, eff_limit)?;
        let bytes = key.estimated_bytes();
        if let Some(max_bytes) = self.policy.max_bytes {
            if bytes > max_bytes {
                return Err(KronError::CacheBudgetExceeded {
                    required_bytes: bytes,
                    max_bytes,
                });
            }
        }
        self.make_room(bytes);
        let built = self.build_entry(&key, grid)?;
        if self.evicted_keys.remove(&map_key) {
            self.hub.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        self.total_bytes += bytes;
        let slot = self.entries.entry(map_key).or_insert(Slot {
            entry: Arc::new(Mutex::new(T::wrap_plan(built))),
            key,
            last_used_seq: seq,
            last_used_us: now,
            built_limit: eff_limit,
        });
        Ok(PinnedEntry::new(slot))
    }

    /// Hit-only lookup for the inline bypass lane: returns the pinned
    /// entry iff `model`'s plan key is already resident, built at the
    /// full effective device limit, shape-verified, and **local**
    /// (non-sharded) — the bypass lane never drives the staged sharded
    /// path. A hit counts exactly as in [`Self::get_or_create`], but a
    /// cold, degraded, or sharded entry counts nothing here: the request
    /// falls back to the scheduler, which performs — and accounts — its
    /// own lookup.
    pub(crate) fn get_warm<T: ErasedDtype>(
        &mut self,
        model: &ModelInner<T>,
        capacity: usize,
    ) -> Option<PinnedEntry> {
        self.hit(model, capacity, self.effective_limit(usize::MAX), true)
    }

    /// The one freshness check: returns `model`'s resident entry at
    /// `capacity` rows pinned iff it was built under effective device
    /// limit `eff_limit` for `model`'s shape chain (and is local when
    /// `local_only`). It reads the slot's key, never the entry, so an
    /// execute holding the entry cannot stall it. A fresh entry is
    /// stamped most recently used and its plan hit recorded; a stale or
    /// absent one is left untouched.
    fn hit<T: ErasedDtype>(
        &mut self,
        model: &ModelInner<T>,
        capacity: usize,
        eff_limit: usize,
        local_only: bool,
    ) -> Option<PinnedEntry> {
        let slot = self
            .entries
            .get_mut(&(T::DTYPE, model.shape_key, capacity))?;
        let key = &slot.key;
        let fresh = slot.built_limit == eff_limit
            && key.problem.factors == model.shapes
            && !(local_only && matches!(key.backend, ExecBackend::Grid { .. }));
        if !fresh {
            return None;
        }
        self.use_seq += 1;
        slot.last_used_seq = self.use_seq;
        slot.last_used_us = self.clock.now_us();
        self.hub
            .record_plan_lookup(T::DTYPE, model.shape_key, capacity, true);
        Some(PinnedEntry::new(slot))
    }

    /// Decides the entry `model` gets at `capacity` rows under effective
    /// device limit `limit`, before anything is built: returns its
    /// [`PlanKey`], whose footprint the byte budget checks, and the grid
    /// the backend offers at that limit (`None` on a single device). The
    /// key is sharded over that grid when the shape can shard
    /// ([`kron_dist::DistFastKron::shardable_over`], pure arithmetic),
    /// with the capacity rounded up to a `GM` multiple so any row count
    /// ≤ `capacity` can zero-pad and shard. Otherwise it is local: the
    /// documented fallback for mixed or rectangular factors and
    /// indivisible `K`.
    fn entry_key<T: ErasedDtype>(
        &self,
        model: &ModelInner<T>,
        capacity: usize,
        limit: usize,
    ) -> Result<(PlanKey, Option<GpuGrid>)> {
        let grid = self.grid_for_limit(limit)?;
        if let Some(grid) = grid {
            let cap = capacity.div_ceil(grid.gm) * grid.gm;
            let problem = KronProblem::new(cap, model.shapes.clone())?;
            if kron_dist::DistFastKron::shardable_over(grid, &problem).is_ok() {
                let key = PlanKey::sharded(problem, T::DTYPE, self.device.name, grid.gm, grid.gk);
                return Ok((key, Some(grid)));
            }
        }
        let problem = KronProblem::new(capacity, model.shapes.clone())?;
        Ok((PlanKey::new(problem, T::DTYPE, self.device.name), grid))
    }

    /// Evicts least-recently-used unpinned entries until there is room
    /// for one more entry under `max_entries` *and* `incoming_bytes` more
    /// under `max_bytes`. Stops early if everything left is pinned (pins
    /// are an explicit override of both bounds).
    fn make_room(&mut self, incoming_bytes: usize) {
        let over = |cache: &Self| {
            cache.entries.len() >= cache.policy.max_entries
                || cache
                    .policy
                    .max_bytes
                    .is_some_and(|b| cache.total_bytes + incoming_bytes > b)
        };
        while over(self) {
            let lru = self
                .entries
                .iter()
                .filter(|(_, slot)| !slot.pinned())
                .min_by_key(|(_, slot)| slot.last_used_seq)
                .map(|(key, _)| *key);
            let Some(key) = lru else { break };
            self.evict(key, EvictReason::Capacity);
        }
    }

    /// The grid an entry at effective device limit `limit` shards over:
    /// the configured grid at full limit, a [`GpuGrid::for_gpus`] prefix
    /// grid when degraded, `None` when the limit is 1 (single-device
    /// fallback — local execution) or the backend is single-node.
    fn grid_for_limit(&self, limit: usize) -> Result<Option<GpuGrid>> {
        match self.backend.as_ref().map_err(Clone::clone)? {
            Some((grid, _)) if limit >= grid.gpus() => Ok(Some(*grid)),
            Some(_) if limit > 1 => Ok(Some(GpuGrid::for_gpus(limit)?)),
            _ => Ok(None),
        }
    }

    /// Builds exactly the entry [`Self::entry_key`] decided on: a sharded
    /// engine over `grid` for a grid key, otherwise one workspace sized
    /// from the problem shape (the CPU fused path reads no tile plan, so
    /// no tile search runs). A local entry built where the backend
    /// offered a `grid` counts as a local fallback.
    fn build_entry<T: ErasedDtype>(
        &self,
        key: &PlanKey,
        grid: Option<GpuGrid>,
    ) -> Result<CachedPlan<T>> {
        let compute = match (key.backend, grid, &self.backend) {
            (ExecBackend::Grid { .. }, Some(grid), Ok(Some((_, comm)))) => {
                let mut engine =
                    ShardedEngine::new(&self.device, grid, comm.clone(), &key.problem)?;
                let clock = self.clock.clone();
                engine.set_watchdog(Watchdog::new(WATCHDOG_US, Box::new(move || clock.now_us())));
                Compute::Sharded(Box::new(engine))
            }
            _ => {
                if grid.is_some() {
                    self.hub
                        .stats
                        .local_fallbacks
                        .fetch_add(1, Ordering::Relaxed);
                }
                Compute::Local(Workspace::new(&key.problem))
            }
        };
        Ok(CachedPlan {
            compute,
            batch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::V100;

    #[test]
    fn lane_of_is_stable_in_range_and_dtype_sensitive() {
        // Single lane short-circuits to 0 for every identity.
        assert_eq!(lane_of(DType::F32, 0xDEAD_BEEF, 1), 0);
        assert_eq!(lane_of(DType::F64, u64::MAX, 0), 0);
        for lanes in [2usize, 3, 4, 8] {
            let mut hit = vec![false; lanes];
            for key in 0..256u64 {
                let a = lane_of(DType::F32, key, lanes);
                // Stable: the submit path and the bypass claim must agree.
                assert_eq!(a, lane_of(DType::F32, key, lanes));
                assert!(a < lanes);
                hit[a] = true;
            }
            // The mix spreads near-identical shape keys across lanes.
            assert!(
                hit.iter().all(|&h| h),
                "some lane never hit at lanes={lanes}"
            );
        }
        // Mixed-dtype traffic over one shape still splits somewhere: the
        // dtype folds into the hash (identical keys, any lane count).
        let diverges =
            (0..64u64).any(|key| lane_of(DType::F32, key, 4) != lane_of(DType::F64, key, 4));
        assert!(diverges, "dtype never changed the lane");
    }

    fn model(shapes: &[(usize, usize)], id: u64) -> ModelInner<f64> {
        let factors = shapes
            .iter()
            .map(|&(p, q)| Matrix::from_fn(p, q, |r, c| (r * q + c) as f64))
            .collect();
        ModelInner::build(id, factors).unwrap()
    }

    fn model_f32(shapes: &[(usize, usize)], id: u64) -> ModelInner<f32> {
        let factors = shapes
            .iter()
            .map(|&(p, q)| Matrix::from_fn(p, q, |r, c| (r * q + c) as f32))
            .collect();
        ModelInner::build(id, factors).unwrap()
    }

    fn hub() -> Arc<MetricsHub> {
        Arc::new(MetricsHub::new(0))
    }

    fn cache(policy: CachePolicy, clock: Clock) -> PlanCache {
        PlanCache::new(V100.clone(), &Backend::SingleNode, policy, clock, hub())
    }

    #[test]
    fn pinned_entry_survives_lru_and_idle_eviction_while_in_flight() {
        let clock = Clock::manual();
        let handle = clock.manual_handle().unwrap();
        let mut cache = cache(
            CachePolicy {
                max_entries: 1,
                max_idle_us: Some(100),
                max_bytes: None,
            },
            clock,
        );
        let a = model(&[(2, 2), (2, 2)], 0);
        let b = model(&[(3, 3)], 1);

        // Hold A's pin — the in-flight state during a batch execute.
        let pin_a = cache.get_or_create(&a, 8, usize::MAX).unwrap();

        // Idle sweep far past the timeout must not touch the pinned entry.
        handle.advance_us(10_000);
        assert_eq!(cache.sweep_idle(), 0);
        assert_eq!(cache.len(), 1);

        // Capacity pressure must also route around it: B builds, the
        // cache overflows to 2 (explicit pin override), A survives.
        let pin_b = cache.get_or_create(&b, 8, usize::MAX).unwrap();
        assert_eq!(cache.len(), 2);
        drop(pin_b);

        // Once A's batch lands (pin dropped), the same pressures evict
        // the LRU unpinned entry again.
        drop(pin_a);
        let c = model(&[(4, 4)], 2);
        let _pin_c = cache.get_or_create(&c, 8, usize::MAX).unwrap();
        assert!(cache.len() <= 2);
        assert!(cache.hub.stats.evictions.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn lookups_do_not_wait_for_an_entry_in_use() {
        let cache = Mutex::new(cache(CachePolicy::default(), Clock::manual()));
        let a = model(&[(2, 2), (2, 2)], 0);
        let b = model(&[(3, 3)], 1);
        let pin = cache
            .lock()
            .unwrap()
            .get_or_create(&a, 8, usize::MAX)
            .unwrap();
        // An execute holds A's entry lock from gather to reply.
        let in_use = pin.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                for m in [&a, &b] {
                    let found = cache.lock().unwrap().get_or_create(m, 8, usize::MAX);
                    tx.send(found.is_ok()).unwrap();
                }
            });
            let wait = std::time::Duration::from_secs(2);
            let looked_up = [rx.recv_timeout(wait), rx.recv_timeout(wait)];
            // Release A so a lookup blocked on it can finish and the scope
            // can join.
            drop(in_use);
            assert_eq!(looked_up, [Ok(true), Ok(true)], "(A, B) lookups");
        });
        let (plan_hits, plan_misses) = cache.lock().unwrap().hub.plan_lookups();
        assert_eq!((plan_hits, plan_misses), (1, 2));
    }

    #[test]
    fn failed_entry_detaches_but_lives_until_pin_drops() {
        let mut cache = cache(CachePolicy::default(), Clock::manual());
        let a = model(&[(2, 2)], 0);
        let pin = cache.get_or_create(&a, 4, usize::MAX).unwrap();
        cache.evict_failed(DType::F64, a.shape_key, 4);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        // The detached entry is still usable through the pin.
        let mut guard = pin.lock();
        assert!(!<f64 as ErasedDtype>::plan_mut(&mut guard)
            .expect("f64 entry")
            .is_sharded());
        drop(guard);
        drop(pin);
        // And the next lookup is a rebuild.
        let _pin = cache.get_or_create(&a, 4, usize::MAX).unwrap();
        assert_eq!(cache.hub.stats.rebuilds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn one_cache_holds_both_dtypes_under_one_policy() {
        let mut cache = cache(CachePolicy::default(), Clock::manual());
        // Same shape chain, both dtypes: two distinct entries (the key
        // includes the dtype), one ledger.
        let a64 = model(&[(4, 4), (4, 4)], 0);
        let a32 = model_f32(&[(4, 4), (4, 4)], 1);
        let p64 = cache.get_or_create(&a64, 8, usize::MAX).unwrap();
        let p32 = cache.get_or_create(&a32, 8, usize::MAX).unwrap();
        assert_eq!(cache.len(), 2);
        // f64 state accounts twice the bytes of the same-shape f32 state.
        let keys = cache.keys();
        let b64 = keys
            .iter()
            .find(|k| k.dtype == DType::F64)
            .unwrap()
            .estimated_bytes();
        let b32 = keys
            .iter()
            .find(|k| k.dtype == DType::F32)
            .unwrap()
            .estimated_bytes();
        assert_eq!(b64, 2 * b32);
        assert_eq!(cache.resident_bytes(), b64 + b32);
        // A second f64 lookup is a hit (4 ops: 2 misses + 2 re-lookups).
        drop(p64);
        drop(p32);
        let _again = cache.get_or_create(&a64, 8, usize::MAX).unwrap();
        let (plan_hits, plan_misses) = cache.hub.plan_lookups();
        assert_eq!(plan_hits, 1);
        assert_eq!(plan_misses, 2);
    }

    #[test]
    fn byte_budget_evicts_lru_across_dtypes_before_building() {
        let a32 = model_f32(&[(4, 4), (4, 4)], 0);
        let a64 = model(&[(4, 4), (4, 4)], 1);
        // Budget sized to hold either entry alone, but not both: the f64
        // build must evict the idle f32 entry first.
        let one64 = {
            let mut probe = cache(CachePolicy::default(), Clock::manual());
            let _p = probe.get_or_create(&a64, 8, usize::MAX).unwrap();
            probe.resident_bytes()
        };
        let mut cache = cache(
            CachePolicy {
                max_entries: usize::MAX,
                max_idle_us: None,
                max_bytes: Some(one64),
            },
            Clock::manual(),
        );
        let p32 = cache.get_or_create(&a32, 8, usize::MAX).unwrap();
        drop(p32);
        assert_eq!(cache.len(), 1);
        let _p64 = cache.get_or_create(&a64, 8, usize::MAX).unwrap();
        assert_eq!(cache.len(), 1, "f32 entry evicted to fit the budget");
        assert_eq!(cache.keys()[0].dtype, DType::F64);
        assert_eq!(cache.hub.stats.evictions.load(Ordering::Relaxed), 1);
        assert!(cache.resident_bytes() <= one64);
    }

    #[test]
    fn width_change_rebuild_stays_within_the_byte_budget() {
        // Two local (limit 1) entries fill the budget exactly. At 7 rows a
        // sharded entry rounds up to 8 (a `GM` multiple), so it accounts
        // more than a local one of the same shape.
        let a = model(&[(4, 4), (4, 4), (4, 4)], 0);
        let b = model(&[(8, 8), (8, 8)], 1);
        let grid = Backend::Distributed { gpus: 4, p2p: true };
        let probe = |limit: usize| {
            let mut c = PlanCache::new(
                V100.clone(),
                &grid,
                CachePolicy::default(),
                Clock::manual(),
                hub(),
            );
            drop(c.get_or_create(&a, 7, limit).unwrap());
            c.resident_bytes()
        };
        let (local, sharded) = (probe(1), probe(usize::MAX));
        assert!(sharded > local, "{sharded} vs {local}");
        let budget = 2 * local;
        let mut cache = PlanCache::new(
            V100.clone(),
            &grid,
            CachePolicy {
                max_entries: usize::MAX,
                max_idle_us: None,
                max_bytes: Some(budget),
            },
            Clock::manual(),
            hub(),
        );
        drop(cache.get_or_create(&a, 7, 1).unwrap());
        drop(cache.get_or_create(&b, 7, 1).unwrap());
        assert_eq!(cache.resident_bytes(), budget);

        // The grid heals: `a` rebuilds at full width. Its stale local
        // slot goes first, then the LRU entry (`b`) makes room.
        let pin = cache.get_or_create(&a, 7, usize::MAX).unwrap();
        assert!(<f64 as ErasedDtype>::plan_mut(&mut pin.lock())
            .expect("f64 entry")
            .is_sharded());
        assert!(
            cache.resident_bytes() <= budget,
            "{}",
            cache.resident_bytes()
        );
        assert_eq!(cache.len(), 1, "b evicted to fit the budget");
        assert_eq!(cache.hub.stats.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hub.stats.rebuilds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn entry_larger_than_the_whole_budget_is_a_clean_error() {
        let mut cache = cache(
            CachePolicy {
                max_entries: usize::MAX,
                max_idle_us: None,
                max_bytes: Some(64),
            },
            Clock::manual(),
        );
        let a = model(&[(8, 8), (8, 8)], 0);
        match cache.get_or_create(&a, 32, usize::MAX).map(|_| ()) {
            Err(KronError::CacheBudgetExceeded {
                required_bytes,
                max_bytes,
            }) => {
                assert!(required_bytes > max_bytes);
                assert_eq!(max_bytes, 64);
            }
            other => panic!("expected CacheBudgetExceeded, got {other:?}"),
        }
        assert!(cache.len() == 0, "nothing was built or leaked");
    }
}
