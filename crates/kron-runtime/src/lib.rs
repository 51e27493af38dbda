//! # kron-runtime
//!
//! A persistent serving runtime for Kron-Matmul: the layer the ROADMAP's
//! production north star needs between request traffic and the fused
//! execution path in `fastkron-core`.
//!
//! The paper's kernels shine at large `M`, but real serving traffic (GP
//! inference, graph kernels) arrives as many small-`M` requests — the
//! Table 3/4 shapes that underuse wide hosts. Following Jhurani &
//! Mullowney's observation that many small Kronecker problems should be
//! batched into one launch, this crate turns the small-`M` weakness into
//! the fused path's best case by stacking same-model requests row-wise
//! into one large-`M` execute.
//!
//! ## One runtime for mixed `f32`/`f64` traffic
//!
//! [`Runtime`] is **not generic**. Like FastKron's and Jhurani's C
//! interfaces — dtype-polymorphic handles over one engine — a single
//! runtime serves `f32` and `f64` models side by side: one pool of
//! scheduler lanes (one by default — see *Sharded admission* below),
//! lock-free admission rings (deadlines, aged priorities, and the
//! serve-sequence counter span both dtypes), and one bounded plan cache
//! whose keys and byte budget cover all traffic. Models, tickets, and
//! sessions stay fully typed ([`Model<f32>`], [`Session<f64>`], …); the
//! typed entry points wrap requests into a two-armed erased enum at the
//! channel and the scheduler unwraps them into typed per-dtype lanes —
//! enum dispatch only, no `Box<dyn>` on the hot path, and the
//! zero-allocation steady state is preserved (the counting-allocator
//! suite drives interleaved f32/f64 sessions). The scalar types the
//! runtime accepts are exactly the [`ServeElement`] impls (`f32`, `f64`;
//! the trait is sealed because the erased enum has one arm per dtype).
//!
//! ## Architecture
//!
//! ```text
//!  clients (typed)                 scheduler thread (erased)      compute (typed)
//!  ───────────────                ──────────────────────────      ───────────────
//!  submit(x: f32)──► [gate] ──► channel of ErasedRequest ─┬─► one PlanCache
//!  submit(x: f64)──►   │        {F32(..) | F64(..)}       │   (DType, shapes,
//!  Ticket / Session    │              │                   │    capacity) →
//!    ▲                 │       typed lanes: f32 | f64     │    workspace
//!    │                 │       shed expired deadlines     │    + batch buffers
//!    │                 │       group per model, order by  │    (byte-accounted)
//!    │                 │       aged prio → deadline →     ▼
//!    │                 │       arrival (cross-dtype)   Workspace::execute_rows
//!    │                 ▼              │               ──► one (rows × slices)
//!    │           gather rows into typed batch X          grid on the pool
//!    └──── slot.fill() ◄── scatter rows to per-request Y
//! ```
//!
//! * **One grid per execute** — every execute, batched or not, runs on
//!   the `(row groups × slice groups)` grid of
//!   [`fastkron_core::Workspace`], whose tasks go to the process-wide
//!   persistent worker pool: task handoffs, never a thread spawn. The
//!   grid is measured, not set by a FLOP cut-off: the first execute of a
//!   model's factor-shape chain, dtype and row bucket (`⌊log₂ rows⌋`) in
//!   the process times the serial grid against the pool's grids and
//!   keeps the fastest, and every later execute of that bucket reads the
//!   decision with one atomic load. The decisions outlive the plan cache,
//!   so an evicted and rebuilt entry does not measure again. A small
//!   execute typically runs serially on the calling thread; a large one
//!   splits its rows across the pool's threads, and when there are fewer
//!   rows than threads, each row's slices too.
//! * **Plan + workspace cache** — keyed by dtype, factor-shape chain, and
//!   row capacity (introspectable as [`kron_core::PlanKey`]s): after the
//!   first request of a shape, serving does **zero planning and zero
//!   allocation** per request — ping-pong workspaces, batch buffers,
//!   and sharded engines with their plans are all reused (proved by
//!   counting-allocator tests), including across *different models that
//!   share a shape* (execution state depends on shapes only; factor
//!   values arrive with each execute).
//! * **Cross-request batcher** — each scheduler lane drains its request
//!   ring, groups same-model requests with `M ≤ batch_max_m`, stacks them
//!   row-wise into one batch execute (up to `max_batch_rows` rows), and
//!   scatters results back to each request's output. Batches are
//!   per-model and therefore per-dtype; the *order* batches are served in
//!   is global on the default single-lane layout, per lane when sharded.
//!
//! ## Sharded admission
//!
//! Admission is **lock-free and multi-producer-scalable**: every submit
//! pushes onto a bounded Vyukov-style MPMC ring (the vendored
//! `crossbeam::channel::bounded`, one handle per lane that submitters,
//! the lane's scheduler and stealing siblings all share) guarded by a
//! striped atomic sender-count gate — no mutex anywhere on the submit
//! path, so N submitter threads scale instead of convoying on one send
//! lock (the serve bench's multi-producer gate pins this).
//! [`RuntimeConfig::scheduler_lanes`]
//! (1–[`MAX_LANES`], default 1) shards the scheduler itself into
//! per-lane service threads:
//!
//! * **Hashed-by-plan placement** — a request's lane is a pure hash of
//!   its plan identity (dtype + factor-shape chain), so one model's
//!   whole batch window lands on one lane and a hot model cannot starve
//!   the rest of the fleet. [`Runtime::lane_for`] exposes the mapping.
//! * **Work-stealing** — an idle lane steals up to half of the deepest
//!   sibling ring before parking, so a skewed model mix still uses every
//!   lane; steals are counted ([`LaneStats::steals`]) and recorded as
//!   `Steal` events on the flight recorder.
//! * **Per-lane bypass eligibility** — the inline bypass lane's idle
//!   check is a per-lane CAS claim on that lane's
//!   [`LaneStats::inflight`] gauge (not a global load), so two
//!   concurrent submitters can never both observe "idle" and race into
//!   the inline lane; the loser falls back to its scheduler ring.
//! * **Striped shutdown** — a lane's atomic gate is its one stop
//!   signal, and it keeps the "Shutdown is the last message" guarantee:
//!   close marks the gate, waits for in-flight senders to drain, then
//!   sends the final `Shutdown`. A scheduler panic closes every gate
//!   before it fails a ticket, so later submits, bypass-eligible ones
//!   included, fail fast with [`kron_core::KronError::Shutdown`]. The
//!   ring itself never disconnects.
//! * **Per-lane observability** — [`RuntimeStats::lane_stats`]
//!   ([`RuntimeStats::lanes`] for the live prefix) carries each lane's
//!   depth, inflight, served/batched/solo/bypassed/error counters, and
//!   steals; `served == batched + solo + bypassed + error_replies`
//!   holds per lane as well as globally by construction (a lane's
//!   `served` is the sum of its four reply classes, and every global
//!   total sums the lanes), and the stats table, `metrics_snapshot()`'s
//!   JSON and its Prometheus text render the same per-lane series from
//!   one field list.
//!
//! The default stays one lane: single-lane deployments keep the classic
//! global service order (and its deterministic manual-clock tests)
//! while multi-lane deployments trade global ordering for parallel
//! drain, per-lane windows, and stealing.
//!
//! ## Backends
//!
//! Where a batch executes is a [`Backend`] choice in [`RuntimeConfig`]:
//!
//! * [`Backend::SingleNode`] (default) — the fused-path
//!   [`fastkron_core::Workspace`] on one device, as above.
//! * [`Backend::Distributed`] — the stacked batch shards across a
//!   simulated multi-GPU machine ([`kron_dist::ShardedEngine`]): rows
//!   split `GM`-ways, columns `GK`-ways over a SUMMA-style grid, with
//!   Algorithm 2's grouped exchanges (§5, Figure 11 of the paper) between
//!   factor groups. The scheduler zero-pads each batch to a `GM` multiple,
//!   so any request mix shards; results scatter back per request together
//!   with each request's prorated share of the simulated execution
//!   ([`Ticket::wait_with_stats`], [`Session::last_shard_summary`],
//!   `comm_bytes` in [`RuntimeStats`]). Models the grid cannot shard
//!   (mixed or rectangular factors, indivisible `K`) transparently fall
//!   back to single-node execution; an impossible grid (non-power-of-two
//!   GPU count) fails every request with the documented
//!   [`kron_core::KronError::InvalidGrid`]. A device that panics
//!   mid-batch fails only that batch with
//!   [`kron_core::KronError::DeviceFailure`]; later batches re-plan on a
//!   fresh engine.
//!
//! Both backends run the same microkernel
//! ([`fastkron_core::sliced_multiply_rows_into`]), so on integer-valued
//! data every execution path agrees bit-for-bit — the invariant the
//! workspace-wide `kron-testkit` differential harness pins, including
//! across mixed-dtype traces through one runtime.
//!
//! ## Lifecycle and admission control
//!
//! Long-lived many-model deployments get these levers on top of the
//! serving core, all measured on an injectable [`Clock`] (real in
//! production, manually advanced in tests — which is what makes the
//! scheduler's timing behavior deterministically testable):
//!
//! * **Bounded plan cache** — [`CachePolicy`] caps resident entries
//!   (LRU), their **byte footprint** (`max_bytes`, accounted per entry at
//!   [`kron_core::PlanKey::estimated_bytes`]: workspace + staging +
//!   engine blocks — eviction runs until the incoming entry fits *before*
//!   it builds, and an entry larger than the whole budget fails with
//!   [`kron_core::KronError::CacheBudgetExceeded`]), and ages idle ones
//!   out (`max_idle_us`, swept each scheduler cycle and via
//!   [`Runtime::sweep`]). All three bounds span both dtypes. Evicting a
//!   `Distributed` entry frees its simulated devices' blocks
//!   synchronously. In-flight batches pin their entry, and
//!   [`Runtime::pin_model`] gives clients the same RAII pin to keep a hot
//!   model resident; [`RuntimeStats`] counts `evictions`/`rebuilds` and
//!   gauges `cached_entries`/`cached_bytes`.
//! * **Per-request admission control** — [`SubmitOptions`] carries a
//!   `priority` and an absolute `deadline_us` on the runtime's clock
//!   ([`Runtime::now_us`]); a request whose deadline passed before the
//!   scheduler picked it up is shed with
//!   [`kron_core::KronError::DeadlineExceeded`] before any plan lookup or
//!   execute. Within a window, service order is **aged priority first**
//!   ([`aged_priority`]: queue age raises effective priority at one step
//!   per [`RuntimeConfig::priority_aging_us`], so strict ordering cannot
//!   starve), then **tightest deadline**, then arrival.
//!   [`Runtime::submit_linked_with`] applies one deadline to a whole
//!   linked group atomically.
//! * **Adaptive linger** — `batch_linger_us` is a cap: the effective
//!   window ([`adaptive_linger_us`]) collapses to zero under sequential
//!   traffic and grows to the cap as the smoothed queue depth rises,
//!   visible as the [`RuntimeStats::current_linger_us`] gauge.
//!
//! ## Low-latency lane
//!
//! Batching is a throughput device, and at queue depth 1 it is pure
//! tax: a lone request pays the channel hop, the scheduler wake, and the
//! linger window for a batch that never forms. The runtime therefore
//! keeps an **inline bypass lane** ([`RuntimeConfig::inline_bypass`], on
//! by default): when nothing is in flight (the
//! [`RuntimeStats::inflight_requests`] gauge is zero) and the model's
//! plan is warm and local in the cache at full device width,
//! [`Runtime::submit`] and [`Session::call`] execute the request *on the
//! submitting thread* against the pinned cached plan — no channel, no
//! wake, no linger. The moment load appears (a non-empty queue, a cold
//! plan, a sharded or mid-retry distributed entry, a closed gate),
//! submission falls back to the batching scheduler, so bursts still
//! coalesce and the retry / breaker / watchdog ladder keeps ownership of
//! every distributed execute.
//!
//! The lane is a scheduling shortcut, not a semantic one. It keeps only
//! its own hit-only plan lookup and admission; the serve itself is the
//! scheduler's one execute-and-reply step, run on a chunk of one — the
//! same step every batch and solo takes, so a bypassed request executes
//! in place from its own buffers exactly as a scheduler solo does, and
//! replies through the same exit. Bypassed and scheduled serves
//! therefore agree bit-for-bit; deadlines shed identically (an
//! already-expired [`SubmitOptions::deadline_us`] sheds inline with
//! [`kron_core::KronError::DeadlineExceeded`] before any plan lookup);
//! and the steady state stays allocation-free. Observability keeps the
//! lanes distinguishable: bypassed serves count in
//! [`RuntimeStats::bypassed_requests`] (`served == batched + solo +
//! bypassed + error_replies`), land in the `bypass` [`Outcome`]
//! histogram, stamp receipts with `queue_us == 0` and `linger_us == 0`,
//! and leave a `Bypass` event on the flight recorder. The serve bench's
//! queue-depth-1 gate holds the lane within ~2x of the raw fused call —
//! against the ~1000x the full batching round-trip costs a lone request.
//!
//! ## Self-healing
//!
//! Device faults are a *runtime* concern, not a client concern. Three
//! cooperating mechanisms (all deterministic under a manual clock) keep
//! transient failures invisible and persistent ones bounded:
//!
//! * **Transparent retry with degraded re-sharding** —
//!   [`RetryPolicy`] (on by default): a batch that fails with
//!   [`kron_core::KronError::DeviceFailure`] or
//!   [`kron_core::KronError::DeviceTimeout`] evicts its broken engine and
//!   re-executes on a rebuilt grid; if the fault persists, later attempts
//!   halve the device count (`4 → 2 → 1`) down to the single-device
//!   fallback, so a sick machine serves slower instead of failing. The
//!   client sees `Ok` with bit-identical results (every backend shares
//!   one microkernel); [`ServeReceipt::attempts`] / [`ServeReceipt::grid`]
//!   and the [`RuntimeStats`] counters (`retries`, `degraded_batches`,
//!   `recovered_requests`) record what really happened. Retries honor
//!   deadlines — a request whose deadline a retry would overshoot is shed
//!   with [`kron_core::KronError::DeadlineExceeded`], never served late.
//! * **Device health + circuit breakers** — every device fault is
//!   attributed to its device; [`BreakerPolicy::trip_after`] consecutive
//!   failures trip that device's breaker ([`BreakerState`]: Closed →
//!   Open → HalfOpen), quarantining its grid — new plans build on the
//!   largest clean power-of-two device prefix, so traffic routes around
//!   the sick device with no retry at all until the cooldown's half-open
//!   probe succeeds. Observable via [`Runtime::device_health`] and the
//!   `breaker_trips` counter.
//! * **Engine watchdog** — a device that *hangs* (rather than fails) is
//!   bounded by a 2 s budget on the runtime's clock: past it, the sharded
//!   engine converts the stall into
//!   [`kron_core::KronError::DeviceTimeout`], which then feeds the same
//!   retry/breaker machinery.
//! * **Scheduler panic containment** — the scheduler loop runs under
//!   `catch_unwind`; a panic poisons the runtime: it closes every lane's
//!   gate, then every pending [`Ticket::wait`] fails with
//!   [`kron_core::KronError::Shutdown`] and later submits error instead
//!   of hanging on a dead thread.
//!
//! Faults are injected deterministically through the **chaos plane**:
//!   [`Runtime::install_fault_plan`] scripts [`FaultPlan`]s of device
//!   panics, watchdog-bounded stalls, and scheduler panics, triggered on
//!   the Nth sharded batch or at a clock time ([`FaultTrigger`]), with
//!   [`Runtime::pending_fault_events`] to assert a drill ran.
//!
//! ## Usage
//!
//! ```
//! use kron_core::Matrix;
//! use kron_runtime::Runtime;
//!
//! // One runtime, models of both dtypes.
//! let runtime = Runtime::with_defaults();
//! let f32_factors: Vec<Matrix<f32>> = (0..2).map(|_| Matrix::identity(4)).collect();
//! let f64_factors: Vec<Matrix<f64>> = (0..2).map(|_| Matrix::identity(3)).collect();
//! let m32 = runtime.load_model(f32_factors).unwrap();
//! let m64 = runtime.load_model(f64_factors).unwrap();
//!
//! // Asynchronous: submit returns a typed ticket; mixed-dtype requests
//! // interleave through the same scheduler.
//! let x32 = Matrix::<f32>::from_fn(2, 16, |r, c| (r + c) as f32);
//! let x64 = Matrix::<f64>::from_fn(2, 9, |r, c| (r * 2 + c) as f64);
//! let t32 = runtime.submit(&m32, x32.clone()).unwrap();
//! let t64 = runtime.submit(&m64, x64.clone()).unwrap();
//! assert_eq!(t32.wait().unwrap(), x32); // identity factors ⇒ identity map
//! assert_eq!(t64.wait().unwrap(), x64);
//!
//! // Synchronous convenience.
//! let y = runtime.execute(&m32, x32.clone()).unwrap();
//! assert_eq!(y, x32);
//! let stats = runtime.stats();
//! assert_eq!(stats.requests_f32 + stats.requests_f64, 3);
//! ```
//!
//! For allocation-free steady-state serving, hold a typed [`Session`] per
//! dtype and recycle its buffers: [`Session::call`] moves `x`/`y` in and
//! returns them filled.
//!
//! ## Observability
//!
//! The runtime measures itself continuously, at zero steady-state
//! allocation cost (the counting-allocator suite proves serving with
//! every instrument armed allocates nothing):
//!
//! * **Stage timelines** — every request is clock-stamped through the
//!   pipeline; the [`ServeReceipt`] from [`Ticket::wait_with_receipt`]
//!   carries a [`StageTimings`] breakdown (queue, linger, plan, exec,
//!   scatter, retry — microseconds on the runtime's [`Clock`], so
//!   manual-clock tests can assert exact timelines).
//! * **Latency histograms** — preallocated atomic log2 histograms per
//!   stage and per outcome, with rank-interpolated
//!   [`HistogramSnapshot::percentile`] readout; aggregated globally, per plan key in a bounded model
//!   registry ([`Runtime::model_stats`], [`ModelStats`]), and per device
//!   ([`Runtime::device_health`] reports carry a
//!   [`DeviceMetricsSnapshot`]).
//! * **One metrics plane** — the counters, histograms, and registries
//!   live in one shared hub, and every fact is recorded once: a reply
//!   bumps one lane class counter, one histogram per stage, and its
//!   outcome's histogram (the only record of its end-to-end total). What
//!   another record already implies — `submitted`, `served`, the plan
//!   hits and misses, `deadline_shed`, `breaker_trips`,
//!   `inflight_requests`, the cache gauges, a histogram's count, the
//!   `total` stage, a device's executes, a model's errors — is derived
//!   when a snapshot is taken, so it cannot disagree with its source.
//! * **Flight recorder** — a fixed-capacity lock-free ring of recent
//!   [`ServeEvent`]s (admissions, sheds, batch formation, executes,
//!   faults, retries, degrades, breaker transitions, evictions), drained
//!   in causal order via [`Runtime::drain_events`] — chaos drills and
//!   test failures produce a post-mortem trace, not just counters. It is
//!   lossy by design: a writer whose slot is mid-write, or already holds
//!   a newer event, drops its own.
//! * **Snapshot/export** — [`Runtime::metrics_snapshot`] folds counters,
//!   histograms, registries, and device health into one
//!   [`MetricsSnapshot`] that renders to stable JSON
//!   ([`MetricsSnapshot::to_json`]) or Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`], one contiguous group per
//!   family); the serve bench records its p50/p95/p99 tails from these
//!   histograms.
//!
//! See `examples/serving_observability.rs` for a chaos drill that prints
//! the snapshot and the drained event trace.
//!
//! ## Correctness tooling
//!
//! The lock-free admission core (the `LaneGate`[^gate] sender-count
//! gate, the bypass lane's CAS claim, the flight recorder's seqlock, and
//! the `crossbeam` shim's ring queue and sleeper handshake underneath)
//! is guarded by two static layers on top of the runtime test suites:
//!
//! * **Deterministic model checking** — the hot-path atomics, fences,
//!   and cells are imported through the `crossbeam::sync` facade, which
//!   re-exports `std` normally and the vendored `kron-modelcheck`
//!   explorer under `RUSTFLAGS="--cfg kron_loom"`. The suites in
//!   `src/modelcheck_tests.rs` (and `crossbeam`'s `tests/modelcheck.rs`)
//!   then drive the *production* protocol code through every thread
//!   interleaving within a preemption bound — proving gate close vs.
//!   send linearizes, the bypass claim is mutually exclusive, seqlock
//!   drains never tear (with two writers a lap apart on one slot too),
//!   and the sleeper handshake never loses a wakeup:
//!
//!   ```sh
//!   RUSTFLAGS="--cfg kron_loom" cargo test -p kron-runtime --lib modelcheck_tests
//!   RUSTFLAGS="--cfg kron_loom" cargo test -p crossbeam --test modelcheck
//!   ```
//!
//!   Mutation-validation tests re-introduce historical bug shapes (the
//!   check-then-claim bypass race, a dropped handshake fence, a skipped
//!   seqlock re-check, a recorder writer that stores its odd `seq`
//!   without claiming the slot) and assert the checker still flags them.
//! * **Source-level linting** — `cargo xtask analyze` (CI, exit 1)
//!   enforces `// SAFETY:` comments on every `unsafe`, bans panics on
//!   the scheduler/submit hot path, bans allocation inside the
//!   zero-alloc-gated functions, and requires a `// relaxed:`
//!   justification on every `Ordering::Relaxed` whose statement touches
//!   a protocol atomic. Exceptions live in
//!   `crates/xtask/analyze-allowlist.txt` with mandatory reasons.
//!
//! New synchronization code on the admission path is expected to arrive
//! with a model-check suite alongside it (see the ROADMAP invariant).
//!
//! [^gate]: `LaneGate` is crate-internal; see `src/runtime.rs`.

#![deny(missing_docs)]

mod cache;
mod clock;
mod fault;
mod health;
mod metrics;
mod runtime;
mod scheduler;
mod trace;

// Model-check suites for the admission protocols (LaneGate, the bypass
// CAS claim, the flight-recorder seqlock and its slot claim). Compiled only under
// `RUSTFLAGS="--cfg kron_loom"`, where the `crossbeam::sync` facade
// resolves to `kron-modelcheck`; run them by name filter — the other
// unit tests are not model-aware:
//
// ```sh
// RUSTFLAGS="--cfg kron_loom" cargo test -p kron-runtime --lib modelcheck_tests
// ```
#[cfg(all(test, kron_loom))]
mod modelcheck_tests;

pub use cache::CachePolicy;
pub use clock::{Clock, ManualClock};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultTrigger};
pub use health::{BreakerPolicy, BreakerState, DeviceHealthReport};
pub use metrics::{
    DeviceMetricsSnapshot, HistogramSnapshot, MetricsSnapshot, ModelStats, Outcome, Stage,
};
pub use runtime::{
    Backend, LaneStats, Model, ModelPin, RetryPolicy, Runtime, RuntimeConfig, RuntimeStats,
    ServeElement, ServeReceipt, Session, SubmitOptions, Ticket, MAX_LANES,
};
pub use scheduler::{adaptive_linger_us, aged_priority};
pub use trace::{EvictReason, ServeEvent, ServeEventKind, StageTimings};
