//! The scheduler service threads, and the one serve path every request
//! takes: each lane drains its own lock-free request ring under an
//! adaptive linger window, sheds requests whose deadline already passed,
//! orders the remainder by aged priority and deadline **across both
//! dtypes**, and serves it in same-model chunks through the shared
//! bounded plan cache.
//!
//! ## One serve path
//!
//! Every request the runtime answers is executed and replied to by one
//! step, [`ServeCtx::execute_and_reply`]: a batch, a solo, or a request
//! the inline bypass lane serves on the submitting thread, on a local or
//! a sharded entry. The scheduler runs that step inside one retry loop
//! (`TypedLane::serve_chunk`), where a lone request is simply a chunk of
//! one: look the entry up under the degradation ladder's device limit,
//! execute and reply, and on a device fault within the
//! [`RetryPolicy`] budget back off, shed the members whose deadline
//! passed meanwhile, and go again on a rebuilt engine. The bypass lane
//! ([`try_bypass`]) owns its whole admission, idleness claim included,
//! then runs the same step. Every late request is shed by
//! [`ServeCtx::shed`], every reply leaves through [`ServeCtx::finish`],
//! and an exiting lane empties its ring through one `drain_ring`.
//!
//! ## Sharded lanes, erased queues, typed halves
//!
//! The runtime spawns one [`Scheduler`] thread per configured lane
//! ([`crate::RuntimeConfig::scheduler_lanes`]); requests hash to a lane
//! by plan identity ([`crate::cache::lane_of`]), so one model's traffic
//! — including its whole batch window — always lands on one lane, and a
//! hot model cannot starve its siblings. Idle lanes **steal** queued
//! work from the deepest sibling ring (half the visible depth) before
//! parking, which keeps every lane busy under a skewed model mix; with
//! `scheduler_lanes == 1` (the default) the loop degenerates to the
//! classic single-scheduler blocking drain with one global service
//! order.
//!
//! Within a lane, [`ErasedRequest`]s coming off the ring are unwrapped
//! into two fully-typed [`TypedLane`]s (`f32`, `f64`), each owning its
//! own scratch — so batch staging, the fused execute, and result scatter
//! never see an erased value, and the enum round-trip is a move, not an
//! allocation. What *is* shared is the admission pipeline: one deadline
//! check, one priority order per window, one serve-sequence counter, one
//! plan cache — each lane interleaves `f32` and `f64` work strictly by
//! its window order, not dtype by dtype.
//!
//! ## Service order within a window
//!
//! Each window fills one group table: both typed lanes append their
//! batchable model groups, and each request above
//! [`crate::RuntimeConfig::batch_max_m`] as a one-member group flagged
//! `solo`. The table is sorted once and served in that order, each group
//! in row-budgeted chunks. The sort key is, in turn:
//!
//! 1. **Batchable before solo** — every model group drains before any
//!    solo.
//! 2. **Aged priority**, descending — [`aged_priority`]: the static
//!    [`crate::SubmitOptions::priority`] plus one step per
//!    [`crate::RuntimeConfig::priority_aging_us`] of queue age, so a
//!    starving low-priority group eventually outranks fresh high-priority
//!    traffic (strict ordering cannot starve).
//! 3. **Tightest deadline first** — a group's earliest member deadline;
//!    deadline-less work sorts last within its priority level. Deadlines
//!    thus shape the *order* of service, not only the shedding of
//!    already-expired requests.
//! 4. **Arrival order** — the global (cross-dtype) arrival number of the
//!    group's first member. It is unique within a lane, so the order is
//!    total and the unstable sort deterministic.
//!
//! All scratch state (the lanes' `pending` and retry buffers, and the
//! group table, whose retired entries keep their member lists) is owned
//! and reused across cycles, so a warmed scheduler serves requests
//! without allocating — the other half of the crate's zero-allocation
//! steady-state contract (the first half being the plan cache's reused
//! workspaces and batch buffers). The table is sorted with
//! `sort_unstable` (in place) for the same reason.
//!
//! Every time-dependent decision — the linger window, deadline admission,
//! priority aging, the cache's idle sweep — reads the runtime's
//! [`Clock`], so a manual clock makes the whole scheduling pipeline
//! deterministic for tests.

use crate::cache::{CachedPlan, PinnedEntry};
use crate::clock::Clock;
use crate::fault::{FaultKind, FaultPlane};
use crate::metrics::Outcome;
use crate::runtime::sealed::ErasedDtype;
use crate::runtime::{
    bypass_release_claim, bypass_try_claim, ErasedRequest, Msg, Reply, Request, RetryPolicy,
    RuntimeConfig, ServeReceipt, Shared, StatsInner,
};
use crate::trace::{ServeEventKind, StageTimings};
use crossbeam::channel::Channel;
use crossbeam::sync::atomic::Ordering;
use kron_core::{DType, Element, KronError};
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Duration;

/// How often a lingering scheduler re-reads a **manual** clock while
/// parked on the request channel. Virtual time only moves when the test
/// advances it, so the park polls at this real-time interval instead of
/// sleeping out the window; the interval affects only wall-clock test
/// latency, never which requests share a window.
const MANUAL_POLL: Duration = Duration::from_micros(200);

/// How long an idle lane on the sharded layout (`scheduler_lanes > 1`)
/// parks on its own ring between steal checks. Short enough that a
/// backlogged sibling is relieved promptly; long enough that an idle
/// fleet of lanes costs a handful of wakeups per millisecond, not a
/// spin. Local traffic wakes the lane immediately regardless (the park
/// is a real condvar wait).
const STEAL_POLL: Duration = Duration::from_micros(500);

/// The drain window: the most requests one scheduling cycle takes off a
/// lane's ring, across both dtypes. Each lane's ring holds two windows.
pub(crate) const WINDOW: usize = 1024;

/// Saturation depth for the adaptive linger, in x16 fixed point: once the
/// smoothed per-cycle queue depth reaches 9 requests (1 + 8), the linger
/// sits at its cap.
const LINGER_SAT_X16: u64 = 8 * 16;

/// The load-adaptive linger window: how long the scheduler should hold a
/// batch window open, given the cap (`batch_linger_us`) and the smoothed
/// per-cycle queue depth in x16 fixed point (`16` = one request per
/// cycle).
///
/// A depth of one request per cycle means traffic is sequential —
/// lingering cannot coalesce anything, so the window collapses to zero
/// and solo latency stays minimal. As the smoothed depth grows past one,
/// the window opens proportionally, reaching the full cap at a depth of
/// nine (`1 + 8`) — by then the queue is deep enough that trading linger
/// latency for batch occupancy always pays. Monotone in the depth, never
/// exceeds the cap, and `cap == 0` disables lingering entirely.
pub fn adaptive_linger_us(cap_us: u64, ewma_depth_x16: u64) -> u64 {
    let above_one = ewma_depth_x16.saturating_sub(16);
    if above_one == 0 {
        return 0;
    }
    cap_us * above_one.min(LINGER_SAT_X16) / LINGER_SAT_X16
}

/// The linger policy: the configured cap, scaled by the smoothed depth
/// `ewma_depth_x16` when [`RuntimeConfig::adaptive_linger`] is on.
fn linger_us(cfg: &RuntimeConfig, ewma_depth_x16: u64) -> u64 {
    if cfg.adaptive_linger {
        adaptive_linger_us(cfg.batch_linger_us, ewma_depth_x16)
    } else {
        cfg.batch_linger_us
    }
}

/// Folds one cycle of `depth` requests into the smoothed load signal
/// (shared, so the bypass lane's depth-1 serves decay it too) and
/// returns the linger window it now gives.
fn fold_cycle(stats: &StatsInner, cfg: &RuntimeConfig, depth: u64) -> u64 {
    let ewma = stats.ewma_depth_x16.load(Ordering::Relaxed);
    let next = (3 * ewma + 16 * depth) / 4;
    stats.ewma_depth_x16.store(next, Ordering::Relaxed);
    linger_us(cfg, next)
}

/// The effective service priority of a request that has waited
/// `queued_us` on the queue: its static priority plus one step per
/// `step_us` of age (`step_us == 0` disables aging). Uncapped and
/// strictly monotone in the age, so **any** request eventually outranks
/// **any** static priority — the anti-starvation guarantee. Requests that
/// entered the queue together age together, so aging never reorders a
/// burst; it only lifts long-waiting stragglers.
///
/// A pure function of clock arithmetic — the deterministic admission
/// tests pin service order by advancing a manual clock between submits.
pub fn aged_priority(priority: u8, queued_us: u64, step_us: u64) -> u64 {
    let boost = queued_us.checked_div(step_us).unwrap_or(0);
    priority as u64 + boost
}

/// One schedulable unit of a window's service order: a batchable model
/// group, or a solo (a request above `batch_max_m`) as a group of one.
struct Group {
    /// The typed lane that holds the members.
    dtype: DType,
    /// Model id the group batches against.
    model: u64,
    /// A request above `batch_max_m`: it batches with nothing.
    solo: bool,
    /// Max aged priority across members.
    prio: u64,
    /// Min deadline across members (`u64::MAX` when none carry one).
    deadline: u64,
    /// Global arrival number of the first member.
    arrival: u64,
    /// Pending indices of the members in their lane, in arrival order.
    idxs: Vec<usize>,
}

impl Group {
    /// The service order: batchable groups before solos, then aged
    /// priority descending, tightest deadline, and arrival.
    fn key(&self) -> (bool, Reverse<u64>, u64, u64) {
        (self.solo, Reverse(self.prio), self.deadline, self.arrival)
    }
}

/// Consumes the next due scripted device fault (if any) and arms it on
/// the entry about to execute: a `Panic` arms the engine's one-shot
/// device panic, a `Stall` arms a device stall the engine's watchdog
/// bounds into [`KronError::DeviceTimeout`]. Local entries never consult
/// the plane — they have no devices, so device events stay pending (and
/// the sharded-batch counter does not advance), exactly as on a
/// single-node runtime. Also used by the `pin_model` pre-warm, which
/// executes outside the scheduler.
pub(crate) fn arm_scripted_fault<T: Element>(
    entry: &mut CachedPlan<T>,
    plane: &FaultPlane,
    clock: &Clock,
) {
    let Some(grid) = entry.grid() else {
        return;
    };
    if let Some((gpu, kind)) = plane.next_device_fault(clock.now_us(), grid.gpus()) {
        match kind {
            FaultKind::Panic => {
                entry.arm_fault(gpu);
            }
            FaultKind::Stall { stall_us } => {
                entry.arm_stall(gpu, stall_us);
            }
            FaultKind::SchedulerPanic => unreachable!("filtered by next_device_fault"),
        }
    }
}

/// The device limit the `attempt`-th execute of a batch may span: the
/// first try and first retry run at the configured width (a transient
/// fault usually clears on a fresh engine), later retries halve toward
/// the single-device fallback when degradation is enabled — and the
/// breaker's `allowed` quarantine limit caps every rung.
fn attempt_limit(retry: &RetryPolicy, configured: usize, attempt: u32, allowed: usize) -> usize {
    let ladder = if retry.degrade && attempt >= 2 {
        configured.checked_shr(attempt - 1).unwrap_or(0).max(1)
    } else {
        configured
    };
    ladder.min(allowed).max(1)
}

/// Sleeps until `at_us` on the runtime's clock — the retry backoff. A
/// real clock sleeps out the remaining wall time; a manual clock polls
/// (virtual time only moves when the test advances it).
fn wait_until(clock: &Clock, at_us: u64) {
    loop {
        let now = clock.now_us();
        if now >= at_us {
            return;
        }
        if clock.is_manual() {
            std::thread::sleep(MANUAL_POLL);
        } else {
            std::thread::sleep(Duration::from_micros(at_us - now));
        }
    }
}

/// One serve's view of the runtime: the [`Shared`] state it serves
/// against (plan cache, chaos plane, health ledger, clock, metrics hub
/// and configuration; every reply flows through [`ServeCtx::finish`],
/// which records into the hub), plus the window and lane it serves for.
/// The typed lanes a scheduler serves from live in the [`Scheduler`],
/// not in `Shared`, so a `&mut` lane can serve while the context
/// borrows `Shared`. [`ServeCtx::new`] builds one per scheduler cycle,
/// per inline bypass serve, and for the `pin_model` pre-warm's fault
/// bookkeeping.
pub(crate) struct ServeCtx<'a> {
    shared: &'a Shared,
    /// Clock time when this cycle's linger window closed — the boundary
    /// between a request's linger stage and its execution stages.
    window_close_us: u64,
    /// The scheduler lane this context serves on behalf of: every reply
    /// bumps that lane's counters.
    lane: usize,
}

/// Which lifetime counter a served reply lands in: the batched lane
/// ([`crate::RuntimeStats::batched_requests`]), the solo lane
/// ([`crate::RuntimeStats::solo_requests`]), or the inline bypass lane
/// ([`crate::RuntimeStats::bypassed_requests`]). Error replies count in
/// none of them — they increment `error_replies`, so the four always
/// decompose `served` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyClass {
    Batched,
    Solo,
    Bypass,
}

impl<'a> ServeCtx<'a> {
    /// A context serving on `lane`, for a window that closed at
    /// `window_close_us`.
    pub(crate) fn new(shared: &'a Shared, lane: usize, window_close_us: u64) -> Self {
        ServeCtx {
            shared,
            window_close_us,
            lane,
        }
    }
}

impl ServeCtx<'_> {
    /// Devices the configured backend spans (1 for single-node): the top
    /// rung of the degradation ladder and the "not degraded" reference.
    fn configured_gpus(&self) -> usize {
        self.shared.cfg.backend.gpus()
    }

    /// The plan-cache capacity `rows` rows execute at: the batch capacity
    /// whenever they fit one batch, else the next power of two, so nearby
    /// large sizes share one workspace.
    fn capacity(&self, rows: usize) -> usize {
        if rows <= self.shared.cfg.max_batch_rows {
            self.shared.cfg.max_batch_rows
        } else {
            rows.next_power_of_two()
        }
    }

    /// Device-fault bookkeeping after a failed execute, once the entry's
    /// pin is dropped. For a [`KronError::DeviceFailure`] or
    /// [`KronError::DeviceTimeout`] it blames the device (device metric,
    /// `Fault` event, and the breaker ledger, whose trips `breaker_trips`
    /// sums) and evicts the
    /// entry, so the next lookup rebuilds a fresh engine rather than
    /// reuse the one that failed. Returns whether `err` was
    /// such a fault; any other error leaves the entry cached.
    pub(crate) fn device_fault(
        &self,
        err: &KronError,
        dtype: DType,
        shape_key: u64,
        capacity: usize,
    ) -> bool {
        let shared = self.shared;
        let (KronError::DeviceFailure { gpu, .. } | KronError::DeviceTimeout { gpu, .. }) = err
        else {
            return false;
        };
        let timeout = matches!(err, KronError::DeviceTimeout { .. });
        let now = shared.clock.now_us();
        shared.hub.record_device_fault(*gpu, timeout);
        shared.hub.event(
            now,
            ServeEventKind::Fault {
                gpu: *gpu as u32,
                timeout,
            },
        );
        shared.health.record_failure(*gpu, now);
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.evict_failed(dtype, shape_key, capacity);
        true
    }

    /// The single exit point for every request the runtime answers:
    /// completes the timeline (queue and linger legs from the request's
    /// own stamps), classifies the outcome (`result` is `Ok(class)` for
    /// a serve, else the error replied), bumps exactly one of the lane's
    /// `batched_requests`/`solo_requests`/`bypassed_requests`/
    /// `error_replies` counters, records the stage histograms and the
    /// per-model registry, and fills the reply slot. Those four lane
    /// counters are the only per-class source: a lane's `served` and the
    /// global class totals are their sums, so
    /// `served == batched + solo + bypassed + error_replies` holds by
    /// construction. The global `served` counter issues the reply's
    /// sequence number.
    fn finish<T: Element>(
        &self,
        mut timings: StageTimings,
        r: Request<T>,
        result: kron_core::Result<ReplyClass>,
        summary: Option<gpu_sim::ExecSummary>,
        attempts: u32,
        grid: Option<(usize, usize)>,
    ) {
        let shared = self.shared;
        let shape_key = r.model.shape_key;
        let capacity = self.capacity(r.x.rows());
        timings.queue_us = r.drained_us.saturating_sub(r.enqueued_us);
        timings.linger_us = self.window_close_us.saturating_sub(r.drained_us);
        let stats = &shared.hub.stats;
        let lane = stats.lane(self.lane);
        let outcome = match &result {
            Ok(class) => {
                let (counter, outcome) = match class {
                    ReplyClass::Batched => (&lane.batched_requests, Outcome::Ok),
                    ReplyClass::Solo => (&lane.solo_requests, Outcome::Ok),
                    ReplyClass::Bypass => (&lane.bypassed_requests, Outcome::Bypass),
                };
                counter.fetch_add(1, Ordering::Relaxed);
                if attempts > 1 {
                    stats.recovered_requests.fetch_add(1, Ordering::Relaxed);
                }
                outcome
            }
            Err(KronError::DeadlineExceeded {
                deadline_us,
                now_us,
            }) => {
                lane.error_replies.fetch_add(1, Ordering::Relaxed);
                shared.hub.event(
                    shared.clock.now_us(),
                    ServeEventKind::Shed {
                        deadline_us: *deadline_us,
                        now_us: *now_us,
                    },
                );
                Outcome::Shed
            }
            Err(_) => {
                lane.error_replies.fetch_add(1, Ordering::Relaxed);
                Outcome::Error
            }
        };
        let seq = stats.served.fetch_add(1, Ordering::Relaxed);
        shared.hub.record_timings(&timings, outcome);
        shared
            .hub
            .record_model_serve(T::DTYPE, shape_key, capacity, outcome, timings.total_us());
        r.slot.fill(Reply {
            result: result.map(|_| ()),
            x: r.x,
            y: r.y,
            receipt: ServeReceipt {
                seq,
                shard: summary,
                attempts,
                grid,
                timings,
            },
        });
    }

    /// Replies `r` with [`KronError::DeadlineExceeded`]: its `deadline_us`
    /// passed before `now`, after `attempts` executes.
    fn shed<T: Element>(
        &self,
        r: Request<T>,
        deadline_us: u64,
        now: u64,
        attempts: u32,
        timings: StageTimings,
    ) {
        let err = KronError::DeadlineExceeded {
            deadline_us,
            now_us: now,
        };
        self.finish(timings, r, Err(err), None, attempts, None);
    }

    /// Executes one chunk of same-model requests — the `live` slots of
    /// `reqs` — on its pinned cache entry and replies to it: the one
    /// execute-and-reply step behind the scheduler's batches and solos
    /// and the inline bypass lane alike. `attempt` counts this execute
    /// (1 on the first try) and `limit` is the device limit the entry was
    /// looked up under; `timings` carries the lookup and retry legs.
    ///
    /// A lone request on a local entry executes in place, from its own
    /// `x` into its own `y`. Every other chunk is gathered into the
    /// entry's staging pair (zero-padded to a `GM` multiple when
    /// sharded), executed once, and scattered back, each member replying
    /// with its prorated share of a sharded execution. The next due
    /// scripted fault is armed first (sharded entries only); executes are
    /// accounted on the flight recorder, sharded ones also on the device
    /// registry and the health ledger, and only chunks of several
    /// requests count as batches. The entry stays locked until every
    /// member has replied, so no concurrent lookup can reuse its staging
    /// mid-scatter.
    ///
    /// On an error the entry is released first, then
    /// [`Self::device_fault`] blames and evicts a faulted device. A
    /// device fault within the [`RetryPolicy`] budget leaves every member
    /// pending and returns the failed attempt's timings for the retry
    /// loop; any other error is replied to the whole chunk.
    #[allow(clippy::too_many_arguments)]
    fn execute_and_reply<T: ErasedDtype>(
        &self,
        pinned: PinnedEntry,
        reqs: &mut [Option<Request<T>>],
        live: &[usize],
        attempt: u32,
        limit: usize,
        mut timings: StageTimings,
        class: ReplyClass,
    ) -> Option<StageTimings> {
        let shared = self.shared;
        let model = &reqs[live[0]].as_ref().expect("unserved").model;
        let (model_id, shape_key) = (model.id, model.shape_key);
        let (k, l) = (model.input_cols(), model.output_cols());
        let rows: usize = live
            .iter()
            .map(|&i| reqs[i].as_ref().expect("unserved").x.rows())
            .sum();
        let mut guard = pinned.lock();
        let entry = T::plan_mut(&mut guard).expect("dtype verified at cache lookup");
        arm_scripted_fault(entry, &shared.plane, &shared.clock);
        let in_place = live.len() == 1 && !entry.is_sharded();
        if !in_place {
            let bx = entry.batch_buffers().0.as_mut_slice();
            let mut off = 0;
            for &i in live {
                let x = &reqs[i].as_ref().expect("unserved").x;
                bx[off * k..(off + x.rows()) * k].copy_from_slice(x.as_slice());
                off += x.rows();
            }
        }
        let exec_start = shared.clock.now_us();
        let r = reqs[live[0]].as_mut().expect("unserved");
        let result = entry.run(
            r.model.factors(),
            rows,
            in_place.then_some((&r.x, &mut r.y)),
        );
        let exec_end = shared.clock.now_us();
        timings.exec_us = exec_end.saturating_sub(exec_start);
        let grid = entry.grid();
        shared.hub.event(
            exec_end,
            ServeEventKind::Execute {
                rows: rows as u32,
                sharded: grid.is_some(),
                ok: result.is_ok(),
                exec_us: timings.exec_us,
            },
        );
        if class == ReplyClass::Bypass {
            shared.hub.event(
                exec_end,
                ServeEventKind::Bypass {
                    dtype: T::DTYPE,
                    model: model_id,
                    rows: rows as u32,
                    exec_us: timings.exec_us,
                },
            );
        }
        if let Err(err) = result {
            // Release the entry before touching the cache again (lock
            // order: never hold an entry lock while taking the cache
            // lock).
            drop(guard);
            drop(pinned);
            let faulted = self.device_fault(&err, T::DTYPE, shape_key, self.capacity(rows));
            if faulted && attempt <= shared.cfg.retry.max_attempts {
                return Some(timings);
            }
            if class == ReplyClass::Batched {
                shared.hub.stats.batches.fetch_add(1, Ordering::Relaxed);
            }
            for &i in live {
                let r = reqs[i].take().expect("unserved");
                self.finish(timings, r, Err(err.clone()), None, attempt, None);
            }
            return None;
        }
        let stats = &shared.hub.stats;
        if let Some(g) = grid {
            stats.sharded_batches.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = entry.shard_summary(rows) {
                stats.comm_bytes.fetch_add(s.comm_bytes, Ordering::Relaxed);
            }
            for gpu in 0..g.gpus() {
                shared.hub.record_device_execute(gpu, timings.exec_us);
            }
            if shared.health.is_suspect() {
                shared
                    .health
                    .record_success(g.gpus(), shared.clock.now_us());
            }
            if limit < self.configured_gpus() {
                stats.degraded_batches.fetch_add(1, Ordering::Relaxed);
                shared.hub.event(
                    shared.clock.now_us(),
                    ServeEventKind::Degrade {
                        from_gpus: self.configured_gpus() as u32,
                        to_gpus: limit as u32,
                    },
                );
            }
        }
        if class == ReplyClass::Batched {
            stats.batches.fetch_add(1, Ordering::Relaxed);
        }
        let grid = grid.map(|g| (g.gm, g.gk));
        let mut off = 0;
        for &i in live {
            let mut r = reqs[i].take().expect("unserved");
            let m = r.x.rows();
            if !in_place {
                let by = entry.batch_buffers().1.as_slice();
                r.y.as_mut_slice()
                    .copy_from_slice(&by[off * l..(off + m) * l]);
                timings.scatter_us = shared.clock.now_us().saturating_sub(exec_end);
            }
            off += m;
            let summary = entry.shard_summary(m);
            self.finish(timings, r, Ok(class), summary, attempt, grid);
        }
        None
    }
}

/// Takes the request out of `slot` when its deadline passed before
/// `now`, returning it with that deadline.
fn take_late<T: Element>(slot: &mut Option<Request<T>>, now: u64) -> Option<(Request<T>, u64)> {
    let deadline_us = slot.as_ref()?.deadline_us.filter(|&d| d < now)?;
    Some((slot.take()?, deadline_us))
}

/// The inline bypass lane: serves one request on the submitting thread,
/// skipping the channel hop, the linger window, and the scheduler wake.
/// [`Shared::submit`] offers it every request; `None` means the request
/// completed inline — served or shed — and its reply slot is filled.
///
/// The lane must be enabled and idle: an unclaimed result on the
/// request's `lane` means a pipelined client is building a burst there.
/// Idleness is a CAS claim ([`bypass_try_claim`]), not a load, so of two
/// submitters that find the lane idle exactly one wins. The claim
/// transfers to the slot on admission (`Slot::admit_claimed`) and is
/// released on every exit that hands the request back, a closed gate
/// included (the send path reports it). A closed gate is the lane's one
/// stop signal: orderly shutdown closes it, and a scheduler panic closes
/// every lane's gate before it fails any ticket, so no request is served
/// inline once the runtime stops admitting.
/// An eligible request completes inline in two cases:
///
/// - an already-expired deadline is shed with
///   [`KronError::DeadlineExceeded`] **before** any plan lookup —
///   exactly as the scheduler sheds cold, so neither lane counts a
///   plan-cache lookup for a shed request;
/// - the plan cache holds a warm **local** entry at full device width
///   ([`crate::cache::PlanCache::get_warm`]): the request is admitted
///   and runs through the scheduler's own
///   [`ServeCtx::execute_and_reply`] as a chunk of one, so it executes
///   in place exactly as a scheduler solo does.
///
/// Otherwise (cold plan, degraded/rebuilding entry, or a sharded entry
/// — which must keep its retry ladder, watchdog, and device-health
/// accounting on the scheduler thread) the request is handed back
/// untouched for the channel path. Inline serves fold a depth-1 cycle
/// into the shared EWMA depth signal so the adaptive linger window
/// keeps breathing even when every request bypasses.
pub(crate) fn try_bypass<T: ErasedDtype>(
    shared: &Shared,
    lane: usize,
    mut r: Request<T>,
) -> Option<Request<T>> {
    let stats = &shared.hub.stats;
    let lane_inflight = &stats.lane(lane).inflight;
    if !shared.cfg.inline_bypass || !bypass_try_claim(lane_inflight) {
        return Some(r);
    }
    if shared.lanes[lane].gate.is_closed() {
        bypass_release_claim(lane_inflight);
        return Some(r);
    }
    let ctx = ServeCtx::new(shared, lane, shared.clock.now_us());
    let now = ctx.window_close_us;
    // A bypassed request never crosses the channel: enqueue, drain, and
    // window close collapse to one instant, so its queue and linger
    // stages are genuinely zero.
    r.enqueued_us = now;
    r.drained_us = now;
    let admit = |r: &Request<T>| {
        stats.requests(T::DTYPE).fetch_add(1, Ordering::Relaxed);
        r.slot.admit_claimed(lane);
    };
    if let Some(deadline_us) = r.deadline_us.filter(|&d| d < now) {
        admit(&r);
        ctx.shed(r, deadline_us, now, 0, StageTimings::default());
        return None;
    }
    let plan_start = shared.clock.now_us();
    let pinned = {
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.get_warm(&r.model, ctx.capacity(r.x.rows()))
    };
    let Some(pinned) = pinned else {
        bypass_release_claim(lane_inflight);
        return Some(r);
    };
    let timings = StageTimings {
        plan_us: shared.clock.now_us().saturating_sub(plan_start),
        ..StageTimings::default()
    };
    admit(&r);
    // Fold a depth-1 cycle into the shared load signal and republish an
    // adaptive window, as a scheduler cycle would.
    let window_us = fold_cycle(stats, &shared.cfg, 1);
    if shared.cfg.adaptive_linger {
        stats.current_linger_us.store(window_us, Ordering::Relaxed);
    }
    let retry = ctx.execute_and_reply(
        pinned,
        &mut [Some(r)],
        &[0],
        1,
        ctx.configured_gpus(),
        timings,
        ReplyClass::Bypass,
    );
    debug_assert!(retry.is_none(), "a local entry raises no device fault");
    None
}

/// One dtype's fully-typed half of the scheduler: the pending window and
/// execution scratch. Everything request-valued in here is `T`-typed —
/// the erasure boundary ends at [`Scheduler::enqueue`].
struct TypedLane<T: ErasedDtype> {
    /// Requests drained this cycle; `None` marks served slots. Cleared
    /// (capacity kept) at the end of every cycle.
    pending: Vec<Option<Request<T>>>,
    /// Global (cross-dtype) arrival number per pending slot; index
    /// -parallel with `pending` and valid after the slot is taken.
    arrivals: Vec<u64>,
    /// Reused live-member list for the retry loop (deadline shedding
    /// between attempts compacts it in place).
    retry_scratch: Vec<usize>,
}

impl<T: ErasedDtype> TypedLane<T> {
    fn new() -> Self {
        TypedLane {
            pending: Vec::new(),
            arrivals: Vec::new(),
            retry_scratch: Vec::new(),
        }
    }

    fn push(&mut self, req: Request<T>, arrival: u64) {
        self.pending.push(Some(req));
        self.arrivals.push(arrival);
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.arrivals.clear();
    }

    /// Admission control: shed requests whose deadline already passed —
    /// before any plan lookup, gather, or execute.
    fn shed_expired(&mut self, now: u64, ctx: &ServeCtx) {
        for slot in &mut self.pending {
            if let Some((r, deadline_us)) = take_late(slot, now) {
                ctx.shed(r, deadline_us, now, 0, StageTimings::default());
            }
        }
    }

    /// Fails everything still pending with [`KronError::Shutdown`] — the
    /// poison path after a scheduler-thread panic, so no `Ticket::wait`
    /// can hang on a dead scheduler.
    fn fail_all(&mut self, ctx: &ServeCtx) {
        for slot in self.pending.iter_mut() {
            if let Some(r) = slot.take() {
                ctx.finish(
                    StageTimings::default(),
                    r,
                    Err(KronError::Shutdown),
                    None,
                    0,
                    None,
                );
            }
        }
        self.clear();
    }

    /// Appends this lane's window to the group table at `used` and
    /// returns the table's new length: one group per model for requests
    /// of at most `batch_max_m` rows, tracking its strongest aged
    /// priority (at `now`), tightest deadline and first arrival, and one
    /// solo per larger request.
    fn append_groups(
        &self,
        groups: &mut Vec<Group>,
        mut used: usize,
        cfg: &RuntimeConfig,
        now: u64,
    ) -> usize {
        let first = used;
        for (i, slot) in self.pending.iter().enumerate() {
            let Some(r) = slot else {
                continue; // shed above
            };
            let (model, solo) = (r.model.id, r.x.rows() > cfg.batch_max_m);
            let queued_us = now.saturating_sub(r.enqueued_us);
            let prio = aged_priority(r.priority, queued_us, cfg.priority_aging_us);
            let deadline = r.deadline_us.unwrap_or(u64::MAX);
            let same = groups[first..used]
                .iter_mut()
                .find(|g| !solo && !g.solo && g.model == model);
            if let Some(g) = same {
                g.prio = g.prio.max(prio);
                g.deadline = g.deadline.min(deadline);
                g.idxs.push(i);
                continue;
            }
            let g = Group {
                dtype: T::DTYPE,
                model,
                solo,
                prio,
                deadline,
                arrival: self.arrivals[i],
                idxs: Vec::new(),
            };
            match groups.get_mut(used) {
                // A retired entry keeps its member list's capacity.
                Some(old) => {
                    *old = Group {
                        idxs: std::mem::take(&mut old.idxs),
                        ..g
                    }
                }
                None => groups.push(g),
            }
            let idxs = &mut groups[used].idxs;
            idxs.clear();
            idxs.push(i);
            used += 1;
        }
        used
    }

    /// Serves one group's members (pending indices, in arrival order) in
    /// row-budgeted chunks.
    fn serve_group(&mut self, idxs: &[usize], ctx: &ServeCtx) {
        let max_batch_rows = ctx.shared.cfg.max_batch_rows;
        let mut start = 0;
        while start < idxs.len() {
            let mut rows = 0;
            let mut end = start;
            while end < idxs.len() {
                let m = self.pending[idxs[end]].as_ref().expect("unserved").x.rows();
                if end > start && rows + m > max_batch_rows {
                    break;
                }
                rows += m;
                end += 1;
                if rows >= max_batch_rows {
                    break;
                }
            }
            self.serve_chunk(&idxs[start..end], ctx);
            start = end;
        }
    }

    /// Replies a deadline shed to retry survivors: drops every live
    /// member whose deadline has passed (a retry landing past the
    /// deadline is useless work — shed it instead of serving it late),
    /// compacting `live` in place.
    fn shed_expired_retries(
        &mut self,
        live: &mut Vec<usize>,
        attempts: u32,
        ctx: &ServeCtx,
        base: StageTimings,
    ) {
        let now = ctx.shared.clock.now_us();
        live.retain(|&i| {
            let Some((r, deadline_us)) = take_late(&mut self.pending[i], now) else {
                return true;
            };
            ctx.shed(r, deadline_us, now, attempts, base);
            false
        });
    }

    /// Serves a same-model chunk through the retry loop: a lone request
    /// (a solo, whatever its size) is a chunk of one, a batch one of
    /// several whose rows sum to ≤ `max_batch_rows`. Each attempt looks
    /// the entry up at the chunk's capacity under the degradation
    /// ladder's device limit, then runs [`ServeCtx::execute_and_reply`],
    /// whose pin keeps any concurrent sweep from dropping the engine
    /// mid-execute. A build error is terminal for the whole chunk. After
    /// a device fault within the [`RetryPolicy`] budget the loop backs
    /// off, sheds the members whose deadline passed meanwhile, and tries
    /// again on a rebuilt (possibly degraded) entry.
    fn serve_chunk(&mut self, idxs: &[usize], ctx: &ServeCtx) {
        let shared = ctx.shared;
        debug_assert!(!idxs.is_empty());
        let mut live = std::mem::take(&mut self.retry_scratch);
        live.clear();
        live.extend_from_slice(idxs);
        let rows: usize = live
            .iter()
            .map(|&i| self.pending[i].as_ref().expect("unserved").x.rows())
            .sum();
        let capacity = ctx.capacity(rows);
        let class = if idxs.len() > 1 {
            ReplyClass::Batched
        } else {
            ReplyClass::Solo
        };
        let serve_start = shared.clock.now_us();
        if class == ReplyClass::Batched {
            shared.hub.event(
                serve_start,
                ServeEventKind::BatchFormed {
                    model: self.pending[idxs[0]].as_ref().expect("unserved").model.id,
                    requests: live.len() as u32,
                    rows: rows as u32,
                },
            );
        }
        // `attempt` counts executes performed; the reply's `attempts`.
        let mut attempt: u32 = 0;
        loop {
            let plan_start = shared.clock.now_us();
            let allowed = shared
                .health
                .allowed_gpus(plan_start, ctx.configured_gpus());
            let limit = attempt_limit(&shared.cfg.retry, ctx.configured_gpus(), attempt, allowed);
            let pinned = {
                let model = &self.pending[live[0]].as_ref().expect("unserved").model;
                let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
                cache.get_or_create(model, capacity, limit)
            };
            let timings = StageTimings {
                plan_us: shared.clock.now_us().saturating_sub(plan_start),
                // Backoff waited out before this attempt (0 on the first).
                retry_us: plan_start.saturating_sub(serve_start),
                ..StageTimings::default()
            };
            let pinned = match pinned {
                Ok(p) => p,
                Err(err) => {
                    // Build errors are deterministic — retrying cannot
                    // help.
                    for &i in &live {
                        let r = self.pending[i].take().expect("unserved");
                        ctx.finish(timings, r, Err(err.clone()), None, attempt, None);
                    }
                    break;
                }
            };
            attempt += 1;
            let Some(failed) = ctx.execute_and_reply(
                pinned,
                &mut self.pending,
                &live,
                attempt,
                limit,
                timings,
                class,
            ) else {
                break;
            };
            shared.hub.stats.retries.fetch_add(1, Ordering::Relaxed);
            shared.hub.event(
                shared.clock.now_us(),
                ServeEventKind::Retry {
                    attempt: attempt + 1,
                    limit_gpus: limit as u32,
                },
            );
            if shared.cfg.retry.backoff_us > 0 {
                wait_until(
                    &shared.clock,
                    shared.clock.now_us() + shared.cfg.retry.backoff_us,
                );
            }
            self.shed_expired_retries(&mut live, attempt, ctx, failed);
            if live.is_empty() {
                break;
            }
        }
        live.clear();
        self.retry_scratch = live;
    }
}

/// The dtype-erased scheduler for **one lane**: one ring, one window,
/// one service order; two typed halves. The runtime spawns one per
/// configured lane. See the module docs.
pub(crate) struct Scheduler {
    /// This scheduler's lane index into `shared.lanes` — also the index
    /// of the per-lane counters it bumps in the metrics plane.
    lane: usize,
    /// The runtime state every lane shares with the runtime handle: the
    /// lanes' rings and gates (this lane receives from its own ring,
    /// work-stealing pops from sibling rings, and [`Self::poison`]
    /// closes every gate), the plan cache, counters, clock, chaos plane,
    /// health ledger, metrics hub, and configuration.
    shared: Arc<Shared>,
    /// Per-lane arrival counter — the cross-dtype FIFO tie-break within
    /// this lane's windows.
    next_arrival: u64,
    f32_lane: TypedLane<f32>,
    f64_lane: TypedLane<f64>,
    /// The window's group table, across both typed lanes, sorted into
    /// the service order. Entries past a window's groups are retired but
    /// keep their member lists' capacity for the next window.
    groups: Vec<Group>,
}

impl Scheduler {
    pub(crate) fn new(lane: usize, shared: Arc<Shared>) -> Self {
        Scheduler {
            lane,
            shared,
            next_arrival: 0,
            f32_lane: TypedLane::new(),
            f64_lane: TypedLane::new(),
            groups: Vec::new(),
        }
    }

    /// Unwraps an erased request into its typed lane, assigning the
    /// global arrival number and stamping scheduler pickup — the
    /// queue-stage boundary in the request's [`StageTimings`].
    fn enqueue(&mut self, req: ErasedRequest) {
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let now = self.shared.clock.now_us();
        match req {
            ErasedRequest::F32(mut r) => {
                r.drained_us = now;
                self.f32_lane.push(r, arrival);
            }
            ErasedRequest::F64(mut r) => {
                r.drained_us = now;
                self.f64_lane.push(r, arrival);
            }
        }
    }

    /// This lane's own ring.
    fn ring(&self) -> &Channel<Msg> {
        &self.shared.lanes[self.lane].ring
    }

    /// Requests drained into the current window, across both lanes.
    fn pending_len(&self) -> usize {
        self.f32_lane.pending.len() + self.f64_lane.pending.len()
    }

    /// Takes one message off the intake: a request joins the window, and
    /// `Shutdown` returns `false`, which closes the lane.
    fn take(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Request(r) => {
                self.enqueue(r);
                true
            }
            Msg::Shutdown => false,
        }
    }

    /// Moves everything queued on this lane's ring into the window,
    /// dropping a `Shutdown`: the scheduler is already on its way out.
    fn drain_ring(&mut self) {
        while let Some(msg) = self.ring().try_recv() {
            self.take(msg);
        }
    }

    /// The scheduler loop, panic-contained: each iteration runs under
    /// `catch_unwind`, so a panic anywhere in the serve path (injected by
    /// the chaos plane's `SchedulerPanic`, or a real bug) poisons the
    /// runtime — every pending `Ticket::wait` is failed with
    /// [`KronError::Shutdown`] and later submits error — instead of
    /// stranding in-flight callers on a silently dead thread.
    pub(crate) fn run(mut self) {
        loop {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.step())) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => {
                    self.poison();
                    break;
                }
            }
        }
    }

    /// Closes every lane's gate and fails everything queued or drained
    /// on **this** lane (sibling lanes are healthy and keep serving
    /// their own queues). Closing the striped gates first means no new
    /// request can start entering any ring, and no submit can take the
    /// bypass lane ([`try_bypass`] refuses on a closed gate): every gate
    /// is closed before the first ticket below fails, so a client that
    /// sees that failure sees the runtime stopped. Waiting for this
    /// lane's senders to drain makes the sweep below complete, not racy.
    /// The wait drains the ring concurrently — a sender spinning on a
    /// full ring needs this thread to consume, so a blocking wait
    /// without the drain would deadlock.
    fn poison(&mut self) {
        for lane in self.shared.lanes.iter() {
            lane.gate.begin_close();
        }
        loop {
            self.drain_ring();
            if self.shared.lanes[self.lane].gate.senders_drained() {
                break;
            }
            crossbeam::sync::thread::yield_now();
        }
        // Final sweep: the gate is drained, so nothing new can appear
        // behind this.
        self.drain_ring();
        let ctx = ServeCtx::new(&self.shared, self.lane, self.shared.clock.now_us());
        self.f32_lane.fail_all(&ctx);
        self.f64_lane.fail_all(&ctx);
    }

    /// One loop iteration: obtain a message (blocking on the single-lane
    /// layout; try-own / steal / short park on the sharded layout),
    /// drain a batch window, serve it. Returns `false` when the loop
    /// should exit: the lane took its `Shutdown`.
    fn step(&mut self) -> bool {
        let msg = if self.shared.lanes.len() == 1 {
            // Single lane (the default): the classic blocking drain — no
            // stealing, no polling, exact legacy service order.
            self.ring().recv()
        } else if let Some(msg) = self.ring().try_recv() {
            msg
        } else {
            // Own ring idle: steal from the deepest sibling before
            // parking, then park briefly so stealing keeps happening even
            // without local traffic to wake this lane.
            if self.try_steal() {
                return true;
            }
            let Some(msg) = self.ring().recv_timeout(STEAL_POLL) else {
                return true;
            };
            msg
        };
        let mut open = self.take(msg);
        if open {
            // Batch window: drain whatever is queued right now, up to
            // `WINDOW` requests; optionally linger (per the adaptive
            // policy) to let concurrent clients top the window up. The
            // window is measured on the runtime's clock, so a manual clock
            // holds it open until the test advances time.
            let stats = &self.shared.hub.stats;
            let ewma = stats.ewma_depth_x16.load(Ordering::Relaxed);
            let window_us = linger_us(&self.shared.cfg, ewma);
            stats.current_linger_us.store(window_us, Ordering::Relaxed);
            let deadline = (window_us > 0).then(|| self.shared.clock.now_us() + window_us);
            while open && self.pending_len() < WINDOW {
                match self.ring().try_recv() {
                    Some(msg) => open = self.take(msg),
                    None => {
                        // Queue momentarily empty: park until the linger
                        // deadline for a late arrival (no spinning —
                        // producers get the CPU).
                        let Some(d) = deadline else { break };
                        let now = self.shared.clock.now_us();
                        if now >= d {
                            break;
                        }
                        let wait = if self.shared.clock.is_manual() {
                            MANUAL_POLL
                        } else {
                            Duration::from_micros(d - now)
                        };
                        match self.ring().recv_timeout(wait) {
                            Some(msg) => open = self.take(msg),
                            // Re-read the virtual clock; the test may
                            // have advanced it.
                            None if self.shared.clock.is_manual() => continue,
                            None => break,
                        }
                    }
                }
            }
            self.serve_pending();
        }
        if !open {
            // The gate guarantees Shutdown is the channel's final message,
            // but drain defensively before exiting.
            self.drain_ring();
            self.serve_pending();
        }
        open
    }

    /// Steals up to half of the deepest sibling ring into this lane's
    /// window and serves it. Returns whether anything was stolen.
    ///
    /// Only siblings with **two or more** queued messages are victims: a
    /// lone request is left for its owner, which is already on its way
    /// to drain it — snatching it would just migrate depth-1 traffic
    /// onto lanes with cold batching scratch for no latency win.
    ///
    /// A stolen [`Msg::Shutdown`] is pushed straight back onto the
    /// sibling's ring: the sibling's gate is already closed by the time
    /// Shutdown is sent, so nothing can enqueue behind the re-push and
    /// the per-lane "Shutdown is the last message" guarantee survives
    /// stealing.
    fn try_steal(&mut self) -> bool {
        let mut victim = usize::MAX;
        let mut depth = 1usize;
        for (i, lane) in self.shared.lanes.iter().enumerate() {
            if i == self.lane {
                continue;
            }
            let len = lane.ring.len();
            if len > depth {
                depth = len;
                victim = i;
            }
        }
        if victim == usize::MAX {
            return false;
        }
        let budget = depth / 2;
        let mut stolen = 0u32;
        for _ in 0..budget {
            let ring = &self.shared.lanes[victim].ring;
            match ring.try_recv() {
                Some(Msg::Request(r)) => {
                    self.enqueue(r);
                    stolen += 1;
                }
                Some(Msg::Shutdown) => {
                    ring.send(Msg::Shutdown);
                    break;
                }
                None => break,
            }
        }
        if stolen == 0 {
            return false;
        }
        self.shared
            .hub
            .stats
            .lane(self.lane)
            .steals
            .fetch_add(1, Ordering::Relaxed);
        self.shared.hub.event(
            self.shared.clock.now_us(),
            ServeEventKind::Steal {
                from: victim as u32,
                to: self.lane as u32,
                requests: stolen,
            },
        );
        self.serve_pending();
        true
    }

    /// Serves everything drained this cycle: expired deadlines shed
    /// first, then every group of the window, batchable or solo, in the
    /// one service order of [`Group::key`] (interleaving dtypes), each
    /// chunked to `max_batch_rows`.
    fn serve_pending(&mut self) {
        let total = self.pending_len();
        if total == 0 {
            return;
        }
        // Scripted scheduler-thread fault: fires here, before any request
        // leaves its pending slot, so the poison path can honestly fail
        // every in-flight caller (none is ever half-served).
        if self
            .shared
            .plane
            .scheduler_panic_due(self.shared.clock.now_us())
        {
            panic!("injected scheduler fault (chaos plane)");
        }
        // Load signal for the next cycle's linger window (shared with the
        // bypass lane, which folds in depth-1 cycles the scheduler never
        // sees).
        fold_cycle(&self.shared.hub.stats, &self.shared.cfg, total as u64);

        // Cycle-boundary idle sweep (a no-op unless the policy sets
        // `max_idle_us`).
        {
            let mut cache = self.shared.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.sweep_idle();
        }

        // The window closes here: everything drained this cycle spent
        // `now - drained_us` lingering, and the serve stages start now.
        let now = self.shared.clock.now_us();
        let ctx = ServeCtx::new(&self.shared, self.lane, now);
        self.f32_lane.shed_expired(now, &ctx);
        self.f64_lane.shed_expired(now, &ctx);

        let cfg = &self.shared.cfg;
        let used = self.f32_lane.append_groups(&mut self.groups, 0, cfg, now);
        let used = self
            .f64_lane
            .append_groups(&mut self.groups, used, cfg, now);
        let groups = &mut self.groups[..used];
        groups.sort_unstable_by_key(Group::key);
        for g in groups.iter() {
            match g.dtype {
                DType::F32 => self.f32_lane.serve_group(&g.idxs, &ctx),
                DType::F64 => self.f64_lane.serve_group(&g.idxs, &ctx),
            }
        }
        self.f32_lane.clear();
        self.f64_lane.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A poisoned single-node runtime refuses bypass-eligible requests:
    /// the scheduler panic closes every gate before it fails a ticket,
    /// and [`try_bypass`] refuses on a closed gate, so a warm local entry
    /// on an idle lane serves nothing inline afterwards.
    #[test]
    fn poisoned_runtime_refuses_bypass_eligible_requests() {
        use crate::{FaultPlan, Runtime};
        use kron_core::Matrix;
        let runtime = Runtime::new(RuntimeConfig {
            clock: Clock::manual(),
            ..RuntimeConfig::default()
        });
        let factor = Matrix::from_fn(4, 4, |r, c| (3 * r + c) as f64 - 7.0);
        let model = runtime.load_model(vec![factor.clone(), factor]).unwrap();
        let x = || Matrix::from_fn(2, model.input_cols(), |r, c| (r + 2 * c) as f64);
        let _pin = runtime.pin_model(&model).unwrap();
        runtime
            .install_fault_plan(FaultPlan::new().scheduler_panic_at_time(0))
            .unwrap();
        // A linked batch never bypasses: it reaches the scheduler, whose
        // first serve panics and poisons the runtime.
        for ticket in runtime.submit_linked(vec![(&model, x())]).unwrap() {
            assert!(matches!(ticket.wait(), Err(KronError::Shutdown)));
        }
        // The lane is idle again and the pinned entry is warm and local,
        // so both requests below would be served inline by an open lane.
        assert_eq!(runtime.stats().inflight_requests, 0);
        let submit = runtime.submit(&model, x());
        assert!(matches!(submit, Err(KronError::Shutdown)), "{submit:?}");
        let mut session = runtime.session();
        let call = session.call(&model, x(), Matrix::zeros(2, model.output_cols()));
        assert!(matches!(call, Err(KronError::Shutdown)), "{call:?}");
        assert_eq!(runtime.stats().bypassed_requests, 0);
        runtime.shutdown();
    }

    #[test]
    fn adaptive_linger_collapses_at_depth_one_and_saturates() {
        // Sequential traffic (one request per cycle) must not linger.
        assert_eq!(adaptive_linger_us(500, 0), 0);
        assert_eq!(adaptive_linger_us(500, 16), 0);
        // Saturation: at and past nine requests per cycle, the full cap.
        assert_eq!(adaptive_linger_us(500, 16 * 9), 500);
        assert_eq!(adaptive_linger_us(500, 16 * 100), 500);
        // In between: strictly monotone and bounded by the cap.
        let mut last = 0;
        for depth_x16 in (16..=16 * 9).step_by(16) {
            let l = adaptive_linger_us(800, depth_x16);
            assert!(l >= last, "linger must grow with load");
            assert!(l <= 800);
            last = l;
        }
        assert_eq!(last, 800);
        // A zero cap disables lingering at any load.
        assert_eq!(adaptive_linger_us(0, 16 * 100), 0);
    }

    #[test]
    fn aged_priority_is_monotone_and_eventually_dominates() {
        // No age, no boost: static priorities order as given.
        assert_eq!(aged_priority(3, 0, 1_000), 3);
        assert!(aged_priority(7, 0, 1_000) > aged_priority(3, 0, 1_000));
        // One step per `step_us` of queue age.
        assert_eq!(aged_priority(0, 999, 1_000), 0);
        assert_eq!(aged_priority(0, 1_000, 1_000), 1);
        assert_eq!(aged_priority(0, 5_500, 1_000), 5);
        // Anti-starvation: enough age lifts priority 0 over a fresh 255.
        assert!(aged_priority(0, 256_000, 1_000) > aged_priority(255, 0, 1_000));
        // Equal age cancels: a burst submitted together keeps its static
        // order however long it waits.
        for age in [0, 10_000, 10_000_000] {
            assert!(aged_priority(5, age, 1_000) > aged_priority(2, age, 1_000));
        }
        // Monotone in age.
        let mut last = 0;
        for age in (0..20_000).step_by(500) {
            let p = aged_priority(1, age, 1_000);
            assert!(p >= last);
            last = p;
        }
        // Aging disabled: pure static priority at any age.
        assert_eq!(aged_priority(2, u64::MAX, 0), 2);
    }

    #[test]
    fn group_key_orders_solo_then_priority_then_deadline_then_arrival() {
        let key = |solo, prio, deadline, arrival| {
            Group {
                dtype: DType::F32,
                model: 0,
                solo,
                prio,
                deadline,
                arrival,
                idxs: Vec::new(),
            }
            .key()
        };
        // Higher priority first.
        assert!(key(false, 5, u64::MAX, 9) < key(false, 4, 0, 0));
        // Same priority: tighter deadline first; deadline-less last.
        assert!(key(false, 5, 100, 9) < key(false, 5, 200, 0));
        assert!(key(false, 5, 200, 9) < key(false, 5, u64::MAX, 0));
        // Full tie: arrival order.
        assert!(key(false, 5, 100, 1) < key(false, 5, 100, 2));
        // Every batchable group before any solo, whatever their priority.
        assert!(key(false, 0, u64::MAX, 9) < key(true, 9, 0, 0));
    }
}
