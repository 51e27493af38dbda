//! The execution core: virtual threads, vector clocks, the branch path,
//! and the schedule chooser.
//!
//! One [`Execution`] is one *iteration* of the explorer: the model
//! closure runs on real OS threads, but every shared-memory operation
//! funnels through [`Execution::op_point`], which hands the single
//! execution baton to exactly one thread at a time. Each point where
//! more than one action is possible (which thread runs next, which
//! store a load reads from) consults the recorded [`Path`]; choices
//! past the recorded prefix are taken depth-first (or randomly, in
//! random-walk mode) and appended, so the driver in `lib.rs` can
//! enumerate schedules by replaying and advancing the path.

use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Hard cap on concurrently-live virtual threads per execution. Small on
/// purpose: vector clocks are fixed arrays and bounded exploration only
/// scales to a handful of threads anyway.
pub const MAX_THREADS: usize = 8;

/// A fixed-width vector clock over the execution's virtual threads.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct VClock([u32; MAX_THREADS]);

impl VClock {
    pub(crate) fn join(&mut self, other: &VClock) {
        for i in 0..MAX_THREADS {
            self.0[i] = self.0[i].max(other.0[i]);
        }
    }
    pub(crate) fn tick(&mut self, tid: usize) {
        self.0[tid] += 1;
    }
    pub(crate) fn get(&self, tid: usize) -> u32 {
        self.0[tid]
    }
}

/// Why a virtual thread is not currently runnable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Blocked {
    /// Runnable.
    None,
    /// Waiting to acquire the mutex object `0`.
    Mutex(usize),
    /// Parked on a condvar until notified (or, when `timeout` is true,
    /// until the explorer chooses to fire the timeout).
    Condvar {
        cv: usize,
        mutex: usize,
        timeout: bool,
    },
    /// Waiting for thread `0` to finish.
    Join(usize),
}

pub(crate) struct ThreadState {
    pub(crate) clock: VClock,
    pub(crate) blocked: Blocked,
    pub(crate) finished: bool,
    /// Set by a voluntary yield; the chooser deprioritizes yielded
    /// threads so model spin loops cannot starve the exploration.
    pub(crate) yielded: bool,
    /// Scratch for `Condvar::wait_timeout`: set when the explorer fired
    /// this thread's timeout instead of a notify reaching it.
    pub(crate) timed_out: bool,
}

/// Registered synchronization objects (mutexes and condvars) live in the
/// core so the chooser can compute schedulability without touching the
/// user-visible wrapper types.
pub(crate) enum ObjState {
    Mutex { locked: bool, sync: VClock },
    Condvar { waiters: Vec<usize> },
}

/// One recorded decision: `chosen` out of `alts` alternatives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PathEntry {
    pub(crate) chosen: usize,
    pub(crate) alts: usize,
}

/// Exploration mode for choices past the recorded path prefix.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Take alternative 0 and record, so the driver can advance the path.
    Dfs,
    /// Take a pseudo-random alternative (random-walk fallback).
    Random,
}

/// What went wrong in a failing execution.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure in model code).
    Panic,
    /// Every unfinished thread was blocked with no schedulable action —
    /// a deadlock or lost wakeup.
    Deadlock,
    /// More virtual threads than the explorer supports (8) were spawned.
    TooManyThreads,
}

/// Sentinel panic payload used to unwind model threads when an
/// execution is being torn down (failure elsewhere, or branch-bound
/// overflow). Never surfaces to the user.
pub(crate) struct ExplorerAbort;

pub(crate) struct Core {
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) objects: Vec<ObjState>,
    pub(crate) active: usize,
    /// The recorded decision path; `pos` is the replay cursor.
    pub(crate) path: Vec<PathEntry>,
    pub(crate) pos: usize,
    pub(crate) mode: Mode,
    pub(crate) rng: u64,
    pub(crate) preemptions_left: usize,
    pub(crate) max_branches: usize,
    /// The global fence clock: fences join through it (modeled
    /// conservatively as global barriers; see crate docs).
    pub(crate) fence_clock: VClock,
    pub(crate) failure: Option<(FailureKind, String)>,
    /// This path exceeded `max_branches`; the iteration is discarded as
    /// inconclusive and the suite falls back to random walks.
    pub(crate) overflow: bool,
    pub(crate) abort: bool,
    pub(crate) done: bool,
}

/// One iteration's shared state: the core under a real mutex plus the
/// baton condvar every parked thread (and the driver) waits on.
pub struct Execution {
    pub(crate) core: Mutex<Core>,
    pub(crate) cv: Condvar,
}

/// Is a voluntary yield / blocking point (free) or a preemptible
/// operation point (counts against the preemption budget on a switch)?
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PointKind {
    Op,
    Yield,
    Block,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Action {
    Run(usize),
    FireTimeout(usize),
}

impl Execution {
    pub(crate) fn new(
        path: Vec<PathEntry>,
        mode: Mode,
        seed: u64,
        preemption_bound: usize,
        max_branches: usize,
    ) -> Arc<Self> {
        let mut threads = Vec::with_capacity(MAX_THREADS);
        threads.push(ThreadState {
            clock: VClock::default(),
            blocked: Blocked::None,
            finished: false,
            yielded: false,
            timed_out: false,
        });
        Arc::new(Execution {
            core: Mutex::new(Core {
                threads,
                objects: Vec::new(),
                active: 0,
                path,
                pos: 0,
                mode,
                rng: seed | 1,
                preemptions_left: preemption_bound,
                max_branches,
                fence_clock: VClock::default(),
                failure: None,
                overflow: false,
                abort: false,
                done: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records (or replays) one decision among `alts` alternatives.
    /// Only called with `alts > 1`; forced choices are never recorded.
    pub(crate) fn branch(core: &mut Core, alts: usize) -> usize {
        debug_assert!(alts > 1);
        if core.abort {
            // Teardown: don't record or replay — unwinding drops still
            // perform atomic ops, and their choices must not pollute the
            // path the driver advances.
            return 0;
        }
        if core.pos < core.path.len() {
            let e = core.path[core.pos];
            core.pos += 1;
            debug_assert_eq!(
                e.alts, alts,
                "non-deterministic model: replay saw a different alternative count"
            );
            return e.chosen.min(alts - 1);
        }
        if core.path.len() >= core.max_branches {
            core.overflow = true;
            return 0;
        }
        let chosen = match core.mode {
            Mode::Dfs => 0,
            Mode::Random => {
                // xorshift64*
                let mut x = core.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                core.rng = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % alts as u64) as usize
            }
        };
        core.path.push(PathEntry { chosen, alts });
        core.pos += 1;
        chosen
    }

    fn schedulable(core: &Core, t: usize) -> Option<Action> {
        let st = &core.threads[t];
        if st.finished {
            return None;
        }
        match st.blocked {
            Blocked::None => Some(Action::Run(t)),
            Blocked::Mutex(m) => match core.objects[m] {
                ObjState::Mutex { locked: false, .. } => Some(Action::Run(t)),
                _ => None,
            },
            Blocked::Join(j) => {
                if core.threads[j].finished {
                    Some(Action::Run(t))
                } else {
                    None
                }
            }
            Blocked::Condvar { timeout: true, .. } => Some(Action::FireTimeout(t)),
            Blocked::Condvar { .. } => None,
        }
    }

    /// Applies the unblock transition for a chosen `Run(t)` action.
    fn unblock(core: &mut Core, t: usize) {
        match core.threads[t].blocked {
            Blocked::None => {}
            Blocked::Mutex(m) => {
                let sync = match &mut core.objects[m] {
                    ObjState::Mutex { locked, sync } => {
                        debug_assert!(!*locked);
                        *locked = true;
                        *sync
                    }
                    ObjState::Condvar { .. } => unreachable!("blocked on a non-mutex"),
                };
                core.threads[t].clock.join(&sync);
                core.threads[t].blocked = Blocked::None;
            }
            Blocked::Join(j) => {
                let child = core.threads[j].clock;
                core.threads[t].clock.join(&child);
                core.threads[t].blocked = Blocked::None;
            }
            Blocked::Condvar { .. } => {
                unreachable!("condvar waiters resume via notify or FireTimeout")
            }
        }
    }

    /// Picks and applies the next action. Returns `true` when `current`
    /// keeps the baton (the caller returns to model code immediately),
    /// `false` when it must park. Records deadlock / wakes the driver as
    /// needed. `current = None` is the thread-finish path.
    pub(crate) fn choose(core: &mut Core, current: Option<usize>, kind: PointKind) -> bool {
        loop {
            let mut actions: Vec<Action> = Vec::new();
            for t in 0..core.threads.len() {
                if let Some(a) = Self::schedulable(core, t) {
                    actions.push(a);
                }
            }
            let current_runnable = current.is_some_and(|c| actions.contains(&Action::Run(c)));
            // Preemption bounding (CHESS-style): once the budget is
            // spent, a runnable thread is never switched away from at an
            // op point. Blocking points and yields stay free.
            if kind == PointKind::Op && current_runnable && core.preemptions_left == 0 {
                actions.retain(|a| *a == Action::Run(current.unwrap_or(usize::MAX)));
            }
            // A voluntary yield prefers any other thread.
            if kind == PointKind::Yield {
                if let Some(c) = current {
                    if actions.len() > 1 {
                        actions.retain(|a| *a != Action::Run(c));
                    }
                }
            }
            // Deprioritize yielded threads (spin-loop fairness) unless
            // they are all that is left.
            let non_yielded: Vec<Action> = actions
                .iter()
                .copied()
                .filter(|a| match a {
                    Action::Run(t) => !core.threads[*t].yielded,
                    Action::FireTimeout(_) => true,
                })
                .collect();
            if !non_yielded.is_empty() {
                actions = non_yielded;
            }

            if actions.is_empty() {
                if core.threads.iter().all(|t| t.finished) {
                    core.done = true;
                    return false;
                }
                let blocked: Vec<String> = core
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.finished)
                    .map(|(i, t)| format!("thread {i}: {:?}", t.blocked))
                    .collect();
                core.failure.get_or_insert((
                    FailureKind::Deadlock,
                    format!(
                        "deadlock / lost wakeup: no schedulable thread ({})",
                        blocked.join(", ")
                    ),
                ));
                core.abort = true;
                return false;
            }

            let idx = if actions.len() == 1 {
                0
            } else {
                Self::branch(core, actions.len())
            };
            match actions[idx] {
                Action::FireTimeout(t) => {
                    // Fire the timed wait: deregister from the condvar,
                    // flag the timeout, and move to mutex re-acquire.
                    let (cv, mutex) = match core.threads[t].blocked {
                        Blocked::Condvar { cv, mutex, .. } => (cv, mutex),
                        _ => unreachable!(),
                    };
                    if let ObjState::Condvar { waiters } = &mut core.objects[cv] {
                        waiters.retain(|w| *w != t);
                    }
                    core.threads[t].timed_out = true;
                    core.threads[t].blocked = Blocked::Mutex(mutex);
                    // Firing a timeout is not running a thread; choose
                    // again with the updated state.
                    continue;
                }
                Action::Run(t) => {
                    if kind == PointKind::Op && current_runnable && current != Some(t) {
                        core.preemptions_left = core.preemptions_left.saturating_sub(1);
                    }
                    Self::unblock(core, t);
                    core.threads[t].yielded = false;
                    core.active = t;
                    return current == Some(t);
                }
            }
        }
    }

    /// A schedule point: called by the active thread before every
    /// shared-memory operation (and on yields / blocking waits). May
    /// hand the baton to another thread and park the caller.
    pub(crate) fn point(self: &Arc<Self>, tid: usize, kind: PointKind) {
        if std::thread::panicking() {
            // Unwinding (assertion failure or abort sentinel): drops of
            // model-facade types re-enter here, and panicking again
            // would be a process abort. Skip scheduling — teardown code
            // just runs to completion on whatever thread holds it.
            return;
        }
        let mut core = self.lock();
        if core.abort {
            drop(core);
            resume_unwind(Box::new(ExplorerAbort));
        }
        if core.overflow {
            // Branch bound exceeded: tear the iteration down quietly.
            core.abort = true;
            self.cv.notify_all();
            drop(core);
            resume_unwind(Box::new(ExplorerAbort));
        }
        let keep = Self::choose(&mut core, Some(tid), kind);
        if keep {
            return;
        }
        self.cv.notify_all();
        self.park(core, tid);
    }

    /// Parks until this thread holds the baton again (or the execution
    /// aborts, in which case the sentinel unwinds the model code).
    pub(crate) fn park(self: &Arc<Self>, mut core: MutexGuard<'_, Core>, tid: usize) {
        loop {
            if core.abort {
                drop(core);
                resume_unwind(Box::new(ExplorerAbort));
            }
            if core.active == tid && !core.threads[tid].finished {
                return;
            }
            core = self.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks `tid` finished and hands the baton onward; wakes the driver
    /// when this was the last thread.
    pub(crate) fn finish_thread(self: &Arc<Self>, tid: usize) {
        let mut core = self.lock();
        core.threads[tid].finished = true;
        if core.threads.iter().all(|t| t.finished) {
            core.done = true;
        } else if !core.abort {
            Self::choose(&mut core, None, PointKind::Block);
        }
        self.cv.notify_all();
    }

    /// Records a model-thread panic as the execution's failure (first
    /// one wins) and aborts the iteration.
    pub(crate) fn record_panic(self: &Arc<Self>, msg: String) {
        let mut core = self.lock();
        core.failure.get_or_insert((FailureKind::Panic, msg));
        core.abort = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Per-OS-thread execution context.

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

pub(crate) fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Runs `f` with the calling OS thread's execution context. Panics with
/// a clear message when a model primitive is used outside [`crate::model`].
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CTX.with(|c| {
        let b = c.borrow();
        let ctx = b.as_ref().expect(
            "kron-modelcheck primitive used outside a model execution \
             (construct and use model types only inside `model`/`Builder::check`)",
        );
        f(ctx)
    })
}

pub(crate) fn try_with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> Option<R> {
    CTX.with(|c| c.borrow().as_ref().map(f))
}

/// Registers a new synchronization object with the current execution.
pub(crate) fn register_object(state: ObjState) -> usize {
    with_ctx(|ctx| {
        let mut core = ctx.exec.lock();
        core.objects.push(state);
        core.objects.len() - 1
    })
}
