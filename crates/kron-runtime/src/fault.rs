//! The scripted chaos plane: deterministic fault injection for the
//! serving runtime.
//!
//! PR 3's [`crate::Runtime::inject_device_fault`] armed exactly one panic
//! on the next sharded execute. Chaos drills need more vocabulary: fault
//! device *g* on the *N*th sharded batch, or at clock time *T*; fire the
//! same fault `repeat` consecutive times (how breaker-trip scenarios are
//! scripted); or stall a device instead of panicking it, exercising the
//! watchdog path ([`kron_core::KronError::DeviceTimeout`]). A
//! [`FaultPlan`] scripts any mix of these; the runtime consumes events
//! one per firing opportunity, deterministically under a manual clock.
//!
//! The plane is observable but never on the hot path: a disarmed plane
//! costs one atomic load plus one atomic increment per sharded execute —
//! no lock, no allocation — preserving the zero-allocation steady-state
//! contract with retry and chaos machinery compiled in.

use crate::metrics::MetricsHub;
use crate::trace::ServeEventKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// When a scripted fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// On the `n`th sharded execute of the runtime's lifetime (0-based,
    /// counted across models, dtypes, and retries) — or the first
    /// opportunity after it, if the `n`th has already passed when the
    /// plan is installed.
    OnShardedBatch(u64),
    /// At or after the given absolute time, in microseconds on the
    /// runtime's [`crate::clock::Clock`] (see
    /// [`crate::Runtime::now_us`]).
    AtTimeUs(u64),
}

/// What a scripted fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The target device raises (and catches) a panic mid-batch — the
    /// classic injected device fault, now scriptable. The batch fails
    /// with [`kron_core::KronError::DeviceFailure`].
    Panic,
    /// The target device parks for `stall_us` of clock time at batch
    /// start. Within the runtime's watchdog budget (2 s on the runtime's
    /// clock) this is a latency blip; past it, the batch fails with the
    /// bounded [`kron_core::KronError::DeviceTimeout`].
    Stall {
        /// How long the device stalls, in clock microseconds.
        stall_us: u64,
    },
    /// The scheduler thread itself panics at the top of its next serve
    /// cycle (the `gpu` field is ignored). Drills the panic-containment
    /// path: pending tickets fail with
    /// [`kron_core::KronError::Shutdown`] and the runtime is poisoned.
    SchedulerPanic,
}

/// One scripted fault event of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target simulated device (linear id on the configured machine;
    /// ignored by [`FaultKind::SchedulerPanic`]).
    pub gpu: usize,
    /// When the event becomes due.
    pub trigger: FaultTrigger,
    /// How many consecutive firing opportunities the event fires on once
    /// due: at least 1, since [`crate::Runtime::install_fault_plan`]
    /// rejects 0 with [`kron_core::KronError::EmptyDimension`].
    /// `repeat > 1` is how a breaker trip is scripted: the same device
    /// fails again on each retry.
    pub repeat: u32,
    /// What the event does.
    pub kind: FaultKind,
}

/// A deterministic fault script for chaos drills, installed with
/// [`crate::Runtime::install_fault_plan`]. Events are consumed in script
/// order among those due at a firing opportunity; device events whose
/// target lies outside the currently-degraded grid stay pending until a
/// grid containing the device executes again — so a quarantined device
/// stops burning scripted faults (and retry budget) exactly like the real
/// machine it models.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted events, in priority order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (installing it disarms the plane).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an arbitrary event.
    pub fn event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Panic device `gpu` on sharded batch `batch` (once).
    pub fn panic_on_batch(self, gpu: usize, batch: u64) -> Self {
        self.event(FaultEvent {
            gpu,
            trigger: FaultTrigger::OnShardedBatch(batch),
            repeat: 1,
            kind: FaultKind::Panic,
        })
    }

    /// Panic device `gpu` on sharded batch `batch` and the next
    /// `repeat - 1` firing opportunities after it (retries included).
    pub fn panic_on_batch_repeat(self, gpu: usize, batch: u64, repeat: u32) -> Self {
        self.event(FaultEvent {
            gpu,
            trigger: FaultTrigger::OnShardedBatch(batch),
            repeat,
            kind: FaultKind::Panic,
        })
    }

    /// Panic device `gpu` on the first sharded execute at or after clock
    /// time `at_us`.
    pub fn panic_at_time(self, gpu: usize, at_us: u64) -> Self {
        self.event(FaultEvent {
            gpu,
            trigger: FaultTrigger::AtTimeUs(at_us),
            repeat: 1,
            kind: FaultKind::Panic,
        })
    }

    /// Stall device `gpu` for `stall_us` of clock time on sharded batch
    /// `batch`.
    pub fn stall_on_batch(self, gpu: usize, batch: u64, stall_us: u64) -> Self {
        self.event(FaultEvent {
            gpu,
            trigger: FaultTrigger::OnShardedBatch(batch),
            repeat: 1,
            kind: FaultKind::Stall { stall_us },
        })
    }

    /// Panic the scheduler thread at its first serve cycle at or after
    /// clock time `at_us`.
    pub fn scheduler_panic_at_time(self, at_us: u64) -> Self {
        self.event(FaultEvent {
            gpu: 0,
            trigger: FaultTrigger::AtTimeUs(at_us),
            repeat: 1,
            kind: FaultKind::SchedulerPanic,
        })
    }
}

/// Whether an event's trigger is due at the given batch number / time.
fn due(trigger: FaultTrigger, batch: u64, now_us: u64) -> bool {
    match trigger {
        FaultTrigger::OnShardedBatch(n) => batch >= n,
        FaultTrigger::AtTimeUs(t) => now_us >= t,
    }
}

/// Mutable script state behind the plane's mutex.
#[derive(Default)]
struct PlaneState {
    events: Vec<FaultEvent>,
}

/// The runtime side of the chaos plane, shared between the [`crate::Runtime`]
/// handle (install/inject) and the scheduler (consume). The `armed` flag
/// keeps the disarmed fast path to one atomic load; `sharded_seq` is the
/// lifetime sharded-execute counter [`FaultTrigger::OnShardedBatch`]
/// triggers index.
pub(crate) struct FaultPlane {
    armed: AtomicBool,
    sharded_seq: AtomicU64,
    state: Mutex<PlaneState>,
    hub: Arc<MetricsHub>,
}

impl FaultPlane {
    /// A disarmed plane; injected faults are recorded into `hub`'s
    /// flight recorder when they fire.
    pub(crate) fn new(hub: Arc<MetricsHub>) -> Self {
        FaultPlane {
            armed: AtomicBool::new(false),
            sharded_seq: AtomicU64::new(0),
            state: Mutex::new(PlaneState::default()),
            hub,
        }
    }

    /// Replaces the script wholesale (an empty plan disarms).
    pub(crate) fn install(&self, plan: FaultPlan) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.events = plan.events;
        for ev in &mut st.events {
            ev.repeat = ev.repeat.max(1);
        }
        self.armed.store(!st.events.is_empty(), Ordering::SeqCst);
    }

    /// Appends one event to the live script (how the one-shot
    /// `inject_device_fault` compatibility path arms).
    pub(crate) fn push(&self, mut event: FaultEvent) {
        event.repeat = event.repeat.max(1);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.events.push(event);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Remaining scripted firing opportunities (the sum of every pending
    /// event's `repeat`): `0` once the script has fully played out.
    pub(crate) fn pending(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .iter()
            .map(|ev| ev.repeat as usize)
            .sum()
    }

    /// The sharded-execute number the *next* execute will carry — the
    /// batch an `OnShardedBatch` event must target to fire "next".
    pub(crate) fn current_batch(&self) -> u64 {
        self.sharded_seq.load(Ordering::SeqCst)
    }

    /// Called once per sharded execute (this is what advances the batch
    /// counter): returns the device fault to arm for this execute, if one
    /// is due and its target lies inside the executing grid's `gpus`
    /// devices. Scheduler-panic events are never returned here (see
    /// [`Self::scheduler_panic_due`]).
    pub(crate) fn next_device_fault(&self, now_us: u64, gpus: usize) -> Option<(usize, FaultKind)> {
        let batch = self.sharded_seq.fetch_add(1, Ordering::SeqCst);
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let idx = st.events.iter().position(|ev| {
            !matches!(ev.kind, FaultKind::SchedulerPanic)
                && ev.gpu < gpus
                && due(ev.trigger, batch, now_us)
        })?;
        let fired = (st.events[idx].gpu, st.events[idx].kind);
        self.consume(&mut st.events, idx);
        self.hub.event(
            now_us,
            ServeEventKind::FaultInjected {
                gpu: fired.0 as u32,
                kind: fired.1,
            },
        );
        Some(fired)
    }

    /// Called at the top of each serve cycle: consumes and reports a due
    /// scheduler-panic event.
    pub(crate) fn scheduler_panic_due(&self, now_us: u64) -> bool {
        if !self.armed.load(Ordering::SeqCst) {
            return false;
        }
        let batch = self.sharded_seq.load(Ordering::SeqCst);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(idx) = st.events.iter().position(|ev| {
            matches!(ev.kind, FaultKind::SchedulerPanic) && due(ev.trigger, batch, now_us)
        }) else {
            return false;
        };
        self.consume(&mut st.events, idx);
        true
    }

    /// Spends one firing of `events[idx]`: `Vec::remove` keeps the rest
    /// in script order, and an emptied script disarms the plane.
    fn consume(&self, events: &mut Vec<FaultEvent>, idx: usize) {
        events[idx].repeat -= 1;
        if events[idx].repeat == 0 {
            events.remove(idx);
        }
        if events.is_empty() {
            self.armed.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> FaultPlane {
        FaultPlane::new(Arc::new(MetricsHub::new(0)))
    }

    #[test]
    fn disarmed_plane_counts_batches_but_fires_nothing() {
        let plane = plane();
        assert_eq!(plane.current_batch(), 0);
        assert!(plane.next_device_fault(0, 4).is_none());
        assert!(plane.next_device_fault(0, 4).is_none());
        assert_eq!(plane.current_batch(), 2);
        assert!(!plane.scheduler_panic_due(u64::MAX));
    }

    #[test]
    fn batch_triggers_fire_at_or_after_their_batch_and_repeat() {
        let plane = plane();
        plane.install(FaultPlan::new().panic_on_batch_repeat(1, 2, 2));
        assert!(plane.next_device_fault(0, 4).is_none()); // batch 0
        assert!(plane.next_device_fault(0, 4).is_none()); // batch 1
        assert_eq!(plane.next_device_fault(0, 4), Some((1, FaultKind::Panic)));
        assert_eq!(plane.next_device_fault(0, 4), Some((1, FaultKind::Panic)));
        assert!(plane.next_device_fault(0, 4).is_none()); // exhausted
        assert_eq!(plane.pending(), 0);
    }

    #[test]
    fn time_triggers_and_stalls_fire_on_the_clock() {
        let plane = plane();
        plane.install(
            FaultPlan::new()
                .stall_on_batch(0, 0, 700)
                .panic_at_time(2, 5_000),
        );
        assert_eq!(
            plane.next_device_fault(0, 4),
            Some((0, FaultKind::Stall { stall_us: 700 }))
        );
        assert!(plane.next_device_fault(4_999, 4).is_none());
        assert_eq!(
            plane.next_device_fault(5_000, 4),
            Some((2, FaultKind::Panic))
        );
    }

    #[test]
    fn faults_outside_a_degraded_grid_stay_pending() {
        let plane = plane();
        plane.install(FaultPlan::new().panic_on_batch(3, 0));
        // Degraded to 2 devices: the device-3 fault cannot fire.
        assert!(plane.next_device_fault(0, 2).is_none());
        assert_eq!(plane.pending(), 1);
        // Back on the full grid it fires.
        assert_eq!(plane.next_device_fault(0, 4), Some((3, FaultKind::Panic)));
    }

    #[test]
    fn due_events_fire_in_script_order() {
        let plane = plane();
        plane.install(
            FaultPlan::new()
                .panic_on_batch(0, 0)
                .panic_on_batch(1, 1)
                .panic_on_batch(2, 1),
        );
        let fired: Vec<usize> = (0..3)
            .map(|_| plane.next_device_fault(0, 4).expect("due").0)
            .collect();
        assert_eq!(fired, [0, 1, 2]);
    }

    #[test]
    fn scheduler_panic_events_only_fire_through_their_own_probe() {
        let plane = plane();
        plane.install(FaultPlan::new().scheduler_panic_at_time(100));
        assert!(plane.next_device_fault(500, 4).is_none());
        assert!(!plane.scheduler_panic_due(99));
        assert!(plane.scheduler_panic_due(100));
        assert!(!plane.scheduler_panic_due(100), "one-shot");
    }
}
