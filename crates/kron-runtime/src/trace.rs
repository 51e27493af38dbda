//! Per-request stage timelines and the flight recorder: the causal half
//! of the runtime's observability surface.
//!
//! [`StageTimings`] answers *where did my microseconds go* for one
//! request — queue wait, linger window, plan resolution, execute,
//! scatter, and retry backoff, all stamped on the runtime's injectable
//! [`crate::clock::Clock`] so tests can script exact traces. The
//! [`FlightRecorder`] answers *what happened around my request*: a
//! fixed-capacity lock-free ring of recent [`ServeEvent`]s (admissions,
//! sheds, batch formation, executes, faults, retries, breaker
//! transitions, evictions) drained via [`crate::Runtime::drain_events`].
//! Recording an event is a handful of atomic stores into preallocated
//! slots — no lock, no allocation — so the steady-state zero-alloc
//! invariant proved in `serve_alloc.rs` holds with the recorder armed.

use crate::fault::FaultKind;
use crate::health::BreakerState;
use kron_core::DType;
// The seqlock's atomics and cell come through the `crossbeam::sync`
// facade so the publication protocol can be model-checked under
// `--cfg kron_loom`; normal builds get the `std` types back unchanged.
use crossbeam::sync::atomic::{fence, AtomicU64, Ordering};
use crossbeam::sync::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;

/// Per-stage latency breakdown of one served request, carried on the
/// [`crate::ServeReceipt`] returned by
/// [`crate::Ticket::wait_with_receipt`]. All values are microseconds on
/// the runtime's clock; stages a request never entered are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Channel wait: enqueue (client send) → scheduler pickup.
    pub queue_us: u64,
    /// Batching wait: scheduler pickup → linger window close.
    pub linger_us: u64,
    /// Plan-cache resolution (hit verify or miss build) on the final
    /// attempt.
    pub plan_us: u64,
    /// Kernel execution on the final attempt.
    pub exec_us: u64,
    /// Result scatter: execute end → reply fill.
    pub scatter_us: u64,
    /// Retry cost: serve start → final attempt start (backoff plus the
    /// failed attempts themselves). Zero when attempt 1 succeeds.
    pub retry_us: u64,
}

impl StageTimings {
    /// Sum of all stage components (saturating).
    pub fn total_us(&self) -> u64 {
        self.queue_us
            .saturating_add(self.linger_us)
            .saturating_add(self.plan_us)
            .saturating_add(self.exec_us)
            .saturating_add(self.scatter_us)
            .saturating_add(self.retry_us)
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue {}us | linger {}us | plan {}us | exec {}us | scatter {}us | retry {}us | total {}us",
            self.queue_us,
            self.linger_us,
            self.plan_us,
            self.exec_us,
            self.scatter_us,
            self.retry_us,
            self.total_us()
        )
    }
}

/// Why a cached plan left the cache (see [`ServeEventKind::Eviction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// Evicted because a device fault poisoned the entry.
    Failed,
    /// Swept by the idle watchdog.
    Idle,
    /// Displaced to make room under the cache byte budget.
    Capacity,
}

/// What happened, without the timestamp (see [`ServeEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEventKind {
    /// A request passed the admission gate into the scheduler channel.
    Admit {
        /// Element dtype of the request.
        dtype: DType,
        /// Model id the request targets.
        model: u64,
        /// Rows (batch m) the request carries.
        rows: u32,
        /// Admission priority.
        priority: u8,
    },
    /// A request was shed with a deadline error before executing.
    Shed {
        /// The request's absolute deadline (µs on the runtime clock).
        deadline_us: u64,
        /// Clock time when the shed decision was made.
        now_us: u64,
    },
    /// The scheduler closed a linger window and formed a batch.
    BatchFormed {
        /// Model id the batch serves.
        model: u64,
        /// Requests coalesced into the batch.
        requests: u32,
        /// Total rows across those requests.
        rows: u32,
    },
    /// One execute attempt finished.
    Execute {
        /// Rows in the executed batch.
        rows: u32,
        /// Whether the plan ran sharded across devices.
        sharded: bool,
        /// Whether the attempt succeeded.
        ok: bool,
        /// Execute wall time (µs on the runtime clock).
        exec_us: u64,
    },
    /// A device fault surfaced from an execute.
    Fault {
        /// Device the fault was attributed to.
        gpu: u32,
        /// Whether the fault was a watchdog timeout (vs a failure).
        timeout: bool,
    },
    /// The chaos plane injected a scripted fault into a plan.
    FaultInjected {
        /// Device armed to fail.
        gpu: u32,
        /// Scripted fault kind.
        kind: FaultKind,
    },
    /// The scheduler scheduled another attempt after a failure.
    Retry {
        /// Attempt number about to run (2 = first retry).
        attempt: u32,
        /// Device limit the retry will build against.
        limit_gpus: u32,
    },
    /// A retry narrowed the device grid below the configured width.
    Degrade {
        /// Configured device count.
        from_gpus: u32,
        /// Width the batch actually ran at.
        to_gpus: u32,
    },
    /// A device breaker changed state.
    Breaker {
        /// Device whose breaker moved.
        gpu: u32,
        /// State it moved to.
        to: BreakerState,
    },
    /// A cached plan was evicted.
    Eviction {
        /// Dtype of the evicted plan.
        dtype: DType,
        /// Row capacity of the evicted plan.
        capacity: u32,
        /// Why it was evicted.
        reason: EvictReason,
    },
    /// A request was served inline on the submitting thread via the
    /// low-latency bypass lane (idle queue + warm plan).
    Bypass {
        /// Element dtype of the request.
        dtype: DType,
        /// Model id the request targets.
        model: u64,
        /// Rows (batch m) the request carries.
        rows: u32,
        /// Kernel wall time (µs on the runtime clock).
        exec_us: u64,
    },
    /// An idle scheduler lane stole queued requests from a backlogged
    /// sibling lane's ring (sharded layout only).
    Steal {
        /// Lane the requests were queued on.
        from: u32,
        /// Lane that stole and served them.
        to: u32,
        /// Requests moved.
        requests: u32,
    },
}

/// One timestamped entry in the flight recorder, drained via
/// [`crate::Runtime::drain_events`]. Events are returned in causal
/// (record) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    /// Clock time the event was recorded (µs on the runtime clock).
    pub at_us: u64,
    /// What happened.
    pub kind: ServeEventKind,
}

impl fmt::Display for ServeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}us] ", self.at_us)?;
        match self.kind {
            ServeEventKind::Admit {
                dtype,
                model,
                rows,
                priority,
            } => write!(
                f,
                "admit        model={model} dtype={} rows={rows} prio={priority}",
                dtype.rust_name()
            ),
            ServeEventKind::Shed {
                deadline_us,
                now_us,
            } => write!(f, "shed         deadline={deadline_us}us now={now_us}us"),
            ServeEventKind::BatchFormed {
                model,
                requests,
                rows,
            } => write!(
                f,
                "batch-formed model={model} requests={requests} rows={rows}"
            ),
            ServeEventKind::Execute {
                rows,
                sharded,
                ok,
                exec_us,
            } => write!(
                f,
                "execute      rows={rows} sharded={sharded} ok={ok} exec={exec_us}us"
            ),
            ServeEventKind::Fault { gpu, timeout } => {
                write!(f, "fault        gpu={gpu} timeout={timeout}")
            }
            ServeEventKind::FaultInjected { gpu, kind } => {
                write!(f, "fault-inject gpu={gpu} kind={kind:?}")
            }
            ServeEventKind::Retry {
                attempt,
                limit_gpus,
            } => {
                write!(f, "retry        attempt={attempt} limit_gpus={limit_gpus}")
            }
            ServeEventKind::Degrade { from_gpus, to_gpus } => {
                write!(f, "degrade      {from_gpus} -> {to_gpus} gpus")
            }
            ServeEventKind::Breaker { gpu, to } => {
                write!(f, "breaker      gpu={gpu} -> {to:?}")
            }
            ServeEventKind::Eviction {
                dtype,
                capacity,
                reason,
            } => write!(
                f,
                "eviction     dtype={} capacity={capacity} reason={reason:?}",
                dtype.rust_name()
            ),
            ServeEventKind::Bypass {
                dtype,
                model,
                rows,
                exec_us,
            } => write!(
                f,
                "bypass       model={model} dtype={} rows={rows} exec={exec_us}us",
                dtype.rust_name()
            ),
            ServeEventKind::Steal { from, to, requests } => {
                write!(
                    f,
                    "steal        lane {from} -> lane {to} requests={requests}"
                )
            }
        }
    }
}

/// Slots in the flight recorder ring. Power of two so the ticket → slot
/// map is a mask.
pub(crate) const EVENT_CAPACITY: usize = 1024;

/// One seqlock-protected slot: `seq` is odd (`2t+1`) while ticket `t`'s
/// write is in flight and even (`2(t+1)`) once it is published, so a
/// drain can detect and discard slots it raced with. Writers claim the
/// slot with [`claim_event_slot`], so `seq` only ever grows.
struct EventSlot {
    seq: AtomicU64,
    data: UnsafeCell<MaybeUninit<ServeEvent>>,
}

/// Fixed-capacity lock-free ring of recent [`ServeEvent`]s. Writers
/// take a monotonically increasing ticket and overwrite the slot at
/// `ticket % capacity` once they claim it; drains read every published
/// slot since the last drain (bounded by capacity) in ticket order,
/// skipping slots a concurrent writer is mid-overwrite on. Recording
/// never allocates and never blocks, and it is lossy: a writer that
/// finds its slot held by another write, or already published by a
/// newer ticket, drops its event.
pub(crate) struct FlightRecorder {
    head: AtomicU64,
    drained: AtomicU64,
    slots: Box<[EventSlot]>,
}

// SAFETY: slot data is only written by the one writer whose
// `claim_event_slot` CAS took the slot, and only read through the
// seqlock protocol below — a drain accepts a slot's bytes only when
// `seq` reads the same even publication value before and after the
// copy, and since `seq` only grows, that proves no writer touched the
// slot during the read.
unsafe impl Sync for FlightRecorder {}

/// Claims a flight-recorder slot for ticket `t`: moves its `seq` to the
/// odd in-flight mark `2t + 1` from whatever even value an older ticket
/// (or no ticket) published. `false` means the event must be dropped:
/// the slot holds an odd mark (another write is in flight), or a newer
/// ticket has already published there, or another writer won the CAS.
/// A dropped claim leaves `seq` as it found it, so the next writer to
/// the slot claims it as usual, and since every claim moves `seq` up,
/// `seq` never repeats a value a drain has already checked. Extracted
/// so the model-check suite drives the same claim `record` runs.
pub(crate) fn claim_event_slot(seq: &AtomicU64, t: u64) -> bool {
    // relaxed: a speculative read; the CAS below re-validates it.
    let cur = seq.load(Ordering::Relaxed);
    if cur % 2 == 1 || cur > 2 * t {
        return false;
    }
    // Acquire on success: `cur` is an older ticket's Release publication,
    // so that ticket's data write happens before this thread's.
    // relaxed: on failure the event is dropped and nothing is read.
    seq.compare_exchange(cur, 2 * t + 1, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
}

impl FlightRecorder {
    pub(crate) fn new() -> Self {
        FlightRecorder::with_capacity(EVENT_CAPACITY)
    }

    /// A recorder with `capacity` slots (must be a power of two, so the
    /// ticket → slot map stays a mask). The runtime always uses
    /// [`EVENT_CAPACITY`]; the model-check suites shrink the ring to 2–4
    /// slots so lap/overwrite races fit inside the exploration budget.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "flight recorder capacity must be a power of two"
        );
        let slots = (0..capacity)
            .map(|_| EventSlot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRecorder {
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            slots,
        }
    }

    /// Records `event`, overwriting the oldest slot when the ring is
    /// full, or drops it when the slot cannot be claimed
    /// ([`claim_event_slot`]). Lock-free and allocation-free.
    pub(crate) fn record(&self, event: ServeEvent) {
        // relaxed: the ticket only needs atomicity — publication
        // ordering is carried entirely by the slot's seq protocol.
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(t);
        if !claim_event_slot(&slot.seq, t) {
            return;
        }
        // The odd mark the claim stored is ordered before the data write.
        fence(Ordering::Release);
        // SAFETY: the claim above made this thread the slot's one writer
        // until the publication below; a drain racing the bytes re-checks
        // `seq` and discards them.
        unsafe {
            (*slot.data.get()).write(event);
        }
        slot.seq.store(2 * (t + 1), Ordering::Release);
    }

    fn slot(&self, t: u64) -> &EventSlot {
        &self.slots[(t as usize) & (self.slots.len() - 1)]
    }

    /// Drains every event recorded since the last drain (bounded by ring
    /// capacity — older events are overwritten and lost) in record
    /// order. Cold path: allocates the result vector.
    pub(crate) fn drain(&self) -> Vec<ServeEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = self
            .drained
            .load(Ordering::Acquire)
            .max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::with_capacity((head - start) as usize);
        for t in start..head {
            let slot = self.slot(t);
            let want = 2 * (t + 1);
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            // SAFETY: seq read `want` (even, matching ticket t), so the
            // slot was fully published for t. The volatile copy plus the
            // seq re-check below detects any writer that lapped us
            // mid-copy; only unraced bytes are kept.
            let ev = unsafe { std::ptr::read_volatile(slot.data.get()) };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            // SAFETY: verified stable publication above.
            out.push(unsafe { ev.assume_init() });
        }
        self.drained.store(head, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64) -> ServeEvent {
        ServeEvent {
            at_us,
            kind: ServeEventKind::Retry {
                attempt: 1,
                limit_gpus: 4,
            },
        }
    }

    #[test]
    fn drain_returns_events_in_record_order() {
        let r = FlightRecorder::new();
        for t in 0..10 {
            r.record(ev(t));
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].at_us < w[1].at_us));
        assert!(r.drain().is_empty(), "second drain sees nothing new");
    }

    #[test]
    fn ring_overwrites_oldest_when_lapped() {
        let r = FlightRecorder::new();
        let total = EVENT_CAPACITY as u64 + 100;
        for t in 0..total {
            r.record(ev(t));
        }
        let drained = r.drain();
        assert_eq!(drained.len(), EVENT_CAPACITY);
        assert_eq!(drained.first().unwrap().at_us, 100);
        assert_eq!(drained.last().unwrap().at_us, total - 1);
    }

    #[test]
    fn drain_resumes_from_cursor() {
        let r = FlightRecorder::new();
        r.record(ev(0));
        assert_eq!(r.drain().len(), 1);
        r.record(ev(1));
        r.record(ev(2));
        let second = r.drain();
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].at_us, 1);
    }

    #[test]
    fn a_dropped_claim_does_not_strand_its_slot() {
        // Capacity 2: tickets 0, 2 and 4 share slot 0. Ticket 0's writer
        // holds its claim mid-write while tickets 1 and 2 record.
        let r = FlightRecorder::with_capacity(2);
        let t0 = r.head.fetch_add(1, Ordering::Relaxed);
        let slot0 = r.slot(t0);
        assert!(claim_event_slot(&slot0.seq, t0));
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(
            slot0.seq.load(Ordering::Relaxed),
            2 * t0 + 1,
            "ticket 2 must drop its event, not take a slot mid-write"
        );
        // Ticket 0 publishes; ticket 2's dropped claim left slot 0 there,
        // two laps behind ticket 4, and ticket 4 must still claim it.
        slot0.seq.store(2 * (t0 + 1), Ordering::Release);
        r.record(ev(3));
        r.record(ev(4));
        let got: Vec<u64> = r.drain().iter().map(|e| e.at_us).collect();
        assert_eq!(got, [3, 4]);
    }

    #[test]
    fn timings_total_and_display() {
        let t = StageTimings {
            queue_us: 1,
            linger_us: 2,
            plan_us: 3,
            exec_us: 4,
            scatter_us: 5,
            retry_us: 6,
        };
        assert_eq!(t.total_us(), 21);
        let s = t.to_string();
        assert!(s.contains("queue 1us") && s.contains("total 21us"), "{s}");
    }
}
