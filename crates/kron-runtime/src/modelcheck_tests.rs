//! Deterministic model-check suites for the runtime's lock-free
//! admission protocols, exploring every thread interleaving within a
//! preemption bound instead of hoping a stress test gets lucky.
//!
//! Three protocols are covered, each driven through the *production*
//! code (the same functions the submit path runs, reached through the
//! `crossbeam::sync` facade):
//!
//! * [`LaneGate`] — close vs. concurrent senders: once `close()`
//!   returns, no sender is inside the gate and anything pushed next is
//!   provably the last message on the ring.
//! * the bypass CAS claim ([`bypass_try_claim`] /
//!   [`bypass_release_claim`]) — mutual exclusion of the inline lane,
//!   no gauge underflow, no double-win.
//! * the [`FlightRecorder`] seqlock — drains never observe torn or
//!   unpublished event bytes, at ring capacities small enough that
//!   writers lap readers inside the exploration budget, and two writers
//!   a lap apart on one slot never tear an event a drain keeps (the
//!   production [`claim_event_slot`] under a shadow slot whose event
//!   the checker can see torn).
//!
//! Plus mutation validation: a check-then-claim replica of the bypass
//! race PR 9's CAS fixed, a no-recheck replica of the seqlock drain,
//! and the unconditional odd-`seq` store the recorder's claim replaced,
//! each asserted to be *caught*. If those tests fail, the checker has
//! gone blind to the bug classes this module exists to prevent.

use crate::runtime::{bypass_release_claim, bypass_try_claim, LaneGate};
use crate::trace::{claim_event_slot, FlightRecorder, ServeEvent, ServeEventKind};
use crossbeam::queue::ArrayQueue;
use crossbeam::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crossbeam::sync::Arc;
use kron_modelcheck::{thread, Builder, FailureKind};

fn explorer() -> Builder {
    Builder {
        preemption_bound: 2,
        max_iterations: 400_000,
        max_branches: 20_000,
        random_walks: 2_000,
        ..Builder::default()
    }
}

fn check_pass(name: &str, f: impl Fn() + Send + Sync + 'static) {
    let report = explorer()
        .check(f)
        .unwrap_or_else(|failure| panic!("{name}: {failure}"));
    eprintln!(
        "{name}: {} iterations (exhaustive: {})",
        report.iterations, report.exhaustive
    );
}

// ------------------------------------------------------------- LaneGate

#[test]
fn lane_gate_close_vs_send_shutdown_is_last() {
    // The shutdown protocol: senders enter the gate, push, exit; the
    // closer closes (waits for the sender count to drain) and then
    // pushes a shutdown marker. Under every interleaving the marker
    // must be the last message in the ring — a sender that won entry
    // finished its push before `close()` returned, and one that lost
    // pushed nothing.
    check_pass("gate-shutdown-last", || {
        const MARKER: u32 = 99;
        let gate = Arc::new(LaneGate::new());
        let ring = Arc::new(ArrayQueue::new(4));
        let senders: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|v| {
                let gate = Arc::clone(&gate);
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    if gate.try_enter() {
                        ring.push(v).unwrap();
                        gate.exit();
                        true
                    } else {
                        false
                    }
                })
            })
            .collect();
        gate.close();
        assert!(gate.is_closed());
        ring.push(MARKER).unwrap();
        let admitted: Vec<bool> = senders.into_iter().map(|s| s.join().unwrap()).collect();
        let mut drained = Vec::new();
        while let Some(v) = ring.pop() {
            drained.push(v);
        }
        assert_eq!(
            drained.last(),
            Some(&MARKER),
            "a sender pushed after close() returned"
        );
        // Exactly the admitted senders' messages precede the marker.
        assert_eq!(
            drained.len() - 1,
            admitted.iter().filter(|ok| **ok).count(),
            "admission decisions and ring contents disagree"
        );
    });
}

#[test]
fn lane_gate_enter_after_close_always_rejected() {
    check_pass("gate-closed-rejects", || {
        let gate = Arc::new(LaneGate::new());
        let gate2 = Arc::clone(&gate);
        let closer = thread::spawn(move || gate2.close());
        // A sender racing the closer either wins entry (and exits, so
        // close can drain) or is rejected; after the close completes,
        // entry must always be rejected.
        if gate.try_enter() {
            gate.exit();
        }
        closer.join().unwrap();
        assert!(!gate.try_enter(), "closed gate admitted a sender");
    });
}

// ------------------------------------------------------- bypass claim

#[test]
fn bypass_claim_is_mutually_exclusive() {
    // Two submitters race the idleness claim on one lane gauge. The
    // CAS guarantees at most one is inside the inline section at a
    // time, and the gauge returns to exactly zero when both are done
    // (no underflow, no leaked claim).
    check_pass("bypass-claim-mutex", || {
        let gauge = Arc::new(AtomicU64::new(0));
        let holders = Arc::new(AtomicUsize::new(0));
        let contenders: Vec<_> = (0..2)
            .map(|_| {
                let gauge = Arc::clone(&gauge);
                let holders = Arc::clone(&holders);
                thread::spawn(move || {
                    if bypass_try_claim(&gauge) {
                        // The inline critical section: no other claimant
                        // may be here concurrently.
                        let prev = holders.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "two submitters won the bypass claim at once");
                        holders.fetch_sub(1, Ordering::Relaxed);
                        bypass_release_claim(&gauge);
                        true
                    } else {
                        false
                    }
                })
            })
            .collect();
        let wins = contenders
            .into_iter()
            .map(|c| c.join().unwrap())
            .filter(|won| *won)
            .count();
        // Sequential wins are legal (claim, release, other claims);
        // what is not legal is zero wins — the gauge started idle, so
        // at least the first CAS to land must succeed.
        assert!(wins >= 1, "an idle lane rejected every claimant");
        assert_eq!(gauge.load(Ordering::Acquire), 0, "leaked bypass claim");
    });
}

/// MUTANT: the check-then-claim race the CAS in [`bypass_try_claim`]
/// exists to prevent — a separate load and store, as the bypass lane
/// shipped before PR 9's fix. Two submitters can both observe an idle
/// lane and both enter the inline section.
fn mutant_check_then_claim(gauge: &AtomicU64) -> bool {
    if gauge.load(Ordering::Acquire) == 0 {
        gauge.store(1, Ordering::Release);
        return true;
    }
    false
}

#[test]
fn checker_catches_check_then_claim_race() {
    // Mutation validation: the same harness as
    // `bypass_claim_is_mutually_exclusive`, with the CAS replaced by
    // the load-then-store mutant, must FAIL — both submitters racing
    // into the critical section trips the holders assert. If this test
    // fails, the checker has gone blind to the bypass race bug class.
    let failure = explorer()
        .check(|| {
            let gauge = Arc::new(AtomicU64::new(0));
            let holders = Arc::new(AtomicUsize::new(0));
            let contenders: Vec<_> = (0..2)
                .map(|_| {
                    let gauge = Arc::clone(&gauge);
                    let holders = Arc::clone(&holders);
                    thread::spawn(move || {
                        if mutant_check_then_claim(&gauge) {
                            let prev = holders.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(prev, 0, "double-claim");
                            holders.fetch_sub(1, Ordering::Relaxed);
                            gauge.fetch_sub(1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for c in contenders {
                c.join().unwrap();
            }
        })
        .expect_err("the check-then-claim mutant must double-admit under some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Panic),
        "expected the double-claim assert to fire, got: {failure}"
    );
}

// -------------------------------------------------- seqlock recorder

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
fn flight_recorder_drain_never_tears() {
    // The production seqlock at ring capacity 2: a writer records two
    // events while the main thread drains concurrently, then a final
    // quiescent drain collects stragglers. The recorder is lossy by
    // design (a drain skips slots a writer is mid-overwrite on), so the
    // invariant is coherence, not completeness: every drained event is
    // one that was actually recorded, in record order, never torn bytes
    // or an unpublished slot.
    check_pass("seqlock-no-torn-read", || {
        let rec = Arc::new(FlightRecorder::with_capacity(2));
        let rec2 = Arc::clone(&rec);
        let writer = thread::spawn(move || {
            rec2.record(ev(1));
            rec2.record(ev(2));
        });
        let mut got: Vec<u64> = rec.drain().iter().map(|e| e.at_us).collect();
        writer.join().unwrap();
        got.extend(rec.drain().iter().map(|e| e.at_us));
        // Subsequence of the recorded sequence: in order, no invented
        // values, no duplicates.
        let mut expect = [1u64, 2].iter();
        for v in &got {
            assert!(
                expect.any(|e| e == v),
                "drained {v}: torn, duplicated, or out-of-order event"
            );
        }
    });
}

/// Shadow seqlock with the guarded value split across two atomic
/// halves, exposing the torn-read surface the real recorder's
/// `MaybeUninit` bytes hide from instrumentation. Protocol mirrors
/// `FlightRecorder::{record, drain}`: odd/even seq, Release fence
/// before the halves, Acquire fence plus seq re-check after.
struct ShadowSeqlock {
    seq: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
    /// MUTANT SITE: `false` drops the drain-side seq re-check.
    recheck: bool,
}

impl ShadowSeqlock {
    fn new(recheck: bool) -> Self {
        // Starts with ticket 0 published holding value 5.
        ShadowSeqlock {
            seq: AtomicU64::new(2),
            lo: AtomicU64::new(5),
            hi: AtomicU64::new(5),
            recheck,
        }
    }

    fn write(&self, ticket: u64, v: u64) {
        self.seq.store(2 * ticket + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.lo.store(v, Ordering::Relaxed);
        self.hi.store(v, Ordering::Relaxed);
        self.seq.store(2 * (ticket + 1), Ordering::Release);
    }

    fn read(&self) -> Option<u64> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 % 2 == 1 {
            return None;
        }
        let lo = self.lo.load(Ordering::Relaxed);
        let hi = self.hi.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.recheck && self.seq.load(Ordering::Acquire) != s1 {
            return None;
        }
        assert_eq!(lo, hi, "torn seqlock read");
        Some(lo)
    }
}

fn run_shadow_seqlock(recheck: bool) -> Result<kron_modelcheck::Report, kron_modelcheck::Failure> {
    explorer().check(move || {
        let sl = Arc::new(ShadowSeqlock::new(recheck));
        let sl2 = Arc::clone(&sl);
        let writer = thread::spawn(move || sl2.write(1, 9));
        if let Some(v) = sl.read() {
            assert!(v == 5 || v == 9, "invented value {v}");
        }
        writer.join().unwrap();
        assert_eq!(sl.read(), Some(9));
    })
}

#[test]
fn shadow_seqlock_with_recheck_is_sound() {
    // Baseline: with the re-check intact the replica must verify,
    // proving the mutant below fails for the *re-check* and not some
    // other artifact of the replica.
    run_shadow_seqlock(true).expect("the rechecked seqlock must never tear");
}

#[test]
fn checker_catches_seqlock_missing_recheck() {
    // Mutation validation: dropping the drain-side seq re-check must
    // be caught as a torn read (reader overlaps the writer's two half
    // stores). This is the race `FlightRecorder::drain`'s re-check
    // exists to prevent.
    let failure = run_shadow_seqlock(false)
        .expect_err("the no-recheck mutant must observe a torn read under some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Panic),
        "expected the torn-read assert to fire, got: {failure}"
    );
}

/// Shadow of one flight-recorder slot, with the event split into two
/// atomic halves so the checker can see a torn event (the recorder's
/// `MaybeUninit` bytes are invisible to it). Writers claim through the
/// production [`claim_event_slot`] and then mirror the rest of
/// `FlightRecorder::record`; reads mirror `FlightRecorder::drain`, which
/// keeps a slot only at the publication of the ticket it wants.
struct ShadowEventSlot {
    seq: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
    /// MUTANT SITE: `false` claims with the unconditional odd store the
    /// recorder shipped before its claim CAS.
    claim: bool,
}

impl ShadowEventSlot {
    fn record(&self, t: u64, v: u64) {
        if self.claim {
            if !claim_event_slot(&self.seq, t) {
                return;
            }
        } else {
            self.seq.store(2 * t + 1, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        self.lo.store(v, Ordering::Relaxed);
        self.hi.store(v, Ordering::Relaxed);
        self.seq.store(2 * (t + 1), Ordering::Release);
    }

    fn read(&self, t: u64) -> Option<u64> {
        let want = 2 * (t + 1);
        if self.seq.load(Ordering::Acquire) != want {
            return None;
        }
        let lo = self.lo.load(Ordering::Relaxed);
        let hi = self.hi.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Acquire) != want {
            return None;
        }
        assert_eq!(lo, hi, "drain kept a torn event");
        Some(lo)
    }
}

/// One model execution: two writers a lap apart and a drain on one
/// shadow slot (capacity 1, so tickets 0 and 1 share it).
fn lapped_writers(claim: bool) {
    let slot = Arc::new(ShadowEventSlot {
        seq: AtomicU64::new(0),
        lo: AtomicU64::new(0),
        hi: AtomicU64::new(0),
        claim,
    });
    let writers: Vec<_> = [(0u64, 7u64), (1, 9)]
        .into_iter()
        .map(|(t, v)| {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.record(t, v))
        })
        .collect();
    // The drain wants ticket 1, the newest, as `drain` does once the ring
    // has lapped.
    if let Some(v) = slot.read(1) {
        assert_eq!(v, 9, "drain kept another ticket's event");
    }
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn flight_recorder_lapped_writers_never_tear() {
    // Two writers a lap apart race for one slot while a drain reads it.
    // The claim lets at most one of them write, and `seq` only grows, so
    // a drain that reads ticket 1's publication before and after its
    // copy read ticket 1's bytes alone.
    check_pass("lapped-writers", || lapped_writers(true));
}

#[test]
fn checker_catches_lapped_writer_tear() {
    // Mutation validation: with the unconditional odd store, ticket 0's
    // writer can write over ticket 1's published event while a drain
    // copies it, and the drain's seq re-check still reads ticket 1's
    // publication, so it keeps the torn halves.
    let failure = explorer()
        .check(|| lapped_writers(false))
        .expect_err("the unconditional-store mutant must tear an event under some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Panic),
        "expected the torn-event assert to fire, got: {failure}"
    );
}
