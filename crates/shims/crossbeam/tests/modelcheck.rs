//! Model-check suites for the lock-free primitives in this shim. Built
//! and run only under `RUSTFLAGS="--cfg kron_loom"`, where the
//! `crossbeam::sync` facade resolves to `kron-modelcheck`'s deterministic
//! primitives:
//!
//! ```sh
//! RUSTFLAGS="--cfg kron_loom" cargo test -p crossbeam --test modelcheck
//! ```
//!
//! The suites drive the *production* `ArrayQueue` and channel code (not
//! simplified replicas) through every schedule within the preemption
//! bound. That channel is the one flavor behind the serving runtime's
//! admission lanes.
//! Mutation-validation tests re-introduce a historical bug shape (a
//! dropped sleeper-handshake fence) and assert the checker still catches
//! it — if these fail, the checker has gone blind.
#![cfg(kron_loom)]

use crossbeam::channel::bounded;
use crossbeam::queue::ArrayQueue;
use crossbeam::sync::atomic::{fence, AtomicUsize, Ordering};
use crossbeam::sync::{Arc, Condvar, Mutex};
use kron_modelcheck::{model, thread, Builder, FailureKind};

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

// ---------------------------------------------------------------- ArrayQueue

#[test]
fn array_queue_seq_lap_protocol_single_thread() {
    // Lap arithmetic under the model primitives: full ring rejects,
    // wraparound preserves FIFO.
    model(|| {
        let q = ArrayQueue::new(2);
        q.push(1u32).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn array_queue_spsc_no_loss_no_reorder() {
    check_pass("spsc", || {
        let q = Arc::new(ArrayQueue::new(2));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            q2.push(10u32).unwrap();
            q2.push(20).unwrap();
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        // FIFO per producer: exactly the sent values, in order.
        assert_eq!(got, vec![10, 20]);
        assert_eq!(q.pop(), None);
        producer.join().unwrap();
    });
}

#[test]
fn array_queue_mpsc_no_loss_no_duplication() {
    check_pass("mpsc", || {
        let q = Arc::new(ArrayQueue::new(2));
        let producers: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(v).unwrap())
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        got.sort_unstable();
        // Linearizable MPMC: every pushed value popped exactly once.
        assert_eq!(got, vec![1, 2]);
        for p in producers {
            p.join().unwrap();
        }
    });
}

#[test]
fn array_queue_contended_push_never_overfills() {
    check_pass("contended-push", || {
        let q = Arc::new(ArrayQueue::new(2));
        let pushers: Vec<_> = (0..3u32)
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(v).is_ok())
            })
            .collect();
        let oks = pushers
            .into_iter()
            .map(|p| p.join().unwrap())
            .filter(|ok| *ok)
            .count();
        // Capacity 2: under every interleaving exactly one contender is
        // turned away and both stored values survive.
        assert_eq!(oks, 2);
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 2, "duplicated value escaped the ring");
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn array_queue_len_stays_within_capacity() {
    // `len` races a worker that pushes one and pops two: a pop landing
    // between `len`'s two cursor loads must not wrap `tail - head`, since
    // work stealing reads the result as a victim's depth.
    check_pass("len-bound", || {
        let q = Arc::new(ArrayQueue::new(2));
        q.push(1u32).unwrap();
        let q2 = Arc::clone(&q);
        let worker = thread::spawn(move || {
            q2.push(2).unwrap();
            assert_eq!(q2.pop(), Some(1));
            assert_eq!(q2.pop(), Some(2));
        });
        let len = q.len();
        assert!(len <= q.capacity(), "len() read {len} on a ring of 2");
        worker.join().unwrap();
    });
}

// ------------------------------------------------------- sleeper handshake

#[test]
fn ring_channel_no_lost_wakeup() {
    // The production handshake: consumer registers as a sleeper and
    // re-checks under SeqCst fences; producer fences before deciding
    // whether anyone needs a wakeup. A lost wakeup parks the consumer
    // forever, which the explorer reports as a deadlock — so this test
    // passing means no schedule loses the wakeup.
    check_pass("no-lost-wakeup", || {
        let ch = Arc::new(bounded::<u32>(2));
        let ch2 = Arc::clone(&ch);
        let producer = thread::spawn(move || ch2.send(7));
        assert_eq!(ch.recv(), 7);
        producer.join().unwrap();
    });
}

#[test]
fn ring_channel_two_messages_fifo() {
    check_pass("ring-fifo", || {
        let ch = Arc::new(bounded::<u32>(2));
        let ch2 = Arc::clone(&ch);
        let producer = thread::spawn(move || {
            ch2.send(1);
            ch2.send(2);
        });
        assert_eq!(ch.recv(), 1);
        assert_eq!(ch.recv(), 2);
        producer.join().unwrap();
    });
}

// ----------------------------------------------------- mutation validation

/// `#[cfg(test)]`-only mutant replica of the channel's sleeper
/// handshake, with the producer-side `SeqCst` fence made optional. The
/// code shape deliberately mirrors `Channel::send`'s notify and
/// `Channel::recv` with its `park` (the handshake behind `recv` and
/// `recv_timeout`, here without a deadline) line for line.
struct SleeperHandshake {
    ring: ArrayQueue<u32>,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    ready: Condvar,
    producer_fence: bool,
}

impl SleeperHandshake {
    fn new(producer_fence: bool) -> Self {
        SleeperHandshake {
            ring: ArrayQueue::new(2),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            ready: Condvar::new(),
            producer_fence,
        }
    }

    fn send(&self, v: u32) {
        self.ring.push(v).unwrap();
        if self.producer_fence {
            fence(Ordering::SeqCst);
        }
        // MUTANT SITE: without the fence above, this relaxed read may
        // miss a registration that raced the push, and the wakeup is
        // lost.
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.ready.notify_all();
        }
    }

    fn recv(&self) -> u32 {
        loop {
            if let Some(v) = self.ring.pop() {
                return v;
            }
            let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if !self.ring.is_empty() {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                thread::yield_now();
                continue;
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
            drop(guard);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn run_handshake(
    producer_fence: bool,
) -> Result<kron_modelcheck::Report, kron_modelcheck::Failure> {
    explorer().check(move || {
        let hs = Arc::new(SleeperHandshake::new(producer_fence));
        let hs2 = Arc::clone(&hs);
        let producer = thread::spawn(move || hs2.send(7));
        assert_eq!(hs.recv(), 7);
        producer.join().unwrap();
    })
}

#[test]
fn handshake_replica_with_fence_is_sound() {
    // Baseline: the replica with the fence intact must verify, proving
    // the mutant test below fails for the *fence* and not some other
    // artifact of the replica.
    run_handshake(true).expect("fenced handshake must never lose a wakeup");
}

#[test]
fn checker_catches_dropped_fence_lost_wakeup() {
    // Mutation validation: dropping the producer-side fence must be
    // caught as a lost wakeup (consumer parked forever). If this test
    // fails, the model checker has gone blind to the bug class PR 9's
    // sleeper handshake exists to prevent.
    let failure = run_handshake(false)
        .expect_err("the dropped-fence mutant must lose a wakeup under some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock),
        "expected a lost-wakeup deadlock, got: {failure}"
    );
}
