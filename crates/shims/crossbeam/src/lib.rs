//! Vendored API-subset shim of [crossbeam](https://crates.io/crates/crossbeam).
//!
//! Provides `crossbeam::channel::{bounded, Sender, Receiver}` with
//! clonable ends, plus `queue::ArrayQueue` — the surfaces used by the
//! serving runtime's sharded admission lanes.
//!
//! One channel flavor: [`channel::bounded`], a lock-free bounded MPMC
//! ring ([`queue::ArrayQueue`], Vyukov's algorithm) with condvar-assisted
//! parking for blocking receives. Producers never take a lock on the
//! fast path (they only touch the condvar mutex when a receiver has
//! registered itself as sleeping), so N submitter threads scale without
//! serializing on admission. The ring is preallocated at construction —
//! sends never allocate, preserving zero-alloc steady-state serving.

#![deny(missing_docs)]

/// Synchronization facade: real `std` primitives normally, and the
/// `kron-modelcheck` deterministic replacements when the workspace is
/// built with `RUSTFLAGS="--cfg kron_loom"`.
///
/// Every sync-sensitive path in this crate (the Vyukov ring, the sleeper
/// handshake) goes through this module, so the model-check suites in
/// `tests/modelcheck.rs` drive the *exact* production protocol — same
/// code, swapped primitives. Release builds resolve every re-export to
/// the `std` type; the facade compiles away completely.
pub mod sync {
    /// Atomic types and fences (`std::sync::atomic` surface).
    pub mod atomic {
        #[cfg(kron_loom)]
        pub use kron_modelcheck::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
        #[cfg(not(kron_loom))]
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }
    /// Interior mutability (`std::cell::UnsafeCell` surface).
    pub mod cell {
        #[cfg(kron_loom)]
        pub use kron_modelcheck::cell::UnsafeCell;
        #[cfg(not(kron_loom))]
        pub use std::cell::UnsafeCell;
    }
    /// Busy-wait hint; a schedulable yield under the model.
    pub mod hint {
        #[cfg(kron_loom)]
        pub use kron_modelcheck::hint::spin_loop;
        #[cfg(not(kron_loom))]
        pub use std::hint::spin_loop;
    }
    /// Cooperative yield; deprioritizes the thread under the model.
    pub mod thread {
        #[cfg(kron_loom)]
        pub use kron_modelcheck::thread::yield_now;
        #[cfg(not(kron_loom))]
        pub use std::thread::yield_now;
    }
    #[cfg(kron_loom)]
    pub use kron_modelcheck::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    #[cfg(not(kron_loom))]
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
}

/// Lock-free concurrent queues, mirroring `crossbeam::queue`.
pub mod queue {
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::cell::UnsafeCell;
    use std::mem::MaybeUninit;

    /// One slot of the ring. `seq` encodes the slot's lap state: writers
    /// may claim the slot when `seq == pos`, readers when `seq == pos + 1`.
    struct Slot<T> {
        seq: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free multi-producer multi-consumer queue (Dmitry
    /// Vyukov's bounded MPMC ring). Capacity is rounded up to a power of
    /// two; all storage is allocated once at construction, so `push`/`pop`
    /// never allocate.
    pub struct ArrayQueue<T> {
        slots: Box<[Slot<T>]>,
        mask: usize,
        head: AtomicUsize,
        tail: AtomicUsize,
    }

    // SAFETY: the queue owns its values; sending the whole queue moves
    // them to one thread, which is safe whenever `T: Send`.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: a slot's value cell is only touched by the thread that
    // CAS-claimed the matching head/tail position for the current lap,
    // and the claim/publish protocol on `seq` (Acquire load before the
    // access, Release store after) makes each value write happen-before
    // the read that consumes it. `T: Send` suffices — values cross
    // threads, they are never aliased.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at least `capacity` elements (rounded
        /// up to the next power of two, minimum 2).
        pub fn new(capacity: usize) -> Self {
            let cap = capacity.max(2).next_power_of_two();
            let slots = (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            ArrayQueue {
                slots,
                mask: cap - 1,
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
            }
        }

        /// Number of slots (always a power of two).
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Attempts to enqueue; returns the value back if the ring is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            // relaxed: speculative cursor read — the claiming CAS below
            // re-validates against the slot's Acquire-loaded seq.
            let mut pos = self.tail.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos & self.mask];
                let seq = slot.seq.load(Ordering::Acquire);
                let diff = seq as isize - pos as isize;
                if diff == 0 {
                    // Slot is free for this lap; try to claim it.
                    // relaxed: the CAS only reserves index `pos`; the slot's
                    // `seq` (Acquire above, Release below) orders the value.
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the tail CAS made this thread the
                            // unique claimant of slot `pos` for this lap;
                            // readers wait for the Release store of
                            // `pos + 1` below before touching the cell.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(actual) => pos = actual,
                    }
                } else if diff < 0 {
                    // The slot still holds a value from `mask + 1` laps
                    // ago: the ring is full.
                    return Err(value);
                } else {
                    // relaxed: stale-cursor refresh; validated on the
                    // next pass of the claim loop.
                    pos = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Attempts to dequeue; returns `None` if the ring is empty.
        pub fn pop(&self) -> Option<T> {
            // relaxed: speculative cursor read — the claiming CAS below
            // re-validates against the slot's Acquire-loaded seq.
            let mut pos = self.head.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos & self.mask];
                let seq = slot.seq.load(Ordering::Acquire);
                let diff = seq as isize - pos.wrapping_add(1) as isize;
                if diff == 0 {
                    // relaxed: the CAS only reserves index `pos`; the slot's
                    // `seq` (Acquire above, Release below) orders the value.
                    match self.head.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the head CAS made this thread the
                            // unique consumer of slot `pos`; the Acquire
                            // load of `seq == pos + 1` above synchronized
                            // with the writer's Release store, so the
                            // value is fully initialized and unaliased.
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            // Mark the slot writable for the next lap.
                            slot.seq
                                .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                } else if diff < 0 {
                    return None;
                } else {
                    // relaxed: stale-cursor refresh; validated on the
                    // next pass of the claim loop.
                    pos = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// Approximate number of queued elements (racy snapshot), always
        /// within `0..=capacity()`.
        pub fn len(&self) -> usize {
            // Work stealing sizes its steal from this snapshot, so it must
            // stay in range. Both cursors only grow and `head <= tail`:
            // loading `head` first keeps the difference from going
            // negative when a pop lands between the loads, and the clamp
            // bounds pushes landing there (or a stale `tail` where loads
            // may reorder).
            // relaxed: a racy snapshot, bounded by the load order and clamp.
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Relaxed);
            (tail.wrapping_sub(head) as isize).clamp(0, self.capacity() as isize) as usize
        }

        /// Whether the queue currently looks empty (racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }
}

/// Multi-producer multi-consumer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use crate::sync::atomic::{fence, AtomicUsize, Ordering};
    use crate::sync::{Arc, Condvar, Mutex};
    use std::fmt;
    // Wall-clock deadlines are inherently non-deterministic, so
    // `recv_timeout` is not model-exercised (model suites use `recv` /
    // `try_recv`, which never read the clock); under `kron_loom` the timed
    // wait still compiles because the model condvar ignores the duration.
    use std::time::{Duration, Instant};

    use crate::queue::ArrayQueue;

    /// State shared by every end of one channel.
    struct Shared<T> {
        ring: ArrayQueue<T>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Number of receivers parked (or about to park) on `ready`.
        /// Producers only touch the condvar mutex when this is non-zero.
        sleepers: AtomicUsize,
        lock: Mutex<()>,
        ready: Condvar,
    }

    impl<T> Shared<T> {
        /// Wakes parked receivers if any are registered. Pairs a SeqCst
        /// fence after the producer's push with one after the consumer's
        /// sleeper registration so a wakeup can never be missed.
        fn notify(&self) {
            fence(Ordering::SeqCst);
            // relaxed: ordered by the SeqCst fence above, paired with
            // the receiver's post-registration fence (model-checked).
            if self.sleepers.load(Ordering::Relaxed) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.ready.notify_all();
            }
        }

        /// The one blocking receive behind [`Receiver::recv`] and
        /// [`Receiver::recv_timeout`]: pops a message, or parks on the
        /// condvar until a send, the last sender's drop, or `deadline`
        /// (`None`: no deadline, and the clock is never read).
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            loop {
                if let Some(v) = self.ring.pop() {
                    return Ok(v);
                }
                if self.senders.load(Ordering::Acquire) == 0 {
                    // Catch a send racing the disconnect check.
                    return self.ring.pop().ok_or(RecvTimeoutError::Disconnected);
                }
                let wait = match deadline {
                    Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return Err(RecvTimeoutError::Timeout),
                    },
                    None => None,
                };
                let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                // Re-check after registering: a producer that missed our
                // registration must have pushed before it.
                if !self.ring.is_empty() || self.senders.load(Ordering::Acquire) == 0 {
                    self.sleepers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                    // The racing producer may have claimed its slot but
                    // not yet published the value; give it the CPU rather
                    // than re-polling a torn ring.
                    crate::sync::thread::yield_now();
                    continue;
                }
                let guard = match wait {
                    Some(left) => {
                        let woke = self.ready.wait_timeout(guard, left);
                        woke.unwrap_or_else(|e| e.into_inner()).0
                    }
                    None => self.ready.wait(guard).unwrap_or_else(|e| e.into_inner()),
                };
                drop(guard);
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel is empty"),
                TryRecvError::Disconnected => f.write_str("channel is disconnected"),
            }
        }
    }

    /// Creates a bounded lock-free MPMC channel holding at least `capacity`
    /// messages (rounded up to a power of two). Both ends are clonable —
    /// cloned receivers make the channel work-stealable. `send` spins (with
    /// yields) while the ring is full, providing backpressure without a
    /// lock; `recv` parks on a condvar only after the ring is observed
    /// empty.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            ring: ArrayQueue::new(capacity),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a message, spin-yielding while the ring is full
        /// (backpressure). Fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &self.shared;
            let mut value = value;
            let mut spins = 0u32;
            loop {
                if shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                match shared.ring.push(value) {
                    Ok(()) => {
                        shared.notify();
                        return Ok(());
                    }
                    Err(v) => value = v,
                }
                // Full ring: a consumer exists (checked above) and is
                // draining, so back off briefly and retry.
                spins += 1;
                if spins < 64 {
                    crate::sync::hint::spin_loop();
                } else {
                    crate::sync::thread::yield_now();
                }
            }
        }

        /// Approximate number of queued messages (racy snapshot).
        pub fn len(&self) -> usize {
            self.shared.ring.len()
        }

        /// Whether the channel currently looks empty (racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            // relaxed: publishes nothing (as in `Arc::clone`); this live
            // sender keeps the count nonzero, so no one sees it hit zero.
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake parked receivers so they can observe
                // the disconnect.
                let _guard = self.shared.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.shared.recv_until(None).map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message — a timed [`Self::recv`]
        /// (parks on the condvar; no spinning).
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.shared.recv_until(Some(Instant::now() + timeout))
        }

        /// Dequeues a message if one is ready.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &self.shared;
            match shared.ring.pop() {
                Some(v) => Ok(v),
                None if shared.senders.load(Ordering::Acquire) == 0 => {
                    shared.ring.pop().ok_or(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Approximate number of queued messages (racy snapshot).
        pub fn len(&self) -> usize {
            self.shared.ring.len()
        }

        /// Whether the channel currently looks empty (racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            // relaxed: publishes nothing (as in `Arc::clone`); this live
            // receiver keeps the count nonzero, so no send sees it at zero.
            self.shared.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvTimeoutError, TryRecvError};
    use super::queue::ArrayQueue;

    #[test]
    fn send_recv_fifo() {
        let (s, r) = bounded(2);
        s.send(1).unwrap();
        s.send(2).unwrap();
        assert_eq!(r.recv().unwrap(), 1);
        assert_eq!(r.try_recv().unwrap(), 2);
        assert_eq!(r.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_after_last_sender_drops() {
        let (s, r) = bounded::<u8>(1);
        let s2 = s.clone();
        drop(s);
        s2.send(9).unwrap();
        drop(s2);
        assert_eq!(r.recv().unwrap(), 9);
        assert!(r.recv().is_err());
        assert_eq!(r.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (s, r) = bounded::<u8>(1);
        assert_eq!(
            r.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        s.send(7).unwrap();
        assert_eq!(r.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(s);
        assert_eq!(
            r.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cross_thread_handoff() {
        let (s, r) = bounded(100);
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                s.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += r.recv().unwrap();
        }
        t.join().unwrap();
        assert_eq!(sum, (0..100).sum::<i32>());
    }

    #[test]
    fn recv_timeout_parked_before_a_send_wakes_on_it() {
        use std::time::{Duration, Instant};
        let (s, r) = bounded::<u32>(2);
        // The test keeps `s` alive, so only the send itself (not a
        // disconnect) can wake the parked receiver.
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            s2.send(5).unwrap();
        });
        let start = Instant::now();
        assert_eq!(r.recv_timeout(Duration::from_secs(10)), Ok(5));
        // A lost wakeup would sit out the timeout and still pop the value.
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
        t.join().unwrap();
        drop(s);
    }

    #[test]
    fn array_queue_fifo_and_full() {
        let q = ArrayQueue::new(4);
        assert_eq!(q.capacity(), 4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        // Laps wrap correctly.
        for lap in 0..3 {
            q.push(lap).unwrap();
            assert_eq!(q.pop(), Some(lap));
        }
    }

    #[test]
    fn bounded_fifo_timeout_and_disconnect() {
        use std::time::Duration;
        let (s, r) = bounded::<u32>(8);
        s.send(1).unwrap();
        s.send(2).unwrap();
        assert_eq!(r.recv().unwrap(), 1);
        assert_eq!(r.try_recv().unwrap(), 2);
        assert_eq!(r.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            r.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        s.send(3).unwrap();
        assert_eq!(r.recv_timeout(Duration::from_millis(5)), Ok(3));
        drop(s);
        assert!(r.recv().is_err());
        assert_eq!(r.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_multi_producer_multi_consumer_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER: u64 = 2000;
        let (s, r) = bounded::<u64>(64);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..PER {
                        s.send(p as u64 * PER + i).unwrap();
                    }
                });
            }
            drop(s);
            for _ in 0..CONSUMERS {
                let r = r.clone();
                let (sum, count) = (&sum, &count);
                scope.spawn(move || {
                    while let Ok(v) = r.recv() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total = PRODUCERS as u64 * PER;
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), (0..total).sum::<u64>());
    }

    #[test]
    fn bounded_backpressure_send_blocks_until_drained() {
        let (s, r) = bounded::<u32>(2);
        s.send(0).unwrap();
        s.send(1).unwrap();
        let t = std::thread::spawn(move || {
            s.send(2).unwrap(); // Spins until the consumer pops.
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(r.recv().unwrap(), 0);
        assert_eq!(r.recv().unwrap(), 1);
        assert_eq!(r.recv().unwrap(), 2);
        t.join().unwrap();
    }

    #[test]
    fn bounded_send_fails_when_all_receivers_dropped() {
        let (s, r) = bounded::<u32>(2);
        s.send(0).unwrap();
        s.send(1).unwrap();
        drop(r);
        // Ring is full and no consumer will ever drain it: send must fail
        // rather than spin forever.
        assert!(s.send(2).is_err());
    }
}
