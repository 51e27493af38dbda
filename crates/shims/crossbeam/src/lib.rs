//! Vendored shim of [crossbeam](https://crates.io/crates/crossbeam)'s
//! `queue::ArrayQueue`, plus the one channel the serving runtime's
//! admission lanes run on.
//!
//! [`channel::bounded`] returns one [`channel::Channel`] handle over a
//! lock-free bounded MPMC ring ([`queue::ArrayQueue`], Vyukov's
//! algorithm) with condvar-assisted parking for blocking receives.
//! Producers never take a lock on the fast path (they only touch the
//! condvar mutex when a receiver has registered itself as sleeping), so
//! N submitter threads scale without serializing on admission. The ring
//! is preallocated at construction — sends never allocate, preserving
//! zero-alloc steady-state serving. The channel keeps no count of its
//! senders or receivers and never disconnects: its one caller stops each
//! consumer with a final message behind a gate of its own.

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

/// A bounded multi-producer multi-consumer channel with blocking
/// receives. Unlike `crossbeam::channel` it has no disconnect protocol:
/// one [`channel::Channel`] handle both sends and receives, and the
/// caller ends a consumer with a message of its own.
pub mod channel {
    use crate::sync::atomic::{fence, AtomicUsize, Ordering};
    use crate::sync::{Condvar, Mutex};
    // Wall-clock deadlines are inherently non-deterministic, so
    // `recv_timeout` is not model-exercised (model suites use `recv` /
    // `try_recv`, which never read the clock); under `kron_loom` the timed
    // wait still compiles because the model condvar ignores the duration.
    use std::time::{Duration, Instant};

    use crate::queue::ArrayQueue;

    /// A bounded lock-free MPMC channel: an [`ArrayQueue`] ring plus a
    /// sleeper handshake that lets receivers park on a condvar once they
    /// see the ring empty. Producers take the condvar mutex only when a
    /// receiver has registered itself as sleeping. Share it by reference
    /// (or behind an `Arc`): every sender and receiver uses the one
    /// handle.
    pub struct Channel<T> {
        ring: ArrayQueue<T>,
        /// Number of receivers parked (or about to park) on `ready`.
        /// Producers only touch the condvar mutex when this is non-zero.
        sleepers: AtomicUsize,
        lock: Mutex<()>,
        ready: Condvar,
    }

    /// Creates a channel holding at least `capacity` messages (rounded up
    /// to a power of two). `send` spins (with yields) while the ring is
    /// full, providing backpressure without a lock; `recv` parks on a
    /// condvar only after the ring is observed empty.
    pub fn bounded<T>(capacity: usize) -> Channel<T> {
        Channel {
            ring: ArrayQueue::new(capacity),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            ready: Condvar::new(),
        }
    }

    impl<T> Channel<T> {
        /// Enqueues a message, spin-yielding while the ring is full
        /// (backpressure) until a receiver makes room.
        pub fn send(&self, mut value: T) {
            let mut spins = 0u32;
            loop {
                match self.ring.push(value) {
                    Ok(()) => {
                        self.notify();
                        return;
                    }
                    Err(v) => value = v,
                }
                // Full ring: back off briefly while a receiver drains it.
                spins += 1;
                if spins < 64 {
                    crate::sync::hint::spin_loop();
                } else {
                    crate::sync::thread::yield_now();
                }
            }
        }

        /// Blocks until a message arrives.
        pub fn recv(&self) -> T {
            loop {
                if let Some(v) = self.ring.pop() {
                    return v;
                }
                self.park(None);
            }
        }

        /// Blocks up to `timeout` for a message — a timed [`Self::recv`]
        /// (parks on the condvar; no spinning). `None` on timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
            let deadline = Instant::now() + timeout;
            loop {
                if let Some(v) = self.ring.pop() {
                    return Some(v);
                }
                let left = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|left| !left.is_zero())?;
                self.park(Some(left));
            }
        }

        /// Dequeues a message if one is ready.
        pub fn try_recv(&self) -> Option<T> {
            self.ring.pop()
        }

        /// Approximate number of queued messages (racy snapshot).
        pub fn len(&self) -> usize {
            self.ring.len()
        }

        /// Whether the channel currently looks empty (racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

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

        /// The receive side of the sleeper handshake, behind both
        /// [`Self::recv`] and [`Self::recv_timeout`]: registers as a
        /// sleeper, re-checks the ring, and parks until a send wakes it
        /// or `wait` passes (`None`: no deadline). The caller pops again
        /// on return.
        fn park(&self, wait: Option<Duration>) {
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            // Re-check after registering: a producer that missed our
            // registration must have pushed before it.
            if !self.ring.is_empty() {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                // The racing producer may have claimed its slot but not
                // yet published the value; give it the CPU rather than
                // re-polling a torn ring.
                crate::sync::thread::yield_now();
                return;
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

#[cfg(test)]
mod tests {
    use super::channel::bounded;
    use super::queue::ArrayQueue;

    #[test]
    fn send_recv_fifo() {
        let ch = bounded(2);
        ch.send(1);
        ch.send(2);
        assert_eq!(ch.recv(), 1);
        assert_eq!(ch.try_recv(), Some(2));
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let ch = bounded::<u8>(1);
        assert_eq!(ch.recv_timeout(Duration::from_millis(5)), None);
        ch.send(7);
        assert_eq!(ch.recv_timeout(Duration::from_millis(5)), Some(7));
    }

    #[test]
    fn cross_thread_handoff() {
        let ch = bounded(100);
        let mut sum = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..100 {
                    ch.send(i);
                }
            });
            for _ in 0..100 {
                sum += ch.recv();
            }
        });
        assert_eq!(sum, (0..100).sum::<i32>());
    }

    #[test]
    fn recv_timeout_parked_before_a_send_wakes_on_it() {
        use std::time::{Duration, Instant};
        let ch = bounded::<u32>(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                ch.send(5);
            });
            let start = Instant::now();
            assert_eq!(ch.recv_timeout(Duration::from_secs(10)), Some(5));
            // A lost wakeup would sit out the timeout and still pop the
            // value.
            let waited = start.elapsed();
            assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
        });
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
    fn bounded_fifo_and_timeout() {
        use std::time::Duration;
        let ch = bounded::<u32>(8);
        ch.send(1);
        ch.send(2);
        assert_eq!(ch.recv(), 1);
        assert_eq!(ch.try_recv(), Some(2));
        assert_eq!(ch.try_recv(), None);
        assert_eq!(ch.recv_timeout(Duration::from_millis(5)), None);
        ch.send(3);
        assert_eq!(ch.recv_timeout(Duration::from_millis(5)), Some(3));
    }

    #[test]
    fn bounded_multi_producer_multi_consumer_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER: u64 = 2000;
        // Each consumer stops at one sentinel, as a runtime lane stops at
        // its final `Shutdown`.
        const SENTINEL: u64 = u64::MAX;
        let ch = bounded::<u64>(64);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    scope.spawn(|| loop {
                        let v = ch.recv();
                        if v == SENTINEL {
                            break;
                        }
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let ch = &ch;
                    scope.spawn(move || {
                        for i in 0..PER {
                            ch.send(p as u64 * PER + i);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            for _ in 0..CONSUMERS {
                ch.send(SENTINEL);
            }
            for c in consumers {
                c.join().unwrap();
            }
        });
        let total = PRODUCERS as u64 * PER;
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), (0..total).sum::<u64>());
        assert!(ch.is_empty());
    }

    #[test]
    fn bounded_backpressure_send_blocks_until_drained() {
        let ch = bounded::<u32>(2);
        ch.send(0);
        ch.send(1);
        std::thread::scope(|scope| {
            scope.spawn(|| ch.send(2)); // Spins until the consumer pops.
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(ch.recv(), 0);
            assert_eq!(ch.recv(), 1);
            assert_eq!(ch.recv(), 2);
        });
    }
}
