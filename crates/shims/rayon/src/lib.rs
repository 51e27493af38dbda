//! Vendored API-subset shim of [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no registry access, so this workspace vendors
//! the thin slice of rayon's API its crates actually use: `par_chunks`,
//! `par_chunks_mut`, and the `enumerate`/`zip`/`for_each` adaptors on the
//! resulting parallel iterators, plus a persistent [`ThreadPool`] whose
//! [`ThreadPool::broadcast`] the fused execution path calls directly.
//!
//! Every parallel iterator, and every broadcast outside this crate's own
//! tests, runs on one persistent pool, [`ThreadPool::global`]; no call
//! spawns a thread. `drive`, behind every parallel iterator's `for_each`,
//! makes each item (a chunk) one task on the pool's shared queue, and a
//! broadcast makes each index one task. The parked workers and the
//! calling thread take tasks off that queue in turn until it is empty,
//! and the caller returns once every task has finished.
//!
//! On a single-hardware-thread host (or when there is at most one item)
//! everything degrades to a plain serial loop on the calling thread.

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One-stop imports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// A persistent pool of worker threads parked on a shared task channel.
///
/// This is the workspace's replacement for per-call `std::thread::scope`
/// spawns: workers are created once and live for the pool's lifetime, so a
/// hot serving loop pays task handoff (one mutex push + condvar wake) per
/// dispatch instead of thread creation. The task representation is a plain
/// `(fn pointer, context pointer, index)` triple — **no boxing** — so
/// dispatching onto a warmed pool performs zero heap allocations, which the
/// fused exec path's counting-allocator tests rely on.
///
/// [`ThreadPool::broadcast`] is the only execution primitive: run `count`
/// instances of a borrowed closure, one per index, and block until all
/// complete. The caller helps drain the queue while it waits, so nested
/// broadcasts (a pool task that itself broadcasts) cannot deadlock and a
/// zero-worker pool degrades to a serial loop.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

struct PoolShared {
    queue: Mutex<TaskQueue>,
    ready: Condvar,
}

struct TaskQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// One unit of work: call `run(ctx, index)`. `ctx` points at the caller's
/// closure, which outlives the task because [`ThreadPool::broadcast`] does
/// not return until the latch counts every task complete.
#[derive(Clone, Copy)]
struct Task {
    // SAFETY: callers of `run` must pass a `ctx` that points at the
    // closure type `run` was monomorphized for, still alive (see
    // `run_one` and the latch protocol below).
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    index: usize,
    latch: *const Latch,
}

// SAFETY: the pointers are only dereferenced while the originating
// `broadcast` call is blocked waiting on the latch, which keeps both the
// closure and the latch alive.
unsafe impl Send for Task {}

/// Countdown latch a `broadcast` call blocks on. Lives on the caller's
/// stack; see `complete` for the use-after-free argument.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panicked: bool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panicked: false,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panicked: bool) {
        let mut s = self.state.lock().unwrap();
        s.remaining -= 1;
        s.panicked |= panicked;
        if s.remaining == 0 {
            // Notify while still holding the lock: the waiter cannot
            // re-acquire it (and then free the latch) until this guard
            // drops, after which this thread never touches the latch again.
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap();
        }
        let panicked = s.panicked;
        drop(s);
        if panicked {
            panic!("a task dispatched via ThreadPool::broadcast panicked");
        }
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` long-lived workers. `threads <= 1`
    /// creates no workers at all; every broadcast then runs inline.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(TaskQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = if threads > 1 { threads } else { 0 };
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kron-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            threads: threads.max(1),
            handles,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`current_num_threads`] workers. This is the handle the exec row
    /// tiles and the serving runtime share, so the whole process parks on
    /// one set of workers.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool::new(current_num_threads()))
    }

    /// Number of threads that can make progress concurrently (workers, or 1
    /// when the pool runs inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..count` across the pool and blocks
    /// until all instances complete. The closure may borrow from the
    /// caller's stack. Panics in any instance are propagated to the caller
    /// after every instance has finished.
    ///
    /// Dispatch performs no heap allocation once the shared queue has grown
    /// to its high-water capacity.
    pub fn broadcast<F>(&self, count: usize, task: &F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        if self.handles.is_empty() || count == 1 {
            for i in 0..count {
                task(i);
            }
            return;
        }
        let latch = Latch::new(count);
        // SAFETY: contract — `ctx` must point at a live `F`; guaranteed
        // below because every `Task` built from `run_one::<F>` carries
        // `task` (an `&F` this frame keeps borrowed until the latch
        // drains).
        unsafe fn run_one<F: Fn(usize)>(ctx: *const (), index: usize) {
            (*ctx.cast::<F>())(index);
        }
        {
            let mut q = self.shared.queue.lock().unwrap();
            for index in 0..count {
                q.tasks.push_back(Task {
                    run: run_one::<F>,
                    ctx: (task as *const F).cast(),
                    index,
                    latch: &latch,
                });
            }
        }
        self.shared.ready.notify_all();
        // Help drain the queue while waiting: keeps the caller productive,
        // and guarantees progress for nested broadcasts.
        loop {
            let next = self.shared.queue.lock().unwrap().tasks.pop_front();
            match next {
                Some(t) => run_task(t),
                None => break,
            }
        }
        latch.wait();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn run_task(task: Task) {
    // SAFETY: `ctx` points at the closure `run` was monomorphized for,
    // kept alive by the enqueueing `broadcast` frame until the latch
    // below counts this task complete.
    let panicked = catch_unwind(AssertUnwindSafe(|| unsafe {
        (task.run)(task.ctx, task.index)
    }))
    .is_err();
    // SAFETY: the broadcast that enqueued this task is blocked on the latch
    // until this call counts down, so the pointer is alive.
    unsafe { (*task.latch).complete(panicked) };
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        run_task(task);
    }
}

/// Number of worker threads the shim will use (the host's available
/// parallelism; rayon's default thread-pool size). Cached — the underlying
/// query parses cgroup quotas and allocates on every call.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Distributes `items` across the global persistent pool and applies `f`
/// to each.
///
/// Falls back to a serial loop when only one item or one hardware thread is
/// available, touching no worker.
fn drive<T: Send, F: Fn(T) + Send + Sync>(items: Vec<T>, f: F) {
    let pool = ThreadPool::global();
    if pool.threads() <= 1 || items.len() <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    // Each index is claimed exactly once; the mutex is how a `Fn(usize)`
    // broadcast closure takes ownership of one item.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|v| Mutex::new(Some(v))).collect();
    pool.broadcast(slots.len(), &|i| {
        let item = slots[i].lock().unwrap().take().expect("item claimed once");
        f(item);
    });
}

/// A finite parallel iterator: materializes its items, then fans them out.
pub trait ParallelIterator: Sized {
    /// The item type produced for each parallel task.
    type Item: Send;

    /// Collects every item this iterator will yield (chunk handles, not
    /// element data — cheap even for huge buffers).
    fn into_items(self) -> Vec<Self::Item>;

    /// Applies `f` to every item across the worker threads.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        drive(self.into_items(), f);
    }

    /// Pairs each item with its index, like [`Iterator::enumerate`].
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Zips two parallel iterators item-by-item, like [`Iterator::zip`].
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }
}

/// Parallel-iterator adaptor produced by [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    inner: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.inner.into_items().into_iter().enumerate().collect()
    }
}

/// Parallel-iterator adaptor produced by [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.a
            .into_items()
            .into_iter()
            .zip(self.b.into_items())
            .collect()
    }
}

/// Parallel chunked view of a shared slice (`rayon::slice::ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Like [`slice::chunks`], but the chunks are processed in parallel.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunks {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel chunked view of a mutable slice (`rayon::slice::ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Like [`slice::chunks_mut`], but the chunks are processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over immutable slice chunks.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn into_items(self) -> Vec<Self::Item> {
        self.slice.chunks(self.chunk_size).collect()
    }
}

/// Parallel iterator over mutable slice chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn into_items(self) -> Vec<Self::Item> {
        self.slice.chunks_mut(self.chunk_size).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_enumerate_covers_all_chunks() {
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn zip_pairs_matching_chunks() {
        let src = [1i64, 2, 3, 4, 5, 6];
        let mut dst = vec![0i64; 6];
        src.par_chunks(2)
            .zip(dst.par_chunks_mut(2))
            .for_each(|(s, d)| {
                for (sv, dv) in s.iter().zip(d.iter_mut()) {
                    *dv = sv * 10;
                }
            });
        assert_eq!(dst, vec![10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn empty_slice_is_a_noop() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(4).for_each(|_| panic!("no chunks"));
    }

    #[test]
    fn broadcast_runs_every_index_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = crate::ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn broadcast_supports_borrowed_disjoint_writes() {
        let pool = crate::ThreadPool::new(3);
        let mut data = vec![0usize; 64];
        let base = data.as_mut_ptr() as usize;
        pool.broadcast(8, &|t| {
            // Disjoint 8-element ranges per task; raw pointers because the
            // closure is shared across workers.
            let ptr = base as *mut usize;
            for j in 0..8 {
                // SAFETY: task t owns elements [8t, 8t+8) exclusively,
                // and `data` outlives the blocking broadcast call.
                unsafe { *ptr.add(t * 8 + j) = t };
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 8);
        }
    }

    #[test]
    fn nested_broadcast_makes_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = crate::ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.broadcast(4, &|_| {
            pool.broadcast(4, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn broadcast_propagates_panics() {
        let pool = crate::ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(8, &|i| {
                if i == 5 {
                    panic!("task 5 failed");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked task and keeps serving.
        let mut ok = [false; 4];
        let base = ok.as_mut_ptr() as usize;
        // SAFETY: each task writes only its own index, and `ok` outlives
        // the blocking broadcast call.
        pool.broadcast(4, &|i| unsafe { *(base as *mut bool).add(i) = true });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = crate::ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut seen = vec![false; 5];
        let base = seen.as_mut_ptr() as usize;
        // SAFETY: each task writes only its own index, and `seen`
        // outlives the blocking broadcast call.
        pool.broadcast(5, &|i| unsafe { *(base as *mut bool).add(i) = true });
        assert!(seen.iter().all(|&b| b));
    }
}
