//! Vendored stand-in for [rayon](https://crates.io/crates/rayon): one
//! persistent thread pool with one parallel primitive.
//!
//! The build environment has no registry access, so this workspace
//! vendors the one piece of rayon it uses, a pool of long-lived workers.
//! Every parallel loop in the workspace is one call of
//! [`ThreadPool::broadcast`] on [`ThreadPool::global`]: the fused
//! execute's `(row groups × slice groups)` grid directly, and the
//! reference GEMM's row blocks and the FTMMT reference's rows through
//! [`ThreadPool::broadcast_chunks`], which cuts a slice into disjoint
//! chunks and broadcasts one task per chunk. No call spawns a thread.
//!
//! `broadcast(count, &task)` runs `task(i)` for every `i in 0..count`.
//! Its contract:
//!
//! - **A borrowed closure.** `task` may borrow from the caller's stack:
//!   the call returns only after every `task(i)` has returned.
//! - **The caller helps.** The calling thread takes tasks off the shared
//!   queue alongside the workers, so one task, or a pool without workers
//!   (a one-thread host), runs inline on the calling thread.
//! - **Nested broadcasts make progress.** A task may broadcast in turn:
//!   its thread drains the nested tasks itself when every worker is busy.
//! - **A panic propagates after every task ends.** On the pool, a
//!   panicking task is caught, the other tasks run to completion, and
//!   then the caller panics. Inline, the panic unwinds at once and the
//!   tasks after it never start. Either way no task is still running
//!   when the panic reaches the caller.
//! - **Nothing allocates once warm.** A task is a `(fn pointer, context
//!   pointer, index)` triple in a queue that keeps its capacity, so a
//!   dispatch allocates nothing once the queue has reached its high-water
//!   mark.

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A persistent pool of worker threads that wait on a condvar for tasks
/// on a shared queue.
///
/// Workers are created once and live for the pool's lifetime, so a hot
/// serving loop pays a task handoff (one mutex push and a condvar wake)
/// per dispatch instead of a thread spawn. A task is a plain `(fn
/// pointer, context pointer, index)` triple, never boxed, so dispatching
/// onto a warm pool performs no heap allocation, which the fused exec
/// path's counting-allocator tests rely on. [`ThreadPool::broadcast`] is
/// the one execution primitive; the module doc states its contract.
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

    /// The process-wide pool, created on first use with one worker per
    /// hardware thread (the host's available parallelism, rayon's default
    /// pool size). Every parallel loop in the workspace runs on it, so
    /// the whole process waits on one set of workers.
    ///
    /// The pool's width is read once, here: [`ThreadPool::threads`] then
    /// returns it without a system call, whereas `available_parallelism`
    /// reads cgroup quota files and allocates on every call.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            ThreadPool::new(
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1),
            )
        })
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

    /// Cuts `data` into consecutive chunks of `chunk` elements (the last
    /// may be shorter) and runs `task(i, chunk_i)` for every chunk as one
    /// [`ThreadPool::broadcast`], one task per chunk. This is
    /// `slice::chunks_mut` run across the pool, without materializing the
    /// chunks first, so it allocates nothing once the pool is warm.
    ///
    /// # Panics
    /// If `chunk` is 0, or after every chunk's task has ended if one of
    /// them panicked.
    pub fn broadcast_chunks<T, F>(&self, data: &mut [T], chunk: usize, task: &F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be non-zero");
        let len = data.len();
        let base = data.as_mut_ptr() as usize;
        self.broadcast(len.div_ceil(chunk), &|i| {
            let start = i * chunk;
            // SAFETY: `i < len.div_ceil(chunk)`, so `start < len` and
            // chunk `i`, `[start, min(start + chunk, len))`, lies inside
            // `data`. Distinct indices give disjoint chunks and the
            // broadcast runs each index once, so no two tasks reach one
            // element. `data` stays mutably borrowed by this call until
            // the broadcast returns after its last task, so nothing else
            // touches the elements meanwhile, and `T: Send` lets a chunk
            // be written from a worker thread.
            let part = unsafe {
                std::slice::from_raw_parts_mut((base as *mut T).add(start), chunk.min(len - start))
            };
            task(i, part);
        });
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

#[cfg(test)]
mod tests {
    #[test]
    fn broadcast_chunks_covers_every_chunk_once() {
        let pool = crate::ThreadPool::new(3);
        let mut data = vec![0usize; 10];
        pool.broadcast_chunks(&mut data, 3, &|i, chunk| {
            for v in chunk.iter_mut() {
                *v += i + 1;
            }
        });
        // Four chunks, the last one short.
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
        let mut empty: Vec<u8> = Vec::new();
        pool.broadcast_chunks(&mut empty, 4, &|_, _| panic!("no chunks"));
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
