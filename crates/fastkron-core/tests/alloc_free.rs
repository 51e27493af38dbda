//! Counting-allocator proof of the fused execution path's contract: after
//! [`Workspace`] creation, executing a whole factor chain into
//! caller-provided output performs **zero heap allocations** — no per-step
//! intermediates, no transpose scratch, nothing.
//!
//! The test binary installs a global allocator that counts each thread's
//! allocations. The chains here are small enough that their measured grid
//! is the serial one: a pool dispatch costs more than the whole execute.
//! So the first execute of each, the warm-up, is also the call that times
//! the candidate grids, and every measured execute after it runs wholly
//! on the calling thread, where its count is exact. Counting per thread
//! keeps allocations made elsewhere in the process out of every measured
//! window: sibling tests, the test harness spawning and reaping their
//! threads, and pool workers starting up after the first execute all
//! allocate at unpredictable moments.

use fastkron_core::exec::Workspace;
use kron_core::{FactorShape, KronProblem, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so reading it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to `System` — every layout/pointer
// contract is forwarded unchanged; the only addition is a thread-local
// counter bump, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: pass-through to `System::realloc`, contracts forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread performed while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + r * cols + c) % 11) as f64 - 5.0
    })
}

fn assert_allocation_free(problem: &KronProblem, label: &str) {
    let x = seq_matrix(problem.m, problem.input_cols(), 1);
    let fs: Vec<Matrix<f64>> = problem
        .factors
        .iter()
        .enumerate()
        .map(|(i, s)| seq_matrix(s.p, s.q, i + 2))
        .collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();

    let mut workspace = Workspace::new(problem);
    let mut y = Matrix::zeros(problem.m, problem.output_cols());
    // Warm-up proves correctness-independent state (nothing lazily grows).
    workspace.execute_into(&x, &refs, &mut y).unwrap();

    let (allocs, result) = allocations_during(|| workspace.execute_into(&x, &refs, &mut y));
    result.unwrap();
    assert_eq!(
        allocs, 0,
        "{label}: fused exec path allocated {allocs} times after Workspace creation"
    );

    // The result is still right, not just cheap.
    let oracle = kron_core::naive::kron_matmul_naive(&x, &refs).unwrap();
    kron_core::assert_matrices_close(&y, &oracle, label);
}

#[test]
fn uniform_chain_is_allocation_free() {
    assert_allocation_free(
        &KronProblem::uniform(2, 4, 3).unwrap(),
        "uniform 4^3 (3 factor steps)",
    );
}

#[test]
fn long_chain_is_allocation_free() {
    // Six factor steps: per-step allocation would show up six-fold.
    assert_allocation_free(
        &KronProblem::uniform(1, 2, 6).unwrap(),
        "uniform 2^6 (6 factor steps)",
    );
}

#[test]
fn mixed_rectangular_chain_is_allocation_free() {
    assert_allocation_free(
        &KronProblem::new(
            2,
            vec![
                FactorShape::new(2, 3),
                FactorShape::new(3, 2),
                FactorShape::new(4, 4),
            ],
        )
        .unwrap(),
        "mixed 2×3 ⊗ 3×2 ⊗ 4×4",
    );
}

#[test]
fn old_per_step_path_allocated_and_fused_does_not() {
    // Regression guard on the motivation itself: the shuffle reference
    // allocates per factor step (reshape-GEMM-transpose materializes fresh
    // matrices); the fused path must not.
    let problem = KronProblem::uniform(2, 4, 3).unwrap();
    let x = seq_matrix(2, 64, 3);
    let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, i)).collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();

    let (shuffle_allocs, _) =
        allocations_during(|| kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap());
    assert!(
        shuffle_allocs >= problem.num_factors() as u64,
        "shuffle reference was expected to allocate per step, saw {shuffle_allocs}"
    );

    let mut workspace = Workspace::<f64>::new(&problem);
    let mut y = Matrix::zeros(2, 64);
    workspace.execute_into(&x, &refs, &mut y).unwrap();
    let (fused_allocs, _) = allocations_during(|| workspace.execute_into(&x, &refs, &mut y));
    assert_eq!(fused_allocs, 0);
}
