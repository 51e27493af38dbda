//! The fused sliced-multiply execution path: Algorithm 1 with zero
//! intermediate allocations and no transpose pass.
//!
//! This is the CPU analog of the paper's central claim — that the shuffle
//! algorithm's cost is dominated by its memory shuffle (reshape → GEMM →
//! transpose-inner), and that writing each output element *directly* to
//! column `q·K/P + slice` in the kernel epilogue removes the transpose
//! entirely. The module mirrors the four steps of a one-factor launch of
//! the emulated CUDA kernel ([`crate::kernel::SlicedMultiplyKernel`]) at
//! row granularity (the emulator's fused launch, which keeps several
//! factors' intermediates in shared memory, has no CPU counterpart yet):
//!
//! 1. **Workspace** ([`Workspace`]): two ping-pong buffers, each sized once
//!    from [`KronProblem::max_intermediate_elems`]. After construction, no
//!    factor step allocates — intermediates bounce between the two buffers,
//!    and the final step writes straight into the caller's output matrix.
//! 2. **Slices read in place**: a block of [`RK`] consecutive slices is
//!    `RK·P` contiguous elements of the row, so the microkernel reads them
//!    straight from `X` — nothing is staged or packed first.
//! 3. **Register-tile multiply**: an [`RK`]` × W` accumulator tile covers
//!    `RK` slices and `W` consecutive factor columns. For each factor row
//!    `p` it loads one contiguous `W`-wide segment of `F` and broadcasts
//!    each slice's `x[s·P + p]` against it. `W` is the widest of 16, 8, 4,
//!    2 and 1 columns that still fits `Q` and a 64-byte accumulator row,
//!    one monomorphic loop per width. Two tiles share this shape:
//!    - the **SIMD tile**, explicit 256-bit AVX2 code compiled on x86_64
//!      when AVX2 and FMA are enabled (`.cargo/config.toml` builds for the
//!      host CPU), runs every full `RK`-slice block of 16 or 8 `f32`
//!      columns (8 or 4 `f64`);
//!    - the **plain tile**, scalar `mul_add` code the compiler vectorizes
//!      as it sees fit (mostly along the slices, gathering from `X`), runs
//!      the slice tail, the column remainder below 8 `f32` / 4 `f64`
//!      columns, and every block of a build without AVX2 and FMA.
//!
//!    Both run every output's FMA chain over `p = 0..P` from zero, so they
//!    agree bit for bit. `tests/exact_order.rs` checks that with `==`
//!    against a scalar reference: run it on a native build for the SIMD
//!    tile, and with `RUSTFLAGS="-C target-cpu=x86-64"` for the plain
//!    tile alone.
//! 4. **Epilogue scatter** ([`fused_output_col`]): accumulated results go
//!    directly to output column `q·S + s` (`S` = slice count), exactly step
//!    4 of the emulated kernel — a tile's `RK` results for one factor
//!    column are consecutive output elements. The SIMD tile transposes its
//!    block in registers, so each column's `RK` results go out as one
//!    contiguous store.
//!
//! Rows of the problem are independent, and so are the slices of one row
//! within a step. Every execute therefore runs on a `(row groups, slice
//! groups)` grid, and every grid runs one step function: one factor step
//! for a range of rows over a range of slices. Only the dispatch differs,
//! and it goes to the process-wide persistent [`rayon::ThreadPool`]
//! (its workers wait on a condvar for tasks), so a dispatch costs task
//! handoffs, never a thread spawn:
//!
//! - **One slice group.** Each row tile threads its rows through the whole
//!   chain as one pool task, ping-ponging inside its own rows of the
//!   workspace buffers: one dispatch per execute, not one per factor. A
//!   `1 × 1` grid runs that loop on the calling thread and dispatches
//!   nothing.
//! - **Several slice groups.** When the problem has fewer rows than the
//!   host has threads (the paper's Table 3/4 small-M shapes), row tiles
//!   alone cannot use the machine. Each factor step is then one pool
//!   broadcast over the grid, whose completion is the inter-step barrier.
//!
//! Each task scatters its slices `[s_lo, s_hi)` to the same `q·S + s`
//! output columns whatever the grid, so every grid gives the same bits
//! (pinned by `tests/wide_split.rs` and `tests/exact_order.rs`).
//!
//! **Which grid runs is measured**, as the paper's autotuner (§4.3) times
//! kernel configurations rather than derive them. A pool dispatch costs
//! microseconds, more than a whole small execute, and where the pool
//! starts to win depends on the chain and the host, not on a FLOP count.
//! The candidates are task counts `t` = 1, 2, 4, … below the pool's width,
//! and the width itself. One task is the `1 × 1` grid, on the calling
//! thread; `t` tasks are `(t, 1)` when there are at least `t` rows and
//! `(rows, t / rows)` when there are fewer.
//!
//! - **Key.** A chain's factor shapes, its dtype, and the row bucket
//!   `⌊log₂ rows⌋` of an execute. A workspace's row capacity is not part
//!   of it.
//! - **Tuning.** The first execute of a key in the process runs every
//!   candidate on its own operands, in a fixed number of rounds that
//!   alternate the candidates' order, and keeps the candidate with the
//!   best time; a tie goes to fewer tasks. Every grid writes the same
//!   bits, so `Y` holds the product when it returns. A one-thread pool
//!   has one candidate and times nothing.
//! - **Table.** The decision goes into a process-wide table that is never
//!   evicted. [`Workspace::new`] resolves its chain's entry once; every
//!   later execute in that bucket, from any workspace of the chain, reads
//!   the decision with one atomic load, takes no lock and allocates
//!   nothing. Two first calls that race may both tune, and the last
//!   decision written stands.
//!
//! [`Workspace::set_partition`] pins a grid instead, and then nothing is
//! read or timed.

use kron_core::{DType, Element, Factor, FactorShape, KronError, KronProblem, Matrix, Result};
use rayon::ThreadPool;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Slice-block edge of the register tile: the microkernel computes [`RK`]
/// consecutive slices per accumulator tile (one 256-bit `f32` vector, or
/// two `f64` ones, per factor column once the SIMD tile transposes its
/// block), and a grid with several slice groups aligns its slice splits to
/// multiples of it so interior tiles stay full and take the SIMD tile.
pub const RK: usize = 8;

/// Widest accumulator row of the register tile, in bytes: 16 `f32` or 8
/// `f64` factor columns, two 256-bit vectors per slice in the SIMD tile.
/// In the plain tile, sixteen `f64` columns ran 0.76× as fast as eight at
/// `P = 16` (the served `f64` shapes are small) and 1.1× at `P ≥ 64`.
const ACC_ROW_BYTES: usize = 64;

/// Rounds in which the tuner runs every candidate grid once, keeping each
/// candidate's best time. Measured on a two-core host by repeating the
/// decision 21 times per shape: with 1 to 3 rounds it picked the slower
/// grid up to 3 times in 21 on shapes whose grids differ by 20–40% (4⁴,
/// M = 16; 32², M = 4; 32³, M = 16), 5 rounds never did there, and 7
/// rounds did no better than 5.
const TUNE_ROUNDS: usize = 5;

/// Most candidate grids a pool can have: task counts `2^i` for every bit
/// of `usize`, plus the pool's width.
const MAX_CANDIDATES: usize = usize::BITS as usize + 1;

/// The measured grids of one factor-shape chain and dtype, shared through
/// the process-wide table by every [`Workspace`] of that chain: per row
/// bucket `⌊log₂ rows⌋`, the task count of the fastest grid, or 0 while
/// the bucket is unmeasured.
struct Grids {
    tasks: [AtomicUsize; usize::BITS as usize],
    /// Executes that timed candidates for this chain.
    #[cfg(test)]
    tunings: AtomicUsize,
}

/// The measured grids of `problem`'s chain in `dtype`, from the
/// process-wide table, which adds an unmeasured entry on a chain's first
/// workspace and never evicts one.
fn grids_of(problem: &KronProblem, dtype: DType) -> Arc<Grids> {
    type Table = HashMap<(DType, Vec<FactorShape>), Arc<Grids>>;
    static TABLE: LazyLock<Mutex<Table>> = LazyLock::new(Mutex::default);
    // The one update under the lock is a whole insert, so a panic cannot
    // leave the table half-written.
    let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    let entry = table.entry((dtype, problem.factors.clone()));
    Arc::clone(entry.or_insert_with(|| {
        Arc::new(Grids {
            tasks: [const { AtomicUsize::new(0) }; usize::BITS as usize],
            #[cfg(test)]
            tunings: AtomicUsize::new(0),
        })
    }))
}

/// How many candidate grids a pool `threads` wide has: task counts `2^i`
/// below the width, and the width.
fn candidates(threads: usize) -> usize {
    threads.next_power_of_two().ilog2() as usize + 1
}

/// Candidate `i` of a pool `threads` wide: `2^i` tasks, capped at the
/// width.
fn candidate(i: usize, threads: usize) -> usize {
    (1 << i).min(threads)
}

/// The grid of `tasks` pool tasks for `rows ≥ 1` rows: `tasks` row tiles
/// when there are that many rows, else one row per tile with its slices
/// split `tasks / rows` ways. One task is `(1, 1)`.
fn grid(tasks: usize, rows: usize) -> (usize, usize) {
    if rows >= tasks {
        (tasks, 1)
    } else {
        (rows, tasks / rows)
    }
}

/// The index of the fastest of the candidates' best times; on a tie, the
/// first, which has fewer tasks.
fn fastest(best: &[Duration]) -> usize {
    best.iter()
        .enumerate()
        .min_by_key(|&(_, t)| t)
        .map_or(0, |(i, _)| i)
}

/// Output column a sliced multiply writes slice `s` of factor column `q`
/// to: `q·S + s` where `S` is the slice count (`K/P`).
///
/// This single line is what makes the transpose unnecessary (paper §3):
/// the new factor index `q` lands in the slowest-varying position at write
/// time. Shared by the functional fused path and the thread-block-accurate
/// kernel emulation so the two layers cannot drift apart.
#[inline(always)]
pub fn fused_output_col(q: usize, slices: usize, s: usize) -> usize {
    q * slices + s
}

/// Reusable execution state for one [`KronProblem`]: two ping-pong buffers
/// sized once at construction.
///
/// Create once, call [`Workspace::execute`] or [`Workspace::execute_into`]
/// many times; after construction the fused path performs **zero heap
/// allocations per factor step** (asserted by a counting-allocator test).
/// Parallel dispatch goes to the persistent global [`ThreadPool`], whose
/// boxing-free task handoff keeps even multi-threaded executes
/// allocation-free once the pool's queue is warm.
///
/// Each execute runs on its row bucket's measured grid (see the
/// [module docs](self)). The decisions belong to the chain's factor shapes
/// and dtype, not to the workspace: a new workspace of a chain reads what
/// an earlier one measured, whatever its capacity.
///
/// An execute takes its factors in Kronecker-product order, as the
/// factors themselves (`&[Matrix<T>]`) or references to them
/// (`&[&Matrix<T>]`; see [`Factor`]). Either way it reads them in place,
/// so a caller that owns its factors builds no list of references.
pub struct Workspace<T> {
    problem: KronProblem,
    /// Row stride of both buffers (`max_intermediate_cols`).
    stride: usize,
    /// The ping-pong buffers, left uninitialised: each step writes the
    /// rows and columns the next one reads (see [`Self::run_grid`]).
    buf_a: Box<[MaybeUninit<T>]>,
    buf_b: Box<[MaybeUninit<T>]>,
    /// Pinned `(row_groups, col_groups)` grid; `None` runs the measured
    /// one.
    partition: Option<(usize, usize)>,
    /// This chain's measured grids, from the process-wide table.
    grids: Arc<Grids>,
}

impl<T: Element> Workspace<T> {
    /// Allocates the ping-pong buffers for `problem` and resolves its
    /// chain's entry in the table of measured grids.
    ///
    /// Single-factor problems need no intermediates; their buffers are
    /// empty and execution streams `X` straight to `Y`.
    pub fn new(problem: &KronProblem) -> Self {
        let (stride, elems) = if problem.num_factors() > 1 {
            (
                problem.max_intermediate_cols(),
                problem.max_intermediate_elems(),
            )
        } else {
            (0, 0)
        };
        Workspace {
            problem: problem.clone(),
            stride,
            buf_a: Box::new_uninit_slice(elems),
            buf_b: Box::new_uninit_slice(elems),
            partition: None,
            grids: grids_of(problem, T::DTYPE),
        }
    }

    /// The problem this workspace was sized for.
    pub fn problem(&self) -> &KronProblem {
        &self.problem
    }

    /// Pins the `(row_groups, col_groups)` grid every execute runs on,
    /// instead of the measured one. `(1, 1)` runs the chain on the calling
    /// thread; `(r, 1)` cuts the rows into `r` tiles that each run the
    /// whole chain as one pool task; with `c > 1`, each factor step is one
    /// pool broadcast over `r` row groups times `c` slice groups. `r` is
    /// clamped to `1..=rows` and `c` to at least 1. Every grid gives the
    /// same bits. A pinned execute neither reads nor times the chain's
    /// measured grids.
    ///
    /// Intended for tests and benchmarks that must exercise a specific
    /// grid regardless of the machine they run on; `None` restores the
    /// measured grid.
    pub fn set_partition(&mut self, partition: Option<(usize, usize)>) {
        self.partition = partition;
    }

    /// Computes `Y = X · (F1 ⊗ … ⊗ FN)`, allocating only the result.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the workspace's problem.
    pub fn execute<F: Factor<T>>(&mut self, x: &Matrix<T>, factors: &[F]) -> Result<Matrix<T>> {
        let mut y = Matrix::zeros(self.problem.m, self.problem.output_cols());
        self.execute_into(x, factors, &mut y)?;
        Ok(y)
    }

    /// Computes `Y = X · (F1 ⊗ … ⊗ FN)` into caller-provided storage —
    /// the fully allocation-free entry point. `X` and `Y` must have
    /// exactly the planned `problem.m` rows.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the workspace's problem.
    pub fn execute_into<F: Factor<T>>(
        &mut self,
        x: &Matrix<T>,
        factors: &[F],
        y: &mut Matrix<T>,
    ) -> Result<()> {
        let m = self.problem.m;
        if x.rows() != m || y.rows() != m {
            return Err(KronError::ShapeMismatch {
                expected: format!("X and Y with {m} rows"),
                found: format!("{} and {} rows", x.rows(), y.rows()),
            });
        }
        self.execute_rows(x, factors, y, m)
    }

    /// Computes the first `rows` rows of `Y = X · (F1 ⊗ … ⊗ FN)`, where
    /// `rows` may be anything up to the workspace's planned capacity
    /// (`problem.m`) and `X`/`Y` may hold **at least** `rows` rows.
    ///
    /// This is the batched-serving entry point: a runtime sizes one
    /// workspace for its maximum batch and executes whatever number of
    /// request rows actually arrived, with no reallocation and no
    /// per-batch planning. `rows == 0` is a no-op.
    ///
    /// # Errors
    /// Shape mismatches: wrong factor shapes or column counts, fewer than
    /// `rows` rows in an operand, or `rows` above the planned capacity.
    pub fn execute_rows<F: Factor<T>>(
        &mut self,
        x: &Matrix<T>,
        factors: &[F],
        y: &mut Matrix<T>,
        rows: usize,
    ) -> Result<()> {
        self.problem.check_factors(factors)?;
        self.problem.check_rows(x, y, rows)?;
        if rows > 0 {
            self.run(x.as_slice(), factors, y.as_mut_slice(), rows);
        }
        Ok(())
    }

    /// Runs `rows ≥ 1` rows on this execute's grid: the pinned partition,
    /// clamped, if there is one, else the grid measured for the row
    /// bucket, measuring it first if this is the bucket's first execute.
    /// `x`/`y` are full row-major buffers with strides `input_cols()` and
    /// `output_cols()`, already checked to hold `rows` rows.
    fn run<F: Factor<T>>(&mut self, x: &[T], factors: &[F], y: &mut [T], rows: usize) {
        if let Some((r, c)) = self.partition {
            return self.run_grid(x, factors, y, rows, (r.clamp(1, rows), c.max(1)));
        }
        let bucket = rows.ilog2() as usize;
        // relaxed: the decision is a plain value that orders no other
        // memory; a first call that races another at worst tunes again.
        match self.grids.tasks[bucket].load(Ordering::Relaxed) {
            0 => {
                let tasks = self.tune(x, factors, y, rows);
                self.grids.tasks[bucket].store(tasks, Ordering::Relaxed);
            }
            tasks => self.run_grid(x, factors, y, rows, grid(tasks, rows)),
        }
    }

    /// Runs the execute on every candidate grid for `rows` rows, in
    /// `TUNE_ROUNDS` rounds that take the candidates in ascending order of
    /// task count, then descending, and so on, and returns the task count
    /// whose best time is the fastest. Every grid writes the same bits, so
    /// `Y` holds the product when it returns. A one-thread pool has one
    /// candidate, which runs once, untimed.
    fn tune<F: Factor<T>>(&mut self, x: &[T], factors: &[F], y: &mut [T], rows: usize) -> usize {
        let threads = ThreadPool::global().threads();
        let n = candidates(threads);
        if n == 1 {
            self.run_grid(x, factors, y, rows, (1, 1));
            return 1;
        }
        #[cfg(test)]
        self.grids.tunings.fetch_add(1, Ordering::Relaxed);
        let mut best = [Duration::MAX; MAX_CANDIDATES];
        for round in 0..TUNE_ROUNDS {
            for j in 0..n {
                let i = if round % 2 == 0 { j } else { n - 1 - j };
                let start = Instant::now();
                self.run_grid(x, factors, y, rows, grid(candidate(i, threads), rows));
                best[i] = best[i].min(start.elapsed());
            }
        }
        candidate(fastest(&best[..n]), threads)
    }

    /// Runs `rows ≥ 1` rows on the `(row_groups, col_groups)` grid, with
    /// `row_groups ≤ rows`.
    fn run_grid<F: Factor<T>>(
        &mut self,
        x: &[T],
        factors: &[F],
        y: &mut [T],
        rows: usize,
        (row_groups, col_groups): (usize, usize),
    ) {
        let exec = Exec {
            factors,
            x: x.as_ptr(),
            y: y.as_mut_ptr(),
            a: self.buf_a.as_mut_ptr().cast(),
            b: self.buf_b.as_mut_ptr().cast(),
            k0: self.problem.input_cols(),
            l: self.problem.output_cols(),
            stride: self.stride,
        };
        let rows_per = rows.div_ceil(row_groups);
        let row_tasks = rows.div_ceil(rows_per);
        let tile = |t: usize| t * rows_per..rows.min((t + 1) * rows_per);
        let pool = ThreadPool::global();
        // SAFETY: `X`, `Y` and both buffers hold `rows` rows at their
        // strides, and `x`, `y` and `self` stay borrowed until the
        // broadcast has returned, after all of its tasks. The factors
        // passed `check_factors`, and a `Factor` (sealed to `Matrix` and
        // `&Matrix`) borrows the same matrix every time, so every step
        // sees the checked shapes. Row tiles are disjoint, so no two tasks
        // read or write one row. The buffers start uninitialised, and no
        // step reads an element before it is written: step 0 reads `X`,
        // and each later step reads, of its rows, exactly the `k_in`
        // columns that the step before it wrote, on every grid and in
        // every run of `tune`.
        if col_groups == 1 {
            pool.broadcast(row_tasks, &|t| unsafe { exec.chain(tile(t)) });
            return;
        }
        let mut k_in = exec.k0;
        for (i, f) in factors.iter().rev().enumerate() {
            let f = f.borrow();
            let slices = k_in / f.rows();
            // Slice chunks are multiples of RK so interior tiles stay full.
            let chunk = slices.div_ceil(col_groups).div_ceil(RK) * RK;
            let col_tasks = slices.div_ceil(chunk);
            pool.broadcast(row_tasks * col_tasks, &|t| {
                let s = t % col_tasks * chunk;
                let rows = tile(t / col_tasks);
                // SAFETY: as above. Within a step, tasks only read the
                // step's source, which is not its destination, and their
                // (row tile, slice range) pairs are disjoint, so no two
                // write one element. The broadcast's return orders this
                // step's writes before the next step's reads.
                unsafe { exec.step(i, f, k_in, rows, s..slices.min(s + chunk)) }
            });
            k_in = slices * f.cols();
        }
    }
}

/// The zero-sized last argument of [`sliced_multiply_rows_into`]. The
/// microkernel reads slices in place and needs no pack buffer, so a panel
/// holds nothing and costs nothing to create.
///
/// It stays public only so that callers which still construct one and pass
/// it in (the repository's `perfbench`) keep compiling; it can go once
/// none does.
pub struct PackPanel<T>(PhantomData<T>);

impl<T> PackPanel<T> {
    /// A panel; it holds no data.
    pub fn new() -> Self {
        PackPanel(PhantomData)
    }
}

impl<T> Default for PackPanel<T> {
    fn default() -> Self {
        PackPanel::new()
    }
}

/// One sliced multiplication over `rows` row-major rows, written through
/// caller-owned buffers: `out[r][q·S + s] = Σ_p x[r][s·P + p] · f[p][q]`
/// with `S = k_in / P` slices per row.
///
/// This is the allocation-free primitive external engines build on — the
/// distributed engine's per-GPU local multiply is exactly this on its
/// `TGM × TGK` block, `Nlocal` times between exchanges. `x` and `out` are
/// raw row-major buffers with row strides `x_stride` / `out_stride` (both
/// may exceed the logical widths `k_in` / `k_in/P·Q`). `panel` is unused
/// (see [`PackPanel`]).
///
/// Numerically identical to the fused path on every grid: it runs the
/// same microkernel ([`RK`]` × W` register tiles, the SIMD tile on full
/// blocks where the build has one, with the [`fused_output_col`]
/// epilogue), so engines layered on it agree bit-for-bit with every
/// single-device path.
///
/// # Errors
/// [`KronError::ShapeMismatch`] when `k_in` is not a multiple of the
/// factor's `P`, a stride is smaller than its row's logical width, or a
/// buffer cannot hold `rows` rows at its stride.
#[allow(clippy::too_many_arguments)]
pub fn sliced_multiply_rows_into<T: Element>(
    x: &[T],
    x_stride: usize,
    f: &Matrix<T>,
    rows: usize,
    k_in: usize,
    out: &mut [T],
    out_stride: usize,
    _panel: &mut PackPanel<T>,
) -> Result<()> {
    let (p, q) = (f.rows(), f.cols());
    if p == 0 || k_in == 0 || !k_in.is_multiple_of(p) {
        return Err(KronError::ShapeMismatch {
            expected: format!("k_in a positive multiple of P = {p}"),
            found: format!("k_in = {k_in}"),
        });
    }
    let slices = k_in / p;
    let k_out = slices * q;
    if x_stride < k_in || out_stride < k_out {
        return Err(KronError::ShapeMismatch {
            expected: format!("strides ≥ row widths {k_in} / {k_out}"),
            found: format!("{x_stride} / {out_stride}"),
        });
    }
    if rows == 0 {
        return Ok(());
    }
    if x.len() < (rows - 1) * x_stride + k_in {
        return Err(KronError::ShapeMismatch {
            expected: format!("x holding {rows} rows at stride {x_stride}"),
            found: format!("{} elements", x.len()),
        });
    }
    if out.len() < (rows - 1) * out_stride + k_out {
        return Err(KronError::ShapeMismatch {
            expected: format!("out holding {rows} rows at stride {out_stride}"),
            found: format!("{} elements", out.len()),
        });
    }
    let f_data = f.as_slice();
    for r in 0..rows {
        sliced_multiply_row(
            &x[r * x_stride..r * x_stride + k_in],
            f_data,
            p,
            q,
            slices,
            &mut out[r * out_stride..r * out_stride + k_out],
        );
    }
    Ok(())
}

/// Computes `Y = X · (F1 ⊗ … ⊗ FN)` by Algorithm 1 on the fused path,
/// with a throwaway [`Workspace`]. Callers in a loop should hold a
/// [`Workspace`] instead and pay the buffer allocation once.
///
/// # Errors
/// The operand errors of [`KronProblem::from_operands`].
pub fn kron_matmul_fused<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
    let problem = KronProblem::from_operands(x, factors)?;
    let mut y = Matrix::zeros(x.rows(), problem.output_cols());
    Workspace::new(&problem).execute_rows(x, factors, &mut y, x.rows())?;
    Ok(y)
}

/// What one execute touches: the factor chain, and base pointers and row
/// strides of `X`, `Y` and the two workspace buffers, from which each task
/// rebuilds its own rows.
struct Exec<'a, T, F> {
    /// Factors in Kronecker-product order (`F1` first); the chain runs
    /// them in reverse, as Algorithm 1 prescribes.
    factors: &'a [F],
    x: *const T,
    y: *mut T,
    a: *mut T,
    b: *mut T,
    /// Row stride of `X` (`∏Pᵢ`).
    k0: usize,
    /// Row stride of `Y` (`∏Qᵢ`).
    l: usize,
    /// Row stride of both buffers.
    stride: usize,
}

// SAFETY: an `Exec` is shared only by the tasks of `Workspace::run`, which
// keeps the borrows its pointers come from alive until every task has
// finished. Through it, tasks read the factor list (hence `F: Sync`) and
// `x` (hence `T: Sync`) and write `T` values through `y`, `a` and `b`
// (hence `T: Send`), each task to elements no other task reads or writes
// during that step; the strides are plain values.
unsafe impl<T: Send + Sync, F: Sync> Sync for Exec<'_, T, F> {}

impl<T: Element, F: Factor<T>> Exec<'_, T, F> {
    /// Threads `rows` through the whole chain, one full-width step after
    /// another.
    ///
    /// # Safety
    /// As [`Self::step`], for every step.
    unsafe fn chain(&self, rows: Range<usize>) {
        let mut k_in = self.k0;
        for (i, f) in self.factors.iter().rev().enumerate() {
            let f = f.borrow();
            let slices = k_in / f.rows();
            self.step(i, f, k_in, rows.clone(), 0..slices);
            k_in = slices * f.cols();
        }
    }

    /// Factor step `i` of the chain (factor `f`, input width `k_in`) for
    /// `rows`, over the slices `s`: output columns `q·S + s` of those rows.
    /// Step 0 reads `X` and the last step writes `Y`; step `i` in between
    /// writes buffer A when `i` is even and B when it is odd, and reads
    /// what step `i − 1` wrote.
    ///
    /// # Safety
    /// `f` and `k_in` must be step `i`'s factor and input width, the
    /// source and destination must hold `rows` at their strides, `s` must
    /// lie within the step's `k_in / P` slices, and until this returns no
    /// other thread may write the rows it reads or touch the elements it
    /// writes.
    #[inline(always)]
    unsafe fn step(
        &self,
        i: usize,
        f: &Matrix<T>,
        k_in: usize,
        rows: Range<usize>,
        s: Range<usize>,
    ) {
        let (p, q) = (f.rows(), f.cols());
        debug_assert!(k_in.is_multiple_of(p));
        let buf = |j: usize| if j.is_multiple_of(2) { self.a } else { self.b };
        let (src, src_stride) = if i == 0 {
            (self.x, self.k0)
        } else {
            (buf(i - 1).cast_const(), self.stride)
        };
        let (dst, dst_stride) = if i + 1 == self.factors.len() {
            (self.y, self.l)
        } else {
            (buf(i), self.stride)
        };
        for r in rows {
            let x_row = std::slice::from_raw_parts(src.add(r * src_stride), k_in);
            let out = dst.add(r * dst_stride);
            sliced_multiply_row_range(x_row, f.as_slice(), p, q, k_in / p, s.start, s.end, out);
        }
    }
}

/// One row's sliced multiply, `out[q·S + s] = Σ_p x[s·P + p] · F[p][q]`.
///
/// `f` is the factor's row-major `P × Q` buffer. `x` must hold at least
/// `slices·p` elements and `out` at least `slices·q`.
fn sliced_multiply_row<T: Element>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    out: &mut [T],
) {
    debug_assert!(out.len() >= slices * q);
    // SAFETY: `out` is an exclusive borrow covering all `slices·q` writes,
    // and the full slice range is computed by this one call.
    unsafe { sliced_multiply_row_range(x, f, p, q, slices, 0, slices, out.as_mut_ptr()) }
}

/// The slice-range form of [`sliced_multiply_row`]: computes only slices
/// `[s_lo, s_hi)`, writing output columns `q·S + s` for `s` in that range.
/// This is the unit a grid with several slice groups hands each task —
/// several tasks write *interleaved but disjoint* columns of the same row,
/// which is why `out` is a raw base pointer rather than `&mut [T]`.
///
/// The factor's columns go in blocks of the widest tile that fits, 16, 8,
/// 4, 2 and then 1 columns wide. Each width is its own call that runs the
/// whole slice loop, so the width is fixed outside it: choosing the width
/// per slice block instead ran 3.5× slower at `P = 8`. Within a width,
/// full `RK`-slice blocks take the SIMD tile where the build has one for
/// that width, and everything else the plain [`tile`].
///
/// # Safety
/// `out` must be valid for `slices·q` element writes, `x` must hold at
/// least `s_hi·p` elements, `f` at least `p·q`, `s_lo ≤ s_hi ≤ slices`,
/// and no other thread may concurrently touch the output elements
/// `{q·slices + s | s ∈ [s_lo, s_hi), q ∈ [0, q)}`.
#[allow(clippy::too_many_arguments)]
unsafe fn sliced_multiply_row_range<T: Element>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    s_lo: usize,
    s_hi: usize,
    out: *mut T,
) {
    debug_assert!(s_lo <= s_hi && s_hi <= slices);
    debug_assert!(x.len() >= s_hi * p);
    debug_assert!(f.len() >= p * q);
    let mut q0 = column_blocks::<T, 16>(x, f, p, q, 0, slices, s_lo, s_hi, out);
    q0 = column_blocks::<T, 8>(x, f, p, q, q0, slices, s_lo, s_hi, out);
    q0 = column_blocks::<T, 4>(x, f, p, q, q0, slices, s_lo, s_hi, out);
    q0 = column_blocks::<T, 2>(x, f, p, q, q0, slices, s_lo, s_hi, out);
    column_blocks::<T, 1>(x, f, p, q, q0, slices, s_lo, s_hi, out);
}

/// Computes slices `[s_lo, s_hi)` of every whole `W`-column block from
/// column `q0` on, and returns the first column it left for a narrower
/// width. Returns `q0` untouched when a `W`-wide accumulator row would
/// exceed [`ACC_ROW_BYTES`].
///
/// # Safety
/// Same contract as [`sliced_multiply_row_range`], plus `q0 ≤ q`.
#[allow(clippy::too_many_arguments)]
unsafe fn column_blocks<T: Element, const W: usize>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    q0: usize,
    slices: usize,
    s_lo: usize,
    s_hi: usize,
    out: *mut T,
) -> usize {
    if W * std::mem::size_of::<T>() > ACC_ROW_BYTES || q - q0 < W {
        return q0;
    }
    // Every tile below has `qb + W ≤ q_end ≤ q` and ends at or before
    // `s_hi ≤ slices`, which with the caller's bounds on `x`, `f` and `out`
    // is `tile`'s contract.
    let q_end = q0 + (q - q0) / W * W;
    let mut s0 = s_lo;
    while s0 + RK <= s_hi {
        for qb in (q0..q_end).step_by(W) {
            #[cfg(all(
                target_arch = "x86_64",
                target_feature = "avx2",
                target_feature = "fma"
            ))]
            if simd::tile::<T, W>(x, f, p, q, qb, s0, slices, out) {
                continue;
            }
            tile::<T, W, RK>(x, f, p, q, qb, s0, slices, out);
        }
        s0 += RK;
    }
    for s in s0..s_hi {
        for qb in (q0..q_end).step_by(W) {
            tile::<T, W, 1>(x, f, p, q, qb, s, slices, out);
        }
    }
    q_end
}

/// The plain `R × W` register tile: slices `[s0, s0 + R)` against factor
/// columns `[q0, q0 + W)`, each output an FMA chain over `p = 0..P` from
/// zero. Runs the blocks the SIMD tile does not.
///
/// # Safety
/// `x` must hold `(s0 + R)·p` elements, `f` must hold `p·q` with
/// `q0 + W ≤ q`, `s0 + R ≤ slices`, and `out` must be valid for `slices·q`
/// element writes with the written columns owned by this thread.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
unsafe fn tile<T: Element, const W: usize, const R: usize>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    q0: usize,
    s0: usize,
    slices: usize,
    out: *mut T,
) {
    let mut acc = [[T::ZERO; W]; R];
    for pi in 0..p {
        let fr = f.get_unchecked(pi * q + q0..pi * q + q0 + W);
        for i in 0..R {
            let xv = *x.get_unchecked((s0 + i) * p + pi);
            for j in 0..W {
                acc[i][j] = xv.mul_add(*fr.get_unchecked(j), acc[i][j]);
            }
        }
    }
    for j in 0..W {
        let base = fused_output_col(q0 + j, slices, s0);
        for i in 0..R {
            *out.add(base + i) = acc[i][j];
        }
    }
}

/// The 256-bit register tile: [`RK`] slices × 16 or 8 `f32` columns, or
/// 8 or 4 `f64` columns, in AVX2 registers.
///
/// For each factor row `p` it loads the tile's `F` row segment as whole
/// vectors and broadcasts each slice's `x[s·P + p]` against them, so `X`
/// is read one scalar at a time and never gathered. Each lane runs one
/// output's FMA chain over `p = 0..P` from zero, the order of the plain
/// tile, so the two agree bit for bit. Each finished block of `RK` slices
/// by one vector of columns (`8 × 8` for `f32`, two `4 × 4` for `f64`) is
/// transposed in registers, so each factor column's `RK` results,
/// consecutive in the output, go out as one contiguous store at
/// [`fused_output_col`].
///
/// LLVM vectorizes the plain tile along whichever edge it prefers, which
/// for most widths is the slices, with a stride-`P` gather of `X` per
/// factor row; plain-Rust re-orientations of the tile compiled back to
/// gathers or scalar code, which is why this one is written with
/// `std::arch`.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod simd {
    use super::{fused_output_col, RK};
    use kron_core::Element;
    use std::any::TypeId;
    use std::arch::x86_64::*;

    /// Runs the tile for slices `[s0, s0 + RK)` and factor columns
    /// `[q0, q0 + W)` if there is one for `T` and `W`, and returns whether
    /// it did. The checks fold to a constant in each monomorphic copy.
    ///
    /// # Safety
    /// The contract of the plain [`super::tile`] with `R = RK`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) unsafe fn tile<T: Element, const W: usize>(
        x: &[T],
        f: &[T],
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut T,
    ) -> bool {
        let is_f32 = TypeId::of::<T>() == TypeId::of::<f32>();
        let is_f64 = TypeId::of::<T>() == TypeId::of::<f64>();
        let (x, f) = (x.as_ptr(), f.as_ptr());
        // SAFETY: the `TypeId` checks make each cast an identity cast, and
        // the caller's contract covers every read and write of the tile.
        match W {
            16 if is_f32 => tile_f32::<2>(x.cast(), f.cast(), p, q, q0, s0, slices, out.cast()),
            8 if is_f32 => tile_f32::<1>(x.cast(), f.cast(), p, q, q0, s0, slices, out.cast()),
            8 if is_f64 => tile_f64::<2>(x.cast(), f.cast(), p, q, q0, s0, slices, out.cast()),
            4 if is_f64 => tile_f64::<1>(x.cast(), f.cast(), p, q, q0, s0, slices, out.cast()),
            _ => return false,
        }
        true
    }

    /// [`RK`] slices × `8·V` `f32` columns.
    ///
    /// # Safety
    /// As [`tile`], with `W = 8·V`.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline(always)]
    unsafe fn tile_f32<const V: usize>(
        x: *const f32,
        f: *const f32,
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut f32,
    ) {
        let (x, f) = (x.add(s0 * p), f.add(q0));
        let mut acc = [[_mm256_setzero_ps(); V]; RK];
        for pi in 0..p {
            let fr = f.add(pi * q);
            let fv: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(fr.add(8 * v)));
            for (i, row) in acc.iter_mut().enumerate() {
                let xv = _mm256_broadcast_ss(&*x.add(i * p + pi));
                for (a, &fj) in row.iter_mut().zip(&fv) {
                    *a = _mm256_fmadd_ps(xv, fj, *a);
                }
            }
        }
        for v in 0..V {
            let cols = transpose_8x8(std::array::from_fn(|i| acc[i][v]));
            for (j, col) in cols.into_iter().enumerate() {
                _mm256_storeu_ps(out.add(fused_output_col(q0 + 8 * v + j, slices, s0)), col);
            }
        }
    }

    /// [`RK`] slices × `4·V` `f64` columns.
    ///
    /// # Safety
    /// As [`tile`], with `W = 4·V`.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline(always)]
    unsafe fn tile_f64<const V: usize>(
        x: *const f64,
        f: *const f64,
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut f64,
    ) {
        let (x, f) = (x.add(s0 * p), f.add(q0));
        let mut acc = [[_mm256_setzero_pd(); V]; RK];
        for pi in 0..p {
            let fr = f.add(pi * q);
            let fv: [__m256d; V] = std::array::from_fn(|v| _mm256_loadu_pd(fr.add(4 * v)));
            for (i, row) in acc.iter_mut().enumerate() {
                let xv = _mm256_broadcast_sd(&*x.add(i * p + pi));
                for (a, &fj) in row.iter_mut().zip(&fv) {
                    *a = _mm256_fmadd_pd(xv, fj, *a);
                }
            }
        }
        for v in 0..V {
            for h in (0..RK).step_by(4) {
                let cols = transpose_4x4(std::array::from_fn(|i| acc[h + i][v]));
                for (j, col) in cols.into_iter().enumerate() {
                    let base = fused_output_col(q0 + 4 * v + j, slices, s0 + h);
                    _mm256_storeu_pd(out.add(base), col);
                }
            }
        }
    }

    /// Transposes 8 rows of 8 `f32`: lane `i` of result `j` is lane `j` of
    /// row `i`.
    #[inline(always)]
    fn transpose_8x8(r: [__m256; 8]) -> [__m256; 8] {
        // SAFETY: register-only shuffles; AVX is enabled for this build.
        unsafe {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }
    }

    /// Transposes 4 rows of 4 `f64`: lane `i` of result `j` is lane `j` of
    /// row `i`.
    #[inline(always)]
    fn transpose_4x4(r: [__m256d; 4]) -> [__m256d; 4] {
        // SAFETY: register-only shuffles; AVX is enabled for this build.
        unsafe {
            let t0 = _mm256_unpacklo_pd(r[0], r[1]);
            let t1 = _mm256_unpackhi_pd(r[0], r[1]);
            let t2 = _mm256_unpacklo_pd(r[2], r[3]);
            let t3 = _mm256_unpackhi_pd(r[2], r[3]);
            [
                _mm256_permute2f128_pd::<0x20>(t0, t2),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::naive::kron_matmul_naive;
    use kron_core::shuffle::kron_matmul_shuffle;
    use kron_core::{assert_matrices_close, FactorShape};

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 3 * r * cols + c) % 13) as f64 - 6.0
        })
    }

    fn check_problem(problem: &KronProblem, seed: usize) {
        check_problem_on(problem, seed, None);
    }

    /// Checks `problem` on the `partition` grid, or on the measured one.
    fn check_problem_on(problem: &KronProblem, seed: usize, partition: Option<(usize, usize)>) {
        let x = seq_matrix(problem.m, problem.input_cols(), seed);
        let fs: Vec<Matrix<f64>> = problem
            .factors
            .iter()
            .enumerate()
            .map(|(i, s)| seq_matrix(s.p, s.q, seed + 2 * i + 1))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let mut ws = Workspace::new(problem);
        ws.set_partition(partition);
        let got = ws.execute(&x, &refs).unwrap();
        let naive = kron_matmul_naive(&x, &refs).unwrap();
        let shuffle = kron_matmul_shuffle(&x, &refs).unwrap();
        assert_matrices_close(&got, &naive, &format!("{problem} fused vs naive"));
        assert_matrices_close(&got, &shuffle, &format!("{problem} fused vs shuffle"));
    }

    #[test]
    fn single_factor_streams_straight_through() {
        check_problem(
            &KronProblem::new(3, vec![FactorShape::new(6, 4)]).unwrap(),
            1,
        );
    }

    #[test]
    fn uniform_chains() {
        for &(m, p, n) in &[(1usize, 2usize, 6usize), (3, 4, 3), (16, 8, 2), (2, 3, 4)] {
            check_problem(&KronProblem::uniform(m, p, n).unwrap(), m + p);
        }
    }

    #[test]
    fn rectangular_and_mixed_chains() {
        check_problem(
            &KronProblem::new(5, vec![FactorShape::new(2, 3), FactorShape::new(4, 2)]).unwrap(),
            2,
        );
        // Table 4 row 20 shape: 5×5 ⊗ 5×5 ⊗ 5×5 ⊗ 2×2.
        check_problem(
            &KronProblem::new(
                2,
                vec![
                    FactorShape::square(5),
                    FactorShape::square(5),
                    FactorShape::square(5),
                    FactorShape::square(2),
                ],
            )
            .unwrap(),
            3,
        );
        // Expanding then contracting intermediates.
        check_problem(
            &KronProblem::new(3, vec![FactorShape::new(2, 8), FactorShape::new(8, 2)]).unwrap(),
            4,
        );
    }

    #[test]
    fn edge_tiles_and_non_power_of_two_sizes() {
        // slices and q both indivisible by the register tile edges.
        check_problem(&KronProblem::uniform(3, 3, 3).unwrap(), 5);
        check_problem(
            &KronProblem::new(2, vec![FactorShape::new(7, 5), FactorShape::new(3, 9)]).unwrap(),
            6,
        );
    }

    #[test]
    fn tall_factor_matches_oracle() {
        // P = 200: a long FMA chain per output, with Q = 3 below every
        // tile width but 2 and 1.
        check_problem(
            &KronProblem::new(2, vec![FactorShape::new(200, 3)]).unwrap(),
            7,
        );
        check_problem(
            &KronProblem::new(1, vec![FactorShape::new(2, 2), FactorShape::new(200, 3)]).unwrap(),
            8,
        );
    }

    #[test]
    fn every_candidate_grid_matches_oracle() {
        // Each grid the tuner may pick, pinned: this host's candidates and
        // an 8-wide pool's, with rows for row tiles and with one row, where
        // the slices split.
        for threads in [ThreadPool::global().threads(), 8] {
            for m in [32, 1] {
                let problem = KronProblem::uniform(m, 8, 3).unwrap();
                for i in 0..candidates(threads) {
                    let partition = grid(candidate(i, threads), m);
                    check_problem_on(&problem, 9, Some(partition));
                }
            }
        }
    }

    #[test]
    fn candidates_double_up_to_the_pool_width() {
        let tasks = |threads| -> Vec<usize> {
            (0..candidates(threads))
                .map(|i| candidate(i, threads))
                .collect()
        };
        assert_eq!(tasks(1), [1]);
        assert_eq!(tasks(2), [1, 2]);
        assert_eq!(tasks(4), [1, 2, 4]);
        assert_eq!(tasks(6), [1, 2, 4, 6]);
        // One task runs on the calling thread; more split rows first, then
        // the slices of each row.
        assert_eq!(grid(1, 1), (1, 1));
        assert_eq!(grid(1, 16), (1, 1));
        assert_eq!(grid(2, 16), (2, 1));
        assert_eq!(grid(4, 2), (2, 2));
        assert_eq!(grid(2, 1), (1, 2));
        assert_eq!(grid(6, 4), (4, 1));
    }

    #[test]
    fn fastest_best_time_wins_and_ties_go_to_fewer_tasks() {
        let us = Duration::from_micros;
        assert_eq!(fastest(&[us(5), us(3), us(4)]), 1);
        assert_eq!(fastest(&[us(9), us(4), us(2), us(2)]), 2);
        assert_eq!(fastest(&[us(7), us(7)]), 0);
        assert_eq!(fastest(&[us(1)]), 0);
    }

    #[test]
    fn a_second_workspace_reads_the_stored_grid_without_timing() {
        // A chain no other test in this crate runs, so only this test
        // tunes its entry.
        let shapes = vec![FactorShape::new(3, 7), FactorShape::new(5, 2)];
        let first = KronProblem::new(4, shapes.clone()).unwrap();
        let x = seq_matrix(7, 15, 3);
        let fs = [seq_matrix(3, 7, 1), seq_matrix(5, 2, 2)];
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let oracle = kron_matmul_naive(&x, &refs).unwrap();
        let tunings = |ws: &Workspace<f64>| ws.grids.tunings.load(Ordering::Relaxed);
        // Bucket 2 (4..8 rows) is measured by its first execute, unless
        // the pool has one thread and so one candidate.
        let timed = usize::from(ThreadPool::global().threads() > 1);
        let mut ws = Workspace::<f64>::new(&first);
        let mut y = Matrix::zeros(7, 14);
        ws.execute_rows(&x, &refs, &mut y, 4).unwrap();
        assert_eq!(tunings(&ws), timed);
        assert_ne!(ws.grids.tasks[2].load(Ordering::Relaxed), 0);
        // Another workspace of the chain, at another capacity, shares the
        // entry, and its execute of 7 rows, bucket 2 too, times nothing.
        let second = KronProblem::new(7, shapes).unwrap();
        let mut ws2 = Workspace::<f64>::new(&second);
        assert!(Arc::ptr_eq(&ws.grids, &ws2.grids));
        ws2.execute_into(&x, &refs, &mut y).unwrap();
        assert_eq!(tunings(&ws2), timed);
        assert_matrices_close(&y, &oracle, "stored grid");
        // The chain in the other dtype is an entry of its own.
        let other = Workspace::<f32>::new(&first);
        assert!(!Arc::ptr_eq(&ws.grids, &other.grids));
        assert_eq!(other.grids.tasks[2].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn workspace_is_reusable_across_calls() {
        let problem = KronProblem::uniform(4, 4, 3).unwrap();
        let mut ws = Workspace::<f64>::new(&problem);
        let mut y = Matrix::zeros(4, problem.output_cols());
        for seed in 0..4 {
            let x = seq_matrix(4, problem.input_cols(), seed);
            let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, seed + i)).collect();
            let refs: Vec<&Matrix<f64>> = fs.iter().collect();
            ws.execute_into(&x, &refs, &mut y).unwrap();
            let oracle = kron_matmul_naive(&x, &refs).unwrap();
            assert_matrices_close(&y, &oracle, &format!("reuse seed {seed}"));
        }
    }

    #[test]
    fn f32_path_matches_oracle() {
        let problem = KronProblem::uniform(3, 8, 2).unwrap();
        let x = Matrix::<f32>::from_fn(3, 64, |r, c| ((r * 64 + c) % 7) as f32 - 3.0);
        let fs: Vec<Matrix<f32>> = (0..2)
            .map(|i| Matrix::from_fn(8, 8, |r, c| ((i + r * 8 + c) % 5) as f32 - 2.0))
            .collect();
        let refs: Vec<&Matrix<f32>> = fs.iter().collect();
        let got = Workspace::new(&problem).execute(&x, &refs).unwrap();
        let oracle = kron_matmul_naive(&x, &refs).unwrap();
        assert_matrices_close(&got, &oracle, "f32 fused");
    }

    #[test]
    fn epilogue_matches_figure2_by_hand() {
        // Paper Figure 2's worked single iteration: row [1,2,3,4] sliced
        // into (1,2) and (3,4) against F = [[10,20],[30,40]]. Column 0
        // lands at out[0..2], column 1 at out[2..4] — already shuffled.
        let x = [1.0f64, 2.0, 3.0, 4.0];
        let f = [10.0f64, 20.0, 30.0, 40.0];
        let mut out = [0.0f64; 4];
        sliced_multiply_row(&x, &f, 2, 2, 2, &mut out);
        assert_eq!(out, [70.0, 150.0, 100.0, 220.0]);
    }

    #[test]
    fn fused_output_col_is_the_kernel_epilogue_map() {
        // q varies slowest, slice fastest — no transpose needed afterwards.
        assert_eq!(fused_output_col(0, 4, 0), 0);
        assert_eq!(fused_output_col(0, 4, 3), 3);
        assert_eq!(fused_output_col(1, 4, 0), 4);
        assert_eq!(fused_output_col(2, 4, 1), 9);
    }

    #[test]
    fn rows_into_matches_ftmmt_iteration_and_validates() {
        let x = seq_matrix(3, 12, 2);
        let f = seq_matrix(4, 5, 7);
        let expected = kron_core::ftmmt::ftmmt_iteration(&x, &f).unwrap();
        // Strided buffers wider than the logical rows.
        let (xs, os) = (16, 20);
        let mut xbuf = vec![0.0f64; 3 * xs];
        for r in 0..3 {
            xbuf[r * xs..r * xs + 12].copy_from_slice(x.row(r));
        }
        let mut out = vec![-1.0f64; 3 * os];
        let mut panel = PackPanel::new();
        sliced_multiply_rows_into(&xbuf, xs, &f, 3, 12, &mut out, os, &mut panel).unwrap();
        for r in 0..3 {
            assert_eq!(&out[r * os..r * os + 15], expected.row(r), "row {r}");
        }
        // Validation: k_in not a multiple of P, short strides, short buffers.
        let err = |r| -> bool { matches!(r, Err(kron_core::KronError::ShapeMismatch { .. })) };
        let mut o = vec![0.0f64; 60];
        assert!(err(sliced_multiply_rows_into(
            &xbuf, xs, &f, 3, 10, &mut o, os, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf, 8, &f, 3, 12, &mut o, os, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf, xs, &f, 3, 12, &mut o, 10, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf[..20],
            xs,
            &f,
            3,
            12,
            &mut o,
            os,
            &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf,
            xs,
            &f,
            3,
            12,
            &mut o[..40],
            os,
            &mut panel
        )));
        // rows == 0 is a no-op.
        sliced_multiply_rows_into(&xbuf, xs, &f, 0, 12, &mut o, os, &mut panel).unwrap();
    }

    #[test]
    fn convenience_wrapper_validates() {
        let x = Matrix::<f64>::zeros(2, 9);
        let f = Matrix::<f64>::identity(2);
        assert!(matches!(
            kron_matmul_fused(&x, &[&f, &f]),
            Err(KronError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            kron_matmul_fused::<f64>(&x, &[]),
            Err(KronError::NoFactors)
        ));
        let ok = seq_matrix(2, 4, 0);
        assert!(kron_matmul_fused(&ok, &[&f, &f]).is_ok());
        // Zero rows: the width is still checked, and a right width gives
        // a 0 × ∏Qᵢ result.
        assert!(matches!(
            kron_matmul_fused(&Matrix::<f64>::zeros(0, 9), &[&f, &f]),
            Err(KronError::ShapeMismatch { .. })
        ));
        let empty = kron_matmul_fused(&Matrix::<f64>::zeros(0, 4), &[&f, &f]).unwrap();
        assert_eq!((empty.rows(), empty.cols()), (0, 4));
    }

    #[test]
    fn workspace_validates_operands() {
        let problem = KronProblem::uniform(2, 4, 2).unwrap();
        let mut ws = Workspace::<f64>::new(&problem);
        let x = seq_matrix(2, 16, 0);
        let f = seq_matrix(4, 4, 1);
        let wrong_f = seq_matrix(2, 4, 1);
        assert!(ws.execute(&x, &[&f]).is_err());
        assert!(ws.execute(&x, &[&f, &wrong_f]).is_err());
        let wrong_x = seq_matrix(2, 8, 0);
        assert!(ws.execute(&wrong_x, &[&f, &f]).is_err());
        let mut wrong_y = Matrix::zeros(2, 8);
        assert!(ws.execute_into(&x, &[&f, &f], &mut wrong_y).is_err());
        assert!(ws.execute(&x, &[&f, &f]).is_ok());
    }
}
