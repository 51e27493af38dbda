//! `serve-mixed` and `serve-churn`: open-loop serving through
//! `kron_runtime::Runtime`. One generator thread submits Poisson arrivals
//! at their due times; one collector thread waits on the tickets in order.
//! Latency runs from each request's due time to the moment its reply is
//! seen.

use crate::gen::{
    self, latency_from_due_us, now_ns, wait_until, Popularity, Request, ROW_COUNTS, VARIANTS,
};
use crate::host;
use crate::report::Metrics;
use crate::rng::{Rng, Zipf};
use crate::stats::{self, percentile, ratio, sorted};
use crate::trace::{self, Span};
use crate::{Args, Outcome};
use fastkron_core::{FastKron, Workspace};
use gpu_sim::device::V100;
use kron_core::shuffle::kron_matmul_shuffle;
use kron_core::{FactorShape, KronProblem, Matrix, Result as KronResult};
use kron_runtime::{
    CachePolicy, Model, Runtime, RuntimeConfig, RuntimeStats, ServeElement, ServeReceipt,
    StageTimings, Ticket,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    Churn,
}

/// Offered rates, requests per second, named `lo` and `hi`. serve-mixed's
/// hi is under half of its `sat_rps` on the two-core host it was tuned on,
/// and already built a backlog there in stretches when neighbours loaded
/// the host; serve-churn's stay well below its own saturation, which plan
/// builds on cache misses set.
const RATE_NAMES: [&str; 2] = ["lo", "hi"];
const MIXED_RATES: [f64; 2] = [5_000.0, 48_000.0];
const CHURN_RATES: [f64; 2] = [1_500.0, 5_000.0];

/// Models in `serve-churn`, and the plan-cache bound below that live set.
const CHURN_MODELS: usize = 40;
const CHURN_CACHE_ENTRIES: usize = 32;
const CHURN_ZIPF_S: f64 = 1.1;

/// Program set-ups per untraced run; `setup_s` is their median. The first
/// gives the runtime the run measures; the others are spread over the
/// saturation replays, since on a shared host a stretch of interference
/// slowed every one of several back-to-back set-ups alike.
const SETUPS: usize = 9;
/// Every this many requests, the reply is compared with the oracle.
const CHECK_EVERY: u64 = 8;
/// Outstanding tickets the saturation window keeps.
const SAT_WINDOW: usize = 64;
/// A generator that wakes later than this after a due time is late.
const LATE_NS: u64 = 100_000;
/// `slo_rps` search stops once the bracket is this tight (5%); six probes
/// reach that from any bracket up to 20 wide.
const SLO_RESOLUTION: f64 = 1.05;
const SLO_PROBES: usize = 6;

/// Longest factor chain of any model (the direct twin keeps its factor
/// list on the stack).
const MAX_FACTORS: usize = 12;

/// One model: its factor shapes and whether it serves f64.
struct Spec {
    shapes: Vec<(usize, usize)>,
    f64: bool,
}

fn square(p: usize, n: usize) -> Vec<(usize, usize)> {
    vec![(p, p); n]
}

/// Eight warm models: square chains of several depths and one f64 model.
fn mixed_specs() -> Vec<Spec> {
    let f32s = [
        square(8, 2),
        square(16, 2),
        square(32, 2),
        square(4, 4),
        square(4, 3),
        square(8, 3),
        square(2, 8),
    ];
    let mut v: Vec<Spec> = f32s
        .into_iter()
        .map(|shapes| Spec { shapes, f64: false })
        .collect();
    v.push(Spec {
        shapes: square(16, 2),
        f64: true,
    });
    v
}

/// Forty models with distinct factor chains (square, rectangular and
/// mixed), listed from most to least popular. Every plan builds in about
/// 0.1 to 3 ms, so a miss costs a plan build but never a long stall.
fn churn_specs() -> Vec<Spec> {
    let chains: Vec<Vec<(usize, usize)>> = vec![
        square(8, 2),
        square(4, 3),
        vec![(4, 8), (8, 4)],
        square(2, 6),
        vec![(8, 2), (2, 8)],
        square(3, 6),
        vec![(3, 4), (4, 3), (3, 4)],
        square(9, 3),
        vec![(4, 2), (4, 2), (4, 2)],
        vec![(6, 5), (5, 6)],
        square(2, 5),
        square(3, 5),
        vec![(9, 4), (4, 9)],
        square(5, 4),
        vec![(4, 8), (2, 2)],
        vec![(2, 3), (3, 2), (2, 3), (3, 2)],
        vec![(5, 10), (10, 5)],
        vec![(6, 6), (2, 2)],
        square(3, 4),
        square(4, 2),
        square(9, 2),
        vec![(2, 16), (16, 2)],
        square(2, 4),
        square(5, 3),
        vec![(3, 2), (2, 3), (3, 3)],
        vec![(3, 3), (2, 2), (2, 2)],
        square(7, 3),
        vec![(3, 6), (6, 3)],
        vec![(3, 9), (9, 3)],
        vec![(9, 9), (3, 3)],
        vec![(2, 6), (6, 2)],
        square(3, 3),
        square(2, 3),
        vec![(5, 2), (2, 5)],
        vec![(7, 5), (5, 7)],
        square(5, 2),
        vec![(7, 3), (3, 7)],
        vec![(5, 3), (3, 5)],
        vec![(7, 7), (2, 2)],
        vec![(5, 5), (3, 3)],
    ];
    assert_eq!(chains.len(), CHURN_MODELS);
    chains
        .into_iter()
        .map(|shapes| Spec { shapes, f64: false })
        .collect()
}

/// A workload's model set, traffic mix, runtime configuration and rates.
struct Profile {
    specs: Vec<Spec>,
    popularity: Popularity,
    config: RuntimeConfig,
    rates: [f64; 2],
}

fn profile(kind: Kind) -> Profile {
    match kind {
        Kind::Mixed => {
            let specs = mixed_specs();
            Profile {
                popularity: Popularity::Uniform(specs.len()),
                specs,
                config: RuntimeConfig::default(),
                rates: MIXED_RATES,
            }
        }
        Kind::Churn => Profile {
            specs: churn_specs(),
            popularity: Popularity::Zipf(Zipf::new(CHURN_MODELS, CHURN_ZIPF_S)),
            config: RuntimeConfig {
                cache: CachePolicy {
                    max_entries: CHURN_CACHE_ENTRIES,
                    ..CachePolicy::default()
                },
                ..RuntimeConfig::default()
            },
            rates: CHURN_RATES,
        },
    }
}

fn m_index(m: usize) -> usize {
    ROW_COUNTS
        .iter()
        .position(|&r| r == m)
        .expect("row count from the stream")
}

fn input_index(r: &Request) -> usize {
    m_index(r.m) * VARIANTS + r.variant
}

/// One model's generated data: factors, inputs per (row count, variant),
/// their oracle outputs, and the warm-direct twin's workspaces.
struct Typed<T: ServeElement> {
    shapes: Vec<FactorShape>,
    factors: Vec<Matrix<T>>,
    inputs: Vec<Matrix<T>>,
    oracles: Vec<Matrix<T>>,
    direct: Vec<(Workspace<T>, Matrix<T>)>,
}

impl<T: ServeElement> Typed<T> {
    /// Integer values small enough that every partial sum is exact, so
    /// every correct path agrees bit for bit.
    fn new(rng: &mut Rng, spec: &Spec) -> Self {
        let mut int_matrix = |rows, cols, max_abs| {
            Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.int(max_abs) as f64))
        };
        let shapes: Vec<FactorShape> = spec
            .shapes
            .iter()
            .map(|&(p, q)| FactorShape::new(p, q))
            .collect();
        let factors: Vec<Matrix<T>> = shapes.iter().map(|s| int_matrix(s.p, s.q, 2)).collect();
        let refs: Vec<&Matrix<T>> = factors.iter().collect();
        let k: usize = shapes.iter().map(|s| s.p).product();
        let mut inputs = Vec::new();
        let mut oracles = Vec::new();
        let mut direct = Vec::new();
        for &m in &ROW_COUNTS {
            for _ in 0..VARIANTS {
                let x = int_matrix(m, k, 3);
                oracles.push(kron_matmul_shuffle(&x, &refs).expect("shuffle oracle"));
                inputs.push(x);
            }
            let problem = KronProblem::new(m, shapes.clone()).expect("valid model");
            direct.push((
                Workspace::new(&problem),
                Matrix::zeros(m, problem.output_cols()),
            ));
        }
        Typed {
            shapes,
            factors,
            inputs,
            oracles,
            direct,
        }
    }

    fn flops(&self, m: usize) -> f64 {
        KronProblem::new(m, self.shapes.clone())
            .expect("valid model")
            .flops() as f64
    }

    /// The warm-direct twin: the same request through a per-model
    /// `Workspace::execute_into`, no runtime involved.
    fn direct(&mut self, r: &Request) -> bool {
        let (ws, y) = &mut self.direct[m_index(r.m)];
        let n = self.factors.len();
        let refs: [&Matrix<T>; MAX_FACTORS] = std::array::from_fn(|i| &self.factors[i.min(n - 1)]);
        ws.execute_into(&self.inputs[input_index(r)], &refs[..n], y)
            .is_ok()
    }

    /// Plan-build time for this model at the runtime's batch capacity.
    fn plan_seconds(&self, capacity: usize) -> f64 {
        let problem = KronProblem::new(capacity, self.shapes.clone()).expect("valid model");
        let t0 = Instant::now();
        let plan = FastKron::plan::<T>(&problem, &V100);
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(plan.is_ok());
        s
    }
}

enum Data {
    F32(Typed<f32>),
    F64(Typed<f64>),
}

enum Handle {
    F32(Model<f32>),
    F64(Model<f64>),
}

enum Input {
    F32(Matrix<f32>),
    F64(Matrix<f64>),
}

enum AnyTicket {
    F32(Ticket<f32>),
    F64(Ticket<f64>),
}

enum Output {
    F32(Matrix<f32>),
    F64(Matrix<f64>),
}

impl Data {
    fn new(rng: &mut Rng, spec: &Spec) -> Self {
        if spec.f64 {
            Data::F64(Typed::new(rng, spec))
        } else {
            Data::F32(Typed::new(rng, spec))
        }
    }

    fn load(&self, rt: &Runtime) -> KronResult<Handle> {
        Ok(match self {
            Data::F32(d) => Handle::F32(rt.load_model(d.factors.clone())?),
            Data::F64(d) => Handle::F64(rt.load_model(d.factors.clone())?),
        })
    }

    fn input(&self, r: &Request) -> Input {
        match self {
            Data::F32(d) => Input::F32(d.inputs[input_index(r)].clone()),
            Data::F64(d) => Input::F64(d.inputs[input_index(r)].clone()),
        }
    }

    fn exact(&self, r: &Request, out: &Output) -> bool {
        let i = input_index(r);
        match (self, out) {
            (Data::F32(d), Output::F32(y)) => y.as_slice() == d.oracles[i].as_slice(),
            (Data::F64(d), Output::F64(y)) => y.as_slice() == d.oracles[i].as_slice(),
            _ => false,
        }
    }

    fn flops(&self, m: usize) -> f64 {
        match self {
            Data::F32(d) => d.flops(m),
            Data::F64(d) => d.flops(m),
        }
    }

    fn direct(&mut self, r: &Request) -> bool {
        match self {
            Data::F32(d) => d.direct(r),
            Data::F64(d) => d.direct(r),
        }
    }

    fn plan_seconds(&self, capacity: usize) -> f64 {
        match self {
            Data::F32(d) => d.plan_seconds(capacity),
            Data::F64(d) => d.plan_seconds(capacity),
        }
    }
}

fn submit(rt: &Runtime, h: &Handle, x: Input) -> KronResult<AnyTicket> {
    match (h, x) {
        (Handle::F32(m), Input::F32(x)) => rt.submit(m, x).map(AnyTicket::F32),
        (Handle::F64(m), Input::F64(x)) => rt.submit(m, x).map(AnyTicket::F64),
        _ => unreachable!("inputs are generated with their model's dtype"),
    }
}

fn wait(t: AnyTicket) -> KronResult<(Output, ServeReceipt)> {
    match t {
        AnyTicket::F32(t) => t.wait_with_receipt().map(|(y, r)| (Output::F32(y), r)),
        AnyTicket::F64(t) => t.wait_with_receipt().map(|(y, r)| (Output::F64(y), r)),
    }
}

/// The generated side of a workload: data per model and the flops of each
/// (model, row count).
struct Set {
    data: Vec<Data>,
    flops: Vec<[f64; 4]>,
}

impl Set {
    fn new(seed: u64, specs: &[Spec]) -> Self {
        let root = Rng::new(seed).fork(0xDA7A);
        let data: Vec<Data> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| Data::new(&mut root.fork(i as u64), s))
            .collect();
        let flops = data
            .iter()
            .map(|d| ROW_COUNTS.map(|m| d.flops(m)))
            .collect();
        Set { data, flops }
    }

    fn flops(&self, r: &Request) -> f64 {
        self.flops[r.model][m_index(r.m)]
    }
}

/// The program's set-up: a runtime, every model loaded, and each plan
/// warmed by one request.
fn setup(profile: &Profile, set: &Set) -> (Runtime, Vec<Handle>, f64) {
    let t0 = Instant::now();
    let rt = Runtime::new(profile.config.clone());
    let handles: Vec<Handle> = set
        .data
        .iter()
        .map(|d| d.load(&rt).expect("load model"))
        .collect();
    // Least popular first, so a bounded cache ends up holding the most
    // popular models. The warm-up requests are all in flight at once, so
    // set-up time is the plan builds' and not a thread hand-off per model,
    // whose cost changed from process to process on the host this was
    // tuned on.
    let warm = |model| Request {
        id: 0,
        due_ns: 0,
        model,
        m: ROW_COUNTS[0],
        variant: 0,
    };
    let tickets: Vec<_> = (0..set.data.len())
        .rev()
        .map(|i| (i, submit(&rt, &handles[i], set.data[i].input(&warm(i)))))
        .collect();
    for (i, t) in tickets {
        let (y, _) = t.and_then(wait).expect("warm-up request");
        assert!(
            set.data[i].exact(&warm(i), &y),
            "warm-up reply of model {i} differs from the oracle"
        );
    }
    (rt, handles, t0.elapsed().as_secs_f64())
}

/// One reply as the client saw it, in ns since the epoch.
#[derive(Debug, Clone, Copy)]
struct Done {
    req: Request,
    due_ns: u64,
    lag_ns: u64,
    submit: (u64, u64),
    wait: (u64, u64),
    ok: bool,
    wrong: bool,
    timings: StageTimings,
}

impl Done {
    fn latency_us(&self) -> f64 {
        latency_from_due_us(self.due_ns, self.wait.1)
    }
}

/// One open-loop window: the generator submits each request at its due
/// time; the collector waits on the tickets in order, filling `out`. When
/// `traced`, it also stamps each call into the runtime and samples the
/// runtime's cached-bytes gauge, whose peak it returns.
fn open_window(
    rt: &Runtime,
    set: &Set,
    handles: &[Handle],
    reqs: &[Request],
    epoch: Instant,
    traced: bool,
    out: &mut Vec<Done>,
) -> u64 {
    let stamp = || if traced { now_ns(epoch) } else { 0 };
    let start = now_ns(epoch) + 2_000_000;
    let (tx, rx) = mpsc::channel::<(Request, u64, u64, u64, KronResult<AnyTicket>)>();
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            gen::tight_timer_slack();
            for r in reqs {
                let x = set.data[r.model].input(r);
                let lag = wait_until(epoch, start + r.due_ns);
                let s0 = stamp();
                let t = submit(rt, &handles[r.model], x);
                let s1 = stamp();
                tx.send((*r, lag, s0, s1, t))
                    .expect("collector outlives the generator");
            }
        });
        let collector = s.spawn(|| {
            out.clear();
            for (req, lag_ns, s0, s1, t) in rx {
                let w0 = stamp();
                let reply = t.and_then(wait);
                let w1 = now_ns(epoch);
                let (ok, wrong, timings) = match reply {
                    Ok((y, receipt)) => {
                        let wrong =
                            req.id % CHECK_EVERY == 0 && !set.data[req.model].exact(&req, &y);
                        (!wrong, wrong, receipt.timings)
                    }
                    Err(_) => (false, false, StageTimings::default()),
                };
                out.push(Done {
                    req,
                    due_ns: start + req.due_ns,
                    lag_ns,
                    submit: (s0, s1),
                    wait: (w0, w1),
                    ok,
                    wrong,
                    timings,
                });
            }
            finished.store(true, Ordering::Release);
        });
        let mut peak = 0;
        if traced {
            while !finished.load(Ordering::Acquire) {
                peak = peak.max(rt.stats().cached_bytes);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        generator.join().expect("generator thread panicked");
        collector.join().expect("collector thread panicked");
        peak
    })
}

/// Counts of a saturation or direct chunk.
#[derive(Default)]
struct Chunk {
    completed: u64,
    seconds: f64,
    flops: f64,
    failed: u64,
    wrong: u64,
    call_us: Vec<f64>,
}

/// Saturation: one thread keeps `SAT_WINDOW` tickets outstanding, waiting
/// on the oldest before submitting the next, until `reqs` ends or `dur_ns`
/// has passed.
fn closed_chunk<'r>(
    rt: &Runtime,
    set: &Set,
    handles: &[Handle],
    reqs: impl Iterator<Item = &'r Request>,
    dur_ns: u64,
) -> Chunk {
    let mut c = Chunk::default();
    let mut q: VecDeque<(Request, KronResult<AnyTicket>)> = VecDeque::with_capacity(SAT_WINDOW);
    let t0 = Instant::now();
    let finish = |c: &mut Chunk, (r, t): (Request, KronResult<AnyTicket>)| match t.and_then(wait) {
        Ok((y, _)) => {
            if r.id % CHECK_EVERY == 0 && !set.data[r.model].exact(&r, &y) {
                c.wrong += 1;
                c.failed += 1;
            } else {
                c.completed += 1;
                c.flops += set.flops(&r);
            }
        }
        Err(_) => c.failed += 1,
    };
    for r in reqs {
        if t0.elapsed().as_nanos() as u64 >= dur_ns {
            break;
        }
        if q.len() == SAT_WINDOW {
            let front = q.pop_front().expect("window is full");
            finish(&mut c, front);
        }
        q.push_back((
            *r,
            submit(rt, &handles[r.model], set.data[r.model].input(r)),
        ));
    }
    while let Some(front) = q.pop_front() {
        finish(&mut c, front);
    }
    c.seconds = t0.elapsed().as_secs_f64();
    c
}

/// The warm-direct twin over the same stream for `dur_ns`.
fn direct_chunk(set: &mut Set, reqs: &[Request], dur_ns: u64) -> Chunk {
    let mut c = Chunk::default();
    let t0 = Instant::now();
    for r in reqs.iter().cycle() {
        if t0.elapsed().as_nanos() as u64 >= dur_ns {
            break;
        }
        let s = Instant::now();
        let ok = set.data[r.model].direct(r);
        c.call_us.push(s.elapsed().as_secs_f64() * 1e6);
        if ok {
            c.completed += 1;
        } else {
            c.failed += 1;
        }
    }
    c.seconds = t0.elapsed().as_secs_f64();
    c
}

/// Stats delta `after - before` for the counters the metrics use.
fn delta(after: &RuntimeStats, before: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        submitted: after.submitted - before.submitted,
        served: after.served - before.served,
        batches: after.batches - before.batches,
        batched_requests: after.batched_requests - before.batched_requests,
        solo_requests: after.solo_requests - before.solo_requests,
        bypassed_requests: after.bypassed_requests - before.bypassed_requests,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        evictions: after.evictions - before.evictions,
        rebuilds: after.rebuilds - before.rebuilds,
        ..RuntimeStats::default()
    }
}

/// Everything a run measured, pooled per rate.
struct Run<'a> {
    args: &'a Args,
    profile: Profile,
    set: Set,
    rt: Runtime,
    handles: Vec<Handle>,
    /// Times of the set-up `rt` came from and of the extra set-ups since.
    setup_s: Vec<f64>,
    rng: Rng,
    epoch: Instant,
    next_id: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    req_buf: Vec<Request>,
    done_buf: Vec<Done>,
}

impl Run<'_> {
    fn window_ns(&self, share: f64) -> u64 {
        (self.args.seconds as f64 * share * 1e9) as u64
    }

    fn stream(&mut self, rate: f64, window_ns: u64) -> Vec<Request> {
        let mut rng = self.rng.fork(self.next_id);
        let mut reqs = std::mem::take(&mut self.req_buf);
        gen::poisson_stream(
            &mut rng,
            rate,
            window_ns,
            &self.profile.popularity,
            self.next_id,
            &mut reqs,
        );
        self.next_id += reqs.len() as u64 + 1;
        reqs
    }

    fn closed_stream(&mut self) -> Vec<Request> {
        let mut rng = self.rng.fork(self.next_id);
        let reqs = gen::closed_stream(&mut rng, 1 << 15, &self.profile.popularity, self.next_id);
        self.next_id += reqs.len() as u64 + 1;
        reqs
    }

    fn count(&mut self, done: &[Done]) {
        self.attempted += done.len() as u64;
        self.failed += done.iter().filter(|d| !d.ok).count() as u64;
        self.wrong += done.iter().filter(|d| d.wrong).count() as u64;
    }

    fn count_chunk(&mut self, c: &Chunk) {
        self.attempted += c.completed + c.failed;
        self.failed += c.failed;
        self.wrong += c.wrong;
    }

    /// A slice of an open window at `rate`: `MIN_SLICE_SHARE` of the run,
    /// or long enough for `MIN_REPLIES` replies, but never over `cap_ns`.
    fn slice_ns(&self, rate: f64, cap_ns: u64) -> u64 {
        self.window_ns(MIN_SLICE_SHARE)
            .max((MIN_REPLIES / rate * 1e9) as u64)
            .min(cap_ns)
    }

    /// Slices of the lo and hi windows when rounds of `per_round` windows
    /// share `share` of the run: one round always fits.
    fn rate_slices(&self, share: f64, per_round: usize) -> [u64; 2] {
        let cap = self.window_ns(share) / (per_round * SLICES) as u64;
        self.profile.rates.map(|r| self.slice_ns(r, cap))
    }

    /// Rounds of `round_ns` that fit in `share` of the run (at least one).
    fn rounds(&self, share: f64, round_ns: u64) -> usize {
        ((self.window_ns(share) / round_ns.max(1)) as usize).max(1)
    }

    /// An open window of `SLICES` slices of `slice_ns` at `rate`, counted
    /// toward `attempted`/`failed`.
    fn open(&mut self, rate: f64, slice_ns: u64, traced: bool) -> (Vec<Done>, u64) {
        let reqs = self.stream(rate, slice_ns * SLICES as u64);
        let mut done = std::mem::take(&mut self.done_buf);
        let peak = open_window(
            &self.rt,
            &self.set,
            &self.handles,
            &reqs,
            self.epoch,
            traced,
            &mut done,
        );
        self.req_buf = reqs;
        self.count(&done);
        (done, peak)
    }

    /// Hands a window's replies back for the next window to reuse.
    fn recycle(&mut self, done: Vec<Done>) {
        self.done_buf = done;
    }

    /// Untimed windows at the lo and hi rates, so caches and allocators
    /// reach their steady state before anything is measured.
    fn warm_up(&mut self) {
        let slices = self.rate_slices(WARM_SHARE, 2);
        for (rate, slice_ns) in self.profile.rates.into_iter().zip(slices) {
            let (done, _) = self.open(rate, slice_ns, false);
            self.recycle(done);
        }
    }

    /// Saturation: one block of `SAT_BLOCK` requests, cut into parts of
    /// `SAT_PART`, replayed part by part, back to back, for `SAT_SHARE` of
    /// the run. Every replay of a part does the same work, the cache
    /// misses of a bounded cache included, since it starts from the cache
    /// state the previous part left. Returns the block's requests and
    /// Kronecker flops, and each part's best time and every replay's
    /// times.
    fn sat_replays(&mut self) -> Replays {
        let mut rng = self.rng.fork(self.next_id);
        let block =
            gen::fixed_mix_stream(&mut rng, SAT_BLOCK, &self.profile.popularity, self.next_id);
        self.next_id += block.len() as u64 + 1;
        let budget = Duration::from_nanos(self.window_ns(SAT_SHARE));
        let parts: Vec<&[Request]> = block.chunks(SAT_PART).collect();
        let mut r = Replays {
            requests: block.len() as f64,
            flops: block.iter().map(|q| self.set.flops(q)).sum(),
            best_s: vec![f64::INFINITY; parts.len()],
            times_s: vec![Vec::new(); parts.len()],
        };
        let t0 = Instant::now();
        // Every part is replayed at least once; after that the budget may
        // end a replay of the block between two parts. The extra set-ups
        // fall between parts, evenly over the budget.
        let extra = (SETUPS - 1) as f64;
        'replays: loop {
            for (k, part) in parts.iter().enumerate() {
                if !r.times_s[k].is_empty() && t0.elapsed() >= budget {
                    break 'replays;
                }
                let done = (self.setup_s.len() - 1) as f64;
                if done < extra && t0.elapsed() >= budget.mul_f64(done / extra) {
                    self.extra_setup();
                }
                let c = closed_chunk(&self.rt, &self.set, &self.handles, part.iter(), u64::MAX);
                self.count_chunk(&c);
                r.best_s[k] = r.best_s[k].min(c.seconds);
                r.times_s[k].push(c.seconds);
            }
        }
        while self.setup_s.len() < SETUPS {
            self.extra_setup();
        }
        r
    }

    /// One more set-up of the program, timed and shut down at once; the
    /// run goes on with its own runtime.
    fn extra_setup(&mut self) {
        let (rt, _, s) = setup(&self.profile, &self.set);
        rt.shutdown();
        self.setup_s.push(s);
    }

    /// `slo_rps`: bisects between `good`, which met the limit, and `bad`,
    /// which should not, spending `SLO_SHARE` of the run evenly over at
    /// most `SLO_PROBES` probes whatever their rate.
    fn slo_search(&mut self, mut good: f64, mut bad: f64) -> f64 {
        let limit = self.args.slo_p99_us;
        let slice_ns = self.window_ns(SLO_SHARE) / (SLO_PROBES * SLO_WINDOWS * SLICES) as u64;
        for _ in 0..SLO_PROBES {
            if bad / good <= SLO_RESOLUTION {
                break;
            }
            let probe = (good * bad).sqrt();
            let mut w = RateWindows::default();
            for _ in 0..SLO_WINDOWS {
                let (done, _) = self.open(probe, slice_ns, false);
                w.add(&done, 0, slice_ns);
                self.recycle(done);
            }
            let ok = w.meets_slo(limit);
            println!(
                "slo probe {probe:>8.0}/s: median slice p99 {:.1} us -> {}; slice p99s in ms {:?}",
                stats::median(&w.p99),
                if ok { "met" } else { "missed" },
                w.p99
                    .iter()
                    .map(|p| (p / 1e3).round() as u64)
                    .collect::<Vec<_>>()
            );
            if ok {
                good = probe;
            } else {
                bad = probe;
            }
        }
        good
    }
}

/// Latency is summarised per slice of an open window. A slice lasts this
/// share of `--seconds` (0.12 s at 36 s), or long enough for `MIN_REPLIES`
/// replies, so that its p99 has ten samples beyond it, unless its phase
/// has no time left for that. A window is `SLICES` slices; its first
/// slice, where the queues are still filling, is not counted.
const MIN_SLICE_SHARE: f64 = 1.0 / 300.0;
const MIN_REPLIES: f64 = 1_000.0;
const SLICES: usize = 6;
/// Shares of `--seconds` each phase may spend: warm-up; in the untraced
/// run, the fixed-rate windows and the saturation replays; in the traced
/// run, the fixed-rate windows, each of the `TRACED_CHUNKS` saturation and
/// warm-direct chunks, and the `slo_rps` search. No phase outlasts its
/// share by more than one replay, so a run takes about `--seconds` plus
/// set-up however slow the program under test is.
const WARM_SHARE: f64 = 0.04;
const RATES_SHARE: f64 = 0.2;
const SAT_SHARE: f64 = 0.7;
const TRACED_RATES_SHARE: f64 = 0.35;
const TRACED_CHUNK_SHARE: f64 = 1.0 / 160.0;
const TRACED_CHUNKS: usize = 16;
const SLO_SHARE: f64 = 0.35;
/// Windows per `slo_rps` probe.
const SLO_WINDOWS: usize = 3;
/// Requests in the replayed saturation block, whose mix of models and row
/// counts is the same for every seed. On `serve-churn` the block's cache
/// misses set its cost, and they depend on the order too; at this size
/// their share of lookups varies by a few percent from seed to seed,
/// against a fifth at 1024 requests.
const SAT_BLOCK: usize = 1 << 14;
/// Requests in one timed part of the block: a few to a few tens of
/// milliseconds of work. `sat_rps` rests on each part's best replay.
/// Interference from other tenants of a shared host only ever slows a
/// replay down, and it came and went from one stretch of seconds to the
/// next on the host this was tuned on; a short part often runs clear of
/// it, so its best time follows the program and not the neighbours.
const SAT_PART: usize = 1024;

/// The saturation replays of an untraced run.
struct Replays {
    requests: f64,
    flops: f64,
    /// Each part's best time, in seconds.
    best_s: Vec<f64>,
    /// Each part's times, one per replay.
    times_s: Vec<Vec<f64>>,
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let profile = profile(kind);
    let set = Set::new(args.seed, &profile.specs);
    let (rt, handles, setup_s) = setup(&profile, &set);
    let base = rt.stats();
    let mut run = Run {
        args,
        profile,
        set,
        rt,
        handles,
        setup_s: vec![setup_s],
        rng: Rng::new(args.seed).fork(0x57EA),
        epoch: Instant::now(),
        next_id: 0,
        attempted: 0,
        failed: 0,
        wrong: 0,
        req_buf: Vec::new(),
        done_buf: Vec::new(),
    };
    let (metrics, bypass) = if args.trace {
        traced(&mut run)
    } else {
        untraced(&mut run)
    };
    let d = delta(&run.rt.stats(), &base);
    println!(
        "runtime after set-up: served {} batches {} bypassed {} plan hits {} misses {} evictions {}; \
         bypassed share lo {:.3} hi {:.3}",
        d.served,
        d.batches,
        d.bypassed_requests,
        d.plan_hits,
        d.plan_misses,
        d.evictions,
        bypass[0],
        bypass[1]
    );
    let invalid = separation(kind, &d, bypass);
    let Run {
        rt,
        attempted,
        failed,
        wrong,
        ..
    } = run;
    rt.shutdown();
    Outcome {
        attempted,
        failed,
        wrong,
        invalid,
        metrics,
    }
}

/// The counts that set a serving workload apart, from the runtime's stats
/// since set-up and the bypassed share of requests at lo and hi:
/// `serve-mixed` never misses the plan cache and bypasses more at lo than
/// at hi; `serve-churn` misses and evicts. A run where they fail did not
/// exercise what its workload is for, so it is invalid.
fn separation(kind: Kind, d: &RuntimeStats, bypass: [f64; 2]) -> Option<String> {
    match kind {
        Kind::Mixed if d.plan_misses > 0 => Some(format!(
            "serve-mixed missed the plan cache {} times after set-up",
            d.plan_misses
        )),
        Kind::Mixed if bypass[0] <= bypass[1] => Some(format!(
            "serve-mixed bypassed {:.3} of requests at lo, not more than the {:.3} at hi",
            bypass[0], bypass[1]
        )),
        Kind::Churn if d.plan_misses == 0 || d.evictions == 0 => Some(format!(
            "serve-churn had {} plan misses and {} evictions after set-up; both must be above 0",
            d.plan_misses, d.evictions
        )),
        _ => None,
    }
}

/// Rate windows in `rounds` rounds, lo then hi in even rounds and hi then
/// lo in odd ones, so neither rate always follows the other.
fn rate_order(rounds: usize) -> impl Iterator<Item = usize> {
    (0..rounds).flat_map(|round| (0..2).map(move |k| (round + k) % 2))
}

/// Per-slice latency figures of one rate, over all its windows.
#[derive(Default)]
struct RateWindows {
    p50: Vec<f64>,
    p99: Vec<f64>,
    failed: usize,
    replies: usize,
    bypassed: u64,
}

impl RateWindows {
    fn add(&mut self, done: &[Done], bypassed: u64, slice_ns: u64) {
        let mut slices = vec![Vec::new(); SLICES];
        for d in done {
            if let Some(s) = slices.get_mut((d.req.due_ns / slice_ns) as usize) {
                s.push(d.latency_us());
            }
        }
        for lat in slices.into_iter().skip(1) {
            let lat = sorted(lat);
            self.p50.push(percentile(&lat, 0.5));
            self.p99.push(percentile(&lat, 0.99));
        }
        self.failed += done.iter().filter(|d| !d.ok).count();
        self.replies += done.len();
        self.bypassed += bypassed;
    }

    /// The limit holds when nothing failed and the median slice's p99 is
    /// within it. A growing backlog fails this too, since it raises each
    /// window's later slices: in the probe windows of a 36 s traced run, a
    /// backlog growing by 2% of the offered rate adds about 8 ms by the
    /// median slice. One slice spoiled by a stall on the host does not fail it.
    fn meets_slo(&self, limit_us: f64) -> bool {
        self.failed == 0 && stats::median(&self.p99) <= limit_us
    }
}

/// A chunk's completed requests per second.
fn chunk_rps(c: &Chunk) -> f64 {
    ratio(c.completed as f64, c.seconds)
}

fn untraced(run: &mut Run) -> (Metrics, [f64; 2]) {
    let mut m = Metrics::default();
    m.set("peak_rss_mb", host::peak_rss_mb());
    run.warm_up();

    // Fixed-rate windows, lo and hi alternating: the bypassed shares the
    // workload check needs, with latency printed for the log.
    let mut rates: [RateWindows; 2] = Default::default();
    let slices = run.rate_slices(RATES_SHARE, 2);
    let round_ns = (slices[0] + slices[1]) * SLICES as u64;
    for i in rate_order(run.rounds(RATES_SHARE, round_ns)) {
        let before = run.rt.stats();
        let (done, _) = run.open(run.profile.rates[i], slices[i], false);
        let bypassed = delta(&run.rt.stats(), &before).bypassed_requests;
        rates[i].add(&done, bypassed, slices[i]);
        run.recycle(done);
    }
    print_rates(run, &rates);

    // sat_rps and kron_gflops: the whole block at each part's best time.
    let r = run.sat_replays();
    let best_s: f64 = r.best_s.iter().sum();
    let median_s: f64 = r.times_s.iter().map(|t| stats::median(t)).sum();
    println!(
        "{} replays of {} parts of {SAT_PART} requests: {:.0} req/s at each part's best time, \
         {:.0} at its median",
        r.times_s[0].len(),
        r.best_s.len(),
        r.requests / best_s,
        r.requests / median_s
    );
    m.set("sat_rps", r.requests / best_s);
    m.set("kron_gflops", r.flops / best_s / 1e9);
    println!("set-up seconds: {:.4?}", run.setup_s);
    m.set("setup_s", stats::median(&run.setup_s));
    let bypass = [0, 1].map(|i| ratio(rates[i].bypassed as f64, rates[i].replies as f64));
    (m, bypass)
}

/// Prints each fixed rate's replies, median slice latency, bypassed share
/// and verdict against the latency limit.
fn print_rates(run: &Run, rates: &[RateWindows; 2]) {
    for (i, w) in rates.iter().enumerate() {
        println!(
            "rate {:>3} {:>8.0}/s: {} replies in {} slices, median slice p50 {:.1} us, p99 {:.1} us, \
             bypassed {:.3}, slo {}",
            RATE_NAMES[i],
            run.profile.rates[i],
            w.replies,
            w.p50.len(),
            stats::median(&w.p50),
            stats::median(&w.p99),
            ratio(w.bypassed as f64, w.replies as f64),
            if w.meets_slo(run.args.slo_p99_us) {
                "met"
            } else {
                "missed"
            }
        );
    }
}

/// Request spans of one reply: the client's view (due → reply) and the
/// calls it made into the runtime.
fn request_spans(d: &Done, spans: &mut Vec<Span>) {
    let id = d.req.id;
    spans.push(Span::root("request", id, d.due_ns, d.wait.1));
    spans.push(Span::child("gen.lag", 1, id, d.due_ns, d.submit.0));
    spans.push(Span::child(
        "Runtime::submit",
        2,
        id,
        d.submit.0,
        d.submit.1,
    ));
    spans.push(Span::child(
        "Ticket::wait_with_receipt",
        3,
        id,
        d.wait.0,
        d.wait.1,
    ));
}

fn traced(run: &mut Run) -> (Metrics, [f64; 2]) {
    let hostrec = host::record();
    let mut m = Metrics::default();
    m.set("host.nproc", hostrec.nproc as f64);
    m.set("host.pool_threads", hostrec.pool_threads as f64);
    m.set(
        "host.fma_peak_gflops",
        host::fma_peak_gflops(hostrec.nproc, 0.2),
    );
    m.set("host.stream_gbps", host::stream_gbps(8));

    // Plan builds, timed through `FastKron::plan` on every model's shape
    // at the runtime's batch capacity.
    let capacity = run.profile.config.max_batch_rows;
    let plan_s: Vec<f64> = run
        .set
        .data
        .iter()
        .map(|d| d.plan_seconds(capacity))
        .collect();
    let plan_mean_s = plan_s.iter().sum::<f64>() / plan_s.len() as f64;
    m.set("plan.ms_p50", stats::median(&plan_s) * 1e3);

    run.warm_up();
    let base = run.rt.stats();
    let mut spans = Vec::new();
    let mut all: Vec<Done> = Vec::new();
    let mut hi: Vec<Done> = Vec::new();
    let mut bypass = [(0u64, 0u64); 2];
    let mut client: [RateWindows; 2] = Default::default();
    let mut bytes_peak = 0;
    let mut untraced_hi = Vec::new();
    // A round is a traced lo and hi window plus an untraced hi window.
    let slices = run.rate_slices(TRACED_RATES_SHARE, 3);
    let round_ns = (slices[0] + 2 * slices[1]) * SLICES as u64;
    for (n, i) in rate_order(run.rounds(TRACED_RATES_SHARE, round_ns)).enumerate() {
        let before = run.rt.stats();
        let (done, peak) = run.open(run.profile.rates[i], slices[i], true);
        bytes_peak = bytes_peak.max(peak);
        let d = delta(&run.rt.stats(), &before);
        bypass[i].0 += d.bypassed_requests;
        bypass[i].1 += done.len() as u64;
        client[i].add(&done, d.bypassed_requests, slices[i]);
        for d in &done {
            request_spans(d, &mut spans);
        }
        if i == 1 {
            hi.extend_from_slice(&done);
        }
        all.extend_from_slice(&done);
        run.recycle(done);
        // Once per round, the hi rate again with no spans recorded: the
        // tracing-overhead reference.
        if n % 2 == 1 {
            let (done, _) = run.open(run.profile.rates[1], slices[1], false);
            untraced_hi.extend(done.iter().map(Done::latency_us));
            run.recycle(done);
        }
    }
    let d = delta(&run.rt.stats(), &base);

    let submit_us = sorted(
        all.iter()
            .map(|d| (d.submit.1 - d.submit.0) as f64 / 1e3)
            .collect(),
    );
    let wait_us = sorted(
        all.iter()
            .map(|d| (d.wait.1 - d.wait.0) as f64 / 1e3)
            .collect(),
    );
    m.set("submit.us_p50", percentile(&submit_us, 0.5));
    m.set("submit.us_p99", percentile(&submit_us, 0.99));
    m.set("wait.us_p50", percentile(&wait_us, 0.5));
    for (w, names) in client.iter().zip([
        ["client.p50_us.lo", "client.p99_us.lo"],
        ["client.p50_us.hi", "client.p99_us.hi"],
    ]) {
        m.set(names[0], stats::median(&w.p50));
        m.set(names[1], stats::median(&w.p99));
    }
    for (name, (b, n)) in ["admit.bypass_ratio.lo", "admit.bypass_ratio.hi"]
        .into_iter()
        .zip(bypass)
    {
        m.set(name, ratio(b as f64, n as f64));
    }
    m.set("sched.batches", d.batches as f64);
    m.set(
        "sched.reqs_per_batch",
        ratio(d.batched_requests as f64, d.batches as f64),
    );
    m.set(
        "sched.solo_ratio",
        ratio(d.solo_requests as f64, d.served as f64),
    );
    let stage = |f: fn(&StageTimings) -> u64, q: f64| {
        percentile(
            &sorted(
                hi.iter()
                    .filter(|d| d.ok)
                    .map(|d| f(&d.timings) as f64)
                    .collect(),
            ),
            q,
        )
    };
    m.set("stage.queue_us_p99", stage(|t| t.queue_us, 0.99));
    m.set("stage.linger_us_p50", stage(|t| t.linger_us, 0.5));
    m.set("stage.exec_us_p50", stage(|t| t.exec_us, 0.5));
    m.set("stage.scatter_us_p50", stage(|t| t.scatter_us, 0.5));
    m.set(
        "cache.hit_ratio",
        ratio(d.plan_hits as f64, (d.plan_hits + d.plan_misses) as f64),
    );
    m.set("cache.misses", d.plan_misses as f64);
    m.set("cache.evictions", d.evictions as f64);
    m.set("cache.rebuilds", d.rebuilds as f64);
    m.set("cache.bytes_peak", bytes_peak as f64);
    m.set("plan.calls", d.plan_misses as f64);
    m.set("plan.busy_s", d.plan_misses as f64 * plan_mean_s);
    // Client latency from the submit call, minus what the runtime's own
    // stage timeline accounts for.
    let residue = sorted(
        all.iter()
            .filter(|d| d.ok)
            .map(|d| (d.wait.1 - d.submit.0) as f64 / 1e3 - d.timings.total_us() as f64)
            .collect(),
    );
    m.set("timeline.residue_us_p50", percentile(&residue, 0.5));
    let lag = sorted(all.iter().map(|d| d.lag_ns as f64 / 1e3).collect());
    m.set("gen.sent", all.len() as f64);
    m.set("gen.lag_us_p99", percentile(&lag, 0.99));
    m.set(
        "gen.late_ratio",
        ratio(
            all.iter().filter(|d| d.lag_ns > LATE_NS).count() as f64,
            all.len() as f64,
        ),
    );
    let traced_hi = sorted(hi.iter().map(Done::latency_us).collect());
    let untraced_hi = sorted(untraced_hi);
    m.set(
        "trace.overhead_frac",
        ratio(percentile(&traced_hi, 0.5), percentile(&untraced_hi, 0.5)) - 1.0,
    );

    // Saturation and the warm-direct twin over the same streams, their
    // order alternating chunk by chunk.
    let (mut served, mut direct) = (Chunk::default(), Chunk::default());
    let mut fastest: f64 = 0.0;
    for k in 0..TRACED_CHUNKS {
        let reqs = run.closed_stream();
        let dur = run.window_ns(TRACED_CHUNK_SHARE);
        let serve =
            |run: &Run| closed_chunk(&run.rt, &run.set, &run.handles, reqs.iter().cycle(), dur);
        let (s, dc) = if k % 2 == 0 {
            let s = serve(run);
            (s, direct_chunk(&mut run.set, &reqs, dur))
        } else {
            let dc = direct_chunk(&mut run.set, &reqs, dur);
            (serve(run), dc)
        };
        fastest = fastest.max(chunk_rps(&s));
        run.count_chunk(&s);
        run.count_chunk(&dc);
        served.completed += s.completed;
        served.seconds += s.seconds;
        direct.completed += dc.completed;
        direct.seconds += dc.seconds;
        direct.call_us.extend(dc.call_us);
    }
    let direct_rps = ratio(direct.completed as f64, direct.seconds);
    m.set("direct.rps", direct_rps);
    m.set("direct.us_p50", stats::median(&direct.call_us));
    m.set(
        "serve.vs_direct",
        ratio(ratio(served.completed as f64, served.seconds), direct_rps),
    );

    // slo_rps: bisect between lo, which should meet the limit, and a tenth
    // above the fastest saturation chunk, which should not; if lo misses,
    // search below it instead.
    let lo = run.profile.rates[0];
    let (good, bad) = if client[0].meets_slo(run.args.slo_p99_us) {
        (lo, (fastest * 1.1).max(lo * 1.5))
    } else {
        (lo / 8.0, lo)
    };
    m.set("slo_rps", run.slo_search(good, bad));

    let selfs = trace::self_times(&spans);
    let residue: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, &t)| t as f64 / 1e3)
        .collect();
    let residue = sorted(residue);
    m.set("trace.residue_us_p50", percentile(&residue, 0.5));
    m.set("fail_ratio", ratio(run.failed as f64, run.attempted as f64));
    trace::print_layers(&spans);
    println!(
        "residue (client latency not inside any traced call): p50 {:.1} us, p99 {:.1} us",
        percentile(&residue, 0.5),
        percentile(&residue, 0.99)
    );
    crate::write_trace(&run.args.workload, &spans);
    (m, bypass.map(|(b, n)| ratio(b as f64, n as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(plan_misses: u64, evictions: u64) -> RuntimeStats {
        RuntimeStats {
            plan_misses,
            evictions,
            ..RuntimeStats::default()
        }
    }

    #[test]
    fn separation_holds_only_for_each_workloads_counts() {
        assert_eq!(separation(Kind::Mixed, &stats(0, 0), [0.9, 0.3]), None);
        assert!(separation(Kind::Mixed, &stats(1, 0), [0.9, 0.3]).is_some());
        assert!(separation(Kind::Mixed, &stats(0, 0), [0.3, 0.3]).is_some());
        assert_eq!(separation(Kind::Churn, &stats(5, 5), [0.3, 0.9]), None);
        assert!(separation(Kind::Churn, &stats(5, 0), [0.9, 0.3]).is_some());
        assert!(separation(Kind::Churn, &stats(0, 0), [0.9, 0.3]).is_some());
    }
}
