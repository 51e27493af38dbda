//! The runtime's one metrics plane: the lifetime counters, latency
//! histograms, per-model/per-device registries, and the snapshot/export
//! surface — the aggregate half of the runtime's observability layer
//! (the causal half — timelines and the flight recorder — lives in
//! [`crate::trace`]).
//!
//! Everything on the hot path is preallocated and atomic: recording a
//! stage latency is one `leading_zeros` plus two relaxed atomic adds
//! (its bucket and the latency sum) into a fixed 40-bucket log2
//! histogram, and the per-model registry reserves its slots up front so
//! steady-state serving performs zero heap allocations (proved in
//! `serve_alloc.rs`). Each fact is recorded once: a count is the sum of
//! its buckets, the end-to-end total is the sum of the outcome
//! histograms, and every counter that another record already implies is
//! derived when a snapshot is taken (see [`RuntimeStats`]). Reads are
//! cold-path: [`crate::Runtime::metrics_snapshot`] folds counters,
//! stage/outcome histograms, both registries, and device health into one
//! [`MetricsSnapshot`] that renders to stable JSON or Prometheus text
//! from one field list.

use crate::health::DeviceHealthReport;
use crate::runtime::{LaneStats, RuntimeStats, StatsInner};
use crate::trace::{FlightRecorder, ServeEvent, ServeEventKind, StageTimings};
use kron_core::DType;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log2 latency buckets. Bucket 0 holds exactly 0µs; bucket
/// `i` in `1..=38` holds `[2^(i-1), 2^i - 1]`µs; bucket 39 holds
/// everything ≥ 2^38 µs.
pub(crate) const BUCKETS: usize = 40;

/// Log2 bucket index for a microsecond latency.
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` in microseconds (used as the
/// conservative percentile readout). Bucket 0 is exactly 0.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Preallocated atomic log2 latency histogram: recording is lock-free
/// and allocation-free. It keeps no count of its own: a snapshot's
/// count is the sum of the buckets it copied, so the two always agree.
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one latency observation. Hot path: two relaxed adds.
    pub(crate) fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Copies the current bucket counts out (cold path).
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for (out, b) in s.buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        s.count = s.buckets.iter().sum();
        s.sum_us = self.sum_us.load(Ordering::Relaxed);
        s
    }
}

/// Point-in-time copy of a latency histogram with percentile readout.
///
/// Buckets are log2-spaced: bucket 0 holds exactly 0µs and bucket `i`
/// holds latencies in `[2^(i-1), 2^i - 1]`µs. [`Self::percentile`]
/// interpolates by rank within the containing bucket, so the readout
/// stays inside the bucket that actually holds the observation instead
/// of snapping to its upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log2 bucket.
    pub buckets: [u64; BUCKETS],
    /// Total observations: the sum of `buckets`.
    pub count: u64,
    /// Sum of all observed latencies (µs).
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Accumulates one observation into this snapshot (registry slots
    /// under a lock use plain snapshots as their accumulator).
    pub(crate) fn record(&mut self, us: u64) {
        self.buckets[bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    /// The latency (µs) at percentile `p` in `(0.0, 1.0]`, interpolated
    /// by rank within the log2 bucket containing that rank: the k-th of
    /// b observations in `[lower, upper]` reads as the midpoint of the
    /// k-th of b equal sub-intervals. A lone observation reads as the
    /// bucket midpoint rather than the upper bound, so a ~1.2ms tail no
    /// longer reports as 1023µs or 2047µs depending on which side of a
    /// power of two it fell. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if seen + b >= target && b > 0 {
                let lower = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
                let width = bucket_upper(i) - lower;
                let pos = target - seen; // 1..=b
                let off = (width as u128 * (2 * pos as u128 - 1)) / (2 * b as u128);
                return lower + off as u64;
            }
            seen += b;
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Mean observed latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// The observations recorded since `earlier` was taken — bucket-wise
    /// saturating difference. Lets a bench window tails to one timed
    /// phase by diffing before/after snapshots of a shared histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for i in 0..BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = out.buckets.iter().sum();
        out.sum_us = self.sum_us.saturating_sub(earlier.sum_us);
        out
    }

    /// Adds `other`'s observations to this snapshot, bucket by bucket.
    fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }
}

/// Pipeline stage a latency histogram attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Channel wait: enqueue → scheduler pickup.
    Queue,
    /// Batching wait: pickup → linger window close.
    Linger,
    /// Plan-cache resolution on the final attempt.
    Plan,
    /// Kernel execution on the final attempt.
    Exec,
    /// Result scatter: execute end → reply fill.
    Scatter,
    /// Retry cost: serve start → final attempt start.
    Retry,
    /// End-to-end: sum of all stages. Recorded once per reply, into its
    /// [`Outcome`]'s histogram; this stage is their bucket-wise sum.
    Total,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Queue,
        Stage::Linger,
        Stage::Plan,
        Stage::Exec,
        Stage::Scatter,
        Stage::Retry,
        Stage::Total,
    ];

    /// Stable lowercase name (used as the JSON/Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Linger => "linger",
            Stage::Plan => "plan",
            Stage::Exec => "exec",
            Stage::Scatter => "scatter",
            Stage::Retry => "retry",
            Stage::Total => "total",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Linger => 1,
            Stage::Plan => 2,
            Stage::Exec => 3,
            Stage::Scatter => 4,
            Stage::Retry => 5,
            Stage::Total => 6,
        }
    }
}

/// How a request's reply resolved, keying the per-outcome end-to-end
/// latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully.
    Ok,
    /// Replied with a non-deadline error.
    Error,
    /// Shed with [`kron_core::KronError::DeadlineExceeded`].
    Shed,
    /// Served successfully inline on the submitting thread via the
    /// low-latency bypass lane (no channel hop, no linger window).
    Bypass,
}

impl Outcome {
    /// Every outcome.
    pub const ALL: [Outcome; 4] = [Outcome::Ok, Outcome::Error, Outcome::Shed, Outcome::Bypass];

    /// Stable lowercase name (used as the JSON/Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Shed => "shed",
            Outcome::Bypass => "bypass",
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::Error => 1,
            Outcome::Shed => 2,
            Outcome::Bypass => 3,
        }
    }
}

/// Per-plan-key serving stats from the bounded model registry, read via
/// [`crate::Runtime::model_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Element dtype of the plan key.
    pub dtype: DType,
    /// Shape-chain hash of the plan key (matches
    /// [`crate::Model::shape_key`]).
    pub shape_key: u64,
    /// Row capacity of the plan key.
    pub capacity: usize,
    /// Requests served `Ok` under this key.
    pub serves: u64,
    /// Requests replied with an error (including sheds) under this key:
    /// every reply in `latency` that is not a serve.
    pub errors: u64,
    /// Plan-cache lookups under this key that found a fresh entry (see
    /// [`crate::RuntimeStats::plan_hits`]).
    pub plan_hits: u64,
    /// Plan-cache lookups under this key that found none, failed builds
    /// included (see [`crate::RuntimeStats::plan_misses`]).
    pub plan_misses: u64,
    /// End-to-end latency of every reply under this key, serves and
    /// errors alike.
    pub latency: HistogramSnapshot,
    /// True for the single spill slot that aggregates every key past the
    /// registry's bound (its key fields are zeroed).
    pub overflow: bool,
}

/// Per-device execute/fault counters and execute-latency histogram,
/// carried on each [`DeviceHealthReport`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceMetricsSnapshot {
    /// Sharded executes this device participated in (`exec_latency`'s
    /// count).
    pub executes: u64,
    /// Faults attributed to this device (failures and timeouts).
    pub faults: u64,
    /// The subset of faults that were watchdog timeouts.
    pub timeouts: u64,
    /// Execute latency of batches this device participated in.
    pub exec_latency: HistogramSnapshot,
}

/// Distinct plan keys the model registry tracks exactly before spilling
/// into the shared overflow slot. Slots are reserved up front so
/// tracking a new key in steady state does not allocate.
const MODEL_SLOTS: usize = 64;

#[derive(Clone, Copy)]
struct ModelSlot {
    dtype: DType,
    shape_key: u64,
    capacity: usize,
    serves: u64,
    plan_hits: u64,
    plan_misses: u64,
    /// Every reply under the key; its count less `serves` is the errors.
    latency: HistogramSnapshot,
}

impl ModelSlot {
    fn empty() -> Self {
        ModelSlot {
            dtype: DType::F32,
            shape_key: 0,
            capacity: 0,
            serves: 0,
            plan_hits: 0,
            plan_misses: 0,
            latency: HistogramSnapshot::default(),
        }
    }

    fn used(&self) -> bool {
        self.latency.count + self.plan_hits + self.plan_misses > 0
    }

    /// The public row for this slot (the overflow slot's key fields are
    /// never set, so they read as zero).
    fn stats(&self, overflow: bool) -> ModelStats {
        ModelStats {
            dtype: self.dtype,
            shape_key: self.shape_key,
            capacity: self.capacity,
            serves: self.serves,
            errors: self.latency.count - self.serves,
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            latency: self.latency,
            overflow,
        }
    }
}

struct ModelRegistry {
    slots: Vec<ModelSlot>,
    overflow: ModelSlot,
}

impl ModelRegistry {
    fn new() -> Self {
        ModelRegistry {
            slots: Vec::with_capacity(MODEL_SLOTS),
            overflow: ModelSlot::empty(),
        }
    }

    /// The slot for `(dtype, shape_key, capacity)`, spilling to the
    /// overflow slot past [`MODEL_SLOTS`] distinct keys. Pushing within
    /// the reserved capacity never reallocates.
    fn slot_mut(&mut self, dtype: DType, shape_key: u64, capacity: usize) -> &mut ModelSlot {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.dtype == dtype && s.shape_key == shape_key && s.capacity == capacity)
        {
            return &mut self.slots[i];
        }
        if self.slots.len() < MODEL_SLOTS {
            let mut s = ModelSlot::empty();
            s.dtype = dtype;
            s.shape_key = shape_key;
            s.capacity = capacity;
            self.slots.push(s);
            let last = self.slots.len() - 1;
            return &mut self.slots[last];
        }
        &mut self.overflow
    }
}

struct DeviceMetrics {
    faults: AtomicU64,
    timeouts: AtomicU64,
    /// One observation per execute: its count is the execute count.
    exec_latency: LatencyHistogram,
}

/// The runtime's one metrics plane: the lifetime counters, the
/// stage/outcome histograms, the bounded per-model registry, per-device
/// counters, and the flight recorder. One `Arc<MetricsHub>` is shared by
/// the scheduler lanes, the plan cache, the device-health ledger, the
/// fault plane, and every reply slot.
pub(crate) struct MetricsHub {
    /// The counters no other record implies (see [`StatsInner`]).
    pub(crate) stats: StatsInner,
    /// Every stage but [`Stage::Total`], in [`Stage::ALL`] order.
    stages: [LatencyHistogram; 6],
    outcomes: [LatencyHistogram; 4],
    models: Mutex<ModelRegistry>,
    devices: Box<[DeviceMetrics]>,
    recorder: FlightRecorder,
}

impl MetricsHub {
    pub(crate) fn new(gpus: usize) -> Self {
        MetricsHub {
            stats: StatsInner::default(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            outcomes: std::array::from_fn(|_| LatencyHistogram::new()),
            models: Mutex::new(ModelRegistry::new()),
            devices: (0..gpus)
                .map(|_| DeviceMetrics {
                    faults: AtomicU64::new(0),
                    timeouts: AtomicU64::new(0),
                    exec_latency: LatencyHistogram::new(),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            recorder: FlightRecorder::new(),
        }
    }

    /// Records one request's stage breakdown into the stage histograms
    /// and its end-to-end total into the outcome histogram (the only
    /// record of the total; see [`Stage::Total`]).
    pub(crate) fn record_timings(&self, t: &StageTimings, outcome: Outcome) {
        self.stages[Stage::Queue.index()].record(t.queue_us);
        self.stages[Stage::Linger.index()].record(t.linger_us);
        self.stages[Stage::Plan.index()].record(t.plan_us);
        self.stages[Stage::Exec.index()].record(t.exec_us);
        self.stages[Stage::Scatter.index()].record(t.scatter_us);
        self.stages[Stage::Retry.index()].record(t.retry_us);
        self.outcomes[outcome.index()].record(t.total_us());
    }

    /// Folds one reply into the per-model registry.
    pub(crate) fn record_model_serve(
        &self,
        dtype: DType,
        shape_key: u64,
        capacity: usize,
        outcome: Outcome,
        total_us: u64,
    ) {
        let mut reg = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let slot = reg.slot_mut(dtype, shape_key, capacity);
        if matches!(outcome, Outcome::Ok | Outcome::Bypass) {
            slot.serves += 1;
        }
        slot.latency.record(total_us);
    }

    /// Folds one plan-cache lookup into the per-model registry, the only
    /// record of plan hits and misses.
    pub(crate) fn record_plan_lookup(
        &self,
        dtype: DType,
        shape_key: u64,
        capacity: usize,
        hit: bool,
    ) {
        let mut reg = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let slot = reg.slot_mut(dtype, shape_key, capacity);
        if hit {
            slot.plan_hits += 1;
        } else {
            slot.plan_misses += 1;
        }
    }

    /// `(plan_hits, plan_misses)` summed over the registry, overflow
    /// slot included. Allocation-free.
    pub(crate) fn plan_lookups(&self) -> (u64, u64) {
        let reg = self.models.lock().unwrap_or_else(|e| e.into_inner());
        reg.slots
            .iter()
            .chain(std::iter::once(&reg.overflow))
            .fold((0, 0), |(h, m), s| (h + s.plan_hits, m + s.plan_misses))
    }

    /// Records a sharded execute this device participated in.
    pub(crate) fn record_device_execute(&self, gpu: usize, exec_us: u64) {
        if let Some(d) = self.devices.get(gpu) {
            d.exec_latency.record(exec_us);
        }
    }

    /// Records a fault attributed to this device.
    pub(crate) fn record_device_fault(&self, gpu: usize, timeout: bool) {
        if let Some(d) = self.devices.get(gpu) {
            d.faults.fetch_add(1, Ordering::Relaxed);
            if timeout {
                d.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One device's counters for [`DeviceHealthReport::metrics`].
    pub(crate) fn device_snapshot(&self, gpu: usize) -> DeviceMetricsSnapshot {
        match self.devices.get(gpu) {
            Some(d) => {
                let exec_latency = d.exec_latency.snapshot();
                DeviceMetricsSnapshot {
                    executes: exec_latency.count,
                    faults: d.faults.load(Ordering::Relaxed),
                    timeouts: d.timeouts.load(Ordering::Relaxed),
                    exec_latency,
                }
            }
            None => DeviceMetricsSnapshot::default(),
        }
    }

    /// Records a flight-recorder event (lock-free, allocation-free).
    pub(crate) fn event(&self, at_us: u64, kind: ServeEventKind) {
        self.recorder.record(ServeEvent { at_us, kind });
    }

    /// Drains the flight recorder (cold path).
    pub(crate) fn drain_events(&self) -> Vec<ServeEvent> {
        self.recorder.drain()
    }

    /// Snapshot of one stage histogram; [`Stage::Total`] sums the
    /// outcome histograms.
    pub(crate) fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        if stage != Stage::Total {
            return self.stages[stage.index()].snapshot();
        }
        let mut total = HistogramSnapshot::default();
        for &o in &Outcome::ALL {
            total.merge(&self.outcome_snapshot(o));
        }
        total
    }

    /// Snapshot of one outcome histogram.
    pub(crate) fn outcome_snapshot(&self, outcome: Outcome) -> HistogramSnapshot {
        self.outcomes[outcome.index()].snapshot()
    }

    /// Every used model-registry slot (plus the overflow aggregate if it
    /// absorbed anything), ordered by first use.
    pub(crate) fn model_stats(&self) -> Vec<ModelStats> {
        let reg = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<ModelStats> = reg.slots.iter().map(|s| s.stats(false)).collect();
        if reg.overflow.used() {
            out.push(reg.overflow.stats(true));
        }
        out
    }
}

/// One coherent view of everything the runtime measures, from
/// [`crate::Runtime::metrics_snapshot`]: lifetime counters, per-stage
/// and per-outcome latency histograms, the per-model registry, and
/// per-device health + metrics. Renders to stable JSON
/// ([`Self::to_json`]) or Prometheus text ([`Self::to_prometheus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Clock time the snapshot was taken (µs on the runtime clock).
    pub at_us: u64,
    /// Lifetime counters.
    pub stats: RuntimeStats,
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Per-outcome end-to-end histograms, in [`Outcome::ALL`] order.
    pub outcomes: Vec<(Outcome, HistogramSnapshot)>,
    /// The per-model registry.
    pub models: Vec<ModelStats>,
    /// Per-device health and metrics (empty on a single-node runtime).
    pub devices: Vec<DeviceHealthReport>,
}

/// Whether a [`RuntimeStats`] or [`LaneStats`] field only grows
/// (a counter) or moves both ways (a gauge): its Prometheus type.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetricKind {
    Counter,
    Gauge,
}

/// One rendered counter or gauge: `(name, kind, value)`.
pub(crate) type Field = (&'static str, MetricKind, u64);

impl MetricKind {
    /// The Prometheus `# TYPE` keyword, and the suffix the family name
    /// takes (`_total` on counters).
    fn prometheus(self) -> (&'static str, &'static str) {
        match self {
            MetricKind::Counter => ("counter", "_total"),
            MetricKind::Gauge => ("gauge", ""),
        }
    }
}

fn json_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
        h.count,
        h.sum_us,
        h.mean_us(),
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99)
    );
}

/// Writes `fields` as comma-separated JSON members.
fn json_fields(out: &mut String, fields: &[Field]) {
    for (i, (name, _, v)) in fields.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{v}");
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as one stable JSON object (hand-formatted —
    /// the runtime carries no serialization dependency). Key order is
    /// fixed, so textual diffs between snapshots are meaningful.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(out, "{{\"at_us\":{},\"stats\":{{", self.at_us);
        json_fields(&mut out, &self.stats.fields());
        out.push_str("},\"lanes\":[");
        for (i, l) in self.stats.lanes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lane\":{i},");
            json_fields(&mut out, &l.fields());
            out.push('}');
        }
        out.push_str("],\"stages\":{");
        for (i, (stage, h)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", stage.name());
            json_histogram(&mut out, h);
        }
        out.push_str("},\"outcomes\":{");
        for (i, (outcome, h)) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", outcome.name());
            json_histogram(&mut out, h);
        }
        out.push_str("},\"models\":[");
        for (i, m) in self.models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"dtype\":\"{}\",\"shape_key\":{},\"capacity\":{},\"serves\":{},\
                 \"errors\":{},\"plan_hits\":{},\"plan_misses\":{},\"overflow\":{},\"latency\":",
                m.dtype.rust_name(),
                m.shape_key,
                m.capacity,
                m.serves,
                m.errors,
                m.plan_hits,
                m.plan_misses,
                m.overflow
            );
            json_histogram(&mut out, &m.latency);
            out.push('}');
        }
        out.push_str("],\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"gpu\":{},\"state\":\"{:?}\",\"consecutive_failures\":{},\"trips\":{},\
                 \"executes\":{},\"faults\":{},\"timeouts\":{},\"exec_latency\":",
                d.gpu,
                d.state,
                d.consecutive_failures,
                d.trips,
                d.metrics.executes,
                d.metrics.faults,
                d.metrics.timeouts
            );
            json_histogram(&mut out, &d.metrics.exec_latency);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// lifetime counters as `kron_*` counters/gauges, per-lane series
    /// labelled by lane, stage histograms as cumulative-`le` histograms,
    /// per-model serve counters, and per-device counters. Each family is
    /// one contiguous group under its `# TYPE` line.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for (name, kind, v) in self.stats.fields() {
            let (ty, suffix) = kind.prometheus();
            let _ = writeln!(
                out,
                "# TYPE kron_{name}{suffix} {ty}\nkron_{name}{suffix} {v}"
            );
        }
        let lanes: Vec<_> = self.stats.lanes().iter().map(LaneStats::fields).collect();
        for (f, &(name, kind, _)) in lanes[0].iter().enumerate() {
            // The all-lane sum already owns `kron_lane_steals_total`.
            let name = if name == "steals" {
                "steals_by_lane"
            } else {
                name
            };
            let (ty, suffix) = kind.prometheus();
            let _ = writeln!(out, "# TYPE kron_lane_{name}{suffix} {ty}");
            for (i, row) in lanes.iter().enumerate() {
                let _ = writeln!(out, "kron_lane_{name}{suffix}{{lane=\"{i}\"}} {}", row[f].2);
            }
        }
        for (stage, h) in &self.stages {
            let name = format!("kron_stage_{}_us", stage.name());
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            let highest = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
            for (i, &b) in h.buckets.iter().enumerate().take(highest + 1) {
                cumulative += b;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum_us);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        let _ = writeln!(out, "# TYPE kron_model_serves_total counter");
        for m in &self.models {
            let _ = writeln!(
                out,
                "kron_model_serves_total{{dtype=\"{}\",shape_key=\"{}\",capacity=\"{}\",overflow=\"{}\"}} {}",
                m.dtype.rust_name(),
                m.shape_key,
                m.capacity,
                m.overflow,
                m.serves
            );
        }
        let _ = writeln!(out, "# TYPE kron_device_executes_total counter");
        for d in &self.devices {
            let _ = writeln!(
                out,
                "kron_device_executes_total{{gpu=\"{}\"}} {}",
                d.gpu, d.metrics.executes
            );
        }
        let _ = writeln!(out, "# TYPE kron_device_faults_total counter");
        for d in &self.devices {
            let _ = writeln!(
                out,
                "kron_device_faults_total{{gpu=\"{}\"}} {}",
                d.gpu, d.metrics.faults
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7: [64, 127]
        }
        h.record(10_000); // bucket 14: [8192, 16383]
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // Rank 50 of 99 in [64, 127]: 64 + 63*99/198 = 95.
        assert_eq!(s.percentile(0.50), 95);
        // Rank 99 of 99 sits in the last sub-interval, below the bound.
        assert_eq!(s.percentile(0.99), 126);
        // A lone tail observation reads as its bucket midpoint, inside
        // the bucket that holds the actual 10ms latency.
        assert_eq!(s.percentile(1.0), 12_287);
        assert_eq!(bucket_index(s.percentile(1.0)), bucket_index(10_000));
        assert_eq!(s.mean_us(), (99 * 100 + 10_000) / 100);
    }

    #[test]
    fn percentile_stays_in_the_observed_bucket() {
        // The regression this guards: ~1.2ms latencies landing in
        // bucket 11 [1024, 2047] used to report p50_us = 2047 (upper
        // bound), and 1.0ms ones in bucket 10 reported 1023 — a readout
        // that snapped to whichever side of a power of two the data
        // fell. Interpolation must stay inside the observed bucket.
        let h = LatencyHistogram::new();
        for _ in 0..64 {
            h.record(1_200);
        }
        let s = h.snapshot();
        for p in [0.50, 0.95, 0.99] {
            let v = s.percentile(p);
            assert_eq!(bucket_index(v), bucket_index(1_200), "p{p}: {v}");
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean_us(), 0);
    }

    #[test]
    fn since_diffs_windows() {
        let h = LatencyHistogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(1_000);
        h.record(1_000);
        let after = h.snapshot();
        let window = after.since(&before);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum_us, 2_000);
        // Rank 1 of 2 in bucket 10 [512, 1023]: 512 + 511/4 = 639.
        assert_eq!(window.percentile(0.5), 639);
        assert_eq!(bucket_index(window.percentile(0.5)), bucket_index(1_000));
    }

    #[test]
    fn snapshots_taken_while_recording_are_never_torn() {
        // The regression this guards: a snapshot read the buckets, then a
        // separate count. A record landing between the two reads left the
        // count above the buckets' sum, and `percentile(1.0)` walked off
        // the last bucket to read 2^39 - 1 µs.
        let h = LatencyHistogram::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (snapshots, torn) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut us = 50;
                while !stop.load(Ordering::Relaxed) {
                    h.record(us); // bucket 6: [32, 63]
                    us = if us == 56 { 50 } else { us + 1 };
                }
            });
            let start = std::time::Instant::now();
            let (mut snapshots, mut torn) = (0u64, None);
            while torn.is_none() && start.elapsed() < std::time::Duration::from_millis(500) {
                let s = h.snapshot();
                let p100 = s.percentile(1.0);
                let consistent = s.count == s.buckets.iter().sum::<u64>()
                    && (s.count == 0 || bucket_index(p100) == bucket_index(50));
                if !consistent {
                    torn = Some((s, p100));
                }
                snapshots += 1;
            }
            // Stop the recorder before asserting, so a failure cannot
            // leave the scope waiting on it forever.
            stop.store(true, Ordering::Relaxed);
            (snapshots, torn)
        });
        assert!(torn.is_none(), "snapshot {snapshots} torn: {torn:?}");
    }

    #[test]
    fn model_registry_spills_to_overflow_past_capacity() {
        let hub = MetricsHub::new(0);
        for k in 0..(MODEL_SLOTS as u64 + 5) {
            hub.record_model_serve(DType::F32, k, 64, Outcome::Ok, 10);
        }
        let stats = hub.model_stats();
        assert_eq!(stats.len(), MODEL_SLOTS + 1);
        let spill = stats.last().unwrap();
        assert!(spill.overflow);
        assert_eq!(spill.serves, 5);
        assert!(stats[..MODEL_SLOTS].iter().all(|m| !m.overflow));
    }

    #[test]
    fn device_metrics_round_trip() {
        let hub = MetricsHub::new(2);
        hub.record_device_execute(0, 50);
        hub.record_device_execute(1, 50);
        hub.record_device_fault(1, true);
        hub.record_device_fault(1, false);
        let d1 = hub.device_snapshot(1);
        assert_eq!(d1.executes, 1);
        assert_eq!(d1.faults, 2);
        assert_eq!(d1.timeouts, 1);
        assert_eq!(hub.device_snapshot(7), DeviceMetricsSnapshot::default());
    }
}
