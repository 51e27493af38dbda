//! Metric names, units and the layer → end-to-end map (mirrored in
//! `BENCHMARK.json`), plus the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics: what a caller of the kernel or the runtime sees.
/// Every workload reports all of them (see `README.md` for how each reads
/// on the kernel-only workload). Latency at the fixed rates, and `slo_rps`
/// which rests on it, are reported per layer: on a shared two-core host
/// they vary too much from run to run to carry a bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("kron_gflops", "GFLOP/s"),
    ("sat_rps", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit, end-to-end metric it
/// should move)`. A `-` target marks a reference or validity figure.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("host.nproc", "count", "-"),
    ("host.pool_threads", "count", "-"),
    ("host.fma_peak_gflops", "GFLOP/s", "-"),
    ("host.stream_gbps", "GB/s", "-"),
    ("exec.gflops.8-5", "GFLOP/s", "kron_gflops"),
    ("exec.gflops.16-4", "GFLOP/s", "kron_gflops"),
    ("exec.gflops.32-3", "GFLOP/s", "kron_gflops"),
    ("exec.gflops.64-2", "GFLOP/s", "kron_gflops"),
    ("exec.gflops.128-2", "GFLOP/s", "kron_gflops"),
    ("exec.step_gflops.p8", "GFLOP/s", "kron_gflops"),
    ("exec.step_gflops.p16", "GFLOP/s", "kron_gflops"),
    ("exec.step_gflops.p32", "GFLOP/s", "kron_gflops"),
    ("exec.step_gflops.p64", "GFLOP/s", "kron_gflops"),
    ("exec.step_gflops.p128", "GFLOP/s", "kron_gflops"),
    ("exec.serial_gflops", "GFLOP/s", "kron_gflops"),
    ("exec.par_eff", "ratio", "kron_gflops"),
    ("exec.peak_frac", "ratio", "kron_gflops"),
    ("exec.flops", "count", "kron_gflops"),
    ("exec.bytes_computed", "bytes", "kron_gflops"),
    ("exec.busy_s", "s", "kron_gflops"),
    ("baseline.shuffle_gflops", "GFLOP/s", "-"),
    ("exec.speedup_vs_shuffle", "ratio", "-"),
    ("plan.calls", "count", "sat_rps"),
    ("plan.ms_p50", "ms", "setup_s"),
    ("plan.busy_s", "s", "sat_rps"),
    ("submit.us_p50", "us", "sat_rps"),
    ("submit.us_p99", "us", "sat_rps"),
    ("wait.us_p50", "us", "sat_rps"),
    ("admit.bypass_ratio.lo", "ratio", "sat_rps"),
    ("admit.bypass_ratio.hi", "ratio", "sat_rps"),
    ("sched.batches", "count", "sat_rps"),
    ("sched.reqs_per_batch", "count", "sat_rps"),
    ("sched.solo_ratio", "ratio", "sat_rps"),
    ("stage.queue_us_p99", "us", "sat_rps"),
    ("stage.linger_us_p50", "us", "sat_rps"),
    ("stage.exec_us_p50", "us", "sat_rps"),
    ("stage.scatter_us_p50", "us", "sat_rps"),
    ("cache.hit_ratio", "ratio", "sat_rps"),
    ("cache.misses", "count", "sat_rps"),
    ("cache.evictions", "count", "sat_rps"),
    ("cache.rebuilds", "count", "sat_rps"),
    ("cache.bytes_peak", "bytes", "peak_rss_mb"),
    ("timeline.residue_us_p50", "us", "-"),
    ("direct.rps", "1/s", "-"),
    ("direct.us_p50", "us", "-"),
    ("serve.vs_direct", "ratio", "-"),
    ("client.p50_us.lo", "us", "-"),
    ("client.p99_us.lo", "us", "-"),
    ("client.p50_us.hi", "us", "-"),
    ("client.p99_us.hi", "us", "-"),
    ("slo_rps", "1/s", "-"),
    ("gen.sent", "count", "-"),
    ("gen.lag_us_p99", "us", "-"),
    ("gen.late_ratio", "ratio", "-"),
    ("trace.overhead_frac", "ratio", "-"),
    ("trace.residue_us_p50", "us", "-"),
    ("fail_ratio", "ratio", "-"),
];

/// Metric values collected by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: every end-to-end metric (`trace == false`) or every
/// per-layer metric (`trace == true`). A per-layer metric the workload
/// does not exercise reads 0; an end-to-end metric is always measured.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    trace: bool,
) -> String {
    let fields: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| field(name, metrics.get(name).unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                field(name, v, unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn field(name: &str, value: f64, unit: &str) -> String {
    // `{:?}` prints the shortest representation that round-trips, with
    // every significant digit, and always as a JSON number.
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// Human-readable table of the metrics this run set, with the end-to-end
/// metric each per-layer metric should move.
pub fn print_table(metrics: &Metrics) {
    for (name, unit) in END_TO_END {
        if let Some(v) = metrics.get(name) {
            println!("  {name:<26} {v:>16.4} {unit}");
        }
    }
    for (name, unit, target) in PER_LAYER {
        if let Some(v) = metrics.get(name) {
            println!("  {name:<26} {v:>16.4} {unit:<8} -> {target}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing or with another unit"
            );
        }
        for (name, unit, _) in PER_LAYER {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\""
                )),
                "{name} missing or with another unit"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = result_json(true, 10, 0, &m, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_json(true, 10, 0, &m, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"fail_ratio\": {\"value\": 0.0,"));
    }
}
