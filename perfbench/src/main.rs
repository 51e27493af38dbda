//! Seeded benchmark of the FastKron kernel and serving runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --slo-p99-us 10000 --workload serve-mixed --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Workloads: `fused-fig9` (closed loop of warm kernel calls),
//! `serve-mixed` (open-loop serving over warm models) and `serve-churn`
//! (open-loop serving over more models than the plan cache holds). With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` a separate traced run carries the per-layer ones. Outputs
//! are checked against the shuffle oracle in the same run; a mismatch, or
//! a serving run whose runtime counts show it did not exercise what its
//! workload is for, exits 1. See `README.md` for the metric definitions.

mod fused;
mod gen;
mod host;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use report::Metrics;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The latency limit `slo_rps` holds p99 to, in microseconds.
    pub slo_p99_us: f64,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    /// Requests that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Of those, the ones that returned a wrong output.
    pub wrong: u64,
    /// Why the run did not exercise what its workload is for, if it did
    /// not; such a run is invalid, like one with a wrong output.
    pub invalid: Option<String>,
    pub metrics: Metrics,
}

const WORKLOADS: [&str; 3] = ["fused-fig9", "serve-mixed", "serve-churn"];

/// A run that has not finished by then is stuck: exit rather than hang.
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        slo_p99_us: 10_000.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--slo-p99-us" => args.slo_p99_us = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

/// Writes a traced run's spans next to the benchmark's sources.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.tsv"));
    match trace::write_tsv(&path, spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The watchdog thread is never joined: it either exits the process or
    // dies with it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });

    println!("host: {}", host::record().json());
    println!(
        "workload {} seed {} seconds {} trace {} slo_p99_us {}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.slo_p99_us
    );
    let out = match args.workload.as_str() {
        "fused-fig9" => fused::run(&args),
        "serve-mixed" => serve::run(&args, serve::Kind::Mixed),
        _ => serve::run(&args, serve::Kind::Churn),
    };
    report::print_table(&out.metrics);
    if let Some(why) = &out.invalid {
        eprintln!("perfbench: invalid run: {why}");
    }
    let correct = out.wrong == 0 && out.invalid.is_none();
    println!(
        "{}",
        report::result_json(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.metrics,
            args.trace
        )
    );
    if !correct {
        std::process::exit(1);
    }
}
