//! The host record printed with every result, the same-run reference
//! probes (FMA peak, streaming bandwidth), and peak resident memory.
//! Figures from hosts with different cores, ISA or pool width are not
//! comparable; the record makes that visible.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub pool_threads: usize,
    pub isa: Vec<&'static str>,
}

pub fn record() -> HostRecord {
    HostRecord {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_threads: rayon::ThreadPool::global().threads(),
        isa: isa_flags(),
    }
}

#[cfg(target_arch = "x86_64")]
fn isa_flags() -> Vec<&'static str> {
    let mut v = Vec::new();
    if std::arch::is_x86_feature_detected!("fma") {
        v.push("fma");
    }
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        v.push("avx512f");
    }
    v
}

#[cfg(not(target_arch = "x86_64"))]
fn isa_flags() -> Vec<&'static str> {
    Vec::new()
}

impl HostRecord {
    pub fn json(&self) -> String {
        let isa: Vec<String> = self.isa.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"nproc\": {}, \"pool_threads\": {}, \"isa\": [{}], \"arch\": \"{}\"}}",
            self.nproc,
            self.pool_threads,
            isa.join(", "),
            std::env::consts::ARCH
        )
    }
}

/// Lanes in the FMA probe's accumulator block: enough independent chains
/// to cover FMA latency on 256- and 512-bit units.
const FMA_LANES: usize = 128;

/// One thread's `mul_add` throughput in GFLOP/s over about `seconds`.
fn fma_thread(seconds: f64) -> f64 {
    let mut acc = [0.0f32; FMA_LANES];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let mut iters = 0u64;
    let t0 = Instant::now();
    loop {
        for _ in 0..4096 {
            for x in acc.iter_mut() {
                *x = x.mul_add(a, b);
            }
        }
        iters += 4096;
        black_box(&mut acc);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    2.0 * FMA_LANES as f64 * iters as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Host FMA peak: the probe on `threads` concurrent threads, summed.
pub fn fma_peak_gflops(threads: usize, seconds: f64) -> f64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| fma_thread(seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("FMA probe thread panicked"))
            .sum()
    })
}

/// Single-thread streaming bandwidth (triad `a = b + s·c` over arrays far
/// larger than cache), best of several passes, in GB/s.
pub fn stream_gbps(passes: usize) -> f64 {
    const N: usize = 1 << 22;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(0.5f32);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * N * std::mem::size_of::<f32>()) as f64 / best / 1e9
}

/// Peak resident set size of this process in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
    // `long`s; `ru_maxrss` (KiB) is the first long.
    #[repr(C)]
    struct Rusage {
        words: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage { words: [0; 18] };
    // SAFETY: `usage` is a writable buffer the size of the C `struct
    // rusage` on 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.words[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_figures() {
        assert!(fma_thread(0.01) > 0.0);
        assert!(stream_gbps(1) > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let rec = record();
        assert!(rec.nproc >= 1 && rec.pool_threads >= 1);
        assert!(rec.json().contains("\"nproc\""));
    }
}
