//! The open-loop load generator: seeded Poisson request streams, pacing
//! that sleeps and then spins to each due time, and latency measured from
//! the due time (so a stall also charges the requests queued behind it).

use crate::rng::{Rng, Zipf};
use std::time::{Duration, Instant};

/// One request of a stream: when it is due (relative to the window start),
/// which model it targets, its row count, and which pre-generated input
/// it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub due_ns: u64,
    pub model: usize,
    pub m: usize,
    pub variant: usize,
}

/// Row counts the serving workloads draw from.
pub const ROW_COUNTS: [usize; 4] = [1, 2, 4, 16];
/// Pre-generated input matrices per (model, row count).
pub const VARIANTS: usize = 4;

/// Which model each request targets.
#[derive(Debug, Clone)]
pub enum Popularity {
    Uniform(usize),
    Zipf(Zipf),
}

impl Popularity {
    fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            Popularity::Uniform(n) => rng.below(*n),
            Popularity::Zipf(z) => z.sample(rng),
        }
    }

    fn models(&self) -> usize {
        match self {
            Popularity::Uniform(n) => *n,
            Popularity::Zipf(z) => z.ranks(),
        }
    }

    /// Share of requests that target models `0..i`.
    fn cdf(&self, i: usize) -> f64 {
        match self {
            Popularity::Uniform(n) => i as f64 / *n as f64,
            Popularity::Zipf(z) => z.cdf(i),
        }
    }
}

/// Fills `out` with a Poisson stream at `rate_rps` covering `window_ns`,
/// ids starting at `first_id`. The same arguments always give the same
/// stream. (`out` is reused so a run does not fault in fresh pages for
/// every window.)
pub fn poisson_stream(
    rng: &mut Rng,
    rate_rps: f64,
    window_ns: u64,
    popularity: &Popularity,
    first_id: u64,
    out: &mut Vec<Request>,
) {
    let mean_gap_ns = 1e9 / rate_rps;
    let mut due = rng.exp(mean_gap_ns);
    out.clear();
    while (due as u64) < window_ns {
        out.push(Request {
            id: first_id + out.len() as u64,
            due_ns: due as u64,
            model: popularity.sample(rng),
            m: ROW_COUNTS[rng.below(ROW_COUNTS.len())],
            variant: rng.below(VARIANTS),
        });
        due += rng.exp(mean_gap_ns);
    }
}

/// `n` requests with no schedule (closed loops issue them back to back).
pub fn closed_stream(
    rng: &mut Rng,
    n: usize,
    popularity: &Popularity,
    first_id: u64,
) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            id: first_id + i as u64,
            due_ns: 0,
            model: popularity.sample(rng),
            m: ROW_COUNTS[rng.below(ROW_COUNTS.len())],
            variant: rng.below(VARIANTS),
        })
        .collect()
}

/// `n` requests with no schedule and a fixed mix: each model receives its
/// share of them (rounded so the shares sum to `n`), and each model's
/// requests cycle through the row counts. Only their order and inputs come
/// from `rng`, so streams of different seeds do the same work up to order,
/// which `closed_stream`'s independent draws do not.
pub fn fixed_mix_stream(
    rng: &mut Rng,
    n: usize,
    popularity: &Popularity,
    first_id: u64,
) -> Vec<Request> {
    let upto = |i| (popularity.cdf(i) * n as f64).round() as usize;
    let mut reqs: Vec<Request> = (0..popularity.models())
        .flat_map(|model| {
            (0..upto(model + 1) - upto(model)).map(move |j| Request {
                id: 0,
                due_ns: 0,
                model,
                m: ROW_COUNTS[j % ROW_COUNTS.len()],
                variant: 0,
            })
        })
        .collect();
    // Fisher-Yates.
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i + 1));
    }
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = first_id + i as u64;
        r.variant = rng.below(VARIANTS);
    }
    reqs
}

/// Nanoseconds since the benchmark's epoch.
pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Sleep-then-spin slack: sleep until this close to the due time, then
/// spin the rest. Sleeping keeps the generator from holding a core; the
/// short spin keeps its lag small.
const SPIN_NS: u64 = 20_000;

/// Asks the kernel to wake this thread's sleeps within 1 µs of their
/// deadline instead of the default 50 µs slack, so the generator can sleep
/// closer to each due time and spin less.
#[cfg(target_os = "linux")]
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in ns) and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn tight_timer_slack() {}

/// Blocks until `epoch + due_ns` and returns how late it woke (the lag).
pub fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    let now = now_ns(epoch);
    if due_ns > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
    }
    loop {
        let now = now_ns(epoch);
        if now >= due_ns {
            return now - due_ns;
        }
        std::hint::spin_loop();
    }
}

/// Client latency: from when the request was due (not when it was sent)
/// to when its reply was seen.
pub fn latency_from_due_us(due_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_stream() {
        let pop = Popularity::Zipf(Zipf::new(40, 1.1));
        let stream = |seed| {
            let mut v = Vec::new();
            poisson_stream(&mut Rng::new(seed), 5_000.0, 200_000_000, &pop, 0, &mut v);
            v
        };
        let (a, b, c) = (stream(42), stream(42), stream(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let d = closed_stream(&mut Rng::new(42), 100, &pop, 7);
        assert_eq!(d, closed_stream(&mut Rng::new(42), 100, &pop, 7));
        assert_eq!(d[0].id, 7);
    }

    #[test]
    fn fixed_mix_streams_differ_only_in_order_and_inputs() {
        let pop = Popularity::Zipf(Zipf::new(40, 1.1));
        let mix = |seed| {
            let s = fixed_mix_stream(&mut Rng::new(seed), 1000, &pop, 5);
            assert_eq!(s.len(), 1000);
            assert!(s.iter().enumerate().all(|(i, r)| r.id == 5 + i as u64));
            let mut m: Vec<(usize, usize)> = s.iter().map(|r| (r.model, r.m)).collect();
            m.sort_unstable();
            (s, m)
        };
        let (a, mix_a) = mix(1);
        let (b, mix_b) = mix(2);
        assert_eq!(a, mix(1).0);
        assert_ne!(a, b);
        assert_eq!(mix_a, mix_b);
        // Zipf(1.1) over 40 models gives the first about a fifth.
        let first = mix_a.iter().filter(|(model, _)| *model == 0).count();
        assert!((150..=300).contains(&first), "{first}");
    }

    #[test]
    fn stream_has_the_offered_rate_and_ordered_due_times() {
        let pop = Popularity::Uniform(8);
        let mut s = vec![Request {
            id: 9,
            due_ns: 9,
            model: 9,
            m: 9,
            variant: 9,
        }];
        poisson_stream(&mut Rng::new(1), 10_000.0, 1_000_000_000, &pop, 0, &mut s);
        assert!((9_500..=10_500).contains(&s.len()), "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|r| r.due_ns < 1_000_000_000 && r.model < 8));
        assert!(s.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1 ms, sent late at 1.5 ms, answered at 1.7 ms: the client
        // waited 700 µs, not the 200 µs the send-to-reply interval shows.
        assert_eq!(latency_from_due_us(1_000_000, 1_700_000), 700.0);
        // A reply can never precede its due time.
        assert_eq!(latency_from_due_us(2_000, 1_000), 0.0);
    }

    #[test]
    fn pacing_never_returns_early() {
        let epoch = Instant::now();
        for due in [0, 50_000, 300_000, 2_000_000] {
            let lag = wait_until(epoch, due);
            assert!(now_ns(epoch) >= due);
            assert!(lag < 50_000_000);
        }
    }
}
