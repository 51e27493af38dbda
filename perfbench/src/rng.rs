//! Seeded randomness: every input the benchmark feeds the program derives
//! from the `--seed` argument through these generators, so one seed always
//! yields one request stream and one set of matrices.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for sub-task `tag` of the same seed.
    pub fn fork(&self, tag: u64) -> Self {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform integer in `-max_abs..=max_abs`.
    pub fn int(&mut self, max_abs: i64) -> i64 {
        self.below(2 * max_abs as usize + 1) as i64 - max_abs
    }

    /// Exponentially distributed with the given mean: Poisson
    /// inter-arrival gaps.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf popularity over `n` ranks: rank `i` (0-based) is drawn with
/// probability proportional to `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of the first `i` ranks together (`0..=1`).
    pub fn cdf(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.cdf[i - 1]
        }
    }

    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Rng::new(8);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let base = Rng::new(3);
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.below(5) < 5);
            assert!((-3..=3).contains(&r.int(3)));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(10, 1.2);
        let mut r = Rng::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!((z.cdf[9] - 1.0).abs() < 1e-12);
    }
}
