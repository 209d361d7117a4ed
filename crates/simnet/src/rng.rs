//! Deterministic pseudo-random numbers: the workspace's one generator.
//!
//! Every seeded stream — the engine's jitter and loss injection, the
//! fault and chaos plans, the synthetic job workloads, failure times,
//! placement shuffles and the sentinel's fuzzer — draws from a
//! self-contained SplitMix64, so a result is a pure function of its seed
//! and of nothing outside the tree. The few continuous samplers callers
//! need (`exp`, `normal`) and `shuffle` sit beside it as plain methods;
//! bounded integers and uniform ranges are `next_below` / `next_f64`
//! arithmetic at the call site.
//!
//! Each sampler's float expression is part of the stream: reordering
//! `-(1.0 - u).ln() / rate` or `low + (high - low) * u` moves the pinned
//! figure digests. `tests::draws_match_the_retired_rand_streams` holds
//! `exp`, `normal`, `shuffle`, `next_f64` and `next_below` to literal
//! digests; the call-site arithmetic of the job workload is held by
//! `polaris_rms::workload`'s `jobs_match_the_pinned_stream`, and the
//! remaining call sites by the T2 / F6 / F9 figure digests.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, passes BigCrush
/// when used as a 64-bit generator, and trivially seedable.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero. Uses Lemire's
    /// multiply-shift rejection method for unbiased results.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential variate with rate `rate` (mean `1 / rate`), by inverse
    /// CDF; `1 - u` keeps `ln` away from zero. Panics unless `rate` is
    /// finite and positive: a loop waiting for the next failure at a zero
    /// MTBF (an infinite rate) would never advance.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exp needs a finite, positive rate, got {rate}"
        );
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Normal variate by Box–Muller, one per call: the pair's second
    /// value is dropped, so the stream is a pure function of the draw
    /// count. A log-normal is `normal(mu, sigma).exp()`.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + sd * z
    }

    /// Fisher–Yates shuffle, from the last index down.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_hits_all_values() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should occur");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = SplitMix64::new(13);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    /// FNV-1a over the little-endian bytes of each draw.
    fn fnv1a(draws: impl IntoIterator<Item = u64>) -> u64 {
        draws
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// The workload, failure, placement and timeline streams (T2, F6,
    /// F9 and their tests) were drawn through a vendored `rand` /
    /// `rand_distr` over this same generator. These literals are that
    /// shim's digests, 1 000 draws or more per sampler and per
    /// bounded-integer shape in use: a sampler whose expression order
    /// changes fails here before it moves a figure.
    #[test]
    fn draws_match_the_retired_rand_streams() {
        // (seed, draw i of 1 000, digest); `lo..=hi` is `lo + next_below(hi - lo + 1)`.
        type Draw = fn(&mut SplitMix64, u64) -> u64;
        #[rustfmt::skip]
        let cases: [(u64, Draw, u64); 10] = [
            (1, |r, _| r.exp(1.0 / 600.0).to_bits(), 0x3287055bc27bf9fb),
            (2, |r, _| r.exp(1.0 / 21_600.0).to_bits(), 0x98559d5de183aed5),
            // `rms::workload`'s `RUNTIME_MU` / `RUNTIME_SIGMA`, normal and log-normal.
            (3, |r, _| r.normal(6.5, 1.8).to_bits(), 0x02987f3614e23113),
            (4, |r, _| r.normal(6.5, 1.8).exp().to_bits(), 0x0ebb60ae1befec2c),
            // Uniform(1, 5): the default overestimate factor.
            (5, |r, _| (1.0 + (5.0 - 1.0) * r.next_f64()).to_bits(), 0xff8507f7f7d305f0),
            (7, |r, _| r.next_below(7), 0x39f00884c1043a42), // 0..=6
            (8, |r, _| 1 + r.next_below(64), 0xb895a6753dba0dae), // 1..=64
            (9, |r, _| (-4 + r.next_below(65) as i32) as u64, 0xba158eaeaf25c6e4), // -4..=60i32
            (10, |r, i| r.next_below(i % 97 + 1), 0x0a4885fcb3db9b4b), // 0..len, len 1..=97
            (11, |r, _| r.chance(0.75) as u64, 0x51d4dfd9e56a3de4),
        ];
        for (seed, draw, want) in cases {
            let mut r = SplitMix64::new(seed);
            assert_eq!(
                fnv1a((0..1000).map(|i| draw(&mut r, i))),
                want,
                "seed {seed}"
            );
        }

        let mut r = SplitMix64::new(6);
        let mut v: Vec<u64> = (0..50).collect();
        let shuffles = fnv1a((0..25).flat_map(|_| {
            r.shuffle(&mut v);
            v.clone()
        }));
        assert_eq!(shuffles, 0xb265d67675f28244);
    }

    fn mean_of(n: usize, seed: u64, mut draw: impl FnMut(&mut SplitMix64) -> f64) -> f64 {
        let mut r = SplitMix64::new(seed);
        (0..n).map(|_| draw(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exp_mean_matches_rate() {
        let m = mean_of(20_000, 42, |r| r.exp(0.5));
        assert!((m - 2.0).abs() < 0.1, "mean = {m}");
    }

    #[test]
    fn exp_rejects_a_rate_that_is_not_finite_and_positive() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = std::panic::catch_unwind(|| SplitMix64::new(1).exp(rate));
            assert!(r.is_err(), "exp({rate}) must panic");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(9);
        let xs: Vec<f64> = (0..20_000).map(|_| r.normal(3.0, 2.0)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m - 3.0).abs() < 0.1, "mean = {m}");
        assert!((v - 4.0).abs() < 0.2, "var = {v}");
    }

    #[test]
    fn lognormal_median() {
        // Median of LogNormal(mu, sigma) is exp(mu).
        let mut r = SplitMix64::new(5);
        let mut xs: Vec<f64> = (0..10_001)
            .map(|_| r.normal(2.0f64.ln(), 0.5).exp())
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 2.0).abs() < 0.15, "median = {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let uniform = |r: &mut SplitMix64| 1.0 + (3.0 - 1.0) * r.next_f64();
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = uniform(&mut r);
            assert!((1.0..3.0).contains(&x));
        }
        assert!((mean_of(20_000, 42, uniform) - 2.0).abs() < 0.05);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SplitMix64::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "50-element shuffle left identity (astronomically unlikely)"
        );
    }
}
