//! Synthetic workload generation.
//!
//! Substitution note (DESIGN.md): production job traces are not
//! available here, so we generate workloads with the three properties
//! that drive scheduler behaviour in the trace literature
//! (Lublin–Feitelson): Poisson-ish arrivals, log-uniform runtimes
//! spanning seconds to a day, and power-of-two-biased widths. User
//! estimates overestimate runtimes by a uniform factor, which is what
//! gives EASY backfill its holes to fill.

use crate::job::Job;
use polaris_simnet::rng::SplitMix64;

/// Workload generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Mean inter-arrival time, seconds.
    pub mean_interarrival: f64,
    /// Maximum job width as a power of two exponent (width ≤ 2^this).
    pub max_width_log2: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mean_interarrival: 600.0, // ~144 jobs/day
            max_width_log2: 6,        // up to 64 nodes
        }
    }
}

/// Log-normal runtime: mean of ln(runtime) (median ~11 min).
const RUNTIME_MU: f64 = 6.5;
/// Log-normal runtime: std-dev of ln(runtime).
const RUNTIME_SIGMA: f64 = 1.8;
/// Probability a width is an exact power of two.
const POW2_FRACTION: f64 = 0.75;
/// Estimates are runtime × U(1, this).
const MAX_OVERESTIMATE: f64 = 5.0;

/// Generate `n` jobs deterministically from `seed`.
pub fn generate(cfg: &WorkloadConfig, n: usize, seed: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed);
    let rate = 1.0 / cfg.mean_interarrival;
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += rng.exp(rate);
            let r = rng.normal(RUNTIME_MU, RUNTIME_SIGMA).exp().clamp(1.0, 86_400.0);
            let e = r * (1.0 + (MAX_OVERESTIMATE - 1.0) * rng.next_f64());
            let exp = rng.next_below(u64::from(cfg.max_width_log2) + 1) as u32;
            let width = if rng.chance(POW2_FRACTION) {
                1u32 << exp
            } else {
                1 + rng.next_below(1u64 << cfg.max_width_log2) as u32
            };
            Job::new(i as u64, width, r, e, t)
        })
        .collect()
}

/// Per-node failure model: exponential time-to-failure (constant hazard),
/// the standard first-order assumption for commodity parts.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Per-node mean time between failures, seconds.
    pub node_mtbf: f64,
}

impl FailureModel {
    /// System MTBF for `nodes` independent nodes.
    pub fn system_mtbf(&self, nodes: u32) -> f64 {
        self.node_mtbf / nodes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default();
        assert_eq!(generate(&cfg, 50, 7), generate(&cfg, 50, 7));
        assert_ne!(generate(&cfg, 50, 7), generate(&cfg, 50, 8));
    }

    #[test]
    fn arrivals_increase_and_average_out() {
        let cfg = WorkloadConfig::default();
        let jobs = generate(&cfg, 2000, 42);
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        let mean = jobs.last().unwrap().arrival / jobs.len() as f64;
        assert!(
            (cfg.mean_interarrival * 0.9..cfg.mean_interarrival * 1.1).contains(&mean),
            "mean interarrival {mean}"
        );
    }

    #[test]
    fn widths_bounded_and_pow2_biased() {
        let cfg = WorkloadConfig::default();
        let jobs = generate(&cfg, 2000, 1);
        let max = 1u32 << cfg.max_width_log2;
        assert!(jobs.iter().all(|j| (1..=max).contains(&j.width)));
        let pow2 = jobs.iter().filter(|j| j.width.is_power_of_two()).count();
        assert!(
            pow2 as f64 / jobs.len() as f64 > 0.6,
            "power-of-two bias missing: {pow2}/{}",
            jobs.len()
        );
    }

    #[test]
    fn estimates_cover_runtimes() {
        let jobs = generate(&WorkloadConfig::default(), 500, 3);
        assert!(jobs.iter().all(|j| j.estimate >= j.runtime));
        // And genuinely overestimate on average.
        let mean_ratio: f64 =
            jobs.iter().map(|j| j.estimate / j.runtime).sum::<f64>() / jobs.len() as f64;
        assert!(mean_ratio > 1.5, "ratio {mean_ratio}");
    }

    #[test]
    fn runtimes_span_decades() {
        let jobs = generate(&WorkloadConfig::default(), 2000, 9);
        let min = jobs.iter().map(|j| j.runtime).fold(f64::MAX, f64::min);
        let max = jobs.iter().map(|j| j.runtime).fold(0.0, f64::max);
        assert!(min < 60.0, "short jobs exist: {min}");
        assert!(max > 3_600.0, "long jobs exist: {max}");
    }

    /// Every draw `generate` makes, at its call site, as one FNV-1a
    /// digest held to the stream of the `rand` / `rand_distr` it
    /// replaced: a reordered expression here fails before it moves T2.
    #[test]
    fn jobs_match_the_pinned_stream() {
        let h = generate(&WorkloadConfig::default(), 1000, 42)
            .iter()
            .flat_map(|j| {
                [j.arrival, j.runtime, j.estimate]
                    .map(f64::to_bits)
                    .into_iter()
                    .chain([j.width.into()])
            })
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(h, 0xcf98_ee78_71ca_eadb);
    }

    #[test]
    fn system_mtbf_scales_inversely() {
        let f = FailureModel { node_mtbf: 1e6 };
        assert_eq!(f.system_mtbf(1), 1e6);
        assert_eq!(f.system_mtbf(1000), 1e3);
    }
}
