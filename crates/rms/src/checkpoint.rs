//! Coordinated checkpoint/restart modeling — the keynote's "fault
//! recovery" responsibility, which becomes unavoidable "as system scale
//! explodes".
//!
//! Both the first-order analytic model (Young/Daly) and a Monte-Carlo
//! simulation of exponential failures are provided; experiment F6 plots
//! wasted-work fraction against checkpoint interval and checks the
//! simulated optimum against the analytic one.

use polaris_simnet::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Checkpoint system parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CheckpointParams {
    /// Time to write one coordinated checkpoint, seconds.
    pub checkpoint_cost: f64,
    /// Time to restart from a checkpoint after a failure, seconds.
    pub restart_cost: f64,
    /// System mean time between failures, seconds.
    pub system_mtbf: f64,
}

impl CheckpointParams {
    /// Young's optimal checkpoint interval: √(2·C·M).
    pub fn young_interval(&self) -> f64 {
        (2.0 * self.checkpoint_cost * self.system_mtbf).sqrt()
    }

    /// Daly's higher-order refinement of the optimum.
    pub fn daly_interval(&self) -> f64 {
        let c = self.checkpoint_cost;
        let m = self.system_mtbf;
        if c < 2.0 * m {
            (2.0 * c * m).sqrt() * (1.0 + (c / (2.0 * m)).sqrt() / 3.0) - c
        } else {
            m
        }
    }

    /// First-order expected wasted fraction of wall time at checkpoint
    /// interval `tau`: checkpoint overhead + expected rework after a
    /// failure (half an interval) + restart.
    pub fn waste_fraction(&self, tau: f64) -> f64 {
        assert!(tau > 0.0);
        let c = self.checkpoint_cost;
        let m = self.system_mtbf;
        let r = self.restart_cost;
        let ckpt = c / (tau + c);
        let rework = (tau / 2.0 + r) / m;
        (ckpt + rework).min(1.0)
    }
}

/// Result of a Monte-Carlo checkpointing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McResult {
    /// Useful work completed, seconds.
    pub useful: f64,
    /// Wall time elapsed, seconds.
    pub wall: f64,
    /// Failures encountered.
    pub failures: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

impl McResult {
    pub fn waste_fraction(&self) -> f64 {
        1.0 - self.useful / self.wall
    }
}

/// Simulate a job needing `work` seconds of computation with coordinated
/// checkpoints every `tau` seconds of progress, under exponential
/// failures. Deterministic in `seed`.
pub fn simulate_checkpointing(
    params: &CheckpointParams,
    work: f64,
    tau: f64,
    seed: u64,
) -> McResult {
    assert!(tau > 0.0 && work > 0.0);
    let rate = 1.0 / params.system_mtbf;
    let mut rng = SplitMix64::new(seed);
    let mut wall = 0.0f64;
    let mut done = 0.0f64; // checkpointed (durable) progress
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    let mut next_failure = rng.exp(rate);
    while done < work {
        // Attempt one segment: compute min(tau, remaining) then checkpoint.
        let segment = tau.min(work - done);
        let need = segment + params.checkpoint_cost;
        if wall + need <= next_failure {
            wall += need;
            done += segment;
            checkpoints += 1;
        } else {
            // Failure mid-segment: lose uncheckpointed progress, restart.
            failures += 1;
            wall = next_failure + params.restart_cost;
            next_failure = wall + rng.exp(rate);
        }
    }
    McResult {
        useful: work,
        wall,
        failures,
        checkpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CheckpointParams {
        CheckpointParams {
            checkpoint_cost: 60.0,
            restart_cost: 120.0,
            system_mtbf: 3_600.0 * 6.0, // 6 hours
        }
    }

    #[test]
    fn young_interval_formula() {
        let p = params();
        assert!((p.young_interval() - (2.0 * 60.0 * 21_600.0f64).sqrt()).abs() < 1e-9);
        // Daly's refinement is in the same ballpark.
        let ratio = p.daly_interval() / p.young_interval();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn analytic_waste_is_convex_with_minimum_near_young() {
        let p = params();
        let opt = p.young_interval();
        let w_opt = p.waste_fraction(opt);
        assert!(p.waste_fraction(opt / 8.0) > w_opt);
        assert!(p.waste_fraction(opt * 8.0) > w_opt);
        assert!(w_opt < 0.2, "waste at optimum should be small: {w_opt}");
    }

    #[test]
    fn no_failures_means_only_checkpoint_overhead() {
        let p = CheckpointParams {
            system_mtbf: 1e15, // effectively never fails
            ..params()
        };
        let r = simulate_checkpointing(&p, 10_000.0, 1_000.0, 1);
        assert_eq!(r.failures, 0);
        assert_eq!(r.checkpoints, 10);
        assert!((r.wall - 10_000.0 - 10.0 * 60.0).abs() < 1e-6);
    }

    #[test]
    fn frequent_failures_inflate_wall_time() {
        let p = CheckpointParams {
            system_mtbf: 600.0,
            ..params()
        };
        let r = simulate_checkpointing(&p, 10_000.0, 120.0, 2);
        assert!(r.failures > 5);
        assert!(r.wall > 10_000.0 * 1.2);
        assert!(r.waste_fraction() > 0.15);
    }

    #[test]
    fn simulated_optimum_tracks_young() {
        let p = params();
        let young = p.young_interval();
        let taus: Vec<f64> = (0..14).map(|i| young / 8.0 * 1.5f64.powi(i)).collect();
        // Average several seeds to tame MC noise.
        let mut best_tau = 0.0;
        let mut best_waste = f64::MAX;
        for &tau in &taus {
            let mut acc = 0.0;
            for seed in 0..12 {
                let r = simulate_checkpointing(&p, 500_000.0, tau, seed);
                acc += r.waste_fraction();
            }
            let mean = acc / 12.0;
            if mean < best_waste {
                best_waste = mean;
                best_tau = tau;
            }
        }
        assert!(
            (young / 3.0..young * 3.0).contains(&best_tau),
            "simulated optimum {best_tau} vs Young {young}"
        );
    }

    /// A zero MTBF fails every segment before it starts: refused up
    /// front, not an endless string of restarts.
    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_mtbf_is_refused_not_a_hang() {
        let p = CheckpointParams {
            system_mtbf: 0.0,
            ..params()
        };
        simulate_checkpointing(&p, 10_000.0, 1_000.0, 1);
    }

    #[test]
    fn simulation_is_deterministic_in_seed() {
        let p = params();
        let a = simulate_checkpointing(&p, 50_000.0, 900.0, 7);
        let b = simulate_checkpointing(&p, 50_000.0, 900.0, 7);
        assert_eq!(a, b);
    }
}
