//! Job-level recovery policies on a failing cluster.
//!
//! Ties the pieces together: a wide job on `width` nodes experiences the
//! aggregated failure rate; on each failure the recovery policy decides
//! what survives. Experiment F6's companion: expected completion-time
//! inflation versus scale, with and without checkpointing — the
//! quantitative version of the keynote's claim that at exploding scale
//! the software must take on fault recovery.

use crate::checkpoint::{simulate_checkpointing, CheckpointParams};
use crate::workload::FailureModel;

/// What happens to a job when a node it occupies fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Restart from the beginning (the era's default).
    RestartFromScratch,
    /// Resume from the last coordinated checkpoint.
    CheckpointRestart {
        /// Checkpoint interval, seconds; must be positive.
        interval_s: u32,
    },
}

/// Result of running one job to completion under failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Wall time to finish, seconds.
    pub wall: f64,
    pub failures: u64,
    /// wall / runtime: the inflation factor.
    pub inflation: f64,
}

/// Simulate one job of `runtime` seconds on `width` nodes: the
/// checkpoint Monte-Carlo at the system MTBF of `width` nodes.
/// Restarting from scratch is the same loop with one free checkpoint
/// at the end of the run. Deterministic in `seed`.
pub fn run_job(
    failures: &FailureModel,
    ckpt: &CheckpointParams,
    policy: RecoveryPolicy,
    width: u32,
    runtime: f64,
    seed: u64,
) -> RecoveryOutcome {
    assert!(runtime > 0.0);
    let mut params = *ckpt;
    params.system_mtbf = failures.system_mtbf(width);
    let tau = match policy {
        RecoveryPolicy::RestartFromScratch => {
            params.checkpoint_cost = 0.0;
            runtime
        }
        RecoveryPolicy::CheckpointRestart { interval_s } => f64::from(interval_s),
    };
    let r = simulate_checkpointing(&params, runtime, tau, seed);
    RecoveryOutcome {
        wall: r.wall,
        failures: r.failures,
        inflation: r.wall / runtime,
    }
}

/// Mean inflation over `reps` seeds — the F6 companion series.
pub fn mean_inflation(
    failures: &FailureModel,
    ckpt: &CheckpointParams,
    policy: RecoveryPolicy,
    width: u32,
    runtime: f64,
    reps: u64,
) -> f64 {
    (0..reps)
        .map(|s| run_job(failures, ckpt, policy, width, runtime, s).inflation)
        .sum::<f64>()
        / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt() -> CheckpointParams {
        CheckpointParams {
            checkpoint_cost: 60.0,
            restart_cost: 120.0,
            system_mtbf: 0.0, // unused by run_job (FailureModel drives it)
        }
    }

    fn reliable() -> FailureModel {
        FailureModel { node_mtbf: 1e15 }
    }

    fn flaky() -> FailureModel {
        // 1000-hour node MTBF: respectable hardware, brutal at scale.
        FailureModel {
            node_mtbf: 3.6e6,
        }
    }

    #[test]
    fn no_failures_no_overhead_for_restart_policy() {
        let r = run_job(
            &reliable(),
            &ckpt(),
            RecoveryPolicy::RestartFromScratch,
            64,
            10_000.0,
            1,
        );
        assert_eq!(r.failures, 0);
        assert!((r.inflation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn checkpointing_pays_overhead_without_failures() {
        let r = run_job(
            &reliable(),
            &ckpt(),
            RecoveryPolicy::CheckpointRestart { interval_s: 1000 },
            64,
            10_000.0,
            1,
        );
        assert_eq!(r.failures, 0);
        // 10 checkpoints of 60s on 10000s of work: 6% overhead.
        assert!((r.inflation - 1.06).abs() < 1e-9);
    }

    #[test]
    fn at_scale_scratch_restart_collapses_checkpointing_survives() {
        // A 24-hour job on 512 nodes of 1000h-MTBF hardware: system MTBF
        // ~2 hours, so scratch restart essentially never finishes a full
        // day of work; checkpointing shrugs.
        let width = 512;
        let runtime = 86_400.0;
        let scratch = mean_inflation(
            &flaky(),
            &ckpt(),
            RecoveryPolicy::RestartFromScratch,
            width,
            runtime,
            10,
        );
        let ck = mean_inflation(
            &flaky(),
            &ckpt(),
            RecoveryPolicy::CheckpointRestart { interval_s: 900 },
            width,
            runtime,
            10,
        );
        assert!(
            scratch > 10.0 * ck,
            "scratch inflation {scratch} vs checkpoint {ck}"
        );
        assert!(ck < 2.0, "checkpointed job stays near nominal: {ck}");
    }

    #[test]
    fn inflation_grows_with_width_for_scratch_restart() {
        let runtime = 3_600.0 * 8.0;
        let narrow = mean_inflation(
            &flaky(),
            &ckpt(),
            RecoveryPolicy::RestartFromScratch,
            8,
            runtime,
            20,
        );
        let wide = mean_inflation(
            &flaky(),
            &ckpt(),
            RecoveryPolicy::RestartFromScratch,
            256,
            runtime,
            20,
        );
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    /// A zero interval never makes progress, so it is refused rather
    /// than looping forever.
    #[test]
    #[should_panic(expected = "tau > 0.0")]
    fn zero_checkpoint_interval_is_refused_not_a_hang() {
        let policy = RecoveryPolicy::CheckpointRestart { interval_s: 0 };
        run_job(&flaky(), &ckpt(), policy, 64, 10_000.0, 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let policy = RecoveryPolicy::CheckpointRestart { interval_s: 600 };
        let run = || run_job(&flaky(), &ckpt(), policy, 128, 50_000.0, 99);
        assert_eq!(run(), run());
    }
}
