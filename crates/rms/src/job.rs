//! Jobs and per-job metrics.

use serde::{Deserialize, Serialize};

/// A rigid parallel job, as batch schedulers of the era saw them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    pub id: u64,
    /// Nodes requested (rigid allocation).
    pub width: u32,
    /// Actual runtime, seconds.
    pub runtime: f64,
    /// User-supplied estimate, seconds (≥ runtime in practice; the
    /// scheduler kills at the estimate, so generators guarantee it).
    pub estimate: f64,
    /// Submission time, seconds from epoch.
    pub arrival: f64,
}

impl Job {
    pub fn new(id: u64, width: u32, runtime: f64, estimate: f64, arrival: f64) -> Self {
        assert!(width >= 1, "job must request at least one node");
        assert!(runtime > 0.0 && estimate >= runtime, "estimate must cover runtime");
        assert!(arrival >= 0.0);
        Job {
            id,
            width,
            runtime,
            estimate,
            arrival,
        }
    }
}

/// Outcome of one job in a scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    pub id: u64,
    pub arrival: f64,
    pub start: f64,
    pub finish: f64,
    pub width: u32,
    pub runtime: f64,
}

impl JobOutcome {
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Bounded slowdown with the conventional 10-second floor.
    fn bounded_slowdown(&self) -> f64 {
        (self.response() / self.runtime.max(10.0)).max(1.0)
    }
}

/// Aggregate metrics over a completed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    pub jobs: usize,
    pub makespan: f64,
    /// Node-seconds of work / (nodes × makespan).
    pub utilization: f64,
    pub mean_wait: f64,
    pub max_wait: f64,
    pub mean_bounded_slowdown: f64,
    pub p95_wait: f64,
}

impl ScheduleMetrics {
    pub fn from_outcomes(outcomes: &[JobOutcome], nodes: u32) -> Self {
        assert!(!outcomes.is_empty(), "no outcomes to summarize");
        let makespan = outcomes.iter().map(|o| o.finish).fold(0.0, f64::max);
        let first = outcomes.iter().map(|o| o.arrival).fold(f64::MAX, f64::min);
        let span = (makespan - first).max(f64::EPSILON);
        let area: f64 = outcomes.iter().map(|o| o.width as f64 * o.runtime).sum();
        let mut waits: Vec<f64> = outcomes.iter().map(|o| o.wait()).collect();
        waits.sort_by(|a, b| a.total_cmp(b));
        let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
        let p95_wait = waits[((waits.len() as f64 * 0.95) as usize).min(waits.len() - 1)];
        let mean_bsld = outcomes.iter().map(|o| o.bounded_slowdown()).sum::<f64>()
            / outcomes.len() as f64;
        ScheduleMetrics {
            jobs: outcomes.len(),
            makespan,
            utilization: area / (nodes as f64 * span),
            mean_wait,
            max_wait: *waits.last().expect("nonempty"),
            mean_bounded_slowdown: mean_bsld,
            p95_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            id: 1,
            arrival: 10.0,
            start: 25.0,
            finish: 125.0,
            width: 4,
            runtime: 100.0,
        };
        assert_eq!(o.wait(), 15.0);
        assert_eq!(o.response(), 115.0);
        assert!((o.bounded_slowdown() - 1.15).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors() {
        let o = JobOutcome {
            id: 1,
            arrival: 0.0,
            start: 0.0,
            finish: 1.0,
            width: 1,
            runtime: 1.0,
        };
        // Short job: denominator floored at 10s; ratio < 1 clamps to 1.
        assert_eq!(o.bounded_slowdown(), 1.0);
    }

    #[test]
    fn schedule_metrics_aggregate() {
        let outcomes = vec![
            JobOutcome {
                id: 1,
                arrival: 0.0,
                start: 0.0,
                finish: 100.0,
                width: 2,
                runtime: 100.0,
            },
            JobOutcome {
                id: 2,
                arrival: 0.0,
                start: 100.0,
                finish: 200.0,
                width: 2,
                runtime: 100.0,
            },
        ];
        let m = ScheduleMetrics::from_outcomes(&outcomes, 2);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.makespan, 200.0);
        assert!((m.utilization - 1.0).abs() < 1e-9);
        assert_eq!(m.mean_wait, 50.0);
        assert_eq!(m.max_wait, 100.0);
    }

    #[test]
    #[should_panic(expected = "estimate must cover runtime")]
    fn bad_estimate_rejected() {
        Job::new(1, 1, 100.0, 50.0, 0.0);
    }
}
