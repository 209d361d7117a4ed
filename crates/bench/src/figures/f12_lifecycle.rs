//! F12 — lifecycle control plane under churn: convergence time,
//! scheduler goodput, and false-evict rate vs. churn rate.
//!
//! Each cell runs [`run_fleet`]: the reconciling lifecycle controller
//! and fused health aggregator driving a fleet through a seeded churn
//! plan (crash / flap / degrade, built by [`churn_plan`] from the chaos
//! plane's node-scoped primitives) while a seeded synthetic job
//! stream exercises scheduler admission. The sweep holds the fleet at
//! 10 k nodes and raises the churn rate; a final 100 k-node row is the
//! scale point the keynote's "exploding cluster sizes" argument asks
//! for — the control plane must still converge (every node `Healthy` or
//! `Reclaim`) inside the horizon.
//!
//! Every run is a pure function of `(config, plan)`; cells fan out
//! across the sweep threads and come back in grid order, and each row is
//! formatted from its cell's [`FleetReport`](polaris_rms::lifecycle::FleetReport),
//! so the table is bit-identical at any `--jobs` count.

use crate::table::Table;
use polaris_rms::lifecycle::fleet::CHURN_WINDOW;
use polaris_rms::lifecycle::{churn_plan, run_fleet, ChurnSpec, FleetConfig};
use polaris_rms::sched::Policy;
use polaris_simnet::time::SimDuration;

pub const SEED: u64 = 0xF12_F1EE7;

/// The admission policies the fleet now routes through the real
/// scheduler planner (it used to hard-code strict FCFS).
pub fn policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("fcfs", Policy::Fcfs),
        ("easy", Policy::EasyBackfill),
        ("conservative", Policy::ConservativeBackfill),
    ]
}

/// A contended fleet for the policy comparison: wide jobs head-block a
/// 512-node machine while churn keeps requeueing work at the front.
fn policy_config(policy: Policy) -> FleetConfig {
    FleetConfig {
        nodes: 512,
        seed: SEED,
        jobs: 256,
        max_job_width: 256,
        arrival_window: SimDuration::from_secs(1200),
        horizon: SimDuration::from_secs(86_400),
        policy,
        ..FleetConfig::default()
    }
}

/// `(nodes, churn_events)` grid: a churn sweep at 10 k nodes plus the
/// 100 k-node scale point.
pub fn grid() -> Vec<(u32, u32)> {
    vec![
        (10_000, 0),
        (10_000, 25),
        (10_000, 50),
        (10_000, 100),
        (10_000, 200),
        (100_000, 400),
    ]
}

fn cell_config(nodes: u32) -> FleetConfig {
    FleetConfig {
        nodes,
        seed: SEED,
        // Enough jobs to keep the fleet busy without dominating the
        // event count at 100 k nodes.
        jobs: nodes / 16,
        max_job_width: 8,
        horizon: SimDuration::from_secs(5400),
        ..FleetConfig::default()
    }
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F12",
        "lifecycle control plane: convergence, goodput, false evictions vs churn",
        &[
            "nodes",
            "churn-per-kn-h",
            "disturbed",
            "converged",
            "conv-mean-s",
            "conv-max-s",
            "goodput-%",
            "false-evict-%",
            "requeues",
            "jobs-done-%",
        ],
    );
    let rows = crate::sweep::sweep(grid(), |(nodes, churn)| {
        let spec = ChurnSpec { events: churn };
        let plan = churn_plan(SEED ^ ((nodes as u64) << 32) ^ churn as u64, nodes, &spec);
        let cfg = cell_config(nodes);
        let report = run_fleet(cfg, &plan, None);
        // Churn normalized to events per 1000 nodes per hour.
        let rate = churn as f64 / (nodes as f64 / 1000.0) / (CHURN_WINDOW.as_secs() / 3600.0);
        let false_pct = if report.evictions == 0 {
            0.0
        } else {
            100.0 * report.false_evictions as f64 / report.evictions as f64
        };
        let jobs_pct = if report.jobs_total == 0 {
            100.0
        } else {
            100.0 * report.jobs_completed as f64 / report.jobs_total as f64
        };
        vec![
            format!("{nodes}"),
            format!("{rate:.1}"),
            format!("{}", report.disturbed),
            if report.converged { "yes" } else { "no" }.to_string(),
            format!("{:.1}", report.conv_mean_s),
            format!("{:.1}", report.conv_max_s),
            format!("{:.2}", report.goodput_pct),
            format!("{false_pct:.1}"),
            format!("{}", report.requeues),
            format!("{jobs_pct:.1}"),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note("expected: convergence time and requeues grow with churn while goodput erodes gently; false evictions come from flapping (alive) nodes; the 100k row must still converge");

    let mut tb = Table::new(
        "F12b",
        "scheduler policy knob under churn: queue wait and goodput, 512 nodes",
        &["policy", "mean-wait-s", "goodput-%", "requeues", "jobs-done-%", "converged"],
    );
    let rows = crate::sweep::sweep(policies(), |(name, policy)| {
        let cfg = policy_config(policy);
        let spec = ChurnSpec { events: 20 };
        // Same plan for every policy: only the admission order differs.
        let plan = churn_plan(SEED ^ 0xF12B, cfg.nodes, &spec);
        let report = run_fleet(cfg, &plan, None);
        let jobs_pct = 100.0 * report.jobs_completed as f64 / report.jobs_total as f64;
        vec![
            name.to_string(),
            format!("{:.1}", report.mean_wait_s),
            format!("{:.2}", report.goodput_pct),
            format!("{}", report.requeues),
            format!("{jobs_pct:.1}"),
            if report.converged { "yes" } else { "no" }.to_string(),
        ]
    });
    for row in rows {
        tb.row(row);
    }
    tb.note(
        "identical job population, estimates, and churn plan per row — only admission order \
         differs; backfill shortens the mean queue wait that strict FCFS pays head-blocking \
         behind wide (re)queued jobs",
    );
    vec![t, tb]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_knob_separates_backfill_from_fcfs() {
        let tables = generate();
        let tb = &tables[1];
        assert_eq!(tb.rows.len(), policies().len());
        let wait = |name: &str| -> f64 {
            tb.rows.iter().find(|r| r[0] == name).unwrap()[1].parse().unwrap()
        };
        assert!(
            wait("easy") < wait("fcfs"),
            "EASY must backfill around wide heads: easy {} vs fcfs {}",
            wait("easy"),
            wait("fcfs")
        );
    }

    #[test]
    fn shapes_hold() {
        let tables = generate();
        let t = &tables[0];
        assert_eq!(t.rows.len(), grid().len());
        for row in &t.rows {
            // Every point — including 100k nodes under churn — must
            // converge inside the horizon (the PR's acceptance gate).
            assert_eq!(row[3], "yes", "fleet failed to converge: {row:?}");
            let jobs_pct: f64 = row[9].parse().unwrap();
            assert!(jobs_pct > 99.0, "job stream must ride out churn: {row:?}");
        }
        // Zero churn: nothing disturbed, nothing evicted, full goodput.
        let quiet = &t.rows[0];
        assert_eq!(quiet[2], "0");
        assert_eq!(quiet[7], "0.0");
        assert_eq!(quiet[8], "0");
        let goodput: f64 = quiet[6].parse().unwrap();
        assert!((goodput - 100.0).abs() < 1e-6);
        // Churn costs requeues and goodput relative to the quiet fleet.
        let heavy = &t.rows[4];
        let heavy_requeues: u64 = heavy[8].parse().unwrap();
        assert!(heavy_requeues > 0, "200 churn events must requeue jobs");
        let heavy_goodput: f64 = heavy[6].parse().unwrap();
        assert!(heavy_goodput < 100.0);
    }
}
