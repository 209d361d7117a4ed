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
//! across the sweep threads with per-cell observability planes merged in
//! grid order, so the table is bit-identical at any `--jobs` count.

use crate::table::Table;
use polaris_obs::Obs;
use polaris_rms::lifecycle::fleet::CHURN_WINDOW;
use polaris_rms::lifecycle::{churn_plan, run_fleet, ChurnSpec, FleetConfig};
use polaris_rms::sched::Policy;
use polaris_simnet::time::SimDuration;

pub const SEED: u64 = 0xF12_F1EE7;

/// Per-cell results live in the registry under these gauges, labelled
/// `{nodes, churn}` — the table is rendered purely from registry reads,
/// so everything the figure shows is also on the wire for exporters.
pub const CONV_MEAN_S: &str = "f12_convergence_mean_s";
pub const CONV_MAX_S: &str = "f12_convergence_max_s";
pub const GOODPUT_PCT: &str = "f12_goodput_pct";
pub const FALSE_EVICT_PCT: &str = "f12_false_evict_pct";
pub const CONVERGED: &str = "f12_converged";
pub const REQUEUES: &str = "f12_requeues";
pub const JOBS_DONE_PCT: &str = "f12_jobs_done_pct";

/// F12b gauges, labelled `{policy}`.
pub const POLICY_WAIT_S: &str = "f12b_mean_wait_s";
pub const POLICY_GOODPUT_PCT: &str = "f12b_goodput_pct";
pub const POLICY_JOBS_DONE_PCT: &str = "f12b_jobs_done_pct";
pub const POLICY_REQUEUES: &str = "f12b_requeues";

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
    generate_with(&Obs::new())
}

/// Run the full F12 grid against a caller-supplied observability plane
/// and render the table from registry reads only.
pub fn generate_with(obs: &Obs) -> Vec<Table> {
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
    let rows = crate::sweep::sweep_obs(grid(), obs, |cell_obs, (nodes, churn)| {
        let spec = ChurnSpec { events: churn };
        let plan = churn_plan(SEED ^ ((nodes as u64) << 32) ^ churn as u64, nodes, &spec);
        let cfg = cell_config(nodes);
        let report = run_fleet(cfg, &plan, Some(cell_obs));
        // Churn normalized to events per 1000 nodes per hour.
        let rate = churn as f64 / (nodes as f64 / 1000.0) / (CHURN_WINDOW.as_secs() / 3600.0);
        let nodes_s = format!("{nodes}");
        let churn_s = format!("{rate:.1}");
        let labels = [("nodes", nodes_s.as_str()), ("churn", churn_s.as_str())];
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
        cell_obs.gauge(CONV_MEAN_S, &labels).set(report.conv_mean_s);
        cell_obs.gauge(CONV_MAX_S, &labels).set(report.conv_max_s);
        cell_obs.gauge(GOODPUT_PCT, &labels).set(report.goodput_pct);
        cell_obs.gauge(FALSE_EVICT_PCT, &labels).set(false_pct);
        cell_obs
            .gauge(CONVERGED, &labels)
            .set(if report.converged { 1.0 } else { 0.0 });
        cell_obs.gauge(REQUEUES, &labels).set(report.requeues as f64);
        cell_obs.gauge(JOBS_DONE_PCT, &labels).set(jobs_pct);
        // Render the row purely from what the registry holds.
        let reg = &cell_obs.registry;
        vec![
            nodes_s.clone(),
            churn_s.clone(),
            format!("{}", report.disturbed),
            if reg.gauge_value(CONVERGED, &labels) == 1.0 { "yes" } else { "no" }.to_string(),
            format!("{:.1}", reg.gauge_value(CONV_MEAN_S, &labels)),
            format!("{:.1}", reg.gauge_value(CONV_MAX_S, &labels)),
            format!("{:.2}", reg.gauge_value(GOODPUT_PCT, &labels)),
            format!("{:.1}", reg.gauge_value(FALSE_EVICT_PCT, &labels)),
            format!("{}", reg.gauge_value(REQUEUES, &labels) as u64),
            format!("{:.1}", reg.gauge_value(JOBS_DONE_PCT, &labels)),
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
    let rows = crate::sweep::sweep_obs(policies(), obs, |cell_obs, (name, policy)| {
        let cfg = policy_config(policy);
        let spec = ChurnSpec { events: 20 };
        // Same plan for every policy: only the admission order differs.
        let plan = churn_plan(SEED ^ 0xF12B, cfg.nodes, &spec);
        let report = run_fleet(cfg, &plan, Some(cell_obs));
        let labels = [("policy", name)];
        let jobs_pct = 100.0 * report.jobs_completed as f64 / report.jobs_total as f64;
        cell_obs.gauge(POLICY_WAIT_S, &labels).set(report.mean_wait_s);
        cell_obs.gauge(POLICY_GOODPUT_PCT, &labels).set(report.goodput_pct);
        cell_obs.gauge(POLICY_REQUEUES, &labels).set(report.requeues as f64);
        cell_obs.gauge(POLICY_JOBS_DONE_PCT, &labels).set(jobs_pct);
        let reg = &cell_obs.registry;
        vec![
            name.to_string(),
            format!("{:.1}", reg.gauge_value(POLICY_WAIT_S, &labels)),
            format!("{:.2}", reg.gauge_value(POLICY_GOODPUT_PCT, &labels)),
            format!("{}", reg.gauge_value(POLICY_REQUEUES, &labels) as u64),
            format!("{:.1}", reg.gauge_value(POLICY_JOBS_DONE_PCT, &labels)),
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
