//! Control-plane smoke: the node-lifecycle controller, health
//! aggregation, and fleet simulation exercised end to end from outside
//! the crate — a small fleet under a seeded mixed churn plan, with the
//! same conservation assertions the sentinel lifecycle ledger applies,
//! plus plan replayability through JSON.

use polaris_obs::Obs;
use polaris_rms::lifecycle::AuditEvent;
use polaris_rms::prelude::*;
use polaris_simnet::fault::FaultPlan;
use polaris_simnet::time::SimDuration;

fn smoke_cfg() -> FleetConfig {
    FleetConfig {
        nodes: 96,
        jobs: 48,
        max_job_width: 4,
        horizon: SimDuration::from_secs(5400),
        seed: 21,
        record_audit: true,
        ..FleetConfig::default()
    }
}

fn smoke_plan(nodes: u32) -> FaultPlan {
    // Mixed churn: the default weights cover crash, flap, and degrade.
    churn_plan(17, nodes, &ChurnSpec { events: 6 })
}

/// The fleet under churn converges: every node ends settled, every
/// disturbed node terminal, and the job stream completes.
#[test]
fn churned_fleet_converges_and_serves_jobs() {
    let cfg = smoke_cfg();
    let r = run_fleet(cfg, &smoke_plan(cfg.nodes), None);
    assert!(r.converged, "fleet must settle before the horizon: {r:?}");
    assert_eq!(r.disturbed, 6);
    assert_eq!(
        r.census.iter().sum::<u32>(),
        cfg.nodes,
        "census partitions the fleet"
    );
    // Settled fleets hold only Healthy and Reclaim nodes.
    let serving = r.census[NodeState::Healthy.index()];
    let retired = r.census[NodeState::Reclaim.index()];
    assert_eq!(serving + retired, cfg.nodes);
    assert_eq!(r.jobs_completed, r.jobs_total, "no job is lost to churn");
    assert!(r.false_evictions <= r.evictions);
    assert!(r.goodput_pct > 50.0 && r.goodput_pct <= 100.0, "{}", r.goodput_pct);
}

/// Replaying the audit log enforces the ledger invariants: exactly one
/// state per node, edges-only transitions, occupancy cleared before a
/// node leaves service, and admission only on `Healthy` nodes.
#[test]
fn audit_log_holds_lifecycle_conservation() {
    let cfg = smoke_cfg();
    let r = run_fleet(cfg, &smoke_plan(cfg.nodes), None);
    let mut state = vec![NodeState::Provision; cfg.nodes as usize];
    let mut occupant: Vec<Option<u32>> = vec![None; cfg.nodes as usize];
    let mut transitions = 0u64;
    assert!(!r.audit.is_empty());
    for ev in &r.audit {
        match ev {
            AuditEvent::Transition { node, from, to, .. } => {
                transitions += 1;
                assert_eq!(state[*node as usize], *from, "exactly-one-state");
                assert!(NodeState::is_edge(*from, *to), "{from:?}→{to:?}");
                if !matches!(to, NodeState::Healthy | NodeState::Degraded) {
                    assert_eq!(occupant[*node as usize], None, "evict precedes exit");
                }
                state[*node as usize] = *to;
            }
            AuditEvent::JobStart { job, nodes, .. } => {
                for n in nodes {
                    assert_eq!(state[*n as usize], NodeState::Healthy, "admission gate");
                    assert_eq!(occupant[*n as usize], None, "no double-booking");
                    occupant[*n as usize] = Some(*job);
                }
            }
            AuditEvent::JobEvict { job, .. } | AuditEvent::JobEnd { job, .. } => {
                for slot in occupant.iter_mut() {
                    if *slot == Some(*job) {
                        *slot = None;
                    }
                }
            }
        }
    }
    assert_eq!(transitions, r.transitions, "report agrees with the log");
}

/// The churn plan round-trips through JSON and replays to a
/// bit-identical report — the replay path an operator (or the sentinel
/// shrinker) relies on.
#[test]
fn churn_plan_json_replay_is_bit_identical() {
    let cfg = smoke_cfg();
    let plan = smoke_plan(cfg.nodes);
    let replayed = FaultPlan::from_json(&plan.to_json()).expect("plan round-trips");
    assert_eq!(plan, replayed);
    let a = run_fleet(cfg, &plan, None);
    let b = run_fleet(cfg, &replayed, None);
    assert_eq!(a, b, "replayed plan must reproduce the run exactly");
}

/// The observability plane agrees with the report: transition, requeue,
/// eviction, and completion counters reconcile, and the census gauges
/// match.
#[test]
fn fleet_metrics_reconcile_with_report() {
    let cfg = smoke_cfg();
    let obs = Obs::new();
    let r = run_fleet(cfg, &smoke_plan(cfg.nodes), Some(&obs));
    let sum = |name: &str| -> u64 {
        obs.registry
            .counters_snapshot()
            .into_iter()
            .filter(|(k, _)| k == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(sum("lifecycle_transitions_total"), r.transitions);
    assert_eq!(sum("lifecycle_requeues_total"), r.requeues);
    assert_eq!(sum("lifecycle_evictions_total"), r.evictions);
    assert_eq!(sum("lifecycle_jobs_completed_total"), r.jobs_completed as u64);
    for s in NodeState::ALL {
        let g = obs
            .registry
            .gauge_value("lifecycle_census", &[("state", s.name())]);
        assert_eq!(g as u32, r.census[s.index()], "census gauge for {s:?}");
    }
}

/// Direct controller drive: a node whose node-side operations
/// (provision, reboot) all hang is escalated through breakfix rounds
/// until the repair budget retires it.
#[test]
fn controller_escalates_stuck_node_to_reclaim() {
    use polaris_simnet::time::SimTime;
    let cfg = ControllerConfig::default();
    let mut c = Controller::new(cfg, 1, 5);
    let mut now = SimTime::ZERO;
    let mut ops = vec![c.provision(0)];
    // Node-side ops never complete (the machine is dead) and time out;
    // controller-side repairs run fine but the reboot after each one
    // hangs again, so the budget must eventually reclaim the node.
    let mut steps = 0;
    while !ops.is_empty() {
        steps += 1;
        assert!(steps < 64, "controller failed to converge: {:?}", c.state(0));
        let op = ops.remove(0);
        if op.kind.node_side() {
            now = now + op.delay + op.timeout.expect("node-side ops carry timeouts");
            ops.extend(c.op_timeout(now, op.node, op.epoch));
        } else {
            now += op.delay;
            ops.extend(c.op_done(now, op.node, op.epoch, HealthVerdict::Failed));
        }
    }
    assert_eq!(c.state(0), NodeState::Reclaim);
    assert!(c.all_settled());
}
