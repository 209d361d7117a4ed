//! `fleet_churn`: `run_fleet` over the F12 grid — a timer-dominated DES
//! with no network at all: the `rms::lifecycle` controller, health
//! fusion and `sched::plan_admissions` over far-future events
//! (heartbeats, horizons) that `flow_collectives` barely touches.

use super::{rng, Cell, Laps, Metrics, SpanView, Workload};
use crate::trace::Tracer;
use polaris_bench::figures::f12_lifecycle::SEED as F12_SEED;
use polaris_obs::Obs;
use polaris_rms::lifecycle::{churn_plan, run_fleet, ChurnSpec, FleetConfig};
use polaris_rms::sched::Policy;
use polaris_simnet::fault::FaultPlan;
use polaris_simnet::time::SimDuration;
use serde_json::value::Value;

struct FleetCell {
    name: String,
    /// Span name: the fleet size class.
    span: &'static str,
    cfg: FleetConfig,
    plan: FaultPlan,
}

pub struct FleetChurn {
    cells: Vec<FleetCell>,
}

impl FleetChurn {
    pub fn setup(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let seeded = rng(seed, 0xf1ee7).next_u64();
        // F12's grid: a churn sweep at 10 k nodes, whose fleets and churn
        // plans the seed makes, plus the 100 k-node scale point ...
        let grid: &[(u32, u32, &'static str)] = if smoke {
            &[
                (1_000, 0, "fleet_10k"),
                (1_000, 20, "fleet_10k"),
                (10_000, 40, "fleet_100k"),
            ]
        } else {
            &[
                (10_000, 0, "fleet_10k"),
                (10_000, 25, "fleet_10k"),
                (10_000, 50, "fleet_10k"),
                (10_000, 100, "fleet_10k"),
                (10_000, 200, "fleet_10k"),
                (100_000, 400, "fleet_100k"),
            ]
        };
        let mut cells = Vec::new();
        for &(nodes, churn, span) in grid {
            // Three quarters of the iteration are the scale point, and
            // which nodes a plan disturbs moves its host time by a tenth:
            // it keeps the figure's own seed, as the policy cells do.
            let base = if span == "fleet_100k" {
                F12_SEED
            } else {
                seeded
            };
            let spec = ChurnSpec {
                events: churn,
                ..ChurnSpec::default()
            };
            let plan = tr.time("rms.lifecycle.churn_plan", || {
                churn_plan(base ^ ((nodes as u64) << 32) ^ churn as u64, nodes, &spec)
            });
            let cfg = FleetConfig {
                nodes,
                seed: base,
                jobs: nodes / 16,
                max_job_width: 8,
                horizon: SimDuration::from_secs(5400),
                ..FleetConfig::default()
            };
            cells.push(FleetCell {
                name: format!("{nodes}-nodes/{churn}-events"),
                span,
                cfg,
                plan,
            });
        }
        // ... and F12b's contended 512-node fleet under each admission
        // policy, all three on one churn plan and the figure's own seed:
        // whether a day-long horizon is reached or the fleet settles early
        // depends on the plan, and with it the work of the cell.
        let nodes = if smoke { 128 } else { 512 };
        let spec = ChurnSpec {
            events: 20,
            ..ChurnSpec::default()
        };
        let plan = tr.time("rms.lifecycle.churn_plan", || {
            churn_plan(F12_SEED ^ 0xf12b, nodes, &spec)
        });
        for (name, policy) in [
            ("fcfs", Policy::Fcfs),
            ("easy", Policy::EasyBackfill),
            ("conservative", Policy::ConservativeBackfill),
        ] {
            let cfg = FleetConfig {
                nodes,
                seed: F12_SEED,
                jobs: nodes / 2,
                max_job_width: nodes / 2,
                arrival_window: SimDuration::from_secs(1200),
                horizon: SimDuration::from_secs(86_400),
                policy,
                ..FleetConfig::default()
            };
            cells.push(FleetCell {
                name: format!("policy/{name}"),
                span: "fleet_policy",
                cfg,
                plan: plan.clone(),
            });
        }
        FleetChurn { cells }
    }
}

impl Workload for FleetChurn {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        self.cells
            .iter()
            .map(|c| {
                let open = tr.begin(&format!("rms.lifecycle.{}", c.span));
                // A per-cell observability plane, as the figure gives it.
                let report = run_fleet(c.cfg, &c.plan, Some(&Obs::new()));
                tr.end(open, report.transitions);
                laps.lap();
                // Convergence is pinned by the golden statistics; with
                // another seed's churn plan it is not a given.
                Cell::new(
                    c.name.clone(),
                    vec![
                        ("disturbed", Value::U64(report.disturbed as u64)),
                        ("converged", Value::Bool(report.converged)),
                        ("transitions", Value::U64(report.transitions)),
                        ("evictions", Value::U64(report.evictions)),
                        ("false_evictions", Value::U64(report.false_evictions)),
                        ("requeues", Value::U64(report.requeues)),
                        ("jobs_total", Value::U64(report.jobs_total as u64)),
                        ("jobs_completed", Value::U64(report.jobs_completed as u64)),
                        ("mean_wait_s", Value::F64(report.mean_wait_s)),
                        ("conv_mean_s", Value::F64(report.conv_mean_s)),
                        ("conv_max_s", Value::F64(report.conv_max_s)),
                        ("goodput_pct", Value::F64(report.goodput_pct)),
                        ("lost_node_s", Value::F64(report.lost_node_s)),
                        ("end_ps", Value::U64(report.end_ps)),
                    ],
                )
            })
            .collect()
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        out.insert(
            "rms.lifecycle.fleet_100k_ms".into(),
            view.ms("rms.lifecycle.fleet_100k"),
        );
        let (mut ns, mut transitions) = (0.0, 0.0);
        for span in ["fleet_10k", "fleet_100k", "fleet_policy"] {
            let (n, t) = view.total(&format!("rms.lifecycle.{span}"));
            ns += n;
            transitions += t;
        }
        out.insert("rms.lifecycle.transitions".into(), transitions);
        out.insert(
            "rms.lifecycle.transition_ns".into(),
            if transitions == 0.0 {
                0.0
            } else {
                ns / transitions
            },
        );
    }
}
