//! The fleet under churn: the lifecycle control plane run as a
//! discrete-event workload.
//!
//! [`run_fleet`] wires the reconciling [`Controller`], the fused
//! [`HealthAggregator`], and a seeded synthetic job stream onto
//! the simnet engine, then disturbs the fleet with a seeded, JSON-
//! replayable [`FaultPlan`] built by [`churn_plan`] from the chaos
//! plane's node-scoped primitives (crash / flap / degrade). Scheduler
//! admission is gated on lifecycle state — only `Healthy` nodes accept
//! new work, `Degraded` nodes drain (running jobs finish, nothing new
//! lands), and a node entering `Breakfix` evicts its job, which
//! requeues at the head of the queue with checkpoint-restart
//! accounting (progress since the last checkpoint is lost; the next
//! run pays a restart cost).
//!
//! Scale is affordable because undisturbed nodes are cheap: heartbeat
//! streams are materialized only for nodes the churn plan names, so a
//! 100 k-node fleet costs two bootstrap operations per clean node plus
//! per-event work proportional to the disturbed set. Everything is
//! driven by `SplitMix64` streams derived from the config seed, so a
//! run is a pure function of `(config, plan)` — the property both the
//! F12 parallel sweep and the sentinel lifecycle ledger rely on.
//!
//! Ground truth stays outside the control plane: the simulation knows
//! (from the plan) when a node is really crashed, which is what makes
//! the **false-evict rate** measurable — an eviction of a node the
//! plan says was alive is a detector mistake, not a repair.
//!
//! The same simulation is the batch scheduler ([`crate::sched::simulate`],
//! experiment T2): given jobs instead of the generated stream, instant
//! provisioning and an empty plan, every node is `Healthy` at t = 0 and
//! stays so, and the run is pure queueing under the admission policy.

use super::controller::{Controller, ControllerConfig, StartedOp};
use super::health::{HealthAggregator, HealthConfig, HealthVerdict};
use super::state::NodeState;
use crate::job::{Job, JobOutcome};
use crate::sched::{plan_admissions, Policy, QueuedReq, RunningRes};
use polaris_obs::{Counter, Obs};
use polaris_simnet::engine::{self, Scheduler, World};
use polaris_simnet::event::QueueStats;
use polaris_simnet::fault::{FaultKind, FaultPlan, FaultScope};
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::{SimDuration, SimTime, PS_PER_SEC};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroU32;

/// Shape of a churn schedule: how many disturbances land on the fleet
/// inside the onset window, and the crash / flap / degrade mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Disturbed nodes (each event picks a distinct victim).
    pub events: u32,
    /// Onsets are drawn uniformly inside this window (its tail sixth is
    /// left clear of the start so victims are in service when hit).
    pub window: SimDuration,
    /// Relative weight of fail-stop crashes.
    pub crash_w: u32,
    /// Relative weight of NIC flaps (periodic down/up windows).
    pub flap_w: u32,
    /// Relative weight of burst-loss link degradation.
    pub degrade_w: u32,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            events: 8,
            window: SimDuration::from_secs(1800),
            crash_w: 2,
            flap_w: 1,
            degrade_w: 1,
        }
    }
}

/// Build a seeded churn plan: `spec.events` distinct victims, each hit
/// by one crash, flap, or degrade rule. Pure — the same arguments
/// always yield the same plan, and the plan round-trips through
/// [`FaultPlan::to_json`] for replay.
pub fn churn_plan(seed: u64, fleet_nodes: u32, spec: &ChurnSpec) -> FaultPlan {
    let mut rng = SplitMix64::new(seed ^ 0x6368_7572_6E70_6C61); // "churnpla"
    let mut plan = FaultPlan::new(seed);
    let events = spec.events.min(fleet_nodes);
    let total_w = (spec.crash_w + spec.flap_w + spec.degrade_w).max(1) as u64;
    let mut used = vec![false; fleet_nodes as usize];
    // Leave the first sixth of the window clear so victims have
    // provisioned and entered service before the disturbance lands.
    let lo = spec.window.as_ps() / 6;
    let span = (spec.window.as_ps() - lo).max(1);
    for _ in 0..events {
        let node = loop {
            let n = rng.next_below(fleet_nodes as u64) as u32;
            if !used[n as usize] {
                break n;
            }
        };
        used[node as usize] = true;
        let onset = SimTime(lo + rng.next_below(span));
        let w = rng.next_below(total_w) as u32;
        plan = if w < spec.crash_w {
            plan.crash_node(node, onset)
        } else if w < spec.crash_w + spec.flap_w {
            // Down windows exceed the heartbeat timeout so a flap is
            // always observable as `Failed`, never only as jitter.
            let down = (35 + rng.next_below(60)) * PS_PER_SEC;
            let up = (60 + rng.next_below(120)) * PS_PER_SEC;
            plan.flap_node(node, onset, down, up)
        } else {
            // Heavy burst loss: long bad runs that shed most
            // heartbeats, surfacing as repeated link faults.
            let p_good_bad = 0.25 + 0.25 * rng.next_f64();
            let p_bad_good = 0.05 + 0.10 * rng.next_f64();
            let drop_bad = 0.85 + 0.10 * rng.next_f64();
            plan.degrade_node(node, p_good_bad, p_bad_good, 0.0, drop_bad)
        };
    }
    plan
}

/// Fleet experiment configuration. Defaults describe a small, fast run
/// suitable for tests; F12 scales `nodes` up to 100 k.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    pub nodes: u32,
    /// Hard stop for the simulation clock.
    pub horizon: SimDuration,
    pub seed: u64,
    /// Controller reconcile tick.
    pub reconcile_period: SimDuration,
    pub controller: ControllerConfig,
    pub health: HealthConfig,
    /// Jobs in the synthetic stream.
    pub jobs: u32,
    /// Widths are uniform in `1..=max_job_width`.
    pub max_job_width: u32,
    pub min_runtime: SimDuration,
    pub max_runtime: SimDuration,
    /// Arrivals are uniform in `[0, arrival_window]`.
    pub arrival_window: SimDuration,
    /// Checkpoint cadence (`ZERO` = continuous, nothing ever lost).
    pub checkpoint_interval: SimDuration,
    /// Overhead added to a job's next run after an eviction.
    pub restart_cost: SimDuration,
    /// Admission policy — the *same* [`Policy`] the batch scheduler
    /// implements, routed through [`plan_admissions`].
    pub policy: Policy,
    /// Record the audit event log (the sentinel ledger's input).
    pub record_audit: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 256,
            horizon: SimDuration::from_secs(5400),
            seed: 0,
            reconcile_period: SimDuration::from_secs(15),
            controller: ControllerConfig::default(),
            health: HealthConfig::default(),
            jobs: 64,
            max_job_width: 8,
            min_runtime: SimDuration::from_secs(120),
            max_runtime: SimDuration::from_secs(900),
            arrival_window: SimDuration::from_secs(1200),
            checkpoint_interval: SimDuration::from_secs(120),
            restart_cost: SimDuration::from_secs(30),
            policy: Policy::EasyBackfill,
            record_audit: false,
        }
    }
}

impl FleetConfig {
    /// Refuse a configuration [`run_fleet`] could not finish: a zero
    /// period re-arms its event at the same instant forever, so the
    /// clock never reaches the horizon.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        for (field, period) in [
            ("reconcile_period", self.reconcile_period),
            ("health.heartbeat_period", self.health.heartbeat_period),
        ] {
            if period == SimDuration::ZERO {
                return Err(FleetConfigError::ZeroPeriod { field });
            }
        }
        Ok(())
    }
}

/// Why [`FleetConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// The named period is zero.
    ZeroPeriod { field: &'static str },
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::ZeroPeriod { field } => write!(
                f,
                "FleetConfig::{field} is zero: its event would re-arm at the same instant forever"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// One entry of the fleet's audit log: the exact stream the sentinel
/// lifecycle-conservation ledger replays.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditEvent {
    Transition { at_ps: u64, node: u32, from: NodeState, to: NodeState },
    JobStart { at_ps: u64, job: u32, nodes: Vec<u32> },
    JobEvict { at_ps: u64, job: u32, node: u32 },
    JobEnd { at_ps: u64, job: u32 },
}

/// What one fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub nodes: u32,
    pub disturbed: u32,
    /// Every node settled (`Healthy`/`Reclaim`, nothing in flight) and
    /// every disturbed node terminal at the end of the run.
    pub converged: bool,
    /// End-of-run census, indexed by [`NodeState::index`].
    pub census: [u32; 7],
    pub transitions: u64,
    /// Entries into `Breakfix` from a serving state.
    pub evictions: u64,
    /// Evictions of nodes the plan says were alive at that instant.
    pub false_evictions: u64,
    pub requeues: u64,
    pub jobs_total: u32,
    pub jobs_completed: u32,
    /// Mean queue wait from arrival to first start, over started jobs.
    pub mean_wait_s: f64,
    /// Mean / max control-plane convergence: disturbance onset to the
    /// disturbed node's final transition, over settled disturbed nodes.
    pub conv_mean_s: f64,
    pub conv_max_s: f64,
    /// Useful node-time as a percentage of consumed node-time.
    pub goodput_pct: f64,
    /// Node-seconds burned on lost progress and restart overhead.
    pub lost_node_s: f64,
    pub end_ps: u64,
    /// Where the engine queue's pushes went, and its rebuilds.
    pub queue: QueueStats,
    /// Present when `record_audit` was set.
    pub audit: Vec<AuditEvent>,
}

/// The event alphabet of the fleet simulation (public because it is
/// [`FleetSim`]'s associated `World::Event` type; constructed only
/// internally).
#[derive(Debug, Clone, Copy)]
pub enum FleetEvent {
    OpDone { node: u32, epoch: u32 },
    OpTimeout { node: u32, epoch: u32 },
    Heartbeat { node: u32 },
    Reconcile,
    Arrival { job: u32 },
    JobDone { job: u32, epoch: u32 },
}

/// Per-victim ground truth, parsed once from the plan so the hot path
/// never scans the rule list.
#[derive(Debug, Clone, Copy)]
struct Disturbance {
    crash_at: Option<u64>,
    /// `(first_down_ps, down_ps, up_ps)`.
    flap: Option<(u64, u64, u64)>,
    /// Gilbert–Elliott `(p_good_bad, p_bad_good, drop_good, drop_bad)`.
    ge: Option<(f64, f64, f64, f64)>,
    ge_bad: bool,
    onset_ps: u64,
    last_change_ps: Option<u64>,
}

#[derive(Debug, Clone)]
struct JobRec {
    width: u32,
    total: SimDuration,
    /// The user's runtime estimate (>= `total`; what backfill plans
    /// against — the scheduler never sees true runtimes).
    estimate: SimDuration,
    arrival: SimTime,
    /// Checkpointed (durable) progress.
    durable: SimDuration,
    /// Overhead the next run pays before doing useful work.
    restart_cost: SimDuration,
    running_since: Option<SimTime>,
    /// Bumped on every (re)start; stale `JobDone` events are ignored.
    epoch: u32,
    nodes: Vec<u32>,
    /// First start (the end of the queue wait) and completion.
    first_start: Option<SimTime>,
    finish: Option<SimTime>,
}

impl JobRec {
    fn new(width: u32, total: SimDuration, estimate: SimDuration, arrival: SimTime) -> Self {
        JobRec {
            width,
            total,
            estimate,
            arrival,
            durable: SimDuration::ZERO,
            restart_cost: SimDuration::ZERO,
            running_since: None,
            epoch: 0,
            nodes: Vec::new(),
            first_start: None,
            finish: None,
        }
    }
}

/// Pre-resolved metric handles (handles are `Arc`-backed; resolving
/// once keeps the per-event cost flat at 100 k-node scale).
struct Metrics {
    /// One counter per edge of [`NodeState::EDGES`], same order.
    edges: Vec<Counter>,
    evict_true: Counter,
    evict_false: Counter,
    requeues: Counter,
    hb_ok: Counter,
    hb_drop: Counter,
    link_faults: Counter,
    jobs_completed: Counter,
    conv_ms: polaris_obs::Histogram,
}

impl Metrics {
    fn new(obs: &Obs) -> Self {
        Metrics {
            edges: NodeState::EDGES
                .iter()
                .map(|&(f, t)| {
                    obs.counter(
                        "lifecycle_transitions_total",
                        &[("from", f.name()), ("to", t.name())],
                    )
                })
                .collect(),
            evict_true: obs.counter("lifecycle_evictions_total", &[("kind", "true_positive")]),
            evict_false: obs.counter("lifecycle_evictions_total", &[("kind", "false_positive")]),
            requeues: obs.counter("lifecycle_requeues_total", &[]),
            hb_ok: obs.counter("lifecycle_heartbeats_total", &[("result", "ok")]),
            hb_drop: obs.counter("lifecycle_heartbeats_total", &[("result", "dropped")]),
            link_faults: obs.counter("lifecycle_link_faults_total", &[]),
            jobs_completed: obs.counter("lifecycle_jobs_completed_total", &[]),
            conv_ms: obs.histogram("lifecycle_convergence_ms", &[]),
        }
    }
}

/// The fleet world: controller + health + jobs, driven by the simnet
/// engine. Construct via [`run_fleet`].
pub struct FleetSim {
    cfg: FleetConfig,
    controller: Controller,
    health: HealthAggregator,
    disturbed: BTreeMap<u32, Disturbance>,
    /// Per node: does `disturbed` hold it? Only those nodes stream
    /// heartbeats, so only they are known to `health`; the hot path asks
    /// here before probing either map.
    victim: Vec<bool>,
    /// RNG for heartbeat-loss draws (one stream, event-order stable).
    hb_rng: SplitMix64,
    /// Heartbeat stream live per node (only ever set for victims).
    hb_live: Vec<bool>,
    jobs: Vec<JobRec>,
    /// Queued jobs in order, and at the same index of `queued_reqs` the
    /// request the planner sees, computed when the job is enqueued or
    /// requeued (its only inputs, `durable` and `restart_cost`, change
    /// only at eviction). Kept apart so the planner reads the requests
    /// in place.
    queued_jobs: VecDeque<u32>,
    queued_reqs: VecDeque<QueuedReq>,
    /// Jobs holding nodes in start order, and at the same index of
    /// `running_res` the reservation computed at start.
    running_jobs: Vec<u32>,
    running_res: Vec<RunningRes>,
    /// Free-list of schedulable nodes, with lazy deletion.
    free: Vec<u32>,
    in_free: Vec<bool>,
    /// Exact count of `Healthy` ∧ unoccupied nodes.
    avail: u32,
    /// The job each node runs, as `job + 1` so that a node costs 4 bytes.
    node_job: Vec<Option<NonZeroU32>>,
    audit: Vec<AuditEvent>,
    metrics: Option<Metrics>,
    // Tallies.
    transitions: u64,
    evictions: u64,
    false_evictions: u64,
    requeues: u64,
    jobs_completed: u32,
    /// First-start queue-wait picoseconds, and how many jobs started.
    wait_ps: u128,
    waited: u32,
    /// Node-picoseconds consumed by runs / banked as durable progress.
    consumed_ps: u128,
    useful_ps: u128,
}

/// What the scheduler believes one more run of this job costs: the
/// restart overhead plus the *estimated* (not true) remaining work.
fn est_remaining(rec: &JobRec) -> SimDuration {
    let left = rec.estimate.as_ps().saturating_sub(rec.durable.as_ps()).max(1);
    rec.restart_cost + SimDuration::from_ps(left)
}

/// The planner sees user estimates, never true runtimes.
fn queued_req(rec: &JobRec) -> QueuedReq {
    QueuedReq { width: rec.width, estimate: est_remaining(rec).as_secs() }
}

impl FleetSim {
    fn crashed(&self, node: u32, now: SimTime) -> bool {
        self.victim[node as usize]
            && self
                .disturbed
                .get(&node)
                .and_then(|d| d.crash_at)
                .is_some_and(|at| at <= now.as_ps())
    }

    /// `health`'s verdict, which is `Ok` for a node it does not know.
    fn verdict(&self, node: u32, now: SimTime) -> HealthVerdict {
        if self.victim[node as usize] {
            self.health.verdict(node, now)
        } else {
            HealthVerdict::Ok
        }
    }

    /// Schedule the controller's new operations and absorb its freshly
    /// logged transitions into occupancy, audit, and metrics.
    fn after_controller(
        &mut self,
        sched: &mut Scheduler<FleetEvent>,
        ops: impl IntoIterator<Item = StartedOp>,
    ) {
        self.process_transitions(sched);
        for op in ops {
            sched.after(op.delay, FleetEvent::OpDone { node: op.node, epoch: op.epoch });
            if let Some(t) = op.timeout {
                sched.after(t, FleetEvent::OpTimeout { node: op.node, epoch: op.epoch });
            }
        }
        self.dispatch(sched);
    }

    fn process_transitions(&mut self, sched: &mut Scheduler<FleetEvent>) {
        while let Some(t) = self.controller.next_transition() {
            self.transitions += 1;
            if let Some(m) = &self.metrics {
                if let Some(i) = NodeState::EDGES.iter().position(|&e| e == (t.from, t.to)) {
                    m.edges[i].inc();
                }
            }
            if self.victim[t.node as usize] {
                if let Some(d) = self.disturbed.get_mut(&t.node) {
                    d.last_change_ps = Some(t.at_ps);
                }
            }
            match (t.from, t.to) {
                (_, NodeState::Healthy) => {
                    // Entering service: admissible and, for victims,
                    // the heartbeat stream starts with first admission.
                    // A draining node that recovers while still running
                    // its job stays occupied — not free for new work.
                    if self.node_job[t.node as usize].is_none() {
                        self.mark_available(t.node);
                    }
                    self.start_heartbeats(sched, t.node);
                }
                (NodeState::Healthy, NodeState::Degraded)
                    // Draining: running work continues, nothing new.
                    if self.node_job[t.node as usize].is_none() => {
                        self.mark_unavailable(t.node);
                    }
                (from, NodeState::Breakfix) => {
                    let serving = matches!(from, NodeState::Healthy | NodeState::Degraded);
                    if serving {
                        self.evictions += 1;
                        let false_evict = !self.crashed(t.node, SimTime(t.at_ps));
                        if false_evict {
                            self.false_evictions += 1;
                        }
                        if let Some(m) = &self.metrics {
                            if false_evict { &m.evict_false } else { &m.evict_true }.inc();
                        }
                        if let Some(job) = self.node_job[t.node as usize].map(|j| j.get() - 1) {
                            // The evict is audited before the transition
                            // record: occupancy must be clear by the time
                            // the node has left its serving state.
                            self.evict_job(sched, job, t.node, t.at_ps);
                        } else if from == NodeState::Healthy {
                            self.mark_unavailable(t.node);
                        }
                    }
                }
                _ => {}
            }
            if self.cfg.record_audit {
                self.audit.push(AuditEvent::Transition {
                    at_ps: t.at_ps,
                    node: t.node,
                    from: t.from,
                    to: t.to,
                });
            }
        }
    }

    fn mark_available(&mut self, node: u32) {
        debug_assert!(self.node_job[node as usize].is_none());
        if !self.in_free[node as usize] {
            self.in_free[node as usize] = true;
            self.free.push(node);
            self.avail += 1;
        }
    }

    fn mark_unavailable(&mut self, node: u32) {
        // Lazy deletion: the stale free-list entry is skipped at pop.
        if self.in_free[node as usize] {
            self.in_free[node as usize] = false;
            self.avail -= 1;
        }
    }

    fn start_heartbeats(&mut self, sched: &mut Scheduler<FleetEvent>, node: u32) {
        if !self.victim[node as usize] || self.hb_live[node as usize] {
            return;
        }
        self.hb_live[node as usize] = true;
        let now = sched.now();
        self.health.register(node, now);
        if let Some(d) = self.disturbed.get_mut(&node) {
            // A disturbance can only be observed once the node serves.
            d.onset_ps = d.onset_ps.max(now.as_ps());
        }
        let period = self.health.config().heartbeat_period.as_ps().max(1);
        let stagger = SimDuration::from_ps(self.hb_rng.next_below(period));
        sched.after(stagger, FleetEvent::Heartbeat { node });
    }

    fn heartbeat(&mut self, sched: &mut Scheduler<FleetEvent>, node: u32) {
        let now = sched.now();
        // Dead senders and retired nodes end their streams.
        if self.controller.state(node).terminal() || self.crashed(node, now) {
            self.hb_live[node as usize] = false;
            return;
        }
        let d = self.disturbed.get_mut(&node).expect("only victims stream heartbeats");
        let mut delivered = true;
        let mut link_fault = false;
        if let Some((first, down, up)) = d.flap {
            let t = now.as_ps();
            let period = down + up;
            if t >= first && period > 0 && (t - first) % period < down {
                delivered = false;
                link_fault = true; // carrier loss: the NIC sees it
            }
        }
        if delivered && now.as_ps() >= d.onset_ps {
            if let Some((p_good_bad, p_bad_good, drop_good, drop_bad)) = d.ge {
                let flip =
                    self.hb_rng.chance(if d.ge_bad { p_bad_good } else { p_good_bad });
                if flip {
                    d.ge_bad = !d.ge_bad;
                }
                let p = if d.ge_bad { drop_bad } else { drop_good };
                if self.hb_rng.chance(p) {
                    delivered = false;
                    link_fault = true; // error completion on the node NIC
                }
            }
        }
        if delivered {
            self.health.note_heartbeat(node, now);
            if let Some(m) = &self.metrics {
                m.hb_ok.inc();
            }
        } else {
            if link_fault {
                self.health.note_link_fault(node, now);
                if let Some(m) = &self.metrics {
                    m.link_faults.inc();
                }
            }
            if let Some(m) = &self.metrics {
                m.hb_drop.inc();
            }
        }
        sched.after(self.health.config().heartbeat_period, FleetEvent::Heartbeat { node });
    }

    fn reconcile(&mut self, sched: &mut Scheduler<FleetEvent>) {
        let now = sched.now();
        let nodes: Vec<u32> = self.health.registered().collect();
        let mut ops = Vec::new();
        for node in nodes {
            let verdict = self.health.verdict(node, now);
            ops.extend(self.controller.observe(now, node, verdict));
        }
        self.after_controller(sched, ops);
        // Keep ticking while anything can still change state: a victim
        // that is not yet terminal can raise new signals (a crashed but
        // still-`Healthy` node is detected by exactly this tick).
        let quiescent = self.controller.all_settled()
            && self.disturbed.keys().all(|&n| self.controller.state(n).terminal());
        if !quiescent {
            sched.after(self.cfg.reconcile_period, FleetEvent::Reconcile);
        }
    }

    /// Admission: route the queue through the configured [`Policy`]
    /// via [`plan_admissions`].
    fn dispatch(&mut self, sched: &mut Scheduler<FleetEvent>) {
        if self.queued_jobs.is_empty() || self.avail == 0 {
            return;
        }
        let now = sched.now();
        let queued = self.queued_reqs.make_contiguous();
        let picks =
            plan_admissions(self.cfg.policy, now.as_secs(), queued, &self.running_res, self.avail);
        let admitted: Vec<u32> = picks.iter().map(|&i| self.queued_jobs[i]).collect();
        for &i in picks.iter().rev() {
            self.queued_jobs.remove(i);
            self.queued_reqs.remove(i);
        }
        for job in admitted {
            self.start_job(sched, now, job);
        }
    }

    fn start_job(&mut self, sched: &mut Scheduler<FleetEvent>, now: SimTime, job: u32) {
        let width = self.jobs[job as usize].width;
        debug_assert!(self.avail >= width, "planner admitted past capacity");
        let mut got = Vec::with_capacity(width as usize);
        while got.len() < width as usize {
            let n = self.free.pop().expect("avail said enough free nodes");
            if !self.in_free[n as usize] {
                continue; // lazily deleted entry
            }
            debug_assert!(self.controller.state(n).schedulable());
            debug_assert!(self.node_job[n as usize].is_none());
            self.in_free[n as usize] = false;
            self.avail -= 1;
            self.node_job[n as usize] = NonZeroU32::new(job + 1);
            got.push(n);
        }
        let rec = &mut self.jobs[job as usize];
        let first_wait = rec.first_start.is_none().then(|| now.since(rec.arrival));
        rec.first_start.get_or_insert(now);
        rec.epoch = rec.epoch.wrapping_add(1);
        rec.running_since = Some(now);
        let run = rec.restart_cost + (rec.total - rec.durable);
        sched.after(run, FleetEvent::JobDone { job, epoch: rec.epoch });
        // `durable`/`restart_cost` change only at evict or completion,
        // so this reservation holds for the whole run.
        let res = RunningRes { width, est_end: (now + est_remaining(rec)).as_secs() };
        if let Some(w) = first_wait {
            self.wait_ps += w.as_ps() as u128;
            self.waited += 1;
        }
        self.running_jobs.push(job);
        self.running_res.push(res);
        if self.cfg.record_audit {
            self.audit.push(AuditEvent::JobStart { at_ps: now.as_ps(), job, nodes: got.clone() });
        }
        rec.nodes = got;
    }

    /// A serving node under `job` left for `Breakfix`: stop the run,
    /// bank checkpointed progress, release the surviving nodes, and
    /// requeue at the head of the line.
    fn evict_job(&mut self, _sched: &mut Scheduler<FleetEvent>, job: u32, leaving: u32, at_ps: u64) {
        let tau = self.cfg.checkpoint_interval.as_ps();
        let restart = self.cfg.restart_cost;
        let rec = &mut self.jobs[job as usize];
        let since = rec.running_since.take().expect("evicted job was running");
        let elapsed = SimTime(at_ps).since(since);
        // Restart overhead produces no progress; past it, only whole
        // checkpoint intervals survive the eviction.
        let work = elapsed - rec.restart_cost;
        // tau == 0 means continuous checkpointing: everything survives.
        let durable_gain = match work.as_ps().checked_div(tau) {
            Some(intervals) => SimDuration::from_ps(intervals * tau),
            None => work,
        };
        let remaining = rec.total - rec.durable;
        let durable_gain = durable_gain.min(remaining);
        rec.durable += durable_gain;
        rec.restart_cost = restart;
        rec.epoch = rec.epoch.wrapping_add(1); // fence the in-flight JobDone
        let req = queued_req(rec);
        let width = rec.width as u128;
        self.consumed_ps += width * elapsed.as_ps() as u128;
        self.useful_ps += width * durable_gain.as_ps() as u128;
        let nodes = std::mem::take(&mut rec.nodes);
        for n in nodes {
            self.node_job[n as usize] = None;
            if n != leaving && self.controller.state(n).schedulable() {
                self.mark_available(n);
            }
        }
        self.stop_running(job);
        self.requeues += 1;
        if let Some(m) = &self.metrics {
            m.requeues.inc();
        }
        if self.cfg.record_audit {
            self.audit.push(AuditEvent::JobEvict { at_ps, job, node: leaving });
        }
        self.queued_jobs.push_front(job);
        self.queued_reqs.push_front(req);
    }

    /// Drop `job`'s reservation, keeping the others in start order: the
    /// planner's walk over estimated ends breaks ties in that order.
    fn stop_running(&mut self, job: u32) {
        let i = self.running_jobs.iter().position(|&j| j == job).expect("job was running");
        self.running_jobs.remove(i);
        self.running_res.remove(i);
    }

    fn job_done(&mut self, sched: &mut Scheduler<FleetEvent>, job: u32, epoch: u32) {
        let now = sched.now();
        let rec = &mut self.jobs[job as usize];
        if rec.finish.is_some() || rec.epoch != epoch {
            return; // a stale completion from before an eviction
        }
        let since = rec.running_since.take().expect("completing job was running");
        let elapsed = now.since(since);
        let width = rec.width as u128;
        self.consumed_ps += width * elapsed.as_ps() as u128;
        self.useful_ps += width * (rec.total - rec.durable).as_ps() as u128;
        rec.durable = rec.total;
        rec.finish = Some(now);
        let nodes = std::mem::take(&mut rec.nodes);
        self.stop_running(job);
        self.jobs_completed += 1;
        if let Some(m) = &self.metrics {
            m.jobs_completed.inc();
        }
        if self.cfg.record_audit {
            self.audit.push(AuditEvent::JobEnd { at_ps: now.as_ps(), job });
        }
        for n in nodes {
            self.node_job[n as usize] = None;
            if self.controller.state(n).schedulable() {
                self.mark_available(n);
            }
        }
        self.dispatch(sched);
    }
}

impl World for FleetSim {
    type Event = FleetEvent;

    fn handle(&mut self, sched: &mut Scheduler<FleetEvent>, event: FleetEvent) {
        match event {
            FleetEvent::OpDone { node, epoch } => {
                let Some(kind) = self.controller.pending_op(node, epoch) else {
                    return;
                };
                // A node-side operation never completes on a dead node;
                // its timeout will escalate instead.
                if kind.node_side() && self.crashed(node, sched.now()) {
                    return;
                }
                let verdict = self.verdict(node, sched.now());
                let ops = self.controller.op_done(sched.now(), node, epoch, verdict);
                self.after_controller(sched, ops);
            }
            FleetEvent::OpTimeout { node, epoch } => {
                let ops = self.controller.op_timeout(sched.now(), node, epoch);
                self.after_controller(sched, ops);
            }
            FleetEvent::Heartbeat { node } => self.heartbeat(sched, node),
            FleetEvent::Reconcile => self.reconcile(sched),
            FleetEvent::Arrival { job } => {
                self.queued_jobs.push_back(job);
                self.queued_reqs.push_back(queued_req(&self.jobs[job as usize]));
                self.dispatch(sched);
            }
            FleetEvent::JobDone { job, epoch } => self.job_done(sched, job, epoch),
        }
    }
}

/// Parse the plan's node-scoped rules into per-victim ground truth.
fn disturbances(plan: &FaultPlan, fleet_nodes: u32) -> BTreeMap<u32, Disturbance> {
    let mut map = BTreeMap::new();
    for rule in &plan.rules {
        let FaultScope::Node(node) = rule.scope else { continue };
        if node >= fleet_nodes {
            continue;
        }
        let d = map.entry(node).or_insert(Disturbance {
            crash_at: None,
            flap: None,
            ge: None,
            ge_bad: false,
            onset_ps: u64::MAX,
            last_change_ps: None,
        });
        match rule.kind {
            FaultKind::Crash { at_ps } => {
                d.crash_at = Some(d.crash_at.map_or(at_ps, |c: u64| c.min(at_ps)));
                d.onset_ps = d.onset_ps.min(at_ps);
            }
            FaultKind::Flap { first_down_ps, down_ps, up_ps } => {
                d.flap = Some((first_down_ps, down_ps, up_ps));
                d.onset_ps = d.onset_ps.min(first_down_ps);
            }
            FaultKind::GilbertElliott { p_good_bad, p_bad_good, drop_good, drop_bad } => {
                d.ge = Some((p_good_bad, p_bad_good, drop_good, drop_bad));
                d.onset_ps = 0;
            }
            _ => {}
        }
    }
    for d in map.values_mut() {
        if d.onset_ps == u64::MAX {
            d.onset_ps = 0;
        }
    }
    map
}

/// Run one fleet experiment: a pure function of `(cfg, plan)`. When an
/// observability plane is supplied, lifecycle counters, the end-of-run
/// census, and convergence metrics are published into it.
///
/// # Panics
/// If [`FleetConfig::validate`] refuses `cfg`, with its message.
pub fn run_fleet(cfg: FleetConfig, plan: &FaultPlan, obs: Option<&Obs>) -> FleetReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    run(cfg, plan, obs, generated_jobs(&cfg)).0
}

/// Run `jobs` (sorted by arrival, none wider than `nodes`) through the
/// fleet as a batch scheduler: instant provisioning, no churn, no
/// horizon. Times are rounded to the picosecond, and the outcomes
/// report them on that clock, sorted by job id.
pub(crate) fn run_batch(nodes: u32, policy: Policy, jobs: &[Job]) -> Vec<JobOutcome> {
    let cfg = FleetConfig {
        nodes,
        policy,
        horizon: SimDuration::from_ps(u64::MAX),
        restart_cost: SimDuration::ZERO,
        controller: ControllerConfig {
            provision_time: SimDuration::ZERO,
            validate_time: SimDuration::ZERO,
            ..ControllerConfig::default()
        },
        ..FleetConfig::default()
    };
    let ps = SimDuration::from_secs_f64;
    let recs = jobs
        .iter()
        .map(|j| {
            JobRec::new(j.width, ps(j.runtime), ps(j.estimate), SimTime::ZERO + ps(j.arrival))
        })
        .collect();
    let (_, recs) = run(cfg, &FaultPlan::new(0), None, recs);
    let mut out: Vec<JobOutcome> = jobs
        .iter()
        .zip(recs)
        .map(|(j, r)| JobOutcome {
            id: j.id,
            arrival: r.arrival.as_secs(),
            start: r.first_start.expect("a churn-free fleet starts every job").as_secs(),
            finish: r.finish.expect("an unbounded run finishes every job").as_secs(),
            width: j.width,
            runtime: j.runtime,
        })
        .collect();
    out.sort_by_key(|o| o.id);
    out
}

/// The seeded synthetic job stream [`run_fleet`] serves.
fn generated_jobs(cfg: &FleetConfig) -> Vec<JobRec> {
    let mut job_rng = SplitMix64::new(cfg.seed ^ 0x666C_6565_746A_6F62); // "fleetjob"
    let width_bound = cfg.max_job_width.clamp(1, cfg.nodes) as u64;
    let runtime_span = cfg.max_runtime.as_ps().saturating_sub(cfg.min_runtime.as_ps()).max(1);
    // Estimates ride a separate stream so the job population (widths,
    // runtimes, arrivals) is identical across policy knobs.
    let mut est_rng = SplitMix64::new(cfg.seed ^ 0x6573_7469_6D61_7465); // "estimate"
    (0..cfg.jobs)
        .map(|_| {
            let width = 1 + job_rng.next_below(width_bound) as u32;
            let total = cfg.min_runtime + SimDuration::from_ps(job_rng.next_below(runtime_span));
            // A retired tenant draw, kept so the stream is unchanged.
            job_rng.next_below(4);
            let arrival = SimTime(job_rng.next_below(cfg.arrival_window.as_ps().max(1)));
            // Users overestimate: 1–3× the true runtime, never under.
            let estimate = SimDuration::from_ps(
                (total.as_ps() as f64 * (1.0 + 2.0 * est_rng.next_f64())) as u64,
            );
            JobRec::new(width, total, estimate, arrival)
        })
        .collect()
}

/// The simulation both entry points share: `jobs` arrive at their
/// `arrival` times onto a fleet bootstrapping from t = 0 under `plan`.
/// Returns the report and the jobs' final records.
fn run(
    cfg: FleetConfig,
    plan: &FaultPlan,
    obs: Option<&Obs>,
    jobs: Vec<JobRec>,
) -> (FleetReport, Vec<JobRec>) {
    let n = cfg.nodes as usize;
    let jobs_total = jobs.len() as u32;
    let mut sched: Scheduler<FleetEvent> = Scheduler::with_capacity(n + jobs.len());
    for (job, rec) in jobs.iter().enumerate() {
        sched.at(rec.arrival, FleetEvent::Arrival { job: job as u32 });
    }
    let disturbed = disturbances(plan, cfg.nodes);
    let mut sim = FleetSim {
        controller: Controller::new(cfg.controller, cfg.nodes, cfg.seed),
        health: HealthAggregator::new(cfg.health),
        victim: (0..cfg.nodes).map(|v| disturbed.contains_key(&v)).collect(),
        disturbed,
        hb_rng: SplitMix64::new(cfg.seed ^ plan.seed ^ 0x6865_6172_7462_6561), // "heartbea"
        hb_live: vec![false; n],
        jobs,
        queued_jobs: VecDeque::new(),
        queued_reqs: VecDeque::new(),
        running_jobs: Vec::new(),
        running_res: Vec::new(),
        free: Vec::with_capacity(n),
        in_free: vec![false; n],
        avail: 0,
        node_job: vec![None; n],
        audit: Vec::new(),
        metrics: obs.map(Metrics::new),
        transitions: 0,
        evictions: 0,
        false_evictions: 0,
        requeues: 0,
        jobs_completed: 0,
        wait_ps: 0,
        waited: 0,
        consumed_ps: 0,
        useful_ps: 0,
        cfg,
    };
    sched.after(cfg.reconcile_period, FleetEvent::Reconcile);
    // Each node's provision is pushed as it starts (it queues no
    // transition, and no job has arrived to dispatch).
    for node in 0..cfg.nodes {
        let op = sim.controller.provision(node);
        sim.after_controller(&mut sched, Some(op));
    }
    let stats = engine::run(&mut sim, &mut sched, Some(SimTime::ZERO + cfg.horizon));

    // Convergence: onset → last transition, per settled victim.
    let mut conv_sum = 0.0;
    let mut conv_max = 0.0_f64;
    let mut conv_n = 0u32;
    for (&node, d) in &sim.disturbed {
        if !sim.controller.state(node).settled() {
            continue;
        }
        if let Some(last) = d.last_change_ps {
            let conv_s = last.saturating_sub(d.onset_ps) as f64 / PS_PER_SEC as f64;
            conv_sum += conv_s;
            conv_max = conv_max.max(conv_s);
            conv_n += 1;
            if let Some(m) = &sim.metrics {
                m.conv_ms.record((conv_s * 1e3) as u64);
            }
        }
    }
    let census = sim.controller.census();
    if let Some(obs) = obs {
        for &s in &NodeState::ALL {
            obs.gauge("lifecycle_census", &[("state", s.name())])
                .set(census[s.index()] as f64);
        }
        obs.gauge("lifecycle_goodput_pct", &[]).set(if sim.consumed_ps == 0 {
            100.0
        } else {
            100.0 * sim.useful_ps as f64 / sim.consumed_ps as f64
        });
    }
    let converged = sim.controller.all_settled()
        && sim.disturbed.keys().all(|&v| sim.controller.state(v).terminal());
    let report = FleetReport {
        nodes: cfg.nodes,
        disturbed: sim.disturbed.len() as u32,
        converged,
        census,
        transitions: sim.transitions,
        evictions: sim.evictions,
        false_evictions: sim.false_evictions,
        requeues: sim.requeues,
        jobs_total,
        jobs_completed: sim.jobs_completed,
        mean_wait_s: if sim.waited > 0 {
            sim.wait_ps as f64 / sim.waited as f64 / PS_PER_SEC as f64
        } else {
            0.0
        },
        conv_mean_s: if conv_n > 0 { conv_sum / conv_n as f64 } else { 0.0 },
        conv_max_s: conv_max,
        goodput_pct: if sim.consumed_ps == 0 {
            100.0
        } else {
            100.0 * sim.useful_ps as f64 / sim.consumed_ps as f64
        },
        lost_node_s: (sim.consumed_ps - sim.useful_ps) as f64 / PS_PER_SEC as f64,
        end_ps: stats.end_time.as_ps(),
        queue: stats.queue,
        audit: sim.audit,
    };
    (report, sim.jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            nodes: 32,
            jobs: 24,
            max_job_width: 4,
            horizon: SimDuration::from_secs(5400),
            record_audit: true,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn quiet_fleet_converges_and_finishes_all_jobs() {
        let cfg = small_cfg();
        let plan = FaultPlan::new(1); // no churn
        let r = run_fleet(cfg, &plan, None);
        assert!(r.converged, "undisturbed fleet must settle: {r:?}");
        assert_eq!(r.census[NodeState::Healthy.index()], cfg.nodes);
        assert_eq!(r.jobs_completed, cfg.jobs);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.requeues, 0);
        assert!((r.goodput_pct - 100.0).abs() < 1e-9, "no churn, no waste");
        // Exactly two transitions per node: Provision→Validate→Healthy.
        assert_eq!(r.transitions, 2 * cfg.nodes as u64);
    }

    #[test]
    fn crashed_node_is_detected_and_reclaimed() {
        let cfg = small_cfg();
        let plan = FaultPlan::new(2).crash_node(5, SimTime(600 * PS_PER_SEC));
        let r = run_fleet(cfg, &plan, None);
        assert!(r.converged, "{r:?}");
        assert_eq!(r.census[NodeState::Reclaim.index()], 1);
        assert_eq!(r.census[NodeState::Healthy.index()], cfg.nodes - 1);
        assert!(r.evictions >= 1);
        assert_eq!(r.false_evictions, 0, "crash evictions are true positives");
        assert_eq!(r.jobs_completed, cfg.jobs, "work rides out the crash");
    }

    #[test]
    fn flapping_node_costs_false_evictions_but_fleet_converges() {
        let cfg = small_cfg();
        let plan = FaultPlan::new(3).flap_node(
            9,
            SimTime(500 * PS_PER_SEC),
            45 * PS_PER_SEC, // down longer than the 30s heartbeat timeout
            90 * PS_PER_SEC,
        );
        let r = run_fleet(cfg, &plan, None);
        assert!(r.converged, "{r:?}");
        assert_eq!(r.census[NodeState::Reclaim.index()], 1, "budget retires the flapper");
        assert!(r.false_evictions >= 1, "a flapping node is alive when evicted");
        assert_eq!(r.false_evictions, r.evictions);
    }

    #[test]
    fn seeded_churn_run_is_deterministic() {
        let cfg = FleetConfig { seed: 11, ..small_cfg() };
        let spec = ChurnSpec { events: 5, ..ChurnSpec::default() };
        let plan = churn_plan(77, cfg.nodes, &spec);
        assert_eq!(plan, churn_plan(77, cfg.nodes, &spec), "plan is pure");
        let a = run_fleet(cfg, &plan, None);
        let b = run_fleet(cfg, &plan, None);
        assert_eq!(a, b, "same (cfg, plan) → identical report + audit log");
        assert_eq!(a.disturbed, 5);
    }

    #[test]
    fn churn_plan_round_trips_and_picks_distinct_victims() {
        let spec = ChurnSpec { events: 12, ..ChurnSpec::default() };
        let plan = churn_plan(5, 64, &spec);
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        assert_eq!(plan.disturbed_nodes().len(), 12, "victims are distinct");
        for node in plan.disturbed_nodes() {
            assert!(node < 64);
        }
    }

    #[test]
    fn audit_log_respects_the_state_graph_and_occupancy() {
        let cfg = FleetConfig { seed: 3, ..small_cfg() };
        let plan = churn_plan(9, cfg.nodes, &ChurnSpec { events: 4, ..ChurnSpec::default() });
        let r = run_fleet(cfg, &plan, None);
        let mut state = vec![NodeState::Provision; cfg.nodes as usize];
        let mut occupant: Vec<Option<u32>> = vec![None; cfg.nodes as usize];
        assert!(!r.audit.is_empty());
        for ev in &r.audit {
            match ev {
                AuditEvent::Transition { node, from, to, .. } => {
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
                        assert_eq!(occupant[*n as usize], None);
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
    }

    /// Regression for the FCFS bypass: `run_fleet` used to ignore
    /// `cfg.policy` and run a hard-coded strict-FCFS loop, so a wide
    /// requeued head blocked the whole machine. Routed through
    /// [`plan_admissions`], EASY backfill must produce a different —
    /// and shorter — mean queue wait than FCFS on the identical job
    /// population and churn plan.
    #[test]
    fn backfill_policy_beats_fcfs_under_churn() {
        let base = FleetConfig {
            nodes: 32,
            jobs: 64,
            max_job_width: 24, // wide jobs head-block a 32-node fleet
            arrival_window: SimDuration::from_secs(600),
            horizon: SimDuration::from_secs(40_000),
            seed: 11,
            ..FleetConfig::default()
        };
        let plan = churn_plan(77, base.nodes, &ChurnSpec { events: 5, ..ChurnSpec::default() });
        let fcfs = run_fleet(FleetConfig { policy: Policy::Fcfs, ..base }, &plan, None);
        let easy = run_fleet(FleetConfig { policy: Policy::EasyBackfill, ..base }, &plan, None);
        assert_eq!(fcfs.jobs_completed, base.jobs, "horizon covers the FCFS schedule: {fcfs:?}");
        assert_eq!(easy.jobs_completed, base.jobs, "{easy:?}");
        assert!(
            easy.mean_wait_s < fcfs.mean_wait_s,
            "EASY must backfill around wide heads: easy {:.1}s vs fcfs {:.1}s",
            easy.mean_wait_s,
            fcfs.mean_wait_s
        );
    }

    /// Regression (found by the sentinel lifecycle ledger): a draining
    /// `Degraded` node that recovers to `Healthy` while its job is
    /// still running must NOT re-enter the free list — doing so
    /// double-books the node for a second job.
    #[test]
    fn degraded_node_recovering_mid_job_is_not_double_booked() {
        // Long jobs keep every node occupied; one node rides a bursty
        // Gilbert–Elliott link so it bounces Degraded⇄Healthy many
        // times while its job is still holding it.
        let cfg = FleetConfig {
            nodes: 8,
            jobs: 16,
            max_job_width: 1,
            min_runtime: SimDuration::from_secs(2400),
            max_runtime: SimDuration::from_secs(2400),
            arrival_window: SimDuration::from_secs(60),
            horizon: SimDuration::from_secs(10_800),
            record_audit: true,
            ..FleetConfig::default()
        };
        let plan = FaultPlan::new(4).degrade_node(2, 0.3, 0.4, 0.0, 0.7);
        let r = run_fleet(cfg, &plan, None);
        let mut state = vec![NodeState::Provision; cfg.nodes as usize];
        let mut occupant: Vec<Option<u32>> = vec![None; cfg.nodes as usize];
        let mut recovered_occupied = false;
        for ev in &r.audit {
            match ev {
                AuditEvent::Transition { node, from, to, .. } => {
                    if (*from, *to) == (NodeState::Degraded, NodeState::Healthy)
                        && occupant[*node as usize].is_some()
                    {
                        recovered_occupied = true;
                    }
                    state[*node as usize] = *to;
                }
                AuditEvent::JobStart { job, nodes, .. } => {
                    for n in nodes {
                        assert_eq!(state[*n as usize], NodeState::Healthy, "admission gate");
                        assert_eq!(
                            occupant[*n as usize],
                            None,
                            "job {job} double-booked node {n}"
                        );
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
        assert!(
            recovered_occupied,
            "scenario must exercise the occupied Degraded→Healthy path: {r:?}"
        );
    }

    /// F12's shape at 2 000 nodes: the job arrivals over 1200 s are
    /// pushed first, in job order, then the bootstrap's completions and
    /// timeouts 48 to 216 s out. With the queue's cursor rebased onto
    /// the first arrival, 6 935 of 7 796 pushes went to `behind`.
    #[test]
    fn the_fleet_preload_stays_out_of_behind() {
        let cfg = FleetConfig { nodes: 2_000, jobs: 125, ..FleetConfig::default() };
        let plan = churn_plan(12, cfg.nodes, &ChurnSpec { events: 10, ..ChurnSpec::default() });
        let r = run_fleet(cfg, &plan, None);
        assert!(r.queue.behind * 100 <= r.queue.pushes(), "{:?}", r.queue);
    }

    /// A zero period used to hang `run_fleet`: the event re-armed
    /// itself at the same instant forever.
    #[test]
    #[should_panic(expected = "FleetConfig::reconcile_period is zero")]
    fn a_zero_reconcile_period_is_refused() {
        let cfg = FleetConfig { nodes: 8, reconcile_period: SimDuration::ZERO, ..small_cfg() };
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::ZeroPeriod { field: "reconcile_period" })
        );
        run_fleet(cfg, &FaultPlan::new(0), None);
    }

    #[test]
    #[should_panic(expected = "FleetConfig::health.heartbeat_period is zero")]
    fn a_zero_heartbeat_period_is_refused() {
        let health = HealthConfig { heartbeat_period: SimDuration::ZERO, ..HealthConfig::default() };
        let cfg = FleetConfig { nodes: 8, health, ..small_cfg() };
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::ZeroPeriod { field: "health.heartbeat_period" })
        );
        run_fleet(cfg, &FaultPlan::new(0).crash_node(3, SimTime(600 * PS_PER_SEC)), None);
    }

    #[test]
    fn eviction_checkpoint_accounting_loses_only_the_tail() {
        // One job on one victim node; crash mid-run. The requeued job
        // must still finish, with goodput < 100 (lost tail + restart).
        let cfg = FleetConfig {
            nodes: 8,
            jobs: 1,
            max_job_width: 1,
            min_runtime: SimDuration::from_secs(600),
            max_runtime: SimDuration::from_secs(601),
            arrival_window: SimDuration::from_secs(1),
            record_audit: true,
            ..FleetConfig::default()
        };
        // Crash whichever node hosts the job: width-1 job placed from
        // the free-list tail; run once to find the host, then replay.
        let probe = run_fleet(cfg, &FaultPlan::new(0), None);
        let host = probe
            .audit
            .iter()
            .find_map(|e| match e {
                AuditEvent::JobStart { nodes, .. } => Some(nodes[0]),
                _ => None,
            })
            .expect("job started");
        let start = probe
            .audit
            .iter()
            .find_map(|e| match e {
                AuditEvent::JobStart { at_ps, .. } => Some(*at_ps),
                _ => None,
            })
            .unwrap();
        let plan =
            FaultPlan::new(0).crash_node(host, SimTime(start + 300 * PS_PER_SEC));
        let r = run_fleet(cfg, &plan, None);
        assert_eq!(r.jobs_completed, 1, "{r:?}");
        assert_eq!(r.requeues, 1);
        assert!(r.goodput_pct < 100.0);
        assert!(r.lost_node_s > 0.0);
        // With 120s checkpoints, ≤ 120s of progress plus the detection
        // gap and 30s restart can be lost — bound it loosely.
        assert!(r.lost_node_s < 300.0, "lost {}s", r.lost_node_s);
    }
}
