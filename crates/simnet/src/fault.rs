//! Deterministic fault injection: seeded, serializable schedules of
//! link and node failures.
//!
//! The keynote's thesis — clusters built from commodity parts — implies
//! commodity failure rates: lossy links, flapping switch ports, nodes
//! that vanish mid-job. This module turns those into a first-class,
//! replayable experiment input. A [`FaultPlan`] is a pure description
//! (seed + rules) that serializes to JSON; a [`FaultInjector`] is its
//! deterministic runtime, consulted once per transfer. Every injected
//! event is appended to a replay log, so two runs of the same plan over
//! the same traffic produce bit-identical fault histories — the
//! property the chaos tests assert.
//!
//! Fault kinds:
//!
//! - [`FaultKind::UniformDrop`] — i.i.d. Bernoulli loss per link
//!   traversal (the classic `drop_prob` knob, now per-scope).
//! - [`FaultKind::GilbertElliott`] — two-state burst-loss channel: a
//!   `Good`/`Bad` Markov chain stepped once per observed transfer, with
//!   separate loss probabilities per state. Models the correlated loss
//!   bursts real cables and congested switch ports exhibit.
//! - [`FaultKind::Corrupt`] — the payload arrives, but damaged; the
//!   NIC layer surfaces this as a CRC/ICRC check failure.
//! - [`FaultKind::Flap`] — periodic link down/up windows (a loose
//!   transceiver, a port being reset by its switch).
//! - [`FaultKind::Crash`] — fail-stop node death at an absolute
//!   simulation time; all traffic to or from the node is lost from
//!   that instant.
//!
//! ```
//! use polaris_simnet::prelude::*;
//!
//! let plan = FaultPlan::new(42)
//!     .uniform_drop(0.05)
//!     .corrupt(0.01)
//!     .crash_node(3, SimTime(1_000_000));
//! let json = plan.to_json();
//! assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
//! ```

use crate::link::LinkId;
use crate::rng::SplitMix64;
use crate::time::SimTime;
use polaris_obs::{Obs, Subject};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// Every link in the topology.
    AllLinks,
    /// A single link, by topology link index.
    Link(u32),
    /// A single node: `Crash` kills it; link-style kinds apply to every
    /// transfer whose source or destination is the node.
    Node(u32),
}

impl FaultScope {
    fn matches_link(&self, link: u32, src: u32, dst: u32) -> bool {
        match self {
            FaultScope::AllLinks => true,
            FaultScope::Link(l) => *l == link,
            FaultScope::Node(n) => *n == src || *n == dst,
        }
    }
}

/// One kind of injected misbehaviour. All probabilities are per link
/// traversal; all times are picoseconds of simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Drop each traversal independently with probability `prob`.
    UniformDrop { prob: f64 },
    /// Gilbert–Elliott burst loss. The channel holds a `Good`/`Bad`
    /// state per (rule, link) pair and steps the chain once per
    /// observed transfer: from `Good` it moves to `Bad` with
    /// probability `p_good_bad` (and vice versa with `p_bad_good`),
    /// then drops with the current state's loss probability.
    GilbertElliott {
        p_good_bad: f64,
        p_bad_good: f64,
        drop_good: f64,
        drop_bad: f64,
    },
    /// Deliver the payload, but corrupted, with probability `prob`.
    Corrupt { prob: f64 },
    /// Periodic link flap: down for `down_ps`, up for `up_ps`,
    /// repeating, with the first outage starting at `first_down_ps`.
    Flap {
        first_down_ps: u64,
        down_ps: u64,
        up_ps: u64,
    },
    /// Fail-stop node crash at absolute time `at_ps`. Only meaningful
    /// with [`FaultScope::Node`].
    Crash { at_ps: u64 },
}

/// One scoped fault rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    pub scope: FaultScope,
    pub kind: FaultKind,
}

/// A seeded, serializable fault schedule: the complete description of
/// an experiment's injected failures. Two [`FaultInjector`]s built from
/// equal plans and shown the same transfer sequence make identical
/// decisions and produce identical [`FaultEvent`] logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the injector's deterministic random stream.
    pub seed: u64,
    /// Rules, evaluated in order for every transfer.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Add an arbitrary rule.
    pub fn rule(mut self, scope: FaultScope, kind: FaultKind) -> Self {
        self.rules.push(FaultRule { scope, kind });
        self
    }

    /// Uniform i.i.d. loss on every link.
    pub fn uniform_drop(self, prob: f64) -> Self {
        self.rule(FaultScope::AllLinks, FaultKind::UniformDrop { prob })
    }

    /// Gilbert–Elliott burst loss on every link.
    pub fn burst_drop(
        self,
        p_good_bad: f64,
        p_bad_good: f64,
        drop_good: f64,
        drop_bad: f64,
    ) -> Self {
        self.rule(
            FaultScope::AllLinks,
            FaultKind::GilbertElliott { p_good_bad, p_bad_good, drop_good, drop_bad },
        )
    }

    /// Payload corruption on every link.
    pub fn corrupt(self, prob: f64) -> Self {
        self.rule(FaultScope::AllLinks, FaultKind::Corrupt { prob })
    }

    /// Periodic down/up flapping on one link.
    pub fn flap_link(self, link: u32, first_down: SimTime, down: u64, up: u64) -> Self {
        self.rule(
            FaultScope::Link(link),
            FaultKind::Flap { first_down_ps: first_down.as_ps(), down_ps: down, up_ps: up },
        )
    }

    /// Fail-stop crash of `node` at time `at`.
    pub fn crash_node(self, node: u32, at: SimTime) -> Self {
        self.rule(FaultScope::Node(node), FaultKind::Crash { at_ps: at.as_ps() })
    }

    /// Periodic down/up flapping on every transfer touching `node` —
    /// a loose NIC transceiver rather than a bad switch port. The
    /// lifecycle control plane reads the plan's node-scoped rules back
    /// to drive heartbeat loss.
    pub fn flap_node(self, node: u32, first_down: SimTime, down: u64, up: u64) -> Self {
        self.rule(
            FaultScope::Node(node),
            FaultKind::Flap { first_down_ps: first_down.as_ps(), down_ps: down, up_ps: up },
        )
    }

    /// Gilbert–Elliott burst loss on every transfer touching `node`:
    /// the "degrade" churn primitive — the node stays up but its link
    /// quality collapses in bursts.
    pub fn degrade_node(
        self,
        node: u32,
        p_good_bad: f64,
        p_bad_good: f64,
        drop_good: f64,
        drop_bad: f64,
    ) -> Self {
        self.rule(
            FaultScope::Node(node),
            FaultKind::GilbertElliott { p_good_bad, p_bad_good, drop_good, drop_bad },
        )
    }

    /// The distinct node ids named by `Node`-scoped rules, ascending.
    pub fn disturbed_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .rules
            .iter()
            .filter_map(|r| match r.scope {
                FaultScope::Node(n) => Some(n),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Serialize to JSON (stable field order; suitable for replay files).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plan serialization is infallible")
    }

    /// Parse a plan back from [`FaultPlan::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// Why a transfer was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// Uniform i.i.d. loss.
    Uniform,
    /// Gilbert–Elliott channel in (or entering) its bad state.
    Burst,
    /// The link was inside a flap's down window.
    LinkDown,
    /// Source or destination node had crashed.
    NodeCrash,
}

/// What the injector did to one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    Drop(DropCause),
    Corrupt,
}

/// One replay-log entry: an injected fault, with enough context to
/// reproduce and audit the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation time of the affected transfer, picoseconds.
    pub at_ps: u64,
    /// Source node of the transfer.
    pub src: u32,
    /// Destination node of the transfer.
    pub dst: u32,
    /// Link index the fault fired on (`u32::MAX` for node-level faults).
    pub link: u32,
    /// What happened.
    pub action: FaultAction,
}

/// The injector's verdict for a single transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver untouched.
    Deliver,
    /// Deliver, but the payload is damaged in flight.
    DeliverCorrupted,
    /// The transfer is lost.
    Drop(DropCause),
}

/// Deterministic runtime for a [`FaultPlan`]: per-link channel state,
/// one seeded random stream, and the replay log. Consulted via
/// [`FaultInjector::judge`] once per transfer, in transfer order —
/// determinism holds whenever the presented transfer sequence is
/// identical, which the discrete-event executors guarantee.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Gilbert–Elliott state per (rule index, link): `true` = bad.
    ge_bad: HashMap<(usize, u32), bool>,
    log: Vec<FaultEvent>,
    obs: Option<Obs>,
}

/// Append `ev` to the replay log and, when an observability plane is
/// attached, mirror it into the metrics registry and flight recorder.
/// Free function so call sites inside `judge`'s rule loop don't need a
/// second `&mut self` borrow.
fn note_fault(obs: &Option<Obs>, log: &mut Vec<FaultEvent>, ev: FaultEvent) {
    if let Some(obs) = obs {
        let (action, name) = match ev.action {
            FaultAction::Drop(DropCause::Uniform) => ("drop_uniform", "fault_drop"),
            FaultAction::Drop(DropCause::Burst) => ("drop_burst", "fault_drop"),
            FaultAction::Drop(DropCause::LinkDown) => ("drop_linkdown", "fault_drop"),
            FaultAction::Drop(DropCause::NodeCrash) => ("drop_crash", "fault_drop"),
            FaultAction::Corrupt => ("corrupt", "fault_corrupt"),
        };
        obs.counter("sim_faults_total", &[("action", action)]).inc();
        let subject = if ev.link == u32::MAX {
            Subject::Node(ev.src)
        } else {
            Subject::Link(ev.link)
        };
        obs.instant(
            ev.at_ps,
            subject,
            name,
            &[("src", ev.src as u64), ("dst", ev.dst as u64)],
        );
    }
    log.push(ev);
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultInjector { plan, rng, ge_bad: HashMap::new(), log: Vec::new(), obs: None }
    }

    /// Attach an observability plane: every injected fault also bumps
    /// `sim_faults_total{action}` and records a trace instant.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The replay log of every fault injected so far.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Whether `node` is crashed (per the plan's schedule) at `now`.
    pub fn node_crashed(&self, node: u32, now: SimTime) -> bool {
        self.plan.rules.iter().any(|r| {
            matches!(
                (r.scope, r.kind),
                (FaultScope::Node(n), FaultKind::Crash { at_ps })
                    if n == node && at_ps <= now.as_ps()
            )
        })
    }

    /// Discard accumulated channel state and the log, rewinding the
    /// injector to its initial (fresh-seed) state for a replay.
    pub fn reset(&mut self) {
        self.rng = SplitMix64::new(self.plan.seed);
        self.ge_bad.clear();
        self.log.clear();
    }

    /// Judge one transfer crossing `route` from `src` to `dst` at
    /// `now`. Rules are evaluated in plan order for each link along the
    /// route; the first drop wins, and corruption applies only if
    /// nothing dropped the transfer.
    pub fn judge(&mut self, now: SimTime, src: u32, dst: u32, route: &[LinkId]) -> FaultVerdict {
        // Node crashes dominate: a dead endpoint loses everything.
        for node in [src, dst] {
            if self.node_crashed(node, now) {
                note_fault(
                    &self.obs,
                    &mut self.log,
                    FaultEvent {
                        at_ps: now.as_ps(),
                        src,
                        dst,
                        link: u32::MAX,
                        action: FaultAction::Drop(DropCause::NodeCrash),
                    },
                );
                return FaultVerdict::Drop(DropCause::NodeCrash);
            }
        }
        let mut corrupted = false;
        for link in route {
            let link = link.0;
            for (ri, rule) in self.plan.rules.iter().enumerate() {
                if !rule.scope.matches_link(link, src, dst) {
                    continue;
                }
                let dropped = match rule.kind {
                    FaultKind::UniformDrop { prob } => {
                        self.rng.chance(prob).then_some(DropCause::Uniform)
                    }
                    FaultKind::GilbertElliott {
                        p_good_bad,
                        p_bad_good,
                        drop_good,
                        drop_bad,
                    } => {
                        let bad = self.ge_bad.entry((ri, link)).or_insert(false);
                        let flip = self.rng.chance(if *bad { p_bad_good } else { p_good_bad });
                        if flip {
                            *bad = !*bad;
                        }
                        let p = if *bad { drop_bad } else { drop_good };
                        self.rng.chance(p).then_some(DropCause::Burst)
                    }
                    FaultKind::Corrupt { prob } => {
                        if self.rng.chance(prob) {
                            corrupted = true;
                        }
                        None
                    }
                    FaultKind::Flap { first_down_ps, down_ps, up_ps } => {
                        let t = now.as_ps();
                        let period = down_ps + up_ps;
                        let down = t >= first_down_ps
                            && period > 0
                            && (t - first_down_ps) % period < down_ps;
                        down.then_some(DropCause::LinkDown)
                    }
                    // Crash handled above (scope is the node, not a link).
                    FaultKind::Crash { .. } => None,
                };
                if let Some(cause) = dropped {
                    note_fault(
                        &self.obs,
                        &mut self.log,
                        FaultEvent {
                            at_ps: now.as_ps(),
                            src,
                            dst,
                            link,
                            action: FaultAction::Drop(cause),
                        },
                    );
                    return FaultVerdict::Drop(cause);
                }
            }
        }
        if corrupted {
            // Attribute the corruption to the first link of the route
            // (the log needs one; the payload is equally damaged
            // wherever it happened).
            note_fault(
                &self.obs,
                &mut self.log,
                FaultEvent {
                    at_ps: now.as_ps(),
                    src,
                    dst,
                    link: route.first().map_or(u32::MAX, |l| l.0),
                    action: FaultAction::Corrupt,
                },
            );
            return FaultVerdict::DeliverCorrupted;
        }
        FaultVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u32]) -> Vec<LinkId> {
        ids.iter().map(|&i| LinkId(i)).collect()
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::new(7)
            .uniform_drop(0.1)
            .burst_drop(0.05, 0.5, 0.001, 0.8)
            .corrupt(0.02)
            .flap_link(3, SimTime(1_000), 500, 1500)
            .crash_node(2, SimTime(9_999));
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn same_plan_same_traffic_identical_log() {
        let plan = FaultPlan::new(11).uniform_drop(0.3).corrupt(0.1);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..500u64 {
            let t = SimTime(i * 1_000);
            let va = a.judge(t, 0, 1, &route(&[0, 1]));
            let vb = b.judge(t, 0, 1, &route(&[0, 1]));
            assert_eq!(va, vb);
        }
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty());
    }

    #[test]
    fn reset_rewinds_to_initial_state() {
        let plan = FaultPlan::new(5).burst_drop(0.2, 0.2, 0.01, 0.9);
        let mut inj = FaultInjector::new(plan);
        let first: Vec<FaultVerdict> =
            (0..200).map(|i| inj.judge(SimTime(i), 0, 1, &route(&[0]))).collect();
        let log1 = inj.log().to_vec();
        inj.reset();
        let second: Vec<FaultVerdict> =
            (0..200).map(|i| inj.judge(SimTime(i), 0, 1, &route(&[0]))).collect();
        assert_eq!(first, second);
        assert_eq!(log1, inj.log());
    }

    #[test]
    fn crash_kills_traffic_in_both_directions_after_deadline() {
        let plan = FaultPlan::new(1).crash_node(2, SimTime(1_000));
        let mut inj = FaultInjector::new(plan);
        let r = route(&[0]);
        assert_eq!(inj.judge(SimTime(999), 0, 2, &r), FaultVerdict::Deliver);
        assert_eq!(
            inj.judge(SimTime(1_000), 0, 2, &r),
            FaultVerdict::Drop(DropCause::NodeCrash)
        );
        assert_eq!(
            inj.judge(SimTime(2_000), 2, 0, &r),
            FaultVerdict::Drop(DropCause::NodeCrash)
        );
        // Unrelated traffic is untouched.
        assert_eq!(inj.judge(SimTime(2_000), 0, 1, &r), FaultVerdict::Deliver);
        assert!(inj.node_crashed(2, SimTime(1_000)));
        assert!(!inj.node_crashed(2, SimTime(999)));
    }

    #[test]
    fn flap_windows_gate_exactly() {
        // Down at [100, 150), up at [150, 250), repeating every 150.
        let plan = FaultPlan::new(1).flap_link(4, SimTime(100), 50, 100);
        let mut inj = FaultInjector::new(plan);
        let r = route(&[4]);
        assert_eq!(inj.judge(SimTime(99), 0, 1, &r), FaultVerdict::Deliver);
        assert_eq!(
            inj.judge(SimTime(100), 0, 1, &r),
            FaultVerdict::Drop(DropCause::LinkDown)
        );
        assert_eq!(
            inj.judge(SimTime(149), 0, 1, &r),
            FaultVerdict::Drop(DropCause::LinkDown)
        );
        assert_eq!(inj.judge(SimTime(150), 0, 1, &r), FaultVerdict::Deliver);
        assert_eq!(inj.judge(SimTime(249), 0, 1, &r), FaultVerdict::Deliver);
        // Second outage window.
        assert_eq!(
            inj.judge(SimTime(250), 0, 1, &r),
            FaultVerdict::Drop(DropCause::LinkDown)
        );
        // A different link is unaffected.
        assert_eq!(inj.judge(SimTime(100), 0, 1, &route(&[5])), FaultVerdict::Deliver);
    }

    #[test]
    fn gilbert_elliott_bursts_cluster_losses() {
        // Rarely enter the bad state, but once there, drop nearly
        // everything and stay a while: losses should arrive in runs.
        let plan = FaultPlan::new(99).burst_drop(0.02, 0.2, 0.0, 0.95);
        let mut inj = FaultInjector::new(plan);
        let r = route(&[0]);
        let drops: Vec<bool> = (0..4000u64)
            .map(|i| {
                matches!(
                    inj.judge(SimTime(i * 10), 0, 1, &r),
                    FaultVerdict::Drop(DropCause::Burst)
                )
            })
            .collect();
        let total: usize = drops.iter().filter(|&&d| d).count();
        assert!(total > 50, "burst model should drop packets, got {total}");
        // Count runs of consecutive drops; bursty loss means the mean
        // run length is well above 1 (i.i.d. at the same rate gives
        // mean run length ~1/(1-p) which is near 1 for small p).
        let mut runs = 0usize;
        let mut prev = false;
        for &d in &drops {
            if d && !prev {
                runs += 1;
            }
            prev = d;
        }
        let mean_run = total as f64 / runs as f64;
        assert!(mean_run > 2.0, "expected bursty runs, mean run = {mean_run}");
    }

    #[test]
    fn node_scoped_plan_introspection() {
        let plan = FaultPlan::new(2)
            .crash_node(7, SimTime(5_000))
            .crash_node(7, SimTime(3_000))
            .flap_node(9, SimTime(100), 50, 150)
            .degrade_node(11, 0.02, 0.2, 0.0, 0.9)
            .uniform_drop(0.01);
        assert_eq!(plan.disturbed_nodes(), vec![7, 9, 11]);
        // The AllLinks rule is not attributed to any node.
        assert!(!plan.disturbed_nodes().contains(&u32::MAX));
    }

    #[test]
    fn node_flap_and_degrade_judge_like_their_link_kin() {
        let plan = FaultPlan::new(4).flap_node(2, SimTime(100), 50, 100);
        let mut inj = FaultInjector::new(plan);
        let r = route(&[0]);
        // Transfers touching node 2 are gated by the flap window...
        assert_eq!(
            inj.judge(SimTime(120), 0, 2, &r),
            FaultVerdict::Drop(DropCause::LinkDown)
        );
        assert_eq!(inj.judge(SimTime(160), 2, 0, &r), FaultVerdict::Deliver);
        // ...while unrelated pairs pass untouched.
        assert_eq!(inj.judge(SimTime(120), 0, 1, &r), FaultVerdict::Deliver);
    }

    #[test]
    fn corruption_delivers_but_flags() {
        let plan = FaultPlan::new(3).corrupt(1.0);
        let mut inj = FaultInjector::new(plan);
        let v = inj.judge(SimTime(0), 0, 1, &route(&[0]));
        assert_eq!(v, FaultVerdict::DeliverCorrupted);
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].action, FaultAction::Corrupt);
    }

    #[test]
    fn drop_beats_corruption_when_both_fire() {
        let plan = FaultPlan::new(3).corrupt(1.0).uniform_drop(1.0);
        let mut inj = FaultInjector::new(plan);
        // Corrupt rule is first, but a later drop still loses the
        // transfer entirely (one event logged: the drop).
        let v = inj.judge(SimTime(0), 0, 1, &route(&[0]));
        assert_eq!(v, FaultVerdict::Drop(DropCause::Uniform));
    }
}
