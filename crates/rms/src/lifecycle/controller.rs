//! The reconciling lifecycle controller.
//!
//! The controller owns the authoritative per-node state and nothing
//! else: time, heartbeats, and job placement live in the caller (the
//! fleet simulation, or a future live agent). Each reconcile pass the
//! caller feeds it observations — operation completions, operation
//! timeouts, fused health verdicts — and the controller answers with
//! the operations to start next, having already queued every state
//! transition for the caller to drain.
//!
//! Control discipline, in the style of explicit state-transition
//! tables:
//!
//! * **Every transition is an edge** of [`NodeState::EDGES`]
//!   (debug-asserted at the single `transition` choke point, re-audited
//!   from the fleet's audit stream by the sentinel ledger).
//! * **Guard conditions**: `Validate → Healthy` requires an `Ok` fused
//!   verdict at validation completion; anything else retries.
//! * **Bounded retries with backoff + jitter**: failed validations
//!   retry up to `max_validate_retries` times, each delayed by an
//!   exponentially growing, deterministically jittered backoff, then
//!   escalate to `Breakfix`.
//! * **Timeout escalation**: node-side operations (`Provision`,
//!   `Reboot`) carry a deadline; if the completion never arrives (the
//!   node is dead), the timeout fires and the node escalates to
//!   `Breakfix`.
//! * **Repair budget**: every `Breakfix` entry consumes one repair; an
//!   exhausted budget transitions straight to `Reclaim`, which bounds
//!   the life of even a permanently flapping node and guarantees the
//!   fleet converges.
//!
//! Operations are fenced by per-node **epochs**: starting an operation
//! bumps the node's epoch, and completions/timeouts carrying a stale
//! epoch are ignored. This is what makes the controller safe against
//! the crossed-in-flight races a discrete-event (or real) cluster
//! produces — e.g. an operation completion arriving after the timeout
//! path already escalated.

use super::state::NodeState;
use super::HealthVerdict;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The operations the controller can ask the platform to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Image + configure (node-side: needs the node alive to finish).
    Provision,
    /// Burn-in / conformance checks (control-side: always completes;
    /// the health guard decides what the result means).
    Validate,
    /// Repair action (control-side: a technician or automation).
    Breakfix,
    /// Power cycle (node-side: a dead node never comes back).
    Reboot,
}

impl OpKind {
    /// Node-side operations can hang forever on a dead node; only they
    /// carry a timeout deadline.
    pub fn node_side(self) -> bool {
        matches!(self, OpKind::Provision | OpKind::Reboot)
    }
}

/// An operation the caller must schedule: complete it after `delay`
/// (calling [`Controller::op_done`]), and — when `timeout` is set —
/// fire [`Controller::op_timeout`] after `timeout` unless the
/// completion arrived first (the epoch fence makes the stale one a
/// no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedOp {
    pub node: u32,
    pub epoch: u32,
    pub kind: OpKind,
    pub delay: SimDuration,
    pub timeout: Option<SimDuration>,
}

/// One audited state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    pub at_ps: u64,
    pub node: u32,
    pub from: NodeState,
    pub to: NodeState,
}

/// Controller tuning. Times are simulated durations; the defaults are
/// sized for fleet-scale experiments (minutes-scale repair, hour-scale
/// horizons).
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Mean provisioning time.
    pub provision_time: SimDuration,
    /// Validation (burn-in) run time.
    pub validate_time: SimDuration,
    /// Repair service time per `Breakfix` visit.
    pub breakfix_time: SimDuration,
    /// Power-cycle time.
    pub reboot_time: SimDuration,
    /// Node-side operation deadline = duration × this multiplier.
    pub op_timeout_mult: u64,
    /// Failed validations before escalating to `Breakfix`.
    pub max_validate_retries: u32,
    /// `Breakfix` visits before the node is `Reclaim`ed.
    pub repair_budget: u32,
    /// How long a `Degraded` node may drain before forced repair.
    pub drain_timeout: SimDuration,
    /// First retry backoff; doubles per retry.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_max: SimDuration,
    /// Jitter applied to every operation delay, in permille of the
    /// nominal duration (deterministic, seeded).
    pub jitter_pm: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            provision_time: SimDuration::from_secs(60),
            validate_time: SimDuration::from_secs(15),
            breakfix_time: SimDuration::from_secs(300),
            reboot_time: SimDuration::from_secs(120),
            op_timeout_mult: 3,
            max_validate_retries: 2,
            repair_budget: 2,
            drain_timeout: SimDuration::from_secs(180),
            backoff_base: SimDuration::from_secs(10),
            backoff_max: SimDuration::from_secs(120),
            jitter_pm: 200,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeRec {
    state: NodeState,
    /// Bumped on every operation start; fences stale events.
    epoch: u32,
    in_op: Option<OpKind>,
    validate_retries: u32,
    repairs: u32,
    /// When a `Degraded` node still suspect is forced to repair;
    /// `SimTime::MAX` when it is not draining.
    drain_deadline: SimTime,
}

// F12 keeps one per node of a 100 k-node fleet.
const _: () = assert!(std::mem::size_of::<NodeRec>() == 24);

/// The reconciling controller: dense per-node records, the transitions
/// the caller has not drained yet, and one seeded jitter stream.
/// Deterministic given a deterministic caller.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    nodes: Vec<NodeRec>,
    /// Oldest first; a drained transition is gone (the caller keeps
    /// what it audits).
    pending: VecDeque<TransitionRecord>,
    rng: SplitMix64,
}

impl Controller {
    pub fn new(cfg: ControllerConfig, fleet: u32, seed: u64) -> Self {
        Controller {
            cfg,
            nodes: vec![
                NodeRec {
                    state: NodeState::Provision,
                    epoch: 0,
                    in_op: None,
                    validate_retries: 0,
                    repairs: 0,
                    drain_deadline: SimTime::MAX,
                };
                fleet as usize
            ],
            pending: VecDeque::new(),
            rng: SplitMix64::new(seed ^ 0x6C69_6665_6379_636C), // "lifecycl"
        }
    }

    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    pub fn state(&self, node: u32) -> NodeState {
        self.nodes[node as usize].state
    }

    /// The operation in flight for `node` under `epoch`, if the epoch
    /// is current (stale epochs answer `None`).
    pub fn pending_op(&self, node: u32, epoch: u32) -> Option<OpKind> {
        let rec = &self.nodes[node as usize];
        if rec.epoch == epoch {
            rec.in_op
        } else {
            None
        }
    }

    /// Node count per state, indexed by [`NodeState::index`].
    pub fn census(&self) -> [u32; 7] {
        let mut c = [0u32; 7];
        for rec in &self.nodes {
            c[rec.state.index()] += 1;
        }
        c
    }

    /// True when every node is settled (Healthy or Reclaim) with no
    /// operation in flight — the fleet's convergence predicate.
    pub fn all_settled(&self) -> bool {
        self.nodes.iter().all(|r| r.state.settled() && r.in_op.is_none())
    }

    /// Take the oldest transition not yet taken (the caller mirrors each
    /// into occupancy/audit/metrics).
    pub fn next_transition(&mut self) -> Option<TransitionRecord> {
        self.pending.pop_front()
    }

    /// Jittered duration: `d ± jitter_pm‰`, deterministic.
    fn jittered(&mut self, d: SimDuration) -> SimDuration {
        let j = self.cfg.jitter_pm as u64;
        if j == 0 || d.as_ps() == 0 {
            return d;
        }
        let span = 2 * j + 1;
        let factor = 1000 - j + self.rng.next_below(span);
        SimDuration::from_ps((d.as_ps() as u128 * factor as u128 / 1000) as u64)
    }

    /// Exponential backoff for retry `attempt` (1-based), capped.
    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let exp = self.cfg.backoff_base.as_ps().saturating_shl(attempt.saturating_sub(1));
        let capped = exp.min(self.cfg.backoff_max.as_ps());
        self.jittered(SimDuration::from_ps(capped))
    }

    /// The single transition choke point: asserts the edge, queues the
    /// record.
    fn transition(&mut self, now: SimTime, node: u32, to: NodeState) {
        let rec = &mut self.nodes[node as usize];
        let from = rec.state;
        debug_assert!(
            NodeState::is_edge(from, to),
            "illegal transition {from:?} -> {to:?} for node {node}"
        );
        rec.state = to;
        self.pending.push_back(TransitionRecord { at_ps: now.as_ps(), node, from, to });
    }

    /// Start `kind` on `node` after an extra `extra_delay` (backoff),
    /// bumping the epoch fence.
    fn start_op(&mut self, node: u32, kind: OpKind, extra_delay: SimDuration) -> StartedOp {
        let nominal = match kind {
            OpKind::Provision => self.cfg.provision_time,
            OpKind::Validate => self.cfg.validate_time,
            OpKind::Breakfix => self.cfg.breakfix_time,
            OpKind::Reboot => self.cfg.reboot_time,
        };
        let delay = self.jittered(nominal) + extra_delay;
        let timeout = kind
            .node_side()
            .then(|| delay.saturating_mul(self.cfg.op_timeout_mult.max(2)));
        let rec = &mut self.nodes[node as usize];
        rec.epoch = rec.epoch.wrapping_add(1);
        rec.in_op = Some(kind);
        StartedOp { node, epoch: rec.epoch, kind, delay, timeout }
    }

    /// Enter `Breakfix` (evicting the node from service), or `Reclaim`
    /// if the repair budget is spent. At most one repair op results.
    fn enter_breakfix(&mut self, now: SimTime, node: u32) -> Option<StartedOp> {
        self.nodes[node as usize].in_op = None;
        self.nodes[node as usize].drain_deadline = SimTime::MAX;
        self.transition(now, node, NodeState::Breakfix);
        let repairs = {
            let rec = &mut self.nodes[node as usize];
            rec.repairs += 1;
            rec.repairs
        };
        if repairs > self.cfg.repair_budget {
            self.transition(now, node, NodeState::Reclaim);
            return None;
        }
        // Later repair rounds back off before the technician re-tries.
        let delay = if repairs > 1 { self.backoff(repairs - 1) } else { SimDuration::ZERO };
        Some(self.start_op(node, OpKind::Breakfix, delay))
    }

    /// Start provisioning `node`, the first operation of its life
    /// (staggered by jitter). No transition is queued.
    pub fn provision(&mut self, node: u32) -> StartedOp {
        self.start_op(node, OpKind::Provision, SimDuration::ZERO)
    }

    /// An operation completed. `verdict` is the node's fused health
    /// verdict at completion time (the `Validate → Healthy` guard).
    /// Returns the follow-up operation, if one starts.
    pub fn op_done(
        &mut self,
        now: SimTime,
        node: u32,
        epoch: u32,
        verdict: HealthVerdict,
    ) -> Option<StartedOp> {
        // A stale epoch: a newer decision superseded this op.
        let kind = self.pending_op(node, epoch)?;
        self.nodes[node as usize].in_op = None;
        match kind {
            OpKind::Provision => {
                self.transition(now, node, NodeState::Validate);
                self.nodes[node as usize].validate_retries = 0;
                Some(self.start_op(node, OpKind::Validate, SimDuration::ZERO))
            }
            OpKind::Validate => {
                if verdict == HealthVerdict::Ok {
                    self.transition(now, node, NodeState::Healthy);
                    self.nodes[node as usize].validate_retries = 0;
                    return None;
                }
                let retries = {
                    let rec = &mut self.nodes[node as usize];
                    rec.validate_retries += 1;
                    rec.validate_retries
                };
                if retries > self.cfg.max_validate_retries {
                    self.enter_breakfix(now, node)
                } else {
                    let delay = self.backoff(retries);
                    Some(self.start_op(node, OpKind::Validate, delay))
                }
            }
            OpKind::Breakfix => {
                self.transition(now, node, NodeState::Reboot);
                Some(self.start_op(node, OpKind::Reboot, SimDuration::ZERO))
            }
            OpKind::Reboot => {
                self.transition(now, node, NodeState::Validate);
                self.nodes[node as usize].validate_retries = 0;
                Some(self.start_op(node, OpKind::Validate, SimDuration::ZERO))
            }
        }
    }

    /// A node-side operation's deadline passed without completion:
    /// escalate to `Breakfix` (stuck `Reboot` → `Breakfix`, stuck
    /// `Provision` → `Breakfix`).
    pub fn op_timeout(&mut self, now: SimTime, node: u32, epoch: u32) -> Option<StartedOp> {
        // Completed (or superseded) before the deadline.
        let kind = self.pending_op(node, epoch)?;
        if kind.node_side() {
            self.enter_breakfix(now, node)
        } else {
            None
        }
    }

    /// Reconcile one node against its observed health verdict. Only
    /// meaningful for nodes at rest (`Healthy`/`Degraded`); nodes with
    /// an operation in flight are left to the operation's own guard.
    pub fn observe(&mut self, now: SimTime, node: u32, verdict: HealthVerdict) -> Option<StartedOp> {
        let rec = &self.nodes[node as usize];
        if rec.in_op.is_some() {
            return None;
        }
        match (rec.state, verdict) {
            (NodeState::Healthy, HealthVerdict::Failed) => self.enter_breakfix(now, node),
            (NodeState::Healthy, HealthVerdict::Suspect) => {
                self.transition(now, node, NodeState::Degraded);
                self.nodes[node as usize].drain_deadline = now + self.cfg.drain_timeout;
                None
            }
            (NodeState::Degraded, HealthVerdict::Ok) => {
                self.transition(now, node, NodeState::Healthy);
                self.nodes[node as usize].drain_deadline = SimTime::MAX;
                None
            }
            (NodeState::Degraded, HealthVerdict::Failed) => self.enter_breakfix(now, node),
            (NodeState::Degraded, HealthVerdict::Suspect)
                // Still suspect at the drain deadline: force repair.
                if now >= self.nodes[node as usize].drain_deadline => {
                    self.enter_breakfix(now, node)
                }
            _ => None,
        }
    }
}

/// `u64::saturating_shl` does not exist; shifting past 63 saturates.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            0
        } else if rhs >= 63 || self.leading_zeros() < rhs {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(fleet: u32) -> Controller {
        Controller::new(ControllerConfig::default(), fleet, 7)
    }

    fn secs(s: u64) -> SimTime {
        SimTime(s * polaris_simnet::time::PS_PER_SEC)
    }

    /// Every transition not yet taken, oldest first.
    fn drain(c: &mut Controller) -> Vec<TransitionRecord> {
        std::iter::from_fn(|| c.next_transition()).collect()
    }

    /// Walk one node Provision → Validate → Healthy by completing its
    /// operations with Ok verdicts.
    fn to_healthy(c: &mut Controller, node: u32, ops: &mut Vec<StartedOp>, now: &mut SimTime) {
        while c.state(node) != NodeState::Healthy {
            let op = ops.iter().position(|o| o.node == node).expect("op pending");
            let op = ops.remove(op);
            *now += op.delay;
            ops.extend(c.op_done(*now, node, op.epoch, HealthVerdict::Ok));
        }
    }

    #[test]
    fn happy_path_reaches_healthy() {
        let mut c = ctl(3);
        let mut ops: Vec<_> = (0..3).map(|n| c.provision(n)).collect();
        assert_eq!(ops.len(), 3);
        let mut now = SimTime::ZERO;
        for n in 0..3 {
            to_healthy(&mut c, n, &mut ops, &mut now);
        }
        assert_eq!(c.census()[NodeState::Healthy.index()], 3);
        assert!(c.all_settled());
        // The drained transitions show exactly the expected chain per node.
        let log = drain(&mut c);
        for n in 0..3 {
            let chain: Vec<_> =
                log.iter().filter(|t| t.node == n).map(|t| (t.from, t.to)).collect();
            assert_eq!(
                chain,
                vec![
                    (NodeState::Provision, NodeState::Validate),
                    (NodeState::Validate, NodeState::Healthy)
                ]
            );
        }
    }

    #[test]
    fn every_logged_transition_is_an_edge() {
        let mut c = ctl(2);
        let mut ops: Vec<_> = (0..2).map(|n| c.provision(n)).collect();
        let mut now = SimTime::ZERO;
        // Node 0 validates fine; node 1 fails validation forever and is
        // eventually reclaimed.
        to_healthy(&mut c, 0, &mut ops, &mut now);
        while c.state(1) != NodeState::Reclaim {
            let op = ops.iter().position(|o| o.node == 1).expect("op pending");
            let op = ops.remove(op);
            now += op.delay;
            let verdict = if op.kind == OpKind::Validate {
                HealthVerdict::Failed
            } else {
                HealthVerdict::Ok
            };
            ops.extend(c.op_done(now, 1, op.epoch, verdict));
        }
        for t in drain(&mut c) {
            assert!(NodeState::is_edge(t.from, t.to), "{t:?}");
        }
        assert!(c.all_settled());
    }

    #[test]
    fn stale_epochs_are_fenced() {
        let mut c = ctl(1);
        let first = c.provision(0);
        // Completion consumes the epoch; a duplicate is a no-op.
        let next = c.op_done(secs(60), 0, first.epoch, HealthVerdict::Ok);
        assert_eq!(c.state(0), NodeState::Validate);
        assert!(c.op_done(secs(61), 0, first.epoch, HealthVerdict::Ok).is_none());
        assert_eq!(c.state(0), NodeState::Validate);
        // A timeout for the already-completed provision is also fenced.
        assert!(c.op_timeout(secs(200), 0, first.epoch).is_none());
        assert_eq!(c.state(0), NodeState::Validate);
        let _ = next;
    }

    #[test]
    fn stuck_reboot_escalates_to_breakfix() {
        let mut c = ctl(1);
        let mut ops = vec![c.provision(0)];
        let mut now = SimTime::ZERO;
        to_healthy(&mut c, 0, &mut ops, &mut now);
        // Fail it into breakfix → reboot.
        ops.extend(c.observe(now, 0, HealthVerdict::Failed));
        assert_eq!(c.state(0), NodeState::Breakfix);
        let fix = ops.pop().expect("breakfix op");
        assert_eq!(fix.kind, OpKind::Breakfix);
        now += fix.delay;
        ops.extend(c.op_done(now, 0, fix.epoch, HealthVerdict::Failed));
        assert_eq!(c.state(0), NodeState::Reboot);
        let reboot = ops.pop().expect("reboot op");
        assert_eq!(reboot.kind, OpKind::Reboot);
        let deadline = reboot.timeout.expect("node-side ops carry timeouts");
        assert!(deadline >= reboot.delay.saturating_mul(2));
        // The node never comes back: the reboot timeout escalates to a
        // second breakfix (budget 2 still allows it)...
        now += deadline;
        ops.extend(c.op_timeout(now, 0, reboot.epoch));
        assert_eq!(c.state(0), NodeState::Breakfix);
        // ...and after the second repair round's reboot also hangs, the
        // third breakfix entry exhausts the budget → Reclaim.
        while c.state(0) != NodeState::Reclaim {
            let op = ops.pop().expect("op pending");
            now += op.delay;
            match op.timeout {
                Some(t) if op.kind == OpKind::Reboot => {
                    now += t;
                    ops.extend(c.op_timeout(now, 0, op.epoch));
                }
                _ => ops.extend(c.op_done(now, 0, op.epoch, HealthVerdict::Ok)),
            }
        }
        assert!(c.all_settled());
    }

    #[test]
    fn degraded_drains_then_recovers_or_escalates() {
        let mut c = ctl(2);
        let mut ops: Vec<_> = (0..2).map(|n| c.provision(n)).collect();
        let mut now = SimTime::ZERO;
        to_healthy(&mut c, 0, &mut ops, &mut now);
        to_healthy(&mut c, 1, &mut ops, &mut now);
        // Suspect drains both.
        c.observe(now, 0, HealthVerdict::Suspect);
        c.observe(now, 1, HealthVerdict::Suspect);
        assert_eq!(c.state(0), NodeState::Degraded);
        // Node 0 recovers.
        c.observe(now + SimDuration::from_secs(30), 0, HealthVerdict::Ok);
        assert_eq!(c.state(0), NodeState::Healthy);
        // Node 1 stays suspect past the drain deadline → breakfix.
        let later = now + ControllerConfig::default().drain_timeout;
        c.observe(now + SimDuration::from_secs(30), 1, HealthVerdict::Suspect);
        assert_eq!(c.state(1), NodeState::Degraded, "deadline not reached yet");
        c.observe(later, 1, HealthVerdict::Suspect);
        assert_eq!(c.state(1), NodeState::Breakfix);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let mut c = ctl(1);
        let base = c.cfg.backoff_base.as_ps() as f64;
        let b1 = c.backoff(1).as_ps() as f64;
        let b3 = c.backoff(3).as_ps() as f64;
        let cap = c.cfg.backoff_max.as_ps() as f64;
        assert!(b1 >= base * 0.7 && b1 <= base * 1.3, "jitter stays within ±30%");
        assert!(b3 > b1, "backoff grows");
        assert!(c.backoff(40).as_ps() as f64 <= cap * 1.3, "capped");
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = ctl(4);
            let mut ops: Vec<_> = (0..4).map(|n| c.provision(n)).collect();
            let mut now = SimTime::ZERO;
            for n in 0..4 {
                to_healthy(&mut c, n, &mut ops, &mut now);
            }
            c.observe(now, 2, HealthVerdict::Failed);
            drain(&mut c)
        };
        assert_eq!(run(), run());
    }

    /// A drained transition is the caller's: once every one is taken,
    /// the controller holds none.
    #[test]
    fn drained_transitions_are_not_kept() {
        let mut c = ctl(64);
        let mut ops: Vec<_> = (0..64).map(|n| c.provision(n)).collect();
        let mut now = SimTime::ZERO;
        for n in 0..64 {
            to_healthy(&mut c, n, &mut ops, &mut now);
        }
        assert_eq!(drain(&mut c).len(), 2 * 64);
        assert!(c.pending.is_empty());
    }
}
