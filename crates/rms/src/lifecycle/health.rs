//! Fused per-node health verdicts: heartbeat silence + NIC/link fault
//! signals.
//!
//! The heartbeat timeout ([`HEARTBEAT_TIMEOUT`]) answers "how long
//! after the last heartbeat do we declare death?"; the chaos
//! fabric surfaces link-level symptoms (carrier loss during a flap
//! window, error completions from a bursty channel) well before a full
//! heartbeat timeout. The aggregator fuses both streams into one of
//! three verdicts per node:
//!
//! * [`HealthVerdict::Failed`] — heartbeat silence past the detector
//!   timeout (`HEARTBEAT_PERIOD × MISSED_THRESHOLD`): treat as fail-stop.
//! * [`HealthVerdict::Suspect`] — at least one missed heartbeat, or
//!   NIC/link faults at or above the threshold inside the sliding
//!   window: drain, don't evict.
//! * [`HealthVerdict::Ok`] — heartbeats arriving, link quiet.
//!
//! Nodes never registered with the aggregator are reported `Ok`: the
//! fleet simulation only materializes heartbeat streams for disturbed
//! nodes, and an unregistered node is by construction undisturbed.

use polaris_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// The fused health verdict for one node at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    Ok,
    Suspect,
    Failed,
}

/// Expected heartbeat period.
pub(crate) const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Consecutive missed periods before `Failed`.
const MISSED_THRESHOLD: u64 = 3;

/// Silence span after which a node is `Failed`:
/// `HEARTBEAT_PERIOD × MISSED_THRESHOLD` after the last arrival.
pub const HEARTBEAT_TIMEOUT: SimDuration =
    SimDuration::from_ps(HEARTBEAT_PERIOD.as_ps() * MISSED_THRESHOLD);

/// Silence span after which a node is at least `Suspect`: one full
/// period with slack for arrival jitter.
const SUSPECT_AFTER: SimDuration = SimDuration::from_ps(HEARTBEAT_PERIOD.as_ps() * 2);

/// Sliding window over which link faults are counted.
const LINK_FAULT_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Link faults within the window to report `Suspect`.
const LINK_FAULT_THRESHOLD: u32 = 3;

#[derive(Debug, Clone)]
struct NodeHealth {
    last_beat: SimTime,
    /// Recent link-fault timestamps, pruned to the window on insert.
    faults: VecDeque<SimTime>,
}

/// Per-node health state: last heartbeat arrival plus a sliding window
/// of link-fault signals. Keyed by a `BTreeMap` so iteration over
/// registered nodes is deterministic (the reconcile loop depends on
/// this for bit-identical replays).
#[derive(Debug, Clone, Default)]
pub struct HealthAggregator {
    nodes: BTreeMap<u32, NodeHealth>,
}

impl HealthAggregator {
    /// Start tracking `node`, treating `now` as a baseline heartbeat.
    pub fn register(&mut self, node: u32, now: SimTime) {
        self.nodes
            .entry(node)
            .or_insert(NodeHealth { last_beat: now, faults: VecDeque::new() });
    }

    /// Record a heartbeat arrival.
    pub fn note_heartbeat(&mut self, node: u32, at: SimTime) {
        let rec = self
            .nodes
            .entry(node)
            .or_insert(NodeHealth { last_beat: at, faults: VecDeque::new() });
        rec.last_beat = rec.last_beat.max(at);
    }

    /// Record a NIC/link fault signal (carrier loss, error completion).
    pub fn note_link_fault(&mut self, node: u32, at: SimTime) {
        let rec = self
            .nodes
            .entry(node)
            .or_insert(NodeHealth { last_beat: at, faults: VecDeque::new() });
        rec.faults.push_back(at);
        let horizon = at.as_ps().saturating_sub(LINK_FAULT_WINDOW.as_ps());
        while rec.faults.front().is_some_and(|t| t.as_ps() < horizon) {
            rec.faults.pop_front();
        }
    }

    /// Link faults inside the window ending at `now`.
    fn recent_faults(&self, node: u32, now: SimTime) -> u32 {
        let Some(rec) = self.nodes.get(&node) else { return 0 };
        let horizon = now.as_ps().saturating_sub(LINK_FAULT_WINDOW.as_ps());
        rec.faults.iter().filter(|t| t.as_ps() >= horizon && t.as_ps() <= now.as_ps()).count()
            as u32
    }

    /// The fused verdict for `node` at `now`. Unregistered nodes are
    /// `Ok` (undisturbed by construction; see module docs).
    pub fn verdict(&self, node: u32, now: SimTime) -> HealthVerdict {
        let Some(rec) = self.nodes.get(&node) else {
            return HealthVerdict::Ok;
        };
        let silence = now.since(rec.last_beat);
        if silence >= HEARTBEAT_TIMEOUT {
            return HealthVerdict::Failed;
        }
        if silence >= SUSPECT_AFTER
            || self.recent_faults(node, now) >= LINK_FAULT_THRESHOLD
        {
            return HealthVerdict::Suspect;
        }
        HealthVerdict::Ok
    }

    /// Registered nodes, in ascending id order (deterministic).
    pub fn registered(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg() -> HealthAggregator {
        HealthAggregator::default()
    }

    fn secs(s: u64) -> SimTime {
        SimTime(s * polaris_simnet::time::PS_PER_SEC)
    }

    #[test]
    fn unregistered_nodes_are_ok() {
        let a = agg();
        assert_eq!(a.verdict(7, secs(1_000)), HealthVerdict::Ok);
    }

    #[test]
    fn silence_escalates_suspect_then_failed() {
        let mut a = agg();
        a.register(1, secs(0));
        assert_eq!(a.verdict(1, secs(10)), HealthVerdict::Ok);
        // ≥ 2 periods of silence: suspect.
        assert_eq!(a.verdict(1, secs(20)), HealthVerdict::Suspect);
        // ≥ MISSED_THRESHOLD periods: failed.
        assert_eq!(a.verdict(1, secs(30)), HealthVerdict::Failed);
        // A heartbeat recovers the verdict completely.
        a.note_heartbeat(1, secs(31));
        assert_eq!(a.verdict(1, secs(35)), HealthVerdict::Ok);
    }

    #[test]
    fn link_faults_alone_reach_suspect_not_failed() {
        let mut a = agg();
        a.register(2, secs(0));
        for i in 0..3 {
            a.note_heartbeat(2, secs(10 * i + 5));
            a.note_link_fault(2, secs(10 * i + 6));
        }
        let now = secs(30);
        a.note_heartbeat(2, now);
        assert_eq!(a.recent_faults(2, now), 3);
        assert_eq!(a.verdict(2, now), HealthVerdict::Suspect);
    }

    #[test]
    fn link_faults_age_out_of_the_window() {
        let mut a = agg();
        a.register(3, secs(0));
        a.note_link_fault(3, secs(1));
        a.note_link_fault(3, secs(2));
        a.note_link_fault(3, secs(3));
        a.note_heartbeat(3, secs(100));
        // 97+ seconds later, all three faults left the 60s window.
        assert_eq!(a.recent_faults(3, secs(100)), 0);
        assert_eq!(a.verdict(3, secs(100)), HealthVerdict::Ok);
    }
}
