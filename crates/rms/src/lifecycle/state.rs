//! The lifecycle state graph: states, the explicit edge table, and the
//! predicates the rest of the control plane (and the sentinel ledger)
//! builds on.
//!
//! The graph is data, not code: [`NodeState::EDGES`] is the single
//! source of truth for which transitions are legal, the controller
//! debug-asserts every transition against it, and the sentinel
//! lifecycle-conservation audit replays event logs against the same
//! table — so an illegal transition cannot hide in a code path.


/// One node's lifecycle state. Exactly one state per node at every
/// instant — the controller stores states densely and transitions are
/// atomic log records, which is what the conservation ledger checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeState {
    /// Being imaged / configured; not yet part of the fleet.
    Provision,
    /// Burn-in checks running; admission is gated on a health verdict.
    Validate,
    /// In service and schedulable.
    Healthy,
    /// In service but suspect: drains, accepts no new work.
    Degraded,
    /// Pulled from service for repair.
    Breakfix,
    /// Power-cycling after repair.
    Reboot,
    /// Permanently retired (terminal).
    Reclaim,
}

use NodeState::*;

impl NodeState {
    /// Every state, in a fixed order (used for census arrays/gauges).
    pub const ALL: [NodeState; 7] =
        [Provision, Validate, Healthy, Degraded, Breakfix, Reboot, Reclaim];

    /// The legal transition edges. `Reclaim` has no outgoing edges —
    /// it is the graph's only terminal state.
    pub const EDGES: [(NodeState, NodeState); 12] = [
        (Provision, Validate), // imaging done, start burn-in
        (Provision, Breakfix), // stuck provision escalates
        (Validate, Healthy),   // guard: fused health verdict is Ok
        (Validate, Breakfix),  // validation retries exhausted
        (Healthy, Degraded),   // suspect verdict: drain
        (Healthy, Breakfix),   // failed verdict: evict now
        (Degraded, Healthy),   // verdict recovered before the drain deadline
        (Degraded, Breakfix),  // failed verdict, or drain deadline passed
        (Breakfix, Reboot),    // repair done, power-cycle
        (Breakfix, Reclaim),   // repair budget exhausted: retire
        (Reboot, Validate),    // booted: re-validate before re-admission
        (Reboot, Breakfix),    // stuck reboot escalates
    ];

    /// Whether `from → to` is an edge of the lifecycle graph.
    pub fn is_edge(from: NodeState, to: NodeState) -> bool {
        Self::EDGES.contains(&(from, to))
    }

    /// Position in [`NodeState::ALL`], for dense per-state arrays.
    pub fn index(self) -> usize {
        match self {
            Provision => 0,
            Validate => 1,
            Healthy => 2,
            Degraded => 3,
            Breakfix => 4,
            Reboot => 5,
            Reclaim => 6,
        }
    }

    /// Stable lowercase name, used as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            Provision => "provision",
            Validate => "validate",
            Healthy => "healthy",
            Degraded => "degraded",
            Breakfix => "breakfix",
            Reboot => "reboot",
            Reclaim => "reclaim",
        }
    }

    /// Only `Healthy` nodes are admissible for new work.
    pub fn schedulable(self) -> bool {
        self == Healthy
    }

    /// Terminal: no outgoing edges.
    pub fn terminal(self) -> bool {
        self == Reclaim
    }

    /// Settled: the node needs no further reconciliation — it is either
    /// in steady service or retired. Convergence of a fleet means every
    /// node is settled with no operation in flight.
    pub fn settled(self) -> bool {
        matches!(self, Healthy | Reclaim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_table_matches_is_edge() {
        let mut edges = 0;
        for &a in &NodeState::ALL {
            for &b in &NodeState::ALL {
                if NodeState::is_edge(a, b) {
                    edges += 1;
                    assert!(NodeState::EDGES.contains(&(a, b)));
                }
            }
        }
        assert_eq!(edges, NodeState::EDGES.len(), "no duplicate edges");
    }

    #[test]
    fn reclaim_is_the_only_terminal_state() {
        for &s in &NodeState::ALL {
            let has_exit = NodeState::ALL.iter().any(|&t| NodeState::is_edge(s, t));
            assert_eq!(has_exit, !s.terminal(), "{s:?}");
        }
    }

    #[test]
    fn no_self_loops() {
        for &s in &NodeState::ALL {
            assert!(!NodeState::is_edge(s, s), "{s:?} must not self-loop");
        }
    }

    #[test]
    fn every_state_is_reachable_from_provision() {
        let mut reach = vec![Provision];
        let mut frontier = vec![Provision];
        while let Some(s) = frontier.pop() {
            for &(a, b) in &NodeState::EDGES {
                if a == s && !reach.contains(&b) {
                    reach.push(b);
                    frontier.push(b);
                }
            }
        }
        for &s in &NodeState::ALL {
            assert!(reach.contains(&s), "{s:?} unreachable");
        }
    }

    #[test]
    fn indices_are_dense_and_consistent() {
        for (i, &s) in NodeState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert!(Healthy.schedulable());
        assert!(!Degraded.schedulable());
        assert!(Healthy.settled() && Reclaim.settled() && !Breakfix.settled());
    }
}
