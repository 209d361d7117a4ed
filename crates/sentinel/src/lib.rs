//! Polaris sentinel: cross-layer conservation audits and a
//! deterministic, seed-replayable differential fuzzer.
//!
//! The stack makes quantitative promises — every byte handed to the
//! network is delivered or dropped with a recorded reason, every posted
//! work request completes exactly once, every pooled wire frame comes
//! home, parallel execution is bit-identical to serial — and this crate
//! is the plane that *checks* them, from the outside, across layer
//! boundaries where bookkeeping bugs hide.
//!
//! Two mechanisms:
//!
//! * **Conservation ledgers** ([`ledger`]): audits that run a seeded
//!   workload while keeping independent books, then reconcile them
//!   against each layer's own accounting (getters, metrics registry,
//!   fault log, flight recorder).
//! * **Differential oracles** ([`oracle`]): pairs of implementations
//!   that must agree (calendar queue vs reference heap, sharded vs
//!   serial execution, raw vs reliable delivery, parallel vs serial
//!   figure sweeps), driven by random workloads from [`gen`].
//!
//! Everything is a pure function of a 64-bit seed. A failing case is
//! reported as its seed plus a JSON [`gen::WorkloadSpec`]; the shrinker
//! ([`shrink`]) greedily minimizes the spec while it still fails, so
//! the artifact attached to a red CI run is the smallest reproducer,
//! not the random one that happened to fire. See `docs/SENTINEL.md`
//! for the invariant catalogue and replay workflow.

pub mod gen;
pub mod ledger;
pub mod oracle;

use gen::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One broken invariant or oracle divergence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant (stable kebab-case id, catalogued in
    /// docs/SENTINEL.md).
    pub invariant: String,
    /// Human-readable account of the divergence, with the values on
    /// both sides.
    pub detail: String,
}

impl Violation {
    pub fn new(invariant: &str, detail: String) -> Self {
        Violation {
            invariant: invariant.to_string(),
            detail,
        }
    }
}

/// One named audit: a pure function from spec to violations.
type Audit = (&'static str, fn(&WorkloadSpec) -> Vec<Violation>);

/// The audits one fuzzer case runs, in order. Each is wrapped in
/// `catch_unwind`: a panic inside the stack (deadlock assertion, slice
/// bound, arithmetic overflow) is itself a finding, not a fuzzer crash.
const AUDITS: &[Audit] = &[
    ("network-conservation", ledger::network_conservation),
    ("queue-oracle", oracle::queue_oracle),
    ("shard-oracle", oracle::shard_oracle),
    ("route-oracle", oracle::route_oracle),
    ("endpoint-conservation", ledger::endpoint_conservation),
    ("reliable-superset", oracle::reliable_superset),
    ("lifecycle-conservation", ledger::lifecycle_conservation),
    ("circuit-conservation", ledger::circuit_conservation),
    ("snapshot-oracle", oracle::snapshot_oracle),
];

/// Run every audit against one spec and collect the violations.
pub fn run_case(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, audit) in AUDITS {
        match catch_unwind(AssertUnwindSafe(|| audit(spec))) {
            Ok(v) => out.extend(v),
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                out.push(Violation::new(
                    "audit-panic",
                    format!("{name} panicked: {msg}"),
                ));
            }
        }
    }
    out
}

/// Greedily minimize a failing spec: try each shrink candidate, keep
/// the first that still fails, repeat until none do. Returns the
/// minimized spec and its violations. Bounded by `max_steps` re-runs.
pub fn shrink(spec: &WorkloadSpec, max_steps: usize) -> (WorkloadSpec, Vec<Violation>) {
    let mut best = spec.clone();
    let mut best_violations = run_case(&best);
    let mut steps = 0;
    'outer: loop {
        for cand in best.shrink_candidates() {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            let v = run_case(&cand);
            if !v.is_empty() {
                best = cand;
                best_violations = v;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_violations)
}

/// The replay artifact dumped for a failing case: everything needed to
/// reproduce and triage without re-fuzzing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureReport {
    /// Base seed and iteration that produced the case.
    pub base_seed: u64,
    pub iter: u64,
    /// The case seed (`WorkloadSpec::case_seed(base_seed, iter)`).
    pub case_seed: u64,
    /// The original failing spec.
    pub spec: WorkloadSpec,
    /// Violations from the original spec.
    pub violations: Vec<Violation>,
    /// The minimized spec (equal to `spec` when shrinking is off or
    /// found nothing smaller).
    pub minimized: WorkloadSpec,
    /// Violations from the minimized spec — the trace diff to read.
    pub minimized_violations: Vec<Violation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec that fails nothing shrinks to itself.
    #[test]
    fn shrink_is_identity_on_passing_specs() {
        let spec = WorkloadSpec::from_seed(3);
        let trimmed = WorkloadSpec {
            msgs: 4,
            transfers: 32,
            queue_ops: 64,
            coll_ranks: 4,
            coll_bytes: 64,
            ..spec
        };
        let (min, v) = shrink(&trimmed, 4);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(min, trimmed);
    }

    /// Violations and reports round-trip through JSON for artifact
    /// upload.
    #[test]
    fn failure_reports_round_trip() {
        let spec = WorkloadSpec::from_seed(11);
        let rep = FailureReport {
            base_seed: 1,
            iter: 2,
            case_seed: WorkloadSpec::case_seed(1, 2),
            spec: spec.clone(),
            violations: vec![Violation::new("net-byte-conservation", "x != y".into())],
            minimized: spec,
            minimized_violations: vec![],
        };
        let json = serde_json::to_string(&rep).unwrap();
        let back: FailureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spec, rep.spec);
        assert_eq!(back.violations, rep.violations);
    }
}
