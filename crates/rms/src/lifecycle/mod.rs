//! Reconciling node-lifecycle control plane.
//!
//! The keynote's claim that cluster management "software tools will
//! take on new responsibilities" stops being analytic here: this module
//! *drives* a fleet. Every node walks an explicit lifecycle graph —
//!
//! ```text
//! Provision → Validate → Healthy ⇄ Degraded
//!     |            |        |         |
//!     +-----------[ Breakfix ]--------+
//!                   |      |
//!                Reboot  Reclaim (terminal)
//!                   |
//!               Validate (re-admission)
//! ```
//!
//! — under a reconciling [`controller::Controller`] that diffs desired
//! against observed state every tick, with per-transition guard
//! conditions, bounded retries with exponential backoff + deterministic
//! jitter, and transition timeouts that escalate (a stuck `Reboot`
//! lands back in `Breakfix`; an exhausted repair budget reclaims the
//! node).
//!
//! Health is a fused verdict ([`health::HealthAggregator`]): heartbeat
//! silence past [`health::HEARTBEAT_TIMEOUT`] combined with NIC/link
//! fault signals surfaced by the chaos fabric. Only `Healthy` nodes are
//! schedulable; `Degraded` nodes drain; jobs on dying nodes requeue
//! through checkpoint-restart accounting.
//!
//! [`fleet::FleetSim`] runs the whole control plane as a discrete-event
//! workload on the simnet engine: a fleet under a seeded churn plan
//! (crash / flap / degrade rules from the chaos plane, JSON-replayable)
//! serving a seeded synthetic job stream. Figure F12 publishes
//! convergence time, scheduler goodput, and false-evict rate vs. churn
//! rate from its observability plane; the sentinel lifecycle
//! conservation ledger audits its event log. Without churn and with
//! given jobs, the same simulation is the batch scheduler behind T2
//! ([`crate::sched::simulate`]). See `docs/CONTROL_PLANE.md`.

pub mod controller;
pub mod fleet;
pub mod health;
pub mod state;

pub use controller::{Controller, ControllerConfig, OpKind, StartedOp, TransitionRecord};
pub use fleet::{churn_plan, run_fleet, AuditEvent, ChurnSpec, FleetConfig, FleetReport};
pub use health::{HealthAggregator, HealthVerdict};
pub use state::NodeState;
