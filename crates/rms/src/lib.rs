//! # polaris-rms
//!
//! Resource management and fault recovery: the keynote's claim that "the
//! software tools to manage [exploding-scale clusters] will take on new
//! responsibilities", made executable. Batch scheduling (FCFS vs EASY
//! backfill, experiment T2), synthetic workload generation,
//! checkpoint/restart with Young/Daly interval analysis (experiment F6),
//! and the reconciling node-lifecycle control plane ([`lifecycle`],
//! experiment F12) with its heartbeat failure detection. T2 and F12
//! run on the same fleet simulation.

pub mod alloc;
pub mod checkpoint;
pub mod job;
pub mod lifecycle;
pub mod recovery;
pub mod sched;
pub mod timeline;
pub mod workload;

pub mod prelude {
    pub use crate::alloc::{mean_neighbor_hops, mean_pairwise_hops, NodePool, Placement};
    pub use crate::checkpoint::{simulate_checkpointing, CheckpointParams, McResult};
    pub use crate::job::{Job, JobOutcome, ScheduleMetrics};
    pub use crate::lifecycle::{
        churn_plan, run_fleet, ChurnSpec, Controller, ControllerConfig, FleetConfig,
        FleetReport, HealthAggregator, HealthConfig, HealthVerdict, NodeState,
    };
    pub use crate::recovery::{mean_inflation, run_job, RecoveryOutcome, RecoveryPolicy};
    pub use crate::sched::{run_and_summarize, simulate, Policy};
    pub use crate::timeline::Timeline;
    pub use crate::workload::{generate, FailureModel, WorkloadConfig};
}
