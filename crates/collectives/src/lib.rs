//! # polaris-collectives
//!
//! Collective communication over Polaris messaging: barrier, broadcast,
//! reduce, allreduce, gather/scatter, allgather, all-to-all, and scans —
//! each in the classic algorithm variants (binomial tree, recursive
//! doubling, ring, Bruck, dissemination) whose latency/bandwidth
//! trade-offs experiment F3 reproduces.
//!
//! Algorithms are generic over [`comm::Comm`], so the same code runs on
//! real endpoints (correctness) and, via schedules cross-checked against
//! execution traces, in the discrete-event executor ([`simx`]) used to
//! project scaling to thousands of nodes.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod comm;
mod cursor;
pub mod ft;
pub mod gather;
pub mod hier;
mod inbox;
pub mod op;
pub mod parsim;
pub mod program;
pub mod reduce;
pub mod reduce_scatter;
pub mod scan;
pub mod simx;
pub mod testing;
pub mod tuning;

pub mod prelude {
    pub use crate::allgather::{allgather_with, AllgatherAlgo};
    pub use crate::allreduce::{allreduce_with, AllreduceAlgo};
    pub use crate::alltoall::alltoall_pairwise;
    pub use crate::barrier::{barrier_with, BarrierAlgo};
    pub use crate::bcast::{bcast_with, BcastAlgo};
    pub use crate::comm::{Comm, TracingComm};
    pub use crate::ft::{ft_allreduce, ft_bcast, FtComm, FtError, FtReport};
    pub use crate::gather::{gather_binomial, gather_linear, scatter_linear};
    pub use crate::hier::{
        circuit_allreduce_time, flat_allreduce_model, simulate_hier_allreduce, HierResult,
        InterGroup,
    };
    pub use crate::op::{Elem, Reducible, ReduceOp};
    pub use crate::parsim::{simulate_collective_sharded, simulate_collective_sharded_stats};
    pub use crate::reduce::reduce_binomial;
    pub use crate::reduce_scatter::reduce_scatter_ring;
    pub use crate::scan::{scan_exclusive, scan_inclusive};
    pub use crate::simx::{schedule, simulate_collective, Collective, ExecParams, SimResult};
    pub use crate::testing::run_world;
    pub use crate::tuning::{allgather, allreduce, barrier, bcast};
}
