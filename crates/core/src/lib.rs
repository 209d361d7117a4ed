//! # polaris
//!
//! A commodity-cluster computing stack in Rust, reproducing the system
//! vision of T. Sterling's CLUSTER 2002 keynote "Launching into the
//! future of commodity cluster computing": user-level zero-copy
//! messaging over a virtual RDMA NIC, tuned collectives, interconnect
//! and node-architecture models, and resource management with fault
//! recovery.
//!
//! This umbrella crate provides the SPMD [`runtime`] that wires the
//! stack together, the halo-exchange proxy application ([`halo`]), and
//! re-exports the component crates:
//!
//! * [`msg`] — the core contribution: eager / rendezvous / sockets
//!   protocols with verified copy counts.
//! * [`nic`] — the verbs-style virtual NIC (PD/MR/QP/CQ): send/receive
//!   with immediate data, RDMA read/write, shared receive queues.
//! * [`collectives`] — barrier/bcast/reduce/allreduce/… in classic
//!   algorithm variants, with a simulated-time executor.
//! * [`simnet`] — discrete-event interconnect models (Fast Ethernet
//!   through InfiniBand and optical circuit switching).
//! * [`arch`] — device projections and node-architecture rooflines.
//! * [`rms`] — batch scheduling, failure detection, checkpoint/restart.
//!
//! ```
//! use polaris::prelude::*;
//!
//! let (sums, _stats) = Cluster::builder().nodes(4).run(|mut ctx| {
//!     let mut v = vec![ctx.rank() as u64 + 1];
//!     ctx.allreduce(ReduceOp::Sum, &mut v);
//!     v[0]
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

pub mod halo;
pub mod runtime;
pub mod sort;

pub use polaris_arch as arch;
pub use polaris_collectives as collectives;
pub use polaris_msg as msg;
pub use polaris_nic as nic;
pub use polaris_rms as rms;
pub use polaris_simnet as simnet;

pub mod prelude {
    pub use crate::halo::{process_grid, run_parallel, run_serial, JacobiConfig};
    pub use crate::runtime::{Cluster, ClusterBuilder, NodeCtx};
    pub use crate::sort::{sample_sort, verify_sorted};
    pub use polaris_collectives::op::{Reducible, ReduceOp};
    pub use polaris_msg::prelude::{Endpoint, MatchSpec, MsgBuf, MsgConfig, MsgError, Protocol};
    pub use polaris_nic::prelude::{Fabric, FabricStats};
}
