//! # polaris-simnet
//!
//! Deterministic discrete-event simulation of commodity-cluster
//! interconnects: the substrate under Polaris's scaling experiments.
//!
//! The crate provides three layers:
//!
//! 1. **Engine** ([`engine`], [`event`], [`time`]): a minimal
//!    event-queue/clock/dispatch core with picosecond resolution and
//!    bit-reproducible tie-breaking.
//! 2. **Interconnect models** ([`link`], [`topology`]): parameterized
//!    link models with presets for the interconnect generations the
//!    CLUSTER 2002 keynote names (Fast Ethernet through InfiniBand and
//!    optical switching), and routed topologies (crossbar, ring, torus,
//!    fat tree).
//! 3. **Network simulators**: a fast flow-level contention model
//!    ([`network`]) used at scale, a packet-level output-queued reference
//!    ([`packetnet`], [`packet`]) used to validate it, and an optical
//!    circuit-switching model ([`circuit`]).
//!
//! ```
//! use polaris_simnet::prelude::*;
//!
//! let topo = Topology::new(TopologyKind::FatTree { k: 4 });
//! let mut net = Network::new(topo, Generation::InfiniBand4x.link_model());
//! let d = net.transfer(SimTime::ZERO, 0, 15, 64 * 1024);
//! assert!(d.arrival > SimTime::ZERO);
//! ```

pub mod channel;
pub mod circuit;
pub mod engine;
pub mod error;
pub mod event;
pub mod fasthash;
pub mod fault;
pub mod link;
pub mod network;
pub mod packet;
pub mod packetnet;
pub mod rng;
pub mod shard;
#[doc(hidden)]
pub mod switch;
pub mod time;
pub mod topology;

/// Commonly used items.
pub mod prelude {
    pub use crate::channel::ShardChannel;
    pub use crate::circuit::{
        CircuitError, CircuitEvent, CircuitScheduler, CircuitSchedulerConfig, Reservation,
    };
    pub use crate::engine::{run, RunStats, Scheduler, World};
    pub use crate::error::SimError;
    pub use crate::fasthash::{FastHashMap, FastHashSet};
    pub use crate::fault::{
        DropCause, FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule,
        FaultScope, FaultVerdict,
    };
    pub use crate::link::{Generation, LinkId, LinkModel};
    pub use crate::network::{Delivery, Network};
    pub use crate::packetnet::{simulate_packets, Completion, Injection};
    pub use crate::rng::SplitMix64;
    pub use crate::event::{EventQueue, QueueSnapshot, QueueStats};
    pub use crate::shard::{
        Partition, ShardCtx, ShardRunStats, ShardSim, ShardSnapshot, ShardWorld,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{RoutePlan, Routing, Topology, TopologyError, TopologyKind, Vertex};
}
