//! # polaris-nic
//!
//! A virtual user-level NIC with InfiniBand-verbs semantics: protection
//! domains, registered memory regions (rkey), reliable-connected queue
//! pairs, completion queues, and the three verbs the stack above posts:
//! send/receive with immediate data, one-sided RDMA read/write, and
//! shared receive queues.
//!
//! This crate is the substitution for the RDMA hardware the CLUSTER 2002
//! keynote anticipates ("anticipated advances in networking including
//! Infiniband"): the same control structures real HCAs expose, backed by
//! a shared-memory fabric in which every node is a thread and the "DMA"
//! is a single accounted memory copy. The accounting
//! ([`fabric::FabricStats`]) is what lets the messaging layer *prove* its
//! zero-copy properties in tests rather than assert them.
//!
//! ```
//! use polaris_nic::prelude::*;
//! use std::time::Duration;
//!
//! let fabric = Fabric::new();
//! let (na, nb) = (fabric.create_nic(), fabric.create_nic());
//! let (pa, pb) = (na.alloc_pd(), nb.alloc_pd());
//! let (ca, cb) = (CompletionQueue::new(16), CompletionQueue::new(16));
//! let qa = na.create_qp(pa, &ca, &ca).unwrap();
//! let qb = nb.create_qp(pb, &cb, &cb).unwrap();
//! fabric.connect(&qa, &qb).unwrap();
//!
//! let src = na.register_from(pa, b"hello").unwrap();
//! let dst = nb.register(pb, 16).unwrap();
//! qb.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
//! qa.post_send(SendWr::Send { wr_id: 2, sges: polaris_nic::sge_list![Sge::whole(&src)], imm: None }).unwrap();
//! let cqe = cb.wait_one(Duration::from_secs(1)).unwrap();
//! assert_eq!(cqe.byte_len, 5);
//! assert_eq!(dst.to_vec(0, 5).unwrap(), b"hello");
//! ```

pub mod chaos;
pub mod cq;
pub mod error;
pub mod fabric;
pub mod mr;
pub mod qp;
pub mod srq;
pub mod types;
pub mod wr;

pub mod prelude {
    pub use crate::chaos::{ChaosParams, ChaosStats};
    pub use crate::cq::{CompletionQueue, Cqe, CqeOpcode, CqeStatus};
    pub use crate::error::{NicError, Result as NicResult};
    pub use crate::fabric::{Fabric, FabricStats, Nic};
    pub use crate::mr::{MemoryRegion, ProtectionDomain};
    pub use crate::qp::{QpState, QueuePair};
    pub use crate::srq::SharedReceiveQueue;
    pub use crate::types::{NodeId, QpNum, RemoteAddr, Rkey};
    pub use crate::wr::{RecvWr, SendWr, Sge, SgeList};
}
