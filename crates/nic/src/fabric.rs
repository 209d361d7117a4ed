//! The shared-memory fabric: NIC creation, out-of-band connection setup,
//! rkey resolution, and fabric-wide DMA accounting.
//!
//! One [`Fabric`] represents a cluster's interconnect. Each node owns a
//! [`Nic`], through which it allocates protection domains, registers
//! memory, and creates queue pairs. `Fabric::connect` is the out-of-band
//! channel real deployments implement over Ethernet or a job launcher.
//!
//! The DMA counters are how the zero-copy experiments are *verified*
//! rather than merely asserted: tests check that the rendezvous path
//! moves each payload byte exactly once while the eager and sockets
//! paths move it two and four times respectively.

use crate::chaos::{ChaosParams, ChaosState, ChaosStats, ChaosVerdict};
use crate::cq::CompletionQueue;
use crate::error::{NicError, Result};
use crate::mr::{MemoryRegion, MrInner, ProtectionDomain};
use crate::qp::{PeerLink, QpInner, QpObs, QpState, QueuePair};
use crate::srq::SharedReceiveQueue;
use crate::types::{NodeId, PdId, QpNum, Rkey};
use polaris_obs::{Counter, Obs};
use polaris_simnet::fasthash::FastHashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// Fabric-wide data-movement statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Individual DMA operations executed.
    pub dma_ops: u64,
    /// Payload bytes moved by DMA.
    pub dma_bytes: u64,
    /// Memory registrations performed across all NICs.
    pub registrations: u64,
    /// Bytes pinned by those registrations.
    pub registered_bytes: u64,
}

pub(crate) struct NicInner {
    node: NodeId,
    next_pd: AtomicU32,
    next_qp: AtomicU32,
    /// Rkeys come from this process's own counter, so the map needs no
    /// collision-resistant hash.
    mrs: RwLock<FastHashMap<Rkey, Weak<MrInner>>>,
    /// The NIC owns its queue pairs for as long as the fabric stands
    /// (there is no destroy verb); peers reach each other through the
    /// link `Fabric::connect` caches, never through this list.
    qps: Mutex<Vec<Arc<QpInner>>>,
}

/// Fabric-wide observability hooks: the shared plane plus counter
/// handles cached once at attach time so hot paths pay one atomic add,
/// not a registry lookup.
pub(crate) struct FabObs {
    pub(crate) obs: Obs,
    dma_ops: Counter,
    dma_bytes: Counter,
    cqe_ok: Counter,
    cqe_err: Counter,
    chaos_drops: Counter,
    chaos_corruptions: Counter,
}

impl FabObs {
    fn new(obs: Obs) -> Self {
        FabObs {
            dma_ops: obs.counter("nic_dma_ops_total", &[]),
            dma_bytes: obs.counter("nic_dma_bytes_total", &[]),
            cqe_ok: obs.counter("nic_cqe_total", &[("status", "ok")]),
            cqe_err: obs.counter("nic_cqe_total", &[("status", "err")]),
            chaos_drops: obs.counter("nic_chaos_drops_total", &[]),
            chaos_corruptions: obs.counter("nic_chaos_corruptions_total", &[]),
            obs,
        }
    }
}

pub(crate) struct FabricInner {
    /// Indexed by `NodeId`: ids are handed out densely from zero.
    nodes: RwLock<Vec<Arc<NicInner>>>,
    dma_ops: AtomicU64,
    dma_bytes: AtomicU64,
    registrations: AtomicU64,
    registered_bytes: AtomicU64,
    /// Fault injection for two-sided sends; `None` = healthy fabric.
    chaos: Mutex<Option<ChaosState>>,
    /// Whether `chaos` is `Some`, written under its lock: a healthy
    /// fabric pays one load per send, not a lock.
    chaos_armed: AtomicBool,
    /// Observability plane; `None` = unobserved.
    obs: RwLock<Option<Arc<FabObs>>>,
    /// Whether `obs` is `Some`, written under its lock: an unobserved
    /// fabric pays one load per counted event, not a lock.
    observed: AtomicBool,
}

impl FabricInner {
    pub(crate) fn lookup_mr(&self, node: NodeId, rkey: Rkey) -> Result<Arc<MrInner>> {
        let nodes = self.nodes.read().unwrap();
        let nic = nodes
            .get(node.0 as usize)
            .ok_or(NicError::UnknownNode(node))?;
        let mrs = nic.mrs.read().unwrap();
        mrs.get(&rkey)
            .and_then(Weak::upgrade)
            .ok_or(NicError::BadRkey(rkey))
    }

    /// Run `f` on the attached observability plane, if there is one.
    fn if_observed(&self, f: impl FnOnce(&FabObs)) {
        if self.observed.load(Ordering::Acquire) {
            if let Some(fo) = &*self.obs.read().unwrap() {
                f(fo);
            }
        }
    }

    pub(crate) fn count_dma(&self, bytes: u64) {
        self.dma_ops.fetch_add(1, Ordering::Relaxed);
        self.dma_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.if_observed(|fo| {
            fo.dma_ops.inc();
            fo.dma_bytes.add(bytes);
        });
    }

    pub(crate) fn obs(&self) -> Option<Arc<FabObs>> {
        self.obs.read().unwrap().clone()
    }

    /// Bump the fabric-wide completion counters (`nic_cqe_total`).
    /// Every CQE push in the crate funnels through here exactly once,
    /// which is what lets tests reconcile error CQEs against the chaos
    /// layer's injection counts.
    pub(crate) fn count_cqe(&self, ok: bool) {
        self.if_observed(|fo| {
            if ok {
                fo.cqe_ok.inc()
            } else {
                fo.cqe_err.inc()
            }
        });
    }

    /// Chaos verdict for one two-sided send, or `None` when chaos is
    /// off (so the send path can skip CRC work on healthy fabrics).
    pub(crate) fn chaos_judge(&self) -> Option<ChaosVerdict> {
        if !self.chaos_armed.load(Ordering::Acquire) {
            return None;
        }
        let verdict = self.chaos.lock().unwrap().as_mut().map(ChaosState::judge);
        match verdict {
            Some(ChaosVerdict::Drop) => self.if_observed(|fo| fo.chaos_drops.inc()),
            Some(ChaosVerdict::Corrupt) => self.if_observed(|fo| fo.chaos_corruptions.inc()),
            _ => {}
        }
        verdict
    }
}

/// The cluster fabric handle. Cloning shares the fabric.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    pub fn new() -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                nodes: RwLock::new(Vec::new()),
                dma_ops: AtomicU64::new(0),
                dma_bytes: AtomicU64::new(0),
                registrations: AtomicU64::new(0),
                registered_bytes: AtomicU64::new(0),
                chaos: Mutex::new(None),
                chaos_armed: AtomicBool::new(false),
                obs: RwLock::new(None),
                observed: AtomicBool::new(false),
            }),
        }
    }

    /// Attach an observability plane. DMA, completion, and chaos
    /// counters land in the registry under `nic_*`; QPs created after
    /// this call additionally get per-QP `nic_qp_*{node,qp}` series.
    pub fn set_obs(&self, obs: Obs) {
        let mut slot = self.inner.obs.write().unwrap();
        *slot = Some(Arc::new(FabObs::new(obs)));
        self.inner.observed.store(true, Ordering::Release);
    }

    /// Arm deterministic fault injection on every two-sided send
    /// crossing this fabric (see [`crate::chaos`]). Replaces any
    /// previous chaos configuration and resets its counters.
    pub fn set_chaos(&self, params: ChaosParams) {
        let mut chaos = self.inner.chaos.lock().unwrap();
        *chaos = Some(ChaosState::new(params));
        self.inner.chaos_armed.store(true, Ordering::Release);
    }

    /// Counters of injected faults, if chaos is armed.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.inner
            .chaos
            .lock()
            .unwrap()
            .as_ref()
            .map(ChaosState::stats)
    }

    /// Attach a new NIC (node) to the fabric, assigning the next rank.
    pub fn create_nic(&self) -> Nic {
        let mut nodes = self.inner.nodes.write().unwrap();
        let nic = Arc::new(NicInner {
            node: NodeId(nodes.len() as u32),
            next_pd: AtomicU32::new(0),
            next_qp: AtomicU32::new(0),
            mrs: RwLock::new(FastHashMap::default()),
            qps: Mutex::new(Vec::new()),
        });
        nodes.push(nic.clone());
        Nic {
            inner: nic,
            fabric: Arc::downgrade(&self.inner),
        }
    }

    /// Connect two queue pairs (the out-of-band exchange). Both must be
    /// in `Init`; both end up in `Rts`.
    pub fn connect(&self, a: &QueuePair, b: &QueuePair) -> Result<()> {
        for qp in [a, b] {
            let st = qp.state();
            if st != QpState::Init {
                return Err(NicError::InvalidQpState {
                    qp: qp.num(),
                    state: st.name(),
                });
            }
        }
        for (qp, peer) in [(a, b), (b, a)] {
            // Both were just seen in `Init`, so neither is connected
            // yet; a loopback QP sets its one cell twice, to itself.
            let _ = qp.inner.peer.set(PeerLink {
                num: peer.num(),
                qp: Arc::downgrade(&peer.inner),
            });
        }
        a.inner.set_state(QpState::Rts);
        b.inner.set_state(QpState::Rts);
        Ok(())
    }

    pub fn stats(&self) -> FabricStats {
        FabricStats {
            dma_ops: self.inner.dma_ops.load(Ordering::Relaxed),
            dma_bytes: self.inner.dma_bytes.load(Ordering::Relaxed),
            registrations: self.inner.registrations.load(Ordering::Relaxed),
            registered_bytes: self.inner.registered_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A node's NIC handle.
#[derive(Clone)]
pub struct Nic {
    inner: Arc<NicInner>,
    fabric: Weak<FabricInner>,
}

impl Nic {
    /// Allocate a protection domain.
    pub fn alloc_pd(&self) -> ProtectionDomain {
        ProtectionDomain {
            node: self.inner.node,
            id: PdId(self.inner.next_pd.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Register (allocate + pin) `len` bytes of DMA-able memory in `pd`.
    pub fn register(&self, pd: ProtectionDomain, len: usize) -> Result<MemoryRegion> {
        if pd.node != self.inner.node {
            return Err(NicError::PdMismatch);
        }
        let fabric = self.fabric.upgrade().ok_or(NicError::FabricDown)?;
        let mr = MemoryRegion::allocate(pd, len);
        self.inner
            .mrs
            .write()
            .unwrap()
            .insert(mr.rkey(), Arc::downgrade(&mr.inner));
        fabric.registrations.fetch_add(1, Ordering::Relaxed);
        fabric
            .registered_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        Ok(mr)
    }

    /// Register a region and copy `data` into it.
    pub fn register_from(&self, pd: ProtectionDomain, data: &[u8]) -> Result<MemoryRegion> {
        let mr = self.register(pd, data.len())?;
        mr.write_at(0, data)?;
        Ok(mr)
    }

    /// Create a queue pair in the `Init` state.
    pub fn create_qp(
        &self,
        pd: ProtectionDomain,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
    ) -> Result<QueuePair> {
        self.create_qp_inner(pd, send_cq, recv_cq, None)
    }

    /// Create a queue pair whose receives come from a shared receive
    /// queue instead of a per-QP posted list.
    pub fn create_qp_with_srq(
        &self,
        pd: ProtectionDomain,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: &SharedReceiveQueue,
    ) -> Result<QueuePair> {
        self.create_qp_inner(pd, send_cq, recv_cq, Some(srq.clone()))
    }

    /// Create a shared receive queue on this NIC.
    pub fn create_srq(&self) -> SharedReceiveQueue {
        let wqe_posted = self.fabric.upgrade().and_then(|f| f.obs()).map(|fo| {
            let node = self.inner.node.0.to_string();
            fo.obs.counter("nic_srq_wqe_total", &[("node", &node)])
        });
        SharedReceiveQueue::new(self.fabric.clone(), wqe_posted)
    }

    fn create_qp_inner(
        &self,
        pd: ProtectionDomain,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: Option<SharedReceiveQueue>,
    ) -> Result<QueuePair> {
        if pd.node != self.inner.node {
            return Err(NicError::PdMismatch);
        }
        let num = QpNum(self.inner.next_qp.fetch_add(1, Ordering::Relaxed));
        let qp_obs = self
            .fabric
            .upgrade()
            .and_then(|f| f.obs())
            .map(|fo| QpObs::new(&fo.obs, self.inner.node, num));
        let qp = Arc::new(QpInner::new(
            num,
            self.inner.node,
            pd,
            send_cq.clone(),
            recv_cq.clone(),
            srq,
            self.fabric.clone(),
            qp_obs,
        ));
        self.inner.qps.lock().unwrap().push(qp.clone());
        Ok(QueuePair { inner: qp })
    }

    /// Drop the NIC's record of a memory region, invalidating its rkey
    /// for future remote access (existing handles keep the memory alive).
    pub fn deregister(&self, mr: &MemoryRegion) {
        self.inner.mrs.write().unwrap().remove(&mr.rkey());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CqeOpcode, CqeStatus};
    use crate::types::RemoteAddr;
    use crate::wr::{RecvWr, SendWr, Sge};
    use std::time::Duration;

    struct Pair {
        fabric: Fabric,
        a: QueuePair,
        b: QueuePair,
        nic_a: Nic,
        nic_b: Nic,
        pd_a: ProtectionDomain,
        pd_b: ProtectionDomain,
        cq_a: CompletionQueue,
        cq_b: CompletionQueue,
    }

    /// Receives posted at `qp` and messages parked there.
    fn recv_depths(qp: &QueuePair) -> (usize, usize) {
        let rs = qp.inner.recv.lock().unwrap();
        (rs.posted.len(), rs.inbound.len())
    }

    fn pair() -> Pair {
        let fabric = Fabric::new();
        let nic_a = fabric.create_nic();
        let nic_b = fabric.create_nic();
        let pd_a = nic_a.alloc_pd();
        let pd_b = nic_b.alloc_pd();
        let cq_a = CompletionQueue::new(128);
        let cq_b = CompletionQueue::new(128);
        let a = nic_a.create_qp(pd_a, &cq_a, &cq_a).unwrap();
        let b = nic_b.create_qp(pd_b, &cq_b, &cq_b).unwrap();
        fabric.connect(&a, &b).unwrap();
        Pair {
            fabric,
            a,
            b,
            nic_a,
            nic_b,
            pd_a,
            pd_b,
            cq_a,
            cq_b,
        }
    }

    #[test]
    fn send_recv_moves_data_once() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"ping!").unwrap();
        let dst = p.nic_b.register(p.pd_b, 32).unwrap();
        p.b
            .post_recv(RecvWr::new(1, vec![Sge::whole(&dst)]))
            .unwrap();
        p.a
            .post_send(SendWr::Send {
                wr_id: 2,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: Some(99),
            })
            .unwrap();
        let rx = p.cq_b.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(rx.status, CqeStatus::Success);
        assert_eq!(rx.opcode, CqeOpcode::Recv);
        assert_eq!(rx.byte_len, 5);
        assert_eq!(rx.imm, Some(99));
        assert_eq!(rx.wr_id, 1);
        let tx = p.cq_a.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(tx.wr_id, 2);
        assert_eq!(tx.status, CqeStatus::Success);
        assert_eq!(dst.to_vec(0, 5).unwrap(), b"ping!");
        let stats = p.fabric.stats();
        assert_eq!(stats.dma_ops, 1);
        assert_eq!(stats.dma_bytes, 5);
    }

    #[test]
    fn unmatched_send_parks_until_recv_posted() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"late").unwrap();
        p.a
            .post_send(SendWr::Send {
                wr_id: 1,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        // No completion yet on either side.
        assert!(p.cq_a.poll_one().unwrap().is_none());
        assert_eq!(recv_depths(&p.b), (0, 1));
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b
            .post_recv(RecvWr::new(2, vec![Sge::whole(&dst)]))
            .unwrap();
        assert_eq!(dst.to_vec(0, 4).unwrap(), b"late");
        assert!(p.cq_a.poll_one().unwrap().is_some());
        assert!(p.cq_b.poll_one().unwrap().is_some());
    }

    #[test]
    fn sends_match_receives_in_order() {
        let p = pair();
        let dst1 = p.nic_b.register(p.pd_b, 8).unwrap();
        let dst2 = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b
            .post_recv(RecvWr::new(10, vec![Sge::whole(&dst1)]))
            .unwrap();
        p.b
            .post_recv(RecvWr::new(11, vec![Sge::whole(&dst2)]))
            .unwrap();
        for (i, msg) in [b"first..." as &[u8], b"second.."].iter().enumerate() {
            let src = p.nic_a.register_from(p.pd_a, msg).unwrap();
            p.a
                .post_send(SendWr::Send {
                    wr_id: i as u64,
                    sges: crate::sge_list![Sge::whole(&src)],
                    imm: None,
                })
                .unwrap();
        }
        let r1 = p.cq_b.poll_one().unwrap().unwrap();
        let r2 = p.cq_b.poll_one().unwrap().unwrap();
        assert_eq!(r1.wr_id, 10);
        assert_eq!(r2.wr_id, 11);
        assert_eq!(dst1.to_vec(0, 8).unwrap(), b"first...");
        assert_eq!(dst2.to_vec(0, 8).unwrap(), b"second..");
    }

    #[test]
    fn rdma_write_is_one_sided() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"onesided").unwrap();
        let dst = p.nic_b.register(p.pd_b, 16).unwrap();
        p.a
            .post_send(SendWr::RdmaWrite {
                wr_id: 5,
                sges: crate::sge_list![Sge::whole(&src)],
                remote: RemoteAddr {
                    node: p.b.node(),
                    rkey: dst.rkey(),
                    offset: 4,
                },
            })
            .unwrap();
        let c = p.cq_a.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(c.status, CqeStatus::Success);
        assert_eq!(c.opcode, CqeOpcode::RdmaWrite);
        // The target CPU saw nothing.
        assert!(p.cq_b.poll_one().unwrap().is_none());
        assert_eq!(dst.to_vec(4, 8).unwrap(), b"onesided");
    }

    #[test]
    fn rdma_read_pulls_remote_data() {
        let p = pair();
        let remote_src = p.nic_b.register_from(p.pd_b, b"pull me!").unwrap();
        let local_dst = p.nic_a.register(p.pd_a, 8).unwrap();
        p.a
            .post_send(SendWr::RdmaRead {
                wr_id: 9,
                sges: crate::sge_list![Sge::whole(&local_dst)],
                remote: RemoteAddr {
                    node: p.b.node(),
                    rkey: remote_src.rkey(),
                    offset: 0,
                },
            })
            .unwrap();
        let c = p.cq_a.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(c.status, CqeStatus::Success);
        assert_eq!(c.opcode, CqeOpcode::RdmaRead);
        assert_eq!(local_dst.to_vec(0, 8).unwrap(), b"pull me!");
    }

    #[test]
    fn bad_rkey_yields_remote_access_error() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"x").unwrap();
        p.a
            .post_send(SendWr::RdmaWrite {
                wr_id: 1,
                sges: crate::sge_list![Sge::whole(&src)],
                remote: RemoteAddr {
                    node: p.b.node(),
                    rkey: Rkey(0xdead),
                    offset: 0,
                },
            })
            .unwrap();
        let c = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(c.status, CqeStatus::RemoteAccessError);
    }

    #[test]
    fn deregistered_rkey_is_rejected() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"x").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        let rkey = dst.rkey();
        p.nic_b.deregister(&dst);
        p.a
            .post_send(SendWr::RdmaWrite {
                wr_id: 1,
                sges: crate::sge_list![Sge::whole(&src)],
                remote: RemoteAddr {
                    node: p.b.node(),
                    rkey,
                    offset: 0,
                },
            })
            .unwrap();
        let c = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(c.status, CqeStatus::RemoteAccessError);
    }

    #[test]
    fn remote_bounds_violation_fails_cleanly() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, &[0u8; 32]).unwrap();
        let dst = p.nic_b.register(p.pd_b, 16).unwrap();
        p.a
            .post_send(SendWr::RdmaWrite {
                wr_id: 1,
                sges: crate::sge_list![Sge::whole(&src)],
                remote: RemoteAddr {
                    node: p.b.node(),
                    rkey: dst.rkey(),
                    offset: 0,
                },
            })
            .unwrap();
        let c = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(c.status, CqeStatus::RemoteAccessError);
        // Nothing was written.
        assert_eq!(dst.to_vec(0, 16).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn truncating_send_errors_both_sides() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, &[7u8; 64]).unwrap();
        let dst = p.nic_b.register(p.pd_b, 16).unwrap();
        p.b
            .post_recv(RecvWr::new(1, vec![Sge::whole(&dst)]))
            .unwrap();
        p.a
            .post_send(SendWr::Send {
                wr_id: 2,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        assert_eq!(
            p.cq_b.poll_one().unwrap().unwrap().status,
            CqeStatus::LocalProtectionError
        );
        assert_eq!(
            p.cq_a.poll_one().unwrap().unwrap().status,
            CqeStatus::RemoteAccessError
        );
    }

    #[test]
    fn post_before_connect_is_rejected() {
        let fabric = Fabric::new();
        let nic = fabric.create_nic();
        let pd = nic.alloc_pd();
        let cq = CompletionQueue::new(8);
        let qp = nic.create_qp(pd, &cq, &cq).unwrap();
        let mr = nic.register(pd, 8).unwrap();
        // Recv pre-posting in Init is allowed.
        assert!(qp.post_recv(RecvWr::new(1, vec![Sge::whole(&mr)])).is_ok());
        // Sends are not.
        let r = qp.post_send(SendWr::Send {
            wr_id: 1,
            sges: crate::sge_list![Sge::whole(&mr)],
            imm: None,
        });
        assert!(matches!(r, Err(NicError::InvalidQpState { .. })));
    }

    #[test]
    fn pd_mismatch_rejected_at_post() {
        let p = pair();
        let other_pd = p.nic_a.alloc_pd();
        let mr = p.nic_a.register(other_pd, 8).unwrap();
        let r = p.a.post_send(SendWr::Send {
            wr_id: 1,
            sges: crate::sge_list![Sge::whole(&mr)],
            imm: None,
        });
        assert_eq!(r, Err(NicError::PdMismatch));
    }

    #[test]
    fn error_state_flushes_receives_and_sends() {
        let p = pair();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b
            .post_recv(RecvWr::new(1, vec![Sge::whole(&dst)]))
            .unwrap();
        assert_eq!(p.a.peer_alive(), Some(true));
        p.b.set_error();
        assert_eq!(p.a.peer_alive(), Some(false));
        let c = p.cq_b.poll_one().unwrap().unwrap();
        assert_eq!(c.status, CqeStatus::Flushed);
        assert_eq!(c.wr_id, 1);
        // A send toward the dead QP flushes locally.
        let src = p.nic_a.register_from(p.pd_a, b"x").unwrap();
        p.a
            .post_send(SendWr::Send {
                wr_id: 2,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        let c = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(c.status, CqeStatus::Flushed);
    }

    /// A send parked at a QP with no receive posted completes exactly
    /// once, `Flushed`, when that QP enters `Error`.
    #[test]
    fn error_state_flushes_parked_sends_to_their_senders() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"stuck").unwrap();
        p.a.post_send(SendWr::Send {
            wr_id: 7,
            sges: crate::sge_list![Sge::whole(&src)],
            imm: None,
        })
        .unwrap();
        assert_eq!(recv_depths(&p.b), (0, 1));
        assert!(p.cq_a.poll_one().unwrap().is_none());
        p.b.set_error();
        assert_eq!(recv_depths(&p.b), (0, 0));
        let tx = p.cq_a.poll(4).unwrap();
        assert_eq!(tx.len(), 1);
        assert_eq!(
            (tx[0].wr_id, tx[0].status, tx[0].opcode),
            (7, CqeStatus::Flushed, CqeOpcode::Send)
        );
        assert!(p.cq_b.poll_one().unwrap().is_none());
    }

    /// The peer is reached through the link `connect` cached, not
    /// through the handle: dropping every `QueuePair` handle of the peer
    /// leaves it connected, receiving and (to `peer_alive`) alive,
    /// because its NIC owns it for as long as the fabric stands.
    #[test]
    fn send_after_peer_handle_dropped_still_delivers_or_parks() {
        let Pair {
            fabric: _fabric,
            a,
            b,
            nic_a,
            nic_b,
            pd_a,
            pd_b,
            cq_a,
            cq_b,
        } = pair();
        let dst = nic_b.register(pd_b, 8).unwrap();
        b.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
        drop(b);
        assert_eq!(a.peer_alive(), Some(true));
        let src = nic_a.register_from(pd_a, b"orphan").unwrap();
        for wr_id in [2, 3] {
            a.post_send(SendWr::Send {
                wr_id,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        }
        // The first found the posted receive; the second parked.
        assert_eq!(dst.to_vec(0, 6).unwrap(), b"orphan");
        assert_eq!(cq_b.poll(4).unwrap().len(), 1);
        let tx = cq_a.poll(4).unwrap();
        assert_eq!(tx.len(), 1);
        assert_eq!((tx[0].wr_id, tx[0].status), (2, CqeStatus::Success));
    }

    #[test]
    fn fabric_down_is_reported_at_every_post() {
        let Pair {
            fabric,
            a,
            b,
            nic_a,
            pd_a,
            ..
        } = pair();
        let mr = nic_a.register(pd_a, 8).unwrap();
        drop(fabric);
        let send = a.post_send(SendWr::Send {
            wr_id: 1,
            sges: crate::sge_list![Sge::whole(&mr)],
            imm: None,
        });
        assert_eq!(send, Err(NicError::FabricDown));
        let recv = a.post_recv(RecvWr::new(2, vec![Sge::whole(&mr)]));
        assert_eq!(recv, Err(NicError::FabricDown));
        assert!(matches!(nic_a.register(pd_a, 8), Err(NicError::FabricDown)));
        assert_eq!(a.peer_alive(), None);
        assert_eq!(b.inner.peer.get().map(|link| link.num), Some(a.num()));
    }

    /// `set_chaos` and `set_obs` publish through one flag each; a change
    /// must be seen by the very next post.
    #[test]
    fn chaos_and_obs_toggles_take_effect_on_the_next_post() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, b"toggle").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        let post = |wr_id: u64| {
            p.b.post_recv(RecvWr::new(wr_id, vec![Sge::whole(&dst)]))
                .unwrap();
            p.a.post_send(SendWr::Send {
                wr_id,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
            p.cq_a.poll_one().unwrap().unwrap().status
        };
        assert_eq!(post(0), CqeStatus::Success);
        let obs = Obs::new();
        let (ok, dma) = (
            obs.counter("nic_cqe_total", &[("status", "ok")]),
            obs.counter("nic_dma_ops_total", &[]),
        );
        p.fabric.set_obs(obs);
        assert_eq!((ok.get(), dma.get()), (0, 0));
        assert_eq!(post(1), CqeStatus::Success);
        // One DMA; a receive and a send completion.
        assert_eq!((ok.get(), dma.get()), (2, 1));

        p.fabric.set_chaos(ChaosParams::drop_only(1, 1.0));
        assert_eq!(post(2), CqeStatus::RetryExceeded);
        // The receive armed for the dropped send is still posted.
        assert_eq!(recv_depths(&p.b), (1, 0));
    }

    #[test]
    fn polled_traffic_issues_no_wakeups() {
        let p = pair();
        let src = p.nic_a.register_from(p.pd_a, &[1u8; 64]).unwrap();
        let dst = p.nic_b.register(p.pd_b, 64).unwrap();
        let mut cqes = Vec::with_capacity(4);
        for i in 0..500 {
            p.b.post_recv(RecvWr::new(i, vec![Sge::whole(&dst)]))
                .unwrap();
            p.a.post_send(SendWr::Send {
                wr_id: i,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
            assert_eq!(p.cq_a.poll_into(&mut cqes, 4).unwrap(), 1);
            assert_eq!(p.cq_b.poll_into(&mut cqes, 4).unwrap(), 1);
        }
        assert_eq!((p.cq_a.delivered(), p.cq_b.delivered()), (500, 500));
        assert_eq!((p.cq_a.wakeups(), p.cq_b.wakeups()), (0, 0));
    }

    #[test]
    fn scatter_gather_across_multiple_sges() {
        let p = pair();
        let a1 = p.nic_a.register_from(p.pd_a, b"abcd").unwrap();
        let a2 = p.nic_a.register_from(p.pd_a, b"efgh").unwrap();
        let d1 = p.nic_b.register(p.pd_b, 3).unwrap();
        let d2 = p.nic_b.register(p.pd_b, 5).unwrap();
        p.b
            .post_recv(RecvWr::new(1, vec![Sge::whole(&d1), Sge::whole(&d2)]))
            .unwrap();
        p.a
            .post_send(SendWr::Send {
                wr_id: 2,
                sges: crate::sge_list![Sge::whole(&a1), Sge::whole(&a2)],
                imm: None,
            })
            .unwrap();
        assert_eq!(d1.to_vec(0, 3).unwrap(), b"abc");
        assert_eq!(d2.to_vec(0, 5).unwrap(), b"defgh");
    }

    #[test]
    fn cross_thread_ping_pong() {
        let p = pair();
        let iterations = 200;
        let nic_b = p.nic_b.clone();
        let pd_b = p.pd_b;
        let b = p.b.clone();
        let cq_b = p.cq_b.clone();
        let t = std::thread::spawn(move || {
            let buf = nic_b.register(pd_b, 8).unwrap();
            let reply = nic_b.register(pd_b, 8).unwrap();
            for i in 0..iterations {
                buf.write_at(0, &[0u8; 8]).unwrap();
                nic_b_post_recv(&b, &buf, i);
                let c = cq_b.wait_one(Duration::from_secs(5)).unwrap();
                assert_eq!(c.opcode, CqeOpcode::Recv);
                reply.write_at(0, &buf.to_vec(0, 8).unwrap()).unwrap();
                b.post_send(SendWr::Send {
                    wr_id: 1000 + i,
                    sges: crate::sge_list![Sge::whole(&reply)],
                    imm: None,
                })
                .unwrap();
                // Reap the send completion.
                let c = cq_b.wait_one(Duration::from_secs(5)).unwrap();
                assert_eq!(c.opcode, CqeOpcode::Send);
            }
        });
        let out = p.nic_a.register(p.pd_a, 8).unwrap();
        let back = p.nic_a.register(p.pd_a, 8).unwrap();
        for i in 0..iterations {
            out.write_at(0, &i.to_le_bytes()).unwrap();
            p.a
                .post_recv(RecvWr::new(i, vec![Sge::whole(&back)]))
                .unwrap();
            p.a
                .post_send(SendWr::Send {
                    wr_id: 500 + i,
                    sges: crate::sge_list![Sge::whole(&out)],
                    imm: None,
                })
                .unwrap();
            let mut got_recv = false;
            for _ in 0..2 {
                let c = p.cq_a.wait_one(Duration::from_secs(5)).unwrap();
                if c.opcode == CqeOpcode::Recv {
                    got_recv = true;
                    assert_eq!(
                        u64::from_le_bytes(back.to_vec(0, 8).unwrap().try_into().unwrap()),
                        i
                    );
                }
            }
            assert!(got_recv);
        }
        t.join().unwrap();
    }

    fn nic_b_post_recv(qp: &QueuePair, mr: &MemoryRegion, wr_id: u64) {
        qp.post_recv(RecvWr::new(wr_id, vec![Sge::whole(mr)])).unwrap();
    }

    #[test]
    fn chaos_drop_surfaces_retry_exceeded_to_sender_only() {
        let p = pair();
        // drop_prob = 1.0: every send dies on the wire.
        p.fabric.set_chaos(ChaosParams::drop_only(7, 1.0));
        let src = p.nic_a.register_from(p.pd_a, b"lost").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
        p.a.post_send(SendWr::Send {
            wr_id: 2,
            sges: crate::sge_list![Sge::whole(&src)],
            imm: None,
        })
        .unwrap();
        let tx = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(tx.status, CqeStatus::RetryExceeded);
        assert_eq!(tx.wr_id, 2);
        // Nothing reached the receiver; its recv is still posted.
        assert!(p.cq_b.poll_one().unwrap().is_none());
        assert_eq!(recv_depths(&p.b), (1, 0));
        assert_eq!(dst.to_vec(0, 4).unwrap(), vec![0u8; 4]);
        assert_eq!(p.fabric.chaos_stats().unwrap().drops, 1);
    }

    #[test]
    fn chaos_corruption_fails_icrc_on_both_sides() {
        let p = pair();
        p.fabric.set_chaos(ChaosParams { seed: 7, drop_prob: 0.0, corrupt_prob: 1.0 });
        let src = p.nic_a.register_from(p.pd_a, b"fragile!").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
        p.a.post_send(SendWr::Send {
            wr_id: 2,
            sges: crate::sge_list![Sge::whole(&src)],
            imm: None,
        })
        .unwrap();
        let rx = p.cq_b.poll_one().unwrap().unwrap();
        assert_eq!(rx.status, CqeStatus::ChecksumError);
        assert_eq!(rx.byte_len, 0);
        let tx = p.cq_a.poll_one().unwrap().unwrap();
        assert_eq!(tx.status, CqeStatus::RetryExceeded);
        // The payload landed damaged: exactly one byte differs.
        let got = dst.to_vec(0, 8).unwrap();
        let diff = got.iter().zip(b"fragile!").filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1);
        assert_eq!(p.fabric.chaos_stats().unwrap().corruptions, 1);
    }

    #[test]
    fn chaos_armed_clean_sends_pass_icrc() {
        let p = pair();
        p.fabric.set_chaos(ChaosParams { seed: 7, drop_prob: 0.0, corrupt_prob: 0.0 });
        let src = p.nic_a.register_from(p.pd_a, b"verified").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.b.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
        p.a.post_send(SendWr::Send {
            wr_id: 2,
            sges: crate::sge_list![Sge::whole(&src)],
            imm: None,
        })
        .unwrap();
        assert_eq!(p.cq_b.poll_one().unwrap().unwrap().status, CqeStatus::Success);
        assert_eq!(p.cq_a.poll_one().unwrap().unwrap().status, CqeStatus::Success);
        assert_eq!(dst.to_vec(0, 8).unwrap(), b"verified");
    }

    #[test]
    fn chaos_verdicts_replay_identically_across_fabrics() {
        let run = |seed: u64| -> Vec<CqeStatus> {
            let p = pair();
            p.fabric.set_chaos(ChaosParams { seed, drop_prob: 0.3, corrupt_prob: 0.3 });
            let src = p.nic_a.register_from(p.pd_a, b"replayme").unwrap();
            let dst = p.nic_b.register(p.pd_b, 8).unwrap();
            (0..100)
                .map(|i| {
                    p.b.post_recv(RecvWr::new(i, vec![Sge::whole(&dst)])).unwrap();
                    p.a.post_send(SendWr::Send {
                        wr_id: 1000 + i,
                        sges: crate::sge_list![Sge::whole(&src)],
                        imm: None,
                    })
                    .unwrap();
                    p.cq_a.poll_one().unwrap().unwrap().status
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert!(a.contains(&CqeStatus::RetryExceeded));
        assert!(a.contains(&CqeStatus::Success));
    }

    #[test]
    fn chaos_spares_one_sided_rdma() {
        let p = pair();
        p.fabric.set_chaos(ChaosParams { seed: 3, drop_prob: 1.0, corrupt_prob: 0.0 });
        let src = p.nic_a.register_from(p.pd_a, b"immune").unwrap();
        let dst = p.nic_b.register(p.pd_b, 8).unwrap();
        p.a.post_send(SendWr::RdmaWrite {
            wr_id: 1,
            sges: crate::sge_list![Sge::whole(&src)],
            remote: RemoteAddr {
                node: p.b.node(),
                rkey: dst.rkey(),
                offset: 0,
            },
        })
        .unwrap();
        assert_eq!(p.cq_a.poll_one().unwrap().unwrap().status, CqeStatus::Success);
        assert_eq!(dst.to_vec(0, 6).unwrap(), b"immune");
    }

    #[test]
    fn registration_stats_accumulate() {
        let p = pair();
        let before = p.fabric.stats();
        p.nic_a.register(p.pd_a, 4096).unwrap();
        let after = p.fabric.stats();
        assert_eq!(after.registrations, before.registrations + 1);
        assert_eq!(after.registered_bytes, before.registered_bytes + 4096);
    }
}
