//! Shared receive queues.
//!
//! With per-QP receive buffering, an endpoint's eager-buffer memory grows
//! linearly with the number of peers — at the keynote's "exploding"
//! scales, thousands of peers times a per-peer window is gigabytes of
//! pinned memory per node. An SRQ lets all of a node's QPs consume
//! receives from one shared pool, making receive memory O(inflight)
//! instead of O(peers). Inbound messages that find the pool empty park
//! (in arrival order, preserving per-sender FIFO) until a buffer is
//! posted — the virtual equivalent of RNR retry.
//!
//! Each post is a receive WQE like a per-QP one: it is counted in
//! `nic_srq_wqe_total{node}`, and the completion it feeds is counted
//! against the QP the message arrived on, so the fabric-wide books read
//! `qp WQEs + SRQ WQEs == CQEs + armed receives`.

use crate::error::{NicError, Result};
use crate::fabric::FabricInner;
use crate::qp::{deliver, Body, Inbound, Origin, QpInner, QpState};
use crate::wr::RecvWr;
use polaris_obs::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, Weak};

pub(crate) struct SrqState {
    pub(crate) posted: VecDeque<RecvWr>,
    /// Inbound work parked for want of a buffer, with the receiving QP
    /// it belongs to (completion routing).
    pub(crate) parked: VecDeque<(Weak<QpInner>, Inbound)>,
}

pub(crate) struct SrqInner {
    pub(crate) state: Mutex<SrqState>,
    fabric: Weak<FabricInner>,
    /// `nic_srq_wqe_total{node}`, when the fabric had an attached plane
    /// at creation.
    wqe_posted: Option<Counter>,
}

/// A shared receive queue handle. Attach to QPs at creation via
/// [`crate::fabric::Nic::create_qp_with_srq`].
#[derive(Clone)]
pub struct SharedReceiveQueue {
    pub(crate) inner: Arc<SrqInner>,
}

impl SharedReceiveQueue {
    pub(crate) fn new(fabric: Weak<FabricInner>, wqe_posted: Option<Counter>) -> Self {
        SharedReceiveQueue {
            inner: Arc::new(SrqInner {
                state: Mutex::new(SrqState {
                    posted: VecDeque::new(),
                    parked: VecDeque::new(),
                }),
                fabric,
                wqe_posted,
            }),
        }
    }

    /// Post a receive buffer to the shared pool. If inbound work is
    /// parked, the oldest is delivered immediately (on the posting
    /// thread, like every transfer in the virtual NIC).
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        let fabric = self.inner.fabric.upgrade().ok_or(NicError::FabricDown)?;
        if let Some(c) = &self.inner.wqe_posted {
            c.inc();
        }
        let mut st = self.inner.state.lock().unwrap();
        // Drain the oldest parked inbound whose QP is still alive.
        while let Some((qp_weak, _)) = st.parked.front() {
            match qp_weak.upgrade() {
                Some(qp) => {
                    let (_, inbound) = st.parked.pop_front().expect("front exists");
                    inbound.deliver(&qp, wr, &fabric);
                    return Ok(());
                }
                None => {
                    st.parked.pop_front();
                }
            }
        }
        st.posted.push_back(wr);
        Ok(())
    }

    /// Buffers currently available and messages currently parked.
    pub fn depths(&self) -> (usize, usize) {
        let st = self.inner.state.lock().unwrap();
        (st.posted.len(), st.parked.len())
    }

    /// Handle a message from `sender` for `rx` (a QP attached to this
    /// SRQ): deliver with a pooled buffer or park.
    pub(crate) fn handle_inbound(
        &self,
        rx: &Arc<QpInner>,
        body: Body,
        sender: &Arc<QpInner>,
        wr_id: u64,
        fabric: &FabricInner,
    ) {
        let mut st = self.inner.state.lock().unwrap();
        if rx.state() == QpState::Error {
            // `rx` failed after the sender checked it; `set_error` has
            // flushed (or is about to flush) what was parked for it.
            drop(st);
            return Inbound::park(body, sender, wr_id).flush(fabric);
        }
        match st.posted.pop_front() {
            Some(recv) => deliver(rx, recv, body, &Origin::live(sender, wr_id), fabric),
            None => st
                .parked
                .push_back((Arc::downgrade(rx), Inbound::park(body, sender, wr_id))),
        }
    }

    /// `rx` entered `Error`: flush every message parked for it.
    pub(crate) fn flush_parked(&self, rx: &QpInner, fabric: &FabricInner) {
        let mut st = self.inner.state.lock().unwrap();
        let (dead, live): (VecDeque<_>, VecDeque<_>) = std::mem::take(&mut st.parked)
            .into_iter()
            .partition(|(qp, _)| std::ptr::eq(qp.as_ptr(), rx));
        st.parked = live;
        drop(st);
        for (_, inbound) in dead {
            inbound.flush(fabric);
        }
    }
}

impl std::fmt::Debug for SharedReceiveQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (posted, parked) = self.depths();
        f.debug_struct("SharedReceiveQueue")
            .field("posted", &posted)
            .field("parked", &parked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::time::Duration;

    type SrqWorld = (
        Fabric,
        Nic,
        Vec<QueuePair>,
        Vec<(Nic, QueuePair)>,
        SharedReceiveQueue,
        CompletionQueue,
    );

    /// Three senders, one receiver with an SRQ shared by all three QPs.
    fn world() -> SrqWorld {
        let fabric = Fabric::new();
        let rx_nic = fabric.create_nic();
        let rx_pd = rx_nic.alloc_pd();
        let rx_cq = CompletionQueue::new(64);
        let srq = rx_nic.create_srq();
        let mut rx_qps = Vec::new();
        let mut senders = Vec::new();
        for _ in 0..3 {
            let rx_qp = rx_nic
                .create_qp_with_srq(rx_pd, &rx_cq, &rx_cq, &srq)
                .unwrap();
            let tx_nic = fabric.create_nic();
            let tx_pd = tx_nic.alloc_pd();
            let tx_cq = CompletionQueue::new(64);
            let tx_qp = tx_nic.create_qp(tx_pd, &tx_cq, &tx_cq).unwrap();
            fabric.connect(&rx_qp, &tx_qp).unwrap();
            rx_qps.push(rx_qp);
            senders.push((tx_nic, tx_qp));
        }
        (fabric, rx_nic, rx_qps, senders, srq, rx_cq)
    }

    #[test]
    fn one_pool_serves_many_peers() {
        let (_f, rx_nic, rx_qps, senders, srq, rx_cq) = world();
        let rx_pd = rx_qps[0].inner.pd;
        // Post two pooled buffers for three senders.
        let bufs: Vec<MemoryRegion> =
            (0..2).map(|_| rx_nic.register(rx_pd, 64).unwrap()).collect();
        for (i, mr) in bufs.iter().enumerate() {
            srq.post_recv(RecvWr::new(i as u64, vec![Sge::whole(mr)])).unwrap();
        }
        // All three senders fire.
        for (i, (nic, qp)) in senders.iter().enumerate() {
            let src = nic
                .register_from(qp.inner.pd, format!("msg{i}").as_bytes())
                .unwrap();
            qp.post_send(SendWr::Send {
                wr_id: 100 + i as u64,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        }
        // Two delivered, one parked.
        let c1 = rx_cq.wait_one(Duration::from_secs(1)).unwrap();
        let c2 = rx_cq.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(c1.opcode, CqeOpcode::Recv);
        assert_ne!(c1.qp, c2.qp, "completions route to the right QP");
        let (posted, parked) = srq.depths();
        assert_eq!((posted, parked), (0, 1));
        // Posting one more buffer drains the parked message.
        let late = rx_nic.register(rx_pd, 64).unwrap();
        srq.post_recv(RecvWr::new(9, vec![Sge::whole(&late)])).unwrap();
        let c3 = rx_cq.wait_one(Duration::from_secs(1)).unwrap();
        assert_eq!(c3.wr_id, 9);
        assert_eq!(late.to_vec(0, 4).unwrap(), b"msg2");
        assert_eq!(srq.depths(), (0, 0));
    }

    #[test]
    fn qp_with_srq_rejects_direct_post_recv() {
        let (_f, rx_nic, rx_qps, _senders, _srq, _cq) = world();
        let mr = rx_nic.register(rx_qps[0].inner.pd, 8).unwrap();
        let err = rx_qps[0]
            .post_recv(RecvWr::new(1, vec![Sge::whole(&mr)]))
            .unwrap_err();
        assert!(matches!(err, NicError::UsesSrq(_)));
    }

    #[test]
    fn srq_posts_are_counted_as_wqes() {
        let fabric = Fabric::new();
        let obs = polaris_obs::Obs::new();
        fabric.set_obs(obs.clone());
        let (rx_nic, tx_nic) = (fabric.create_nic(), fabric.create_nic());
        let (rx_pd, tx_pd) = (rx_nic.alloc_pd(), tx_nic.alloc_pd());
        let (rx_cq, tx_cq) = (CompletionQueue::new(16), CompletionQueue::new(16));
        let srq = rx_nic.create_srq();
        let rx_qp = rx_nic.create_qp_with_srq(rx_pd, &rx_cq, &rx_cq, &srq).unwrap();
        let tx_qp = tx_nic.create_qp(tx_pd, &tx_cq, &tx_cq).unwrap();
        fabric.connect(&rx_qp, &tx_qp).unwrap();
        let bufs: Vec<MemoryRegion> = (0..3).map(|_| rx_nic.register(rx_pd, 8).unwrap()).collect();
        for (i, mr) in bufs.iter().enumerate() {
            srq.post_recv(RecvWr::new(i as u64, vec![Sge::whole(mr)])).unwrap();
        }
        let src = tx_nic.register_from(tx_pd, b"x").unwrap();
        tx_qp
            .post_send(SendWr::Send {
                wr_id: 7,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        let count = |name: &str| -> u64 {
            obs.registry
                .counters_snapshot()
                .into_iter()
                .filter(|(k, _)| k.starts_with(name))
                .map(|(_, v)| v)
                .sum()
        };
        let wqe = count("nic_qp_wqe_total") + count("nic_srq_wqe_total");
        // 3 receive posts and 1 send; a receive and a send completed;
        // two receives stay armed.
        assert_eq!(count("nic_srq_wqe_total"), 3);
        assert_eq!(wqe, count("nic_qp_cqe_total") + 2);
    }

    #[test]
    fn a_dead_qp_flushes_what_is_parked_for_it() {
        let (_f, _rx_nic, rx_qps, senders, srq, _rx_cq) = world();
        for (i, (nic, qp)) in senders.iter().enumerate() {
            let src = nic.register_from(qp.inner.pd, &[i as u8]).unwrap();
            qp.post_send(SendWr::Send {
                wr_id: i as u64,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        }
        assert_eq!(srq.depths(), (0, 3));
        rx_qps[1].set_error();
        // Sender 1's message is gone from the pool's queue and its send
        // completes; the other two stay parked, their senders waiting.
        assert_eq!(srq.depths(), (0, 2));
        let c = senders[1].1.inner.sq_cq.poll_one().unwrap().unwrap();
        assert_eq!((c.wr_id, c.status), (1, CqeStatus::Flushed));
        for i in [0, 2] {
            assert!(senders[i].1.inner.sq_cq.poll_one().unwrap().is_none());
        }
    }

    #[test]
    fn parked_messages_drain_in_arrival_order() {
        let (_f, rx_nic, rx_qps, senders, srq, rx_cq) = world();
        let rx_pd = rx_qps[0].inner.pd;
        // No buffers posted: all three park in order.
        for (i, (nic, qp)) in senders.iter().enumerate() {
            let src = nic.register_from(qp.inner.pd, &[i as u8]).unwrap();
            qp.post_send(SendWr::Send {
                wr_id: i as u64,
                sges: crate::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
        }
        assert_eq!(srq.depths(), (0, 3));
        for i in 0..3u64 {
            let mr = rx_nic.register(rx_pd, 8).unwrap();
            srq.post_recv(RecvWr::new(i, vec![Sge::whole(&mr)])).unwrap();
            let c = rx_cq.wait_one(Duration::from_secs(1)).unwrap();
            assert_eq!(c.wr_id, i);
            assert_eq!(mr.to_vec(0, 1).unwrap(), vec![i as u8]);
        }
    }
}
