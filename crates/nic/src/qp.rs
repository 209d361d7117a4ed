//! Queue pairs: the reliable-connected endpoints of the virtual NIC.
//!
//! A [`QueuePair`] follows the IB verbs life cycle (`Reset → Init → Rts`,
//! with `Error` reachable from anywhere). Work posted to the send queue is
//! executed synchronously by the posting thread — the "NIC processor" is
//! borrowed from the caller — which keeps the fabric deterministic while
//! preserving the verbs completion semantics: every send-queue work
//! request produces exactly one completion on the send CQ, every consumed
//! receive produces one on the receive CQ, and one-sided RDMA touches the
//! target's memory without involving its CPU.

use crate::chaos::{crc32, ChaosVerdict};
use crate::cq::{CompletionQueue, Cqe, CqeOpcode, CqeStatus};
use crate::error::{NicError, Result};
use crate::fabric::FabricInner;
use crate::mr::ProtectionDomain;
use crate::srq::SharedReceiveQueue;
use crate::types::{NodeId, QpNum, RemoteAddr};
use crate::wr::{sge_len, RecvWr, SendWr, Sge, SgeList};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Queue-pair state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QpState {
    /// Freshly created; nothing may be posted.
    Reset,
    /// Receives may be posted (pre-posting before connect is the normal
    /// pattern); sends may not.
    Init,
    /// Connected: fully operational.
    Rts,
    /// Broken: all work flushes.
    Error,
}

impl QpState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            QpState::Reset => "Reset",
            QpState::Init => "Init",
            QpState::Rts => "Rts",
            QpState::Error => "Error",
        }
    }
}

/// What a two-sided send carries besides its sender. The sender's
/// gather list is held (keeping its regions alive) until a receive
/// arrives to scatter into.
pub(crate) struct Body {
    sges: SgeList,
    imm: Option<u32>,
    /// Invariant CRC computed over the payload at post time; only
    /// carried when the fabric's chaos layer is armed.
    icrc: Option<u32>,
    /// Chaos verdict: flip a byte in flight so the receiver's ICRC
    /// check fails.
    corrupt: bool,
}

/// An inbound message parked at the target waiting for a receive to be
/// posted (the virtual equivalent of infinite RNR retry). Only a message
/// that finds no receive pays for this owned form; one that finds a
/// receive posted is delivered from the sender's borrowed state.
pub(crate) struct Inbound {
    body: Body,
    sender_cq: CompletionQueue,
    sender_qp: QpNum,
    sender_wr_id: u64,
}

impl Inbound {
    pub(crate) fn park(body: Body, sender: &QpInner, wr_id: u64) -> Self {
        Inbound {
            body,
            sender_cq: sender.sq_cq.clone(),
            sender_qp: sender.num,
            sender_wr_id: wr_id,
        }
    }

    /// Deliver into `recv` at the receiver `rx`, now that one is posted.
    pub(crate) fn deliver(self, rx: &QpInner, recv: RecvWr, fabric: &FabricInner) {
        let Inbound {
            body,
            sender_cq,
            sender_qp,
            sender_wr_id,
        } = self;
        let from = Origin {
            cq: &sender_cq,
            num: sender_qp,
            wr_id: sender_wr_id,
        };
        deliver(rx, recv, body, &from, fabric);
    }

    /// The receiving QP entered `Error` before a receive was posted:
    /// the message is never delivered, and its sender completes with
    /// `Flushed`, as a send posted to a dead peer does.
    pub(crate) fn flush(self) {
        let from = Origin {
            cq: &self.sender_cq,
            num: self.sender_qp,
            wr_id: self.sender_wr_id,
        };
        from.complete(CqeStatus::Flushed, CqeOpcode::Send, 0);
    }
}

/// The sender's half of a delivery: which work request completes, and
/// where its completion goes.
pub(crate) struct Origin<'a> {
    cq: &'a CompletionQueue,
    num: QpNum,
    wr_id: u64,
}

impl<'a> Origin<'a> {
    pub(crate) fn live(qp: &'a QpInner, wr_id: u64) -> Self {
        Origin {
            cq: &qp.sq_cq,
            num: qp.num,
            wr_id,
        }
    }

    /// Generate the sender-side completion of a remotely-delivered
    /// operation.
    fn complete(&self, status: CqeStatus, opcode: CqeOpcode, byte_len: usize) {
        self.cq.push(Cqe {
            wr_id: self.wr_id,
            status,
            opcode,
            byte_len,
            imm: None,
            qp: self.num,
        });
    }
}

/// Receive-side state guarded by one lock so that match decisions are
/// atomic: either a send finds a receive, or it parks — never both.
pub(crate) struct RecvState {
    pub(crate) posted: VecDeque<RecvWr>,
    pub(crate) inbound: VecDeque<Inbound>,
    /// Receive WQEs ever posted here.
    pub(crate) wqes: u64,
}

/// The connected peer, resolved once by `Fabric::connect`.
pub(crate) struct PeerLink {
    pub(crate) num: QpNum,
    /// Weak: the two ends of a connection must not keep each other
    /// alive. The peer's NIC owns it for as long as the fabric stands.
    pub(crate) qp: Weak<QpInner>,
}

pub(crate) struct QpInner {
    pub(crate) num: QpNum,
    pub(crate) node: NodeId,
    pub(crate) pd: ProtectionDomain,
    pub(crate) sq_cq: CompletionQueue,
    pub(crate) rq_cq: CompletionQueue,
    /// A [`QpState`] discriminant. Stores are `Release` and loads
    /// `Acquire`: whoever reads `Rts` also sees the `peer` that
    /// `Fabric::connect` set just before it.
    state: AtomicU8,
    /// Set once: `Init → Rts` is one-way, so a QP connects at most once
    /// and its peer cannot change afterwards.
    pub(crate) peer: OnceLock<PeerLink>,
    pub(crate) recv: Mutex<RecvState>,
    /// When attached, receives come from the shared pool instead of the
    /// per-QP queue.
    pub(crate) srq: Option<SharedReceiveQueue>,
    pub(crate) fabric: Weak<FabricInner>,
}

impl QpInner {
    pub(crate) fn new(
        num: QpNum,
        node: NodeId,
        pd: ProtectionDomain,
        sq_cq: CompletionQueue,
        rq_cq: CompletionQueue,
        srq: Option<SharedReceiveQueue>,
        fabric: Weak<FabricInner>,
    ) -> Self {
        QpInner {
            num,
            node,
            pd,
            sq_cq,
            rq_cq,
            state: AtomicU8::new(QpState::Init as u8),
            peer: OnceLock::new(),
            recv: Mutex::new(RecvState {
                posted: VecDeque::new(),
                inbound: VecDeque::new(),
                wqes: 0,
            }),
            srq,
            fabric,
        }
    }

    pub(crate) fn state(&self) -> QpState {
        match self.state.load(Ordering::Acquire) {
            0 => QpState::Reset,
            1 => QpState::Init,
            2 => QpState::Rts,
            _ => QpState::Error,
        }
    }

    pub(crate) fn set_state(&self, state: QpState) {
        self.state.store(state as u8, Ordering::Release);
    }
}

/// A reliable-connected queue pair handle.
#[derive(Clone)]
pub struct QueuePair {
    pub(crate) inner: Arc<QpInner>,
}

impl QueuePair {
    pub fn num(&self) -> QpNum {
        self.inner.num
    }

    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    pub fn state(&self) -> QpState {
        self.inner.state()
    }

    /// Whether the connected peer QP is currently operational: `None`
    /// if unconnected or the fabric is gone, otherwise whether the peer
    /// is not in the error state. This is the liveness signal failure
    /// detectors build on.
    pub fn peer_alive(&self) -> Option<bool> {
        let link = self.inner.peer.get()?;
        self.inner.fabric.upgrade()?;
        Some(link.qp.upgrade()?.state() != QpState::Error)
    }

    fn require_state(&self, ok: impl FnOnce(QpState) -> bool) -> Result<()> {
        let state = self.state();
        if ok(state) {
            Ok(())
        } else {
            Err(NicError::InvalidQpState {
                qp: self.num(),
                state: state.name(),
            })
        }
    }

    /// Post a receive. Legal in `Init` (pre-posting) and `Rts`.
    /// QPs attached to an SRQ must post to the SRQ instead.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        if self.inner.srq.is_some() {
            return Err(NicError::UsesSrq(self.num()));
        }
        self.require_state(|s| matches!(s, QpState::Init | QpState::Rts))?;
        check_sges(self.inner.pd, &wr.sges)?;
        let fabric = self.fabric()?;
        let mut rs = self.inner.recv.lock().unwrap();
        rs.wqes += 1;
        match rs.inbound.pop_front() {
            // A sender is already parked: match immediately.
            Some(inbound) => inbound.deliver(&self.inner, wr, &fabric),
            None => rs.posted.push_back(wr),
        }
        Ok(())
    }

    /// Post a send-queue work request. Legal only in `Rts`.
    pub fn post_send(&self, wr: SendWr) -> Result<()> {
        self.require_state(|s| s == QpState::Rts)?;
        check_sges(self.inner.pd, wr.sges())?;
        let fabric = self.fabric()?;
        let fabric = &*fabric;
        let link = self
            .inner
            .peer
            .get()
            .ok_or(NicError::NotConnected(self.num()))?;
        let peer = link.qp.upgrade().ok_or(NicError::NotConnected(link.num))?;
        fabric.count_send();
        if peer.state() == QpState::Error {
            // Retry exhaustion on real hardware: flush locally.
            self.push_sq(wr.wr_id(), CqeStatus::Flushed, send_opcode(&wr), 0);
            return Ok(());
        }
        match wr {
            SendWr::Send { wr_id, sges, imm } => {
                // Chaos layer: two-sided sends ride the lossy wire.
                let (icrc, corrupt) = match fabric.chaos_judge() {
                    None => (None, false),
                    Some(ChaosVerdict::Drop) => {
                        // Lost on the wire; transport retries exhaust
                        // and the sender learns via an error CQE.
                        self.push_sq(wr_id, CqeStatus::RetryExceeded, CqeOpcode::Send, 0);
                        return Ok(());
                    }
                    Some(verdict) => (
                        Some(crc32(&gather_bytes(&sges))),
                        verdict == ChaosVerdict::Corrupt,
                    ),
                };
                let body = Body {
                    sges,
                    imm,
                    icrc,
                    corrupt,
                };
                self.arrive(&peer, body, wr_id, fabric);
            }
            SendWr::RdmaWrite {
                wr_id,
                sges,
                remote,
            } => self.rdma(fabric, wr_id, &sges, remote, CqeOpcode::RdmaWrite),
            SendWr::RdmaRead {
                wr_id,
                sges,
                remote,
            } => self.rdma(fabric, wr_id, &sges, remote, CqeOpcode::RdmaRead),
        }
        Ok(())
    }

    /// Hand a message to the connected `peer`: deliver it into the
    /// oldest posted receive, or park it until one is posted. The
    /// decision is made under the receive side's one lock (the QP's, or
    /// its shared pool's), and a message that finds a receive is
    /// delivered from the sender's borrowed state.
    fn arrive(&self, peer: &Arc<QpInner>, body: Body, wr_id: u64, fabric: &FabricInner) {
        if let Some(srq) = &peer.srq {
            return srq.handle_inbound(peer, body, &self.inner, wr_id, fabric);
        }
        let mut rs = peer.recv.lock().unwrap();
        if peer.state() == QpState::Error {
            // `peer` failed after the sender checked it; `set_error`
            // has flushed (or is about to flush) what was parked there.
            drop(rs);
            return Inbound::park(body, &self.inner, wr_id).flush();
        }
        match rs.posted.pop_front() {
            Some(recv) => deliver(peer, recv, body, &Origin::live(&self.inner, wr_id), fabric),
            None => rs
                .inbound
                .push_back(Inbound::park(body, &self.inner, wr_id)),
        }
    }

    /// Force the QP into the error state, flushing posted receives and
    /// the messages parked for it (in its own queue, or on its shared
    /// receive queue): their senders complete with `Flushed`.
    pub fn set_error(&self) {
        self.inner.set_state(QpState::Error);
        if let Some(srq) = &self.inner.srq {
            srq.flush_parked(&self.inner);
        }
        let mut rs = self.inner.recv.lock().unwrap();
        for wr in rs.posted.drain(..) {
            self.inner.rq_cq.push(Cqe {
                wr_id: wr.wr_id,
                status: CqeStatus::Flushed,
                opcode: CqeOpcode::Recv,
                byte_len: 0,
                imm: None,
                qp: self.inner.num,
            });
        }
        let parked = std::mem::take(&mut rs.inbound);
        drop(rs);
        for inbound in parked {
            inbound.flush();
        }
    }

    fn fabric(&self) -> Result<Arc<FabricInner>> {
        self.inner.fabric.upgrade().ok_or(NicError::FabricDown)
    }

    /// Complete a send-queue work request on this QP's send CQ.
    fn push_sq(&self, wr_id: u64, status: CqeStatus, opcode: CqeOpcode, byte_len: usize) {
        Origin::live(&self.inner, wr_id).complete(status, opcode, byte_len);
    }

    /// Execute a one-sided RDMA write or read (`opcode`) between the
    /// local list `sges` and the region `remote` names, and complete it.
    fn rdma(
        &self,
        fabric: &FabricInner,
        wr_id: u64,
        sges: &[Sge],
        remote: RemoteAddr,
        opcode: CqeOpcode,
    ) {
        let total = sge_len(sges);
        let mr = fabric
            .lookup_mr(remote.node, remote.rkey)
            .ok()
            .filter(|mr| mr.check_bounds(remote.offset, total).is_ok());
        let Some(mr) = mr else {
            return self.push_sq(wr_id, CqeStatus::RemoteAccessError, opcode, 0);
        };
        let mut off = remote.offset;
        for sge in sges {
            // SAFETY: both sides bounds-checked; ownership contract covers
            // concurrent access.
            unsafe {
                let (local, far) = (sge.mr.inner.ptr().add(sge.offset), mr.ptr().add(off));
                let (src, dst) = match opcode {
                    CqeOpcode::RdmaRead => (far, local),
                    _ => (local, far),
                };
                std::ptr::copy_nonoverlapping(src, dst, sge.len);
            }
            off += sge.len;
        }
        fabric.count_dma(total as u64);
        self.push_sq(wr_id, CqeStatus::Success, opcode, total);
    }
}

/// The completion opcode a send-queue work request reports.
fn send_opcode(wr: &SendWr) -> CqeOpcode {
    match wr {
        SendWr::Send { .. } => CqeOpcode::Send,
        SendWr::RdmaWrite { .. } => CqeOpcode::RdmaWrite,
        SendWr::RdmaRead { .. } => CqeOpcode::RdmaRead,
    }
}

/// Every element must belong to `pd` and lie inside its region.
fn check_sges(pd: ProtectionDomain, sges: &[Sge]) -> Result<()> {
    for sge in sges {
        if sge.mr.pd() != pd {
            return Err(NicError::PdMismatch);
        }
        sge.mr.inner.check_bounds(sge.offset, sge.len)?;
    }
    Ok(())
}

/// Deliver a matched (message, receive) pair at the receiver `rx`.
///
/// Callers hold the receiver's recv lock (the QP's, or its shared
/// pool's), which is what made the match decision atomic; the copy
/// happens outside any sender-side lock.
pub(crate) fn deliver(
    rx: &QpInner,
    recv: RecvWr,
    body: Body,
    from: &Origin<'_>,
    fabric: &FabricInner,
) {
    let rx_done = |status, byte_len, imm| {
        rx.rq_cq.push(Cqe {
            wr_id: recv.wr_id,
            status,
            opcode: CqeOpcode::Recv,
            byte_len,
            imm,
            qp: rx.num,
        });
    };
    let Body {
        sges,
        imm,
        icrc,
        corrupt,
    } = body;
    let total = sge_len(&sges);
    if total > recv.capacity() {
        rx_done(CqeStatus::LocalProtectionError, 0, None);
        from.complete(CqeStatus::RemoteAccessError, CqeOpcode::Send, 0);
        return;
    }
    // Gather from the sender's regions, scatter into the receiver's:
    // this is the fabric "DMA", the single copy of the two-sided path.
    scatter_gather(&sges, &recv.sges);
    fabric.count_dma(total as u64);
    if corrupt && total > 0 {
        flip_byte(&recv.sges, total / 2);
    }
    // ICRC check (chaos runs only): recompute over what landed and
    // compare with what the sender stamped.
    if icrc.is_some_and(|expect| crc32(&read_scatter(&recv.sges, total)) != expect) {
        rx_done(CqeStatus::ChecksumError, 0, None);
        // The receiver NACKs the bad packet; the sender's retries
        // exhaust.
        from.complete(CqeStatus::RetryExceeded, CqeOpcode::Send, 0);
        return;
    }
    rx_done(CqeStatus::Success, total, imm);
    from.complete(CqeStatus::Success, CqeOpcode::Send, total);
}

/// Gather a scatter list's bytes into one contiguous buffer (ICRC input).
fn gather_bytes(sges: &[Sge]) -> Vec<u8> {
    read_scatter(sges, sge_len(sges))
}

/// Read the first `total` bytes spanned by a scatter list.
fn read_scatter(sges: &[Sge], total: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(total);
    let mut left = total;
    for s in sges {
        if left == 0 {
            break;
        }
        let n = s.len.min(left);
        // SAFETY: callers bounds-checked the list against its regions;
        // ownership contract covers concurrency.
        unsafe {
            let p = s.mr.inner.ptr().add(s.offset);
            out.extend_from_slice(std::slice::from_raw_parts(p, n));
        }
        left -= n;
    }
    out
}

/// Flip one byte at logical offset `at` within a scatter list: wire
/// corruption injected by the chaos layer.
fn flip_byte(sges: &[Sge], at: usize) {
    let mut off = at;
    for s in sges {
        if off < s.len {
            // SAFETY: offset is within the SGE, which the caller
            // bounds-checked against its region.
            unsafe {
                let p = s.mr.inner.ptr().add(s.offset + off);
                *p ^= 0x5A;
            }
            return;
        }
        off -= s.len;
    }
}

/// Copy `src` gather list into `dst` scatter list, byte-exact.
fn scatter_gather(src: &[Sge], dst: &[Sge]) {
    let mut di = 0;
    let mut doff = 0;
    for s in src {
        let mut soff = 0;
        while soff < s.len {
            let d = &dst[di];
            let n = (s.len - soff).min(d.len - doff);
            // SAFETY: callers bounds-checked both lists against their
            // regions; ownership contract covers concurrency.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    s.mr.inner.ptr().add(s.offset + soff),
                    d.mr.inner.ptr().add(d.offset + doff),
                    n,
                );
            }
            soff += n;
            doff += n;
            if doff == d.len {
                di += 1;
                doff = 0;
            }
        }
    }
}
