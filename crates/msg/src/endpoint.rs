//! The messaging endpoint: one per rank, tying tag matching and the
//! eager / rendezvous / sockets protocols to the virtual NIC.
//!
//! # Protocols
//!
//! * **Eager** — the payload is copied into a pre-registered bounce
//!   buffer behind a 64-byte envelope and sent two-sided. One host copy
//!   on each side. Sends complete locally (buffered semantics).
//! * **Rendezvous** — the envelope (RTS) advertises the sender's
//!   registered buffer; the receiver pulls it with RDMA read and FINs.
//!   Zero host copies: the only data movement is the fabric DMA,
//!   straight between user buffers.
//! * **Sockets** — the 2002 kernel-path model: MTU segmentation, two
//!   extra copies per side (user ↔ socket buffer ↔ driver), and a
//!   syscall per segment sent and an interrupt per segment received,
//!   charged to the clock.
//!
//! # Virtual clock
//!
//! Each endpoint keeps a clock in picoseconds ([`Endpoint::clock`]),
//! priced by [`crate::model`] on one hop of its 2002 era link. A send
//! adds the protocol's send half when the program calls it and stamps
//! the envelope with the result. A receive that the program observes
//! complete (`recv` returns, or `wait_recv` / `test_recv` yields it)
//! sets `clock = max(clock, stamp + wire) + receive half`; a rendezvous
//! sender does the same with the FIN when it observes its send done.
//! Completions are *dispatched* in CQE arrival order, which depends on
//! thread timing, and `max` and `+` do not commute; so the clock moves
//! only in the program's own order. With every receive naming its
//! source, each clock is then a function of the program alone.
//!
//! # Progress
//!
//! An endpoint is owned and progressed by its node's thread. All
//! completion processing happens in [`Endpoint::progress`], which the
//! blocking helpers call in a spin loop. Data lands in the CQ from peer
//! threads (the virtual NIC executes transfers on the posting thread),
//! and the CQ's internal lock provides the happens-before edge.

use crate::buffer::{BufferPool, FramePool, FramePoolStats, MsgBuf, PoolStats};
use crate::config::{MsgConfig, Protocol, JITTER_SEED, MAX_RETRIES, SOCKETS_MTU};
use crate::envelope::{rel_sequenced, rel_src, rel_wire_seq, stamp_rel, Envelope, HEADER_LEN};
use crate::match_engine::{MatchEngine, MatchSpec};
use crate::model::{self, Halves};
use polaris_nic::prelude::*;
use polaris_obs::{Obs, Subject};
use polaris_simnet::fasthash::FastHashMap;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::SimDuration;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Request identifier returned by the nonblocking operations.
pub type ReqId = u64;

/// Completion record of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    pub src: u32,
    pub tag: u64,
    pub len: usize,
}

/// Messaging-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgError {
    /// Incoming message exceeds the posted buffer's capacity.
    Truncated { incoming: usize, capacity: usize },
    /// Underlying NIC failure.
    Nic(NicError),
    /// Timed out in a blocking wait.
    Timeout,
    /// The request id is unknown or already consumed.
    UnknownRequest(ReqId),
    /// Payload too large for the eager protocol's bounce buffers.
    TooLargeForEager { len: usize, max: usize },
    /// The peer rank's endpoint failed (crashed or was failed by test
    /// injection); pending and future operations toward it error out.
    PeerFailed(u32),
    /// This endpoint has been failed; no further operations are legal.
    EndpointDown,
    /// Configuration rejected.
    BadConfig(String),
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Truncated { incoming, capacity } => {
                write!(f, "message of {incoming} bytes truncated to {capacity}")
            }
            MsgError::Nic(e) => write!(f, "nic: {e}"),
            MsgError::Timeout => write!(f, "timed out"),
            MsgError::UnknownRequest(r) => write!(f, "unknown request {r}"),
            MsgError::TooLargeForEager { len, max } => {
                write!(f, "{len} bytes exceeds eager capacity {max}")
            }
            MsgError::PeerFailed(r) => write!(f, "peer rank {r} failed"),
            MsgError::EndpointDown => write!(f, "this endpoint has been failed"),
            MsgError::BadConfig(s) => write!(f, "bad config: {s}"),
        }
    }
}

impl std::error::Error for MsgError {}

impl From<NicError> for MsgError {
    fn from(e: NicError) -> Self {
        MsgError::Nic(e)
    }
}

pub type MsgResult<T> = Result<T, MsgError>;

/// Per-endpoint traffic and copy accounting. Host copies are the copies
/// the zero-copy design eliminates; the fabric's DMA counter lives in
/// [`FabricStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub bytes_received: u64,
    pub host_copies: u64,
    pub host_copy_bytes: u64,
    pub eager_sends: u64,
    pub rendezvous_sends: u64,
    pub sockets_segments: u64,
    pub unexpected_arrivals: u64,
    /// Send-bounce slots registered: about the most eager and control
    /// sends in flight at once. A slot is sized to the frames it
    /// carries, an MTU segment or a full eager frame; slots recycle
    /// within their size and are never given back.
    pub tx_slots_registered: u64,
    /// Frames retransmitted by the reliability layer (timer or fast).
    pub rel_retransmits: u64,
    /// Duplicate frames discarded by receive-side dedup.
    pub rel_dups: u64,
    /// Acknowledgement frames sent.
    pub rel_acks: u64,
}

// wr_id encoding: kind in the top byte, payload below.
const K_RX: u64 = 1 << 56;
const K_TX_BOUNCE: u64 = 2 << 56;
const K_RDMA_READ: u64 = 3 << 56;
const K_GATHER: u64 = 4 << 56;
const KIND_MASK: u64 = 0xff << 56;
const PAYLOAD_MASK: u64 = !KIND_MASK;

/// What observing a completion does to the clock: `clock = max(clock,
/// due) + cost`. A posted receive starts at its posting instant with no
/// cost; the message that meets it raises `due` to the instant it
/// landed and sets `cost` to the receive half.
#[derive(Clone, Copy, Default)]
struct Charge {
    due: SimDuration,
    cost: SimDuration,
}

impl Charge {
    /// A message stamped `stamp` and priced `h`: it has landed once it
    /// crossed the wire, and taking it costs the receive half.
    fn landed(stamp: u64, h: Halves) -> Charge {
        Charge {
            due: SimDuration::from_ps(stamp) + h.wire,
            cost: h.recv,
        }
    }

    /// The receive this charge was posted for meets `msg`.
    fn meet(self, msg: Charge) -> Charge {
        Charge {
            due: self.due.max(msg.due),
            cost: msg.cost,
        }
    }

    /// When the operation completes, clock aside.
    fn done(self) -> SimDuration {
        self.due + self.cost
    }

    fn apply(self, clock: &mut SimDuration) {
        *clock = (*clock).max(self.due) + self.cost;
    }
}

/// The FIN answering rendezvous `msg_id`, stamped with the instant its
/// receive completes plus the FIN's own send half.
fn fin_for(msg_id: u64, done: SimDuration) -> Envelope {
    Envelope::Fin {
        msg_id,
        stamp: (done + model::era_fin().send).as_ps(),
    }
}

/// A rendezvous RTS as its receiver holds it, with the charge its stamp
/// brings.
#[derive(Clone, Copy)]
struct Rts {
    len: u64,
    msg_id: u64,
    rkey: u64,
    charge: Charge,
}

/// What an unmatched arrival parks in the match engine, with the charge
/// its stamp brings.
enum Parked {
    /// Eager (or reassembled sockets) data copied off the bounce buffer.
    /// Its copies are counted as they happen, so delivery adds only the
    /// final one.
    Data(Vec<u8>, Charge),
    /// A rendezvous RTS: no data moved yet — the zero-copy property
    /// holds even for unexpected messages.
    Rts(Rts),
}

/// Where a received envelope's payload is: still in the receive bounce
/// buffer it landed in (reliability off), or in a frame the reliability
/// layer copied off one. Either way it starts `HEADER_LEN` bytes in.
#[derive(Clone, Copy)]
enum Payload<'a> {
    /// Index into `Endpoint::rx_bufs`.
    Bounce(usize),
    Frame(&'a [u8]),
}

impl Payload<'_> {
    /// Fill `dst` with the first `dst.len()` payload bytes.
    fn copy_to(self, rx_bufs: &[MemoryRegion], dst: &mut [u8]) {
        match self {
            Payload::Bounce(idx) => rx_bufs[idx]
                .read_at(HEADER_LEN, dst)
                .expect("bounce payload"),
            Payload::Frame(frame) => {
                dst.copy_from_slice(&frame[HEADER_LEN..HEADER_LEN + dst.len()])
            }
        }
    }
}

/// Where a send request stands. Its buffer rides alongside in
/// [`SendReq`], so a transition rewrites this tag in place.
#[derive(Clone, Copy)]
enum SendPhase {
    /// Completed; buffer ready to hand back.
    Done,
    /// The destination failed mid-flight; the buffer is recycled when
    /// the caller reaps the error.
    Failed { peer: u32 },
    /// Rendezvous: waiting for the receiver's FIN.
    AwaitFin { dst: u32 },
    /// Gather-eager: the NIC reads the user buffer's blocks directly;
    /// the buffer and the header slot are held until the send completes.
    GatherInflight { slot: usize, dst: u32 },
}

struct SendReq {
    buf: MsgBuf,
    phase: SendPhase,
    /// Applied when the send is reaped: the FIN's, for a rendezvous.
    charge: Charge,
}

/// Where a receive request stands; its buffer rides alongside in
/// [`RecvReq`] from `irecv` until the request is reaped.
enum RecvPhase {
    /// Posted, unmatched.
    Posted,
    /// Rendezvous read in flight.
    Reading {
        src: u32,
        tag: u64,
        len: usize,
        msg_id: u64,
    },
    /// Finished.
    Done(MsgResult<RecvInfo>),
}

struct RecvReq {
    buf: MsgBuf,
    phase: RecvPhase,
    /// Applied when the receive is reaped.
    charge: Charge,
}

/// A reliable frame awaiting acknowledgement.
struct PendingTx {
    /// Full frame bytes (header + payload) for retransmission.
    frame: Vec<u8>,
    /// When the retransmission timer fires next.
    deadline: Instant,
    /// Current (backed-off) retransmission timeout.
    rto: Duration,
    retries: u32,
    /// Transmissions of the frame still at the NIC: parked at the peer
    /// for want of a receive buffer, their send completion not yet
    /// back. The timer waits for them, so it covers a lost ACK only; a
    /// dropped or corrupted frame fails its send completion and takes
    /// the fast path instead.
    in_flight: u32,
}

/// Per-peer reliability state: the TX window toward the peer and the RX
/// dedup/reorder state for frames from it.
///
/// Sequence numbers are 64-bit *extended* counters in here (they never
/// wrap in any realizable session), while the wire carries only their
/// low 32 bits ([`stamp_rel`]). Receive and ACK paths reconstruct the
/// extended value with the wrapping-window helpers [`extend_seq`] /
/// [`extend_ack`], so the ordinary `u64` comparisons below stay exact
/// across the `u32::MAX` wire boundary.
#[derive(Default)]
struct PeerRel {
    /// Extended sequence number of the last reliable frame sent toward
    /// this peer (the stream starts at 1).
    next_seq: u64,
    /// Unacknowledged frames, by extended sequence number.
    pending: BTreeMap<u64, PendingTx>,
    /// Highest extended sequence processed in order from this peer.
    rx_cum: u64,
    /// Frames that arrived ahead of a gap, parked until it fills, by
    /// extended sequence number.
    rx_ooo: BTreeMap<u64, Vec<u8>>,
}

/// Half of the 32-bit wire sequence space: the dedup/reorder window. A
/// wire seq less than `HALF_SEQ_WINDOW` ahead of the cumulative
/// watermark (mod 2^32) is new; everything else is a replay.
const HALF_SEQ_WINDOW: u32 = 1 << 31;

/// Reconstruct the extended sequence number behind a 32-bit wire seq,
/// relative to the receiver's cumulative watermark `cum`.
///
/// The window is asymmetric around `cum`: up to `HALF_SEQ_WINDOW - 1`
/// ahead (new frames, far beyond any real in-flight window) and
/// `HALF_SEQ_WINDOW` behind (stale retransmissions whose ACK was lost).
/// Plain `wire as u64` comparison — the pre-fix behaviour once wire
/// seqs narrow — would misclassify every frame after the stream crosses
/// `u32::MAX`: the watermark would compare above all new frames and the
/// session would stall discarding them as duplicates.
fn extend_seq(cum: u64, wire: u32) -> u64 {
    let ahead = wire.wrapping_sub(cum as u32);
    if ahead < HALF_SEQ_WINDOW {
        cum + ahead as u64
    } else {
        // Behind the watermark (mod 2^32): a duplicate from the past.
        // Saturate for garbage arriving before the stream has advanced
        // that far; it lands at 0 and is dropped by the `<= cum` dedup.
        cum.saturating_sub((cum as u32).wrapping_sub(wire) as u64)
    }
}

/// Reconstruct the extended sequence number behind an ACK's 32-bit wire
/// seq, relative to `highest_sent` (the sender's own extended counter).
/// ACKs can only reference frames already sent, so the window extends
/// strictly backwards from `highest_sent`.
fn extend_ack(highest_sent: u64, wire: u32) -> u64 {
    highest_sent.saturating_sub((highest_sent as u32).wrapping_sub(wire) as u64)
}

/// Sockets-baseline reassembly state for one inbound message.
struct SockAssembly {
    src: u32,
    tag: u64,
    total: usize,
    got: usize,
    /// Every segment of a message carries the same stamp.
    stamp: u64,
    /// Reassembly buffer, drawn from (and returned to) the frame pool.
    data: Vec<u8>,
}

/// Per-endpoint trace plane: the flight recorder plus a logical event
/// clock. The executable stack runs on wall-clock RTO timers, so trace
/// timestamps here are a deterministic per-endpoint operation count,
/// not wall time (see docs/TRACE_SCHEMA.md).
struct EpObs {
    obs: Obs,
    clock: u64,
}

impl EpObs {
    fn instant(&mut self, subject: Subject, name: &'static str, fields: &[(&'static str, u64)]) {
        self.clock += 1;
        self.obs.instant(self.clock, subject, name, fields);
    }

    fn enter(&mut self, subject: Subject, name: &'static str, fields: &[(&'static str, u64)]) {
        self.clock += 1;
        self.obs.enter(self.clock, subject, name, fields);
    }

    fn exit(&mut self, subject: Subject, name: &'static str, fields: &[(&'static str, u64)]) {
        self.clock += 1;
        self.obs.exit(self.clock, subject, name, fields);
    }
}

/// A messaging endpoint for one rank.
pub struct Endpoint {
    rank: u32,
    size: u32,
    nic: Nic,
    pd: ProtectionDomain,
    cq: CompletionQueue,
    cfg: MsgConfig,
    /// One connected queue pair per peer rank, self included. The NIC
    /// numbers its QPs densely from zero and the world builder creates
    /// them in rank order, so `qps[p].num() == QpNum(p)`: a completion's
    /// `qp` field names the peer it came from.
    qps: Vec<QueuePair>,
    /// The shared receive pool every QP draws from, and its bounce
    /// buffers, indexed by the slot in the rx wr_id.
    srq: SharedReceiveQueue,
    rx_bufs: Vec<MemoryRegion>,
    pool: BufferPool,
    /// Recycled wire-frame vectors (reliability frames, parked payloads).
    frames: FramePool,
    /// Scratch buffer for batched CQ polling; reused across progress
    /// calls so steady-state polling is allocation-free.
    cq_scratch: Vec<Cqe>,
    /// Send bounce slots, registered on first need; `None` while being
    /// filled. A slot is registered at one of two sizes, and each size
    /// keeps its own free list (see `tx_slot_size`).
    tx_slots: Vec<Option<MemoryRegion>>,
    tx_free: [Vec<usize>; 2],
    matcher: MatchEngine<ReqId, Parked>,
    /// Requests by id. Ids and assembly keys all come from this
    /// process's own counters, so the maps use the fast integer hasher;
    /// a reaped id is removed, which is what makes a second reap
    /// [`MsgError::UnknownRequest`].
    sends: FastHashMap<ReqId, SendReq>,
    recvs: FastHashMap<ReqId, RecvReq>,
    /// Original user buffers for layout sends that fell back to
    /// pack+rendezvous: returned in place of the packed staging buffer.
    sends_return_original: FastHashMap<u64, MsgBuf>,
    sock_assembly: FastHashMap<u64, SockAssembly>,
    next_req: u64,
    /// Peers known to have failed (via detect_failures or explicit mark).
    failed_peers: std::collections::HashSet<u32>,
    /// Whether this endpoint itself has been failed.
    down: bool,
    /// Per-peer reliability state (allocated only when enabled).
    rel: Vec<PeerRel>,
    /// Reliable frames in flight, indexed by tx slot like `tx_slots`,
    /// for fast retransmission when the fabric reports the frame lost
    /// (error completion).
    tx_slot_rel: Vec<Option<(u32, u64)>>,
    /// Deterministic jitter for retransmission backoff.
    rel_rng: SplitMix64,
    stats: EndpointStats,
    /// Scratch "kernel buffer" for the sockets model's extra copies.
    kstage: Vec<u8>,
    /// Trace plane; `None` = untraced.
    obs: Option<EpObs>,
    /// Virtual time, in picoseconds (see the module docs).
    clock: SimDuration,
    /// Whether a receive without a source was ever posted: which message
    /// it matches depends on arrival order, and so does the clock.
    wildcard_posted: bool,
}

impl Endpoint {
    /// Build the full set of endpoints for an `n`-rank job on `fabric`.
    /// This performs the out-of-band bootstrap: one QP per ordered pair,
    /// all-to-all connected, each endpoint's shared receive pool
    /// pre-posted. Receive memory per endpoint is `srq_bufs` bounce
    /// buffers, whatever `n` is; send bounce slots are registered by the
    /// first sends that need them.
    pub fn create_world(fabric: &Fabric, n: u32, cfg: MsgConfig) -> MsgResult<Vec<Endpoint>> {
        cfg.validate().map_err(MsgError::BadConfig)?;
        let mut eps: Vec<Endpoint> = Vec::with_capacity(n as usize);
        for rank in 0..n {
            let nic = fabric.create_nic();
            let pd = nic.alloc_pd();
            // Outstanding receive completions are bounded by the pool
            // (a buffer is reposted only after its CQE is handled), and
            // send completions by the send slots in flight; the constant
            // leaves room for those under bursts and for RDMA completions.
            let cq = CompletionQueue::new(cfg.srq_bufs * 4 + 1280);
            let srq = nic.create_srq();
            let rx_bufs = (0..cfg.srq_bufs)
                .map(|_| nic.register(pd, cfg.eager_buf_size + HEADER_LEN))
                .collect::<Result<Vec<_>, _>>()?;
            let mut qps = Vec::with_capacity(n as usize);
            for peer in 0..n {
                let qp = nic.create_qp_with_srq(pd, &cq, &cq, &srq)?;
                assert_eq!(qp.num(), QpNum(peer), "a fresh NIC numbers its QPs from zero");
                qps.push(qp);
            }
            let pool = BufferPool::new(nic.clone(), pd, cfg.reg_cache_capacity);
            eps.push(Endpoint {
                rank,
                size: n,
                nic,
                pd,
                cq,
                cfg,
                qps,
                srq,
                rx_bufs,
                pool,
                frames: FramePool::new(64),
                cq_scratch: Vec::with_capacity(64),
                tx_slots: Vec::new(),
                tx_free: [Vec::new(), Vec::new()],
                matcher: MatchEngine::new(),
                sends: FastHashMap::with_capacity_and_hasher(64, Default::default()),
                recvs: FastHashMap::with_capacity_and_hasher(64, Default::default()),
                sends_return_original: FastHashMap::default(),
                sock_assembly: FastHashMap::default(),
                next_req: 1,
                failed_peers: std::collections::HashSet::new(),
                down: false,
                rel: if cfg.reliability.enabled {
                    (0..n).map(|_| PeerRel::default()).collect()
                } else {
                    Vec::new()
                },
                tx_slot_rel: Vec::new(),
                rel_rng: SplitMix64::new(JITTER_SEED ^ rank as u64),
                stats: EndpointStats::default(),
                kstage: Vec::new(),
                obs: None,
                clock: SimDuration::ZERO,
                wildcard_posted: false,
            });
        }
        // Connect every ordered pair once: ep[i].qp[j] <-> ep[j].qp[i].
        for i in 0..n as usize {
            for j in i..n as usize {
                if i == j {
                    let qp = eps[i].qps[i].clone();
                    fabric.connect(&qp, &qp)?;
                } else {
                    let a = eps[i].qps[j].clone();
                    let b = eps[j].qps[i].clone();
                    fabric.connect(&a, &b)?;
                }
            }
        }
        // Pre-post each endpoint's receive pool.
        for ep in &eps {
            for (idx, mr) in ep.rx_bufs.iter().enumerate() {
                ep.srq.post_recv(RecvWr::new(
                    K_RX | idx as u64,
                    SgeList::single(Sge::whole(mr)),
                ))?;
            }
        }
        Ok(eps)
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Attach a flight recorder: each rendezvous is traced as a span
    /// (RTS opens it, FIN closes it) and each retransmission as an
    /// instant, under `peer:R->P`. Counts stay in [`Endpoint::stats`].
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(EpObs { obs, clock: 0 });
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    pub fn config(&self) -> &MsgConfig {
        &self.cfg
    }

    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// This rank's virtual time: the 2002 cost of every send it made and
    /// every completion it observed, in program order.
    pub fn clock(&self) -> SimDuration {
        debug_assert!(
            !self.wildcard_posted,
            "rank {}: a receive without a source matches whatever arrives first, \
             so its clock depends on thread timing",
            self.rank
        );
        self.clock
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    pub fn frame_pool_stats(&self) -> FramePoolStats {
        self.frames.stats()
    }

    /// Reliability-layer work still in flight: frames awaiting an ACK
    /// (retransmission timers may yet fire) plus inbound messages parked
    /// at the NIC for want of a receive buffer. Zero across *all*
    /// endpoints of a world means the wire has reached a fixed point —
    /// no timer can resurrect traffic and every armed receive buffer is
    /// back in place once the completion queues drain. Conservation
    /// auditors poll progress until this settles before reconciling
    /// ledgers; checking frame-pool occupancy alone is not enough (a
    /// late retransmission can consume a receive buffer after the pool
    /// looks idle).
    pub fn rel_inflight(&self) -> usize {
        let pending: usize = self.rel.iter().map(|r| r.pending.len()).sum();
        pending + self.srq.depths().1
    }

    /// Pretend `seq` reliable frames have already been exchanged with
    /// `peer` in both directions: the TX stream toward the peer and the
    /// RX watermark from it resume at `seq + 1`. Both sides of a
    /// connection must be fast-forwarded symmetrically, on a fresh
    /// session (nothing in flight). Lets tests and the sentinel fuzzer
    /// place a session just below the 32-bit wire-seq wrap without
    /// sending four billion frames.
    #[doc(hidden)]
    pub fn rel_fast_forward(&mut self, peer: u32, seq: u64) {
        if !self.cfg.reliability.enabled {
            return;
        }
        let rel = &mut self.rel[peer as usize];
        assert!(
            rel.next_seq == 0 && rel.rx_cum == 0 && rel.pending.is_empty() && rel.rx_ooo.is_empty(),
            "rel_fast_forward requires a quiescent, fresh session"
        );
        rel.next_seq = seq;
        rel.rx_cum = seq;
    }

    /// Allocate a registered message buffer (through the registration
    /// cache).
    pub fn alloc(&mut self, len: usize) -> MsgResult<MsgBuf> {
        Ok(self.pool.alloc(len)?)
    }

    /// Return a buffer to the registration cache.
    pub fn release(&mut self, buf: MsgBuf) {
        self.pool.free(buf);
    }

    /// Nonblocking send: the buffer is consumed and handed back by
    /// [`Endpoint::wait_send`].
    pub fn isend(&mut self, dst: u32, tag: u64, buf: MsgBuf) -> MsgResult<ReqId> {
        assert!(dst < self.size, "destination rank out of range");
        self.check_up()?;
        if self.failed_peers.contains(&dst) {
            return Err(MsgError::PeerFailed(dst));
        }
        let req = self.next_req;
        self.next_req += 1;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += buf.len() as u64;
        match self.cfg.protocol_for(buf.len()) {
            Protocol::Eager => self.send_eager(dst, tag, buf, req)?,
            Protocol::Rendezvous => self.send_rendezvous(dst, tag, buf, req)?,
            Protocol::Sockets => self.send_sockets(dst, tag, buf, req)?,
            Protocol::Auto => unreachable!("protocol_for resolves Auto"),
        }
        Ok(req)
    }

    /// Nonblocking receive into `buf`; matching per `spec`.
    pub fn irecv(&mut self, spec: MatchSpec, buf: MsgBuf) -> MsgResult<ReqId> {
        self.check_up()?;
        if let Some(src) = spec.src {
            if self.failed_peers.contains(&src) {
                return Err(MsgError::PeerFailed(src));
            }
        }
        let req = self.next_req;
        self.next_req += 1;
        self.wildcard_posted |= spec.src.is_none();
        self.recvs.insert(
            req,
            RecvReq {
                buf,
                phase: RecvPhase::Posted,
                charge: Charge {
                    due: self.clock,
                    cost: SimDuration::ZERO,
                },
            },
        );
        if let Some(un) = self.matcher.post_recv(spec, req) {
            let (src, tag) = (un.src, un.tag);
            match un.payload {
                Parked::Data(data, charge) => {
                    self.deliver_data(req, src, tag, &data, charge);
                    self.frames.release(data);
                }
                Parked::Rts(rts) => {
                    if let Err(e) = self.start_rendezvous_recv(req, src, tag, rts) {
                        self.recvs.remove(&req);
                        return Err(e);
                    }
                }
            }
        }
        Ok(req)
    }

    // ------------------------------------------------------------------
    // Fault tolerance
    // ------------------------------------------------------------------

    /// Fail this endpoint: all of its queue pairs enter the error state
    /// (flushing posted work) and further operations return
    /// [`MsgError::EndpointDown`]. Peers observe the failure through
    /// [`Endpoint::detect_failures`] or flushed completions. Used for
    /// failure injection; a real node crash has the same fabric-visible
    /// effect.
    pub fn fail(&mut self) {
        self.down = true;
        for qp in &self.qps {
            qp.set_error();
        }
    }

    /// Whether `peer`'s endpoint is operational, per the fabric.
    pub fn peer_alive(&self, peer: u32) -> bool {
        if self.failed_peers.contains(&peer) {
            return false;
        }
        self.qps[peer as usize].peer_alive().unwrap_or(false)
    }

    /// Poll every peer's liveness (the messaging-level analogue of a
    /// heartbeat sweep) and fail over pending work toward dead peers.
    /// Returns the ranks newly discovered dead.
    pub fn detect_failures(&mut self) -> Vec<u32> {
        let mut newly = Vec::new();
        for peer in 0..self.size {
            if peer == self.rank || self.failed_peers.contains(&peer) {
                continue;
            }
            if self.qps[peer as usize].peer_alive() == Some(false) {
                newly.push(peer);
            }
        }
        for &p in &newly {
            self.mark_peer_failed(p);
        }
        newly
    }

    /// Declare `peer` failed (e.g. from an external failure detector):
    /// every pending send toward it and receive from it completes with
    /// [`MsgError::PeerFailed`]; future operations naming it fail fast.
    pub fn mark_peer_failed(&mut self, peer: u32) {
        if !self.failed_peers.insert(peer) {
            return;
        }
        // Fail in-flight sends toward the peer. A gather send's header
        // slot is NOT recycled: the send may still be parked at a
        // live-but-suspected peer, and a reused slot would corrupt that
        // parked message's header. The slot returns via its own CQE if
        // the send ever completes; otherwise it is retired.
        for sr in self.sends.values_mut() {
            if let SendPhase::AwaitFin { dst } | SendPhase::GatherInflight { dst, .. } = sr.phase {
                if dst == peer {
                    sr.phase = SendPhase::Failed { peer };
                }
            }
        }
        // Fail in-flight receives from the peer.
        for rr in self.recvs.values_mut() {
            if let RecvPhase::Reading { src, .. } = rr.phase {
                if src == peer {
                    rr.phase = RecvPhase::Done(Err(MsgError::PeerFailed(peer)));
                }
            }
        }
        // Posted receives that can only ever match the dead peer.
        let cancelled = self.matcher.cancel_posted(|spec| spec.src == Some(peer));
        for req in cancelled {
            if let Some(rr) = self.recvs.get_mut(&req) {
                if matches!(rr.phase, RecvPhase::Posted) {
                    rr.phase = RecvPhase::Done(Err(MsgError::PeerFailed(peer)));
                }
            }
        }
        // Half-assembled sockets messages from the peer never finish.
        let Endpoint {
            sock_assembly,
            frames,
            ..
        } = self;
        sock_assembly.retain(|_, asm| {
            let dead = asm.src == peer;
            if dead {
                frames.release(std::mem::take(&mut asm.data));
            }
            !dead
        });
    }

    fn check_up(&self) -> MsgResult<()> {
        if self.down {
            Err(MsgError::EndpointDown)
        } else {
            Ok(())
        }
    }

    /// Drive the protocol engine: drain completions, advance state, and
    /// (when reliability is on) sweep retransmission timers. Returns the
    /// number of completions processed.
    pub fn progress(&mut self) -> usize {
        // The scratch is taken out of `self` for the duration of the
        // drain: `handle_cqe` may recurse into slot acquisition, which
        // must not observe a half-consumed buffer.
        let mut scratch = std::mem::take(&mut self.cq_scratch);
        let n = match self.cq.poll_into(&mut scratch, 64) {
            Ok(n) => n,
            Err(_) => {
                self.cq_scratch = scratch;
                return 0;
            }
        };
        for &cqe in &scratch {
            self.handle_cqe(cqe);
        }
        scratch.clear();
        self.cq_scratch = scratch;
        if self.cfg.reliability.enabled && !self.down {
            self.rel_tick();
        }
        n
    }

    /// Take a finished send out of the table: its buffer, its error, or
    /// `None` while it is still in flight.
    fn reap_send(&mut self, req: ReqId) -> MsgResult<Option<MsgBuf>> {
        let Entry::Occupied(e) = self.sends.entry(req) else {
            return Err(MsgError::UnknownRequest(req));
        };
        match e.get().phase {
            SendPhase::Done => {
                let SendReq { buf, charge, .. } = e.remove();
                charge.apply(&mut self.clock);
                Ok(Some(self.finish_send_buf(req, buf)))
            }
            SendPhase::Failed { peer } => {
                self.pool.free(e.remove().buf);
                self.sends_return_original.remove(&req);
                Err(MsgError::PeerFailed(peer))
            }
            _ => Ok(None),
        }
    }

    /// Take a finished receive out of the table, as [`Self::reap_send`].
    fn reap_recv(&mut self, req: ReqId) -> MsgResult<Option<(MsgBuf, RecvInfo)>> {
        let Entry::Occupied(e) = self.recvs.entry(req) else {
            return Err(MsgError::UnknownRequest(req));
        };
        if !matches!(e.get().phase, RecvPhase::Done(_)) {
            return Ok(None);
        }
        let RecvReq {
            buf,
            phase: RecvPhase::Done(result),
            charge,
        } = e.remove()
        else {
            unreachable!("phase checked above")
        };
        match result {
            Ok(info) => {
                charge.apply(&mut self.clock);
                Ok(Some((buf, info)))
            }
            Err(e) => {
                self.pool.free(buf);
                Err(e)
            }
        }
    }

    /// Nonblocking completion check for a send: drives progress once and
    /// returns the buffer if the send has finished.
    pub fn test_send(&mut self, req: ReqId) -> MsgResult<Option<MsgBuf>> {
        self.progress();
        self.reap_send(req)
    }

    /// Nonblocking completion check for a receive.
    pub fn test_recv(&mut self, req: ReqId) -> MsgResult<Option<(MsgBuf, RecvInfo)>> {
        self.progress();
        self.reap_recv(req)
    }

    /// Block until a send completes, returning the buffer.
    pub fn wait_send(&mut self, req: ReqId) -> MsgResult<MsgBuf> {
        self.wait_send_timeout(req, Duration::from_secs(30))
    }

    pub fn wait_send_timeout(&mut self, req: ReqId, timeout: Duration) -> MsgResult<MsgBuf> {
        self.wait_until(timeout, |ep| ep.reap_send(req))
    }

    /// Block until a receive completes, returning the buffer and info.
    pub fn wait_recv(&mut self, req: ReqId) -> MsgResult<(MsgBuf, RecvInfo)> {
        self.wait_recv_timeout(req, Duration::from_secs(30))
    }

    pub fn wait_recv_timeout(
        &mut self,
        req: ReqId,
        timeout: Duration,
    ) -> MsgResult<(MsgBuf, RecvInfo)> {
        self.wait_until(timeout, |ep| ep.reap_recv(req))
    }

    /// Drive progress until `reap` yields, yielding the thread whenever
    /// a pass finds no completion, or until `timeout` passes.
    fn wait_until<T>(
        &mut self,
        timeout: Duration,
        mut reap: impl FnMut(&mut Self) -> MsgResult<Option<T>>,
    ) -> MsgResult<T> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(done) = reap(self)? {
                return Ok(done);
            }
            if self.progress() == 0 {
                if Instant::now() >= deadline {
                    return Err(MsgError::Timeout);
                }
                std::thread::yield_now();
            }
        }
    }

    /// Blocking convenience: send a buffer, get it back on completion.
    pub fn send(&mut self, dst: u32, tag: u64, buf: MsgBuf) -> MsgResult<MsgBuf> {
        let req = self.isend(dst, tag, buf)?;
        self.wait_send(req)
    }

    /// Blocking convenience: receive into a buffer.
    pub fn recv(&mut self, spec: MatchSpec, buf: MsgBuf) -> MsgResult<(MsgBuf, RecvInfo)> {
        let req = self.irecv(spec, buf)?;
        self.wait_recv(req)
    }

    /// Copy an unregistered slice into a freshly allocated registered
    /// buffer: one host copy, counted in [`EndpointStats::host_copies`].
    pub fn copy_in(&mut self, data: &[u8]) -> MsgResult<MsgBuf> {
        let mut buf = self.alloc(data.len())?;
        buf.fill_from(data);
        self.count_copy(data.len());
        Ok(buf)
    }

    /// Copy the first `len` bytes of a received buffer out into a fresh
    /// vector and release the buffer: one host copy, counted in
    /// [`EndpointStats::host_copies`].
    pub fn copy_out(&mut self, buf: MsgBuf, len: usize) -> Vec<u8> {
        let mut v = buf.to_vec();
        v.truncate(len);
        self.count_copy(len);
        self.release(buf);
        v
    }

    /// Copy-in convenience: sends an unregistered slice (one extra copy,
    /// by definition — use `alloc` + `send` for zero-copy).
    pub fn send_slice(&mut self, dst: u32, tag: u64, data: &[u8]) -> MsgResult<()> {
        let buf = self.copy_in(data)?;
        let buf = self.send(dst, tag, buf)?;
        self.release(buf);
        Ok(())
    }

    /// Copy-out convenience: receive into a fresh vector.
    pub fn recv_vec(&mut self, spec: MatchSpec, max_len: usize) -> MsgResult<(Vec<u8>, RecvInfo)> {
        let buf = self.alloc(max_len)?;
        let (buf, info) = self.recv(spec, buf)?;
        Ok((self.copy_out(buf, info.len), info))
    }

    // ------------------------------------------------------------------
    // Eager protocol
    // ------------------------------------------------------------------

    fn send_eager(&mut self, dst: u32, tag: u64, buf: MsgBuf, req: ReqId) -> MsgResult<()> {
        if buf.len() > self.cfg.eager_buf_size {
            return Err(MsgError::TooLargeForEager {
                len: buf.len(),
                max: self.cfg.eager_buf_size,
            });
        }
        self.stats.eager_sends += 1;
        let env = Envelope::Eager {
            src: self.rank,
            tag,
            len: buf.len() as u64,
            stamp: self.charge_send(buf.len(), Protocol::Eager),
        };
        // Host copy #1: user buffer -> bounce buffer (or retransmittable
        // frame).
        self.count_copy(buf.len());
        self.send_frame(dst, env, buf.as_slice())?;
        // Buffered semantics: the user's buffer is free immediately.
        self.insert_send(req, buf, SendPhase::Done);
        Ok(())
    }

    /// Zero-copy noncontiguous send: the NIC gathers `layout`'s blocks
    /// straight out of the user buffer (no pack copy). The receiver sees
    /// an ordinary contiguous eager message of `layout.total_len()`
    /// bytes. Falls back to pack + rendezvous above the eager limit.
    ///
    /// Unlike plain eager, the buffer is NOT free at return — the NIC
    /// references it until the send completion — so this send completes
    /// like a rendezvous: reap it with [`Endpoint::wait_send`].
    pub fn isend_layout(
        &mut self,
        dst: u32,
        tag: u64,
        buf: MsgBuf,
        layout: &crate::datatype::Layout,
    ) -> MsgResult<ReqId> {
        assert!(dst < self.size, "destination rank out of range");
        layout
            .validate(buf.len())
            .map_err(MsgError::BadConfig)?;
        let total = layout.total_len();
        let req = self.next_req;
        self.next_req += 1;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += total as u64;
        if total > self.cfg.eager_buf_size {
            // Pack (one copy) and ship rendezvous.
            let packed = layout.pack(buf.as_slice());
            self.count_copy(total);
            let mut pbuf = self.pool.alloc(total)?;
            pbuf.fill_from(&packed);
            self.count_copy(total);
            self.send_rendezvous(dst, tag, pbuf, req)?;
            // The caller's buffer is no longer needed.
            self.sends_return_original.insert(req, buf);
            return Ok(req);
        }
        self.stats.eager_sends += 1;
        let env = Envelope::Eager {
            src: self.rank,
            tag,
            len: total as u64,
            stamp: self.charge_send(total, Protocol::Eager),
        };
        if self.cfg.reliability.enabled {
            // Reliability needs a retransmittable frame copy, so the
            // zero-copy gather degrades to pack-and-send (one copy).
            let packed = layout.pack(buf.as_slice());
            self.count_copy(total);
            self.send_frame(dst, env, &packed)?;
            self.insert_send(req, buf, SendPhase::Done);
            return Ok(req);
        }
        let slot = self.acquire_tx_slot(HEADER_LEN)?;
        let mr = self.tx_slots[slot].take().expect("slot acquired");
        mr.write_at(0, &env.encode())?;
        let mut sges = SgeList::single(Sge {
            mr: mr.clone(),
            offset: 0,
            len: HEADER_LEN,
        });
        for (off, len) in layout.blocks() {
            if len > 0 {
                sges.push(Sge {
                    mr: buf.region().clone(),
                    offset: off,
                    len,
                });
            }
        }
        self.qps[dst as usize].post_send(SendWr::Send {
            wr_id: K_GATHER | req,
            sges,
            imm: None,
        })?;
        self.tx_slots[slot] = Some(mr);
        self.insert_send(req, buf, SendPhase::GatherInflight { slot, dst });
        Ok(req)
    }

    // ------------------------------------------------------------------
    // Rendezvous protocol
    // ------------------------------------------------------------------

    fn send_rendezvous(&mut self, dst: u32, tag: u64, buf: MsgBuf, req: ReqId) -> MsgResult<()> {
        self.stats.rendezvous_sends += 1;
        let rank = self.rank;
        if let Some(o) = &mut self.obs {
            // Span: RTS opens, FIN closes.
            o.enter(
                Subject::Peer { rank, peer: dst },
                "rendezvous",
                &[("msg_id", req), ("bytes", buf.len() as u64)],
            );
        }
        let env = Envelope::Rts {
            src: self.rank,
            tag,
            len: buf.len() as u64,
            msg_id: req,
            rkey: buf.rkey().0,
            stamp: self.charge_send(buf.len(), Protocol::Rendezvous),
        };
        self.send_ctrl(dst, env)?;
        self.insert_send(req, buf, SendPhase::AwaitFin { dst });
        Ok(())
    }

    /// Answer an RTS matched to the posted receive `req`: pull the
    /// payload with RDMA read. The read's completion sends the FIN.
    fn start_rendezvous_recv(
        &mut self,
        req: ReqId,
        src: u32,
        tag: u64,
        Rts {
            len,
            msg_id,
            rkey,
            charge,
        }: Rts,
    ) -> MsgResult<()> {
        let len = len as usize;
        let Some(rr) = self.recvs.get_mut(&req) else {
            return Ok(());
        };
        rr.charge = rr.charge.meet(charge);
        let done = rr.charge.done();
        if len > rr.buf.capacity() {
            // Refuse the transfer; still FIN so the sender unblocks.
            rr.phase = RecvPhase::Done(Err(MsgError::Truncated {
                incoming: len,
                capacity: rr.buf.capacity(),
            }));
            return self.send_ctrl(src, fin_for(msg_id, done));
        }
        if len == 0 {
            // Nothing to read: the receive completes here.
            rr.buf.set_len(0);
            rr.phase = RecvPhase::Done(Ok(RecvInfo { src, tag, len: 0 }));
            self.stats.msgs_received += 1;
            return self.send_ctrl(src, fin_for(msg_id, done));
        }
        self.qps[src as usize].post_send(SendWr::RdmaRead {
            wr_id: K_RDMA_READ | req,
            sges: SgeList::single(Sge {
                mr: rr.buf.region().clone(),
                offset: 0,
                len,
            }),
            remote: RemoteAddr {
                node: NodeId(src),
                rkey: Rkey(rkey),
                offset: 0,
            },
        })?;
        rr.phase = RecvPhase::Reading {
            src,
            tag,
            len,
            msg_id,
        };
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sockets baseline
    // ------------------------------------------------------------------

    fn send_sockets(&mut self, dst: u32, tag: u64, buf: MsgBuf, req: ReqId) -> MsgResult<()> {
        let total = buf.len();
        let mtu = SOCKETS_MTU.min(self.cfg.eager_buf_size);
        // The whole message's syscalls and copies, charged up front:
        // every segment leaves stamped after the last.
        let stamp = self.charge_send(total, Protocol::Sockets);
        let mut offset = 0usize;
        loop {
            let len = (total - offset).min(mtu);
            // Kernel copy #1: user -> socket buffer.
            self.kstage.clear();
            self.kstage
                .extend_from_slice(&buf.as_slice()[offset..offset + len]);
            self.count_copy(len);
            let env = Envelope::SockSeg {
                src: self.rank,
                tag,
                msg_id: req,
                total: total as u64,
                offset: offset as u64,
                len: u32::try_from(len).expect("a segment is at most one MTU"),
                stamp,
            };
            // Kernel copy #2: socket buffer -> driver ring.
            self.count_copy(len);
            self.stats.sockets_segments += 1;
            let seg = std::mem::take(&mut self.kstage);
            let sent = self.send_frame(dst, env, &seg);
            self.kstage = seg;
            sent?;
            offset += len;
            if offset >= total {
                break;
            }
        }
        self.insert_send(req, buf, SendPhase::Done);
        Ok(())
    }

    fn insert_send(&mut self, req: ReqId, buf: MsgBuf, phase: SendPhase) {
        let charge = Charge::default();
        self.sends.insert(req, SendReq { buf, phase, charge });
    }

    /// Charge the send half of a `bytes`-byte message to the clock, and
    /// return the stamp it leaves with.
    fn charge_send(&mut self, bytes: usize, protocol: Protocol) -> u64 {
        self.clock += model::era(bytes, protocol).send;
        self.clock.as_ps()
    }

    /// Send a user frame, `env` then `payload`: sequenced and
    /// retransmittable when the reliability layer is on, else straight
    /// through a bounce slot (recycling completed slots first if none is
    /// free).
    fn send_frame(&mut self, dst: u32, env: Envelope, payload: &[u8]) -> MsgResult<()> {
        if self.cfg.reliability.enabled {
            let (seq, frame) = self.rel_frame(dst, env, payload);
            return self.post_rel_frame(dst, seq, frame);
        }
        let slot = self.acquire_tx_slot(HEADER_LEN + payload.len())?;
        self.post_bounce(dst, slot, &env.encode(), payload, None)
    }

    // ------------------------------------------------------------------
    // Completion handling
    // ------------------------------------------------------------------

    fn handle_cqe(&mut self, cqe: Cqe) {
        match cqe.wr_id & KIND_MASK {
            K_RX if cqe.opcode == CqeOpcode::Recv => self.handle_rx(cqe),
            K_TX_BOUNCE => {
                let slot = (cqe.wr_id & PAYLOAD_MASK) as usize;
                self.free_tx_slot(slot);
                if let Some((peer, seq)) = self.tx_slot_rel[slot].take() {
                    if let Some(p) = self.rel[peer as usize].pending.get_mut(&seq) {
                        p.in_flight -= 1;
                        // Delivered: from here the timer covers the ACK.
                        if cqe.status == CqeStatus::Success {
                            p.deadline = Instant::now() + p.rto;
                        }
                    }
                    if cqe.status != CqeStatus::Success && !self.failed_peers.contains(&peer) {
                        // The fabric reported the frame lost (retry
                        // exhaustion / flush): retransmit immediately
                        // instead of waiting out the RTO.
                        let exhausted = self.rel[peer as usize]
                            .pending
                            .get(&seq)
                            .is_some_and(|p| p.retries >= MAX_RETRIES);
                        if exhausted {
                            self.rel_fail_peer(peer);
                        } else {
                            let _ = self.retransmit(peer, seq);
                        }
                    }
                }
            }
            K_RDMA_READ => {
                let req = cqe.wr_id & PAYLOAD_MASK;
                let Some(rr) = self.recvs.get_mut(&req) else {
                    return;
                };
                if let RecvPhase::Reading {
                    src,
                    tag,
                    len,
                    msg_id,
                } = rr.phase
                {
                    rr.phase = RecvPhase::Done(if cqe.status == CqeStatus::Success {
                        rr.buf.set_len(len);
                        self.stats.msgs_received += 1;
                        self.stats.bytes_received += len as u64;
                        Ok(RecvInfo { src, tag, len })
                    } else {
                        Err(MsgError::Nic(NicError::Timeout))
                    });
                    let fin = fin_for(msg_id, rr.charge.done());
                    let _ = self.send_ctrl(src, fin);
                }
            }
            K_GATHER => {
                let req = cqe.wr_id & PAYLOAD_MASK;
                // A request that moved to `Failed` (peer marked dead)
                // stays as it is, reapable.
                if let Some(sr) = self.sends.get_mut(&req) {
                    if let SendPhase::GatherInflight { slot, .. } = sr.phase {
                        sr.phase = SendPhase::Done;
                        self.free_tx_slot(slot);
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_rx(&mut self, cqe: Cqe) {
        let idx = (cqe.wr_id & PAYLOAD_MASK) as usize;
        if cqe.status != CqeStatus::Success {
            // Corrupted arrival (e.g. ChecksumError): the buffer is
            // untrusted. Drop it; the sender's reliability layer (or its
            // own error completion) repairs the loss.
            self.repost_rx(cqe);
            return;
        }
        if self.cfg.reliability.enabled {
            // Copy the frame off the bounce buffer so it can be reposted
            // immediately and out-of-order frames can be parked. The
            // vector comes from (and returns to) the frame pool.
            let mut frame = self.frames.acquire(cqe.byte_len.max(HEADER_LEN));
            frame.resize(cqe.byte_len.max(HEADER_LEN), 0);
            self.rx_bufs[idx]
                .read_at(0, &mut frame)
                .expect("bounce frame");
            self.repost_rx(cqe);
            self.handle_reliable_frame(frame);
            return;
        }
        let mut header = [0u8; HEADER_LEN];
        self.rx_bufs[idx]
            .read_at(0, &mut header)
            .expect("bounce header");
        let env = Envelope::decode(&header).expect("valid envelope");
        self.dispatch(env, Payload::Bounce(idx));
        self.repost_rx(cqe);
    }

    /// Act on one in-order envelope. An eager or sockets payload is
    /// copied straight from where `payload` says it is; nothing is
    /// staged in between. An `Ack` reaches `handle_ack`, which ignores
    /// it when the reliability layer is off.
    fn dispatch(&mut self, env: Envelope, payload: Payload<'_>) {
        match env {
            Envelope::Eager {
                src,
                tag,
                len,
                stamp,
            } => {
                let len = len as usize;
                let charge = Charge::landed(stamp, model::era(len, Protocol::Eager));
                let rx_bufs = &self.rx_bufs;
                if let Some(req) = self.matcher.arrive(src, tag) {
                    let info = RecvInfo { src, tag, len };
                    // Host copy #2: bounce buffer (or frame) -> user buffer.
                    complete_recv(&mut self.recvs, &mut self.stats, req, info, charge, |buf| {
                        buf.set_len(len);
                        payload.copy_to(rx_bufs, buf.as_mut_slice());
                    });
                } else {
                    self.stats.unexpected_arrivals += 1;
                    let mut data = self.frames.acquire(len);
                    data.resize(len, 0);
                    payload.copy_to(rx_bufs, &mut data);
                    self.count_copy(len);
                    self.matcher.park(src, tag, Parked::Data(data, charge));
                }
            }
            Envelope::Rts {
                src,
                tag,
                len,
                msg_id,
                rkey,
                stamp,
            } => {
                let charge = Charge::landed(stamp, model::era(len as usize, Protocol::Rendezvous));
                let rts = Rts {
                    len,
                    msg_id,
                    rkey,
                    charge,
                };
                self.on_rts(src, tag, rts)
            }
            Envelope::Fin { msg_id, stamp } => self.on_fin(msg_id, stamp),
            Envelope::Ack { src, acked, cum } => self.handle_ack(src, acked, cum),
            Envelope::SockSeg {
                src,
                tag,
                msg_id,
                total,
                offset,
                len,
                stamp,
            } => {
                let rx_bufs = &self.rx_bufs;
                let done = sock_segment(
                    &mut self.sock_assembly,
                    &mut self.frames,
                    (src, tag, msg_id, stamp),
                    total as usize,
                    offset as usize,
                    len as usize,
                    |dst| payload.copy_to(rx_bufs, dst),
                );
                self.sock_arrived(len as usize, done);
            }
        }
    }

    /// Account one sockets segment and, when it completed its message,
    /// hand the reassembled payload to the matcher.
    fn sock_arrived(&mut self, seg_len: usize, done: Option<SockAssembly>) {
        // Kernel copy: driver ring -> socket buffer.
        self.count_copy(seg_len);
        let Some(asm) = done else {
            return;
        };
        let charge = Charge::landed(asm.stamp, model::era(asm.total, Protocol::Sockets));
        if let Some(req) = self.matcher.arrive(asm.src, asm.tag) {
            // Final copy: socket buffer -> user.
            self.deliver_data(req, asm.src, asm.tag, &asm.data, charge);
            self.frames.release(asm.data);
        } else {
            self.stats.unexpected_arrivals += 1;
            self.matcher
                .park(asm.src, asm.tag, Parked::Data(asm.data, charge));
        }
    }

    /// A rendezvous RTS arrived.
    fn on_rts(&mut self, src: u32, tag: u64, rts: Rts) {
        if let Some(req) = self.matcher.arrive(src, tag) {
            let _ = self.start_rendezvous_recv(req, src, tag, rts);
        } else {
            self.stats.unexpected_arrivals += 1;
            self.matcher.park(src, tag, Parked::Rts(rts));
        }
    }

    /// A rendezvous FIN arrived: the receiver pulled the data.
    fn on_fin(&mut self, msg_id: u64, stamp: u64) {
        let Some(sr) = self.sends.get_mut(&msg_id) else {
            return;
        };
        let SendPhase::AwaitFin { dst } = sr.phase else {
            return;
        };
        sr.phase = SendPhase::Done;
        sr.charge = Charge::landed(stamp, model::era_fin());
        let rank = self.rank;
        if let Some(o) = &mut self.obs {
            o.exit(
                Subject::Peer { rank, peer: dst },
                "rendezvous",
                &[("msg_id", msg_id), ("phase", 2)],
            );
        }
    }

    // ------------------------------------------------------------------
    // Reliability layer (RX side)
    // ------------------------------------------------------------------

    /// Dedup, reorder, acknowledge, and dispatch one received frame.
    fn handle_reliable_frame(&mut self, frame: Vec<u8>) {
        let Some(env) = Envelope::decode(&frame) else {
            // Unparseable frame: drop; the sender retransmits.
            self.frames.release(frame);
            return;
        };
        if !rel_sequenced(&frame) {
            // An ACK, or a frame from a peer running without reliability.
            self.dispatch(env, Payload::Frame(&frame));
            self.frames.release(frame);
            return;
        }
        let src = rel_src(&frame);
        let rel = &mut self.rel[src as usize];
        // Wrapping-window reconstruction: exact even when the wire seq
        // crosses u32::MAX mid-session.
        let seq = extend_seq(rel.rx_cum, rel_wire_seq(&frame));
        if seq <= rel.rx_cum || rel.rx_ooo.contains_key(&seq) {
            // Duplicate: its ACK was lost, so re-ACK and drop.
            self.stats.rel_dups += 1;
            self.send_ack(src, seq);
            self.frames.release(frame);
            return;
        }
        if seq != rel.rx_cum + 1 {
            // A gap precedes this frame: park it until the gap fills, so
            // delivery stays in order even across retransmissions.
            rel.rx_ooo.insert(seq, frame);
            self.send_ack(src, seq);
            return;
        }
        rel.rx_cum = seq;
        self.send_ack(src, seq);
        self.dispatch(env, Payload::Frame(&frame));
        self.frames.release(frame);
        // The gap may have been the only thing holding back later
        // frames; drain them in order. Each decoded when it arrived.
        loop {
            let rel = &mut self.rel[src as usize];
            let next = rel.rx_cum + 1;
            let Some(parked) = rel.rx_ooo.remove(&next) else {
                break;
            };
            rel.rx_cum = next;
            let env = Envelope::decode(&parked).expect("decoded before parking");
            self.dispatch(env, Payload::Frame(&parked));
            self.frames.release(parked);
        }
    }

    /// Complete the posted receive `req` by copying from a byte slice
    /// (a parked payload or a reassembled sockets message).
    fn deliver_data(&mut self, req: ReqId, src: u32, tag: u64, data: &[u8], charge: Charge) {
        let info = RecvInfo {
            src,
            tag,
            len: data.len(),
        };
        complete_recv(&mut self.recvs, &mut self.stats, req, info, charge, |buf| {
            buf.fill_from(data)
        });
    }

    /// Return the bounce buffer a receive completion consumed to the
    /// shared pool, then check the QP it arrived on. The pool accepts
    /// the buffer whatever state that QP is in, so this is where a
    /// broken connection shows: a QP that has left `Rts` on a live
    /// endpoint means the connection to its peer is gone, and the peer
    /// is marked failed. On a failed endpoint it is our own crash, and
    /// no peer is to blame.
    fn repost_rx(&mut self, cqe: Cqe) {
        let idx = (cqe.wr_id & PAYLOAD_MASK) as usize;
        let wr = RecvWr::new(cqe.wr_id, SgeList::single(Sge::whole(&self.rx_bufs[idx])));
        // Only a fabric torn down under us refuses a post.
        let _ = self.srq.post_recv(wr);
        let peer = cqe.qp.0;
        if !self.down && self.qps[peer as usize].state() != QpState::Rts {
            self.mark_peer_failed(peer);
        }
    }

    /// Send a header-only control message through the bounce path.
    /// Reliable when the reliability layer is on (the rendezvous
    /// handshake must survive loss like any data frame).
    fn send_ctrl(&mut self, dst: u32, env: Envelope) -> MsgResult<()> {
        if self.cfg.reliability.enabled {
            let (seq, frame) = self.rel_frame(dst, env, &[]);
            return self.post_rel_frame(dst, seq, frame);
        }
        self.post_frame(dst, &env.encode(), None)
    }

    // ------------------------------------------------------------------
    // Reliability layer (TX side)
    // ------------------------------------------------------------------

    /// Build a sequenced, retransmittable frame: encoded envelope with
    /// the reliability trailer stamped, followed by `payload`. Returns
    /// the frame's extended sequence number alongside the bytes (the
    /// wire only carries its low 32 bits, so it cannot be re-read from
    /// the frame).
    fn rel_frame(&mut self, dst: u32, env: Envelope, payload: &[u8]) -> (u64, Vec<u8>) {
        let rel = &mut self.rel[dst as usize];
        rel.next_seq += 1;
        let seq = rel.next_seq;
        let mut header = env.encode();
        stamp_rel(&mut header, seq, self.rank);
        let mut frame = self.frames.acquire(HEADER_LEN + payload.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(payload);
        (seq, frame)
    }

    /// Post a sequenced frame and register it for retransmission.
    fn post_rel_frame(&mut self, dst: u32, seq: u64, frame: Vec<u8>) -> MsgResult<()> {
        let rto = self.jittered(self.cfg.reliability.rto_initial);
        self.post_frame(dst, &frame, Some(seq))?;
        self.rel[dst as usize].pending.insert(
            seq,
            PendingTx {
                frame,
                deadline: Instant::now() + rto,
                rto: self.cfg.reliability.rto_initial,
                retries: 0,
                in_flight: 1,
            },
        );
        Ok(())
    }

    /// Post an encoded frame (header, then payload) through a bounce
    /// slot taken without recursing into `progress`, so completion
    /// handling and the retransmission path may call it.
    fn post_frame(&mut self, dst: u32, frame: &[u8], rel: Option<u64>) -> MsgResult<()> {
        let slot = self.acquire_tx_slot_quiet(frame.len())?;
        let (header, payload) = frame.split_at(HEADER_LEN);
        self.post_bounce(dst, slot, header, payload, rel)
    }

    /// Fill the acquired bounce slot `slot` with `header`, then
    /// `payload`, and post it to `dst`. `rel` ties the slot to a
    /// (peer, seq) so an error completion can fast-retransmit. A refused
    /// post returns the slot to the free list.
    fn post_bounce(
        &mut self,
        dst: u32,
        slot: usize,
        header: &[u8],
        payload: &[u8],
        rel: Option<u64>,
    ) -> MsgResult<()> {
        let mr = self.tx_slots[slot].take().expect("slot acquired");
        self.tx_slot_rel[slot] = rel.map(|seq| (dst, seq));
        let r = mr
            .write_at(0, header)
            .and_then(|()| mr.write_at(header.len(), payload))
            .and_then(|()| {
                self.qps[dst as usize].post_send(SendWr::Send {
                    wr_id: K_TX_BOUNCE | slot as u64,
                    sges: SgeList::single(Sge {
                        mr: mr.clone(),
                        offset: 0,
                        len: header.len() + payload.len(),
                    }),
                    imm: None,
                })
            });
        self.tx_slots[slot] = Some(mr);
        if r.is_err() {
            self.tx_slot_rel[slot] = None;
            self.free_tx_slot(slot);
        }
        Ok(r?)
    }

    /// Add deterministic jitter (up to +25%) to a timeout so synchronized
    /// peers do not retransmit in lockstep.
    fn jittered(&mut self, d: Duration) -> Duration {
        let quarter = (d.as_micros() as u64 / 4).max(1);
        d + Duration::from_micros(self.rel_rng.next_below(quarter))
    }

    /// Retransmit a pending frame (timer expiry or fast path), applying
    /// exponential backoff. No-op if the frame was acknowledged meanwhile.
    fn retransmit(&mut self, peer: u32, seq: u64) -> MsgResult<()> {
        let rto_max = self.cfg.reliability.rto_max;
        let Some(p) = self.rel[peer as usize].pending.get_mut(&seq) else {
            return Ok(());
        };
        p.retries += 1;
        p.rto = (p.rto * 2).min(rto_max);
        let rto = p.rto;
        // Take the frame instead of cloning it; it is put back (or
        // released to the pool if the entry vanished) after the repost.
        let frame = std::mem::take(&mut p.frame);
        let deadline = Instant::now() + self.jittered(rto);
        self.rel[peer as usize]
            .pending
            .get_mut(&seq)
            .expect("still pending")
            .deadline = deadline;
        self.stats.rel_retransmits += 1;
        let rank = self.rank;
        if let Some(o) = &mut self.obs {
            // The RTO timeline: each point carries the backed-off RTO
            // so a trace shows the exponential escalation per frame.
            o.instant(
                Subject::Peer { rank, peer },
                "retransmit",
                &[("seq", seq), ("rto_us", rto.as_micros() as u64)],
            );
        }
        let r = self.post_frame(peer, &frame, Some(seq));
        match self.rel[peer as usize].pending.get_mut(&seq) {
            Some(p) => {
                p.frame = frame;
                p.in_flight += u32::from(r.is_ok());
            }
            None => self.frames.release(frame),
        }
        r
    }

    /// Sweep retransmission timers; escalate exhausted budgets to peer
    /// failure.
    fn rel_tick(&mut self) {
        let now = Instant::now();
        let mut due: Vec<(u32, u64)> = Vec::new();
        let mut dead: Vec<u32> = Vec::new();
        for peer in 0..self.size {
            if self.failed_peers.contains(&peer) {
                continue;
            }
            for (&seq, p) in &self.rel[peer as usize].pending {
                if p.deadline > now || p.in_flight > 0 {
                    continue;
                }
                if p.retries >= MAX_RETRIES {
                    dead.push(peer);
                    break;
                }
                due.push((peer, seq));
            }
        }
        for peer in dead {
            self.rel_fail_peer(peer);
        }
        for (peer, seq) in due {
            if !self.failed_peers.contains(&peer) {
                let _ = self.retransmit(peer, seq);
            }
        }
    }

    /// The retry budget toward `peer` is exhausted: drop its window,
    /// returning the frames to the pool, and declare it failed.
    fn rel_fail_peer(&mut self, peer: u32) {
        for (_, p) in std::mem::take(&mut self.rel[peer as usize].pending) {
            self.frames.release(p.frame);
        }
        self.mark_peer_failed(peer);
    }

    /// An ACK from `src`: retire the specific frame and everything at or
    /// below the cumulative watermark. Wire values are 32-bit; they are
    /// extended against our send counter toward that peer, so retirement
    /// comparisons stay exact across the wire-seq wrap. With reliability
    /// off `rel` is empty and the ACK is ignored.
    fn handle_ack(&mut self, src: u32, acked: u32, cum: u32) {
        let Endpoint { rel, frames, .. } = self;
        let Some(rel) = rel.get_mut(src as usize) else {
            return;
        };
        let acked = extend_ack(rel.next_seq, acked);
        let cum = extend_ack(rel.next_seq, cum);
        if let Some(p) = rel.pending.remove(&acked) {
            frames.release(p.frame);
        }
        while let Some((&seq, _)) = rel.pending.first_key_value() {
            if seq > cum {
                break;
            }
            if let Some(p) = rel.pending.remove(&seq) {
                frames.release(p.frame);
            }
        }
    }

    /// Acknowledge frame `seq` from `src` (always, including duplicates:
    /// the peer's earlier ACK may have been lost). Only the low 32 bits
    /// go on the wire; the peer re-extends them against its counter.
    fn send_ack(&mut self, src: u32, seq: u64) {
        let env = Envelope::Ack {
            src: self.rank,
            acked: seq as u32,
            cum: self.rel[src as usize].rx_cum as u32,
        };
        self.stats.rel_acks += 1;
        // ACKs are unsequenced and never retransmitted; a lost ACK is
        // repaired by the sender's timer and our dedup.
        let _ = self.post_frame(src, &env.encode(), None);
    }

    /// The free list and the slot size for a `len`-byte frame. A wire
    /// segment or control frame (a sockets segment, RTS, FIN, ACK, a
    /// gather header, a small eager payload) fits `HEADER_LEN +
    /// SOCKETS_MTU` and takes a slot of that size from list 0; a
    /// larger eager frame takes a `HEADER_LEN + eager_buf_size` slot
    /// from list 1. Under an eager limit of at most the MTU every frame
    /// fits list 0, and list 1 stays empty. A sockets message posted
    /// ahead of its receiver holds a slot a segment, so a segment must
    /// not pin a full eager slot.
    fn tx_slot_size(&self, len: usize) -> (usize, usize) {
        let wire = HEADER_LEN + SOCKETS_MTU.min(self.cfg.eager_buf_size);
        if len <= wire {
            (0, wire)
        } else {
            (1, HEADER_LEN + self.cfg.eager_buf_size)
        }
    }

    /// Return a slot to the free list of its own size.
    fn free_tx_slot(&mut self, slot: usize) {
        let len = self.tx_slots[slot].as_ref().expect("a freed slot is not being filled").len();
        let (list, _) = self.tx_slot_size(len);
        self.tx_free[list].push(slot);
    }

    /// A bounce slot for a `len`-byte frame.
    fn acquire_tx_slot(&mut self, len: usize) -> MsgResult<usize> {
        let (list, _) = self.tx_slot_size(len);
        if let Some(s) = self.tx_free[list].pop() {
            return Ok(s);
        }
        // Try to recycle completed slots first.
        self.progress();
        if let Some(s) = self.tx_free[list].pop() {
            return Ok(s);
        }
        self.acquire_tx_slot_quiet(len)
    }

    /// Slot acquisition that never recurses into `progress` (used from
    /// completion handling and the retransmission path).
    fn acquire_tx_slot_quiet(&mut self, len: usize) -> MsgResult<usize> {
        let (list, size) = self.tx_slot_size(len);
        if let Some(s) = self.tx_free[list].pop() {
            return Ok(s);
        }
        // Every slot of this size is in flight: register one more
        // instead of blocking (a blocked sender cannot progress a
        // single-threaded peer, and the virtual NIC's send queue is
        // unbounded anyway). Slots recycle through their free list once
        // their sends complete.
        let mr = self.nic.register(self.pd, size)?;
        self.tx_slots.push(Some(mr));
        self.tx_slot_rel.push(None);
        self.stats.tx_slots_registered += 1;
        Ok(self.tx_slots.len() - 1)
    }

    /// Resolve the buffer a completed send hands back: layout sends that
    /// fell back to pack+rendezvous return the caller's original buffer
    /// and recycle the packed staging buffer internally.
    fn finish_send_buf(&mut self, req: ReqId, b: MsgBuf) -> MsgBuf {
        if let Some(orig) = self.sends_return_original.remove(&req) {
            self.pool.free(b);
            orig
        } else {
            b
        }
    }

    fn count_copy(&mut self, bytes: usize) {
        self.stats.host_copies += 1;
        self.stats.host_copy_bytes += bytes as u64;
    }
}

/// Complete the posted receive `req` with the payload `info` describes
/// and the message's `charge`: `copy_in` writes it into the request's
/// buffer (one host copy), unless the buffer is too small, which
/// completes the request with [`MsgError::Truncated`] instead.
fn complete_recv(
    recvs: &mut FastHashMap<ReqId, RecvReq>,
    stats: &mut EndpointStats,
    req: ReqId,
    info: RecvInfo,
    charge: Charge,
    copy_in: impl FnOnce(&mut MsgBuf),
) {
    let Some(rr) = recvs.get_mut(&req) else {
        return;
    };
    rr.charge = rr.charge.meet(charge);
    if info.len > rr.buf.capacity() {
        rr.phase = RecvPhase::Done(Err(MsgError::Truncated {
            incoming: info.len,
            capacity: rr.buf.capacity(),
        }));
        return;
    }
    copy_in(&mut rr.buf);
    rr.phase = RecvPhase::Done(Ok(info));
    stats.host_copies += 1;
    stats.host_copy_bytes += info.len as u64;
    stats.msgs_received += 1;
    stats.bytes_received += info.len as u64;
}

/// Sockets-baseline reassembly: copy one segment's payload (through
/// `copy_in`, which fills the slice it is given) into its message's
/// buffer, and return the assembly once every byte has arrived. A
/// message that fits one segment never enters the table.
fn sock_segment(
    table: &mut FastHashMap<u64, SockAssembly>,
    frames: &mut FramePool,
    (src, tag, msg_id, stamp): (u32, u64, u64, u64),
    total: usize,
    offset: usize,
    len: usize,
    copy_in: impl FnOnce(&mut [u8]),
) -> Option<SockAssembly> {
    let add = |asm: &mut SockAssembly| {
        copy_in(&mut asm.data[offset..offset + len]);
        asm.got += len;
        asm.got >= asm.total
    };
    match table.entry(((src as u64) << 48) ^ msg_id) {
        Entry::Occupied(mut e) => add(e.get_mut()).then(|| e.remove()),
        Entry::Vacant(v) => {
            let mut data = frames.acquire(total);
            data.resize(total, 0);
            let mut asm = SockAssembly {
                src,
                tag,
                total,
                got: 0,
                stamp,
                data,
            };
            if add(&mut asm) {
                Some(asm)
            } else {
                v.insert(asm);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (ROADMAP 5(d), the 1-in-10 `ft::tests` flake): a
    /// receive completion can be reaped after the QP it arrived on has
    /// left `Rts`. `repost_rx` used to `expect` the post; it must fail
    /// the peer instead, and do nothing at all when the endpoint itself
    /// is the one that went down. Under the shared pool the repost
    /// itself succeeds, so the check reads the QP's state. The number of clean messages
    /// before the failure is drawn from a fixed seed.
    #[test]
    fn repost_on_a_dead_qp_fails_the_peer_not_the_process() {
        let mut rng = SplitMix64::new(0x5d);
        for own_crash in [false, true] {
            let clean = rng.next_below(6);
            let fabric = Fabric::new();
            let mut eps = Endpoint::create_world(&fabric, 3, MsgConfig::default()).unwrap();
            let (head, tail) = eps.split_at_mut(1);
            let ep0 = &mut head[0];
            let (mid, last) = tail.split_at_mut(1);
            let (ep1, ep2) = (&mut mid[0], &mut last[0]);
            let buf = ep0.alloc(8).unwrap();
            let pending = ep0.irecv(MatchSpec::exact(1, 99), buf).unwrap();
            for tag in 0..clean {
                ep1.send_slice(0, tag, b"ok").unwrap();
                assert_eq!(ep0.recv_vec(MatchSpec::exact(1, tag), 8).unwrap().0, b"ok");
            }
            // This message's receive completion now sits in ep0's CQ.
            ep1.send_slice(0, clean, b"last").unwrap();
            if own_crash {
                ep0.fail();
                ep0.progress();
                assert!(ep0.failed_peers.is_empty(), "our own crash fails no peer");
                let buf = ep0.alloc(8).unwrap();
                assert_eq!(ep0.isend(1, 0, buf).unwrap_err(), MsgError::EndpointDown);
                continue;
            }
            // Between the CQE and the repost, the connection to rank 1
            // breaks.
            ep0.qps[1].set_error();
            ep0.progress();
            assert_eq!(ep0.wait_recv(pending).unwrap_err(), MsgError::PeerFailed(1));
            let buf = ep0.alloc(8).unwrap();
            assert_eq!(ep0.isend(1, 0, buf).unwrap_err(), MsgError::PeerFailed(1));
            // The connection to rank 2 is untouched.
            ep2.send_slice(0, 5, b"fine").unwrap();
            assert_eq!(ep0.recv_vec(MatchSpec::exact(2, 5), 8).unwrap().0, b"fine");
        }
    }

    /// A burst far beyond the receive pool: 64 ranks each send four
    /// eager messages to every rank, self included, before anyone
    /// receives, against a 4-buffer pool. All but four arrivals per
    /// rank park at the NIC, and the send slots are registered as the
    /// sends need them. The CQ, sized from the receive pool alone, must
    /// never latch an overflow, and every message must arrive intact.
    #[test]
    fn an_all_to_all_burst_against_a_tiny_pool_never_overflows_the_cq() {
        let (n, m) = (64u32, 4u64);
        let cfg = MsgConfig {
            srq_bufs: 4,
            eager_buf_size: 256,
            eager_threshold: 256,
            ..MsgConfig::with_protocol(Protocol::Eager)
        };
        let fabric = Fabric::new();
        let mut eps = Endpoint::create_world(&fabric, n, cfg).unwrap();
        let word = |src: u32, tag: u64| (src as u64 * 1000 + tag).to_le_bytes();
        let mut sends = Vec::new();
        for ep in eps.iter_mut() {
            for dst in 0..n {
                for tag in 0..m {
                    let mut buf = ep.alloc(8).unwrap();
                    buf.fill_from(&word(ep.rank(), tag));
                    sends.push((ep.rank(), ep.isend(dst, tag, buf).unwrap()));
                }
            }
        }
        let mut recvs = Vec::new();
        for ep in eps.iter_mut() {
            for src in 0..n {
                for tag in 0..m {
                    let buf = ep.alloc(8).unwrap();
                    let req = ep.irecv(MatchSpec::exact(src, tag), buf).unwrap();
                    recvs.push((ep.rank(), src, tag, req));
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while !recvs.is_empty() {
            assert!(Instant::now() < deadline, "{} receives never completed", recvs.len());
            for ep in eps.iter_mut() {
                ep.progress();
                assert!(ep.cq.poll(0).is_ok(), "rank {}: CQ overflowed", ep.rank());
            }
            recvs.retain(|&(r, src, tag, req)| {
                let ep = &mut eps[r as usize];
                let Some((buf, info)) = ep.test_recv(req).unwrap() else {
                    return true;
                };
                assert_eq!((info.src, info.tag), (src, tag));
                assert_eq!(buf.as_slice(), word(src, tag));
                ep.release(buf);
                false
            });
        }
        for (r, req) in sends {
            let buf = eps[r as usize].wait_send(req).unwrap();
            eps[r as usize].release(buf);
        }
        // Rank 0 sends into empty pools and recycles one slot; every
        // later rank finds them full and registers a slot for each
        // parked send, more than one per peer.
        assert_eq!(eps[0].stats().tx_slots_registered, 1);
        assert!(eps[1..].iter().all(|ep| ep.stats().tx_slots_registered > n as u64));
    }

    /// Regression: wire seqs are 32-bit; crossing `u32::MAX` must keep
    /// classifying new frames as new and old frames as duplicates. A
    /// plain numeric compare on the wire value fails every case below
    /// once the stream wraps.
    #[test]
    fn extend_seq_is_exact_across_the_wrap() {
        let near = u32::MAX as u64 - 2;
        // In-order delivery straddling the boundary.
        for d in 1..=6u64 {
            assert_eq!(extend_seq(near + d - 1, (near + d) as u32), near + d);
        }
        // A stale retransmission from just before the wrap is a dup.
        let cum = u32::MAX as u64 + 3;
        let stale = (u32::MAX as u64 - 1) as u32;
        assert!(extend_seq(cum, stale) <= cum, "stale frame must extend behind the watermark");
        // A frame parked ahead of a gap across the boundary.
        let cum = u32::MAX as u64 - 1;
        assert_eq!(extend_seq(cum, 2u32), u32::MAX as u64 + 3);
        // Early-session garbage far "behind" saturates to 0 (dropped).
        assert_eq!(extend_seq(2, u32::MAX - 5), 0);
    }

    /// ACK extension reconstructs against the send counter: ACKs for
    /// frames sent just before the wrap retire the right pending entries
    /// after the counter has crossed it.
    #[test]
    fn extend_ack_reconstructs_across_the_wrap() {
        let sent = u32::MAX as u64 + 4;
        assert_eq!(extend_ack(sent, sent as u32), sent);
        assert_eq!(extend_ack(sent, (u32::MAX as u64 - 1) as u32), u32::MAX as u64 - 1);
        assert_eq!(extend_ack(sent, 1u32), (1u64 << 32) + 1);
        // An extended stream never confuses identical wire values from
        // different epochs: only the most recent epoch is reachable.
        assert_eq!(extend_ack(sent, sent as u32), sent);
    }
}
