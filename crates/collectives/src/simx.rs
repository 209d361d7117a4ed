//! Simulated-time execution of collective schedules.
//!
//! The executable algorithms in this crate run on real threads over the
//! shared-memory fabric — that validates *correctness*. To measure
//! *scaling shape* at thousands of nodes on the 2002-era interconnects
//! (experiment F3), the same communication schedules are interpreted by
//! a discrete-event executor over the flow-level [`Network`] model.
//!
//! [`ops`] generates, per rank, the stream of operations each algorithm
//! performs; `tests` in this module cross-check those streams against
//! traces recorded from the executable algorithms, so the simulator is
//! guaranteed to time the algorithm that actually runs. Both executors,
//! this one and [`crate::parsim`], pull ops from each rank's stream one
//! at a time (`crate::cursor`) and never hold a schedule; the workload
//! programs `parsim` runs keep their collectives as splices that expand
//! through [`ops`] as they are reached ([`crate::program`]).
//!
//! **Run-ahead.** A rank advances on its own clock for as long as its
//! next op depends on no other rank: `Compute` and `Work` add their
//! duration, and a `Recv` whose message is already in the rank's inbox
//! takes it, even while it is still on the wire (only this rank takes
//! from its inbox, so the sender's earliest entry is final). A `Recv`
//! with nothing from its sender in the inbox blocks on the sender,
//! whose `Send` runs it on from its clock; only a `Send` goes back
//! through the queue, because the network must see transfers in time
//! order. Each clock follows the same rules as stepping one op per
//! event: a send presents at `t + overhead`, and a receive ends at
//! `max(t, arrival) + overhead`. So the queue orders only network
//! presentations, one event per message instead of 3.5 for a ring.
//!
//! Each rank's record holds its inbox (`crate::inbox`, shared with
//! `parsim`): one queue in send order, not one per sender pair.
//!
//! Same-instant events leave the queue in insertion order, and a rank
//! inserts its next send when its run starts, not one op before the
//! send. Where two sends reach one link at the same instant, the
//! first-come-first-served link charge can see them in a different
//! order from an executor that stepped every op through the queue;
//! `completions_match_pinned_digests` lists where.

use crate::allgather::AllgatherAlgo;
use crate::allreduce::AllreduceAlgo;
use crate::barrier::BarrierAlgo;
use crate::bcast::BcastAlgo;
use crate::cursor::{Cursor, OpSource};
use crate::inbox::Inbox;
use polaris_simnet::engine::{run, Scheduler, World};
use polaris_simnet::network::Network;
use polaris_simnet::time::{SimDuration, SimTime};

/// One step of a rank's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// Nonblocking send of `bytes` payload to `to`.
    Send { to: u32, bytes: u64 },
    /// Blocking receive of the next message from `from`.
    Recv { from: u32 },
    /// Local work proportional to `bytes` (reduction arithmetic).
    Compute { bytes: u64 },
    /// Local work for an explicit virtual-time duration. Workload
    /// compute phases priced by the roofline model compile to this —
    /// the duration is fixed at schedule time, so the executor never
    /// needs the node model.
    Work { ps: u64 },
}

/// Which collective to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    Barrier(BarrierAlgo),
    Bcast(BcastAlgo),
    Allreduce(AllreduceAlgo),
    Allgather(AllgatherAlgo),
    AlltoallPairwise,
    /// Binomial-tree reduce to root 0 (the building block of the
    /// hierarchical group-local stage in [`crate::hier`]).
    ReduceBinomial,
}

/// Rank `rank`'s schedule for `coll` over `p` ranks with a total
/// payload of `bytes` (semantics per collective: bcast/allreduce =
/// vector size; allgather/alltoall = per-rank block size), collected
/// into a `Vec`. No executor or program uses it: it serves the trace
/// cross-check and digest pins in this module's tests and the
/// benchmark's schedule-generation probe. Everything that runs a
/// schedule takes the [`ops`] stream.
pub fn schedule(coll: Collective, rank: u32, p: u32, bytes: u64) -> Vec<SchedOp> {
    ops(coll, rank, p, bytes).collect()
}

/// Rank `rank`'s schedule as a stream. The ring and pairwise families
/// are O(p) ops long — a 1024-rank ring allreduce is 5115 ops per rank,
/// 84 MB across the machine — so each op is computed from its index
/// and the stream holds O(1) state; the O(log p) trees are listed up
/// front.
pub fn ops(coll: Collective, rank: u32, p: u32, bytes: u64) -> OpStream {
    // No collective communicates on fewer than two ranks.
    if p < 2 {
        return OpStream { kind: Kind::Listed(Vec::new()), rank, p, pos: 0, len: 0 };
    }
    // Every O(p) family runs p - 1 rounds.
    let rounds = p as usize - 1;
    let (kind, len) = match coll {
        Collective::Allreduce(AllreduceAlgo::Ring) => {
            // The executable ring chunks element-wise; mirror it with
            // 8-byte elements (the reduction types used throughout) so
            // byte counts match the real algorithm exactly.
            let unit = if bytes.is_multiple_of(8) { 8 } else { 1 };
            (Kind::RingAllreduce(Chunks::new(bytes / unit, p, unit)), 5 * rounds)
        }
        Collective::Allgather(AllgatherAlgo::Ring) => (Kind::RingAllgather { bytes }, 2 * rounds),
        Collective::Bcast(BcastAlgo::ScatterAllgather) => {
            // Root 0 scatters p - 1 chunks, everyone else receives one.
            let scatter = if rank == 0 { rounds } else { 1 };
            (
                Kind::ScatterAllgather { chunks: Chunks::new(bytes, p, 1), scatter },
                scatter + 2 * rounds,
            )
        }
        Collective::AlltoallPairwise => (Kind::Pairwise { bytes }, 2 * rounds),
        _ => {
            let ops = tree_ops(coll, rank, p, bytes);
            let len = ops.len();
            (Kind::Listed(ops), len)
        }
    };
    OpStream { kind, rank, p, pos: 0, len }
}

/// An O(1)-state iterator over one rank's schedule; see [`ops`].
#[derive(Debug)]
pub struct OpStream {
    kind: Kind,
    rank: u32,
    p: u32,
    /// Index of the op [`Iterator::next`] yields.
    pos: usize,
    len: usize,
}

#[derive(Debug)]
enum Kind {
    /// An O(log p) schedule, generated whole by [`tree_ops`].
    Listed(Vec<SchedOp>),
    RingAllreduce(Chunks),
    RingAllgather { bytes: u64 },
    /// `scatter` ops of the root's scatter precede the ring allgather.
    ScatterAllgather { chunks: Chunks, scatter: usize },
    Pairwise { bytes: u64 },
}

/// `total` elements of `unit` bytes split into `p` near-equal chunks
/// (the first `total % p` get one extra element), as
/// [`crate::bcast::chunk_range`] splits them.
#[derive(Debug)]
struct Chunks {
    base: u64,
    extra: u64,
    unit: u64,
}

impl Chunks {
    fn new(total: u64, p: u32, unit: u64) -> Self {
        let p = p as u64;
        Chunks { base: total / p, extra: total % p, unit }
    }

    /// Bytes in chunk `i`.
    fn bytes(&self, i: u32) -> u64 {
        (self.base + u64::from((i as u64) < self.extra)) * self.unit
    }
}

/// `x mod p` for `x < 2p`, without the division.
fn wrap(x: u32, p: u32) -> u32 {
    if x >= p {
        x - p
    } else {
        x
    }
}

impl Iterator for OpStream {
    type Item = SchedOp;

    // Forced: left out of line, `collect()` reads each op back through a
    // stack slot written field by field, and `schedule()` costs 9.6 ns
    // per op instead of 3.5.
    #[inline(always)]
    fn next(&mut self) -> Option<SchedOp> {
        let i = self.pos;
        if i == self.len {
            return None;
        }
        self.pos += 1;
        let (rank, p) = (self.rank, self.p);
        let next = wrap(rank + 1, p);
        let prev = wrap(rank + p - 1, p);
        // The chunk a ring rank sends in round `s < p` (it walks
        // backwards from its own).
        let sent = |s: usize| wrap(rank + p - s as u32, p);
        let ring = |j: usize, bytes: u64| {
            if j.is_multiple_of(2) {
                SchedOp::Send { to: next, bytes }
            } else {
                SchedOp::Recv { from: prev }
            }
        };
        Some(match &self.kind {
            Kind::Listed(ops) => ops[i],
            Kind::RingAllreduce(chunks) => {
                let reduce = 3 * (p as usize - 1);
                if i < reduce {
                    // Reduce-scatter: send a chunk, receive and fold
                    // the one before it.
                    let idx = sent(i / 3);
                    match i % 3 {
                        0 => SchedOp::Send { to: next, bytes: chunks.bytes(idx) },
                        1 => SchedOp::Recv { from: prev },
                        _ => SchedOp::Compute { bytes: chunks.bytes(wrap(idx + p - 1, p)) },
                    }
                } else {
                    // Allgather: each round forwards the chunk after
                    // the one the same reduce round sent, starting from
                    // the fully reduced `rank + 1`.
                    let j = i - reduce;
                    ring(j, chunks.bytes(wrap(sent(j / 2) + 1, p)))
                }
            }
            Kind::RingAllgather { bytes } => ring(i, *bytes),
            Kind::ScatterAllgather { chunks, scatter } => {
                if i < *scatter {
                    if rank == 0 {
                        let to = i as u32 + 1;
                        SchedOp::Send { to, bytes: chunks.bytes(to) }
                    } else {
                        SchedOp::Recv { from: 0 }
                    }
                } else {
                    let j = i - scatter;
                    ring(j, chunks.bytes(sent(j / 2)))
                }
            }
            Kind::Pairwise { bytes } => {
                let r = 1 + (i / 2) as u32;
                if i.is_multiple_of(2) {
                    SchedOp::Send { to: wrap(rank + r, p), bytes: *bytes }
                } else {
                    SchedOp::Recv { from: wrap(rank + p - r, p) }
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.pos;
        (left, Some(left))
    }
}

impl OpSource for OpStream {
    fn yielded(&self) -> usize {
        self.pos
    }
}

/// Binomial-tree reduce to rank 0.
fn binomial_reduce(ops: &mut Vec<SchedOp>, rank: u32, p: u32, bytes: u64) {
    let mut mask = 1u32;
    while mask < p {
        if rank & mask == 0 {
            if (rank | mask) < p {
                ops.push(SchedOp::Recv { from: rank | mask });
                ops.push(SchedOp::Compute { bytes });
            }
        } else {
            ops.push(SchedOp::Send {
                to: rank & !mask,
                bytes,
            });
            break;
        }
        mask <<= 1;
    }
}

/// Binomial-tree broadcast from rank 0 (the root in simulated
/// schedules).
fn binomial_bcast(ops: &mut Vec<SchedOp>, rank: u32, p: u32, bytes: u64) {
    let mut mask = 1u32;
    while mask < p {
        if rank & mask != 0 {
            ops.push(SchedOp::Recv { from: rank - mask });
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if rank & mask == 0 && rank + mask < p {
            ops.push(SchedOp::Send {
                to: rank + mask,
                bytes,
            });
        }
        mask >>= 1;
    }
}

/// The O(log p) schedules, listed whole (`p >= 2`).
fn tree_ops(coll: Collective, rank: u32, p: u32, bytes: u64) -> Vec<SchedOp> {
    let mut ops = Vec::new();
    match coll {
        Collective::Barrier(BarrierAlgo::Dissemination) => {
            let mut dist = 1;
            while dist < p {
                ops.push(SchedOp::Send {
                    to: (rank + dist) % p,
                    bytes: 0,
                });
                ops.push(SchedOp::Recv {
                    from: (rank + p - dist) % p,
                });
                dist <<= 1;
            }
        }
        Collective::Barrier(BarrierAlgo::Tree) => {
            let mut mask = 1u32;
            while mask < p {
                if rank & mask == 0 {
                    if (rank | mask) < p {
                        ops.push(SchedOp::Recv { from: rank | mask });
                    }
                } else {
                    ops.push(SchedOp::Send {
                        to: rank & !mask,
                        bytes: 0,
                    });
                    break;
                }
                mask <<= 1;
            }
            let mut mask;
            if rank != 0 {
                let low = rank & rank.wrapping_neg();
                ops.push(SchedOp::Recv { from: rank & !low });
                mask = low >> 1;
            } else {
                mask = p.next_power_of_two() >> 1;
            }
            while mask > 0 {
                let peer = rank | mask;
                if peer < p && peer != rank {
                    ops.push(SchedOp::Send {
                        to: peer,
                        bytes: 0,
                    });
                }
                mask >>= 1;
            }
        }
        Collective::Bcast(BcastAlgo::Binomial) => binomial_bcast(&mut ops, rank, p, bytes),
        Collective::Allreduce(AllreduceAlgo::RecursiveDoubling) => {
            let p2 = if p.is_power_of_two() {
                p
            } else {
                p.next_power_of_two() >> 1
            };
            let rem = p - p2;
            let newrank: Option<u32> = if rank < 2 * rem {
                if rank.is_multiple_of(2) {
                    ops.push(SchedOp::Send {
                        to: rank + 1,
                        bytes,
                    });
                    None
                } else {
                    ops.push(SchedOp::Recv { from: rank - 1 });
                    ops.push(SchedOp::Compute { bytes });
                    Some(rank / 2)
                }
            } else {
                Some(rank - rem)
            };
            if let Some(nr) = newrank {
                let mut mask = 1u32;
                while mask < p2 {
                    let peer_nr = nr ^ mask;
                    let peer = if peer_nr < rem {
                        peer_nr * 2 + 1
                    } else {
                        peer_nr + rem
                    };
                    ops.push(SchedOp::Send { to: peer, bytes });
                    ops.push(SchedOp::Recv { from: peer });
                    ops.push(SchedOp::Compute { bytes });
                    mask <<= 1;
                }
            }
            if rank < 2 * rem {
                if rank.is_multiple_of(2) {
                    ops.push(SchedOp::Recv { from: rank + 1 });
                } else {
                    ops.push(SchedOp::Send {
                        to: rank - 1,
                        bytes,
                    });
                }
            }
        }
        Collective::Allreduce(AllreduceAlgo::ReduceBcast) => {
            binomial_reduce(&mut ops, rank, p, bytes);
            binomial_bcast(&mut ops, rank, p, bytes);
        }
        Collective::Allgather(AllgatherAlgo::Bruck) => {
            let mut held = 1u32;
            while held < p {
                let count = held.min(p - held);
                let to = (rank + p - held) % p;
                let from = (rank + held) % p;
                ops.push(SchedOp::Send {
                    to,
                    bytes: count as u64 * bytes,
                });
                ops.push(SchedOp::Recv { from });
                held += count;
            }
        }
        // The reduce phase of ReduceBcast, without the broadcast.
        Collective::ReduceBinomial => binomial_reduce(&mut ops, rank, p, bytes),
        Collective::Allreduce(AllreduceAlgo::Ring)
        | Collective::Allgather(AllgatherAlgo::Ring)
        | Collective::Bcast(BcastAlgo::ScatterAllgather)
        | Collective::AlltoallPairwise => unreachable!("{coll:?} is streamed by index"),
    }
    ops
}

/// Host-side cost knobs for the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecParams {
    /// Per-operation CPU overhead (post/match cost).
    pub overhead: SimDuration,
    /// Reduction arithmetic throughput, bytes/sec.
    pub compute_bps: u64,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            overhead: SimDuration::from_ns(500),
            compute_bps: 2_000_000_000,
        }
    }
}

struct RankState {
    /// The rank's schedule and the op it stands on.
    at: Cursor<OpStream>,
    time: SimTime,
    finished: Option<SimTime>,
    /// Messages sent to this rank and not yet received.
    inbox: Inbox,
    /// The sender this rank is blocked receiving from since its `time`.
    waiting_on: Option<u32>,
}

struct SimExec<'a> {
    net: &'a mut Network,
    params: ExecParams,
    ranks: Vec<RankState>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Step(u32),
}

impl SimExec<'_> {
    /// Run rank `r` ahead from clock `t` until it must wait on the queue
    /// or on another rank. Only the event's first op may be a `Send`
    /// (`may_send`); a later one is queued at its clock.
    fn run_ahead(&mut self, sched: &mut Scheduler<Ev>, r: u32, mut t: SimTime, mut may_send: bool) {
        let rank = r as usize;
        loop {
            let st = &mut self.ranks[rank];
            st.time = t;
            let Some(op) = st.at.op() else {
                st.finished = Some(t);
                return;
            };
            match op {
                SchedOp::Send { .. } if !may_send => {
                    sched.at(t, Ev::Step(r));
                    return;
                }
                SchedOp::Send { to, bytes } => {
                    t += self.params.overhead;
                    let delivery = self.net.transfer(t, r, to, bytes);
                    let dst = &mut self.ranks[to as usize];
                    dst.inbox.push(r, delivery.arrival);
                    // Run the receiver on if it is blocked on us; it stops
                    // before its own next send, so this nests once.
                    if dst.waiting_on == Some(r) {
                        dst.waiting_on = None;
                        let blocked = dst.time;
                        self.run_ahead(sched, to, blocked, false);
                    }
                }
                SchedOp::Recv { from } => match st.inbox.find(from) {
                    Some((pos, arrival)) => {
                        st.inbox.take(pos);
                        t = t.max(arrival) + self.params.overhead;
                    }
                    // Not sent yet: the sender's `Send` runs us on.
                    None => {
                        st.waiting_on = Some(from);
                        return;
                    }
                },
                SchedOp::Compute { bytes } => {
                    t += SimDuration::from_secs_f64(bytes as f64 / self.params.compute_bps as f64);
                }
                SchedOp::Work { ps } => t += SimDuration::from_ps(ps),
            }
            may_send = false;
            self.ranks[rank].at.advance();
        }
    }
}

impl World for SimExec<'_> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, Ev::Step(r): Ev) {
        let now = sched.now();
        debug_assert!(self.ranks[r as usize].time <= now);
        self.run_ahead(sched, r, now, true);
    }
}

/// Result of a simulated collective.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Time the slowest rank finished.
    pub completion: SimDuration,
    /// Total payload bytes presented to the network.
    pub payload_bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Events the engine dispatched to run the schedules.
    pub events: u64,
}

/// Execute one collective over `net` and return its completion time.
/// Panics if any rank's schedule deadlocks (a schedule-generation bug).
pub fn simulate_collective(
    net: &mut Network,
    coll: Collective,
    bytes: u64,
    params: ExecParams,
) -> SimResult {
    let p = net.topology().hosts();
    let before_transfers = net.transfers();
    let before_bytes = net.payload_bytes();
    let (ranks, events) = execute(net, (0..p).map(|r| ops(coll, r, p, bytes)), params);
    let mut completion = SimTime::ZERO;
    for (r, st) in ranks.iter().enumerate() {
        let done = st.finished.unwrap_or_else(|| {
            panic!("rank {r} deadlocked at op {} of {coll:?}", st.at.index())
        });
        completion = completion.max(done);
    }
    SimResult {
        completion: completion.since(SimTime::ZERO),
        payload_bytes: net.payload_bytes() - before_bytes,
        messages: net.transfers() - before_transfers,
        events,
    }
}

/// Run one op stream per rank over `net` until the queue drains;
/// returns the ranks' final states and the events dispatched.
fn execute(
    net: &mut Network,
    streams: impl Iterator<Item = OpStream>,
    params: ExecParams,
) -> (Vec<RankState>, u64) {
    let ranks: Vec<RankState> = streams
        .map(|stream| RankState {
            at: Cursor::new(stream),
            time: SimTime::ZERO,
            finished: None,
            inbox: Inbox::default(),
            waiting_on: None,
        })
        .collect();
    let p = ranks.len();
    let mut world = SimExec { net, params, ranks };
    // Live population peaks around one in-flight event per rank.
    let mut sched = Scheduler::with_capacity(p);
    for r in 0..p as u32 {
        sched.at(SimTime::ZERO, Ev::Step(r));
    }
    let events = run(&mut world, &mut sched, None).events_dispatched;
    (world.ranks, events)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::allreduce::allreduce_with;
    use crate::barrier::barrier_with;
    use crate::bcast::bcast_with;
    use crate::comm::{TraceEvent, TracingComm};
    use crate::op::ReduceOp;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;
    use polaris_simnet::link::Generation;
    use polaris_simnet::topology::{Topology, TopologyKind};

    fn net(p: u32) -> Network {
        Network::new(
            Topology::new(TopologyKind::Crossbar { hosts: p }),
            Generation::InfiniBand4x.link_model(),
        )
    }

    /// The executable algorithms and the simulator's schedules must
    /// describe the same communication, rank by rank.
    fn cross_check(coll: Collective, p: u32, bytes: usize) {
        let traces: Vec<Vec<TraceEvent>> =
            run_world(p, MsgConfig::default(), move |mut ep| {
                let mut tc = TracingComm::new(&mut ep);
                match coll {
                    Collective::Barrier(a) => barrier_with(&mut tc, a),
                    Collective::Bcast(a) => {
                        let mut data = vec![7u8; bytes];
                        bcast_with(&mut tc, a, 0, &mut data);
                    }
                    Collective::Allreduce(a) => {
                        let mut data = vec![1u64; bytes / 8];
                        allreduce_with(&mut tc, a, ReduceOp::Sum, &mut data);
                    }
                    Collective::Allgather(a) => {
                        let mine = vec![1u8; bytes];
                        let mut out = vec![0u8; bytes * p as usize];
                        crate::allgather::allgather_with(&mut tc, a, &mine, &mut out);
                    }
                    Collective::AlltoallPairwise => {
                        let send = vec![1u8; bytes * p as usize];
                        let mut recv = vec![0u8; bytes * p as usize];
                        crate::alltoall::alltoall_pairwise(&mut tc, &send, &mut recv, bytes);
                    }
                    Collective::ReduceBinomial => {
                        let mut data = vec![1u64; bytes / 8];
                        crate::reduce::reduce_binomial(&mut tc, 0, ReduceOp::Sum, &mut data);
                    }
                }
                tc.trace
            });
        for (r, trace) in traces.iter().enumerate() {
            let sched = schedule(coll, r as u32, p, bytes as u64);
            let sched_events: Vec<TraceEvent> = sched
                .iter()
                .filter_map(|op| match *op {
                    SchedOp::Send { to, bytes } => Some(TraceEvent::Send { to, bytes }),
                    SchedOp::Recv { from } => Some(TraceEvent::Recv { from, bytes: 0 }),
                    SchedOp::Compute { .. } | SchedOp::Work { .. } => None,
                })
                .collect();
            let trace_shape: Vec<TraceEvent> = trace
                .iter()
                .map(|e| match *e {
                    TraceEvent::Send { to, bytes } => TraceEvent::Send { to, bytes },
                    TraceEvent::Recv { from, .. } => TraceEvent::Recv { from, bytes: 0 },
                })
                .collect();
            assert_eq!(
                trace_shape, sched_events,
                "rank {r} schedule mismatch for {coll:?} p={p}"
            );
        }
    }

    #[test]
    fn schedules_match_executable_algorithms() {
        for p in [2, 3, 4, 5, 8] {
            cross_check(Collective::Barrier(BarrierAlgo::Dissemination), p, 0);
            cross_check(Collective::Barrier(BarrierAlgo::Tree), p, 0);
            cross_check(Collective::Bcast(BcastAlgo::Binomial), p, 1024);
            cross_check(Collective::Bcast(BcastAlgo::ScatterAllgather), p, 1024);
            cross_check(
                Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
                p,
                1024,
            );
            cross_check(Collective::Allreduce(AllreduceAlgo::Ring), p, 1024);
            cross_check(Collective::Allreduce(AllreduceAlgo::ReduceBcast), p, 1024);
            cross_check(Collective::Allgather(AllgatherAlgo::Ring), p, 512);
            cross_check(Collective::Allgather(AllgatherAlgo::Bruck), p, 512);
            cross_check(Collective::AlltoallPairwise, p, 512);
            cross_check(Collective::ReduceBinomial, p, 1024);
        }
    }

    pub(crate) const ALL_COLLECTIVES: [Collective; 11] = [
        Collective::Barrier(BarrierAlgo::Dissemination),
        Collective::Barrier(BarrierAlgo::Tree),
        Collective::Bcast(BcastAlgo::Binomial),
        Collective::Bcast(BcastAlgo::ScatterAllgather),
        Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
        Collective::Allreduce(AllreduceAlgo::Ring),
        Collective::Allreduce(AllreduceAlgo::ReduceBcast),
        Collective::Allgather(AllgatherAlgo::Ring),
        Collective::Allgather(AllgatherAlgo::Bruck),
        Collective::AlltoallPairwise,
        Collective::ReduceBinomial,
    ];

    /// FNV-1a over every op of every rank's schedule, for every p and
    /// payload of the grid: op order, peers and byte counts all land in
    /// the digest.
    fn schedule_digest(coll: Collective) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in [1u32, 2, 3, 5, 8, 17, 64] {
            for bytes in [0u64, 8, 100, 1000, 1024, (4 << 20) - (12 << 10)] {
                for rank in 0..p {
                    let ops = schedule(coll, rank, p, bytes);
                    mix(ops.len() as u64);
                    for op in ops {
                        let (tag, a, b) = match op {
                            SchedOp::Send { to, bytes } => (1, to as u64, bytes),
                            SchedOp::Recv { from } => (2, from as u64, 0),
                            SchedOp::Compute { bytes } => (3, bytes, 0),
                            SchedOp::Work { ps } => (4, ps, 0),
                        };
                        mix(tag);
                        mix(a);
                        mix(b);
                    }
                }
            }
        }
        h
    }

    /// Digests taken from the `Vec`-building `schedule()` before it
    /// became the collected op stream: the streams must reproduce every
    /// schedule op for op.
    #[test]
    fn schedules_match_pinned_digests() {
        const PINNED: [u64; 11] = [
            0x6506f0aa4bc61ee5,
            0x5de75bea642a1da5,
            0xeb79615f9dc4d453,
            0x5b2a9b2322c7ad6b,
            0x530050f5c372300f,
            0x30da82e6d5aa0f0d,
            0xd65e1acaee79603b,
            0x6362a1dc8562c351,
            0x0a1dee76c7de7af9,
            0x60499a7f9dbed979,
            0xe4c01b80086dfa5d,
        ];
        let got = ALL_COLLECTIVES.map(schedule_digest);
        assert_eq!(got, PINNED, "schedule digests moved: {got:#018x?}");
    }

    /// FNV-1a over `(completion ps, messages, payload_bytes)` of every
    /// simulated run of `coll` across a grid of fabrics, payloads and
    /// host costs. The zero-overhead variant puts a rank's next op at
    /// the same instant as the one before it.
    fn completion_digest(coll: Collective) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut kinds: Vec<TopologyKind> =
            [2, 3, 5, 8, 17, 64].map(|hosts| TopologyKind::Crossbar { hosts }).into();
        kinds.extend([
            TopologyKind::FatTree { k: 4 },
            TopologyKind::FatTree { k: 8 },
            TopologyKind::Torus2D { w: 4, h: 4 },
            TopologyKind::Ring { hosts: 5 },
            TopologyKind::Dragonfly { groups: 3, routers_per_group: 2, hosts_per_router: 2 },
        ]);
        let zero = ExecParams { overhead: SimDuration::ZERO, ..ExecParams::default() };
        for kind in kinds {
            for bytes in [0u64, 8, 1000, (4 << 20) - (12 << 10)] {
                for params in [ExecParams::default(), zero] {
                    let mut net =
                        Network::new(Topology::new(kind), Generation::InfiniBand4x.link_model());
                    let r = simulate_collective(&mut net, coll, bytes, params);
                    mix(r.completion.0);
                    mix(r.messages);
                    mix(r.payload_bytes);
                }
            }
        }
        h
    }

    /// Taken from the executor that stepped every op through the event
    /// queue. Eight hold bit for bit under run-ahead; the three with a
    /// second value moved (the comment holds the one-op-per-event
    /// digest), in 31 of their 264 cells: the dissemination barrier and
    /// pairwise alltoall on the 4 x 4 torus and the 5-host ring, and the
    /// 4 MiB ring allreduce on the Dragonfly. There two sends reach one
    /// link at the same instant, the link charges first come, first
    /// served, and the queue now presents them in the other order. No
    /// clock rule changed.
    #[test]
    fn completions_match_pinned_digests() {
        const PINNED: [u64; 11] = [
            0x2910e37b79d9200d, // was 0x3d07c28a305097fd
            0x654cc89b00683cf5,
            0x3b08abcdcd8ec5d3,
            0xbf58375ac615899d,
            0x4d4d8b2e2f7f00e9,
            0x5b9e54d2c7b59d12, // was 0xd638c18c9a9d5880
            0x2145a00a0c4a7f3e,
            0xb0ddc17cfefa3ee6,
            0xb72c63780e424b48,
            0xdbd261fccd4e9021, // was 0xc37389a0adf9575e
            0xa3cb1d55a7928f47,
        ];
        let got = ALL_COLLECTIVES.map(completion_digest);
        assert_eq!(got, PINNED, "completion digests moved: {got:#018x?}");
    }

    /// Hand-built programs for the receive-matching rule: a `Recv` from
    /// `s` takes the earliest-sent message of `s` that the rank has not
    /// yet received, whatever other senders' messages sit before it.
    pub(crate) const MATCHING: [&[&[SchedOp]]; 2] = [
        // Rank 0 receives from 3, 2, 1 while they all send at once.
        &[
            &[SchedOp::Recv { from: 3 }, SchedOp::Recv { from: 2 }, SchedOp::Recv { from: 1 }],
            &[SchedOp::Send { to: 0, bytes: 64 << 10 }],
            &[SchedOp::Send { to: 0, bytes: 8 << 10 }],
            &[SchedOp::Send { to: 0, bytes: 1 << 10 }],
        ],
        // Rank 1 sends a large then a small message to rank 0, rank 2's
        // lands between them, and rank 0 first waits on rank 3.
        &[
            &[
                SchedOp::Recv { from: 3 },
                SchedOp::Recv { from: 1 },
                SchedOp::Recv { from: 2 },
                SchedOp::Recv { from: 1 },
            ],
            &[
                SchedOp::Send { to: 0, bytes: 1 << 20 },
                SchedOp::Work { ps: 2_000_000 },
                SchedOp::Send { to: 0, bytes: 8 },
            ],
            &[SchedOp::Work { ps: 1_000_000 }, SchedOp::Send { to: 0, bytes: 100 }],
            &[SchedOp::Work { ps: 50_000_000 }, SchedOp::Send { to: 0, bytes: 0 }],
        ],
    ];

    /// Each rank's finish time, in ps, under the serial executor.
    fn matching_finishes(program: &[&[SchedOp]]) -> Vec<u64> {
        let p = program.len() as u32;
        let streams = program.iter().enumerate().map(|(r, ops)| OpStream {
            kind: Kind::Listed(ops.to_vec()),
            rank: r as u32,
            p,
            pos: 0,
            len: ops.len(),
        });
        let (ranks, _) = execute(&mut net(p), streams, ExecParams::default());
        ranks.iter().map(|st| st.finished.expect("rank finished").0).collect()
    }

    #[test]
    fn receives_match_the_earliest_message_of_their_sender() {
        let got = MATCHING.map(matching_finishes);
        assert_eq!(
            got,
            [
                vec![78_262_000, 500_000, 500_000, 500_000],
                vec![1_067_034_000, 3_000_000, 1_500_000, 50_500_000],
            ],
            "{got:?}"
        );
    }

    #[test]
    fn simulated_barrier_scales_logarithmically() {
        let t = |p: u32| {
            simulate_collective(
                &mut net(p),
                Collective::Barrier(BarrierAlgo::Dissemination),
                0,
                ExecParams::default(),
            )
            .completion
            .as_us()
        };
        let t16 = t(16);
        let t256 = t(256);
        // 16 -> 256 is 4 -> 8 rounds: about 2x, definitely not 16x.
        let ratio = t256 / t16;
        assert!((1.5..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn simulated_allreduce_algorithms_tradeoff() {
        let p = 64;
        let params = ExecParams::default();
        // Small vectors: recursive doubling (log p rounds) beats ring
        // (2(p-1) rounds).
        let small_rd = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            64,
            params,
        );
        let small_ring =
            simulate_collective(&mut net(p), Collective::Allreduce(AllreduceAlgo::Ring), 64, params);
        assert!(
            small_rd.completion < small_ring.completion,
            "rd {} vs ring {}",
            small_rd.completion,
            small_ring.completion
        );
        // Large vectors: ring's bandwidth optimality wins.
        let big = 16 << 20;
        let big_rd = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            big,
            params,
        );
        let big_ring =
            simulate_collective(&mut net(p), Collective::Allreduce(AllreduceAlgo::Ring), big, params);
        assert!(
            big_ring.completion < big_rd.completion,
            "ring {} vs rd {}",
            big_ring.completion,
            big_rd.completion
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let run1 = simulate_collective(
            &mut net(32),
            Collective::Allreduce(AllreduceAlgo::Ring),
            1 << 20,
            ExecParams::default(),
        );
        let run2 = simulate_collective(
            &mut net(32),
            Collective::Allreduce(AllreduceAlgo::Ring),
            1 << 20,
            ExecParams::default(),
        );
        assert_eq!(run1.completion, run2.completion);
        assert_eq!(run1.messages, run2.messages);
    }

    #[test]
    fn message_counts_match_theory() {
        let p = 8u32;
        let r = simulate_collective(
            &mut net(p),
            Collective::Barrier(BarrierAlgo::Dissemination),
            0,
            ExecParams::default(),
        );
        // Dissemination: p * ceil(log2 p) messages.
        assert_eq!(r.messages, (p * 3) as u64);
        let r = simulate_collective(
            &mut net(p),
            Collective::AlltoallPairwise,
            100,
            ExecParams::default(),
        );
        assert_eq!(r.messages, (p * (p - 1)) as u64);
        assert_eq!(r.payload_bytes, (p * (p - 1)) as u64 * 100);
    }

    #[test]
    fn simulation_scales_to_thousands_of_ranks() {
        let p = 4096;
        let start = std::time::Instant::now();
        let r = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            1024,
            ExecParams::default(),
        );
        assert!(r.completion > SimDuration::ZERO);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "simulation too slow: {:?}",
            start.elapsed()
        );
    }
}

