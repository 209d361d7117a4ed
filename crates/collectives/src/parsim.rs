//! Sharded conservative-parallel execution of collective schedules and
//! workload programs.
//!
//! [`simulate_collective_sharded`] interprets the same per-rank
//! schedules as [`crate::simx::simulate_collective`], but partitions
//! the ranks across [`ShardSim`] shards so a figure-scale run can use
//! multiple cores. [`simulate_programs_sharded`] runs workload
//! [`Program`]s the same way.
//!
//! Like `simx`, it never holds a schedule. Each rank holds its op
//! stream and the op it stands on (`crate::cursor`): a collective's
//! stream is [`crate::simx::ops`] itself, and a program's splices
//! expand through `ops` as the rank reaches them. Collected, the
//! schedules of a 256-rank ring allreduce are 5 MiB.
//!
//! The network model is a partitioned crossbar: each
//! rank owns an uplink and a downlink with first-come-first-served
//! occupancy, and every message pays the contention-free crossbar cost
//! `message_time(bytes, 2)` plus whatever extra queueing its uplink
//! (charged at the sender, in send order) and downlink (charged at the
//! receiver, in wire-arrival order) impose. Uplink state lives with the
//! sender's shard and downlink state with the receiver's, so no link
//! state is ever shared across threads.
//!
//! The conservative lookahead is the link's `hop_latency`: a message
//! handed to the wire at `t` cannot reach another rank's downlink
//! before `t + hop_latency`, which is exactly the window bound
//! [`ShardSim`] needs.
//!
//! **Determinism / shard-count invariance.** Every event carries a key
//! derived from global identities — `rank << 32 | per-rank sequence` —
//! and each rank's sequence counter is only ever advanced by events
//! executing on the shard that owns that rank, in the global
//! `(time, key)` order. Shard ids never enter a key, so runs at
//! `jobs = 1, 2, 4, ...` execute the identical event order and return
//! bit-identical results; `tests/parallel_determinism.rs` holds this as
//! an oracle. The serial flow-level model in `simx` resolves crossbar
//! contention in a different (also deterministic) charge order, so the
//! two executors agree on message counts and scaling shape but not on
//! exact picoseconds — the sharded executor's `jobs = 1` run is the
//! reference for its own parallel runs.

use crate::cursor::Cursor;
use crate::inbox::Inbox;
use crate::program::{Program, ProgramOps};
use crate::simx::{ops, Collective, ExecParams, SchedOp, SimResult};
use polaris_simnet::link::LinkModel;
use polaris_simnet::shard::{Partition, ShardCtx, ShardRunStats, ShardSim, ShardWorld};
use polaris_simnet::time::{SimDuration, SimTime};
use std::sync::Arc;

/// What one message pays for its route across the fabric, beyond the
/// queueing charged at its endpoint links: the hop count fed to
/// [`LinkModel::message_time`] and a fixed extra latency (e.g. an
/// optical circuit reconfiguration) added once per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCost {
    /// Hops on the contention-free route; must be >= 1 so arrivals
    /// never undercut the engine's `hop_latency` lookahead.
    pub hops: u32,
    /// Fixed extra picoseconds added to the message's arrival.
    pub extra_ps: u64,
}

impl PathCost {
    /// The partitioned-crossbar default: host, switch, host.
    pub const CROSSBAR: PathCost = PathCost { hops: 2, extra_ps: 0 };
}

/// Per-message route costs for a fabric, as a pure `(src, dst)`
/// function so it can be shared (and cloned) across shard worlds
/// without any mutable routing state.
#[derive(Clone)]
pub struct PathModel(Arc<dyn Fn(u32, u32) -> PathCost + Send + Sync>);

impl PathModel {
    pub fn new(f: impl Fn(u32, u32) -> PathCost + Send + Sync + 'static) -> Self {
        PathModel(Arc::new(f))
    }

    #[inline]
    pub fn cost(&self, src: u32, dst: u32) -> PathCost {
        let c = (self.0)(src, dst);
        debug_assert!(c.hops >= 1, "a route has at least one hop");
        c
    }
}

#[derive(Debug, Clone, Copy)]
enum PEv {
    /// Run rank `r`'s next op.
    Step(u32),
    /// A message's head reaches `to`'s downlink; `base` is the send
    /// time plus uplink queueing already paid at the sender.
    Arrive { from: u32, to: u32, bytes: u64, base: SimTime },
}

struct PRank {
    /// The rank's program and the op it stands on.
    at: Cursor<ProgramOps<Program>>,
    time: SimTime,
    finished: Option<SimTime>,
    /// Per-rank event sequence; with the rank id it forms the globally
    /// unique tie-break key.
    seq: u64,
    /// Uplink free time (ps) — sender-side occupancy.
    up_busy: u64,
    /// Downlink free time (ps) — receiver-side occupancy.
    down_busy: u64,
    /// Messages whose head reached this rank and that it has not yet
    /// received.
    inbox: Inbox,
    /// The sender this rank is blocked receiving from, with no message
    /// of that sender's in the inbox.
    waiting_on: Option<u32>,
}

struct ParWorld {
    part: Partition,
    /// First rank owned by this shard.
    base: u32,
    params: ExecParams,
    link: LinkModel,
    /// Route costs; `None` is the 2-hop crossbar.
    path: Option<PathModel>,
    ranks: Vec<PRank>,
    messages: u64,
    payload_bytes: u64,
}

impl ParWorld {
    #[inline]
    fn local(&self, rank: u32) -> usize {
        (rank - self.base) as usize
    }

    #[inline]
    fn next_key(&mut self, rank: u32) -> u64 {
        let local = self.local(rank);
        let st = &mut self.ranks[local];
        st.seq += 1;
        ((rank as u64) << 32) | st.seq
    }

    /// Wire occupancy of one message (serialization of payload plus
    /// headers) in picoseconds.
    #[inline]
    fn ser_ps(&self, bytes: u64) -> u64 {
        self.link.serialize_payload(bytes).0
    }

    fn step(&mut self, ctx: &mut ShardCtx<'_, PEv>, r: u32) {
        let now = ctx.now();
        let local = self.local(r);
        debug_assert!(self.ranks[local].time <= now);
        self.ranks[local].time = now;
        let Some(op) = self.ranks[local].at.op() else {
            self.ranks[local].finished.get_or_insert(now);
            return;
        };
        match op {
            SchedOp::Send { to, bytes } => {
                let t = (now + self.params.overhead).0;
                let ser = self.ser_ps(bytes);
                let st = &mut self.ranks[local];
                let start0 = t.max(st.up_busy);
                st.up_busy = start0 + ser;
                st.at.advance();
                self.messages += 1;
                self.payload_bytes += bytes;
                // The head leaves the uplink at start0 and needs one hop
                // to reach the destination downlink — never sooner than
                // now + lookahead, which keeps the cross-shard contract.
                let head = start0 + self.link.hop_latency;
                let akey = self.next_key(r);
                ctx.send(
                    self.part.shard_of(to),
                    SimTime(head),
                    akey,
                    PEv::Arrive { from: r, to, bytes, base: SimTime(start0) },
                );
                let skey = self.next_key(r);
                ctx.at(SimTime(t), skey, PEv::Step(r));
            }
            SchedOp::Recv { from } => {
                let st = &mut self.ranks[local];
                match st.inbox.find(from) {
                    Some((pos, arrival)) if arrival <= now => {
                        st.inbox.take(pos);
                        st.at.advance();
                        let key = self.next_key(r);
                        ctx.at(now + self.params.overhead, key, PEv::Step(r));
                    }
                    // On the wire: look again when it has arrived.
                    Some((_, arrival)) => {
                        let key = self.next_key(r);
                        ctx.at(arrival, key, PEv::Step(r));
                    }
                    None => st.waiting_on = Some(from),
                }
            }
            SchedOp::Compute { bytes } => {
                let d = SimDuration::from_secs_f64(bytes as f64 / self.params.compute_bps as f64);
                self.ranks[local].at.advance();
                let key = self.next_key(r);
                ctx.at(now + d, key, PEv::Step(r));
            }
            SchedOp::Work { ps } => {
                self.ranks[local].at.advance();
                let key = self.next_key(r);
                ctx.at(now + SimDuration::from_ps(ps), key, PEv::Step(r));
            }
        }
    }

    fn arrive(&mut self, ctx: &mut ShardCtx<'_, PEv>, from: u32, to: u32, bytes: u64, base: SimTime) {
        let now = ctx.now();
        let local = self.local(to);
        // Downlink queueing, charged in head-arrival order.
        let ser = self.ser_ps(bytes);
        let st = &mut self.ranks[local];
        let start1 = now.0.max(st.down_busy);
        st.down_busy = start1 + ser;
        let extra1 = start1 - now.0;
        let cost = self
            .path
            .as_ref()
            .map_or(PathCost::CROSSBAR, |p| p.cost(from, to));
        let arrival =
            SimTime(base.0 + extra1 + cost.extra_ps) + self.link.message_time(bytes, cost.hops);
        let st = &mut self.ranks[local];
        st.inbox.push(from, arrival);
        if st.waiting_on == Some(from) {
            st.waiting_on = None;
            let wake = st.time.max(arrival);
            let key = self.next_key(to);
            ctx.at(wake, key, PEv::Step(to));
        }
    }
}

impl ShardWorld for ParWorld {
    type Event = PEv;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, PEv>, event: PEv) {
        match event {
            PEv::Step(r) => self.step(ctx, r),
            PEv::Arrive { from, to, bytes, base } => self.arrive(ctx, from, to, bytes, base),
        }
    }
}

/// Execute one collective over a `p`-rank partitioned crossbar of
/// `link`-class links, sharded across `jobs` engine shards (threaded
/// when `jobs > 1`). Returns the same [`SimResult`] shape as the serial
/// executor. Results are bit-identical for every `jobs` value.
///
/// Panics if any rank's schedule deadlocks (a schedule-generation bug).
pub fn simulate_collective_sharded(
    p: u32,
    coll: Collective,
    bytes: u64,
    params: ExecParams,
    link: LinkModel,
    jobs: u32,
) -> SimResult {
    simulate_collective_sharded_stats(p, coll, bytes, params, link, jobs).0
}

/// Like [`simulate_collective_sharded`], additionally returning the
/// engine's [`ShardRunStats`] so callers can publish the per-shard
/// event ledger through the observability plane
/// (`ShardRunStats::publish`) and reconcile it against the registry.
pub fn simulate_collective_sharded_stats(
    p: u32,
    coll: Collective,
    bytes: u64,
    params: ExecParams,
    link: LinkModel,
    jobs: u32,
) -> (SimResult, ShardRunStats) {
    let streams = (0..p).map(|r| ProgramOps::from(ops(coll, r, p, bytes)));
    execute(streams, params, link, None, jobs)
}

// Forwarding shim: called only by the frozen examples/benchmark/src/probes.rs.
#[doc(hidden)]
pub fn simulate_collective_sharded_opts(
    p: u32,
    coll: Collective,
    bytes: u64,
    params: ExecParams,
    link: LinkModel,
    jobs: u32,
    _speculate: bool,
) -> (SimResult, ShardRunStats) {
    simulate_collective_sharded_stats(p, coll, bytes, params, link, jobs)
}

/// Execute per-rank programs (`programs[r]` is rank `r`'s) over the
/// partitioned fabric, sharded across `jobs` engine shards. This is the
/// entry point the workload compilers use: their programs splice
/// collective schedules between halo exchanges and roofline-priced
/// [`SchedOp::Work`] phases, and run through the same engine and
/// determinism contract as the collectives. `path` supplies
/// per-message route costs (hop counts + fixed extras) for non-crossbar
/// fabrics; `None` keeps the 2-hop crossbar.
///
/// Results are bit-identical for every `jobs` value. Panics if any
/// rank's program deadlocks (a program-generation bug).
pub fn simulate_programs_sharded(
    programs: Vec<Program>,
    params: ExecParams,
    link: LinkModel,
    path: Option<PathModel>,
    jobs: u32,
) -> (SimResult, ShardRunStats) {
    execute(programs.into_iter().map(Program::into_ops), params, link, path, jobs)
}

/// Run one op stream per rank, in rank order, until the engine drains.
fn execute(
    mut streams: impl ExactSizeIterator<Item = ProgramOps<Program>>,
    params: ExecParams,
    link: LinkModel,
    path: Option<PathModel>,
    jobs: u32,
) -> (SimResult, ShardRunStats) {
    let p = u32::try_from(streams.len()).expect("ranks are numbered in u32");
    assert!(p > 0, "at least one rank");
    let part = Partition::block(p, jobs.max(1));
    let worlds: Vec<ParWorld> = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            let base = ranks.start;
            ParWorld {
                part,
                base,
                params,
                link,
                path: path.clone(),
                ranks: streams
                    .by_ref()
                    .take(ranks.len())
                    .map(|stream| PRank {
                        at: Cursor::new(stream),
                        time: SimTime::ZERO,
                        finished: None,
                        seq: 0,
                        up_busy: 0,
                        down_busy: 0,
                        inbox: Inbox::default(),
                        waiting_on: None,
                    })
                    .collect(),
                messages: 0,
                payload_bytes: 0,
            }
        })
        .collect();
    let mut sim = ShardSim::uniform(worlds, SimDuration(link.hop_latency.max(1)));
    for r in 0..p {
        sim.schedule(part.shard_of(r), SimTime::ZERO, (r as u64) << 32, PEv::Step(r));
    }
    let stats = sim.run(jobs > 1, None);
    let mut completion = SimTime::ZERO;
    let mut messages = 0;
    let mut payload_bytes = 0;
    for w in sim.worlds() {
        messages += w.messages;
        payload_bytes += w.payload_bytes;
        for (i, st) in w.ranks.iter().enumerate() {
            let done = st.finished.unwrap_or_else(|| {
                panic!("rank {} deadlocked at op {}", w.base + i as u32, st.at.index())
            });
            completion = completion.max(done);
        }
    }
    (
        SimResult {
            completion: completion.since(SimTime::ZERO),
            payload_bytes,
            messages,
            events: stats.events_dispatched,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather::AllgatherAlgo;
    use crate::allreduce::AllreduceAlgo;
    use crate::barrier::BarrierAlgo;
    use crate::bcast::BcastAlgo;
    use crate::simx::simulate_collective;
    use polaris_simnet::link::Generation;
    use polaris_simnet::network::Network;
    use polaris_simnet::topology::{Topology, TopologyKind};

    const CASES: &[(Collective, u64)] = &[
        (Collective::Barrier(BarrierAlgo::Dissemination), 0),
        (Collective::Barrier(BarrierAlgo::Tree), 0),
        (Collective::Bcast(BcastAlgo::Binomial), 1 << 16),
        (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 1 << 10),
        (Collective::Allreduce(AllreduceAlgo::Ring), 1 << 20),
        (Collective::Allgather(AllgatherAlgo::Bruck), 4096),
        (Collective::AlltoallPairwise, 512),
    ];

    #[test]
    fn job_counts_are_bit_identical() {
        for &(coll, bytes) in CASES {
            for p in [16u32, 31] {
                let link = Generation::InfiniBand4x.link_model();
                let base =
                    simulate_collective_sharded(p, coll, bytes, ExecParams::default(), link, 1);
                for jobs in [2u32, 3, 4] {
                    let run = simulate_collective_sharded(
                        p,
                        coll,
                        bytes,
                        ExecParams::default(),
                        link,
                        jobs,
                    );
                    assert_eq!(
                        run.completion, base.completion,
                        "{coll:?} p={p} jobs={jobs}"
                    );
                    assert_eq!(run.messages, base.messages, "{coll:?} p={p} jobs={jobs}");
                    assert_eq!(run.payload_bytes, base.payload_bytes);
                }
            }
        }
    }

    #[test]
    fn message_counts_match_serial_executor() {
        for &(coll, bytes) in CASES {
            let p = 16u32;
            let link = Generation::GigabitEthernet.link_model();
            let sharded =
                simulate_collective_sharded(p, coll, bytes, ExecParams::default(), link, 4);
            let mut net = Network::new(
                Topology::new(TopologyKind::Crossbar { hosts: p }),
                link,
            );
            let serial = simulate_collective(&mut net, coll, bytes, ExecParams::default());
            assert_eq!(sharded.messages, serial.messages, "{coll:?}");
            assert_eq!(sharded.payload_bytes, serial.payload_bytes, "{coll:?}");
            assert!(sharded.completion > SimDuration::ZERO || bytes == 0);
        }
    }

    /// The receive-matching programs of the serial executor's tests:
    /// `(completion ps, events)` of each at one shard.
    #[test]
    fn receives_match_the_earliest_message_of_their_sender() {
        let got = crate::simx::tests::MATCHING.map(|program| {
            let programs = program.iter().map(|ops| Program::from(ops.to_vec())).collect();
            let link = Generation::GigabitEthernet.link_model();
            let (r, _) = simulate_programs_sharded(programs, ExecParams::default(), link, None, 1);
            (r.completion.0, r.events)
        });
        assert_eq!(got, [(630_016_000, 14), (8_611_620_000, 20)], "{got:?}");
    }

    #[test]
    #[should_panic(expected = "rank 1 deadlocked at op 0")]
    fn a_receive_nobody_sends_names_its_rank_and_op() {
        let programs = vec![Program::default(), Program::from(vec![SchedOp::Recv { from: 0 }])];
        let link = Generation::GigabitEthernet.link_model();
        simulate_programs_sharded(programs, ExecParams::default(), link, None, 1);
    }

    /// FNV-1a over the completion ps of every collective at every
    /// payload of the grid on the gigabit crossbar, one digest per
    /// collective.
    fn completion_digest(coll: Collective) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let link = Generation::GigabitEthernet.link_model();
        for p in [2u32, 3, 5, 8, 17, 64] {
            for bytes in [0u64, 8, 1000, (4 << 20) - (12 << 10)] {
                let r = simulate_collective_sharded(p, coll, bytes, ExecParams::default(), link, 1);
                mix(r.completion.0);
            }
        }
        h
    }

    /// Taken from the executor that kept one hashed queue per sender
    /// and receiver: the picoseconds F13 and F14 plot.
    #[test]
    fn completions_match_pinned_digests() {
        const PINNED: [u64; 11] = [
            0xd307a9d02babc6d5,
            0xefbf20dc125191a5,
            0xfa2d7fc83a498a3b,
            0x284d39c7d7be7292,
            0x2de76abe83cc698a,
            0x2d56354d928a1471,
            0xfe840ef17dd2618e,
            0xd97813bb65d0d2f7,
            0xb8cd848b675f397a,
            0xd97813bb65d0d2f7,
            0x28acf6a9b1f80154,
        ];
        let got = crate::simx::tests::ALL_COLLECTIVES.map(completion_digest);
        assert_eq!(got, PINNED, "completion digests moved: {got:#018x?}");
    }

    #[test]
    fn completion_scales_with_generation() {
        // A slower wire must never finish the same collective sooner.
        let coll = Collective::Allreduce(AllreduceAlgo::Ring);
        let fast = simulate_collective_sharded(
            16,
            coll,
            1 << 20,
            ExecParams::default(),
            Generation::InfiniBand4x.link_model(),
            2,
        );
        let slow = simulate_collective_sharded(
            16,
            coll,
            1 << 20,
            ExecParams::default(),
            Generation::FastEthernet.link_model(),
            2,
        );
        assert!(slow.completion > fast.completion);
    }
}
