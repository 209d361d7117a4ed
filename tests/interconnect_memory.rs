//! Memory regression gate for the O(1) interconnect refactor: building
//! a 1,048,576-host Dragonfly [`Topology`] must allocate O(routers)
//! state, never any per-host (let alone per-host-pair) table, and
//! deriving routes through [`Topology::route_plan`] must not allocate
//! at all.
//!
//! The test binary installs `polaris_obs::alloc`'s counting allocator
//! and counts allocator calls around the
//! constructor and the routing hot path, and the bytes held at once
//! around a simulated collective. The counters are per thread:
//! the harness runs the tests of this binary on parallel threads, and a
//! sibling's allocations must not land in a measured window. The caps
//! are absolute and
//! generous: the 1M-host machine has 65,536 routers, so an O(hosts)
//! slip costs ~1M allocator-visible bytes in one growth sequence and an
//! O(hosts^2) table is astronomically over the cap — while the intended
//! O(1)/O(routers) representation stays in single digits. The schedule
//! executors are held the same way: O(1) schedule state and one inbox
//! per rank, never one per rank pair, and a rank record of at most 240
//! bytes with its share of the queue; the flow network keeps 8 bytes a
//! link. So is the event queue's re-fit: it
//! holds a far-future preload once, not twice, at no more than 44 bytes
//! an event, and a whole fleet run at no more than 100 bytes a node.

use polaris_arch::prelude::*;
use polaris_collectives::prelude::*;
use polaris_obs::alloc::{self, peak_live_bytes, Counting};
use polaris_rms::lifecycle::{churn_plan, run_fleet, ChurnSpec, FleetConfig};
use polaris_simnet::event::EventQueue;
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::{SimTime, PS_PER_SEC};
use polaris_simnet::topology::{Routing, Topology, TopologyKind};
use polaris_workloads::shuffle::{self, ShuffleConfig};
use polaris_workloads::{run_compiled, Fabric};

/// The system allocator with call, byte and live-byte counters, so the
/// tests can bound total constructor footprint, not just call count.
#[global_allocator]
static ALLOC: Counting = Counting;

const MILLION_HOST_FLY: TopologyKind = TopologyKind::Dragonfly {
    groups: 2048,
    routers_per_group: 32,
    hosts_per_router: 16,
};

/// The tentpole claim: the lean constructor derives everything
/// arithmetically, so a million-host Dragonfly costs a handful of
/// allocator calls and a bounded number of bytes — O(routers), not
/// O(hosts) and certainly not O(hosts^2).
#[test]
fn million_host_dragonfly_builds_in_o_routers_memory() {
    let (calls0, bytes0) = (alloc::calls(), alloc::bytes());
    let topo = std::hint::black_box(Topology::new(MILLION_HOST_FLY));
    let (calls1, bytes1) = (alloc::calls(), alloc::bytes());
    assert_eq!(topo.hosts(), 1 << 20);
    let calls = calls1 - calls0;
    let bytes = bytes1 - bytes0;
    // 65,536 routers at even one byte each would pass; one u32 per host
    // (4 MiB) would not, and a hosts^2 route table (4 TiB) is absurd.
    assert!(calls <= 64, "Topology::new made {calls} allocator calls");
    assert!(
        bytes <= 1 << 20,
        "Topology::new allocated {bytes} bytes for a 1M-host dragonfly"
    );
}

/// The routing hot path materializes nothing: deriving and walking a
/// `RoutePlan` for sampled pairs across the 1M-host machine performs
/// zero allocator calls under both minimal and Valiant routing.
#[test]
fn route_plan_hot_path_is_allocation_free() {
    for routing in [Routing::Minimal, Routing::Valiant { seed: 0xF00D }] {
        let topo = Topology::new(MILLION_HOST_FLY).with_routing(routing);
        let hosts = topo.hosts() as u64;
        let mut rng = SplitMix64::new(0x0A11_0C8E);
        // Warm up once so lazy process-wide state cannot masquerade as
        // a per-route allocation.
        let _ = std::hint::black_box(topo.hops(0, topo.hosts() - 1));
        let calls0 = alloc::calls();
        let mut acc = 0u64;
        for _ in 0..10_000 {
            let s = rng.next_below(hosts) as u32;
            let d = rng.next_below(hosts) as u32;
            for link in topo.route_plan(s, d) {
                acc = acc.wrapping_add(link.0 as u64);
            }
        }
        let calls1 = alloc::calls();
        std::hint::black_box(acc);
        assert_eq!(
            calls1 - calls0,
            0,
            "route_plan allocated under {routing:?}"
        );
    }
}

/// Schedules stream: simulating the F3 ring allreduce on 1024 hosts
/// keeps O(1) schedule state per rank. Materialized per-rank op vectors
/// were 1024 ranks x 5115 ops x 16 B = 84 MB (134 MB held, with `Vec`
/// doubling) on top of everything else. Everything else is about
/// 0.3 MiB: the ranks' states and inboxes, the network's link state and
/// the calendar queue, which takes a crowded bucket's buffer along with
/// its batch instead of leaving a burst-sized buffer in every bucket the
/// burst passed (that was 25.5 MB here). The cap leaves room for a few
/// O(hosts) tables, not for the schedules or per-bucket bursts.
#[test]
fn ring_allreduce_schedules_are_never_materialized() {
    let mut net = Network::new(
        Topology::new(TopologyKind::FatTree { k: 16 }),
        Generation::InfiniBand4x.link_model(),
    );
    let (r, held) = peak_live_bytes(|| {
        simulate_collective(
            &mut net,
            Collective::Allreduce(AllreduceAlgo::Ring),
            4 << 20,
            ExecParams::default(),
        )
    });
    assert_eq!(r.messages, 1024 * 2 * 1023);
    assert!(
        held < 4 << 20,
        "simulate_collective held {held} bytes at once for a 1024-rank ring allreduce"
    );
}

/// The flow network's state is one `busy_until` a link: the contention
/// model reads nothing else. `FatTree { k: 16 }` has 6 144 directed
/// links. While each link also counted the bytes and busy time it had
/// carried, `Network::new` held 147 456 B there (24 B a link).
#[test]
fn a_flow_network_holds_8_bytes_a_link() {
    let topo = Topology::new(TopologyKind::FatTree { k: 16 });
    let links = topo.link_count();
    assert_eq!(links, 6_144);
    let (net, held) =
        peak_live_bytes(|| Network::new(topo, Generation::InfiniBand4x.link_model()));
    assert_eq!(net.transfers(), 0);
    assert!(
        held <= 8 * links as i64,
        "Network::new held {held} bytes for {links} links"
    );
}

/// The 1024-rank ring allreduce above, held to the bytes a rank costs:
/// its record (schedule cursor, clock, inbox, the sender it waits on)
/// and its share of the queue and the inboxes' messages. With a
/// separate finish time and `usize` stream positions, the record was
/// 144 B and the run held 266 368 B at once in a debug build (260 B a
/// rank); at 112 B, 233 600 B (228 B a rank).
#[test]
fn a_1024_rank_ring_holds_at_most_240_bytes_a_rank() {
    let mut net = Network::new(
        Topology::new(TopologyKind::FatTree { k: 16 }),
        Generation::InfiniBand4x.link_model(),
    );
    let (r, held) = peak_live_bytes(|| {
        simulate_collective(
            &mut net,
            Collective::Allreduce(AllreduceAlgo::Ring),
            4 << 20,
            ExecParams::default(),
        )
    });
    assert_eq!(r.messages, 1024 * 2 * 1023);
    let per_rank = held as f64 / 1024.0;
    assert!(
        per_rank <= 240.0,
        "the ring held {held} bytes at once: {per_rank:.1} a rank"
    );
}

/// The sharded executor streams as well, at its single-shard path on
/// the calling thread. Each rank holds its collective's op stream, and
/// a compiled workload keeps each collective splice as its arguments
/// until the rank reaches it. Collected into `Vec`s, the ring's
/// schedules were 84 MB, and the 128-rank shuffle's spliced pairwise
/// all-to-all held 2.2 MB.
#[test]
fn sharded_schedules_and_programs_are_never_materialized() {
    let coll = Collective::Allreduce(AllreduceAlgo::Ring);
    let link = Generation::GigabitEthernet.link_model();
    let ((r, _), held) = peak_live_bytes(|| {
        simulate_collective_sharded_stats(1024, coll, 4 << 20, ExecParams::default(), link, 1)
    });
    assert_eq!(r.messages, 1024 * 2 * 1023);
    assert!(
        held < 4 << 20,
        "simulate_collective_sharded_stats held {held} bytes at once for a 1024-rank ring allreduce"
    );

    let node = NodeModel::build(NodeKind::SmpOnChip, &Projection::default().at(2008));
    let fabric = Fabric::fat_tree(Generation::InfiniBand4x, 128);
    let (r, held) = peak_live_bytes(|| {
        run_compiled(shuffle::compile(&ShuffleConfig::default(), &node, 128), &fabric, 1)
    });
    assert_eq!(r.messages, 2 * 128 * 127);
    assert!(
        held < 1 << 20,
        "a 128-rank shuffle held {held} bytes at once from compile to completion"
    );
}

/// The executor runs a rank ahead through its local ops and the
/// receives whose message is already sent, and a blocked receiver runs
/// on inside its sender's event, so only sends pass through the queue:
/// one event per message, where stepping every op took 3.5.
#[test]
fn ring_allreduce_dispatches_about_one_event_per_message() {
    let mut net = Network::new(
        Topology::new(TopologyKind::FatTree { k: 8 }),
        Generation::InfiniBand4x.link_model(),
    );
    let coll = Collective::Allreduce(AllreduceAlgo::Ring);
    let r = simulate_collective(&mut net, coll, 4 << 20, ExecParams::default());
    assert_eq!(r.messages, 128 * 2 * 127);
    assert!(
        r.events as f64 <= 1.2 * r.messages as f64,
        "{} events for {} messages",
        r.events,
        r.messages
    );
}

/// Each rank keeps one inbox of the messages it has not yet received,
/// in send order, so the bytes held follow the messages in flight, not
/// the sender pairs that ever spoke. A 512-rank pairwise alltoall makes
/// every rank hear from every other; one queue per receiver and sender
/// held 28.6 MiB at once.
#[test]
fn pairwise_alltoall_keeps_no_queue_per_pair() {
    let mut net = Network::new(
        Topology::new(TopologyKind::Crossbar { hosts: 512 }),
        Generation::InfiniBand4x.link_model(),
    );
    let (r, held) = peak_live_bytes(|| {
        simulate_collective(&mut net, Collective::AlltoallPairwise, 1024, ExecParams::default())
    });
    assert_eq!(r.messages, 512 * 511);
    assert!(
        held < 2 << 20,
        "simulate_collective held {held} bytes at once for a 512-rank pairwise alltoall"
    );
}

/// A re-fit moves the population out of `far`'s buffer into the wheel
/// without holding it twice. The preload is F12's 100 k-node bootstrap
/// as it was while every provision armed its deadline: each node's
/// provision completion 48 to 72 s out and its timeout at three times
/// that, 200 000 timers past the horizon of a wheel sized for link
/// events. The first pop re-fits the wheel to
/// them. The bytes it holds above the preload are capped at half the
/// preload's 24-byte handles: a re-fit that filled the buckets beside
/// the whole buffer would hold more than all of them again.
#[test]
fn a_refit_holds_a_far_future_preload_once() {
    const NODES: u32 = 100_000;
    const EVENTS: i64 = 2 * NODES as i64;
    let mut q = EventQueue::with_capacity(EVENTS as usize);
    let mut rng = SplitMix64::new(0xF12);
    for node in 0..NODES {
        let done = 48 * PS_PER_SEC + rng.next_below(24 * PS_PER_SEC);
        q.push(SimTime(done), node);
        q.push(SimTime(3 * done), node);
    }
    let (first, held) = peak_live_bytes(|| q.pop());
    assert!(first.is_some());
    assert_eq!(q.stats().rebuilds, 1, "the first pop re-fits the wheel");
    let cap = EVENTS * 24 / 2;
    assert!(
        held <= cap,
        "the re-fit held {held} bytes above a {EVENTS}-event preload (cap {cap})"
    );
}

/// The bytes a pending event costs the queue: its arena slot (key, link
/// and payload, stored once) plus its share of the containers. The
/// preload shape above, 200 000 timers 48 to 216 s out with 12-byte payloads
/// like `FleetEvent`, pushed into a queue sized for half of them, then
/// the first pop and its re-fit. With each key kept in a 24-byte handle
/// apart from its payload and `Vec` buckets, this read 53.6 bytes an
/// event; with one 32-byte slot an event and `far` naming slots by
/// `u32`, 38.6.
#[test]
fn a_far_future_preload_costs_at_most_44_bytes_an_event() {
    const NODES: u32 = 100_000;
    const EVENTS: f64 = 2.0 * NODES as f64;
    let mut rng = SplitMix64::new(0xF12);
    let (q, held) = peak_live_bytes(|| {
        let mut q = EventQueue::with_capacity(NODES as usize);
        for node in 0..NODES {
            let done = 48 * PS_PER_SEC + rng.next_below(24 * PS_PER_SEC);
            q.push(SimTime(done), [node; 3]);
            q.push(SimTime(3 * done), [node; 3]);
        }
        assert!(q.pop().is_some());
        q
    });
    assert_eq!(q.stats().rebuilds, 1, "the first pop re-fits the wheel");
    let per_event = held as f64 / EVENTS;
    assert!(
        per_event <= 44.0,
        "the queue held {held} bytes at once for {EVENTS} events: {per_event:.1} an event"
    );
}

/// A fleet run holds each node's bootstrap once. A 20 000-node fleet
/// with 1 250 jobs under an 80-event churn plan, F12's shape at a fifth
/// of its scale, run whole: while every provision pushed both its
/// completion and a timeout that fired as a no-op after it, the run
/// held 2 621 168 B at once in a debug build (131.1 B a node); with one
/// event per started operation, a timeout only where the node is dead
/// before the completion, 1 819 392 B (91.0 B a node).
#[test]
fn a_fleet_run_holds_at_most_100_bytes_a_node() {
    const NODES: u32 = 20_000;
    let cfg = FleetConfig { nodes: NODES, jobs: 1_250, ..FleetConfig::default() };
    let plan = churn_plan(12, NODES, &ChurnSpec { events: 80 });
    let (r, held) = peak_live_bytes(|| run_fleet(cfg, &plan, None));
    assert!(r.converged, "{:?}", r.census);
    let per_node = held as f64 / NODES as f64;
    assert!(per_node <= 100.0, "the fleet held {held} bytes at once: {per_node:.1} a node");
}
