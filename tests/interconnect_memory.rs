//! Memory regression gate for the O(1) interconnect refactor: building
//! a 1,048,576-host Dragonfly [`Topology`] must allocate O(routers)
//! state, never any per-host (let alone per-host-pair) table, and
//! deriving routes through [`Topology::route_plan`] must not allocate
//! at all.
//!
//! The test binary installs a metering wrapper around the system
//! allocator and counts allocator calls around the
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
//! per rank, never one per rank pair. So is the event queue's re-fit: it
//! holds a far-future preload once, not twice.

use polaris_collectives::prelude::*;
use polaris_simnet::event::EventQueue;
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::{SimTime, PS_PER_SEC};
use polaris_simnet::topology::{Routing, Topology, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with call, byte and live-byte counters, so the
/// tests can bound total constructor footprint, not just call count.
struct MeteredAlloc;

thread_local! {
    // `const` + `Cell<u64>`: reachable from the allocator hook without
    // allocating or registering a destructor.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread holds now (allocated minus freed), and the most
    // it has held since `peak_live_bytes` last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    CALLS.with(|c| c.set(c.get() + 1));
}

fn hold(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        hold(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: MeteredAlloc = MeteredAlloc;

/// `(calls, bytes)` allocated by the calling thread so far.
fn counts() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// The most bytes the calling thread held at once while running `f`,
/// beyond what it held going in.
fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

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
    let (calls0, bytes0) = counts();
    let topo = std::hint::black_box(Topology::new(MILLION_HOST_FLY));
    let (calls1, bytes1) = counts();
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
        let (calls0, _) = counts();
        let mut acc = 0u64;
        for _ in 0..10_000 {
            let s = rng.next_below(hosts) as u32;
            let d = rng.next_below(hosts) as u32;
            for link in topo.route_plan(s, d) {
                acc = acc.wrapping_add(link.0 as u64);
            }
        }
        let (calls1, _) = counts();
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
/// without holding it twice. F12's 100 k-node bootstrap pushes, before
/// the first pop, each node's provision completion 48 to 72 s out and
/// its timeout at three times that: 200 000 timers past the horizon of
/// a wheel sized for link events. The first pop re-fits the wheel to
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
