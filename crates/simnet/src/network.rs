//! Flow-level network model with per-link contention.
//!
//! [`Network`] charges each message's serialization time against every
//! link on its route, tracking per-link `busy_until` horizons. It is the
//! fast model used by the scaling experiments (thousands of nodes);
//! `packetnet.rs` holds the packet-level reference model used to
//! validate its behaviour in the small.
//!
//! Callers must present transfers in non-decreasing time order (the
//! discrete-event executors do this by construction); the model then
//! yields deterministic, contention-aware delivery times.

use crate::fault::{FaultEvent, FaultInjector, FaultPlan, FaultVerdict};
use crate::link::{LinkId, LinkModel};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Result of presenting one transfer to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte arrives at the destination NIC.
    pub arrival: SimTime,
    /// Whether fault injection dropped the message (arrival is then the
    /// time the loss would have been detected at the sender's timeout).
    pub dropped: bool,
    /// Whether the payload arrived damaged (a CRC check at the
    /// receiver would fail; the NIC layer surfaces this as an error
    /// completion).
    pub corrupted: bool,
}

/// Bandwidth used for rank-local (loopback) transfers: a 2002-era memory
/// copy, 2 GB/s.
const LOCAL_COPY_BPS: u64 = 2_000_000_000;

pub struct Network {
    topo: Topology,
    model: LinkModel,
    /// Per link, the time it next becomes free: the whole of the
    /// contention model's state.
    busy_until: Vec<SimTime>,
    faults: Option<FaultInjector>,
    transfers: u64,
    payload_bytes: u64,
    dropped: u64,
    corrupted: u64,
    /// The per-size terms of the last size presented to the wire.
    size: SizeTerms,
    /// Route buffer for the fault-injection path only: link-scoped fault
    /// rules judge the whole route as a slice. The fault-free hot path
    /// streams hops straight off [`Topology::route_plan`] and never
    /// materializes a route.
    route_scratch: Vec<LinkId>,
}

/// What a message of `bytes` costs on each link, whatever its route.
///
/// Both terms round a float product, a library call on the x86-64
/// baseline, and collective streams repeat one or two sizes (a ring's
/// chunk, a tree's vector), so [`Network`] keeps the last size's terms
/// and recomputes them only when the size changes.
#[derive(Debug, Clone, Copy)]
struct SizeTerms {
    bytes: u64,
    /// Serialization of the wire bytes: each link's occupancy.
    ser: SimDuration,
    /// Per-hop delay of the message head: the hop latency plus, for
    /// cut-through, one header's serialization, and for
    /// store-and-forward, the first packet's.
    per_hop: SimDuration,
}

impl SizeTerms {
    fn new(model: &LinkModel, bytes: u64) -> Self {
        let fwd = if model.cut_through {
            model.serialize(model.header_bytes as u64)
        } else {
            model.serialize(bytes.min(model.mtu as u64) + model.header_bytes as u64)
        };
        SizeTerms {
            bytes,
            ser: model.serialize_payload(bytes),
            per_hop: SimDuration::from_ps(model.hop_latency) + fwd,
        }
    }
}

impl Network {
    pub fn new(topo: Topology, model: LinkModel) -> Self {
        let n = topo.link_count();
        Network {
            topo,
            model,
            busy_until: vec![SimTime::ZERO; n],
            faults: None,
            transfers: 0,
            payload_bytes: 0,
            dropped: 0,
            corrupted: 0,
            size: SizeTerms::new(&model, 0),
            route_scratch: Vec::new(),
        }
    }

    /// Attach a [`FaultPlan`]: every subsequent transfer is judged by
    /// its deterministic injector, and injected events accumulate in
    /// [`Network::fault_log`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultInjector::new(plan));
        self
    }

    /// Replay log of every fault injected so far (empty without a plan).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |f| f.log())
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Present a transfer of `bytes` payload from `src` to `dst` starting
    /// at `now`; returns the contention-aware delivery time.
    pub fn transfer(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) -> Delivery {
        self.transfers += 1;
        self.payload_bytes += bytes;
        if src == dst {
            // Loopback: a local memory copy, never on the wire and
            // exempt from fault injection.
            let t = SimDuration::from_secs_f64(bytes as f64 / LOCAL_COPY_BPS as f64);
            return Delivery {
                arrival: now + t,
                dropped: false,
                corrupted: false,
            };
        }
        // Split the borrow: the topology stays immutably borrowed for the
        // route plan while link occupancy is charged against `busy_until`.
        let Network {
            topo,
            model,
            busy_until,
            faults,
            dropped: dropped_total,
            corrupted: corrupted_total,
            size,
            route_scratch,
            ..
        } = self;
        let mut corrupted = false;
        if let Some(inj) = faults {
            // Link-scoped fault rules judge the route as a slice; only
            // chaos runs (small worlds) pay for the materialization.
            topo.route_into(src, dst, route_scratch);
            match inj.judge(now, src, dst, route_scratch) {
                FaultVerdict::Deliver => {}
                FaultVerdict::DeliverCorrupted => {
                    *corrupted_total += 1;
                    corrupted = true;
                }
                FaultVerdict::Drop(_) => {
                    *dropped_total += 1;
                    // The sender learns of the loss only after a timeout;
                    // model that as the nominal delivery time
                    // (retransmission policy layers on top).
                    let nominal = now + model.message_time(bytes, route_scratch.len() as u32);
                    return Delivery {
                        arrival: nominal,
                        dropped: true,
                        corrupted: false,
                    };
                }
            }
        }
        if size.bytes != bytes {
            *size = SizeTerms::new(model, bytes);
        }
        let SizeTerms { ser, per_hop, .. } = *size;
        // Stream the route plan charging occupancy; `extra` accumulates
        // queueing delay beyond the uncontended schedule. No route vector
        // exists on this path.
        let mut extra = SimDuration::ZERO;
        let mut hops = 0u32;
        for link in topo.route_plan(src, dst) {
            let nominal_head = now + extra + per_hop.saturating_mul(hops as u64);
            let busy = &mut busy_until[link.0 as usize];
            let start = nominal_head.max(*busy);
            extra += start.since(nominal_head);
            *busy = start + ser;
            hops += 1;
        }
        let arrival = now + extra + model.message_time_from(ser, bytes, hops);
        Delivery {
            arrival,
            dropped: false,
            corrupted,
        }
    }

    /// Uncontended transfer time (does not disturb link state).
    pub fn nominal_time(&self, src: u32, dst: u32, bytes: u64) -> SimDuration {
        if src == dst {
            SimDuration::from_secs_f64(bytes as f64 / LOCAL_COPY_BPS as f64)
        } else {
            self.model.message_time(bytes, self.topo.hops(src, dst))
        }
    }

    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Generation;
    use crate::topology::TopologyKind;

    fn net(kind: TopologyKind, g: Generation) -> Network {
        Network::new(Topology::new(kind), g.link_model())
    }

    /// Links whose occupancy a transfer has moved off zero.
    fn busy_links(n: &Network) -> usize {
        n.busy_until.iter().filter(|&&t| t != SimTime::ZERO).count()
    }

    #[test]
    fn uncontended_matches_analytic_model() {
        let mut n = net(
            TopologyKind::Crossbar { hosts: 4 },
            Generation::InfiniBand4x,
        );
        let d = n.transfer(SimTime::ZERO, 0, 1, 4096);
        let expect = n.model().message_time(4096, 2);
        assert_eq!(d.arrival, SimTime::ZERO + expect);
        assert!(!d.dropped);
    }

    /// An uncontended transfer takes exactly the analytic
    /// [`LinkModel::message_time`] on every route length a fat tree has
    /// (same edge, same pod, cross pod), for cut-through and
    /// store-and-forward generations alike. Link `j` of its route is
    /// busy until the head reaches it, `j` per-hop delays after `now`,
    /// plus one serialization of the wire bytes, and no other link is
    /// charged.
    #[test]
    fn uncontended_fat_tree_matches_message_time() {
        let now = SimTime(7_000_000);
        for g in Generation::ALL {
            for (dst, hops) in [(1u32, 2u32), (2, 4), (15, 6)] {
                for bytes in [0u64, 8, 64, 1500, 1501, 4096, 65_537, 4 << 20] {
                    let mut n = net(TopologyKind::FatTree { k: 4 }, g);
                    let d = n.transfer(now, 0, dst, bytes);
                    let m = *n.model();
                    assert_eq!(
                        d.arrival,
                        now + m.message_time(bytes, hops),
                        "{g:?} {hops} hops {bytes} B"
                    );
                    assert_eq!(n.nominal_time(0, dst, bytes), m.message_time(bytes, hops));
                    let head = if m.cut_through {
                        m.serialize(m.header_bytes as u64)
                    } else {
                        m.serialize(bytes.min(m.mtu as u64) + m.header_bytes as u64)
                    };
                    let per_hop = SimDuration::from_ps(m.hop_latency) + head;
                    let route = n.topology().route(0, dst);
                    assert_eq!(route.len() as u32, hops);
                    for (j, link) in route.iter().enumerate() {
                        assert_eq!(
                            n.busy_until[link.0 as usize],
                            now + per_hop.saturating_mul(j as u64) + m.serialize_payload(bytes),
                            "{g:?} {bytes} B, link {j} of {hops}"
                        );
                    }
                    assert_eq!(busy_links(&n), hops as usize);
                }
            }
        }
    }

    /// Back-to-back transfers over one route queue behind each other:
    /// the second's delay is the contention model's `extra`, which must
    /// come out the same however the per-message terms are computed.
    #[test]
    fn contended_fat_tree_arrivals_are_pinned() {
        let mut out = Vec::new();
        for g in [Generation::GigabitEthernet, Generation::InfiniBand4x] {
            let mut n = net(TopologyKind::FatTree { k: 4 }, g);
            for (i, (src, dst, bytes)) in
                [(0u32, 15u32, 100_000u64), (1, 15, 64), (4, 14, 4096), (0, 2, 1501)]
                    .into_iter()
                    .enumerate()
            {
                out.push(n.transfer(SimTime(i as u64 * 1_000), src, dst, bytes).arrival.0);
            }
        }
        assert_eq!(out, PINNED_CONTENDED_ARRIVALS);
    }

    const PINNED_CONTENDED_ARRIVALS: [u64; 8] = [
        879_888_000,
        900_704_000,
        97_042_000,
        845_920_000,
        102_670_000,
        102_764_000,
        5_358_000,
        103_801_000,
    ];

    #[test]
    fn loopback_is_fast_and_off_the_wire() {
        let mut n = net(TopologyKind::Crossbar { hosts: 4 }, Generation::FastEthernet);
        let d = n.transfer(SimTime::ZERO, 2, 2, 1 << 20);
        assert!(d.arrival < SimTime::ZERO + n.model().message_time(1 << 20, 2));
        assert_eq!(busy_links(&n), 0);
    }

    #[test]
    fn contention_serializes_same_destination() {
        let mut n = net(
            TopologyKind::Crossbar { hosts: 4 },
            Generation::GigabitEthernet,
        );
        let bytes = 1 << 20;
        // Two senders target node 0 at the same instant: the second must
        // wait roughly a full serialization on the shared downlink.
        let d1 = n.transfer(SimTime::ZERO, 1, 0, bytes);
        let d2 = n.transfer(SimTime::ZERO, 2, 0, bytes);
        let ser = n.model().serialize_payload(bytes);
        assert!(d2.arrival.since(d1.arrival) >= SimDuration::from_ps(ser.as_ps() * 9 / 10));
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut n = net(
            TopologyKind::Crossbar { hosts: 8 },
            Generation::GigabitEthernet,
        );
        let d1 = n.transfer(SimTime::ZERO, 0, 1, 1 << 20);
        let d2 = n.transfer(SimTime::ZERO, 2, 3, 1 << 20);
        assert_eq!(d1.arrival, d2.arrival);
    }

    #[test]
    fn later_transfer_on_free_link_is_unaffected() {
        let mut n = net(
            TopologyKind::Crossbar { hosts: 4 },
            Generation::GigabitEthernet,
        );
        n.transfer(SimTime::ZERO, 0, 1, 1 << 20);
        let late = SimTime::ZERO + SimDuration::from_secs(1);
        let d = n.transfer(late, 0, 1, 4096);
        assert_eq!(d.arrival, late + n.model().message_time(4096, 2));
    }

    #[test]
    fn loss_injection_is_deterministic_and_calibrated() {
        let mk = || {
            net(TopologyKind::Ring { hosts: 4 }, Generation::Myrinet2000)
                .with_faults(FaultPlan::new(99).uniform_drop(0.2))
        };
        let mut a = mk();
        let mut b = mk();
        let mut drops = 0;
        for i in 0..1000 {
            let t = SimTime(i * 1_000_000);
            let da = a.transfer(t, 0, 1, 100);
            let db = b.transfer(t, 0, 1, 100);
            assert_eq!(da, db);
            if da.dropped {
                drops += 1;
            }
        }
        assert!((150..250).contains(&drops), "drops = {drops}");
        assert_eq!(a.dropped(), drops);
    }

    #[test]
    fn fault_plan_replay_is_bit_identical() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(1234)
            .uniform_drop(0.05)
            .corrupt(0.05)
            .flap_link(0, SimTime(10_000_000), 5_000_000, 20_000_000);
        let run = |n: &mut Network| {
            let mut out = Vec::new();
            for i in 0..500u64 {
                out.push(n.transfer(SimTime(i * 1_000_000), 0, 1, 512));
            }
            out
        };
        let mut a = net(TopologyKind::Ring { hosts: 4 }, Generation::Myrinet2000)
            .with_faults(plan.clone());
        let first = run(&mut a);
        let log1 = a.fault_log().to_vec();
        assert!(a.dropped() > 0 && a.corrupted() > 0);
        // Same plan in a fresh network: identical deliveries and log.
        let mut b = net(TopologyKind::Ring { hosts: 4 }, Generation::Myrinet2000)
            .with_faults(plan);
        assert_eq!(run(&mut b), first);
        assert_eq!(b.fault_log(), &log1[..]);
    }

    #[test]
    fn crashed_node_loses_all_traffic() {
        use crate::fault::FaultPlan;
        let crash_at = SimTime(1_000_000);
        let mut n = net(TopologyKind::Crossbar { hosts: 4 }, Generation::InfiniBand4x)
            .with_faults(FaultPlan::new(1).crash_node(2, crash_at));
        assert!(!n.transfer(SimTime::ZERO, 0, 2, 64).dropped);
        assert!(n.transfer(crash_at, 0, 2, 64).dropped);
        assert!(n.transfer(crash_at, 2, 3, 64).dropped);
        assert!(!n.transfer(crash_at, 0, 1, 64).dropped);
    }

    #[test]
    fn stats_accumulate_and_each_hop_is_charged() {
        let mut n = net(TopologyKind::Ring { hosts: 4 }, Generation::Myrinet2000);
        assert_eq!(busy_links(&n), 0);
        n.transfer(SimTime::ZERO, 0, 2, 1000);
        assert_eq!(n.transfers(), 1);
        assert_eq!(n.payload_bytes(), 1000);
        assert_eq!(busy_links(&n), 2); // two hops
        n.transfer(SimTime::ZERO, 3, 3, 1000);
        assert_eq!((n.transfers(), n.payload_bytes()), (2, 2000));
        assert_eq!(busy_links(&n), 2); // loopback stays off the wire
    }

    #[test]
    fn faster_generation_delivers_sooner() {
        for (slow, fast) in [
            (Generation::FastEthernet, Generation::GigabitEthernet),
            (Generation::GigabitEthernet, Generation::InfiniBand4x),
        ] {
            let mut a = net(TopologyKind::Crossbar { hosts: 2 }, slow);
            let mut b = net(TopologyKind::Crossbar { hosts: 2 }, fast);
            let da = a.transfer(SimTime::ZERO, 0, 1, 1 << 16);
            let db = b.transfer(SimTime::ZERO, 0, 1, 1 << 16);
            assert!(db.arrival < da.arrival);
        }
    }
}
