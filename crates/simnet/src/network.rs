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
use crate::link::{LinkId, LinkModel, LinkState};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use polaris_obs::{Counter, Obs, Subject};

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

/// Cached counter handles for the transfer hot path (one registry
/// lookup at attach time, atomic bumps afterwards).
struct NetObs {
    obs: Obs,
    transfers: Counter,
    payload_bytes: Counter,
    delivered: Counter,
    dropped: Counter,
    corrupted: Counter,
}

pub struct Network {
    topo: Topology,
    model: LinkModel,
    links: Vec<LinkState>,
    faults: Option<FaultInjector>,
    transfers: u64,
    payload_bytes: u64,
    dropped: u64,
    corrupted: u64,
    obs: Option<NetObs>,
    /// Time a cut-through switch holds a message's head: one header's
    /// serialization, the same for every message of this model.
    header_fwd: SimDuration,
    /// Route buffer for the fault-injection path only: link-scoped fault
    /// rules judge the whole route as a slice. The fault-free hot path
    /// streams hops straight off [`Topology::route_plan`] and never
    /// materializes a route.
    route_scratch: Vec<LinkId>,
}

impl Network {
    pub fn new(topo: Topology, model: LinkModel) -> Self {
        let n = topo.link_count();
        Network {
            topo,
            model,
            links: vec![LinkState::default(); n],
            faults: None,
            transfers: 0,
            payload_bytes: 0,
            dropped: 0,
            corrupted: 0,
            obs: None,
            header_fwd: model.serialize(model.header_bytes as u64),
            route_scratch: Vec::new(),
        }
    }

    /// Attach an observability plane. Transfer/drop/corruption counters
    /// land in the registry under `net_*`, the attached fault injector
    /// (if any) starts mirroring its replay log into the same plane,
    /// and [`Network::publish_obs`] exports per-link occupancy.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(inj) = &mut self.faults {
            inj.set_obs(obs.clone());
        }
        self.obs = Some(NetObs {
            transfers: obs.counter("net_transfers_total", &[]),
            payload_bytes: obs.counter("net_payload_bytes_total", &[]),
            delivered: obs.counter("net_delivered_total", &[]),
            dropped: obs.counter("net_dropped_total", &[]),
            corrupted: obs.counter("net_corrupted_total", &[]),
            obs,
        });
    }

    /// Publish per-link state (bytes carried, busy picoseconds) into
    /// the registry as gauges. Call at scrape/export points; link
    /// counts can reach thousands, so this is not done per transfer.
    pub fn publish_obs(&self) {
        let Some(no) = &self.obs else { return };
        for (i, l) in self.links.iter().enumerate() {
            let idx = i.to_string();
            no.obs
                .gauge("net_link_bytes", &[("link", &idx)])
                .set(l.bytes_carried as f64);
            no.obs
                .gauge("net_link_busy_ps", &[("link", &idx)])
                .set(l.busy_time.as_ps() as f64);
        }
    }

    /// Attach a [`FaultPlan`]: every subsequent transfer is judged by
    /// its deterministic injector, and injected events accumulate in
    /// [`Network::fault_log`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let mut inj = FaultInjector::new(plan);
        if let Some(no) = &self.obs {
            inj.set_obs(no.obs.clone());
        }
        self.faults = Some(inj);
        self
    }

    /// Replay log of every fault injected so far (empty without a plan).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |f| f.log())
    }

    /// Whether `node` is crashed under the attached plan at `now`.
    pub fn node_crashed(&self, node: u32, now: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| f.node_crashed(node, now))
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
        if let Some(no) = &self.obs {
            no.transfers.inc();
            no.payload_bytes.add(bytes);
        }
        if src == dst {
            // Loopback: a local memory copy, never on the wire and
            // exempt from fault injection.
            let t = SimDuration::from_secs_f64(bytes as f64 / LOCAL_COPY_BPS as f64);
            if let Some(no) = &self.obs {
                no.delivered.inc();
            }
            return Delivery {
                arrival: now + t,
                dropped: false,
                corrupted: false,
            };
        }
        // Split the borrow: the topology stays immutably borrowed for the
        // route plan while link occupancy is charged against `links`.
        let Network {
            topo,
            model,
            links,
            faults,
            dropped: dropped_total,
            corrupted: corrupted_total,
            obs,
            header_fwd,
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
                    if let Some(no) = &obs {
                        no.corrupted.inc();
                    }
                    corrupted = true;
                }
                FaultVerdict::Drop(_) => {
                    *dropped_total += 1;
                    if let Some(no) = &obs {
                        no.dropped.inc();
                    }
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
        let wire_bytes = model.wire_bytes(bytes);
        let ser = model.serialize(wire_bytes);
        // Per-hop forwarding cost of the message head: for cut-through the
        // head moves on after the header is through; store-and-forward
        // re-serializes the first packet.
        let fwd = if model.cut_through {
            *header_fwd
        } else {
            model.serialize(bytes.min(model.mtu as u64) + model.header_bytes as u64)
        };
        let per_hop = SimDuration::from_ps(model.hop_latency) + fwd;
        // Stream the route plan charging occupancy; `extra` accumulates
        // queueing delay beyond the uncontended schedule. No route vector
        // exists on this path.
        let mut extra = SimDuration::ZERO;
        let mut hops = 0u32;
        for link in topo.route_plan(src, dst) {
            let nominal_head = now + extra + per_hop.saturating_mul(hops as u64);
            let st = &mut links[link.0 as usize];
            let start = nominal_head.max(st.busy_until);
            extra += start.since(nominal_head);
            st.busy_until = start + ser;
            st.bytes_carried += wire_bytes;
            st.busy_time += ser;
            hops += 1;
        }
        let arrival = now + extra + model.message_time_from(ser, bytes, hops);
        if let Some(no) = &self.obs {
            no.delivered.inc();
            no.obs.instant(
                arrival.as_ps(),
                Subject::Node(dst),
                "net_deliver",
                &[
                    ("src", src as u64),
                    ("bytes", bytes),
                    ("corrupted", corrupted as u64),
                ],
            );
        }
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

    /// Reset link occupancy and rewind the fault injector, but keep
    /// topology/model/plan (new experiment run; replays are identical).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            *l = LinkState::default();
        }
        if let Some(inj) = &mut self.faults {
            inj.reset();
        }
        self.transfers = 0;
        self.payload_bytes = 0;
        self.dropped = 0;
        self.corrupted = 0;
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

    /// Total bytes carried across all links (payload + headers, counted
    /// once per traversed link).
    fn total_link_bytes(n: &Network) -> u64 {
        n.links.iter().map(|l| l.bytes_carried).sum()
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
    /// store-and-forward generations alike, and charges each of its
    /// links one serialization of the wire bytes.
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
                    assert_eq!(total_link_bytes(&n), hops as u64 * m.wire_bytes(bytes));
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
        assert_eq!(total_link_bytes(&n), 0);
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
        // reset() rewinds the injector too.
        a.reset();
        assert_eq!(run(&mut a), first);
        assert_eq!(a.fault_log(), &log1[..]);
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
        assert!(n.node_crashed(2, crash_at));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut n = net(TopologyKind::Ring { hosts: 4 }, Generation::Myrinet2000);
        n.transfer(SimTime::ZERO, 0, 2, 1000);
        assert_eq!(n.transfers(), 1);
        assert_eq!(n.payload_bytes(), 1000);
        assert!(total_link_bytes(&n) >= 2 * 1000); // two hops
        n.reset();
        assert_eq!(n.transfers(), 0);
        assert_eq!(total_link_bytes(&n), 0);
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
