//! Packet-level simulation over arbitrary routed topologies.
//!
//! Every packet traverses its route link by link through output-queued
//! switches, with per-link FIFO serialization, cut-through or
//! store-and-forward forwarding, and per-hop propagation. This is the
//! highest-fidelity network model in the crate, and the only
//! packet-level one: a single crossbar is one more topology to it. Its
//! role is to validate the fast flow-level model (`network.rs`) — the
//! cross-validation tests at the bottom are the deliverable.

use crate::engine::{run, Scheduler, World};
use crate::link::{LinkId, LinkModel};
use crate::packet::{segment, Packet, Reassembler};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use std::collections::VecDeque;

/// A message to inject.
#[derive(Debug, Clone, Copy)]
pub struct Injection {
    pub at: SimTime,
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
}

/// A completed message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub msg_id: u64,
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    pub at: SimTime,
}

/// A packet annotated with its route progress.
#[derive(Debug, Clone)]
struct RoutedPacket {
    pkt: Packet,
    route: std::sync::Arc<Vec<LinkId>>,
    /// Index of the link this packet is queued on / traversing.
    hop: usize,
}

#[derive(Debug)]
enum Ev {
    /// A packet is ready to contend for the link at its current hop.
    Enqueue(RoutedPacket),
    /// The link finished serializing its current packet.
    LinkFree(LinkId),
    /// A packet's tail fully arrived at the final host.
    Deliver(RoutedPacket),
}

struct PacketNet {
    topo: Topology,
    model: LinkModel,
    queues: Vec<VecDeque<RoutedPacket>>,
    busy: Vec<bool>,
    reasm: Reassembler,
    /// `(src, dst)` by message id — the injection's index.
    meta: Vec<(u32, u32)>,
    completions: Vec<Completion>,
}

impl PacketNet {
    fn ser(&self, pkt: &Packet) -> SimDuration {
        self.model.serialize(pkt.wire_bytes(&self.model))
    }

    fn fwd_delay(&self, pkt: &Packet) -> SimDuration {
        // How long after a link starts serializing before the next hop
        // can begin: cut-through forwards once the header is through,
        // store-and-forward only after the whole packet.
        let hdr = self.model.serialize(self.model.header_bytes as u64);
        let lat = SimDuration::from_ps(self.model.hop_latency);
        if self.model.cut_through {
            hdr + lat
        } else {
            self.ser(pkt) + lat
        }
    }

    /// Start serializing the head packet of `link` if idle.
    fn try_start(&mut self, sched: &mut Scheduler<Ev>, link: LinkId) {
        let li = link.0 as usize;
        if self.busy[li] {
            return;
        }
        let Some(rp) = self.queues[li].pop_front() else {
            return;
        };
        self.busy[li] = true;
        let ser = self.ser(&rp.pkt);
        let fwd = self.fwd_delay(&rp.pkt);
        let lat = SimDuration::from_ps(self.model.hop_latency);
        sched.after(ser, Ev::LinkFree(link));
        let last_hop = rp.hop + 1 == rp.route.len();
        if last_hop {
            // Tail arrives at the destination host after full
            // serialization plus propagation.
            let mut done = rp;
            done.hop += 1;
            sched.after(ser + lat, Ev::Deliver(done));
        } else {
            let mut next = rp;
            next.hop += 1;
            sched.after(fwd, Ev::Enqueue(next));
        }
    }
}

impl World for PacketNet {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        match ev {
            Ev::Enqueue(rp) => {
                let link = rp.route[rp.hop];
                self.queues[link.0 as usize].push_back(rp);
                self.try_start(sched, link);
            }
            Ev::LinkFree(link) => {
                self.busy[link.0 as usize] = false;
                self.try_start(sched, link);
            }
            Ev::Deliver(rp) => {
                if let Some(msg) = self.reasm.push(rp.pkt) {
                    let (src, dst) = self.meta[msg.msg_id as usize];
                    self.completions.push(Completion {
                        msg_id: msg.msg_id,
                        src,
                        dst,
                        bytes: msg.bytes,
                        at: sched.now(),
                    });
                }
            }
        }
    }
}

/// Simulate `injections` at packet granularity; returns completions
/// sorted by arrival time. Loopback (src == dst) is not modeled here —
/// it never touches the network.
pub fn simulate_packets(
    topo: Topology,
    model: LinkModel,
    injections: &[Injection],
) -> Vec<Completion> {
    let n_links = topo.link_count();
    let mut world = PacketNet {
        topo,
        model,
        queues: (0..n_links).map(|_| VecDeque::new()).collect(),
        busy: vec![false; n_links],
        reasm: Reassembler::new(),
        meta: injections.iter().map(|i| (i.src, i.dst)).collect(),
        completions: Vec::new(),
    };
    // Roughly one in-flight event per link at steady state.
    let mut sched = Scheduler::with_capacity(n_links);
    for (id, inj) in injections.iter().enumerate() {
        assert_ne!(inj.src, inj.dst, "loopback is not a network transfer");
        let route = std::sync::Arc::new(world.topo.route(inj.src, inj.dst));
        for pkt in segment(id as u64, inj.src, inj.dst, inj.bytes, &world.model) {
            sched.at(
                inj.at,
                Ev::Enqueue(RoutedPacket {
                    pkt,
                    route: std::sync::Arc::clone(&route),
                    hop: 0,
                }),
            );
        }
    }
    run(&mut world, &mut sched, None);
    let mut done = world.completions;
    done.sort_by_key(|c| (c.at, c.msg_id));
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Generation;
    use crate::network::Network;
    use crate::topology::TopologyKind;

    fn inj(src: u32, dst: u32, bytes: u64) -> Injection {
        Injection {
            at: SimTime::ZERO,
            src,
            dst,
            bytes,
        }
    }

    #[test]
    fn single_transfer_matches_analytic_time() {
        for g in [Generation::GigabitEthernet, Generation::InfiniBand4x] {
            let m = g.link_model();
            for (kind, src, dst, bytes) in [
                (TopologyKind::FatTree { k: 4 }, 0u32, 15u32, 20_000u64), // 6 hops
                (TopologyKind::Torus2D { w: 4, h: 4 }, 0, 5, 20_000),     // 2 hops
                (TopologyKind::Ring { hosts: 8 }, 0, 3, 20_000),          // 3 hops
                (TopologyKind::Crossbar { hosts: 4 }, 0, 1, 6_000),       // 2 hops
            ] {
                let topo = Topology::new(kind);
                let hops = topo.hops(src, dst);
                let done = simulate_packets(topo, m, &[inj(src, dst, bytes)]);
                assert_eq!(done.len(), 1);
                let sim = done[0].at.since(SimTime::ZERO);
                let analytic = m.message_time(bytes, hops);
                let ratio = sim.as_secs() / analytic.as_secs();
                assert!(
                    (0.8..1.3).contains(&ratio),
                    "{g:?} {kind:?}: packet {sim} vs analytic {analytic} (ratio {ratio})"
                );
                // Through one switch the packet pipeline and the analytic
                // one are the same two hops: they differ by latency
                // bookkeeping only, never by a serialization.
                if matches!(kind, TopologyKind::Crossbar { .. }) {
                    let diff = sim.as_ps().abs_diff(analytic.as_ps());
                    assert!(
                        diff <= 2 * m.hop_latency,
                        "{g:?}: packet {sim} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_downlink_halves_throughput() {
        let m = Generation::InfiniBand4x.link_model();
        let bytes = 1 << 20;
        for (kind, a, b, dst) in [
            (TopologyKind::FatTree { k: 4 }, 4u32, 8u32, 0u32),
            (TopologyKind::Crossbar { hosts: 4 }, 0, 1, 2),
        ] {
            let solo = simulate_packets(Topology::new(kind), m, &[inj(a, dst, bytes)]);
            let pair = simulate_packets(
                Topology::new(kind),
                m,
                &[inj(a, dst, bytes), inj(b, dst, bytes)],
            );
            let ratio = pair.last().unwrap().at.as_secs() / solo[0].at.as_secs();
            assert!(
                (1.8..2.2).contains(&ratio),
                "{kind:?}: two flows into one host: ratio {ratio}"
            );
        }
    }

    #[test]
    fn congested_flows_interleave_fairly() {
        let m = Generation::GigabitEthernet.link_model();
        let bytes = 512 * 1024;
        let done = simulate_packets(
            Topology::new(TopologyKind::Crossbar { hosts: 4 }),
            m,
            &[inj(0, 3, bytes), inj(1, 3, bytes)],
        );
        // Both finish within a few packet times of each other: packets
        // interleave in the output queue rather than one flow starving
        // the other.
        let gap = done[1].at.since(done[0].at);
        let one_pkt = m.serialize((m.mtu + m.header_bytes) as u64);
        assert!(
            gap.as_ps() <= 4 * one_pkt.as_ps(),
            "unfair completion gap {gap}"
        );
    }

    #[test]
    fn disjoint_transfers_do_not_contend() {
        let m = Generation::Myrinet2000.link_model();
        // Every even host of a torus sends one hop east simultaneously,
        // and two disjoint pairs cross one switch: all links disjoint,
        // so all complete in one uncontended transfer time.
        let east: Vec<Injection> = (0..16u32)
            .filter(|h| h % 2 == 0)
            .map(|h| {
                let row = h / 4;
                inj(h, row * 4 + (h + 1) % 4, 50_000)
            })
            .collect();
        for (kind, injections) in [
            (TopologyKind::Torus2D { w: 4, h: 4 }, east),
            (
                TopologyKind::Crossbar { hosts: 4 },
                vec![inj(0, 1, 100_000), inj(2, 3, 100_000)],
            ),
        ] {
            let done = simulate_packets(Topology::new(kind), m, &injections);
            assert_eq!(done.len(), injections.len());
            let first = done[0].at;
            let last = done.last().unwrap().at;
            assert_eq!(first, last, "{kind:?}: disjoint transfers must not serialize");
        }
    }

    #[test]
    fn flow_model_tracks_packet_model_under_congestion() {
        // The deliverable: the fast flow model agrees with the
        // packet-level reference under incast — six senders on a fat
        // tree within 35%, four through one switch within 25%.
        let m = Generation::GigabitEthernet.link_model();
        let bytes = 256 * 1024;
        let fat_tree: Vec<Injection> = (1..7u32).map(|s| inj(s + 8, 2, bytes)).collect();
        let crossbar: Vec<Injection> = (1..5u32).map(|s| inj(s, 0, bytes)).collect();
        for (kind, injections, tol) in [
            (TopologyKind::FatTree { k: 4 }, fat_tree, 0.35),
            (TopologyKind::Crossbar { hosts: 5 }, crossbar, 0.25),
        ] {
            let pkt = simulate_packets(Topology::new(kind), m, &injections);
            let t_pkt = pkt.last().unwrap().at.as_secs();
            let mut flow = Network::new(Topology::new(kind), m);
            let t_flow = injections
                .iter()
                .map(|i| flow.transfer(i.at, i.src, i.dst, i.bytes).arrival.as_secs())
                .fold(0.0, f64::max);
            let ratio = t_flow / t_pkt;
            assert!(
                (1.0 - tol..1.0 + tol).contains(&ratio),
                "{kind:?}: flow {t_flow} vs packet {t_pkt}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn interleaved_messages_all_complete() {
        let m = Generation::InfiniBand4x.link_model();
        let topo = Topology::new(TopologyKind::FatTree { k: 4 });
        let injections: Vec<Injection> = (0..16u32)
            .flat_map(|s| (0..16u32).filter(move |&d| d != s).map(move |d| inj(s, d, 4096)))
            .collect();
        let done = simulate_packets(topo, m, &injections);
        assert_eq!(done.len(), 16 * 15, "every message must be delivered");
        // Per-destination arrival counts are uniform.
        let mut per_dst = [0u32; 16];
        for c in &done {
            per_dst[c.dst as usize] += 1;
        }
        assert!(per_dst.iter().all(|&c| c == 15));
    }

    #[test]
    fn cut_through_beats_store_and_forward_multihop() {
        let mut sf = Generation::Myrinet2000.link_model();
        sf.cut_through = false;
        let ct = Generation::Myrinet2000.link_model();
        let mk = || Topology::new(TopologyKind::Ring { hosts: 16 });
        let far = 8u32; // 8 hops around the ring
        let t_ct = simulate_packets(mk(), ct, &[inj(0, far, 4096)])[0].at;
        let t_sf = simulate_packets(mk(), sf, &[inj(0, far, 4096)])[0].at;
        assert!(t_ct < t_sf, "cut-through {t_ct} vs s&f {t_sf}");
    }

    #[test]
    fn deterministic_across_runs() {
        let m = Generation::GigabitEthernet.link_model();
        let injections: Vec<Injection> = (0..8u32).map(|s| inj(s, (s + 3) % 16, 30_000)).collect();
        let a = simulate_packets(Topology::new(TopologyKind::FatTree { k: 4 }), m, &injections);
        let b = simulate_packets(Topology::new(TopologyKind::FatTree { k: 4 }), m, &injections);
        assert_eq!(a, b);
    }
}
