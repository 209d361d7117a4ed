//! Property suite for Dragonfly and multi-pod fat-tree routing over
//! randomly drawn topology dimensions: routes terminate, respect the
//! hop bounds (≤5 links minimal on a Dragonfly, ≤2× the minimal
//! diameter under Valiant), are deterministic per Valiant seed, walk
//! contiguous edges from source to destination, and agree with the
//! retained reference graph. The `#[ignore]`d wide-range variants run
//! on the nightly `--include-ignored` schedule.

use polaris_simnet::link::LinkId;
use polaris_simnet::topology::{Routing, Topology, TopologyKind, Vertex};
use proptest::prelude::*;

/// Walk a route's links through `link_endpoints`, asserting each link
/// starts where the previous one ended, the first starts at `src`, and
/// the last ends at `dst`.
fn assert_contiguous(topo: &Topology, src: u32, dst: u32, route: &[LinkId]) {
    if src == dst {
        assert!(route.is_empty(), "self-route must be empty");
        return;
    }
    let mut at = Vertex::Host(src);
    for &l in route {
        let (from, to) = topo.link_endpoints(l);
        assert_eq!(from, at, "route {src}->{dst} broke at link {l:?}");
        at = to;
    }
    assert_eq!(at, Vertex::Host(dst), "route {src}->{dst} ended elsewhere");
}

/// Exhaustive pair check on one topology instance under one routing.
fn check_all_pairs(kind: TopologyKind, routing: Routing) {
    let topo = Topology::new_reference(kind).with_routing(routing);
    let hosts = topo.hosts();
    let bound = topo.diameter();
    for s in 0..hosts {
        for d in 0..hosts {
            let route = topo.route(s, d);
            assert_contiguous(&topo, s, d, &route);
            assert!(
                route.len() as u32 <= bound,
                "{kind:?} {routing:?} {s}->{d}: {} hops > diameter {bound}",
                route.len()
            );
            assert_eq!(route, topo.route_reference(s, d), "{kind:?} {routing:?} {s}->{d}");
            assert_eq!(route.len() as u32, topo.hops(s, d));
            if let TopologyKind::Dragonfly { .. } = kind {
                if matches!(routing, Routing::Minimal) {
                    assert!(
                        route.len() <= 5,
                        "{kind:?} minimal {s}->{d}: {} hops > 5",
                        route.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Dragonfly minimal + Valiant routing over random (g, a, h) dims.
    #[test]
    fn dragonfly_routing_properties(
        groups in 1u32..=8,
        routers in 1u32..=4,
        hpr in 1u32..=3,
        seed in any::<u64>(),
    ) {
        let kind = TopologyKind::Dragonfly {
            groups,
            routers_per_group: routers,
            hosts_per_router: hpr,
        };
        check_all_pairs(kind, Routing::Minimal);
        check_all_pairs(kind, Routing::Valiant { seed });
        // Valiant never exceeds 2x the minimal diameter.
        let minimal = Topology::new(kind).diameter();
        let valiant = Topology::new(kind).with_routing(Routing::Valiant { seed }).diameter();
        prop_assert!(valiant <= 2 * minimal.max(1));
    }

    // Multi-pod fat-tree routing over random (k, pods).
    #[test]
    fn multi_pod_fat_tree_routing_properties(
        half in 1u32..=4,
        pods_frac in 0u32..=3,
        seed in any::<u64>(),
    ) {
        let k = 2 * half;
        let pods = 1 + pods_frac * (k - 1) / 3; // spread over 1..=k
        let kind = TopologyKind::FatTreePods { k, pods };
        check_all_pairs(kind, Routing::Minimal);
        check_all_pairs(kind, Routing::Valiant { seed });
    }

    // Valiant routes are a pure function of the routing seed: same
    // seed, same routes; and re-deriving the topology changes nothing.
    #[test]
    fn valiant_routes_are_deterministic_per_seed(
        groups in 2u32..=8,
        routers in 1u32..=4,
        hpr in 1u32..=3,
        seed in any::<u64>(),
    ) {
        let kind = TopologyKind::Dragonfly {
            groups,
            routers_per_group: routers,
            hosts_per_router: hpr,
        };
        let a = Topology::new(kind).with_routing(Routing::Valiant { seed });
        let b = Topology::new(kind).with_routing(Routing::Valiant { seed });
        let hosts = a.hosts();
        for s in 0..hosts.min(24) {
            for d in 0..hosts.min(24) {
                prop_assert_eq!(a.route(s, d), b.route(s, d));
            }
        }
    }
}

/// Fat-tree routes are closed-form (one `(pod, edge, port)` decode per
/// endpoint, link ids written out directly). Every pair of every small
/// tree — each pod count included — must match the reference walk link
/// for link, and `hops` must equal the route's length. The decode divides
/// by `k / 2` through a reciprocal multiply, and the reference walk with
/// `/` and `%`; `k = 6` and `k = 10` (`FatTree { k: 10 }`,
/// `FatTreePods { k: 6, pods: 2 }` among them) are the arities here whose
/// `k / 2` is not a power of two.
#[test]
fn fat_tree_all_pairs_match_reference() {
    for k in [2, 4, 6, 8, 10] {
        check_all_pairs(TopologyKind::FatTree { k }, Routing::Minimal);
    }
    for k in [2, 4, 6] {
        for pods in 1..=k {
            check_all_pairs(TopologyKind::FatTreePods { k, pods }, Routing::Minimal);
        }
    }
}

/// `hops` is arithmetic on every kind and never builds a route, so the
/// stepped plan is its oracle: every pair of every small topology — the
/// shapes where the arithmetic has an edge (odd and even rings, the
/// two-host ring, width-2 torus dimensions, one- and two-group
/// Dragonflies, one router per group, `groups - 1` not a multiple of the
/// router count) — must give `hops(s, d) == route_plan(s, d).count()`
/// and stay within `diameter()`, under minimal and Valiant routing.
#[test]
fn hops_equal_plan_length_on_every_kind() {
    let dragonfly = |groups, routers_per_group, hosts_per_router| TopologyKind::Dragonfly {
        groups,
        routers_per_group,
        hosts_per_router,
    };
    let kinds = [
        TopologyKind::Crossbar { hosts: 1 },
        TopologyKind::Crossbar { hosts: 9 },
        TopologyKind::Ring { hosts: 2 },
        TopologyKind::Ring { hosts: 3 },
        TopologyKind::Ring { hosts: 7 },
        TopologyKind::Ring { hosts: 8 },
        TopologyKind::Torus2D { w: 2, h: 2 },
        TopologyKind::Torus2D { w: 2, h: 5 },
        TopologyKind::Torus2D { w: 4, h: 3 },
        TopologyKind::Torus2D { w: 5, h: 6 },
        TopologyKind::Torus3D { x: 2, y: 3, z: 2 },
        TopologyKind::Torus3D { x: 3, y: 2, z: 4 },
        TopologyKind::Torus3D { x: 4, y: 5, z: 3 },
        TopologyKind::FatTree { k: 4 },
        TopologyKind::FatTreePods { k: 4, pods: 1 },
        TopologyKind::FatTreePods { k: 6, pods: 2 },
        dragonfly(1, 4, 2),
        dragonfly(2, 1, 3),
        dragonfly(2, 3, 1),
        dragonfly(5, 3, 2),
        dragonfly(6, 1, 2),
        dragonfly(9, 2, 1),
        dragonfly(8, 4, 2),
    ];
    let valiant = |seed| Routing::Valiant { seed };
    for kind in kinds {
        for routing in [Routing::Minimal, valiant(42), valiant(7)] {
            let topo = Topology::new(kind).with_routing(routing);
            let bound = topo.diameter();
            for s in 0..topo.hosts() {
                for d in 0..topo.hosts() {
                    let hops = topo.hops(s, d);
                    assert_eq!(
                        hops as usize,
                        topo.route_plan(s, d).count(),
                        "{kind:?} {routing:?} {s}->{d}"
                    );
                    assert!(hops <= bound, "{kind:?} {routing:?} {s}->{d}: {hops} > {bound}");
                }
            }
        }
    }
}

/// Nightly wide-range variant: larger machines, sampled pairs. Plain
/// seeded loops (the vendored proptest macro cannot carry `#[ignore]`),
/// run by the nightly `--include-ignored` schedule.
#[test]
#[ignore = "nightly: wide dimension ranges"]
fn dragonfly_routing_properties_wide() {
    let mut dims = polaris_simnet::rng::SplitMix64::new(0xD24A_60F1);
    for case in 0..96u32 {
        let groups = 1 + dims.next_below(48) as u32;
        let routers = 1 + dims.next_below(16) as u32;
        let hpr = 1 + dims.next_below(8) as u32;
        let seed = dims.next_u64();
        let kind = TopologyKind::Dragonfly {
            groups,
            routers_per_group: routers,
            hosts_per_router: hpr,
        };
        for routing in [Routing::Minimal, Routing::Valiant { seed }] {
            let topo = Topology::new_reference(kind).with_routing(routing);
            let hosts = topo.hosts();
            let bound = topo.diameter();
            let mut rng = polaris_simnet::rng::SplitMix64::new(seed ^ 0xA5);
            for _ in 0..2_000 {
                let s = rng.next_below(hosts as u64) as u32;
                let d = rng.next_below(hosts as u64) as u32;
                let route = topo.route(s, d);
                assert_contiguous(&topo, s, d, &route);
                assert!(route.len() as u32 <= bound, "case {case}: {kind:?} {routing:?}");
                assert_eq!(route, topo.route_reference(s, d), "case {case}");
                assert_eq!(route.len() as u32, topo.hops(s, d), "case {case}");
            }
        }
    }
}

/// Nightly wide-range variant for the multi-pod fat tree.
#[test]
#[ignore = "nightly: wide dimension ranges"]
fn multi_pod_routing_properties_wide() {
    let mut dims = polaris_simnet::rng::SplitMix64::new(0x0F47_BEE5);
    for case in 0..96u32 {
        let k = 2 * (1 + dims.next_below(8) as u32);
        let pods = 1 + (dims.next_below(16) as u32) % k;
        let seed = dims.next_u64();
        let kind = TopologyKind::FatTreePods { k, pods };
        let topo = Topology::new_reference(kind).with_routing(Routing::Valiant { seed });
        let hosts = topo.hosts();
        let bound = topo.diameter();
        let mut rng = polaris_simnet::rng::SplitMix64::new(seed ^ 0x5A);
        for _ in 0..2_000 {
            let s = rng.next_below(hosts as u64) as u32;
            let d = rng.next_below(hosts as u64) as u32;
            let route = topo.route(s, d);
            assert_contiguous(&topo, s, d, &route);
            assert!(route.len() as u32 <= bound, "case {case}: {kind:?}");
            assert_eq!(route, topo.route_reference(s, d), "case {case}");
        }
    }
}
