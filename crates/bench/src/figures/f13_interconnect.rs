//! F13 — hyperscale interconnects: topology scale sweep 1 k → 1 M
//! modeled nodes, and hierarchical allreduce over reserved optical
//! circuits vs the flat schedule.
//!
//! Two tables. **F13a** sweeps crossbar / multi-pod fat tree / 3-D
//! torus / Dragonfly from 1,024 to 1,048,576 hosts using only the
//! arithmetic [`Topology`] accessors (`link_count`, `diameter`,
//! `bisection_links`) plus the O(1) `hops()` route plan on a seeded
//! pair sample — no per-pair state, so the 1 M rows build and route in
//! milliseconds. **F13b** compares, on each F13a Dragonfly
//! configuration, a flat recursive-doubling allreduce (closed-form
//! model of the per-round global-cable serialization) against the
//! hierarchical schedule of [`simulate_hier_allreduce`] with the
//! leader stage on the packet fabric and on circuits reserved from the
//! [`CircuitScheduler`](polaris_simnet::circuit::CircuitScheduler)
//! (paying reconfiguration per wave).
//!
//! Cells fan out across the sweep threads with per-cell observability
//! planes merged in grid order; the local-stage simulations inside a
//! cell run at `jobs = 1`, so the tables are bit-identical at any
//! `--jobs` count (held by `tests/parallel_determinism.rs` and the CI
//! byte-diff).

use crate::table::Table;
use polaris_collectives::hier::{flat_allreduce_model, simulate_hier_allreduce, InterGroup};
use polaris_collectives::simx::ExecParams;
use polaris_obs::Obs;
use polaris_simnet::circuit::CircuitSchedulerConfig;
use polaris_simnet::link::Generation;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::topology::{Topology, TopologyKind};

pub const SEED: u64 = 0xF13_90C5;

/// Allreduce payload for F13b.
pub const BYTES: u64 = 4 << 20;

/// Routed pairs sampled per F13a cell for the mean-hops column.
pub const PAIR_SAMPLE: u64 = 2_000;

/// Registry gauges, labelled `{topo, hosts}` — the tables are rendered
/// purely from registry reads, so everything shown is on the wire for
/// exporters.
pub const LINKS: &str = "f13_links";
pub const DIAMETER: &str = "f13_diameter_hops";
pub const BISECTION: &str = "f13_bisection_links";
pub const BISECTION_PER_KHOST: &str = "f13_bisection_links_per_khost";
pub const MEAN_HOPS: &str = "f13_mean_hops";
pub const FLAT_MS: &str = "f13_flat_allreduce_ms";
pub const HIER_PACKET_MS: &str = "f13_hier_packet_ms";
pub const HIER_CIRCUIT_MS: &str = "f13_hier_circuit_ms";
pub const CIRCUIT_SPEEDUP: &str = "f13_circuit_speedup_vs_flat";
pub const GLOBAL_MSGS: &str = "f13_global_messages";

/// The five scale points, 1 k → 1 M hosts, with pinned dimensions per
/// topology family so every row lands exactly on the power-of-two host
/// count. Dragonfly is `(groups, routers/group, hosts/router)`; the
/// multi-pod fat tree is `(k, pods)`; the torus is `(x, y, z)`.
pub fn grid() -> Vec<(u32, TopologyKind)> {
    let mut cells = Vec::new();
    let pods: [(u32, u32); 5] = [(16, 16), (32, 32), (64, 64), (128, 64), (256, 64)];
    let torus: [(u32, u32, u32); 5] = [
        (16, 8, 8),
        (32, 16, 16),
        (64, 32, 32),
        (64, 64, 64),
        (128, 128, 64),
    ];
    let fly: [(u32, u32, u32); 5] = [
        (32, 8, 4),
        (128, 16, 4),
        (512, 16, 8),
        (1024, 32, 8),
        (2048, 32, 16),
    ];
    for (i, hosts) in [1u32 << 10, 1 << 13, 1 << 16, 1 << 18, 1 << 20]
        .into_iter()
        .enumerate()
    {
        let (k, p) = pods[i];
        let (x, y, z) = torus[i];
        let (g, a, h) = fly[i];
        cells.push((hosts, TopologyKind::Crossbar { hosts }));
        cells.push((hosts, TopologyKind::FatTreePods { k, pods: p }));
        cells.push((hosts, TopologyKind::Torus3D { x, y, z }));
        cells.push((
            hosts,
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                hosts_per_router: h,
            },
        ));
    }
    cells
}

fn family(kind: &TopologyKind) -> (&'static str, String) {
    match *kind {
        TopologyKind::Crossbar { hosts } => ("crossbar", format!("{hosts}")),
        TopologyKind::FatTreePods { k, pods } => ("fat-tree", format!("k{k}x{pods}")),
        TopologyKind::Torus3D { x, y, z } => ("torus3d", format!("{x}.{y}.{z}")),
        TopologyKind::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
        } => (
            "dragonfly",
            format!("{groups}g.{routers_per_group}a.{hosts_per_router}h"),
        ),
        _ => ("other", String::new()),
    }
}

pub fn generate() -> Vec<Table> {
    generate_with(&Obs::new())
}

/// Run the full F13 grid against a caller-supplied observability plane
/// and render both tables from registry reads only.
pub fn generate_with(obs: &Obs) -> Vec<Table> {
    let mut ta = Table::new(
        "F13a",
        "interconnect scale sweep: links, diameter, bisection, mean hops (1k - 1M hosts)",
        &[
            "hosts",
            "topology",
            "dims",
            "links",
            "diam",
            "bisect-links",
            "bisect/k-host",
            "mean-hops",
        ],
    );
    let rows = crate::sweep::sweep_obs(grid(), obs, |cell_obs, (hosts, kind)| {
        let topo = Topology::new(kind);
        assert_eq!(topo.hosts(), hosts, "{kind:?} dims must hit the scale point");
        let (name, dims) = family(&kind);
        let hosts_s = format!("{hosts}");
        let labels = [("topo", name), ("hosts", hosts_s.as_str())];
        // Mean hops over a seeded pair sample, routed arithmetically.
        let mut rng = SplitMix64::new(SEED ^ ((hosts as u64) << 8) ^ name.len() as u64);
        let mut total_hops = 0u64;
        for _ in 0..PAIR_SAMPLE {
            let s = rng.next_below(hosts as u64) as u32;
            let d = rng.next_below(hosts as u64) as u32;
            total_hops += topo.hops(s, d) as u64;
        }
        let bisect = topo.bisection_links();
        cell_obs.gauge(LINKS, &labels).set(topo.link_count() as f64);
        cell_obs.gauge(DIAMETER, &labels).set(topo.diameter() as f64);
        cell_obs.gauge(BISECTION, &labels).set(bisect as f64);
        cell_obs
            .gauge(BISECTION_PER_KHOST, &labels)
            .set(bisect as f64 * 1000.0 / hosts as f64);
        cell_obs
            .gauge(MEAN_HOPS, &labels)
            .set(total_hops as f64 / PAIR_SAMPLE as f64);
        let reg = &cell_obs.registry;
        vec![
            hosts_s.clone(),
            name.to_string(),
            dims,
            format!("{}", reg.gauge_value(LINKS, &labels) as u64),
            format!("{}", reg.gauge_value(DIAMETER, &labels) as u64),
            format!("{}", reg.gauge_value(BISECTION, &labels) as u64),
            format!("{:.1}", reg.gauge_value(BISECTION_PER_KHOST, &labels)),
            format!("{:.2}", reg.gauge_value(MEAN_HOPS, &labels)),
        ]
    });
    for row in rows {
        ta.row(row);
    }
    ta.note(format!(
        "routing is O(1) arithmetic (RoutePlan), topology state O(routers): the 1M-host rows \
         build and route {PAIR_SAMPLE} sampled pairs without materializing any per-pair table"
    ));

    let mut tb = Table::new(
        "F13b",
        "dragonfly allreduce 4 MiB: flat schedule vs hierarchical (packet / reserved circuits)",
        &[
            "hosts",
            "groups",
            "group-size",
            "flat-ms",
            "hier-pkt-ms",
            "hier-circ-ms",
            "circ-msgs",
            "speedup-vs-flat",
        ],
    );
    let fly: Vec<(u32, u32, u32)> = grid()
        .into_iter()
        .filter_map(|(_, k)| match k {
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => Some((groups, routers_per_group, hosts_per_router)),
            _ => None,
        })
        .collect();
    let rows = crate::sweep::sweep_obs(fly, obs, |cell_obs, (g, a, h)| {
        let group_size = a * h;
        let hosts = g * group_size;
        let link = Generation::Optical.link_model();
        let params = ExecParams::default();
        let flat = flat_allreduce_model(g, group_size, BYTES, params, link);
        let pkt = simulate_hier_allreduce(g, group_size, BYTES, params, link, InterGroup::Packet, 1);
        let circ = simulate_hier_allreduce(
            g,
            group_size,
            BYTES,
            params,
            link,
            InterGroup::Circuits(CircuitSchedulerConfig::default()),
            1,
        );
        let ms = |ps: u64| ps as f64 / 1e9;
        let hosts_s = format!("{hosts}");
        let labels = [("topo", "dragonfly"), ("hosts", hosts_s.as_str())];
        cell_obs.gauge(FLAT_MS, &labels).set(ms(flat.0));
        cell_obs.gauge(HIER_PACKET_MS, &labels).set(ms(pkt.completion.0));
        cell_obs.gauge(HIER_CIRCUIT_MS, &labels).set(ms(circ.completion.0));
        cell_obs
            .gauge(CIRCUIT_SPEEDUP, &labels)
            .set(flat.0 as f64 / circ.completion.0.max(1) as f64);
        cell_obs
            .gauge(GLOBAL_MSGS, &labels)
            .set(circ.global_messages as f64);
        let reg = &cell_obs.registry;
        vec![
            hosts_s.clone(),
            format!("{g}"),
            format!("{group_size}"),
            format!("{:.3}", reg.gauge_value(FLAT_MS, &labels)),
            format!("{:.3}", reg.gauge_value(HIER_PACKET_MS, &labels)),
            format!("{:.3}", reg.gauge_value(HIER_CIRCUIT_MS, &labels)),
            format!("{}", reg.gauge_value(GLOBAL_MSGS, &labels) as u64),
            format!("{:.2}", reg.gauge_value(CIRCUIT_SPEEDUP, &labels)),
        ]
    });
    for row in rows {
        tb.row(row);
    }
    tb.note(
        "flat pays (S-1) serialization terms per cross-group round on the single global cable \
         per group pair; the hierarchical schedule sends one leader message per group per round \
         — over reserved circuits it also dodges packet contention at the cost of reconfiguration \
         per wave, and must win from 64 groups up",
    );
    vec![ta, tb]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let tables = generate();
        let (ta, tb) = (&tables[0], &tables[1]);
        assert_eq!(ta.rows.len(), grid().len());
        // Every family reaches the 1M-host scale point, dragonfly
        // included — the PR's acceptance gate.
        let million: Vec<_> = ta.rows.iter().filter(|r| r[0] == "1048576").collect();
        assert_eq!(million.len(), 4);
        assert!(million.iter().any(|r| r[1] == "dragonfly"));
        for row in &ta.rows {
            let hosts: u64 = row[0].parse().unwrap();
            let links: u64 = row[3].parse().unwrap();
            let diam: u64 = row[4].parse().unwrap();
            let mean: f64 = row[7].parse().unwrap();
            // O(routers) structure: link count stays far below any
            // per-host-pair blowup (the dragonfly's group-pair global
            // cables are the densest family, still < 16 links/host),
            // and sampled hops respect the diameter.
            assert!(links < 16 * hosts, "{row:?}");
            assert!(diam >= 1 && mean <= diam as f64, "{row:?}");
        }
        // F13b: one row per dragonfly config; at >= 64 groups the
        // circuit-backed hierarchical schedule beats the flat model.
        assert_eq!(tb.rows.len(), 5);
        for row in &tb.rows {
            let groups: u32 = row[1].parse().unwrap();
            let flat: f64 = row[3].parse().unwrap();
            let circ: f64 = row[5].parse().unwrap();
            let speedup: f64 = row[7].parse().unwrap();
            assert!(flat > 0.0 && circ > 0.0, "{row:?}");
            if groups >= 64 {
                assert!(
                    circ < flat && speedup > 1.0,
                    "hier+circuits must beat flat at {groups} groups: {row:?}"
                );
            }
        }
    }

    #[test]
    fn grid_hits_exact_scale_points() {
        for (hosts, kind) in grid() {
            assert_eq!(Topology::new(kind).hosts(), hosts, "{kind:?}");
        }
    }
}
