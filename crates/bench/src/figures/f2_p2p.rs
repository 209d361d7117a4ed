//! F2 — point-to-point latency and bandwidth versus message size, per
//! protocol and interconnect generation (simulated 2002-era time), and
//! T1 — the headline small-message / peak-bandwidth summary table.

use crate::table::{si_bytes, Table};
use polaris_msg::config::Protocol;
use polaris_msg::model::{p2p_bandwidth, p2p_time, HostParams};
use polaris_obs::Obs;
use polaris_simnet::link::Generation;

const HOPS: u32 = 2; // node - switch - node
const PROTOCOLS: [(Protocol, &str); 3] = [
    (Protocol::Sockets, "sockets"),
    (Protocol::Eager, "eager"),
    (Protocol::Rendezvous, "rendezvous"),
];

/// Registry series backing the figure: every cell is published as a
/// gauge first and the table is rendered from registry reads.
pub const LATENCY_US: &str = "f2_latency_us";
pub const BANDWIDTH_MBPS: &str = "f2_bandwidth_mbps";

pub fn generate() -> Vec<Table> {
    generate_with(&Obs::new())
}

pub fn generate_with(obs: &Obs) -> Vec<Table> {
    let host = HostParams::default();
    let sizes: Vec<u64> = (0..12).map(|i| 16u64 << (2 * i)).collect(); // 16B..64MiB

    // One sweep point per interconnect generation: each point publishes
    // its gauges into an isolated registry (label sets are disjoint per
    // generation) and returns its rendered rows; merging in generation
    // order makes exports and tables byte-identical at any job count.
    let per_gen = crate::sweep::sweep_obs(Generation::ALL.to_vec(), obs, |gobs, g| {
        // Publish-then-read: the gauge is the only channel between the
        // model and the rendered cell, so exports agree with the figure.
        let publish = |name: &str, labels: &[(&str, &str)], v: f64| -> f64 {
            gobs.gauge(name, labels).set(v);
            gobs.registry.gauge_value(name, labels)
        };
        let link = g.link_model();
        let mut lat_rows = Vec::new();
        let mut bw_rows = Vec::new();
        for (p, name) in PROTOCOLS {
            let mut cells = vec![g.name().to_string(), name.to_string()];
            for &b in &sizes {
                let bs = b.to_string();
                let labels = [("bytes", bs.as_str()), ("gen", g.name()), ("proto", name)];
                let t = p2p_time(&link, HOPS, b, p, &host);
                let v = publish(LATENCY_US, &labels, t.as_us());
                cells.push(format!("{v:.1}"));
            }
            lat_rows.push(cells);
        }
        for (p, name) in PROTOCOLS {
            let mut cells = vec![g.name().to_string(), name.to_string()];
            for &b in &sizes {
                let bs = b.to_string();
                let labels = [("bytes", bs.as_str()), ("gen", g.name()), ("proto", name)];
                let raw = p2p_bandwidth(&link, HOPS, b, p, &host) / 1e6;
                let v = publish(BANDWIDTH_MBPS, &labels, raw);
                cells.push(format!("{v:.0}"));
            }
            bw_rows.push(cells);
        }
        let t = |p, name: &str| {
            let labels = [("bytes", "8"), ("gen", g.name()), ("proto", name)];
            let us = p2p_time(&link, HOPS, 8, p, &host).as_us();
            format!("{:.1}", publish(LATENCY_US, &labels, us))
        };
        let b = |p, name: &str| {
            let labels = [("bytes", "4194304"), ("gen", g.name()), ("proto", name)];
            let raw = p2p_bandwidth(&link, HOPS, 4 << 20, p, &host) / 1e6;
            format!("{:.0}", publish(BANDWIDTH_MBPS, &labels, raw))
        };
        let t1_row = vec![
            g.name().to_string(),
            t(Protocol::Sockets, "sockets"),
            t(Protocol::Eager, "eager"),
            t(Protocol::Rendezvous, "rendezvous"),
            b(Protocol::Sockets, "sockets"),
            b(Protocol::Eager, "eager"),
            b(Protocol::Rendezvous, "rendezvous"),
            format!("{:.0}", link.bandwidth_bps as f64 / 1e6),
        ];
        (lat_rows, bw_rows, t1_row)
    });

    let mut headers: Vec<String> = vec!["generation".into(), "protocol".into()];
    headers.extend(sizes.iter().map(|&b| si_bytes(b)));
    let mut lat = Table::new_owned("F2a", "one-way latency (us) vs message size", headers.clone());
    let mut bw = Table::new_owned("F2b", "effective bandwidth (MB/s) vs message size", headers);
    let mut t1 = Table::new(
        "T1",
        "headline numbers: 8B latency and 4MiB bandwidth",
        &[
            "generation",
            "sockets-us",
            "eager-us",
            "rndv-us",
            "sockets-MB/s",
            "eager-MB/s",
            "rndv-MB/s",
            "link-MB/s",
        ],
    );
    for (lat_rows, bw_rows, t1_row) in per_gen {
        for row in lat_rows {
            lat.row(row);
        }
        for row in bw_rows {
            bw.row(row);
        }
        t1.row(t1_row);
    }
    lat.note("expected: user-level beats sockets 2-10x at small sizes; rendezvous wins large");
    bw.note("expected: sockets plateaus at its per-MTU overhead + copy bound, rendezvous reaches link rate");
    t1.note("2002 host: 1 GB/s copies, 5us syscall, 15us interrupt, 0.5us user-level overhead");
    vec![lat, bw, t1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let tables = generate();
        let t1 = &tables[2];
        assert_eq!(t1.rows.len(), 5);
        for row in &t1.rows {
            let sockets_us: f64 = row[1].parse().unwrap();
            let eager_us: f64 = row[2].parse().unwrap();
            assert!(eager_us < sockets_us, "user-level must win: {row:?}");
            let sockets_bw: f64 = row[4].parse().unwrap();
            let rndv_bw: f64 = row[6].parse().unwrap();
            let link_bw: f64 = row[7].parse().unwrap();
            assert!(rndv_bw >= sockets_bw, "{row:?}");
            assert!(rndv_bw <= link_bw * 1.001);
        }
        // On InfiniBand, rendezvous approaches link rate; sockets do not.
        let ib = t1.rows.iter().find(|r| r[0] == "infiniband-4x").unwrap();
        let sockets_bw: f64 = ib[4].parse().unwrap();
        let rndv_bw: f64 = ib[6].parse().unwrap();
        assert!(rndv_bw > 900.0, "{rndv_bw}");
        assert!(sockets_bw < 400.0, "{sockets_bw}");
    }

    #[test]
    fn latency_rows_monotone_in_size() {
        let tables = generate();
        for row in &tables[0].rows {
            let vals: Vec<f64> = row[2..].iter().map(|s| s.parse().unwrap()).collect();
            for w in vals.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "{row:?}");
            }
        }
    }
}
