//! F10 — "the innovative ways in which they will be employed": sustained
//! application performance versus peak, by year and node track.
//!
//! Peak petaflops is a marketing number; what a real code sustains is
//! compute limited by the node roofline *and* communication limited by
//! the messaging stack. This figure runs a weak-scaled 3-D stencil model
//! (per-iteration: roofline compute + six halo exchanges) on a
//! 1024-node cluster built from each year's era fabric (F8's era table)
//! and node track, and reports sustained/peak — the gap the keynote says
//! node and software innovation must close.

use super::f8_decade::era;
use crate::table::Table;
use polaris_arch::prelude::*;
use polaris_msg::config::Protocol;
use polaris_msg::model::{p2p_time, HostParams};

const NODES: f64 = 1024.0;
/// Local subdomain: 128³ double-precision cells.
const LOCAL_N: f64 = 128.0;

/// Sustained fraction of peak for the stencil app on one (year, track,
/// protocol) point.
fn sustained_fraction(year: u32, kind: NodeKind, protocol: Protocol) -> f64 {
    let node = NodeModel::build(kind, &Projection::default().at(year));
    // Compute: 7-point stencil at the roofline.
    let cells = LOCAL_N * LOCAL_N * LOCAL_N;
    let flops_per_cell = 8.0;
    let compute_rate = attainable(&node, &STENCIL7);
    let t_compute = cells * flops_per_cell / compute_rate;
    // Communication: six face exchanges of LOCAL_N² cells × 8 bytes.
    let face_bytes = (LOCAL_N * LOCAL_N * 8.0) as u64;
    let (_, link, _) = era(year);
    let host = HostParams::default();
    let t_face = p2p_time(&link, 3, face_bytes, protocol, &host);
    // Three of the six exchanges overlap pairwise (one per dimension in
    // each direction is concurrent); charge three serialized exchanges.
    let t_comm = 3.0 * t_face.as_secs();
    let useful_flops = cells * flops_per_cell;
    let sustained = useful_flops / (t_compute + t_comm);
    sustained / node.flops
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F10",
        "sustained/peak for a 128^3-per-node stencil on 1024 nodes",
        &[
            "year",
            "track",
            "peak-TF",
            "frac-sockets",
            "frac-zerocopy",
            "sustained-TF",
        ],
    );
    for year in (2002..=2010).step_by(2) {
        let ys = year.to_string();
        for kind in [NodeKind::Pc, NodeKind::SmpOnChip, NodeKind::Pim] {
            let node = NodeModel::build(kind, &Projection::default().at(year));
            let peak_tf = node.flops * NODES / 1e12;
            let f_sock = sustained_fraction(year, kind, Protocol::Sockets);
            let f_zc = sustained_fraction(year, kind, Protocol::Auto);
            t.row(vec![
                ys.clone(),
                kind.name().to_string(),
                format!("{peak_tf:.1}"),
                format!("{f_sock:.3}"),
                format!("{f_zc:.3}"),
                format!("{:.2}", peak_tf * f_zc),
            ]);
        }
    }
    t.note("frac = sustained/peak; comm = 3 serialized face exchanges/iter on the era fabric");
    t.note("expected: peak explodes while sustained fraction collapses on the PC/CMP tracks; PIM holds");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frac(t: &Table, year: &str, track: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == year && r[1] == track)
            .unwrap()[col]
            .parse()
            .unwrap()
    }

    #[test]
    fn zero_copy_always_sustains_more_than_sockets() {
        let t = &generate()[0];
        for row in &t.rows {
            let s: f64 = row[3].parse().unwrap();
            let z: f64 = row[4].parse().unwrap();
            assert!(z >= s, "{row:?}");
        }
    }

    #[test]
    fn pc_sustained_fraction_collapses_across_the_decade() {
        let t = &generate()[0];
        let f02 = frac(t, "2002", "pc-1u", 4);
        let f10 = frac(t, "2010", "pc-1u", 4);
        assert!(
            f10 < f02 / 2.0,
            "memory wall must erode sustained fraction: {f02} -> {f10}"
        );
    }

    #[test]
    fn pim_holds_its_fraction_best() {
        let t = &generate()[0];
        let pim10 = frac(t, "2010", "pim", 4);
        let pc10 = frac(t, "2010", "pc-1u", 4);
        let cmp10 = frac(t, "2010", "smp-on-chip", 4);
        assert!(pim10 > 3.0 * pc10, "pim {pim10} vs pc {pc10}");
        assert!(pim10 > 3.0 * cmp10, "pim {pim10} vs cmp {cmp10}");
    }

    #[test]
    fn absolute_sustained_still_grows() {
        // Even as the fraction collapses, absolute sustained TF rises —
        // the decade is not wasted, just inefficient.
        let t = &generate()[0];
        let s02: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "2002" && r[1] == "pc-1u")
            .unwrap()[5]
            .parse()
            .unwrap();
        let s10: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "2010" && r[1] == "pc-1u")
            .unwrap()[5]
            .parse()
            .unwrap();
        assert!(s10 > 3.0 * s02);
    }
}
