//! F8 — launching into the future: application-visible messaging
//! performance through the decade, with and without user-level
//! networking. The keynote's central thesis in one table: as the
//! commodity interconnect advances (GigE → Myrinet → InfiniBand → DDR →
//! optical), the kernel sockets path is pinned by per-message overheads
//! and copies, while the zero-copy user-level path rides the hardware
//! curve.

use crate::table::Table;
use polaris_msg::config::Protocol;
use polaris_msg::model::{p2p_bandwidth, p2p_time, HostParams};
use polaris_simnet::link::{Generation, LinkModel};
use polaris_simnet::time::SimDuration;

/// The commodity interconnect of each year and the host of that year
/// (memory copy bandwidth doubles every ~3 years; the kernel path's
/// per-message costs barely move — that is the point).
pub(crate) fn era(year: u32) -> (&'static str, LinkModel, HostParams) {
    let host = |copy_gbps: f64| HostParams {
        copy_bps: (copy_gbps * 1e9) as u64,
        ..HostParams::default()
    };
    match year {
        2002 => ("gigabit-ethernet", Generation::GigabitEthernet.link_model(), host(1.0)),
        2004 => ("myrinet-2000", Generation::Myrinet2000.link_model(), host(1.6)),
        2006 => ("infiniband-4x", Generation::InfiniBand4x.link_model(), host(2.5)),
        2008 => {
            // InfiniBand DDR: double the SDR data rate.
            let mut l = Generation::InfiniBand4x.link_model();
            l.bandwidth_bps *= 2;
            l.hop_latency /= 2;
            ("infiniband-ddr", l, host(4.0))
        }
        2010 => ("optical", Generation::Optical.link_model(), host(6.3)),
        _ => panic!("era table covers 2002..=2010 in steps of 2"),
    }
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F8",
        "messaging through the decade: 8B latency and 4MiB bandwidth",
        &[
            "year",
            "fabric",
            "sockets-us",
            "zerocopy-us",
            "latency-gain",
            "sockets-MB/s",
            "zerocopy-MB/s",
            "bw-gain",
        ],
    );
    let mut first: Option<(SimDuration, f64)> = None;
    for year in (2002..=2010).step_by(2) {
        let (name, link, hostp) = era(year);
        let lat = |p| p2p_time(&link, 2, 8, p, &hostp);
        let bw = |p| p2p_bandwidth(&link, 2, 4 << 20, p, &hostp) / 1e6;
        let zc_lat = lat(Protocol::Eager);
        let zc_bw = bw(Protocol::Rendezvous);
        first.get_or_insert((zc_lat, zc_bw));
        t.row(vec![
            year.to_string(),
            name.to_string(),
            format!("{:.1}", lat(Protocol::Sockets).as_us()),
            format!("{:.1}", zc_lat.as_us()),
            format!(
                "{:.1}x",
                lat(Protocol::Sockets).as_secs() / zc_lat.as_secs()
            ),
            format!("{:.0}", bw(Protocol::Sockets)),
            format!("{zc_bw:.0}"),
            format!("{:.1}x", zc_bw / bw(Protocol::Sockets)),
        ]);
    }
    t.note("host copies double every ~3y; kernel per-message costs stay ~fixed");
    t.note("expected: the sockets columns barely move across the decade; the user-level columns ride the hardware curve");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockets_stagnate_while_zero_copy_rides_the_curve() {
        let t = &generate()[0];
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        let s_lat_02: f64 = first[2].parse().unwrap();
        let s_lat_10: f64 = last[2].parse().unwrap();
        let z_lat_02: f64 = first[3].parse().unwrap();
        let z_lat_10: f64 = last[3].parse().unwrap();
        // Sockets latency improves < 2x over the decade...
        assert!(s_lat_02 / s_lat_10 < 2.0, "{s_lat_02} -> {s_lat_10}");
        // ...while the user-level path improves > 4x.
        assert!(z_lat_02 / z_lat_10 > 4.0, "{z_lat_02} -> {z_lat_10}");
        // Bandwidth: zero-copy gains > 10x, sockets < 4x.
        let s_bw_02: f64 = first[5].parse().unwrap();
        let s_bw_10: f64 = last[5].parse().unwrap();
        let z_bw_02: f64 = first[6].parse().unwrap();
        let z_bw_10: f64 = last[6].parse().unwrap();
        assert!(z_bw_10 / z_bw_02 > 10.0);
        assert!(s_bw_10 / s_bw_02 < 4.0);
    }

    #[test]
    fn gains_widen_monotonically() {
        let t = &generate()[0];
        let gains: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[7].trim_end_matches('x').parse().unwrap())
            .collect();
        for w in gains.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "bandwidth gain must widen: {gains:?}");
        }
    }
}
