//! Analytic protocol cost models (LogGP-style) for simulated time.
//!
//! The shared-memory backend gives *executable* protocols whose relative
//! wall-clock behaviour is real, but it cannot reproduce 2002-era
//! absolute latencies or scale to thousands of nodes. For the figures,
//! the protocols are therefore also expressed as cost models over a
//! [`LinkModel`]: each protocol's time is the sum of its CPU overheads,
//! its host copies at a modeled memory-copy bandwidth, and its wire
//! crossings. The models use the same structural constants the
//! executable protocols exhibit (copy counts, handshake message counts),
//! which the unit tests cross-check against `EndpointStats`.
//!
//! Era parameters default to published 2002 ballpark values.

use crate::config::{MsgConfig, Protocol, SOCKETS_MTU};
use crate::envelope::HEADER_LEN;
use polaris_simnet::link::LinkModel;
use polaris_simnet::time::SimDuration;

/// Host-side cost parameters (the "o" and copy terms of LogGP).
#[derive(Debug, Clone, Copy)]
pub struct HostParams {
    /// Host memory copy bandwidth, bytes/sec (2002 commodity: ~1 GB/s).
    pub copy_bps: u64,
    /// Whether the registration cache is warm (ablation A1).
    pub reg_cache: bool,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            copy_bps: 1_000_000_000,
            reg_cache: true,
        }
    }
}

/// Per-message CPU overhead of the user-level send/recv paths.
const USERLEVEL_OVERHEAD: SimDuration = SimDuration::from_ns(500);
/// Cost of one syscall (sockets path). The 2002 kernel TCP path pays a
/// syscall and protocol processing per segment on the send side, an
/// interrupt and protocol processing on receive.
const SYSCALL: SimDuration = SimDuration::from_us(5);
/// Cost of one receive interrupt (sockets path).
const INTERRUPT: SimDuration = SimDuration::from_us(15);
/// Cost of registering one page (rendezvous without a cache pays this
/// per page of payload).
const REG_PER_PAGE: SimDuration = SimDuration::from_us(1);
/// Page size for registration accounting.
const PAGE_SIZE: usize = 4096;

impl HostParams {
    fn copy_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.copy_bps as f64)
    }

    fn reg_time(&self, bytes: u64) -> SimDuration {
        if self.reg_cache {
            SimDuration::ZERO
        } else {
            let pages = (bytes as usize).div_ceil(PAGE_SIZE).max(1) as u64;
            REG_PER_PAGE.saturating_mul(pages)
        }
    }
}

/// End-to-end one-way time for `bytes` of payload under `protocol` over
/// `hops` links of `link`.
pub fn p2p_time(
    link: &LinkModel,
    hops: u32,
    bytes: u64,
    protocol: Protocol,
    host: &HostParams,
) -> SimDuration {
    let hdr = HEADER_LEN as u64;
    let ctrl = |n: u64| {
        // n header-only control messages, each paying wire time plus
        // user-level overhead at both ends.
        let mut t = SimDuration::ZERO;
        for _ in 0..n {
            t += link.message_time(hdr, hops) + USERLEVEL_OVERHEAD + USERLEVEL_OVERHEAD;
        }
        t
    };
    match protocol {
        Protocol::Eager => {
            // copy in, wire (payload + envelope), copy out.
            USERLEVEL_OVERHEAD
                + host.copy_time(bytes)
                + link.message_time(bytes + hdr, hops)
                + host.copy_time(bytes)
                + USERLEVEL_OVERHEAD
        }
        Protocol::Rendezvous => {
            // RTS -> (read) -> FIN; the FIN overlaps nothing here.
            let data = link.message_time(bytes.max(1), hops);
            ctrl(2) + host.reg_time(bytes) + data
        }
        Protocol::Sockets => {
            let mtu = SOCKETS_MTU as u64;
            let segs = bytes.div_ceil(mtu).max(1);
            // Two copies per side, one syscall per segment at the sender,
            // one interrupt per segment at the receiver, then the wire.
            host.copy_time(2 * bytes)
                + host.copy_time(2 * bytes)
                + SYSCALL.saturating_mul(segs)
                + INTERRUPT.saturating_mul(segs)
                + link.message_time(bytes + segs * hdr, hops)
        }
        Protocol::Auto => {
            // The endpoint's default threshold picks the protocol.
            let p = MsgConfig::default().protocol_for(bytes as usize);
            p2p_time(link, hops, bytes, p, host)
        }
    }
}

/// Effective bandwidth (payload / one-way time), bytes per second.
pub fn p2p_bandwidth(
    link: &LinkModel,
    hops: u32,
    bytes: u64,
    protocol: Protocol,
    host: &HostParams,
) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    bytes as f64 / p2p_time(link, hops, bytes, protocol, host).as_secs()
}

/// The payload size where rendezvous becomes faster than eager (the
/// protocol switch point the A2 ablation sweeps), found by scanning
/// powers of two then bisecting.
pub fn eager_rendezvous_crossover(link: &LinkModel, hops: u32, host: &HostParams) -> u64 {
    let eager = |b: u64| p2p_time(link, hops, b, Protocol::Eager, host);
    let rndv = |b: u64| p2p_time(link, hops, b, Protocol::Rendezvous, host);
    let cap = 16u64 << 20;
    if rndv(cap) >= eager(cap) {
        return cap;
    }
    let (mut lo, mut hi) = (1u64, cap);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if rndv(mid) < eager(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_simnet::link::Generation;

    fn host() -> HostParams {
        HostParams::default()
    }

    #[test]
    fn userlevel_beats_sockets_on_small_messages() {
        for g in [
            Generation::GigabitEthernet,
            Generation::Myrinet2000,
            Generation::InfiniBand4x,
        ] {
            let link = g.link_model();
            let eager = p2p_time(&link, 2, 8, Protocol::Eager, &host());
            let sockets = p2p_time(&link, 2, 8, Protocol::Sockets, &host());
            let speedup = sockets.as_secs() / eager.as_secs();
            assert!(
                speedup > 1.5,
                "{g:?}: user-level should win small messages, speedup {speedup}"
            );
        }
    }

    #[test]
    fn rendezvous_beats_eager_on_large_messages() {
        let link = Generation::InfiniBand4x.link_model();
        let big = 4 << 20;
        let e = p2p_time(&link, 2, big, Protocol::Eager, &host());
        let r = p2p_time(&link, 2, big, Protocol::Rendezvous, &host());
        assert!(r < e, "rendezvous {r} must beat eager {e} at {big} bytes");
    }

    #[test]
    fn eager_beats_rendezvous_on_tiny_messages() {
        let link = Generation::InfiniBand4x.link_model();
        let e = p2p_time(&link, 2, 8, Protocol::Eager, &host());
        let r = p2p_time(&link, 2, 8, Protocol::Rendezvous, &host());
        assert!(e < r, "eager {e} must beat rendezvous {r} at 8 bytes");
    }

    #[test]
    fn crossover_is_between_the_extremes() {
        let link = Generation::InfiniBand4x.link_model();
        let x = eager_rendezvous_crossover(&link, 2, &host());
        assert!((64..=1 << 20).contains(&x), "crossover {x}");
        // Verify it is actually a crossover.
        let e = |b| p2p_time(&link, 2, b, Protocol::Eager, &host());
        let r = |b| p2p_time(&link, 2, b, Protocol::Rendezvous, &host());
        assert!(e(x / 2) <= r(x / 2));
        assert!(r(2 * x) < e(2 * x));
    }

    #[test]
    fn sockets_bandwidth_saturates_below_link_rate() {
        let link = Generation::InfiniBand4x.link_model();
        let bw_sockets = p2p_bandwidth(&link, 2, 16 << 20, Protocol::Sockets, &host());
        let bw_rndv = p2p_bandwidth(&link, 2, 16 << 20, Protocol::Rendezvous, &host());
        // Four copies at 1 GB/s cap sockets far below the 1 GB/s link.
        assert!(bw_sockets < 0.4 * link.bandwidth_bps as f64);
        assert!(bw_rndv > 0.85 * link.bandwidth_bps as f64);
    }

    #[test]
    fn registration_cache_matters_for_rendezvous() {
        let link = Generation::InfiniBand4x.link_model();
        let mut cold = host();
        cold.reg_cache = false;
        let warm = host();
        let b = 1 << 20;
        let t_cold = p2p_time(&link, 2, b, Protocol::Rendezvous, &cold);
        let t_warm = p2p_time(&link, 2, b, Protocol::Rendezvous, &warm);
        assert!(t_cold > t_warm);
        // 256 pages at 1us each = 256us extra.
        let extra = t_cold.as_us() - t_warm.as_us();
        assert!((200.0..300.0).contains(&extra), "extra {extra}us");
    }

    #[test]
    fn auto_model_tracks_components() {
        let link = Generation::Myrinet2000.link_model();
        let h = host();
        assert_eq!(
            p2p_time(&link, 2, 100, Protocol::Auto, &h),
            p2p_time(&link, 2, 100, Protocol::Eager, &h)
        );
        assert_eq!(
            p2p_time(&link, 2, 1 << 20, Protocol::Auto, &h),
            p2p_time(&link, 2, 1 << 20, Protocol::Rendezvous, &h)
        );
    }

    #[test]
    fn times_monotone_in_size() {
        let link = Generation::FastEthernet.link_model();
        for proto in [Protocol::Eager, Protocol::Rendezvous, Protocol::Sockets] {
            let mut prev = SimDuration::ZERO;
            for bytes in [1u64, 64, 1024, 65536, 1 << 20] {
                let t = p2p_time(&link, 2, bytes, proto, &host());
                assert!(t >= prev, "{proto:?} not monotone");
                prev = t;
            }
        }
    }

    #[test]
    fn faster_generations_reduce_latency() {
        let h = host();
        let mut prev = f64::INFINITY;
        for g in [
            Generation::FastEthernet,
            Generation::GigabitEthernet,
            Generation::Myrinet2000,
            Generation::InfiniBand4x,
        ] {
            let t = p2p_time(&g.link_model(), 2, 8, Protocol::Eager, &h).as_us();
            assert!(t < prev, "{g:?} latency {t}us not better than {prev}us");
            prev = t;
        }
    }
}
