//! Link and interconnect-generation models.
//!
//! A [`LinkModel`] captures the parameters that determine how long a
//! message occupies a wire: data bandwidth, per-hop latency (propagation
//! plus switch traversal), maximum transfer unit, per-packet header bytes,
//! and whether switches forward cut-through or store-and-forward.
//!
//! [`Generation`] provides presets for the interconnects the keynote names
//! as the present and future of commodity clusters circa 2002: Fast
//! Ethernet, Gigabit Ethernet, Myrinet-2000, InfiniBand 4x, and an optical
//! circuit switch. Figures are published-era ballpark values; the
//! experiments depend on their relative shape, not their third digit.

use crate::time::{SimDuration, PS_PER_SEC};

/// Physical/link-layer model of one interconnect technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Usable data bandwidth in bytes per second (after coding overhead).
    pub bandwidth_bps: u64,
    /// Per-hop latency: propagation plus switch pipeline, excluding
    /// serialization.
    pub hop_latency: SimDurationPs,
    /// Maximum payload bytes per packet.
    pub mtu: u32,
    /// Header + trailer bytes added to each packet on the wire.
    pub header_bytes: u32,
    /// Cut-through switches forward a packet after the header arrives;
    /// store-and-forward switches re-serialize the whole packet per hop.
    pub cut_through: bool,
}

/// Picosecond duration that serializes as a plain integer.
pub type SimDurationPs = u64;

/// The interconnect generations discussed in the keynote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// 100 Mb/s switched Fast Ethernet, the baseline Beowulf fabric.
    FastEthernet,
    /// 1 Gb/s Ethernet, the 2002 commodity upgrade path.
    GigabitEthernet,
    /// Myrinet-2000: 2 Gb/s, cut-through, source-routed.
    Myrinet2000,
    /// InfiniBand 4x: 10 Gb/s signalling, 8 Gb/s data.
    InfiniBand4x,
    /// Forward-looking optical circuit switching (see `circuit.rs` for the
    /// setup/teardown model; this entry models the established circuit).
    Optical,
}

impl Generation {
    pub const ALL: [Generation; 5] = [
        Generation::FastEthernet,
        Generation::GigabitEthernet,
        Generation::Myrinet2000,
        Generation::InfiniBand4x,
        Generation::Optical,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Generation::FastEthernet => "fast-ethernet",
            Generation::GigabitEthernet => "gigabit-ethernet",
            Generation::Myrinet2000 => "myrinet-2000",
            Generation::InfiniBand4x => "infiniband-4x",
            Generation::Optical => "optical",
        }
    }

    pub fn link_model(self) -> LinkModel {
        match self {
            Generation::FastEthernet => LinkModel {
                bandwidth_bps: 12_500_000, // 100 Mb/s
                hop_latency: SimDuration::from_us(10).as_ps(),
                mtu: 1500,
                header_bytes: 38, // Ethernet framing + IFG equivalent
                cut_through: false,
            },
            Generation::GigabitEthernet => LinkModel {
                bandwidth_bps: 125_000_000, // 1 Gb/s
                hop_latency: SimDuration::from_us(3).as_ps(),
                mtu: 1500,
                header_bytes: 38,
                cut_through: false,
            },
            Generation::Myrinet2000 => LinkModel {
                bandwidth_bps: 250_000_000, // 2 Gb/s
                hop_latency: SimDuration::from_ns(400).as_ps(),
                mtu: 4096,
                header_bytes: 16,
                cut_through: true,
            },
            Generation::InfiniBand4x => LinkModel {
                bandwidth_bps: 1_000_000_000, // 8 Gb/s data rate
                hop_latency: SimDuration::from_ns(200).as_ps(),
                mtu: 2048,
                header_bytes: 30, // LRH+BTH+ICRC+VCRC
                cut_through: true,
            },
            Generation::Optical => LinkModel {
                bandwidth_bps: 5_000_000_000, // 40 Gb/s
                hop_latency: SimDuration::from_ns(50).as_ps(),
                mtu: 65536,
                header_bytes: 8,
                cut_through: true,
            },
        }
    }
}

impl LinkModel {
    /// Picoseconds to serialize one byte onto the wire.
    #[inline]
    fn ps_per_byte(&self) -> f64 {
        PS_PER_SEC as f64 / self.bandwidth_bps as f64
    }

    /// Time to serialize `wire_bytes` bytes (headers included by caller).
    #[inline]
    pub fn serialize(&self, wire_bytes: u64) -> SimDuration {
        SimDuration::from_ps((wire_bytes as f64 * self.ps_per_byte()).round() as u64)
    }

    /// Number of packets a payload of `bytes` occupies.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1 // a zero-length message still sends one packet
        } else {
            bytes.div_ceil(self.mtu as u64)
        }
    }

    /// Total bytes on the wire for a payload, including per-packet headers.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        bytes + self.packets_for(bytes) * self.header_bytes as u64
    }

    /// Time to serialize an entire payload (all packets, with headers).
    pub fn serialize_payload(&self, bytes: u64) -> SimDuration {
        self.serialize(self.wire_bytes(bytes))
    }

    /// End-to-end time for a message of `bytes` over `hops` links of this
    /// model with no contention.
    ///
    /// Cut-through: hops pipeline; the tail arrives one full serialization
    /// plus `hops` hop-latencies after injection. Store-and-forward: each
    /// hop re-serializes, but successive packets pipeline across hops, so
    /// the total is `hops` serializations of one packet plus one
    /// serialization of the remaining packets.
    pub fn message_time(&self, bytes: u64, hops: u32) -> SimDuration {
        self.message_time_from(self.serialize_payload(bytes), bytes, hops)
    }

    /// [`LinkModel::message_time`] for a caller that already holds
    /// `total_ser = serialize_payload(bytes)`.
    pub(crate) fn message_time_from(
        &self,
        total_ser: SimDuration,
        bytes: u64,
        hops: u32,
    ) -> SimDuration {
        let hops = hops.max(1) as u64;
        let lat = SimDuration::from_ps(self.hop_latency).saturating_mul(hops);
        if self.cut_through {
            total_ser + lat
        } else {
            let npkts = self.packets_for(bytes);
            let last_pkt_payload = if bytes == 0 {
                0
            } else {
                bytes - (npkts - 1) * self.mtu as u64
            };
            // First (npkts-1) packets pipeline: pay their serialization once.
            let lead = self.serialize(
                (npkts - 1) * (self.mtu as u64 + self.header_bytes as u64),
            );
            // The last packet is re-serialized at every hop.
            let tail = self
                .serialize(last_pkt_payload + self.header_bytes as u64)
                .saturating_mul(hops);
            lead + tail + lat
        }
    }
}

/// Identifier for a directed link inside a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_bandwidth_ordering() {
        let bw: Vec<u64> = Generation::ALL
            .iter()
            .map(|g| g.link_model().bandwidth_bps)
            .collect();
        assert!(bw.windows(2).all(|w| w[0] < w[1]), "generations must be ordered slowest to fastest: {bw:?}");
    }

    #[test]
    fn generation_latency_ordering() {
        let lat: Vec<u64> = Generation::ALL
            .iter()
            .map(|g| g.link_model().hop_latency)
            .collect();
        assert!(lat.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn serialization_scales_linearly() {
        let m = Generation::GigabitEthernet.link_model();
        let t1 = m.serialize(1000).as_ps();
        let t2 = m.serialize(2000).as_ps();
        assert!((t2 as i64 - 2 * t1 as i64).abs() <= 1);
        // 1000 bytes at 125 MB/s = 8 us.
        assert!((m.serialize(1000).as_us() - 8.0).abs() < 0.001);
    }

    #[test]
    fn packets_and_wire_bytes() {
        let m = Generation::GigabitEthernet.link_model();
        assert_eq!(m.packets_for(0), 1);
        assert_eq!(m.packets_for(1), 1);
        assert_eq!(m.packets_for(1500), 1);
        assert_eq!(m.packets_for(1501), 2);
        assert_eq!(m.wire_bytes(1500), 1500 + 38);
        assert_eq!(m.wire_bytes(3000), 3000 + 2 * 38);
    }

    #[test]
    fn cut_through_beats_store_and_forward_over_hops() {
        let myri = Generation::Myrinet2000.link_model();
        let mut sf = myri;
        sf.cut_through = false;
        let bytes = 4096;
        let ct_time = myri.message_time(bytes, 5);
        let sf_time = sf.message_time(bytes, 5);
        assert!(ct_time < sf_time, "{ct_time} !< {sf_time}");
    }

    #[test]
    fn message_time_monotone_in_size_and_hops() {
        for g in Generation::ALL {
            let m = g.link_model();
            let mut prev = SimDuration::ZERO;
            for bytes in [0u64, 8, 64, 1024, 65536, 1 << 20] {
                let t = m.message_time(bytes, 3);
                assert!(t >= prev, "{g:?} not monotone in size");
                prev = t;
            }
            assert!(m.message_time(1024, 5) >= m.message_time(1024, 1));
        }
    }

    #[test]
    fn effective_bandwidth_approaches_link_rate() {
        let ib = Generation::InfiniBand4x.link_model();
        let bytes = 16u64 << 20;
        let eff = bytes as f64 / ib.message_time(bytes, 1).as_secs();
        let frac = eff / ib.bandwidth_bps as f64;
        assert!(frac > 0.9 && frac <= 1.0, "eff frac = {frac}");
    }

    #[test]
    fn small_message_latency_dominated_by_hop_latency() {
        let fe = Generation::FastEthernet.link_model();
        // One hop of 10us dominates 8B serialization (~3.7us incl header).
        let lat = fe.message_time(8, 1);
        assert!(lat.as_us() > 10.0 && lat.as_us() < 20.0, "{lat}");
    }

    #[test]
    fn zero_hops_treated_as_one() {
        let m = Generation::InfiniBand4x.link_model();
        assert_eq!(m.message_time(100, 0), m.message_time(100, 1));
    }
}
