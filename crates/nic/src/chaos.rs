//! Fabric-level chaos: deterministic packet drop and corruption for the
//! virtual NIC, mirroring how real verbs hardware surfaces wire faults.
//!
//! Enabled via [`crate::fabric::Fabric::set_chaos`], the chaos layer
//! judges every two-sided send crossing the fabric:
//!
//! - **drop** — the message never reaches the peer; after (modeled)
//!   transport retry exhaustion the *sender* gets a
//!   [`CqeStatus::RetryExceeded`](crate::cq::CqeStatus) error completion,
//!   exactly as an RC QP reports a lost packet whose acks never came.
//! - **corrupt** — the payload is delivered with a byte flipped; the
//!   receiver's ICRC check fails and its receive completes with
//!   [`CqeStatus::ChecksumError`](crate::cq::CqeStatus), while the
//!   sender sees `RetryExceeded` (on hardware, the receiver NACKs the
//!   bad packet and the sender retries until the retry budget dies).
//!
//! One-sided RDMA is exempt: the reliability experiments
//! scope chaos to the two-sided path, which carries every control
//! envelope and eager payload of the messaging layer above.
//!
//! The decision stream is a seeded SplitMix64, so a fixed seed and a
//! fixed posting order reproduce the identical fault pattern.

use polaris_simnet::rng::SplitMix64;

/// Chaos configuration: seed plus per-send fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosParams {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Probability a two-sided send is dropped outright.
    pub drop_prob: f64,
    /// Probability a surviving send is delivered corrupted.
    pub corrupt_prob: f64,
}

impl ChaosParams {
    /// Pure uniform loss.
    pub fn drop_only(seed: u64, drop_prob: f64) -> Self {
        ChaosParams { seed, drop_prob, corrupt_prob: 0.0 }
    }
}

/// What the chaos layer decided for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChaosVerdict {
    Deliver,
    Drop,
    Corrupt,
}

/// Counters of injected faults (for tests and experiment reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    pub drops: u64,
    pub corruptions: u64,
}

/// Runtime state behind the fabric's chaos knob.
#[derive(Debug)]
pub(crate) struct ChaosState {
    params: ChaosParams,
    rng: SplitMix64,
    stats: ChaosStats,
}

impl ChaosState {
    pub(crate) fn new(params: ChaosParams) -> Self {
        ChaosState {
            rng: SplitMix64::new(params.seed),
            params,
            stats: ChaosStats::default(),
        }
    }

    pub(crate) fn judge(&mut self) -> ChaosVerdict {
        if self.rng.chance(self.params.drop_prob) {
            self.stats.drops += 1;
            return ChaosVerdict::Drop;
        }
        if self.rng.chance(self.params.corrupt_prob) {
            self.stats.corruptions += 1;
            return ChaosVerdict::Corrupt;
        }
        ChaosVerdict::Deliver
    }

    pub(crate) fn stats(&self) -> ChaosStats {
        self.stats
    }
}

/// CRC-32 (IEEE 802.3 polynomial, bit-reversed 0xEDB88320), the same
/// family of check an IB ICRC or Ethernet FCS performs. Bitwise — plenty
/// fast for the message sizes the chaos tests push.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_byte_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x5A;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn chaos_stream_is_deterministic() {
        let params = ChaosParams { seed: 9, drop_prob: 0.3, corrupt_prob: 0.3 };
        let mut a = ChaosState::new(params);
        let mut b = ChaosState::new(params);
        let va: Vec<ChaosVerdict> = (0..500).map(|_| a.judge()).collect();
        let vb: Vec<ChaosVerdict> = (0..500).map(|_| b.judge()).collect();
        assert_eq!(va, vb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().drops > 0 && a.stats().corruptions > 0);
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let mut s = ChaosState::new(ChaosParams { seed: 1, drop_prob: 0.0, corrupt_prob: 0.0 });
        assert!((0..100).all(|_| s.judge() == ChaosVerdict::Deliver));
        assert_eq!(s.stats(), ChaosStats::default());
    }
}
