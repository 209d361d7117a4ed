//! Messaging-layer configuration.

use std::time::Duration;

/// Which point-to-point protocol an endpoint uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Copy into pre-registered bounce buffers and send two-sided. One
    /// host copy on each side; lowest latency for small messages.
    Eager,
    /// RTS, a one-sided RDMA read straight between the user buffers,
    /// then FIN: zero host copies. Best for large messages.
    Rendezvous,
    /// Pick eager below `eager_threshold`, rendezvous at or above it.
    Auto,
    /// The 2002 kernel-sockets model: MTU segmentation, two extra copies
    /// per side, and per-segment syscall/interrupt overheads. The
    /// baseline the user-level protocols are compared against.
    Sockets,
}

/// Reliable-delivery configuration (off by default).
///
/// When enabled, every protocol frame the endpoint sends two-sided
/// carries a per-peer sequence number; the receiver acknowledges,
/// deduplicates, and reorders frames, and the sender retransmits on
/// error completions (fast path) or timer expiry, with exponential
/// backoff plus deterministic jitter. A frame that exhausts
/// [`MAX_RETRIES`] escalates to `mark_peer_failed`, so transient faults
/// heal transparently and persistent ones become clean
/// [`MsgError::PeerFailed`](crate::endpoint::MsgError) errors.
#[derive(Debug, Clone, Copy)]
pub struct Reliability {
    pub enabled: bool,
    /// First retransmission timeout; doubles per retry up to `rto_max`.
    pub rto_initial: Duration,
    pub rto_max: Duration,
}

/// Retransmissions allowed per frame before the peer is declared failed.
pub const MAX_RETRIES: u32 = 8;

/// Seed for the deterministic backoff jitter.
pub(crate) const JITTER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Reliability {
    fn default() -> Self {
        Reliability {
            enabled: false,
            rto_initial: Duration::from_millis(2),
            rto_max: Duration::from_millis(50),
        }
    }
}

impl Reliability {
    /// Reliability on, with the default timer settings.
    pub fn on() -> Self {
        Reliability {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct MsgConfig {
    pub protocol: Protocol,
    /// Payload size at or above which `Auto` switches to rendezvous.
    pub eager_threshold: usize,
    /// Payload capacity of one eager bounce buffer.
    pub eager_buf_size: usize,
    /// Modeled cost of one syscall (sockets baseline); implemented as a
    /// calibrated busy-wait so wall-clock measurements reflect it. Zero
    /// disables the model (the default, so tests run fast).
    pub syscall_overhead: Duration,
    /// Modeled cost of taking one receive interrupt (sockets baseline).
    pub interrupt_overhead: Duration,
    /// Buffer-pool (registration cache) capacity in buffers; 0 disables
    /// reuse so every `alloc` registers fresh memory (ablation A1,
    /// `figures -- ablations`).
    pub reg_cache_capacity: usize,
    /// Bounce buffers in the endpoint's one shared receive pool, which
    /// every peer's queue pair draws from: receive memory is
    /// O(srq_bufs), whatever the world size. Arrivals that find the
    /// pool empty park at the NIC until a buffer is reposted.
    pub srq_bufs: usize,
    /// Reliable-delivery layer (sequence numbers, ACKs, retransmission).
    pub reliability: Reliability,
}

impl Default for MsgConfig {
    fn default() -> Self {
        MsgConfig {
            protocol: Protocol::Auto,
            eager_threshold: 16 * 1024,
            eager_buf_size: 16 * 1024,
            syscall_overhead: Duration::ZERO,
            interrupt_overhead: Duration::ZERO,
            reg_cache_capacity: 64,
            srq_bufs: 32,
            reliability: Reliability::default(),
        }
    }
}

/// MTU used by the sockets baseline's segmentation.
pub(crate) const SOCKETS_MTU: usize = 1500;

impl MsgConfig {
    /// A configuration that forces one protocol for every message size.
    pub fn with_protocol(protocol: Protocol) -> Self {
        MsgConfig {
            protocol,
            ..Self::default()
        }
    }

    /// The protocol actually used for a payload of `len` bytes.
    pub fn protocol_for(&self, len: usize) -> Protocol {
        match self.protocol {
            Protocol::Auto => {
                if len < self.eager_threshold {
                    Protocol::Eager
                } else {
                    Protocol::Rendezvous
                }
            }
            p => p,
        }
    }

    /// Validate internal consistency; called by endpoint construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.eager_buf_size < crate::envelope::HEADER_LEN {
            return Err(format!(
                "eager_buf_size {} smaller than header {}",
                self.eager_buf_size,
                crate::envelope::HEADER_LEN
            ));
        }
        if self.srq_bufs == 0 {
            return Err("srq_bufs must be nonzero".into());
        }
        if self.reliability.enabled && self.reliability.rto_initial.is_zero() {
            return Err("reliability.rto_initial must be nonzero".into());
        }
        if self.protocol == Protocol::Eager || self.protocol == Protocol::Auto {
            // Bounce buffers are allocated `eager_buf_size + HEADER_LEN`
            // bytes, so the largest eager payload is `eager_buf_size`.
            if self.eager_threshold > self.eager_buf_size {
                return Err(format!(
                    "eager_threshold {} exceeds eager_buf_size {}",
                    self.eager_threshold, self.eager_buf_size
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MsgConfig::default().validate().is_ok());
    }

    #[test]
    fn auto_picks_by_threshold() {
        let c = MsgConfig::default();
        assert_eq!(c.protocol_for(0), Protocol::Eager);
        assert_eq!(c.protocol_for(c.eager_threshold - 1), Protocol::Eager);
        assert_eq!(c.protocol_for(c.eager_threshold), Protocol::Rendezvous);
    }

    #[test]
    fn forced_protocol_ignores_size() {
        let c = MsgConfig::with_protocol(Protocol::Sockets);
        assert_eq!(c.protocol_for(1), Protocol::Sockets);
        assert_eq!(c.protocol_for(1 << 30), Protocol::Sockets);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = MsgConfig::default();
        let c = MsgConfig {
            eager_threshold: base.eager_buf_size + 1,
            ..base
        };
        assert!(c.validate().is_err());

        let c = MsgConfig {
            eager_buf_size: 4,
            ..MsgConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MsgConfig {
            srq_bufs: 0,
            ..MsgConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MsgConfig {
            reliability: Reliability {
                rto_initial: Duration::ZERO,
                ..Reliability::on()
            },
            ..MsgConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn reliability_on_is_valid() {
        let c = MsgConfig {
            reliability: Reliability::on(),
            ..MsgConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
