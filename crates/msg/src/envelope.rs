//! Wire envelopes: the fixed-size headers that precede eager payloads and
//! carry the rendezvous handshake.
//!
//! Encoding is a hand-rolled fixed layout (64 bytes, little-endian): the
//! header is on the critical path of every small message, so it must cost
//! a handful of stores, not a serializer.
//!
//! The last 16 bytes are the **reliability trailer**: a 32-bit wire
//! sequence number at `[48..52]`, a sequenced-frame flag at `[52]`, and
//! the sender's rank at `[56..60]`, stamped by [`stamp_rel`] when the
//! endpoint's reliability layer is enabled. The wire carries only the
//! low 32 bits of the per-peer 64-bit extended sequence counter (real
//! transports carry 24–32-bit PSNs); receivers reconstruct the extended
//! value with wrapping-window arithmetic, so streams survive the
//! `u32::MAX` boundary without stalling or double-delivering. The flag
//! byte — not a zero seq — marks unsequenced frames, because a wrapped
//! stream legitimately emits a wire seq of 0. (ACKs are always
//! unsequenced so they can never recurse.)

/// Bytes every envelope occupies on the wire.
pub const HEADER_LEN: usize = 64;

/// Offset of the 32-bit wire sequence number within the header.
pub const REL_SEQ_OFF: usize = 48;

/// Offset of the sequenced-frame flag byte within the header.
pub const REL_FLAG_OFF: usize = 52;

/// Offset of the reliability source-rank field within the header.
pub const REL_SRC_OFF: usize = 56;

/// Stamp the reliability trailer onto an encoded header: `seq` is the
/// frame's per-peer extended sequence number (only the low 32 bits go on
/// the wire), `src` the sending rank.
pub fn stamp_rel(header: &mut [u8; HEADER_LEN], seq: u64, src: u32) {
    header[REL_SEQ_OFF..REL_SEQ_OFF + 4].copy_from_slice(&(seq as u32).to_le_bytes());
    header[REL_FLAG_OFF] = 1;
    header[REL_SRC_OFF..REL_SRC_OFF + 4].copy_from_slice(&src.to_le_bytes());
}

/// Whether a frame carries a sequence number (was stamped by
/// [`stamp_rel`]).
pub fn rel_sequenced(frame: &[u8]) -> bool {
    frame[REL_FLAG_OFF] != 0
}

/// Read a frame's 32-bit wire sequence number. Meaningless unless
/// [`rel_sequenced`] returns true.
pub fn rel_wire_seq(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[REL_SEQ_OFF..REL_SEQ_OFF + 4].try_into().unwrap())
}

/// Read a frame's reliability source rank.
pub fn rel_src(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[REL_SRC_OFF..REL_SRC_OFF + 4].try_into().unwrap())
}

/// Message envelope types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Envelope {
    /// Eager data message: payload of `len` bytes follows the header in
    /// the same bounce buffer.
    Eager { src: u32, tag: u64, len: u64 },
    /// Rendezvous request-to-send: the payload stays in the sender's
    /// registered buffer, advertised by `rkey`.
    Rts {
        src: u32,
        tag: u64,
        len: u64,
        msg_id: u64,
        rkey: u64,
    },
    /// Rendezvous finished: the receiver has pulled the data.
    Fin { msg_id: u64 },
    /// One MTU segment of the sockets baseline. `offset` locates the
    /// segment's payload within the full message of `total` bytes.
    SockSeg {
        src: u32,
        tag: u64,
        msg_id: u64,
        total: u64,
        offset: u64,
        len: u64,
    },
    /// Reliability acknowledgement: `src` acknowledges receiving frame
    /// `acked` and every frame up to and including `cum` (cumulative).
    /// Both carry 32-bit wire sequence numbers; the sender reconstructs
    /// the extended values against its own send counter. ACK frames are
    /// themselves unsequenced.
    Ack { src: u32, acked: u32, cum: u32 },
}

const T_EAGER: u8 = 1;
const T_RTS: u8 = 2;
const T_FIN: u8 = 4;
const T_SOCKSEG: u8 = 5;
const T_ACK: u8 = 6;

impl Envelope {
    /// Serialize into a `HEADER_LEN`-byte header.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        match *self {
            Envelope::Eager { src, tag, len } => {
                b[0] = T_EAGER;
                b[4..8].copy_from_slice(&src.to_le_bytes());
                b[8..16].copy_from_slice(&tag.to_le_bytes());
                b[16..24].copy_from_slice(&len.to_le_bytes());
            }
            Envelope::Rts {
                src,
                tag,
                len,
                msg_id,
                rkey,
            } => {
                b[0] = T_RTS;
                b[4..8].copy_from_slice(&src.to_le_bytes());
                b[8..16].copy_from_slice(&tag.to_le_bytes());
                b[16..24].copy_from_slice(&len.to_le_bytes());
                b[24..32].copy_from_slice(&msg_id.to_le_bytes());
                b[32..40].copy_from_slice(&rkey.to_le_bytes());
            }
            Envelope::Fin { msg_id } => {
                b[0] = T_FIN;
                b[24..32].copy_from_slice(&msg_id.to_le_bytes());
            }
            Envelope::SockSeg {
                src,
                tag,
                msg_id,
                total,
                offset,
                len,
            } => {
                b[0] = T_SOCKSEG;
                b[4..8].copy_from_slice(&src.to_le_bytes());
                b[8..16].copy_from_slice(&tag.to_le_bytes());
                b[16..24].copy_from_slice(&len.to_le_bytes());
                b[24..32].copy_from_slice(&msg_id.to_le_bytes());
                b[32..40].copy_from_slice(&total.to_le_bytes());
                b[40..48].copy_from_slice(&offset.to_le_bytes());
            }
            Envelope::Ack { src, acked, cum } => {
                b[0] = T_ACK;
                b[4..8].copy_from_slice(&src.to_le_bytes());
                b[8..12].copy_from_slice(&acked.to_le_bytes());
                b[12..16].copy_from_slice(&cum.to_le_bytes());
            }
        }
        b
    }

    /// Parse a header. Returns `None` for unknown types or truncation.
    pub fn decode(b: &[u8]) -> Option<Envelope> {
        if b.len() < HEADER_LEN {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        Some(match b[0] {
            T_EAGER => Envelope::Eager {
                src: u32_at(4),
                tag: u64_at(8),
                len: u64_at(16),
            },
            T_RTS => Envelope::Rts {
                src: u32_at(4),
                tag: u64_at(8),
                len: u64_at(16),
                msg_id: u64_at(24),
                rkey: u64_at(32),
            },
            T_FIN => Envelope::Fin { msg_id: u64_at(24) },
            T_SOCKSEG => Envelope::SockSeg {
                src: u32_at(4),
                tag: u64_at(8),
                len: u64_at(16),
                msg_id: u64_at(24),
                total: u64_at(32),
                offset: u64_at(40),
            },
            T_ACK => Envelope::Ack {
                src: u32_at(4),
                acked: u32_at(8),
                cum: u32_at(12),
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: Envelope) {
        let b = e.encode();
        assert_eq!(Envelope::decode(&b), Some(e));
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Envelope::Eager {
            src: 3,
            tag: u64::MAX,
            len: 12345,
        });
        roundtrip(Envelope::Rts {
            src: 1,
            tag: 7,
            len: 1 << 40,
            msg_id: 0xdead_beef_cafe,
            rkey: 42,
        });
        roundtrip(Envelope::Fin { msg_id: 0 });
        roundtrip(Envelope::Ack {
            src: 9,
            acked: u32::MAX,
            cum: 77,
        });
        roundtrip(Envelope::SockSeg {
            src: 2,
            tag: 5,
            msg_id: 77,
            total: 100_000,
            offset: 98_500,
            len: 1500,
        });
    }

    #[test]
    fn unknown_type_rejected() {
        let mut b = [0u8; HEADER_LEN];
        b[0] = 99;
        assert_eq!(Envelope::decode(&b), None);
    }

    #[test]
    fn truncated_header_rejected() {
        let e = Envelope::Fin { msg_id: 1 };
        let b = e.encode();
        assert_eq!(Envelope::decode(&b[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn reliability_trailer_roundtrips_and_defaults_to_unreliable() {
        let mut b = Envelope::Fin { msg_id: 3 }.encode();
        assert!(!rel_sequenced(&b), "unstamped frames are unreliable");
        stamp_rel(&mut b, 0x0123_4567_89ab_cdef, 42);
        assert!(rel_sequenced(&b));
        assert_eq!(rel_wire_seq(&b), 0x89ab_cdef, "the wire carries the low 32 bits");
        assert_eq!(rel_src(&b), 42);
        // The trailer does not disturb the envelope body.
        assert_eq!(Envelope::decode(&b), Some(Envelope::Fin { msg_id: 3 }));
    }

    #[test]
    fn wrapped_wire_seq_zero_is_still_sequenced() {
        // An extended seq of exactly 2^32 has wire seq 0; the flag byte —
        // not the seq value — must carry the sequenced/unsequenced
        // distinction, or the frame would bypass dedup entirely.
        let mut b = Envelope::Fin { msg_id: 1 }.encode();
        stamp_rel(&mut b, 1u64 << 32, 7);
        assert!(rel_sequenced(&b));
        assert_eq!(rel_wire_seq(&b), 0);
    }

    #[test]
    fn decode_ignores_trailing_payload() {
        let e = Envelope::Eager {
            src: 1,
            tag: 2,
            len: 3,
        };
        let mut wire = e.encode().to_vec();
        wire.extend_from_slice(b"payload");
        assert_eq!(Envelope::decode(&wire), Some(e));
    }
}
