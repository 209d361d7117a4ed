//! Canonical spec encoding and content addresses.
//!
//! A cache that answers "have I simulated this before?" is only as
//! good as its notion of *this*. Two requests must collide exactly
//! when they describe the same simulation, so the address is computed
//! from a **canonical byte encoding**: every spec writes its fields in
//! declaration order, each tagged with its name, with unambiguous
//! length-prefixed framing — no maps with nondeterministic iteration
//! order, no floating-point text formatting, no derive(Hash) (whose
//! layout silently changes with field reordering and is not stable
//! across compiler versions).
//!
//! The address itself is a 128-bit FNV-1a over those bytes
//! ([`SpecHash`]). 128 bits makes accidental collision over a
//! million-entry spec space vanishingly improbable (birthday bound
//! ~2^-90), and FNV needs no tables or vendored crypto.

use std::fmt;

/// A content address: 128-bit FNV-1a of a spec's canonical bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecHash(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

impl SpecHash {
    /// Hash raw canonical bytes.
    pub fn of_bytes(bytes: &[u8]) -> SpecHash {
        let mut buf = CanonicalBuf::new();
        buf.write(bytes);
        buf.finish()
    }

    /// Hash a spec via its canonical encoding.
    pub fn of<T: Canonical + ?Sized>(spec: &T) -> SpecHash {
        let mut buf = CanonicalBuf::new();
        spec.encode(&mut buf);
        buf.finish()
    }
}

impl fmt::Debug for SpecHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpecHash({:032x})", self.0)
    }
}

impl fmt::Display for SpecHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Folds a spec's canonical bytes into the FNV state as they are
/// written; nothing is buffered. Every write is framed — field names
/// length-prefixed, integers fixed-width little-endian — so no
/// concatenation of two different field sequences can produce the same
/// byte stream.
pub struct CanonicalBuf {
    hash: u128,
    /// Bytes folded so far: what frames a list element.
    len: usize,
}

impl Default for CanonicalBuf {
    fn default() -> Self {
        CanonicalBuf { hash: FNV_OFFSET, len: 0 }
    }
}

impl CanonicalBuf {
    pub fn new() -> Self {
        CanonicalBuf::default()
    }

    /// The address of everything written so far.
    pub fn finish(&self) -> SpecHash {
        SpecHash(self.hash)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
        self.len += bytes.len();
    }

    fn tag(&mut self, name: &str) {
        self.write(&(name.len() as u32).to_le_bytes());
        self.write(name.as_bytes());
    }

    /// A named unsigned field.
    pub fn u64(&mut self, name: &str, v: u64) {
        self.tag(name);
        self.write(b"u");
        self.write(&v.to_le_bytes());
    }

    /// A named string field (length-prefixed UTF-8).
    pub fn str(&mut self, name: &str, v: &str) {
        self.tag(name);
        self.write(b"s");
        self.write(&(v.len() as u32).to_le_bytes());
        self.write(v.as_bytes());
    }

    /// A named nested list: each element is framed by its encoded
    /// length, so element boundaries are unambiguous. The length goes
    /// before the bytes, so an element is encoded twice: once into a
    /// scratch state to count, once into this one.
    pub fn list<T: Canonical>(&mut self, name: &str, items: &[T]) {
        self.tag(name);
        self.write(b"l");
        self.write(&(items.len() as u32).to_le_bytes());
        for item in items {
            let mut counted = CanonicalBuf::new();
            item.encode(&mut counted);
            self.write(&(counted.len as u32).to_le_bytes());
            item.encode(self);
        }
    }
}

/// A spec that can write itself into a [`CanonicalBuf`].
///
/// Contract: `a.encode(..) == b.encode(..)` **iff** `a` and `b`
/// describe the same simulation. Implementations write every
/// semantically meaningful field (in declaration order, by name) and
/// nothing else — no timestamps, no request IDs, no client identity.
pub trait Canonical {
    fn encode(&self, buf: &mut CanonicalBuf);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, u64);
    impl Canonical for Pair {
        fn encode(&self, buf: &mut CanonicalBuf) {
            buf.u64("a", self.0);
            buf.u64("b", self.1);
        }
    }

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(SpecHash::of_bytes(b"").0, FNV_OFFSET);
        // And hashing is sensitive to every byte.
        assert_ne!(SpecHash::of_bytes(b"a"), SpecHash::of_bytes(b"b"));
    }

    #[test]
    fn equal_specs_collide_distinct_specs_do_not() {
        assert_eq!(SpecHash::of(&Pair(1, 2)), SpecHash::of(&Pair(1, 2)));
        // Framing keeps field contents from bleeding into each other:
        // (1, 2) vs (2, 1) and adjacent-byte confusions all differ.
        assert_ne!(SpecHash::of(&Pair(1, 2)), SpecHash::of(&Pair(2, 1)));
        assert_ne!(SpecHash::of(&Pair(0x0102, 0)), SpecHash::of(&Pair(0x01, 0x02)));
    }

    #[test]
    fn strings_are_length_framed() {
        struct S(&'static str, &'static str);
        impl Canonical for S {
            fn encode(&self, buf: &mut CanonicalBuf) {
                buf.str("x", self.0);
                buf.str("y", self.1);
            }
        }
        assert_ne!(SpecHash::of(&S("ab", "c")), SpecHash::of(&S("a", "bc")));
    }

    #[test]
    fn lists_frame_their_elements() {
        struct L(Vec<Pair>);
        impl Canonical for L {
            fn encode(&self, buf: &mut CanonicalBuf) {
                buf.list("items", &self.0);
            }
        }
        let one = L(vec![Pair(1, 2), Pair(3, 4)]);
        let other = L(vec![Pair(1, 2), Pair(3, 5)]);
        assert_ne!(SpecHash::of(&one), SpecHash::of(&other));
        assert_eq!(SpecHash::of(&one), SpecHash::of(&L(vec![Pair(1, 2), Pair(3, 4)])));
    }

    /// Fold a sequence of addresses into one: FNV over their
    /// little-endian bytes, in order.
    fn fold(addresses: impl Iterator<Item = SpecHash>) -> SpecHash {
        let bytes: Vec<u8> = addresses.flat_map(|h| h.0.to_le_bytes()).collect();
        SpecHash::of_bytes(&bytes)
    }

    /// Content addresses are persistent names: a cache or checkpoint
    /// store written by one build must be readable by the next. A
    /// failure here means every persisted key moved: fix the encoder,
    /// not the literals.
    #[test]
    fn content_addresses_are_pinned() {
        use crate::incremental::{PhaseCfg, PhasedSpec};
        use crate::spec::{figure_specs, PointSpec};
        use polaris_collectives::prelude::{AllreduceAlgo, Collective};

        let scales: Vec<u32> = (1..=16).map(|i| 4 * i).collect();
        let specs = figure_specs(&scales);
        assert_eq!(specs.len(), 160);
        assert_eq!(
            fold(specs.iter().map(SpecHash::of)).0,
            0xecbfc292_2ce9faed_6794907f_36de100c,
            "PointSpec addresses moved"
        );

        // The only `list` user: every prefix of a three-phase spec.
        let phased = PhasedSpec {
            hosts: 12,
            nshards: 2,
            phase_len: 400,
            phases: vec![
                PhaseCfg { tokens: 6, hops: 40, stagger: 1 },
                PhaseCfg { tokens: 4, hops: 60, stagger: 0 },
                PhaseCfg { tokens: 8, hops: 25, stagger: 3 },
            ],
        };
        assert_eq!(
            fold((0..=3).map(|k| phased.prefix_hash(k))).0,
            0x450a8a5f_0a05aaee_272c0e06_9ead4416,
            "PhasedSpec prefix addresses moved"
        );
        assert_eq!(SpecHash::of(&phased), phased.prefix_hash(3));

        // The documented framing, spelled out: u32-LE length + name,
        // a kind byte, then a u64-LE value or a u32-LE length + UTF-8.
        let spec = PointSpec {
            nodes: 16,
            collective: Collective::Allreduce(AllreduceAlgo::Ring),
            payload_bytes: 1 << 16,
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(b"nodes");
        bytes.push(b'u');
        bytes.extend_from_slice(&16u64.to_le_bytes());
        bytes.extend_from_slice(&10u32.to_le_bytes());
        bytes.extend_from_slice(b"collective");
        bytes.push(b's');
        bytes.extend_from_slice(&15u32.to_le_bytes());
        bytes.extend_from_slice(b"Allreduce(Ring)");
        bytes.extend_from_slice(&13u32.to_le_bytes());
        bytes.extend_from_slice(b"payload_bytes");
        bytes.push(b'u');
        bytes.extend_from_slice(&65536u64.to_le_bytes());
        assert_eq!(SpecHash::of(&spec), SpecHash::of_bytes(&bytes));
        assert_eq!(SpecHash::of_bytes(&bytes).0, 0x4d145416_968f1471_26b199c2_503f5335);
    }
}
