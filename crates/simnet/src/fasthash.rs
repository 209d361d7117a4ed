//! A fast, non-cryptographic hasher for simulation-internal maps.
//!
//! The standard library's default SipHash is a DoS defence the simulator
//! does not need: keys here are small integers (ranks, vertex ids) under
//! our own control, and the multiply-xor scheme below (the same family
//! as rustc's FxHash) is several times faster on the hot lookup paths
//! (the topology's link index, the serving cache, the NIC's
//! memory-region table).
//!
//! Determinism note: swapping the hasher never changes simulation
//! results — these maps are only ever used for keyed lookups, not
//! iterated, so hash order cannot leak into event order. Keep it that
//! way: if a map needs deterministic iteration, use `BTreeMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (FxHash family). Not DoS-resistant; do not use
/// for keys an adversary controls.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so sequential keys spread across buckets.
        let h = self.hash ^ (self.hash >> 32);
        h.wrapping_mul(K)
    }
}

pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed by trusted simulation ids with the fast hasher.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` companion to [`FastHashMap`].
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips() {
        let mut m: FastHashMap<(u32, u32), u64> = FastHashMap::default();
        for a in 0..50u32 {
            for b in 0..50u32 {
                m.insert((a, b), u64::from(a * 1000 + b));
            }
        }
        assert_eq!(m.len(), 2500);
        for a in 0..50u32 {
            for b in 0..50u32 {
                assert_eq!(m.get(&(a, b)), Some(&u64::from(a * 1000 + b)));
            }
        }
    }

    #[test]
    fn sequential_keys_spread() {
        // Adjacent integers must not collapse onto one bucket chain: the
        // low 7 bits of the finished hash should take many values.
        let mut low_bits = std::collections::BTreeSet::new();
        for k in 0..128u64 {
            let mut h = FastHasher::default();
            h.write_u64(k);
            low_bits.insert(h.finish() & 0x7f);
        }
        assert!(low_bits.len() > 64, "only {} distinct buckets", low_bits.len());
    }
}
