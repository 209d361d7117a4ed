//! Identifier newtypes shared across the NIC crate.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A node (host) identity on the fabric, equal to its rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Queue-pair number, unique per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

/// Protection-domain identity, unique per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdId(pub u32);

/// Remote access key for a registered memory region. Handing the rkey to
/// a peer is what grants it RDMA access, exactly as on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rkey(pub u64);

/// A remote buffer coordinate: the target node, the rkey naming one of
/// its memory regions, and an offset within that region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteAddr {
    pub node: NodeId,
    pub rkey: Rkey,
    pub offset: usize,
}

/// Process-wide key generator. Keys are never reused, so a stale rkey
/// from a deregistered MR can be detected rather than silently aliasing.
pub(crate) struct KeyGen {
    next: AtomicU64,
}

impl KeyGen {
    pub(crate) const fn new() -> Self {
        KeyGen {
            next: AtomicU64::new(1),
        }
    }

    pub(crate) fn next_rkey(&self) -> Rkey {
        Rkey(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

pub(crate) static KEYS: KeyGen = KeyGen::new();

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for QpNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique() {
        assert_ne!(KEYS.next_rkey(), KEYS.next_rkey());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(QpNum(7).to_string(), "qp7");
    }
}
