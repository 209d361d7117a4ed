//! Protection domains and registered memory regions.
//!
//! A [`MemoryRegion`] is the unit of DMA-able memory: library-allocated,
//! "pinned" (it never moves — the storage lives behind an `Arc`), and
//! named by an lkey (local work requests) and an rkey (remote RDMA
//! access). Handing an rkey to a peer grants that peer access, exactly as
//! on real RDMA hardware.
//!
//! # Safety contract
//!
//! Real RDMA hardware writes application memory asynchronously; the
//! program must not touch a buffer between posting a work request that
//! uses it and reaping the corresponding completion. The virtual NIC has
//! the same contract: [`MemoryRegion::as_slice`]/[`as_mut_slice`] are
//! `unsafe fn`s whose caller asserts no DMA targeting the region is in
//! flight. The safe `read_at`/`write_at` accessors carry the same
//! contract in their documentation; violating it is a data race in the
//! application, just as it would be under ibverbs. Completion delivery
//! goes through a mutex-protected queue, which establishes the
//! happens-before edge that makes post → complete → access well defined.

use crate::error::{NicError, Result};
use crate::types::{Lkey, NodeId, PdId, Rkey, KEYS};
use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex};

/// A protection domain: memory regions and queue pairs must share one for
/// work requests to be authorized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionDomain {
    pub node: NodeId,
    pub id: PdId,
}

pub(crate) struct MrStorage {
    data: UnsafeCell<Box<[u8]>>,
    len: usize,
}

// SAFETY: concurrent access is governed by the RDMA ownership contract
// documented above; all cross-thread hand-offs go through locked queues.
unsafe impl Sync for MrStorage {}
unsafe impl Send for MrStorage {}

pub(crate) struct MrInner {
    pub(crate) storage: MrStorage,
    pub(crate) lkey: Lkey,
    pub(crate) rkey: Rkey,
    pub(crate) pd: ProtectionDomain,
    /// Serializes remote atomic operations on this region.
    pub(crate) atomic_lock: Mutex<()>,
}

impl MrInner {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.storage.len
    }

    #[inline]
    pub(crate) fn ptr(&self) -> *mut u8 {
        // SAFETY: the box never moves while the Arc is alive.
        unsafe { (*self.storage.data.get()).as_mut_ptr() }
    }

    pub(crate) fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            Err(NicError::OutOfBounds {
                offset,
                len,
                mr_len: self.len(),
            })
        } else {
            Ok(())
        }
    }
}

/// A registered, pinned, DMA-able memory region.
#[derive(Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Arc<MrInner>,
}

impl MemoryRegion {
    pub(crate) fn allocate(pd: ProtectionDomain, len: usize) -> Self {
        let (lkey, rkey) = KEYS.next_pair();
        MemoryRegion {
            inner: Arc::new(MrInner {
                storage: MrStorage {
                    data: UnsafeCell::new(vec![0u8; len].into_boxed_slice()),
                    len,
                },
                lkey,
                rkey,
                pd,
                atomic_lock: Mutex::new(()),
            }),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn lkey(&self) -> Lkey {
        self.inner.lkey
    }

    /// The remote key. Sharing this value with a peer grants it RDMA
    /// access to the region.
    pub fn rkey(&self) -> Rkey {
        self.inner.rkey
    }

    pub fn pd(&self) -> ProtectionDomain {
        self.inner.pd
    }

    /// Copy `src` into the region at `offset`.
    ///
    /// Must not be called while a posted work request targets the
    /// overlapping range (the RDMA ownership contract).
    pub fn write_at(&self, offset: usize, src: &[u8]) -> Result<()> {
        self.inner.check_bounds(offset, src.len())?;
        // SAFETY: bounds checked; exclusivity per the ownership contract.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.inner.ptr().add(offset), src.len());
        }
        Ok(())
    }

    /// Copy from the region at `offset` into `dst`.
    pub fn read_at(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        self.inner.check_bounds(offset, dst.len())?;
        // SAFETY: bounds checked; exclusivity per the ownership contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.inner.ptr().add(offset), dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Copy out a range as a fresh vector (convenience for tests).
    pub fn to_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read_at(offset, &mut v)?;
        Ok(v)
    }

    /// Borrow the whole region as a slice without copying.
    ///
    /// # Safety
    /// The caller asserts that no in-flight work request (local or remote
    /// RDMA) may write the region for the lifetime of the returned slice.
    pub unsafe fn as_slice(&self) -> &[u8] {
        std::slice::from_raw_parts(self.inner.ptr(), self.len())
    }

    /// Borrow the whole region mutably without copying.
    ///
    /// # Safety
    /// The caller asserts that no in-flight work request may access the
    /// region, and that no other slice borrow is live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice(&self) -> &mut [u8] {
        std::slice::from_raw_parts_mut(self.inner.ptr(), self.len())
    }
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("len", &self.len())
            .field("lkey", &self.lkey())
            .field("rkey", &self.rkey())
            .field("pd", &self.inner.pd.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pd() -> ProtectionDomain {
        ProtectionDomain {
            node: NodeId(0),
            id: PdId(0),
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mr = MemoryRegion::allocate(pd(), 64);
        mr.write_at(10, b"hello").unwrap();
        assert_eq!(mr.to_vec(10, 5).unwrap(), b"hello");
        // Unwritten bytes are zeroed.
        assert_eq!(mr.to_vec(0, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mr = MemoryRegion::allocate(pd(), 16);
        assert!(mr.write_at(10, &[0u8; 7]).is_err());
        assert!(mr.write_at(16, &[0u8; 1]).is_err());
        assert!(mr.write_at(usize::MAX, &[0u8; 1]).is_err());
        let mut buf = [0u8; 17];
        assert!(mr.read_at(0, &mut buf).is_err());
        // Exactly at the end is fine.
        assert!(mr.write_at(15, &[1]).is_ok());
        assert!(mr.write_at(16, &[]).is_ok());
    }

    #[test]
    fn keys_are_distinct_per_region() {
        let a = MemoryRegion::allocate(pd(), 8);
        let b = MemoryRegion::allocate(pd(), 8);
        assert_ne!(a.lkey(), b.lkey());
        assert_ne!(a.rkey(), b.rkey());
    }

    #[test]
    fn zero_length_region() {
        let mr = MemoryRegion::allocate(pd(), 0);
        assert!(mr.is_empty());
        assert!(mr.write_at(0, &[]).is_ok());
        assert!(mr.write_at(0, &[1]).is_err());
    }

    #[test]
    fn unsafe_slices_see_writes() {
        let mr = MemoryRegion::allocate(pd(), 4);
        mr.write_at(0, &[1, 2, 3, 4]).unwrap();
        // SAFETY: no work requests exist in this test.
        unsafe {
            assert_eq!(mr.as_slice(), &[1, 2, 3, 4]);
            mr.as_mut_slice()[0] = 9;
        }
        assert_eq!(mr.to_vec(0, 1).unwrap(), vec![9]);
    }
}
