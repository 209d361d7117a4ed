//! Registered message buffers and the registration-cache buffer pool.
//!
//! Zero-copy transfer requires both endpoints of a message to live in
//! registered (pinned) memory, so the messaging API deals in [`MsgBuf`]s:
//! library-owned registered buffers. Ownership models the RDMA contract
//! in the type system — `send`/`recv` *consume* the buffer and completion
//! hands it back, so a buffer can never be touched while the NIC may be
//! reading or writing it. That is what makes `as_slice`/`as_mut_slice`
//! safe here even though the underlying region APIs are `unsafe`.
//!
//! [`BufferPool`] is the registration cache: registration is expensive on
//! real hardware (page pinning), so freed buffers are kept and reused by
//! size class instead of being deregistered. Ablation A1
//! (`figures -- ablations`) measures the difference.

use polaris_nic::prelude::{MemoryRegion, Nic, NicResult, ProtectionDomain, Rkey};
use std::collections::BTreeMap;

/// A registered message buffer with a logical length within a (possibly
/// larger) registered capacity.
pub struct MsgBuf {
    mr: MemoryRegion,
    len: usize,
}

impl MsgBuf {
    pub(crate) fn from_region(mr: MemoryRegion, len: usize) -> Self {
        debug_assert!(len <= mr.len());
        MsgBuf { mr, len }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registered capacity (may exceed the logical length when the buffer
    /// came from the pool).
    pub fn capacity(&self) -> usize {
        self.mr.len()
    }

    /// Adjust the logical length (e.g. before sending a partial buffer).
    /// Panics if `len` exceeds capacity.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity(), "len {len} > capacity {}", self.capacity());
        self.len = len;
    }

    /// View the logical contents.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the buffer is exclusively owned — any in-flight
        // operation holds the MsgBuf itself, so no DMA can target it
        // while a borrow from `&self` is live.
        unsafe { &self.mr.as_slice()[..self.len] }
    }

    /// Mutate the logical contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, plus `&mut self` excludes other borrows.
        unsafe { &mut self.mr.as_mut_slice()[..self.len] }
    }

    /// Copy `data` into the start of the buffer and set the length to
    /// match. Panics if it does not fit.
    pub fn fill_from(&mut self, data: &[u8]) {
        assert!(data.len() <= self.capacity());
        self.len = data.len();
        self.mr.write_at(0, data).expect("bounds checked");
    }

    /// Copy the logical contents out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    pub(crate) fn region(&self) -> &MemoryRegion {
        &self.mr
    }

    pub(crate) fn rkey(&self) -> Rkey {
        self.mr.rkey()
    }
}

impl std::fmt::Debug for MsgBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgBuf")
            .field("len", &self.len)
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Pool statistics for the registration-cache ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations satisfied by reusing a cached registration.
    pub hits: u64,
    /// Allocations that had to register fresh memory.
    pub misses: u64,
    /// Cached registrations evicted due to capacity pressure.
    pub evictions: u64,
}

/// A registration cache: freed buffers are binned by power-of-two size
/// class and reused, avoiding repeated registration cost.
pub struct BufferPool {
    nic: Nic,
    pd: ProtectionDomain,
    /// size class (log2 of capacity) -> cached regions.
    free: BTreeMap<u32, Vec<MemoryRegion>>,
    capacity: usize,
    cached: usize,
    stats: PoolStats,
}

fn size_class(len: usize) -> u32 {
    // Round up to the next power of two, minimum 64 bytes.
    let len = len.max(64);
    usize::BITS - (len - 1).leading_zeros()
}

impl BufferPool {
    /// `capacity` is the maximum number of cached buffers; zero disables
    /// caching entirely.
    pub fn new(nic: Nic, pd: ProtectionDomain, capacity: usize) -> Self {
        BufferPool {
            nic,
            pd,
            free: BTreeMap::new(),
            capacity,
            cached: 0,
            stats: PoolStats::default(),
        }
    }

    /// Get a registered buffer of at least `len` bytes with logical
    /// length `len`.
    pub fn alloc(&mut self, len: usize) -> NicResult<MsgBuf> {
        let class = size_class(len);
        if let Some(list) = self.free.get_mut(&class) {
            if let Some(mr) = list.pop() {
                self.cached -= 1;
                self.stats.hits += 1;
                return Ok(MsgBuf::from_region(mr, len));
            }
        }
        self.stats.misses += 1;
        let mr = self.nic.register(self.pd, 1usize << class)?;
        Ok(MsgBuf::from_region(mr, len))
    }

    /// Return a buffer to the cache (or deregister it if the cache is
    /// full or disabled).
    pub fn free(&mut self, buf: MsgBuf) {
        if self.capacity == 0 || self.cached >= self.capacity {
            self.nic.deregister(&buf.mr);
            if self.capacity != 0 {
                self.stats.evictions += 1;
            }
            return;
        }
        let class = size_class(buf.capacity());
        debug_assert_eq!(1usize << class, buf.capacity());
        self.free.entry(class).or_default().push(buf.mr);
        self.cached += 1;
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn cached(&self) -> usize {
        self.cached
    }
}

/// Statistics for the wire-frame free list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FramePoolStats {
    /// Acquisitions satisfied by reusing a pooled vector.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh vector.
    pub misses: u64,
    /// Frames handed back via [`FramePool::release`] (counted even when
    /// the pool is full and the vector is dropped rather than retained).
    pub releases: u64,
}

impl FramePoolStats {
    /// Frames acquired and not yet released. The sentinel's conservation
    /// ledger asserts this reaches zero at endpoint quiescence — any
    /// residue is a leak through an error or cancellation path.
    pub fn outstanding(&self) -> u64 {
        (self.hits + self.misses).saturating_sub(self.releases)
    }
}

/// A free list of plain byte vectors reused for wire frames: reliable
/// eager frames on the TX side (built, retransmitted, released when
/// acknowledged) and bounce-buffer copies / parked unexpected payloads on
/// the RX side. In steady state every frame is recycled, so the eager
/// data path stops paying one heap allocation per message.
pub struct FramePool {
    free: Vec<Vec<u8>>,
    /// Maximum number of retained vectors; excess releases just drop.
    capacity: usize,
    stats: FramePoolStats,
}

impl FramePool {
    pub fn new(capacity: usize) -> Self {
        FramePool {
            free: Vec::with_capacity(capacity.min(1024)),
            capacity,
            stats: FramePoolStats::default(),
        }
    }

    /// Get an empty vector with at least `capacity` bytes of room.
    pub fn acquire(&mut self, capacity: usize) -> Vec<u8> {
        if let Some(mut v) = self.free.pop() {
            self.stats.hits += 1;
            v.clear();
            v.reserve(capacity);
            return v;
        }
        self.stats.misses += 1;
        Vec::with_capacity(capacity)
    }

    /// Return a vector for reuse. Dropped (not retained) once the pool
    /// holds `capacity` vectors; either way the release is counted, so
    /// `stats().outstanding()` tracks true frame custody.
    pub fn release(&mut self, frame: Vec<u8>) {
        self.stats.releases += 1;
        if self.free.len() < self.capacity && frame.capacity() > 0 {
            self.free.push(frame);
        }
    }

    pub fn stats(&self) -> FramePoolStats {
        self.stats
    }

    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_nic::prelude::Fabric;

    fn pool(capacity: usize) -> BufferPool {
        let fabric = Fabric::new();
        let nic = fabric.create_nic();
        let pd = nic.alloc_pd();
        // Leak the fabric so Weak upgrades keep working for the test.
        std::mem::forget(fabric);
        BufferPool::new(nic, pd, capacity)
    }

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(1), 6); // 64-byte minimum
        assert_eq!(size_class(64), 6);
        assert_eq!(size_class(65), 7);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(1025), 11);
    }

    #[test]
    fn msgbuf_basic_ops() {
        let mut p = pool(4);
        let mut b = p.alloc(100).unwrap();
        assert_eq!(b.len(), 100);
        assert_eq!(b.capacity(), 128);
        b.fill_from(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_slice(), b"hello");
        b.as_mut_slice()[0] = b'H';
        assert_eq!(b.to_vec(), b"Hello");
        b.set_len(128);
        assert_eq!(b.len(), 128);
    }

    #[test]
    #[should_panic(expected = "> capacity")]
    fn set_len_beyond_capacity_panics() {
        let mut p = pool(4);
        let mut b = p.alloc(10).unwrap();
        b.set_len(1000);
    }

    #[test]
    fn pool_reuses_registrations() {
        let mut p = pool(8);
        let b = p.alloc(1000).unwrap();
        p.free(b);
        let b2 = p.alloc(900).unwrap(); // same 1024 class
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        p.free(b2);
        // A different class misses.
        let b3 = p.alloc(5000).unwrap();
        assert_eq!(p.stats().misses, 2);
        p.free(b3);
        assert_eq!(p.cached(), 2);
    }

    #[test]
    fn zero_capacity_pool_never_caches() {
        let mut p = pool(0);
        let b = p.alloc(100).unwrap();
        p.free(b);
        let _b2 = p.alloc(100).unwrap();
        assert_eq!(p.stats().hits, 0);
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.cached(), 0);
    }

    #[test]
    fn frame_pool_recycles_vectors() {
        let mut p = FramePool::new(4);
        let f = p.acquire(128);
        assert!(f.capacity() >= 128);
        assert_eq!(p.stats().misses, 1);
        let ptr = f.as_ptr();
        p.release(f);
        assert_eq!(p.pooled(), 1);
        let f2 = p.acquire(64);
        assert_eq!(f2.as_ptr(), ptr, "same storage reused");
        assert!(f2.is_empty());
        assert_eq!(p.stats().hits, 1);
        p.release(f2);
    }

    #[test]
    fn frame_pool_capacity_bounds_retention() {
        let mut p = FramePool::new(1);
        p.release(Vec::with_capacity(8));
        p.release(Vec::with_capacity(8)); // beyond capacity: dropped
        assert_eq!(p.pooled(), 1);
        // Zero-capacity vectors are not worth retaining.
        let mut p2 = FramePool::new(4);
        p2.release(Vec::new());
        assert_eq!(p2.pooled(), 0);
    }

    #[test]
    fn full_pool_evicts() {
        let mut p = pool(1);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        p.free(a);
        p.free(b); // no room: evicted
        assert_eq!(p.cached(), 1);
        assert_eq!(p.stats().evictions, 1);
    }
}
