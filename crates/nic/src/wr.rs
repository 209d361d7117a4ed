//! Work requests: what applications post to queue pairs.

use crate::mr::MemoryRegion;
use crate::types::RemoteAddr;

/// A scatter/gather element: a range within a registered region.
#[derive(Debug, Clone)]
pub struct Sge {
    pub mr: MemoryRegion,
    pub offset: usize,
    pub len: usize,
}

impl Sge {
    /// The whole region as one element.
    pub fn whole(mr: &MemoryRegion) -> Self {
        Sge {
            mr: mr.clone(),
            offset: 0,
            len: mr.len(),
        }
    }
}

/// Total byte length of a gather list.
pub(crate) fn sge_len(sges: &[Sge]) -> usize {
    sges.iter().map(|s| s.len).sum()
}

/// Inline capacity of [`SgeList`]: almost every work request carries one
/// element (a bounce slot or a whole user buffer), and a header+payload
/// gather carries two. Longer lists (noncontiguous layouts) spill.
const SGE_INLINE: usize = 2;

/// A gather/scatter list that stores up to two elements inline,
/// spilling to the heap only beyond that. Posting a one- or
/// two-element work request therefore allocates nothing, which is what
/// keeps the eager fast path heap-free.
///
/// Invariant: when `len <= SGE_INLINE`, the first `len` inline slots are
/// initialized and `spill` is empty; when `len > SGE_INLINE`, every
/// element lives in `spill` (the inline slots were moved out and must
/// not be dropped).
pub struct SgeList {
    inline: [std::mem::MaybeUninit<Sge>; SGE_INLINE],
    spill: Vec<Sge>,
    len: usize,
}

impl SgeList {
    pub const fn new() -> Self {
        SgeList {
            inline: [
                std::mem::MaybeUninit::uninit(),
                std::mem::MaybeUninit::uninit(),
            ],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// The common case: a single-element list, built without touching
    /// the heap.
    pub fn single(sge: Sge) -> Self {
        let mut l = SgeList::new();
        l.push(sge);
        l
    }

    pub fn push(&mut self, sge: Sge) {
        if self.len < SGE_INLINE {
            self.inline[self.len].write(sge);
            self.len += 1;
            return;
        }
        if self.len == SGE_INLINE {
            self.spill.reserve(SGE_INLINE + 1);
            for slot in &self.inline {
                // SAFETY: all inline slots are initialized here; they are
                // moved into the spill vector and, because `len` only ever
                // grows, never read or dropped from the inline storage
                // again.
                self.spill.push(unsafe { slot.assume_init_read() });
            }
        }
        self.spill.push(sge);
        self.len += 1;
    }
}

impl Drop for SgeList {
    fn drop(&mut self) {
        if self.len <= SGE_INLINE {
            for slot in &mut self.inline[..self.len] {
                // SAFETY: per the invariant these slots are initialized.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

impl Default for SgeList {
    fn default() -> Self {
        SgeList::new()
    }
}

impl Clone for SgeList {
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl std::ops::Deref for SgeList {
    type Target = [Sge];
    fn deref(&self) -> &[Sge] {
        if self.len <= SGE_INLINE {
            // SAFETY: per the invariant, the first `len` inline slots are
            // initialized, and MaybeUninit<Sge> has the layout of Sge.
            unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr() as *const Sge, self.len)
            }
        } else {
            &self.spill
        }
    }
}

impl std::fmt::Debug for SgeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Sge>> for SgeList {
    fn from(v: Vec<Sge>) -> Self {
        v.into_iter().collect()
    }
}

impl FromIterator<Sge> for SgeList {
    fn from_iter<I: IntoIterator<Item = Sge>>(iter: I) -> Self {
        let mut l = SgeList::new();
        for s in iter {
            l.push(s);
        }
        l
    }
}

impl<'a> IntoIterator for &'a SgeList {
    type Item = &'a Sge;
    type IntoIter = std::slice::Iter<'a, Sge>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Build an [`SgeList`] from element expressions, like `vec!` but
/// inline-first.
#[macro_export]
macro_rules! sge_list {
    ($($sge:expr),* $(,)?) => {{
        let mut list = $crate::wr::SgeList::new();
        $(list.push($sge);)*
        list
    }};
}

/// A send-queue work request.
#[derive(Debug, Clone)]
pub enum SendWr {
    /// Two-sided send; consumes a posted receive at the peer. `imm`
    /// travels in the completion the peer reaps.
    Send {
        wr_id: u64,
        sges: SgeList,
        imm: Option<u32>,
    },
    /// One-sided RDMA write into the peer's memory; the peer's CPU is not
    /// involved and sees no completion.
    RdmaWrite {
        wr_id: u64,
        sges: SgeList,
        remote: RemoteAddr,
    },
    /// One-sided RDMA read from the peer's memory into local regions.
    RdmaRead {
        wr_id: u64,
        sges: SgeList,
        remote: RemoteAddr,
    },
}

impl SendWr {
    pub(crate) fn wr_id(&self) -> u64 {
        match self {
            SendWr::Send { wr_id, .. }
            | SendWr::RdmaWrite { wr_id, .. }
            | SendWr::RdmaRead { wr_id, .. } => *wr_id,
        }
    }

    /// The local gather (send, write) or scatter (read) list.
    pub(crate) fn sges(&self) -> &SgeList {
        match self {
            SendWr::Send { sges, .. }
            | SendWr::RdmaWrite { sges, .. }
            | SendWr::RdmaRead { sges, .. } => sges,
        }
    }
}

/// A receive-queue work request: scatter targets for an inbound send.
#[derive(Debug, Clone)]
pub struct RecvWr {
    pub wr_id: u64,
    pub sges: SgeList,
}

impl RecvWr {
    pub fn new(wr_id: u64, sges: impl Into<SgeList>) -> Self {
        RecvWr {
            wr_id,
            sges: sges.into(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        sge_len(&self.sges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{MemoryRegion, ProtectionDomain};
    use crate::types::{NodeId, PdId};

    fn mr(len: usize) -> MemoryRegion {
        MemoryRegion::allocate(
            ProtectionDomain {
                node: NodeId(0),
                id: PdId(0),
            },
            len,
        )
    }

    fn sge(mr: &MemoryRegion, offset: usize, len: usize) -> Sge {
        Sge {
            mr: mr.clone(),
            offset,
            len,
        }
    }

    #[test]
    fn sge_helpers() {
        let m = mr(100);
        let s = Sge::whole(&m);
        assert_eq!(s.len, 100);
        assert_eq!(sge_len(&[sge(&m, 0, 10), sge(&m, 50, 20)]), 30);
    }

    #[test]
    fn wr_accessors() {
        let m = mr(64);
        let wr = SendWr::Send {
            wr_id: 42,
            sges: crate::sge_list![Sge::whole(&m)],
            imm: Some(7),
        };
        assert_eq!(wr.wr_id(), 42);
        assert_eq!(sge_len(wr.sges()), 64);
    }

    #[test]
    fn sge_list_stays_inline_up_to_cap() {
        let m = mr(64);
        let mut l = SgeList::new();
        assert!(l.is_empty());
        l.push(sge(&m, 0, 8));
        l.push(sge(&m, 8, 8));
        assert_eq!(l.len(), 2);
        assert!(l.spill.is_empty());
        assert_eq!(sge_len(&l), 16);
        assert_eq!(l[1].offset, 8);
    }

    #[test]
    fn sge_list_spills_beyond_cap_and_keeps_order() {
        let m = mr(64);
        let mut l = SgeList::new();
        for i in 0..5 {
            l.push(sge(&m, i * 4, 4));
        }
        assert_eq!(l.len(), 5);
        assert_eq!(l.spill.len(), 5);
        let offsets: Vec<usize> = l.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, [0, 4, 8, 12, 16]);
        let c = l.clone();
        assert_eq!(c.len(), 5);
        assert_eq!(c[4].offset, 16);
    }

    #[test]
    fn sge_list_drops_inline_elements_exactly_once() {
        // Sge holds an Arc'd region: the strong count tracks clones, so
        // a double-drop or leak in the inline storage shows up here.
        let m = mr(64);
        let base = std::sync::Arc::strong_count(&m.inner);
        {
            let mut l = SgeList::new();
            l.push(Sge::whole(&m));
            l.push(Sge::whole(&m));
            assert_eq!(std::sync::Arc::strong_count(&m.inner), base + 2);
        }
        assert_eq!(std::sync::Arc::strong_count(&m.inner), base);
        {
            let mut l = SgeList::new();
            for _ in 0..4 {
                l.push(Sge::whole(&m)); // spills at the third push
            }
            assert_eq!(std::sync::Arc::strong_count(&m.inner), base + 4);
        }
        assert_eq!(std::sync::Arc::strong_count(&m.inner), base);
    }

    #[test]
    fn sge_list_macro_and_from_vec() {
        let m = mr(32);
        let l = crate::sge_list![sge(&m, 0, 16), sge(&m, 16, 16)];
        assert_eq!(l.len(), 2);
        let v: SgeList = vec![Sge::whole(&m)].into();
        assert_eq!(v.len(), 1);
        assert_eq!(sge_len(&v), 32);
    }

    #[test]
    fn recv_capacity_sums_sges() {
        let m = mr(128);
        let r = RecvWr::new(3, vec![sge(&m, 0, 64), sge(&m, 64, 64)]);
        assert_eq!(r.capacity(), 128);
        assert_eq!(r.wr_id, 3);
    }
}
