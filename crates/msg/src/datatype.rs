//! Noncontiguous data layouts.
//!
//! Scientific workloads send strided and indexed data (matrix columns,
//! halo faces, particle subsets). A [`Layout`] describes which byte
//! ranges of a buffer participate in a message. Two strategies exist:
//! *pack/unpack* (copy through a contiguous staging buffer — one extra
//! host copy per side) and *direct scatter/gather* (hand the block list
//! to the NIC as SGEs — no extra copy). The endpoint supports both; the
//! A4 ablation (`figures -- ablations`) measures the difference.

/// A byte-granularity data layout within a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// One contiguous run starting at offset 0.
    Contiguous { len: usize },
    /// `count` blocks of `block_len` bytes, each `stride` bytes apart
    /// (stride measured start-to-start), starting at `offset`.
    Strided {
        offset: usize,
        count: usize,
        block_len: usize,
        stride: usize,
    },
    /// Explicit (offset, len) blocks, in transfer order.
    Indexed { blocks: Vec<(usize, usize)> },
}

impl Layout {
    /// Total payload bytes the layout describes.
    pub fn total_len(&self) -> usize {
        match self {
            Layout::Contiguous { len } => *len,
            Layout::Strided {
                count, block_len, ..
            } => count * block_len,
            Layout::Indexed { blocks } => blocks.iter().map(|&(_, l)| l).sum(),
        }
    }

    /// The blocks as (offset, len) pairs in transfer order.
    pub fn blocks(&self) -> Vec<(usize, usize)> {
        match self {
            Layout::Contiguous { len } => {
                if *len == 0 {
                    vec![]
                } else {
                    vec![(0, *len)]
                }
            }
            Layout::Strided {
                offset,
                count,
                block_len,
                stride,
            } => (0..*count)
                .map(|i| (offset + i * stride, *block_len))
                .collect(),
            Layout::Indexed { blocks } => blocks.clone(),
        }
    }

    /// Check the layout fits within a buffer of `buf_len` bytes and its
    /// blocks do not overlap (overlap would make unpacking ill-defined).
    pub fn validate(&self, buf_len: usize) -> Result<(), String> {
        let mut blocks = self.blocks();
        for &(off, len) in &blocks {
            let end = off.checked_add(len).ok_or("offset overflow")?;
            if end > buf_len {
                return Err(format!(
                    "block [{off}, {end}) exceeds buffer of {buf_len} bytes"
                ));
            }
        }
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            let (a_off, a_len) = w[0];
            let (b_off, _) = w[1];
            if a_off + a_len > b_off {
                return Err(format!("blocks overlap at offset {b_off}"));
            }
        }
        Ok(())
    }

    /// Gather the layout's bytes from `src` into a contiguous vector.
    pub fn pack(&self, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for (off, len) in self.blocks() {
            out.extend_from_slice(&src[off..off + len]);
        }
        out
    }

    /// Scatter contiguous `data` into `dst` per the layout. `data` must
    /// be exactly `total_len` bytes.
    pub fn unpack(&self, data: &[u8], dst: &mut [u8]) {
        assert_eq!(data.len(), self.total_len(), "packed size mismatch");
        let mut pos = 0;
        for (off, len) in self.blocks() {
            dst[off..off + len].copy_from_slice(&data[pos..pos + len]);
            pos += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_one_block() {
        let l = Layout::Contiguous { len: 10 };
        assert_eq!(l.total_len(), 10);
        assert_eq!(l.blocks(), vec![(0, 10)]);
        assert!(Layout::Contiguous { len: 0 }.blocks().is_empty());
    }

    #[test]
    fn strided_blocks_are_regular() {
        let l = Layout::Strided {
            offset: 4,
            count: 3,
            block_len: 2,
            stride: 8,
        };
        assert_eq!(l.total_len(), 6);
        assert_eq!(l.blocks(), vec![(4, 2), (12, 2), (20, 2)]);
    }

    #[test]
    fn pack_unpack_roundtrip_strided() {
        let src: Vec<u8> = (0..32).collect();
        let l = Layout::Strided {
            offset: 1,
            count: 4,
            block_len: 3,
            stride: 8,
        };
        let packed = l.pack(&src);
        assert_eq!(packed, vec![1, 2, 3, 9, 10, 11, 17, 18, 19, 25, 26, 27]);
        let mut dst = vec![0u8; 32];
        l.unpack(&packed, &mut dst);
        for (off, len) in l.blocks() {
            assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
        // Bytes outside the layout were not touched.
        assert_eq!(dst[0], 0);
        assert_eq!(dst[4], 0);
    }

    #[test]
    fn indexed_preserves_transfer_order() {
        let src: Vec<u8> = (0..16).collect();
        let l = Layout::Indexed {
            blocks: vec![(8, 2), (0, 2)], // reversed order on purpose
        };
        assert_eq!(l.pack(&src), vec![8, 9, 0, 1]);
        let mut dst = vec![0u8; 16];
        l.unpack(&[100, 101, 102, 103], &mut dst);
        assert_eq!(dst[8], 100);
        assert_eq!(dst[9], 101);
        assert_eq!(dst[0], 102);
        assert_eq!(dst[1], 103);
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let l = Layout::Strided {
            offset: 0,
            count: 4,
            block_len: 4,
            stride: 8,
        };
        assert!(l.validate(28).is_ok());
        assert!(l.validate(27).is_err());
        assert!(Layout::Indexed {
            blocks: vec![(usize::MAX, 2)]
        }
        .validate(100)
        .is_err());
    }

    #[test]
    fn validate_rejects_overlap() {
        let l = Layout::Indexed {
            blocks: vec![(0, 8), (4, 4)],
        };
        assert!(l.validate(64).is_err());
        let l = Layout::Strided {
            offset: 0,
            count: 2,
            block_len: 8,
            stride: 4, // stride < block_len overlaps
        };
        assert!(l.validate(64).is_err());
    }

    #[test]
    fn empty_layouts_are_fine() {
        let l = Layout::Indexed { blocks: vec![] };
        assert_eq!(l.total_len(), 0);
        assert!(l.validate(0).is_ok());
        assert_eq!(l.pack(&[]), Vec::<u8>::new());
    }
}
