//! Broadcast.
//!
//! MPI semantics: every rank passes a buffer of the same length; the
//! root's contents end up everywhere.

use crate::comm::{Comm, COLL_TAG_BASE};

const TAG: u64 = COLL_TAG_BASE + 2;
const TAG_SC: u64 = COLL_TAG_BASE + 3;
const TAG_AG: u64 = COLL_TAG_BASE + 4;

/// Split `total` bytes into `p` near-equal chunks; returns chunk `i`'s
/// (start, len). The first `total % p` chunks get one extra byte.
pub(crate) fn chunk_range(total: usize, p: u32, i: u32) -> (usize, usize) {
    let p = p as usize;
    let i = i as usize;
    let base = total / p;
    let extra = total % p;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, len)
}

/// Binomial-tree broadcast: ⌈log₂ p⌉ rounds, each round doubling the set
/// of ranks holding the data. Latency-optimal for small payloads.
pub fn bcast_binomial<C: Comm>(comm: &mut C, root: u32, data: &mut [u8]) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let rel = (rank + p - root) % p;
    // Receive phase: the lowest set bit of `rel` names the parent.
    let mut mask = 1u32;
    while mask < p {
        if rel & mask != 0 {
            let parent = ((rel - mask) + root) % p;
            let got = comm.recv_bytes(parent, TAG, data.len());
            data.copy_from_slice(&got);
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children at decreasing bit positions.
    mask >>= 1;
    while mask > 0 {
        if rel & mask == 0 && rel + mask < p {
            let child = ((rel + mask) + root) % p;
            comm.send_bytes(child, TAG, data);
        }
        mask >>= 1;
    }
}

/// Van de Geijn broadcast for large payloads: the root scatters p chunks
/// down a binomial pattern (linear here — the scatter is not the
/// bottleneck), then a ring allgather reassembles them everywhere.
/// Bandwidth-optimal: each rank moves ~2·n·(p-1)/p bytes instead of the
/// tree's n·log p at the root.
fn bcast_scatter_allgather<C: Comm>(comm: &mut C, root: u32, data: &mut [u8]) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let rel = (rank + p - root) % p;
    let n = data.len();
    // Scatter: relative rank i receives chunk i.
    if rank == root {
        for i in 1..p {
            let dst = (root + i) % p;
            let (start, len) = chunk_range(n, p, i);
            comm.send_bytes(dst, TAG_SC, &data[start..start + len]);
        }
    } else {
        let (start, len) = chunk_range(n, p, rel);
        let got = comm.recv_bytes(root, TAG_SC, len);
        data[start..start + len].copy_from_slice(&got);
    }
    // Ring allgather of the p chunks: in step s, pass along the chunk
    // received in step s-1 (starting with your own).
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let mut have = rel;
    for _ in 0..p - 1 {
        let (s_start, s_len) = chunk_range(n, p, have);
        let incoming = (have + p - 1) % p;
        let (r_start, r_len) = chunk_range(n, p, incoming);
        let sbuf = data[s_start..s_start + s_len].to_vec();
        let got = comm.sendrecv_bytes(next, &sbuf, prev, TAG_AG, r_len);
        data[r_start..r_start + r_len].copy_from_slice(&got);
        have = incoming;
    }
}

/// Broadcast algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    Binomial,
    ScatterAllgather,
}

pub fn bcast_with<C: Comm>(comm: &mut C, algo: BcastAlgo, root: u32, data: &mut [u8]) {
    match algo {
        BcastAlgo::Binomial => bcast_binomial(comm, root, data),
        BcastAlgo::ScatterAllgather => bcast_scatter_allgather(comm, root, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    fn check_bcast(algo: BcastAlgo, p: u32, root: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let mut data = vec![0u8; n];
            if ep.rank() == root {
                for (i, b) in data.iter_mut().enumerate() {
                    *b = (i * 13 + 5) as u8;
                }
            }
            bcast_with(&mut ep, algo, root, &mut data);
            data
        });
        let expect: Vec<u8> = (0..n).map(|i| (i * 13 + 5) as u8).collect();
        for (r, d) in out.iter().enumerate() {
            assert_eq!(d, &expect, "rank {r} wrong under {algo:?} p={p} root={root}");
        }
    }

    #[test]
    fn binomial_various_shapes() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in [0, p - 1] {
                check_bcast(BcastAlgo::Binomial, p, root, 1000);
            }
        }
    }

    #[test]
    fn binomial_nonzero_root_middle() {
        check_bcast(BcastAlgo::Binomial, 6, 2, 100);
    }

    #[test]
    fn scatter_allgather_various_shapes() {
        for p in [2, 3, 4, 5, 8] {
            check_bcast(BcastAlgo::ScatterAllgather, p, 0, 10_000);
        }
    }

    #[test]
    fn scatter_allgather_nonzero_root_and_ragged_size() {
        // 10_007 is prime: chunks are uneven on every p.
        check_bcast(BcastAlgo::ScatterAllgather, 4, 3, 10_007);
        check_bcast(BcastAlgo::ScatterAllgather, 5, 2, 10_007);
    }

    #[test]
    fn tiny_payload_smaller_than_ranks() {
        check_bcast(BcastAlgo::ScatterAllgather, 8, 0, 3);
    }

    #[test]
    fn empty_broadcast_is_fine() {
        check_bcast(BcastAlgo::Binomial, 4, 0, 0);
        check_bcast(BcastAlgo::ScatterAllgather, 4, 0, 0);
    }

    #[test]
    fn large_broadcast_uses_rendezvous_cleanly() {
        check_bcast(BcastAlgo::Binomial, 3, 0, 200_000);
        check_bcast(BcastAlgo::ScatterAllgather, 3, 0, 200_000);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for total in [0usize, 1, 7, 100, 10_007] {
            for p in [1u32, 2, 3, 5, 8] {
                let mut covered = 0;
                for i in 0..p {
                    let (start, len) = chunk_range(total, p, i);
                    assert_eq!(start, covered);
                    covered += len;
                }
                assert_eq!(covered, total);
            }
        }
    }
}
