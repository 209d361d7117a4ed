//! Reduce-scatter: reduce a vector across ranks, leaving rank i with
//! chunk i of the result. Half of a ring allreduce, exposed standalone
//! because bandwidth-bound applications (gradient sharding, spectral
//! transposes) use it directly.

use crate::bcast::chunk_range;
use crate::comm::{Comm, COLL_TAG_BASE};
use crate::op::{from_bytes, reduce_into, to_bytes, Reducible, ReduceOp};

const TAG: u64 = COLL_TAG_BASE + 70;

/// Ring reduce-scatter over `data` (length n on every rank). Returns
/// this rank's fully reduced chunk (per `chunk_range` partitioning).
/// `data`'s contents are clobbered (used as workspace).
pub fn reduce_scatter_ring<C: Comm, T: Reducible>(
    comm: &mut C,
    op: ReduceOp,
    data: &mut [T],
) -> Vec<T> {
    let p = comm.size();
    let rank = comm.rank();
    let n = data.len();
    if p <= 1 {
        return data.to_vec();
    }
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let elem_chunk = |i: u32| {
        let (s, l) = chunk_range(n, p, i);
        s..s + l
    };
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        let sbuf = to_bytes(&data[elem_chunk(send_idx)]);
        let rlen = elem_chunk(recv_idx).len() * T::SIZE;
        let got: Vec<T> = from_bytes(&comm.sendrecv_bytes(next, &sbuf, prev, TAG, rlen));
        reduce_into(op, &mut data[elem_chunk(recv_idx)], &got);
    }
    // After p-1 steps this rank holds the complete reduction of chunk
    // (rank + 1) mod p... rotated; the canonical API gives rank its own
    // chunk, so finish with one neighbour shift.
    let have = (rank + 1) % p;
    let mine = elem_chunk(rank);
    if have == rank {
        return data[mine].to_vec();
    }
    let send = to_bytes(&data[elem_chunk(have)]);
    // The rank that holds *our* chunk is rank + 1 (it completed chunk
    // (rank+1)+1-1 ... by symmetry each rank r holds chunk (r+1)%p, so
    // chunk `rank` sits at rank `rank - 1`... verify: holder of chunk c
    // is rank (c + p - 1) % p. We hold chunk (rank+1): send it to its
    // owner (rank+1); receive ours from (rank-1).
    let to = have; // owner of the chunk we hold
    let from = (rank + p - 1) % p;
    let got = comm.sendrecv_bytes(to, &send, from, TAG + 1, mine.len() * T::SIZE);
    from_bytes(&got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    fn check(p: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let r = ep.rank() as u64;
            let mut data: Vec<u64> = (0..n as u64).map(|i| r * 7 + i).collect();
            let chunk = reduce_scatter_ring(&mut ep, ReduceOp::Sum, &mut data);
            (ep.rank(), chunk)
        });
        // Expected element i of the reduction: sum over r of (r*7 + i).
        let rank_sum: u64 = (0..p as u64).map(|r| r * 7).sum();
        for (rank, chunk) in out {
            let (start, len) = chunk_range(n, p, rank);
            assert_eq!(chunk.len(), len, "rank {rank} chunk length");
            for (j, v) in chunk.iter().enumerate() {
                let i = (start + j) as u64;
                assert_eq!(*v, rank_sum + i * p as u64, "rank {rank} elem {j}");
            }
        }
    }

    #[test]
    fn various_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            check(p, 64);
        }
    }

    #[test]
    fn ragged_chunks() {
        check(5, 13);
        check(8, 3);
        check(3, 0);
    }

    #[test]
    fn agrees_with_allreduce() {
        use crate::allreduce::allreduce_ring;
        let p = 4;
        let n = 32;
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let r = ep.rank() as u64;
            let mut a: Vec<u64> = (0..n as u64).map(|i| r ^ i).collect();
            let mut b = a.clone();
            let chunk = reduce_scatter_ring(&mut ep, ReduceOp::Sum, &mut a);
            allreduce_ring(&mut ep, ReduceOp::Sum, &mut b);
            let (start, len) = chunk_range(n, p, ep.rank());
            (chunk, b[start..start + len].to_vec())
        });
        for (rs, ar) in out {
            assert_eq!(rs, ar);
        }
    }
}
