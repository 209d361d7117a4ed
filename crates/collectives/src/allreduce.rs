//! Allreduce: every rank ends with the reduction of all contributions.
//!
//! Three algorithms with different (latency, bandwidth) trade-offs — the
//! comparison is experiment F3:
//!
//! * recursive doubling — log₂ p rounds of full-vector exchange: best
//!   latency for small vectors, n·log p bytes per rank.
//! * ring (reduce-scatter + allgather) — 2(p-1) rounds of n/p-sized
//!   chunks: bandwidth-optimal 2n·(p-1)/p bytes, best for large vectors.
//! * reduce + broadcast — the naive composite, kept as the baseline.

use crate::bcast::{bcast_binomial, chunk_range};
use crate::comm::{Comm, COLL_TAG_BASE};
use crate::op::{from_bytes, reduce_into, to_bytes, Reducible, ReduceOp};
use crate::reduce::reduce_binomial;

const TAG_RD: u64 = COLL_TAG_BASE + 6;
const TAG_FOLD: u64 = COLL_TAG_BASE + 7;
const TAG_RS: u64 = COLL_TAG_BASE + 8;
const TAG_AG: u64 = COLL_TAG_BASE + 9;

/// Recursive doubling with the standard non-power-of-two fold: the first
/// `2·rem` ranks pre-combine pairwise so a power-of-two subset runs the
/// doubling, then results fan back out.
fn allreduce_recursive_doubling<C: Comm, T: Reducible>(comm: &mut C, op: ReduceOp, data: &mut [T]) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let bytes = data.len() * T::SIZE;
    let p2 = if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() >> 1
    };
    let rem = p - p2;
    // Fold-in: ranks [0, 2*rem) pair up; evens hand their vector to the
    // odd neighbour and sit out the doubling.
    let newrank: Option<u32> = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.send_bytes(rank + 1, TAG_FOLD, &to_bytes(data));
            None
        } else {
            let got: Vec<T> = from_bytes(&comm.recv_bytes(rank - 1, TAG_FOLD, bytes));
            reduce_into(op, data, &got);
            Some(rank / 2)
        }
    } else {
        Some(rank - rem)
    };
    if let Some(nr) = newrank {
        let mut mask = 1u32;
        while mask < p2 {
            let peer_nr = nr ^ mask;
            // Map the peer's new rank back to a real rank.
            let peer = if peer_nr < rem { peer_nr * 2 + 1 } else { peer_nr + rem };
            let got: Vec<T> =
                from_bytes(&comm.sendrecv_bytes(peer, &to_bytes(data), peer, TAG_RD, bytes));
            reduce_into(op, data, &got);
            mask <<= 1;
        }
    }
    // Fold-out: odd ranks return the final vector to their even partner.
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            let got: Vec<T> = from_bytes(&comm.recv_bytes(rank + 1, TAG_FOLD, bytes));
            data.copy_from_slice(&got);
        } else {
            comm.send_bytes(rank - 1, TAG_FOLD, &to_bytes(data));
        }
    }
}

/// Ring allreduce: reduce-scatter then allgather, each p-1 steps of
/// n/p-byte chunks around the ring. Bandwidth-optimal.
pub fn allreduce_ring<C: Comm, T: Reducible>(comm: &mut C, op: ReduceOp, data: &mut [T]) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let n = data.len();
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let elem_chunk = |i: u32| {
        let (s, l) = chunk_range(n, p, i);
        s..s + l
    };
    // Reduce-scatter: after step s, rank holds the full reduction of
    // chunk (rank - s - 1); send the chunk you just finished reducing.
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        let sbuf = to_bytes(&data[elem_chunk(send_idx)]);
        let rlen = elem_chunk(recv_idx).len() * T::SIZE;
        let got: Vec<T> = from_bytes(&comm.sendrecv_bytes(next, &sbuf, prev, TAG_RS, rlen));
        reduce_into(op, &mut data[elem_chunk(recv_idx)], &got);
    }
    // Allgather: circulate the finished chunks.
    for s in 0..p - 1 {
        let send_idx = (rank + 1 + p - s) % p;
        let recv_idx = (rank + p - s) % p;
        let sbuf = to_bytes(&data[elem_chunk(send_idx)]);
        let rlen = elem_chunk(recv_idx).len() * T::SIZE;
        let got: Vec<T> = from_bytes(&comm.sendrecv_bytes(next, &sbuf, prev, TAG_AG, rlen));
        let range = elem_chunk(recv_idx);
        data[range].copy_from_slice(&got);
    }
}

/// The naive composite: binomial reduce to rank 0, binomial broadcast
/// back out. 2·log p latency and n·log p bandwidth at the root — the
/// baseline the dedicated algorithms beat.
fn allreduce_reduce_bcast<C: Comm, T: Reducible>(comm: &mut C, op: ReduceOp, data: &mut [T]) {
    reduce_binomial(comm, 0, op, data);
    let mut bytes = to_bytes(data);
    bcast_binomial(comm, 0, &mut bytes);
    let back: Vec<T> = from_bytes(&bytes);
    data.copy_from_slice(&back);
}

/// Allreduce algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    RecursiveDoubling,
    Ring,
    ReduceBcast,
}

pub fn allreduce_with<C: Comm, T: Reducible>(
    comm: &mut C,
    algo: AllreduceAlgo,
    op: ReduceOp,
    data: &mut [T],
) {
    match algo {
        AllreduceAlgo::RecursiveDoubling => allreduce_recursive_doubling(comm, op, data),
        AllreduceAlgo::Ring => allreduce_ring(comm, op, data),
        AllreduceAlgo::ReduceBcast => allreduce_reduce_bcast(comm, op, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    fn check_allreduce(algo: AllreduceAlgo, p: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let r = ep.rank() as u64;
            let mut data: Vec<u64> = (0..n as u64).map(|i| r + i * 3).collect();
            allreduce_with(&mut ep, algo, ReduceOp::Sum, &mut data);
            data
        });
        let rank_sum: u64 = (0..p as u64).sum();
        for (r, d) in out.iter().enumerate() {
            for (i, v) in d.iter().enumerate() {
                assert_eq!(
                    *v,
                    rank_sum + 3 * i as u64 * p as u64,
                    "rank {r} elem {i} under {algo:?} p={p}"
                );
            }
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for p in [1, 2, 4, 8] {
            check_allreduce(AllreduceAlgo::RecursiveDoubling, p, 33);
        }
    }

    #[test]
    fn recursive_doubling_non_power_of_two() {
        for p in [3, 5, 6, 7, 9] {
            check_allreduce(AllreduceAlgo::RecursiveDoubling, p, 33);
        }
    }

    #[test]
    fn ring_various_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            check_allreduce(AllreduceAlgo::Ring, p, 100);
        }
    }

    #[test]
    fn collective_host_copies_are_counted() {
        // 8 192 u64 over 2 ranks: two 32 KiB ring steps, each a sendrecv
        // that copies its chunk in and the peer's chunk out. At 32 KiB
        // the wire protocol is rendezvous and copies nothing itself, so
        // these are the communicator's own copies.
        let out = run_world(2, MsgConfig::default(), |mut ep| {
            let mut data = vec![1u64; 8192];
            allreduce_ring(&mut ep, ReduceOp::Sum, &mut data);
            assert!(data.iter().all(|&v| v == 2));
            ep.stats().host_copy_bytes
        });
        for (rank, bytes) in out.into_iter().enumerate() {
            assert!(bytes >= 2 * 2 * 32 * 1024, "rank {rank} counted {bytes} host-copy bytes");
        }
    }

    #[test]
    fn ring_vector_smaller_than_ranks() {
        check_allreduce(AllreduceAlgo::Ring, 8, 3);
        check_allreduce(AllreduceAlgo::Ring, 5, 0);
    }

    #[test]
    fn reduce_bcast_composite() {
        for p in [2, 3, 6] {
            check_allreduce(AllreduceAlgo::ReduceBcast, p, 50);
        }
    }

    #[test]
    fn all_algorithms_agree_on_floats() {
        for algo in [
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::ReduceBcast,
        ] {
            let out = run_world(4, MsgConfig::default(), move |mut ep| {
                let mut data = vec![(ep.rank() + 1) as f64; 8];
                allreduce_with(&mut ep, algo, ReduceOp::Sum, &mut data);
                data
            });
            for d in out {
                for v in d {
                    assert!((v - 10.0).abs() < 1e-12, "{algo:?} gave {v}");
                }
            }
        }
    }

    #[test]
    fn max_allreduce() {
        let out = run_world(5, MsgConfig::default(), |mut ep| {
            let mut data = vec![ep.rank() as i64 * 2];
            allreduce_with(&mut ep, AllreduceAlgo::RecursiveDoubling, ReduceOp::Max, &mut data);
            data[0]
        });
        assert!(out.iter().all(|&v| v == 8));
    }
}
