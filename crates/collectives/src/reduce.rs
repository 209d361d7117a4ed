//! Reduce to a root.

use crate::comm::{Comm, COLL_TAG_BASE};
use crate::op::{from_bytes, reduce_into, to_bytes, Reducible, ReduceOp};

const TAG: u64 = COLL_TAG_BASE + 5;

/// Binomial-tree reduce: each rank combines its subtree's contribution
/// and forwards one message to its parent; ⌈log₂ p⌉ critical path. The
/// result is valid only at `root`. Requires a commutative operator
/// (all [`ReduceOp`]s are).
pub fn reduce_binomial<C: Comm, T: Reducible>(
    comm: &mut C,
    root: u32,
    op: ReduceOp,
    data: &mut [T],
) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let rel = (rank + p - root) % p;
    let bytes = data.len() * T::SIZE;
    let mut mask = 1u32;
    while mask < p {
        if rel & mask == 0 {
            let child_rel = rel | mask;
            if child_rel < p {
                let child = (child_rel + root) % p;
                let got: Vec<T> = from_bytes(&comm.recv_bytes(child, TAG, bytes));
                reduce_into(op, data, &got);
            }
        } else {
            let parent = ((rel - mask) + root) % p;
            comm.send_bytes(parent, TAG, &to_bytes(data));
            return; // contribution forwarded; this rank is done
        }
        mask <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    fn check_reduce(p: u32, root: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let r = ep.rank() as u64;
            let mut data: Vec<u64> = (0..n as u64).map(|i| r * 1000 + i).collect();
            reduce_binomial(&mut ep, root, ReduceOp::Sum, &mut data);
            data
        });
        // Expected at root: sum over ranks of (r*1000 + i).
        let rank_sum: u64 = (0..p as u64).sum::<u64>() * 1000;
        for (i, v) in out[root as usize].iter().enumerate() {
            assert_eq!(*v, rank_sum + (i as u64) * p as u64, "elem {i}");
        }
    }

    #[test]
    fn sum_reduce_various_shapes() {
        for p in [1, 2, 3, 4, 5, 8, 9] {
            check_reduce(p, 0, 64);
        }
    }

    #[test]
    fn nonzero_root() {
        check_reduce(5, 3, 16);
        check_reduce(8, 7, 16);
    }

    #[test]
    fn min_max_reduce() {
        let out = run_world(6, MsgConfig::default(), |mut ep| {
            let mut lo = vec![ep.rank() as i64 * 7 - 3];
            reduce_binomial(&mut ep, 0, ReduceOp::Min, &mut lo);
            let mut hi = vec![ep.rank() as i64 * 7 - 3];
            reduce_binomial(&mut ep, 0, ReduceOp::Max, &mut hi);
            (lo[0], hi[0])
        });
        assert_eq!(out[0].0, -3);
        assert_eq!(out[0].1, 5 * 7 - 3);
    }

    #[test]
    fn float_sum_reduce() {
        let p = 4;
        let out = run_world(p, MsgConfig::default(), |mut ep| {
            let mut data = vec![0.5f64 * (ep.rank() + 1) as f64];
            reduce_binomial(&mut ep, 0, ReduceOp::Sum, &mut data);
            data[0]
        });
        assert!((out[0] - 0.5 * (1.0 + 2.0 + 3.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_vector_reduce() {
        let out = run_world(4, MsgConfig::default(), |mut ep| {
            let mut data: Vec<u64> = vec![];
            reduce_binomial(&mut ep, 0, ReduceOp::Sum, &mut data);
            data.len()
        });
        assert!(out.iter().all(|&l| l == 0));
    }
}
