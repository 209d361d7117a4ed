//! Barrier synchronization.

use crate::comm::{Comm, COLL_TAG_BASE};

const TAG: u64 = COLL_TAG_BASE + 1;

/// Dissemination barrier: ⌈log₂ p⌉ rounds; in round k every rank sends a
/// token to `(rank + 2^k) mod p` and waits for one from
/// `(rank - 2^k) mod p`. Works for any p, O(log p) critical path.
fn barrier_dissemination<C: Comm>(comm: &mut C) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    let mut dist = 1u32;
    let mut round = 0u64;
    while dist < p {
        let to = (rank + dist) % p;
        let from = (rank + p - dist) % p;
        comm.sendrecv_bytes(to, &[], from, TAG + round, 0);
        dist <<= 1;
        round += 1;
    }
}

/// Tree barrier: gather tokens up a binomial tree rooted at 0, then
/// broadcast release down it. 2·log₂ p critical path, half the messages
/// of dissemination — the classic trade-off the F3 bench shows.
fn barrier_tree<C: Comm>(comm: &mut C) {
    let p = comm.size();
    let rank = comm.rank();
    if p <= 1 {
        return;
    }
    // Gather phase (like a binomial reduce of nothing).
    let mut mask = 1u32;
    while mask < p {
        if rank & mask == 0 {
            let peer = rank | mask;
            if peer < p {
                comm.recv_bytes(peer, TAG + 100, 0);
            }
        } else {
            comm.send_bytes(rank & !mask, TAG + 100, &[]);
            break;
        }
        mask <<= 1;
    }
    // Release phase (binomial broadcast of nothing). Non-root ranks
    // receive the release from the parent they signalled, then release
    // their own subtree; rank 0 starts the release.
    let mut mask;
    if rank != 0 {
        // Find the lowest set bit of rank: that's the parent link.
        let low = rank & rank.wrapping_neg();
        comm.recv_bytes(rank & !low, TAG + 101, 0);
        mask = low >> 1;
    } else {
        // Rank 0 releases starting from the highest relevant bit.
        mask = p.next_power_of_two() >> 1;
    }
    while mask > 0 {
        let peer = rank | mask;
        if peer < p && peer != rank {
            comm.send_bytes(peer, TAG + 101, &[]);
        }
        mask >>= 1;
    }
}

/// The barrier algorithms available to the tuner and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAlgo {
    Dissemination,
    Tree,
}

pub fn barrier_with<C: Comm>(comm: &mut C, algo: BarrierAlgo) {
    match algo {
        BarrierAlgo::Dissemination => barrier_dissemination(comm),
        BarrierAlgo::Tree => barrier_tree(comm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn check_barrier(algo: BarrierAlgo, p: u32) {
        // Every rank increments a counter before the barrier; after the
        // barrier every rank must observe the full count.
        let counter = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&counter);
        let observed = run_world(p, MsgConfig::default(), move |mut ep| {
            c2.fetch_add(1, Ordering::SeqCst);
            barrier_with(&mut ep, algo);
            c2.load(Ordering::SeqCst)
        });
        for (r, seen) in observed.iter().enumerate() {
            assert_eq!(*seen, p, "rank {r} left the {algo:?} barrier early");
        }
    }

    #[test]
    fn dissemination_various_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            check_barrier(BarrierAlgo::Dissemination, p);
        }
    }

    #[test]
    fn tree_various_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            check_barrier(BarrierAlgo::Tree, p);
        }
    }

    #[test]
    fn repeated_barriers_do_not_cross_talk() {
        let out = run_world(4, MsgConfig::default(), |mut ep| {
            for _ in 0..25 {
                barrier_dissemination(&mut ep);
            }
            true
        });
        assert!(out.into_iter().all(|x| x));
    }
}
