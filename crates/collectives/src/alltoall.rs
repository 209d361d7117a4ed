//! All-to-all personalized exchange.

use crate::comm::{Comm, COLL_TAG_BASE};

const TAG: u64 = COLL_TAG_BASE + 50;

/// Pairwise-exchange alltoall: p-1 rounds; in round r every rank sends
/// its block for `(rank + r) % p` and receives from `(rank - r) % p`.
/// Each round is a perfect matching, so links are never oversubscribed.
///
/// `send` holds p blocks of `n` bytes (block i destined for rank i);
/// `recv` receives p blocks (block i from rank i).
pub fn alltoall_pairwise<C: Comm>(comm: &mut C, send: &[u8], recv: &mut [u8], n: usize) {
    let p = comm.size();
    let rank = comm.rank();
    assert_eq!(send.len(), n * p as usize, "alltoall send size");
    assert_eq!(recv.len(), n * p as usize, "alltoall recv size");
    let me = rank as usize * n;
    recv[me..me + n].copy_from_slice(&send[me..me + n]);
    if p <= 1 {
        return;
    }
    for r in 1..p {
        let dst = (rank + r) % p;
        let src = (rank + p - r) % p;
        let block = &send[dst as usize * n..dst as usize * n + n];
        let got = comm.sendrecv_bytes(dst, block, src, TAG + r as u64, n);
        recv[src as usize * n..src as usize * n + n].copy_from_slice(&got);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    /// Block sent from rank s to rank d.
    fn block(s: u32, d: u32, n: usize) -> Vec<u8> {
        (0..n).map(|i| (s as usize * 37 + d as usize * 11 + i) as u8).collect()
    }

    fn check(p: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let me = ep.rank();
            let mut send = Vec::with_capacity(n * p as usize);
            for d in 0..p {
                send.extend_from_slice(&block(me, d, n));
            }
            let mut recv = vec![0u8; n * p as usize];
            alltoall_pairwise(&mut ep, &send, &mut recv, n);
            recv
        });
        for (d, buf) in out.iter().enumerate() {
            for s in 0..p {
                assert_eq!(
                    &buf[s as usize * n..s as usize * n + n],
                    &block(s, d as u32, n)[..],
                    "rank {d} block from {s} wrong (p={p})"
                );
            }
        }
    }

    #[test]
    fn various_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            check(p, 16);
        }
    }

    #[test]
    fn zero_block() {
        check(4, 0);
    }

    #[test]
    fn large_blocks_cross_rendezvous_threshold() {
        check(3, 64 * 1024);
    }
}
