//! Allgather: every rank ends with every rank's contribution.

use crate::comm::{Comm, COLL_TAG_BASE};

const TAG_RING: u64 = COLL_TAG_BASE + 12;
const TAG_BRUCK: u64 = COLL_TAG_BASE + 13;

/// Ring allgather: p-1 steps, each forwarding the block received last
/// step. Bandwidth-optimal, latency O(p).
fn allgather_ring<C: Comm>(comm: &mut C, mine: &[u8], out: &mut [u8]) {
    let p = comm.size();
    let rank = comm.rank();
    let n = mine.len();
    assert_eq!(out.len(), n * p as usize, "allgather output size");
    out[rank as usize * n..rank as usize * n + n].copy_from_slice(mine);
    if p <= 1 {
        return;
    }
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let mut have = rank;
    for _ in 0..p - 1 {
        let sbuf = out[have as usize * n..have as usize * n + n].to_vec();
        let incoming = (have + p - 1) % p;
        let got = comm.sendrecv_bytes(next, &sbuf, prev, TAG_RING, n);
        out[incoming as usize * n..incoming as usize * n + n].copy_from_slice(&got);
        have = incoming;
    }
}

/// Bruck allgather: ⌈log₂ p⌉ steps for any p; step k exchanges a block
/// of min(2^k, p − 2^k) contributions with ranks ±2^k, then a final local
/// rotation restores absolute order. Latency-optimal for small blocks.
fn allgather_bruck<C: Comm>(comm: &mut C, mine: &[u8], out: &mut [u8]) {
    let p = comm.size();
    let rank = comm.rank();
    let n = mine.len();
    assert_eq!(out.len(), n * p as usize, "allgather output size");
    if p <= 1 {
        out[..n].copy_from_slice(mine);
        return;
    }
    // Work in "rotated" order: position j holds rank (rank + j) % p.
    let mut acc: Vec<u8> = Vec::with_capacity(n * p as usize);
    acc.extend_from_slice(mine);
    let mut held = 1u32; // blocks currently held (positions 0..held)
    let mut k = 0u64;
    while held < p {
        let count = held.min(p - held);
        let to = (rank + p - held) % p; // they need our leading blocks
        let from = (rank + held) % p;
        let got = comm.sendrecv_bytes(
            to,
            &acc[..count as usize * n],
            from,
            TAG_BRUCK + k,
            count as usize * n,
        );
        acc.extend_from_slice(&got);
        held += count;
        k += 1;
    }
    // Un-rotate: acc position j is rank (rank + j) % p.
    for j in 0..p {
        let abs = (rank + j) % p;
        out[abs as usize * n..abs as usize * n + n]
            .copy_from_slice(&acc[j as usize * n..j as usize * n + n]);
    }
}

/// Allgather algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgo {
    Ring,
    Bruck,
}

pub fn allgather_with<C: Comm>(comm: &mut C, algo: AllgatherAlgo, mine: &[u8], out: &mut [u8]) {
    match algo {
        AllgatherAlgo::Ring => allgather_ring(comm, mine, out),
        AllgatherAlgo::Bruck => allgather_bruck(comm, mine, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    fn check(algo: AllgatherAlgo, p: u32, n: usize) {
        let out = run_world(p, MsgConfig::default(), move |mut ep| {
            let mine: Vec<u8> = (0..n).map(|i| (ep.rank() as usize * 91 + i) as u8).collect();
            let mut out = vec![0u8; n * p as usize];
            allgather_with(&mut ep, algo, &mine, &mut out);
            out
        });
        for (r, buf) in out.iter().enumerate() {
            for src in 0..p as usize {
                let expect: Vec<u8> = (0..n).map(|i| (src * 91 + i) as u8).collect();
                assert_eq!(
                    &buf[src * n..src * n + n],
                    &expect[..],
                    "rank {r} has wrong block from {src} ({algo:?}, p={p})"
                );
            }
        }
    }

    #[test]
    fn ring_various() {
        for p in [1, 2, 3, 4, 5, 8] {
            check(AllgatherAlgo::Ring, p, 24);
        }
    }

    #[test]
    fn bruck_power_of_two() {
        for p in [1, 2, 4, 8, 16] {
            check(AllgatherAlgo::Bruck, p, 24);
        }
    }

    #[test]
    fn bruck_non_power_of_two() {
        for p in [3, 5, 6, 7, 9, 11] {
            check(AllgatherAlgo::Bruck, p, 24);
        }
    }

    #[test]
    fn zero_block_allgather() {
        check(AllgatherAlgo::Ring, 4, 0);
        check(AllgatherAlgo::Bruck, 4, 0);
    }

    #[test]
    fn algorithms_agree() {
        for p in [3, 8] {
            check(AllgatherAlgo::Ring, p, 100);
            check(AllgatherAlgo::Bruck, p, 100);
        }
    }
}
