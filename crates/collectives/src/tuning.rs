//! Algorithm selection by message size and rank count — the decision
//! logic a production library ships so users need not pick by hand.

use crate::allgather::AllgatherAlgo;
use crate::allreduce::AllreduceAlgo;
use crate::barrier::BarrierAlgo;
use crate::bcast::BcastAlgo;
use crate::comm::Comm;
use crate::op::{Reducible, ReduceOp};

/// Bcast switches from binomial to scatter+allgather at this size
/// (bytes). The switch points follow the usual MPI-library heuristics;
/// the F3 bench sweeps around them.
const BCAST_LARGE: usize = 64 * 1024;
/// Allreduce switches from recursive doubling to ring at this size.
const ALLREDUCE_LARGE: usize = 64 * 1024;
/// Allgather switches from Bruck to ring at this per-rank size.
const ALLGATHER_LARGE: usize = 32 * 1024;

fn pick_bcast(bytes: usize, p: u32) -> BcastAlgo {
    if p >= 8 && bytes >= BCAST_LARGE {
        BcastAlgo::ScatterAllgather
    } else {
        BcastAlgo::Binomial
    }
}

fn pick_allreduce(bytes: usize, p: u32) -> AllreduceAlgo {
    if p >= 4 && bytes >= ALLREDUCE_LARGE {
        AllreduceAlgo::Ring
    } else {
        AllreduceAlgo::RecursiveDoubling
    }
}

fn pick_allgather(block_bytes: usize) -> AllgatherAlgo {
    if block_bytes >= ALLGATHER_LARGE {
        AllgatherAlgo::Ring
    } else {
        AllgatherAlgo::Bruck
    }
}

/// Tuned entry points mirroring the MPI surface.
pub fn barrier<C: Comm>(comm: &mut C) {
    crate::barrier::barrier_with(comm, BarrierAlgo::Dissemination);
}

pub fn bcast<C: Comm>(comm: &mut C, root: u32, data: &mut [u8]) {
    let algo = pick_bcast(data.len(), comm.size());
    crate::bcast::bcast_with(comm, algo, root, data);
}

pub fn allreduce<C: Comm, T: Reducible>(comm: &mut C, op: ReduceOp, data: &mut [T]) {
    let algo = pick_allreduce(data.len() * T::SIZE, comm.size());
    crate::allreduce::allreduce_with(comm, algo, op, data);
}

pub fn allgather<C: Comm>(comm: &mut C, mine: &[u8], out: &mut [u8]) {
    crate::allgather::allgather_with(comm, pick_allgather(mine.len()), mine, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    #[test]
    fn selection_respects_thresholds() {
        use AllgatherAlgo::{Bruck, Ring as GatherRing};
        use AllreduceAlgo::{RecursiveDoubling, Ring};
        use BcastAlgo::{Binomial, ScatterAllgather};
        // (bytes, p, pick): far from, exactly at and one byte below each
        // switch point; small worlds stay on the tree regardless of size.
        for (bytes, p, want) in [
            (100, 16, Binomial),
            (1 << 20, 16, ScatterAllgather),
            (1 << 20, 4, Binomial),
            (BCAST_LARGE, 8, ScatterAllgather),
            (BCAST_LARGE - 1, 8, Binomial),
            (BCAST_LARGE, 7, Binomial),
        ] {
            assert_eq!(pick_bcast(bytes, p), want, "bcast {bytes} B at p = {p}");
        }
        for (bytes, p, want) in [
            (64, 64, RecursiveDoubling),
            (1 << 20, 64, Ring),
            (ALLREDUCE_LARGE, 4, Ring),
            (ALLREDUCE_LARGE - 1, 4, RecursiveDoubling),
            (ALLREDUCE_LARGE, 3, RecursiveDoubling),
        ] {
            assert_eq!(pick_allreduce(bytes, p), want, "allreduce {bytes} B at p = {p}");
        }
        for (bytes, want) in [
            (100, Bruck),
            (1 << 20, GatherRing),
            (ALLGATHER_LARGE, GatherRing),
            (ALLGATHER_LARGE - 1, Bruck),
        ] {
            assert_eq!(pick_allgather(bytes), want, "allgather {bytes} B");
        }
        assert_eq!((BCAST_LARGE, ALLREDUCE_LARGE, ALLGATHER_LARGE), (65_536, 65_536, 32_768));
    }

    #[test]
    fn tuned_entry_points_are_correct() {
        let out = run_world(4, MsgConfig::default(), |mut ep| {
            barrier(&mut ep);
            let mut b = vec![0u8; 100];
            if ep.rank() == 0 {
                b.fill(7);
            }
            bcast(&mut ep, 0, &mut b);
            let mut v = vec![1u64; 4];
            allreduce(&mut ep, ReduceOp::Sum, &mut v);
            let mine = [ep.rank() as u8; 3];
            let mut all = vec![0u8; 12];
            allgather(&mut ep, &mine, &mut all);
            (b[50], v[0], all)
        });
        for (r, (b, v, all)) in out.into_iter().enumerate() {
            assert_eq!(b, 7, "rank {r} bcast");
            assert_eq!(v, 4, "rank {r} allreduce");
            assert_eq!(all, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        }
    }
}
