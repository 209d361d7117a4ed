//! MapReduce shuffle: map locally, exchange every pair's partition
//! all-to-all, reduce locally.
//!
//! The map and reduce phases are [`FFT`]-profile work (mixed-intensity
//! record processing with some pointer chasing); the shuffle itself
//! splices the pairwise all-to-all schedule — the bisection-bandwidth
//! stress test, which is exactly why this workload separates fat trees
//! from oversubscribed fabrics in F14.

use crate::{phase_ps, Compiled};
use polaris_arch::kernels::FFT;
use polaris_arch::node::NodeModel;
use polaris_collectives::program::{Program, RankMap};
use polaris_collectives::simx::{Collective, SchedOp};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleConfig {
    /// Map-shuffle-reduce rounds.
    pub rounds: u32,
    /// Bytes each rank sends to each other rank per round.
    pub bytes_per_pair: u64,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig { rounds: 2, bytes_per_pair: 1 << 16 }
    }
}

/// Map flops per rank per round.
const MAP_FLOPS: f64 = 5e8;
/// Reduce flops per rank per round.
const REDUCE_FLOPS: f64 = 2e8;

/// Compile the shuffle for `p` ranks of `node`.
pub fn compile(cfg: &ShuffleConfig, node: &NodeModel, p: u32) -> Compiled {
    let map = phase_ps(node, &FFT, MAP_FLOPS);
    let reduce = phase_ps(node, &FFT, REDUCE_FLOPS);
    let programs = (0..p)
        .map(|rank| {
            let mut program = Program::default();
            for _ in 0..cfg.rounds {
                program.push(SchedOp::Work { ps: map });
                let bytes = cfg.bytes_per_pair;
                program.splice(Collective::AlltoallPairwise, rank, p, bytes, RankMap::IDENTITY);
                program.push(SchedOp::Work { ps: reduce });
            }
            program
        })
        .collect();
    Compiled {
        programs,
        useful_flops: (MAP_FLOPS + REDUCE_FLOPS) * p as f64 * cfg.rounds as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;
    use polaris_arch::device::Projection;
    use polaris_arch::node::{NodeKind, NodeModel};
    use polaris_collectives::simx::ExecParams;
    use polaris_simnet::link::Generation;

    fn pc2002() -> NodeModel {
        NodeModel::build(NodeKind::Pc, &Projection::default().at(2002))
    }

    #[test]
    fn shuffle_is_all_to_all() {
        let cfg = ShuffleConfig { rounds: 1, ..ShuffleConfig::default() };
        let p = 16u32;
        let c = compile(&cfg, &pc2002(), p);
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, p);
        let (res, _) = fabric.run(c.programs, ExecParams::default(), 2);
        assert_eq!(res.messages, (p * (p - 1)) as u64);
        assert_eq!(res.payload_bytes, (p * (p - 1)) as u64 * cfg.bytes_per_pair);
    }
}
