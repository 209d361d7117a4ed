//! Bulk-synchronous data-parallel training: compute a step's gradients
//! (dense [`DGEMM`]-profile work), then allreduce the model — the
//! allreduce-bound pattern.
//!
//! On grouped fabrics (dragonfly), the allreduce is hierarchical, the
//! same shape as [`polaris_collectives::hier`]: a binomial reduce
//! inside each group, recursive doubling among the group leaders, then
//! a binomial broadcast back down. On flat fabrics it is plain
//! recursive doubling. Both splice the *exact* schedules
//! [`polaris_collectives::simx::ops`] generates — the ones
//! cross-checked against the executable algorithms — each placed on
//! the machine by a [`RankMap`] from its communicator's ranks.

use crate::{phase_ps, Compiled, Fabric};
use polaris_arch::kernels::DGEMM;
use polaris_arch::node::NodeModel;
use polaris_collectives::allreduce::AllreduceAlgo;
use polaris_collectives::bcast::BcastAlgo;
use polaris_collectives::program::{Program, RankMap};
use polaris_collectives::simx::{Collective, SchedOp};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Synchronous steps.
    pub steps: u32,
    /// Model (gradient vector) size in bytes.
    pub model_bytes: u64,
    /// Dense flops per rank per step.
    pub flops_per_step: f64,
    /// Hosts per hierarchy group; `0` or `1` means flat allreduce.
    pub group_size: u32,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            steps: 4,
            model_bytes: 1 << 24,
            flops_per_step: 2e8,
            group_size: 0,
        }
    }
}

impl TrainingConfig {
    /// Default config with the hierarchy aligned to the fabric's
    /// locality groups (flat when the fabric has a single group).
    pub fn for_fabric(fabric: &Fabric) -> TrainingConfig {
        TrainingConfig { group_size: fabric.group_size(), ..TrainingConfig::default() }
    }
}

/// Splice rank `rank`'s allreduce schedule for this config into
/// `program`.
fn splice_allreduce(program: &mut Program, cfg: &TrainingConfig, rank: u32, p: u32) {
    let allreduce = Collective::Allreduce(AllreduceAlgo::RecursiveDoubling);
    let (gs, bytes) = (cfg.group_size, cfg.model_bytes);
    let flat = gs < 2 || gs >= p || !p.is_multiple_of(gs);
    if flat {
        program.splice(allreduce, rank, p, bytes, RankMap::IDENTITY);
        return;
    }
    let (g, local) = (rank / gs, rank % gs);
    let group = RankMap { base: g * gs, stride: 1 };
    // Stage 1: reduce to the group leader (group-local rank 0).
    program.splice(Collective::ReduceBinomial, local, gs, bytes, group);
    // Stage 2: leaders allreduce among themselves.
    if local == 0 {
        program.splice(allreduce, g, p / gs, bytes, RankMap { base: 0, stride: gs });
    }
    // Stage 3: broadcast back down inside the group.
    program.splice(Collective::Bcast(BcastAlgo::Binomial), local, gs, bytes, group);
}

/// Compile the training loop for `p` ranks of `node`.
pub fn compile(cfg: &TrainingConfig, node: &NodeModel, p: u32) -> Compiled {
    let work = phase_ps(node, &DGEMM, cfg.flops_per_step);
    let programs = (0..p)
        .map(|rank| {
            let mut program = Program::default();
            for _ in 0..cfg.steps {
                program.push(SchedOp::Work { ps: work });
                splice_allreduce(&mut program, cfg, rank, p);
            }
            program
        })
        .collect();
    Compiled {
        programs,
        useful_flops: cfg.flops_per_step * p as f64 * cfg.steps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_arch::device::Projection;
    use polaris_arch::node::{NodeKind, NodeModel};
    use polaris_collectives::simx::ExecParams;
    use polaris_simnet::link::Generation;

    fn pc2002() -> NodeModel {
        NodeModel::build(NodeKind::Pc, &Projection::default().at(2002))
    }

    #[test]
    fn hierarchical_and_flat_both_complete() {
        let node = pc2002();
        for gs in [0u32, 8] {
            let cfg = TrainingConfig {
                steps: 2,
                model_bytes: 1 << 16,
                group_size: gs,
                ..TrainingConfig::default()
            };
            let c = compile(&cfg, &node, 32);
            let fabric = Fabric::crossbar(Generation::InfiniBand4x, 32);
            let (res, _) = fabric.run(c.programs, ExecParams::default(), 2);
            assert!(res.messages > 0, "gs={gs}");
        }
    }

    #[test]
    fn hierarchy_moves_fewer_cross_group_bytes() {
        let node = pc2002();
        let p = 64u32;
        let gs = 16u32;
        let cross_bytes = |cfg: &TrainingConfig| {
            compile(cfg, &node, p)
                .programs
                .iter()
                .enumerate()
                .flat_map(|(r, program)| {
                    let r = r as u32;
                    program.ops().filter_map(move |op| match op {
                        SchedOp::Send { to, bytes } if to / gs != r / gs => Some(bytes),
                        _ => None,
                    })
                })
                .sum::<u64>()
        };
        let flat = cross_bytes(&TrainingConfig { group_size: 0, ..TrainingConfig::default() });
        let hier = cross_bytes(&TrainingConfig { group_size: gs, ..TrainingConfig::default() });
        assert!(hier < flat / 2, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn uneven_group_sizes_fall_back_to_flat() {
        let node = pc2002();
        // 24 ranks, group size 16: not divisible, must still terminate.
        let cfg = TrainingConfig {
            steps: 1,
            model_bytes: 1 << 12,
            group_size: 16,
            ..TrainingConfig::default()
        };
        let c = compile(&cfg, &node, 24);
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 24);
        let (res, _) = fabric.run(c.programs, ExecParams::default(), 1);
        assert!(res.messages > 0);
    }
}
