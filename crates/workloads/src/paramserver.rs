//! Parameter-server push/pull: the asynchronous-looking pattern, run
//! synchronously per step so it stays a deterministic schedule.
//!
//! Ranks `0..SERVERS` are parameter servers, the rest are workers. Each
//! step a worker computes its gradients ([`DGEMM`] profile), pushes one
//! shard to every server (nonblocking sends), then pulls the updated
//! shards back (blocking receives). A server drains one push from every
//! worker, applies the update ([`DAXPY`] profile — streaming vector
//! work), and sends every worker its shard back. The incast at each
//! server — `workers` messages converging on one downlink — is exactly
//! what the partitioned-crossbar queueing model prices.

use crate::{phase_ps, Compiled};
use polaris_arch::kernels::{DAXPY, DGEMM};
use polaris_arch::node::NodeModel;
use polaris_collectives::simx::SchedOp;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamServerConfig {
    /// Synchronous steps.
    pub steps: u32,
    /// Bytes pushed per worker per server per step (one shard).
    pub shard_bytes: u64,
}

impl Default for ParamServerConfig {
    fn default() -> Self {
        ParamServerConfig { steps: 4, shard_bytes: 1 << 20 }
    }
}

/// Parameter-server ranks (clamped to leave at least one worker).
const SERVERS: u32 = 4;
/// Gradient-computation flops per worker per step.
const FLOPS_PER_STEP: f64 = 1e8;
/// Update-apply flops per server per step.
const APPLY_FLOPS: f64 = 1e7;

/// Compile the push/pull loop for `p` ranks of `node`.
pub fn compile(cfg: &ParamServerConfig, node: &NodeModel, p: u32) -> Compiled {
    let servers = SERVERS.min(p.saturating_sub(1)).max(1);
    let workers = p - servers;
    let grad = phase_ps(node, &DGEMM, FLOPS_PER_STEP);
    let apply = phase_ps(node, &DAXPY, APPLY_FLOPS);

    let programs = (0..p)
        .map(|rank| {
            let mut ops = Vec::new();
            if rank < servers {
                for _ in 0..cfg.steps {
                    for w in 0..workers {
                        ops.push(SchedOp::Recv { from: servers + w });
                    }
                    ops.push(SchedOp::Work { ps: apply });
                    for w in 0..workers {
                        ops.push(SchedOp::Send { to: servers + w, bytes: cfg.shard_bytes });
                    }
                }
            } else {
                for _ in 0..cfg.steps {
                    ops.push(SchedOp::Work { ps: grad });
                    for s in 0..servers {
                        ops.push(SchedOp::Send { to: s, bytes: cfg.shard_bytes });
                    }
                    for s in 0..servers {
                        ops.push(SchedOp::Recv { from: s });
                    }
                }
            }
            ops.into()
        })
        .collect();

    Compiled {
        programs,
        useful_flops: (FLOPS_PER_STEP * workers as f64 + APPLY_FLOPS * servers as f64)
            * cfg.steps as f64,
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
    fn push_pull_completes_without_deadlock() {
        let cfg = ParamServerConfig { steps: 2, ..ParamServerConfig::default() };
        let c = compile(&cfg, &pc2002(), 16);
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 16);
        let (res, _) = fabric.run(c.programs, ExecParams::default(), 2);
        // 2 steps x 12 workers x 4 servers x (push + pull).
        assert_eq!(res.messages, 2 * 12 * 4 * 2);
    }

    #[test]
    fn degenerate_two_rank_cluster_still_works() {
        let cfg = ParamServerConfig { steps: 1, ..ParamServerConfig::default() };
        let c = compile(&cfg, &pc2002(), 2);
        // Clamped to one server, one worker.
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 2);
        let (res, _) = fabric.run(c.programs, ExecParams::default(), 1);
        assert_eq!(res.messages, 2);
    }
}
