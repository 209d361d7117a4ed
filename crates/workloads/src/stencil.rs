//! Halo-exchange stencil: the astrophysics Beowulf workload.
//!
//! Each rank owns an `n^dims` block of a periodic global grid. One
//! iteration is a 7-point (3-D) or 5-point (2-D) update — 8 flops per
//! point, the [`STENCIL7`] kernel's operational profile — followed by a
//! face exchange with the `2*dims` torus neighbours: nonblocking sends
//! of every face, then blocking receives. The compile-time decomposition
//! mirrors what the 512-CPU astrophysics runs did: ranks arranged in a
//! near-cubic processor grid so faces stay as small as possible.
//!
//! The comm-to-compute ratio this produces on 2002 commodity hardware
//! (gigabit-class links, ~5 GF PCs) sits in the 5–30% band those
//! production runs reported; `tests/workloads.rs` pins that band.

use crate::{phase_ps, Compiled};
use polaris_arch::kernels::STENCIL7;
use polaris_arch::node::NodeModel;
use polaris_collectives::simx::SchedOp;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilConfig {
    /// Decomposition dimensionality: 2 or 3.
    pub dims: u32,
    /// Local subgrid side length (points per rank = `side^dims`).
    pub side: u64,
    /// Stencil sweeps.
    pub iters: u32,
    /// Flops per grid point per sweep (7-point update: 8).
    pub flops_per_point: f64,
    /// Bytes per grid point on the wire (double precision).
    pub bytes_per_point: u64,
}

impl Default for StencilConfig {
    fn default() -> Self {
        // 256^3 points per rank: the per-node working set of the
        // astrophysics runs, and the size at which a 2002 PC on
        // gigabit-class Ethernet lands in their measured comm band.
        StencilConfig {
            dims: 3,
            side: 256,
            iters: 4,
            flops_per_point: 8.0,
            bytes_per_point: 8,
        }
    }
}

/// Factor `p` into `dims` near-equal factors (largest-divisor greedy),
/// the processor grid of the decomposition. Product is always exactly
/// `p`.
fn grid_dims(p: u32, dims: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(dims as usize);
    let mut rem = p.max(1);
    for i in 0..dims {
        let left = dims - i;
        if left == 1 {
            out.push(rem);
            break;
        }
        let target = (rem as f64).powf(1.0 / left as f64).round().max(1.0) as u32;
        let mut best = 1;
        for q in 1..=rem {
            if rem.is_multiple_of(q) && q <= target {
                best = q;
            }
        }
        out.push(best);
        rem /= best;
    }
    out
}

/// Compile the stencil for `p` ranks of `node`.
pub fn compile(cfg: &StencilConfig, node: &NodeModel, p: u32) -> Compiled {
    assert!(cfg.dims == 2 || cfg.dims == 3, "2-D or 3-D only");
    let grid = grid_dims(p, cfg.dims);
    let points = cfg.side.pow(cfg.dims);
    let face_bytes = cfg.side.pow(cfg.dims - 1) * cfg.bytes_per_point;
    let work = phase_ps(node, &STENCIL7, cfg.flops_per_point * points as f64);

    let coord = |rank: u32| -> Vec<u32> {
        let mut c = Vec::with_capacity(grid.len());
        let mut r = rank;
        for &g in &grid {
            c.push(r % g);
            r /= g;
        }
        c
    };
    let rank_of = |c: &[u32]| -> u32 {
        let mut r = 0u32;
        for (i, &g) in grid.iter().enumerate().rev() {
            r = r * g + c[i];
        }
        r
    };

    let programs = (0..p)
        .map(|rank| {
            let me = coord(rank);
            // Periodic torus neighbours, skipping singleton dimensions
            // (a face with yourself is a local copy, not a message).
            let mut neighbours = Vec::new();
            for (dim, &g) in grid.iter().enumerate() {
                if g < 2 {
                    continue;
                }
                for step in [1, g - 1] {
                    let mut c = me.clone();
                    c[dim] = (c[dim] + step) % g;
                    let n = rank_of(&c);
                    if n != rank {
                        neighbours.push(n);
                    }
                }
            }
            let mut ops = Vec::with_capacity(cfg.iters as usize * (1 + 2 * neighbours.len()));
            for _ in 0..cfg.iters {
                ops.push(SchedOp::Work { ps: work });
                for &n in &neighbours {
                    ops.push(SchedOp::Send { to: n, bytes: face_bytes });
                }
                for &n in &neighbours {
                    ops.push(SchedOp::Recv { from: n });
                }
            }
            ops.into()
        })
        .collect();

    Compiled {
        programs,
        useful_flops: cfg.flops_per_point * points as f64 * p as f64 * cfg.iters as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_arch::device::Projection;
    use polaris_arch::node::NodeKind;

    fn pc2002() -> NodeModel {
        NodeModel::build(NodeKind::Pc, &Projection::default().at(2002))
    }

    #[test]
    fn grid_dims_factor_exactly_and_near_cubically() {
        for p in [1u32, 2, 8, 12, 64, 100, 512] {
            for d in [2u32, 3] {
                let g = grid_dims(p, d);
                assert_eq!(g.len(), d as usize);
                assert_eq!(g.iter().product::<u32>(), p, "p={p} d={d} {g:?}");
            }
        }
        assert_eq!(grid_dims(64, 3), vec![4, 4, 4]);
        assert_eq!(grid_dims(512, 3), vec![8, 8, 8]);
        assert_eq!(grid_dims(64, 2), vec![8, 8]);
    }

    #[test]
    fn sends_and_recvs_pair_up() {
        let cfg = StencilConfig { side: 8, iters: 1, ..StencilConfig::default() };
        let c = compile(&cfg, &pc2002(), 27);
        // Globally, every send has a matching recv on its target.
        let mut sent = std::collections::HashMap::new();
        let mut recvd = std::collections::HashMap::new();
        for (r, program) in c.programs.iter().enumerate() {
            for op in program.ops() {
                match op {
                    SchedOp::Send { to, .. } => *sent.entry((r as u32, to)).or_insert(0u32) += 1,
                    SchedOp::Recv { from } => *recvd.entry((from, r as u32)).or_insert(0u32) += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(sent, recvd);
        // 3-D interior decomposition: 6 neighbours each.
        assert!(sent.len() >= 27 * 6 / 2);
    }

    #[test]
    fn no_rank_messages_itself() {
        for p in [1u32, 2, 4, 64] {
            let cfg = StencilConfig { side: 4, iters: 1, ..StencilConfig::default() };
            for (r, program) in compile(&cfg, &pc2002(), p).programs.iter().enumerate() {
                for op in program.ops() {
                    if let SchedOp::Send { to, .. } = op {
                        assert_ne!(to, r as u32, "p={p}");
                    }
                }
            }
        }
    }
}
