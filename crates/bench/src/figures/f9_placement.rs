//! F9 — topology-aware allocation: placement policy versus application
//! locality and pool fragmentation under steady job churn on a 16×16
//! torus. The "new responsibilities" of resource management include not
//! just *when* a job runs but *where*.

use crate::table::Table;
use polaris_rms::prelude::*;
use polaris_rms::workload::WorkloadConfig;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::topology::{Topology, TopologyKind};

const NODES: u32 = 256;
const CHURN: usize = 2000;

struct ChurnResult {
    mean_neighbor: f64,
    mean_pairwise: f64,
    mean_fragmentation: f64,
    rejections: u32,
}

/// Steady-state churn: keep the pool ~70% full with jobs of
/// workload-realistic widths arriving and departing; score every
/// successful placement.
fn churn(placement: Placement, seed: u64) -> ChurnResult {
    let topo = Topology::new(TopologyKind::Torus2D { w: 16, h: 16 });
    let mut pool = NodePool::new(NODES, seed);
    let mut rng = SplitMix64::new(seed ^ 0xabcdef);
    let wl = WorkloadConfig::default();
    let mut live: Vec<Vec<u32>> = Vec::new();
    let mut neighbor = 0.0;
    let mut pairwise = 0.0;
    let mut frag = 0.0;
    let mut placed = 0u32;
    let mut rejections = 0u32;
    for _ in 0..CHURN {
        // Keep occupancy near 70%: release when fuller, allocate when
        // emptier (random victim — jobs end in arbitrary order).
        let occupancy = 1.0 - pool.free_count() as f64 / NODES as f64;
        if occupancy > 0.7 && !live.is_empty() {
            let idx = rng.next_below(live.len() as u64) as usize;
            let nodes = live.swap_remove(idx);
            pool.release(&nodes);
        } else {
            let exp = rng.next_below(u64::from(wl.max_width_log2) + 1);
            let width = 1u32 << exp;
            match pool.allocate(width, placement) {
                Some(nodes) => {
                    if nodes.len() >= 2 {
                        neighbor += mean_neighbor_hops(&topo, &nodes);
                        pairwise += mean_pairwise_hops(&topo, &nodes);
                        placed += 1;
                    }
                    live.push(nodes);
                }
                None => rejections += 1,
            }
        }
        frag += pool.fragmentation();
    }
    ChurnResult {
        mean_neighbor: neighbor / placed as f64,
        mean_pairwise: pairwise / placed as f64,
        mean_fragmentation: frag / CHURN as f64,
        rejections,
    }
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F9",
        "placement policy on a 16x16 torus at ~70% occupancy",
        &[
            "placement",
            "neighbor-hops",
            "pairwise-hops",
            "fragmentation",
            "rejections",
        ],
    );
    for (placement, name) in [
        (Placement::Random, "random"),
        (Placement::FirstFit, "first-fit"),
        (Placement::Contiguous, "contiguous"),
    ] {
        // Average over seeds to stabilize the churn.
        let mut acc = ChurnResult {
            mean_neighbor: 0.0,
            mean_pairwise: 0.0,
            mean_fragmentation: 0.0,
            rejections: 0,
        };
        let seeds = 5;
        for seed in 0..seeds {
            let r = churn(placement, seed);
            acc.mean_neighbor += r.mean_neighbor;
            acc.mean_pairwise += r.mean_pairwise;
            acc.mean_fragmentation += r.mean_fragmentation;
            acc.rejections += r.rejections;
        }
        let k = seeds as f64;
        t.row(vec![
            name.to_string(),
            format!("{:.2}", acc.mean_neighbor / k),
            format!("{:.2}", acc.mean_pairwise / k),
            format!("{:.3}", acc.mean_fragmentation / k),
            format!("{}", acc.rejections / seeds as u32),
        ]);
    }
    t.note("neighbor-hops: what a halo-exchange code pays; random diameter ~16 hops");
    t.note("expected: contiguous placement cuts neighbor hops several-fold vs random");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_beats_random_on_locality() {
        let t = &generate()[0];
        let get = |name: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap()[col]
                .parse()
                .unwrap()
        };
        let random_hops = get("random", 1);
        let contig_hops = get("contiguous", 1);
        assert!(
            contig_hops < random_hops * 0.5,
            "contiguous {contig_hops} vs random {random_hops}"
        );
        // First-fit lands between the two.
        let ff = get("first-fit", 1);
        assert!(ff <= random_hops && ff >= contig_hops * 0.8);
    }

    #[test]
    fn churn_is_deterministic() {
        let a = churn(Placement::Contiguous, 3);
        let b = churn(Placement::Contiguous, 3);
        assert_eq!(a.mean_neighbor, b.mean_neighbor);
        assert_eq!(a.rejections, b.rejections);
    }
}
