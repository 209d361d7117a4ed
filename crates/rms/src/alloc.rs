//! Topology-aware node allocation.
//!
//! Which nodes a job gets matters as much as when it starts: a
//! nearest-neighbour code placed across the machine pays diameter-length
//! hops for every halo exchange. This module provides an occupancy pool
//! with three placement policies and topology-based locality scoring —
//! experiment F9 measures the placement-vs-fragmentation trade-off on a
//! torus.

use polaris_simnet::rng::SplitMix64;
use polaris_simnet::topology::Topology;

/// How the allocator picks nodes for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Lowest-numbered free nodes (what a naive allocator does).
    FirstFit,
    /// Uniformly random free nodes (what a careless allocator does).
    Random,
    /// The contiguous run of node ids with the tightest fit; falls back
    /// to first-fit when no run is long enough. On a torus, contiguous
    /// ids are neighbours, so this is locality-aware placement.
    Contiguous,
}

/// An occupancy-tracked pool of `n` nodes.
#[derive(Debug, Clone)]
pub struct NodePool {
    free: Vec<bool>,
    free_count: u32,
    rng: SplitMix64,
}

impl NodePool {
    pub fn new(n: u32, seed: u64) -> Self {
        NodePool {
            free: vec![true; n as usize],
            free_count: n,
            rng: SplitMix64::new(seed),
        }
    }

    pub fn total(&self) -> u32 {
        self.free.len() as u32
    }

    pub fn free_count(&self) -> u32 {
        self.free_count
    }

    /// Allocate `width` nodes under `policy`; returns the node ids or
    /// `None` if not enough are free.
    pub fn allocate(&mut self, width: u32, policy: Placement) -> Option<Vec<u32>> {
        if width > self.free_count {
            return None;
        }
        let picked: Vec<u32> = match policy {
            Placement::FirstFit => self
                .free
                .iter()
                .enumerate()
                .filter(|(_, &f)| f)
                .take(width as usize)
                .map(|(i, _)| i as u32)
                .collect(),
            Placement::Random => {
                let mut ids: Vec<u32> = self
                    .free
                    .iter()
                    .enumerate()
                    .filter(|(_, &f)| f)
                    .map(|(i, _)| i as u32)
                    .collect();
                self.rng.shuffle(&mut ids);
                ids.truncate(width as usize);
                ids
            }
            Placement::Contiguous => match self.tightest_run(width) {
                Some(start) => (start..start + width).collect(),
                None => return self.allocate(width, Placement::FirstFit),
            },
        };
        debug_assert_eq!(picked.len(), width as usize);
        for &i in &picked {
            debug_assert!(self.free[i as usize]);
            self.free[i as usize] = false;
        }
        self.free_count -= width;
        Some(picked)
    }

    /// Best-fit contiguous run: the shortest free run that still holds
    /// `width` nodes (leaves long runs intact for wide jobs).
    fn tightest_run(&self, width: u32) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None; // (len, start)
        let mut run_start = 0u32;
        let mut run_len = 0u32;
        for (i, &f) in self.free.iter().enumerate() {
            if f {
                if run_len == 0 {
                    run_start = i as u32;
                }
                run_len += 1;
            } else {
                if run_len >= width && best.is_none_or(|(bl, _)| run_len < bl) {
                    best = Some((run_len, run_start));
                }
                run_len = 0;
            }
        }
        if run_len >= width && best.is_none_or(|(bl, _)| run_len < bl) {
            best = Some((run_len, run_start));
        }
        best.map(|(_, s)| s)
    }

    /// Release previously allocated nodes.
    pub fn release(&mut self, nodes: &[u32]) {
        for &i in nodes {
            assert!(!self.free[i as usize], "double release of node {i}");
            self.free[i as usize] = true;
        }
        self.free_count += nodes.len() as u32;
    }

    /// External fragmentation: 1 − (largest free run / free nodes).
    /// Zero when all free nodes are contiguous; approaches 1 when free
    /// capacity is shattered.
    pub fn fragmentation(&self) -> f64 {
        if self.free_count == 0 {
            return 0.0;
        }
        let mut largest = 0u32;
        let mut run = 0u32;
        for &f in &self.free {
            if f {
                run += 1;
                largest = largest.max(run);
            } else {
                run = 0;
            }
        }
        1.0 - largest as f64 / self.free_count as f64
    }
}

/// Mean pairwise hop distance between the allocated nodes on `topo` —
/// the all-to-all locality of a placement. n(n-1)/2 calls of
/// [`Topology::hops`], which is O(1) arithmetic on every kind: scoring
/// a placement costs the same wherever on the machine it landed.
pub fn mean_pairwise_hops(topo: &Topology, nodes: &[u32]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    let mut pairs = 0u64;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            total += topo.hops(a, b) as u64;
            pairs += 1;
        }
    }
    total as f64 / pairs as f64
}

/// Mean hop distance between logically adjacent ranks (rank i ↔ rank
/// i+1) — the nearest-neighbour locality a halo-exchange code sees.
/// n-1 calls of `hops`.
pub fn mean_neighbor_hops(topo: &Topology, nodes: &[u32]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    let total: u64 = nodes
        .windows(2)
        .map(|w| topo.hops(w[0], w[1]) as u64)
        .sum();
    total as f64 / (nodes.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_simnet::topology::TopologyKind;

    fn torus() -> Topology {
        Topology::new(TopologyKind::Torus2D { w: 8, h: 8 })
    }

    #[test]
    fn allocate_and_release_conserve_capacity() {
        let mut pool = NodePool::new(16, 1);
        let a = pool.allocate(5, Placement::FirstFit).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.free_count(), 11);
        let b = pool.allocate(11, Placement::Random).unwrap();
        assert_eq!(pool.free_count(), 0);
        assert!(pool.allocate(1, Placement::FirstFit).is_none());
        pool.release(&a);
        pool.release(&b);
        assert_eq!(pool.free_count(), 16);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut pool = NodePool::new(4, 1);
        let a = pool.allocate(2, Placement::FirstFit).unwrap();
        pool.release(&a);
        pool.release(&a);
    }

    #[test]
    fn contiguous_prefers_tightest_run() {
        // Craft a pattern of free runs directly.
        let mut pool = NodePool::new(16, 1);
        let all = pool.allocate(16, Placement::FirstFit).unwrap();
        pool.release(&[0, 1, 2]); // run of 3
        pool.release(&[8, 9, 10, 11, 12]); // run of 5
        let _ = all;
        // A 3-wide job takes the 3-run, not the 5-run.
        let got = pool.allocate(3, Placement::Contiguous).unwrap();
        assert_eq!(got, vec![0, 1, 2]);
        // The 5-run stays intact for a 5-wide job.
        let got = pool.allocate(5, Placement::Contiguous).unwrap();
        assert_eq!(got, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn contiguous_falls_back_when_fragmented() {
        let mut pool = NodePool::new(8, 1);
        let all = pool.allocate(8, Placement::FirstFit).unwrap();
        // Free alternating nodes: no run of 2 exists.
        pool.release(&[0, 2, 4, 6]);
        let _ = all;
        let got = pool.allocate(3, Placement::Contiguous).unwrap();
        assert_eq!(got, vec![0, 2, 4]); // first-fit fallback
    }

    #[test]
    fn fragmentation_metric() {
        let mut pool = NodePool::new(8, 1);
        assert_eq!(pool.fragmentation(), 0.0);
        let all = pool.allocate(8, Placement::FirstFit).unwrap();
        pool.release(&[0, 1, 2, 3]);
        assert_eq!(pool.fragmentation(), 0.0); // one run
        pool.release(&[6]);
        let _ = all;
        // Free = {0,1,2,3,6}: largest run 4 of 5 free.
        assert!((pool.fragmentation() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn locality_scores_on_the_torus() {
        let t = torus();
        // A contiguous row of the torus: every logical neighbour is one
        // hop away.
        let row: Vec<u32> = (0..8).collect();
        assert_eq!(mean_neighbor_hops(&t, &row), 1.0);
        assert!(mean_pairwise_hops(&t, &row) <= 2.5);
        // Scattered corners are far apart.
        let scattered = vec![0, 28, 36, 63];
        assert!(mean_neighbor_hops(&t, &scattered) > 3.0);
        assert!(mean_pairwise_hops(&t, &scattered) > 3.0);
        // Degenerate cases.
        assert_eq!(mean_pairwise_hops(&t, &[5]), 0.0);
        assert_eq!(mean_neighbor_hops(&t, &[]), 0.0);
    }

    #[test]
    fn contiguous_placement_beats_random_locality_on_average() {
        let t = torus();
        let mut contiguous_hops = 0.0;
        let mut random_hops = 0.0;
        let trials = 30;
        for seed in 0..trials {
            // Pre-fragment the pool identically for both policies.
            let mut busy = NodePool::new(64, seed);
            let held = busy.allocate(20, Placement::Random).unwrap();
            let mut p1 = busy.clone();
            let mut p2 = busy;
            let a = p1.allocate(8, Placement::Contiguous).unwrap();
            let b = p2.allocate(8, Placement::Random).unwrap();
            contiguous_hops += mean_neighbor_hops(&t, &a);
            random_hops += mean_neighbor_hops(&t, &b);
            let _ = held;
        }
        assert!(
            contiguous_hops < random_hops * 0.7,
            "contiguous {contiguous_hops} vs random {random_hops}"
        );
    }
}
