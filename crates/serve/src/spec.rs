//! Request specs the sweep server answers, and their canonical
//! encodings.
//!
//! A [`PointSpec`] names one figure cell — topology scale, collective,
//! payload — exactly the way the F3 generator enumerates them. The
//! canonical encoding writes the *semantic* fields (not any derived or
//! presentational state), so two requests for the same cell address
//! the same cache entry no matter who built them.

use crate::canonical::{Canonical, CanonicalBuf};
use polaris_collectives::prelude::*;
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::topology::{Topology, TopologyKind};

/// One sweep point: a collective at a scale with a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Node count; fat tree where a k fits exactly (16/128/1024),
    /// crossbar otherwise. Figure F3 computes its cells through
    /// [`PointSpec::compute`], so the mapping has one home.
    pub nodes: u32,
    pub collective: Collective,
    pub payload_bytes: u64,
}

impl Canonical for PointSpec {
    fn encode(&self, buf: &mut CanonicalBuf) {
        buf.u64("nodes", self.nodes as u64);
        buf.str("collective", collective_name(self.collective));
        buf.u64("payload_bytes", self.payload_bytes);
    }
}

/// `Collective` is a plain C-like tree of unit payloads; its Debug
/// rendering is a stable, injective name for the variant
/// ("Allreduce(Ring)"), which is exactly what a canonical encoding
/// needs. Spelled out so the request path formats nothing; with no
/// wildcard arm, a new variant does not compile until it is named here.
fn collective_name(c: Collective) -> &'static str {
    match c {
        Collective::Barrier(BarrierAlgo::Dissemination) => "Barrier(Dissemination)",
        Collective::Barrier(BarrierAlgo::Tree) => "Barrier(Tree)",
        Collective::Bcast(BcastAlgo::Binomial) => "Bcast(Binomial)",
        Collective::Bcast(BcastAlgo::ScatterAllgather) => "Bcast(ScatterAllgather)",
        Collective::Allreduce(AllreduceAlgo::RecursiveDoubling) => "Allreduce(RecursiveDoubling)",
        Collective::Allreduce(AllreduceAlgo::Ring) => "Allreduce(Ring)",
        Collective::Allreduce(AllreduceAlgo::ReduceBcast) => "Allreduce(ReduceBcast)",
        Collective::Allgather(AllgatherAlgo::Ring) => "Allgather(Ring)",
        Collective::Allgather(AllgatherAlgo::Bruck) => "Allgather(Bruck)",
        Collective::AlltoallPairwise => "AlltoallPairwise",
        Collective::ReduceBinomial => "ReduceBinomial",
    }
}

/// The simulated answer for one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointResult {
    /// Completion time of the slowest rank, picoseconds.
    pub completion_ps: u64,
    /// Messages the collective put on the network.
    pub messages: u64,
    /// Payload bytes presented to the network.
    pub payload_bytes: u64,
}

impl PointResult {
    /// Bytes this result charges against a cache budget.
    pub fn cache_bytes(&self) -> u64 {
        std::mem::size_of::<PointResult>() as u64
    }
}

fn net(p: u32) -> Network {
    let topo = match p {
        16 => Topology::new(TopologyKind::FatTree { k: 4 }),
        128 => Topology::new(TopologyKind::FatTree { k: 8 }),
        1024 => Topology::new(TopologyKind::FatTree { k: 16 }),
        _ => Topology::new(TopologyKind::Crossbar { hosts: p }),
    };
    Network::new(topo, Generation::InfiniBand4x.link_model())
}

impl PointSpec {
    /// Run the simulation for this point (the cache-miss path).
    pub fn compute(&self) -> PointResult {
        let r = simulate_collective(
            &mut net(self.nodes),
            self.collective,
            self.payload_bytes,
            ExecParams::default(),
        );
        PointResult {
            completion_ps: r.completion.0,
            messages: r.messages,
            payload_bytes: r.payload_bytes,
        }
    }
}

/// The full spec space a figure sweep (and the Zipf client population)
/// draws from: every (scale, collective, payload) cell of the F3-style
/// sweep at the given scales.
pub fn figure_specs(scales: &[u32]) -> Vec<PointSpec> {
    let mut specs = Vec::new();
    for &p in scales {
        for (collective, payload_bytes) in [
            (Collective::Barrier(BarrierAlgo::Dissemination), 0),
            (Collective::Barrier(BarrierAlgo::Tree), 0),
            (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 64),
            (Collective::Allreduce(AllreduceAlgo::Ring), 64),
            (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 64),
            (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 1 << 16),
            (Collective::Allreduce(AllreduceAlgo::Ring), 1 << 16),
            (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 1 << 16),
            (Collective::Bcast(BcastAlgo::Binomial), 1 << 14),
            (Collective::Bcast(BcastAlgo::ScatterAllgather), 1 << 14),
        ] {
            specs.push(PointSpec { nodes: p, collective, payload_bytes });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::SpecHash;

    #[test]
    fn distinct_cells_get_distinct_addresses() {
        let specs = figure_specs(&[4, 16, 64]);
        let mut hashes: Vec<_> = specs.iter().map(SpecHash::of).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), specs.len(), "spec space must be collision-free");
    }

    #[test]
    fn collective_names_are_the_debug_rendering() {
        for c in [
            Collective::Barrier(BarrierAlgo::Dissemination),
            Collective::Barrier(BarrierAlgo::Tree),
            Collective::Bcast(BcastAlgo::Binomial),
            Collective::Bcast(BcastAlgo::ScatterAllgather),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            Collective::Allreduce(AllreduceAlgo::Ring),
            Collective::Allreduce(AllreduceAlgo::ReduceBcast),
            Collective::Allgather(AllgatherAlgo::Ring),
            Collective::Allgather(AllgatherAlgo::Bruck),
            Collective::AlltoallPairwise,
            Collective::ReduceBinomial,
        ] {
            assert_eq!(collective_name(c), format!("{c:?}"));
        }
    }

    #[test]
    fn recomputation_is_deterministic() {
        let spec = PointSpec {
            nodes: 16,
            collective: Collective::Allreduce(AllreduceAlgo::Ring),
            payload_bytes: 1 << 16,
        };
        assert_eq!(spec.compute(), spec.compute());
        assert!(spec.compute().completion_ps > 0);
    }
}
