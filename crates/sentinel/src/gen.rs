//! Seeded random workload specifications.
//!
//! A [`WorkloadSpec`] is a pure function of a 64-bit seed: every field —
//! topology, world size, message mix, chaos plan, collective choice —
//! is drawn from one [`SplitMix64`] stream, so a seed alone reproduces
//! a failing case bit-for-bit on any machine. Specs serialize to JSON
//! (integer fields only; probabilities are permille so the artifact is
//! exact) and shrink by proposing strictly-smaller candidate specs that
//! the driver re-runs, keeping whichever still fails.

use polaris_collectives::prelude::{
    AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, Collective,
};
use polaris_simnet::prelude::{SplitMix64, TopologyKind};
use serde::{Deserialize, Serialize};

/// The collective mix the differential oracles cycle through.
pub const COLLECTIVES: [Collective; 11] = [
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
];

/// One fuzzer case. All fields are integers so the JSON replay artifact
/// round-trips exactly; probabilities are permille (`drop_pm = 100`
/// means 10%).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The case seed every per-audit RNG re-derives from.
    pub seed: u64,
    /// Topology selector: 0 crossbar, 1 ring, 2 torus2d, 3 torus3d,
    /// 4 fat tree, 5 dragonfly, 6 multi-pod fat tree.
    pub topo_kind: u8,
    /// First topology dimension (hosts / width / k / groups).
    pub topo_a: u32,
    /// Second topology dimension (height / pods / routers-per-group).
    pub topo_b: u32,
    /// Third topology dimension (dragonfly hosts-per-router).
    pub topo_c: u32,
    /// Endpoint world size for the messaging audits.
    pub ranks: u32,
    /// Messages per sender in the messaging audits.
    pub msgs: u32,
    /// Payload bytes per message.
    pub msg_len: u32,
    /// Tag pattern stride (tag of message `j` is `j * tag_stride`).
    pub tag_stride: u64,
    /// Frame drop probability, permille.
    pub drop_pm: u32,
    /// Frame corruption probability, permille.
    pub corrupt_pm: u32,
    /// Seed for the chaos / fault plan (independent of `seed` so
    /// shrinking the workload keeps the loss pattern).
    pub chaos_seed: u64,
    /// Raw network transfers for the byte-conservation ledger.
    pub transfers: u32,
    /// Operations for the event-queue differential oracle.
    pub queue_ops: u32,
    /// Index into [`COLLECTIVES`].
    pub collective: u8,
    /// Rank count for the collective oracles.
    pub coll_ranks: u32,
    /// Collective payload bytes (vector / per-rank block size).
    pub coll_bytes: u64,
    /// Operations driven through the circuit-scheduler ledger audit.
    pub circuit_ops: u32,
    /// Circuit-scheduler capacity for the ledger audit.
    pub circuit_capacity: u32,
    /// Tokens seeded into the shard and snapshot oracles' window-edge
    /// straggler workload (`#[serde(default)]`: replay artifacts from
    /// before the field existed parse with 0, which the oracles clamp
    /// up).
    #[serde(default)]
    pub spec_tokens: u32,
    /// Hops each straggler token travels in those oracles.
    #[serde(default)]
    pub spec_hops: u32,
    /// Receive buffers in each endpoint's shared pool for the messaging
    /// audits; small pools make arrivals park at the NIC. 0 (what
    /// replay artifacts from before the field existed parse as) means
    /// the `MsgConfig` default.
    #[serde(default)]
    pub srq_bufs: u32,
}

impl WorkloadSpec {
    /// Derive a complete spec from a seed. Deterministic: the only
    /// entropy source is one `SplitMix64` stream.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = SplitMix64::new(seed);
        let mut topo_kind = r.next_below(5) as u8;
        let (mut topo_a, mut topo_b) = match topo_kind {
            0 => (2 + r.next_below(31) as u32, 0),          // crossbar 2..=32
            1 => (3 + r.next_below(22) as u32, 0),          // ring 3..=24
            2 => (2 + r.next_below(4) as u32, 2 + r.next_below(4) as u32), // torus2d
            3 => (2 + r.next_below(2) as u32, 2 + r.next_below(2) as u32), // torus3d
            _ => (4, 0),                                    // fat tree k=4 (16 hosts)
        };
        let ranks = 2 + r.next_below(4) as u32;
        let msgs = 8 + r.next_below(57) as u32;
        let msg_len = 1 + r.next_below(2048) as u32;
        let tag_stride = 1 + r.next_below(7);
        let drop_pm = [0, 20, 50, 100][r.next_below(4) as usize];
        let corrupt_pm = [0, 10, 50][r.next_below(3) as usize];
        let chaos_seed = r.next_u64();
        let transfers = 64 + r.next_below(448) as u32;
        let queue_ops = 128 + r.next_below(896) as u32;
        let collective = r.next_below(COLLECTIVES.len() as u64) as u8;
        let coll_ranks = 3 + r.next_below(22) as u32;
        let coll_bytes = 64u64 << r.next_below(9);
        // Interconnect extension draws are *appended* after every
        // legacy field so legacy seeds keep their legacy field values
        // (the frozen draw-order contract): a fraction of cases promote
        // the topology to a dragonfly or multi-pod fat tree, and every
        // case carries a circuit-ledger op budget.
        let mut topo_c = 0u32;
        match r.next_below(5) {
            2 | 3 => {
                topo_kind = 5; // dragonfly
                topo_a = 2 + r.next_below(7) as u32; // groups 2..=8
                topo_b = 1 + r.next_below(4) as u32; // routers/group 1..=4
                topo_c = 1 + r.next_below(3) as u32; // hosts/router 1..=3
            }
            4 => {
                topo_kind = 6; // multi-pod fat tree
                topo_a = if r.next_below(2) == 0 { 4 } else { 6 }; // k
                topo_b = 1 + r.next_below(topo_a as u64) as u32; // pods 1..=k
            }
            _ => {} // keep the legacy topology
        }
        let circuit_ops = 8 + r.next_below(120) as u32;
        let circuit_capacity = 1 + r.next_below(8) as u32;
        // The straggler-workload draws are likewise appended after
        // every earlier field (frozen draw-order contract).
        let spec_tokens = 1 + r.next_below(4) as u32;
        let spec_hops = 8 + r.next_below(57) as u32;
        // The receive-pool draw is appended last, too: half the cases
        // run a pool of 1..=4 buffers, the rest 5..=64.
        let srq_bufs = if r.next_below(2) == 0 {
            1 + r.next_below(4) as u32
        } else {
            5 + r.next_below(60) as u32
        };
        WorkloadSpec {
            seed,
            topo_kind,
            topo_a,
            topo_b,
            topo_c,
            ranks,
            msgs,
            msg_len,
            tag_stride,
            drop_pm,
            corrupt_pm,
            chaos_seed,
            transfers,
            queue_ops,
            collective,
            coll_ranks,
            coll_bytes,
            circuit_ops,
            circuit_capacity,
            spec_tokens,
            spec_hops,
            srq_bufs,
        }
    }

    /// Case seed mixing for iteration `iter` of base seed `base`: each
    /// (base, iter) pair lands on a distinct, reproducible case seed.
    pub fn case_seed(base: u64, iter: u64) -> u64 {
        SplitMix64::new(base ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    pub fn drop_prob(&self) -> f64 {
        self.drop_pm as f64 / 1000.0
    }

    pub fn corrupt_prob(&self) -> f64 {
        self.corrupt_pm as f64 / 1000.0
    }

    /// The simnet topology this spec names.
    pub fn topology(&self) -> TopologyKind {
        match self.topo_kind {
            0 => TopologyKind::Crossbar { hosts: self.topo_a },
            1 => TopologyKind::Ring { hosts: self.topo_a },
            2 => TopologyKind::Torus2D {
                w: self.topo_a,
                h: self.topo_b,
            },
            3 => TopologyKind::Torus3D {
                x: self.topo_a,
                y: self.topo_b,
                z: 2,
            },
            5 => TopologyKind::Dragonfly {
                groups: self.topo_a.max(1),
                routers_per_group: self.topo_b.max(1),
                hosts_per_router: self.topo_c.max(1),
            },
            6 => TopologyKind::FatTreePods {
                k: self.topo_a.max(2),
                pods: self.topo_b.clamp(1, self.topo_a.max(2)),
            },
            _ => TopologyKind::FatTree { k: 4 },
        }
    }

    /// The collective this spec names, with a payload safe for it
    /// (barriers carry no payload; alltoall payload is per-pair, so it
    /// is capped to bound the quadratic total).
    pub fn collective(&self) -> (Collective, u64) {
        let coll = COLLECTIVES[self.collective as usize % COLLECTIVES.len()];
        let bytes = match coll {
            Collective::Barrier(_) => 0,
            Collective::AlltoallPairwise => self.coll_bytes.min(4096),
            _ => self.coll_bytes,
        };
        (coll, bytes)
    }

    /// A coarse size metric the shrinker minimizes.
    pub fn size(&self) -> u64 {
        self.msgs as u64
            + self.msg_len as u64
            + self.ranks as u64
            + self.transfers as u64
            + self.queue_ops as u64
            + self.coll_ranks as u64
            + self.coll_bytes
            + self.drop_pm as u64
            + self.corrupt_pm as u64
            + self.circuit_ops as u64
            + self.circuit_capacity as u64
            + self.spec_tokens as u64
            + self.spec_hops as u64
            + self.topo_a as u64 * self.topo_b.max(1) as u64 * self.topo_c.max(1) as u64
    }

    /// Strictly-smaller mutations of this spec, in rough order of how
    /// much each simplifies the case. The shrink driver re-runs each
    /// candidate and recurses on any that still fails.
    pub fn shrink_candidates(&self) -> Vec<WorkloadSpec> {
        let mut out = Vec::new();
        let mut push = |s: WorkloadSpec| {
            if s != *self && s.size() < self.size() {
                out.push(s);
            }
        };
        // Remove the chaos first: a case that still fails lossless is
        // far easier to read.
        push(WorkloadSpec {
            drop_pm: 0,
            corrupt_pm: 0,
            ..self.clone()
        });
        // Collapse the topology to the simplest shape.
        push(WorkloadSpec {
            topo_kind: 0,
            topo_a: 4,
            topo_b: 0,
            topo_c: 0,
            ..self.clone()
        });
        push(WorkloadSpec {
            msgs: (self.msgs / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            msg_len: (self.msg_len / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            ranks: (self.ranks / 2).max(2),
            ..self.clone()
        });
        push(WorkloadSpec {
            transfers: (self.transfers / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            queue_ops: (self.queue_ops / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            coll_ranks: (self.coll_ranks / 2).max(3),
            ..self.clone()
        });
        push(WorkloadSpec {
            coll_bytes: (self.coll_bytes / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            circuit_ops: (self.circuit_ops / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            circuit_capacity: (self.circuit_capacity / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            spec_tokens: (self.spec_tokens / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            spec_hops: (self.spec_hops / 2).max(1),
            ..self.clone()
        });
        push(WorkloadSpec {
            tag_stride: 1,
            ..self.clone()
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_pure_functions_of_the_seed() {
        for seed in 0..64u64 {
            assert_eq!(WorkloadSpec::from_seed(seed), WorkloadSpec::from_seed(seed));
        }
        assert_ne!(WorkloadSpec::from_seed(1), WorkloadSpec::from_seed(2));
    }

    #[test]
    fn specs_round_trip_through_json() {
        for seed in 0..16u64 {
            let spec = WorkloadSpec::from_seed(seed);
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let spec = WorkloadSpec::from_seed(7);
        for cand in spec.shrink_candidates() {
            assert!(cand.size() < spec.size(), "{cand:?} vs {spec:?}");
        }
    }

    #[test]
    fn topologies_and_collectives_are_always_constructible() {
        for seed in 0..256u64 {
            let spec = WorkloadSpec::from_seed(seed);
            let topo = polaris_simnet::prelude::Topology::new(spec.topology());
            assert!(topo.hosts() >= 2, "seed {seed}");
            let (_, bytes) = spec.collective();
            assert!(bytes <= spec.coll_bytes);
        }
    }
}
