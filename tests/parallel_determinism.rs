//! Serial-vs-parallel determinism oracle for the sharded engine and the
//! sweep harness.
//!
//! The contract under test: running the same model partitioned across
//! 1, 2, or 4 engine shards — serially or on worker threads — produces
//! *bit-identical* results, and regenerating figures with multi-job
//! sweeps produces byte-identical tables, Prometheus exports, and
//! flight-recorder JSONL. Determinism comes from the `(time, key)`
//! total order (keys derived from global identities, never shard ids)
//! and from merging per-point observability bundles in point-index
//! order; these tests are the oracle that pins both mechanisms from the
//! outside.

use polaris_bench::figures::{f11_chaos, f2_p2p, f3_collectives};
use polaris_bench::sweep;
use polaris_collectives::prelude::{
    simulate_collective, simulate_collective_sharded, AllgatherAlgo, AllreduceAlgo, BarrierAlgo,
    BcastAlgo, Collective, ExecParams,
};
use polaris_obs::Obs;
use polaris_simnet::prelude::{Generation, Network, Topology, TopologyKind};

const WORKLOADS: &[(Collective, u64)] = &[
    (Collective::Barrier(BarrierAlgo::Dissemination), 0),
    (Collective::Bcast(BcastAlgo::Binomial), 1 << 18),
    (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 1 << 12),
    (Collective::Allreduce(AllreduceAlgo::Ring), 1 << 20),
    (Collective::Allgather(AllgatherAlgo::Bruck), 1 << 14),
];

/// The sharded executor returns bit-identical virtual times and message
/// ledgers at every shard count, threaded or not, across collectives,
/// rank counts (including non-powers-of-two), and link generations.
#[test]
fn sharded_runs_are_identical_at_1_2_4_shards() {
    for &(coll, bytes) in WORKLOADS {
        for p in [24u32, 64] {
            for link in [
                Generation::GigabitEthernet.link_model(),
                Generation::InfiniBand4x.link_model(),
            ] {
                let base =
                    simulate_collective_sharded(p, coll, bytes, ExecParams::default(), link, 1);
                for jobs in [2u32, 4] {
                    let run = simulate_collective_sharded(
                        p,
                        coll,
                        bytes,
                        ExecParams::default(),
                        link,
                        jobs,
                    );
                    assert_eq!(
                        run.completion, base.completion,
                        "{coll:?} p={p} jobs={jobs}: virtual completion must not depend on shard count"
                    );
                    assert_eq!(run.messages, base.messages, "{coll:?} p={p} jobs={jobs}");
                    assert_eq!(run.payload_bytes, base.payload_bytes, "{coll:?} p={p} jobs={jobs}");
                }
            }
        }
    }
}

/// The sharded executor and the serial flow-level executor agree on the
/// message/payload ledgers (they resolve crossbar contention in
/// different deterministic orders, so virtual times differ — counts
/// must not).
#[test]
fn sharded_message_ledger_matches_serial_executor() {
    for &(coll, bytes) in WORKLOADS {
        let p = 48u32;
        let link = Generation::GigabitEthernet.link_model();
        let sharded = simulate_collective_sharded(p, coll, bytes, ExecParams::default(), link, 4);
        let mut net = Network::new(Topology::new(TopologyKind::Crossbar { hosts: p }), link);
        let serial = simulate_collective(&mut net, coll, bytes, ExecParams::default());
        assert_eq!(sharded.messages, serial.messages, "{coll:?}");
        assert_eq!(sharded.payload_bytes, serial.payload_bytes, "{coll:?}");
    }
}

/// Figure regeneration is byte-identical at any sweep job count: the
/// rendered tables AND the observability exports (Prometheus text,
/// flight-recorder JSONL) that the sweeps publish through per-point
/// isolated bundles. Job counts are toggled sequentially inside this
/// one test because the sweep job count is process-global.
#[test]
fn figure_tables_and_exports_are_job_count_invariant() {
    let render = |jobs: usize| {
        sweep::set_jobs(jobs);
        let obs = Obs::new();
        let mut out = String::new();
        for table in f2_p2p::generate_with(&obs) {
            out.push_str(&table.render());
        }
        for table in f3_collectives::generate() {
            out.push_str(&table.render());
        }
        for table in f11_chaos::generate_with(&obs) {
            out.push_str(&table.render());
        }
        (out, obs.prometheus(), obs.recorder.to_jsonl())
    };
    let serial = render(1);
    assert!(!serial.0.is_empty() && !serial.1.is_empty() && !serial.2.is_empty());
    for jobs in [2usize, 4] {
        let parallel = render(jobs);
        assert_eq!(parallel.0, serial.0, "tables must not depend on jobs={jobs}");
        assert_eq!(parallel.1, serial.1, "registry export must not depend on jobs={jobs}");
        assert_eq!(parallel.2, serial.2, "trace JSONL must not depend on jobs={jobs}");
    }
    sweep::set_jobs(1);
}

/// Differential routing oracle at figure scale: the O(1) arithmetic
/// `RoutePlan` must agree with the retained reference graph
/// (`walk_route` over explicit adjacency) link-for-link, in order, on
/// every legacy topology kind at ≤4k hosts — plus the two new kinds.
/// Small instances compare every pair; the 4k-host instances a seeded
/// 20k-pair sample (the reference graph is the part that cannot scale,
/// which is the point of the refactor).
#[test]
fn route_plan_matches_reference_at_scale() {
    use polaris_simnet::prelude::{Routing, SplitMix64};
    let kinds = [
        TopologyKind::Crossbar { hosts: 4096 },
        TopologyKind::Ring { hosts: 4096 },
        TopologyKind::Torus2D { w: 64, h: 64 },
        TopologyKind::Torus3D { x: 16, y: 16, z: 16 },
        TopologyKind::FatTree { k: 16 },
        TopologyKind::FatTreePods { k: 8, pods: 6 },
        TopologyKind::Dragonfly {
            groups: 16,
            routers_per_group: 16,
            hosts_per_router: 16,
        },
    ];
    for kind in kinds {
        for routing in [Routing::Minimal, Routing::Valiant { seed: 0xD1CE }] {
            let topo = Topology::new_reference(kind).with_routing(routing);
            let hosts = topo.hosts();
            let mut rng = SplitMix64::new(0x524F_5554_4553_3442 ^ hosts as u64);
            for i in 0..20_000u32 {
                let s = rng.next_below(hosts as u64) as u32;
                let d = rng.next_below(hosts as u64) as u32;
                let plan = topo.route(s, d);
                let reference = topo.route_reference(s, d);
                assert_eq!(
                    plan, reference,
                    "{kind:?} {routing:?} {s}->{d} (sample {i})"
                );
                assert_eq!(topo.hops(s, d) as usize, plan.len());
            }
        }
    }
}

/// The hierarchical allreduce (group-local stages + leader stage over
/// reserved circuits or packets) is bit-identical at 1, 2, and 4
/// simulation shards — same contract as the flat sharded executor.
#[test]
fn hier_allreduce_is_jobs_invariant() {
    use polaris_collectives::prelude::{simulate_hier_allreduce, InterGroup};
    use polaris_simnet::prelude::CircuitSchedulerConfig;
    let link = Generation::Optical.link_model();
    for inter in [
        InterGroup::Packet,
        InterGroup::Circuits(CircuitSchedulerConfig::default()),
    ] {
        let base = simulate_hier_allreduce(32, 64, 1 << 20, ExecParams::default(), link, inter, 1);
        for jobs in [2u32, 4] {
            let run =
                simulate_hier_allreduce(32, 64, 1 << 20, ExecParams::default(), link, inter, jobs);
            assert_eq!(
                run.completion, base.completion,
                "hier {inter:?} jobs={jobs}: completion must not depend on shard count"
            );
            assert_eq!(
                (run.local_reduce, run.inter_group, run.local_bcast, run.global_messages),
                (base.local_reduce, base.inter_group, base.local_bcast, base.global_messages),
                "hier {inter:?} jobs={jobs}: stage breakdown must not depend on shard count"
            );
        }
    }
}
