//! Workload-generator determinism and calibration oracles.
//!
//! Three contracts: (1) every workload is bit-identical at any shard/job
//! count (the serving tier has no engine, so trivially) — the same invariance
//! `tests/parallel_determinism.rs` holds for the collectives; (2) the
//! stencil's comm-to-compute ratio on 2002 commodity hardware lands in
//! the 5–30% band the 512-CPU astrophysics Beowulf runs reported; (3) the
//! engine-free `effective_bound` F14c prunes with is never below the
//! simulated rate.

use polaris_arch::device::Projection;
use polaris_arch::node::{NodeKind, NodeModel};
use polaris_simnet::link::Generation;
use polaris_workloads::{effective_bound, run_workload, Fabric, WorkloadKind};

fn node(kind: NodeKind, year: u32) -> NodeModel {
    NodeModel::build(kind, &Projection::default().at(year))
}

#[test]
fn every_workload_is_bit_identical_across_job_counts() {
    let n = node(NodeKind::SmpOnChip, 2006);
    let p = 32u32;
    for fabric in Fabric::standard(p) {
        for kind in WorkloadKind::ALL {
            let base = run_workload(kind, &n, &fabric, p, 1);
            for jobs in [2u32, 4] {
                let r = run_workload(kind, &n, &fabric, p, jobs);
                assert_eq!(r, base, "{} on {} jobs={jobs}", kind.name(), fabric.name());
            }
        }
    }
}

#[test]
fn effective_bound_is_never_below_the_simulated_rate() {
    // F14c's node track and world size, at the horizon's first year,
    // F14a's year and its last year.
    let p = 64u32;
    for year in [2002u32, 2008, 2020] {
        let n = node(NodeKind::SmpOnChip, year);
        for fabric in Fabric::standard(p) {
            for kind in WorkloadKind::ALL {
                let bound = effective_bound(kind, &n, &fabric, p);
                let simulated = run_workload(kind, &n, &fabric, p, 1).effective_flops();
                assert!(
                    bound >= simulated,
                    "{} on {} in {year}: bound {bound:e} < simulated {simulated:e}",
                    kind.name(),
                    fabric.name()
                );
            }
        }
    }
}

#[test]
fn stencil_comm_fraction_matches_the_beowulf_band() {
    // The astrophysics paper's production profile: 512 CPUs, commodity
    // gigabit-class fabric, ~5 GF PC nodes, communication 5–30% of the
    // runtime.
    let n = node(NodeKind::Pc, 2002);
    let fabric = Fabric::crossbar(Generation::GigabitEthernet, 512);
    let r = run_workload(WorkloadKind::Stencil, &n, &fabric, 512, 4);
    let cf = r.comm_fraction();
    assert!(
        (0.05..=0.30).contains(&cf),
        "stencil comm fraction {cf:.3} outside the reported 5-30% band"
    );
    eprintln!(
        "stencil 512 ranks: comm {:.1}% completion {:.3}s eff {:.3} GF/s",
        cf * 100.0,
        r.completion.as_secs(),
        r.effective_flops() / 1e9
    );
}

#[test]
fn workload_shapes_separate_fabrics_and_tracks() {
    let p = 32u32;
    // Shuffle (all-to-all) on a faster link generation must not finish
    // later than on the 2002 commodity wire, whatever the topology.
    let cmp = node(NodeKind::SmpOnChip, 2006);
    let slow = run_workload(
        WorkloadKind::Shuffle,
        &cmp,
        &Fabric::crossbar(Generation::FastEthernet, p),
        p,
        2,
    );
    let fast = run_workload(
        WorkloadKind::Shuffle,
        &cmp,
        &Fabric::crossbar(Generation::InfiniBand4x, p),
        p,
        2,
    );
    assert!(fast.completion < slow.completion);

    // Node tracks separate: CMP finishes the dense training step
    // faster than the 2002 PC on the identical fabric.
    let fabric = Fabric::fat_tree(Generation::InfiniBand4x, p);
    let pc = run_workload(WorkloadKind::Training, &node(NodeKind::Pc, 2006), &fabric, p, 2);
    let cmp_r = run_workload(WorkloadKind::Training, &cmp, &fabric, p, 2);
    assert!(cmp_r.completion < pc.completion);
    assert!(cmp_r.comm_fraction() > pc.comm_fraction());
}
