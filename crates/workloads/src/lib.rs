//! Application workload compilers: from arch kernels to DES traffic.
//!
//! The keynote's trans-Petaflops argument is about *delivered*
//! application performance, not peak. This crate closes that loop: it
//! compiles five representative cluster applications into per-rank
//! [`Program`]s whose compute phases are priced by the roofline
//! model ([`polaris_arch::roofline::attainable`]) and whose
//! communication runs through the sharded conservative-parallel engine
//! over a real interconnect topology ([`fabric::Fabric`]). A node track
//! (PC, blade, CMP, PIM) therefore changes the virtual-time length of
//! every compute phase, and an interconnect generation changes every
//! message — the resulting *effective* FLOP/s curves are what figure
//! F14 feeds back into [`polaris_arch::projection`].
//!
//! The five workloads:
//!
//! * [`stencil`] — iterative halo exchange on a 2-D/3-D decomposition
//!   (the 512-CPU astrophysics Beowulf profile),
//! * [`training`] — bulk-synchronous data-parallel training, allreduce
//!   bound, hierarchical on grouped fabrics,
//! * [`paramserver`] — parameter-server push/pull,
//! * [`shuffle`] — MapReduce-style all-to-all shuffle,
//! * [`serving`] — a latency-SLO key-value tier with open-loop Poisson
//!   arrivals, reporting its p99.
//!
//! Every generator is a pure function of its config. A program holds
//! the ops a compiler writes itself ([`SchedOp::Work`] phases, halo and
//! push/pull messages) and keeps each collective it splices in as the
//! collective's arguments and a rank map; the executor expands a splice
//! only when the rank reaches it, so no collective schedule is ever
//! collected. The four compiled workloads run through
//! [`polaris_collectives::parsim::simulate_programs_sharded`],
//! bit-identical at any `--jobs`/shard count, which
//! `tests/workloads.rs` holds as an oracle. The serving tier's replicas never exchange an event, so it
//! needs no engine: each replica's queue is one Lindley loop.

pub mod fabric;
pub mod paramserver;
pub mod serving;
pub mod shuffle;
pub mod stencil;
pub mod training;

use polaris_arch::kernels::Kernel;
use polaris_arch::node::NodeModel;
use polaris_arch::roofline;
use polaris_collectives::program::Program;
use polaris_collectives::simx::{ExecParams, SchedOp};
use polaris_simnet::time::{SimDuration, PS_PER_SEC};

pub use fabric::Fabric;

/// Virtual-time cost, in picoseconds, of performing `flops` of `kernel`
/// work on `node` — the bridge from the roofline model to
/// [`SchedOp::Work`]. Always at least 1 ps so a compute phase never
/// collapses into a zero-length event.
pub fn phase_ps(node: &NodeModel, kernel: &Kernel, flops: f64) -> u64 {
    let rate = roofline::attainable(node, kernel);
    ((flops / rate) * PS_PER_SEC as f64).ceil().max(1.0) as u64
}

/// The workload suite of figure F14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 3-D halo-exchange stencil (astrophysics Beowulf profile).
    Stencil,
    /// Bulk-synchronous data-parallel training (allreduce bound).
    Training,
    /// Parameter-server push/pull.
    ParamServer,
    /// MapReduce shuffle (all-to-all).
    Shuffle,
    /// Latency-SLO key-value serving (open-loop, p99 reported).
    Serving,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Stencil,
        WorkloadKind::Training,
        WorkloadKind::ParamServer,
        WorkloadKind::Shuffle,
        WorkloadKind::Serving,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Stencil => "stencil",
            WorkloadKind::Training => "training",
            WorkloadKind::ParamServer => "param-server",
            WorkloadKind::Shuffle => "shuffle",
            WorkloadKind::Serving => "serving",
        }
    }
}

/// A compiled workload: per-rank programs plus the accounting the
/// simulator cannot reconstruct from timing alone.
pub struct Compiled {
    /// `programs[r]` is rank `r`'s program.
    pub programs: Vec<Program>,
    /// Application-useful flops across all ranks (excludes reduction
    /// arithmetic spliced in by collective schedules).
    pub useful_flops: f64,
}

/// What one workload run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadResult {
    /// Virtual time the slowest rank finished.
    pub completion: SimDuration,
    pub messages: u64,
    pub payload_bytes: u64,
    /// Virtual time the busiest rank spent in local work (roofline
    /// phases plus spliced reduction arithmetic).
    pub compute: SimDuration,
    /// Application-useful flops across all ranks.
    pub useful_flops: f64,
    /// p99 request latency, serving tier only.
    pub p99: Option<SimDuration>,
}

impl WorkloadResult {
    /// Fraction of the critical path spent *not* computing — the
    /// comm-to-compute ratio the astrophysics paper reports.
    pub fn comm_fraction(&self) -> f64 {
        if self.completion.0 == 0 {
            return 0.0;
        }
        (1.0 - self.compute.0 as f64 / self.completion.0 as f64).clamp(0.0, 1.0)
    }

    /// Delivered application FLOP/s across the whole run — the
    /// "effective, not peak" number F14 plots.
    pub fn effective_flops(&self) -> f64 {
        if self.completion.0 == 0 {
            return 0.0;
        }
        self.useful_flops / self.completion.as_secs()
    }
}

/// Busiest rank's total local-work virtual time: roofline-priced
/// [`SchedOp::Work`] plus [`SchedOp::Compute`] at the executor's
/// reduction throughput.
fn max_compute_ps(programs: &[Program], params: &ExecParams) -> u64 {
    programs
        .iter()
        .map(|program| {
            program
                .ops()
                .map(|op| match op {
                    SchedOp::Work { ps } => ps,
                    SchedOp::Compute { bytes } => {
                        SimDuration::from_secs_f64(bytes as f64 / params.compute_bps as f64).0
                    }
                    _ => 0,
                })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// Run a compiled workload over a fabric, sharded across `jobs` engine
/// shards. Bit-identical at any `jobs` value.
pub fn run_compiled(compiled: Compiled, fabric: &Fabric, jobs: u32) -> WorkloadResult {
    let params = ExecParams::default();
    let compute = SimDuration(max_compute_ps(&compiled.programs, &params));
    let (res, _) = fabric.run(compiled.programs, params, jobs);
    WorkloadResult {
        completion: res.completion,
        messages: res.messages,
        payload_bytes: res.payload_bytes,
        compute,
        useful_flops: compiled.useful_flops,
        p99: None,
    }
}

/// Compile one of the four program-driven workloads at its
/// figure-scale default config for `p` ranks of `node` on `fabric`;
/// `None` for the serving tier, which has no programs.
fn compile(kind: WorkloadKind, node: &NodeModel, fabric: &Fabric, p: u32) -> Option<Compiled> {
    Some(match kind {
        WorkloadKind::Stencil => stencil::compile(&stencil::StencilConfig::default(), node, p),
        WorkloadKind::Training => {
            training::compile(&training::TrainingConfig::for_fabric(fabric), node, p)
        }
        WorkloadKind::ParamServer => {
            paramserver::compile(&paramserver::ParamServerConfig::default(), node, p)
        }
        WorkloadKind::Shuffle => shuffle::compile(&shuffle::ShuffleConfig::default(), node, p),
        WorkloadKind::Serving => return None,
    })
}

/// Run one suite workload at its figure-scale default config: `p` ranks
/// of `node` over `fabric`, sharded across `jobs` engine shards (the
/// serving tier has no engine and ignores `jobs`).
pub fn run_workload(
    kind: WorkloadKind,
    node: &NodeModel,
    fabric: &Fabric,
    p: u32,
    jobs: u32,
) -> WorkloadResult {
    match compile(kind, node, fabric, p) {
        Some(compiled) => run_compiled(compiled, fabric, jobs),
        None => serving::run(&serving::ServingConfig::default(), node, fabric, p, jobs),
    }
}

/// An upper bound on `run_workload(kind, node, fabric, p, _)
/// .effective_flops()`, found without running the engine: the useful
/// flops divided by the busiest rank's own local work.
///
/// The bound holds because a run's completion is never shorter than
/// that work:
/// - A compiled workload's rank runs its ops in order, and `parsim`
///   charges each [`SchedOp::Work`] and [`SchedOp::Compute`] with the
///   expression `max_compute_ps` sums. So the slowest rank finishes no
///   earlier than the busiest rank's compute.
/// - A serving replica starts each request no earlier than the last
///   one ended, so at best it serves its requests back to back
///   (`serving::busy_ps`), and its last response still crosses the
///   wire.
///
/// [`WorkloadResult::effective_flops`] is the same float expression,
/// `useful_flops / secs`, over the completion, and integer-to-float
/// conversion and division are monotone. So the bound is at least the
/// simulated rate to the last bit.
pub fn effective_bound(kind: WorkloadKind, node: &NodeModel, fabric: &Fabric, p: u32) -> f64 {
    let (useful_flops, busiest) = match compile(kind, node, fabric, p) {
        Some(compiled) => {
            (compiled.useful_flops, max_compute_ps(&compiled.programs, &ExecParams::default()))
        }
        None => {
            let cfg = serving::ServingConfig::default();
            (serving::useful_flops(&cfg, p), serving::busy_ps(&cfg, node))
        }
    };
    useful_flops / SimDuration(busiest).as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_arch::device::Projection;
    use polaris_arch::kernels::{DGEMM, GUPS};
    use polaris_arch::node::NodeKind;

    fn node(kind: NodeKind, year: u32) -> NodeModel {
        NodeModel::build(kind, &Projection::default().at(year))
    }

    #[test]
    fn phase_ps_inverts_the_roofline() {
        let n = node(NodeKind::Pc, 2002);
        // One second of peak DGEMM work takes one second of virtual time.
        let ps = phase_ps(&n, &DGEMM, roofline::attainable(&n, &DGEMM));
        assert_eq!(ps, PS_PER_SEC);
        // GUPS on the same node is latency-bound: far slower per flop.
        assert!(phase_ps(&n, &GUPS, 1e6) > phase_ps(&n, &DGEMM, 1e6));
        // Never zero.
        assert_eq!(phase_ps(&n, &DGEMM, 0.0), 1);
    }

    #[test]
    fn node_tracks_produce_different_phase_lengths() {
        let pc = node(NodeKind::Pc, 2006);
        let cmp = node(NodeKind::SmpOnChip, 2006);
        let pim = node(NodeKind::Pim, 2006);
        // CMP wins dense work; PIM wins random access.
        assert!(phase_ps(&cmp, &DGEMM, 1e9) < phase_ps(&pc, &DGEMM, 1e9));
        assert!(phase_ps(&pim, &GUPS, 1e6) < phase_ps(&pc, &GUPS, 1e6));
    }

    /// FNV-1a over `(completion ps, messages, payload_bytes)` of one
    /// compiled workload on the four standard fabrics at 16 and 64
    /// ranks: the picoseconds F14 plots.
    fn completion_digest(kind: WorkloadKind) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let n = node(NodeKind::Pc, 2002);
        for p in [16u32, 64] {
            for fabric in Fabric::standard(p) {
                let r = run_workload(kind, &n, &fabric, p, 1);
                mix(r.completion.0);
                mix(r.messages);
                mix(r.payload_bytes);
            }
        }
        h
    }

    /// Taken from the executor that kept one hashed queue per sender
    /// and receiver.
    #[test]
    fn compiled_workloads_match_pinned_digests() {
        const KINDS: [WorkloadKind; 4] = [
            WorkloadKind::Stencil,
            WorkloadKind::Training,
            WorkloadKind::ParamServer,
            WorkloadKind::Shuffle,
        ];
        const PINNED: [u64; 4] = [
            0x8be02513cfd58ecb,
            0xb2efc5fd8f6841cb,
            0x3742efec92f79899,
            0xe6534eebec3348a1,
        ];
        let got = KINDS.map(completion_digest);
        assert_eq!(got, PINNED, "workload digests moved: {got:#018x?}");
    }

    /// FNV-1a over every rank's op sequence, as each of the four
    /// compilers emits it for the four standard fabrics at 16 and 64
    /// ranks (the fabric moves training's group size).
    fn program_digest(kind: WorkloadKind) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let n = node(NodeKind::Pc, 2002);
        for p in [16u32, 64] {
            for fabric in Fabric::standard(p) {
                let compiled = compile(kind, &n, &fabric, p).expect("serving has no program");
                for program in &compiled.programs {
                    for op in program.ops() {
                        match op {
                            SchedOp::Send { to, bytes } => [0, to as u64, bytes].map(&mut mix),
                            SchedOp::Recv { from } => [1, from as u64, 0].map(&mut mix),
                            SchedOp::Compute { bytes } => [2, bytes, 0].map(&mut mix),
                            SchedOp::Work { ps } => [3, ps, 0].map(&mut mix),
                        };
                    }
                    mix(u64::MAX);
                }
            }
        }
        h
    }

    /// Taken from the compilers that built every collective splice
    /// into a `Vec` of ops.
    #[test]
    fn programs_match_pinned_digests() {
        const KINDS: [WorkloadKind; 4] = [
            WorkloadKind::Stencil,
            WorkloadKind::Training,
            WorkloadKind::ParamServer,
            WorkloadKind::Shuffle,
        ];
        const PINNED: [u64; 4] = [
            0xfd83db7b4f8f9f25,
            0xdfc69aa2cc63d325,
            0x6d734fce57edd025,
            0xb0242ecf3014d125,
        ];
        let got = KINDS.map(program_digest);
        assert_eq!(got, PINNED, "program digests moved: {got:#018x?}");
    }

    #[test]
    fn every_workload_runs_and_accounts() {
        let n = node(NodeKind::Pc, 2002);
        let fabric = Fabric::crossbar(polaris_simnet::link::Generation::GigabitEthernet, 8);
        for kind in WorkloadKind::ALL {
            let r = run_workload(kind, &n, &fabric, 8, 1);
            assert!(r.completion > SimDuration::ZERO, "{}", kind.name());
            assert!(r.useful_flops > 0.0, "{}", kind.name());
            assert!(r.messages > 0, "{}", kind.name());
            let cf = r.comm_fraction();
            assert!((0.0..=1.0).contains(&cf), "{} comm {cf}", kind.name());
            assert!(r.effective_flops() > 0.0, "{}", kind.name());
            assert_eq!(r.p99.is_some(), kind == WorkloadKind::Serving);
        }
    }
}
