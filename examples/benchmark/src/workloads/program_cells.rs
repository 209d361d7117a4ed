//! `program_cells_jobs1` / `program_cells_jobs2`: the sharded program
//! executor (`collectives::parsim` over `simnet::shard`) on the five
//! application workloads and one ring allreduce, at one shard and at
//! two. The cell list is identical, so the ratio of the two `wall_s` is
//! the engine's parallel speed-up, and a change that buys one path at
//! the cost of the other shows as one row improving and one regressing.

use super::{rng, Cell, Laps, Metrics, SpanView, Workload};
use crate::trace::Tracer;
use polaris_arch::prelude::*;
use polaris_collectives::parsim::simulate_collective_sharded_stats;
use polaris_collectives::prelude::*;
use polaris_simnet::link::Generation;
use polaris_simnet::shard::ShardRunStats;
use polaris_workloads::{paramserver, run_compiled, serving, shuffle, stencil, training};
use polaris_workloads::{Fabric, WorkloadKind, WorkloadResult};
use serde_json::value::Value;

const RING_BYTES: u64 = 1 << 20;

pub struct ProgramCells {
    jobs: u32,
    ranks: u32,
    ring_ranks: u32,
    node: NodeModel,
    /// Wide (3 us gigabit) and narrow (InfiniBand) lookahead.
    fabrics: Vec<Fabric>,
    stencil: stencil::StencilConfig,
    model_bytes: u64,
    paramserver: paramserver::ParamServerConfig,
    shuffle: shuffle::ShuffleConfig,
    serving: serving::ServingConfig,
    /// The statistics of the same cells at `jobs = 1`, which any other
    /// job count must reproduce bit for bit.
    reference: Option<Vec<Value>>,
    /// Engine counts of the last ring cell.
    ring_stats: Option<ShardRunStats>,
}

impl ProgramCells {
    pub fn setup(seed: u64, smoke: bool, jobs: u32, tr: &mut Tracer) -> Self {
        // The cells of F14 and of `figures perf`. The seed moves the
        // workloads' payload sizes a little (see `flow_collectives`) and
        // makes the serving tier's arrival stream; the ring cell keeps its
        // 1 MiB, because there a two-byte change of the chunk size moves
        // the host time of the speculating engine by 8 %.
        let mut r = rng(seed, 0xce11);
        let ranks = if smoke { 32 } else { 128 };
        let mut this = ProgramCells {
            jobs: 1,
            ranks,
            ring_ranks: if smoke { 64 } else { 256 },
            node: NodeModel::build(NodeKind::SmpOnChip, &Projection::default().at(2008)),
            fabrics: vec![
                Fabric::crossbar(Generation::GigabitEthernet, ranks),
                Fabric::fat_tree(Generation::InfiniBand4x, ranks),
            ],
            stencil: stencil::StencilConfig {
                side: 256 - r.next_below(8),
                ..Default::default()
            },
            model_bytes: (1 << 24) - 4096 * r.next_below(16),
            paramserver: paramserver::ParamServerConfig {
                shard_bytes: (1 << 20) - 1024 * r.next_below(16),
                ..Default::default()
            },
            shuffle: shuffle::ShuffleConfig {
                bytes_per_pair: (1 << 16) - 64 * r.next_below(16),
                ..Default::default()
            },
            serving: serving::ServingConfig {
                seed: r.next_u64(),
                requests_per_server: 128,
                ..Default::default()
            },
            reference: None,
            ring_stats: None,
        };
        if jobs > 1 {
            let open = tr.begin("program_cells.reference_jobs1");
            this.reference = Some(
                this.run_cells(&mut Tracer::new(false), &mut Laps::start())
                    .into_iter()
                    .map(|c| c.stats)
                    .collect(),
            );
            tr.end(open, 1);
            this.jobs = jobs;
        }
        this
    }

    fn run_kind(&self, kind: WorkloadKind, fabric: &Fabric, tr: &mut Tracer) -> WorkloadResult {
        let (node, p) = (&self.node, self.ranks);
        if kind == WorkloadKind::Serving {
            return tr.time("workloads.serving.run", || {
                serving::run(&self.serving, node, fabric, p, self.jobs)
            });
        }
        let compiled = tr.time("workloads.compile", || match kind {
            WorkloadKind::Stencil => stencil::compile(&self.stencil, node, p),
            WorkloadKind::Training => {
                let cfg = training::TrainingConfig {
                    model_bytes: self.model_bytes,
                    ..training::TrainingConfig::for_fabric(fabric)
                };
                training::compile(&cfg, node, p)
            }
            WorkloadKind::ParamServer => paramserver::compile(&self.paramserver, node, p),
            WorkloadKind::Shuffle => shuffle::compile(&self.shuffle, node, p),
            WorkloadKind::Serving => unreachable!("serving has no compiled program"),
        });
        tr.time("workloads.run_compiled", || {
            run_compiled(compiled, fabric, self.jobs)
        })
    }

    fn run_cells(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            for fabric in &self.fabrics {
                let open = tr.begin(&format!("workloads.cell.{}", kind.name()));
                let r = self.run_kind(kind, fabric, tr);
                tr.end(open, r.messages);
                laps.lap();
                cells.push(Cell::new(
                    format!("{}/{}", kind.name(), fabric.name()),
                    vec![
                        ("completion_ps", Value::U64(r.completion.0)),
                        ("messages", Value::U64(r.messages)),
                        ("payload_bytes", Value::U64(r.payload_bytes)),
                        ("compute_ps", Value::U64(r.compute.0)),
                        ("useful_flops", Value::F64(r.useful_flops)),
                        ("p99_ps", r.p99.map_or(Value::Null, |d| Value::U64(d.0))),
                    ],
                ));
            }
        }
        let open = tr.begin("collectives.parsim.ring");
        let (r, stats) = simulate_collective_sharded_stats(
            self.ring_ranks,
            Collective::Allreduce(AllreduceAlgo::Ring),
            RING_BYTES,
            ExecParams::default(),
            Generation::GigabitEthernet.link_model(),
            self.jobs,
        );
        tr.end(open, r.messages);
        laps.lap();
        cells.push(Cell::new(
            format!("ring-allreduce/{}", self.ring_ranks),
            vec![
                ("bytes", Value::U64(RING_BYTES)),
                ("completion_ps", Value::U64(r.completion.0)),
                ("messages", Value::U64(r.messages)),
                ("payload_bytes", Value::U64(r.payload_bytes)),
                ("events_dispatched", Value::U64(stats.events_dispatched)),
            ],
        ));
        self.ring_stats = Some(stats);
        cells
    }
}

impl Workload for ProgramCells {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        let mut cells = self.run_cells(tr, laps);
        if let Some(reference) = &self.reference {
            for (cell, want) in cells.iter_mut().zip(reference) {
                let (jobs, got) = (self.jobs, cell.stats.clone());
                cell.require(got == *want, || {
                    format!("jobs = {jobs} differs from jobs = 1: expected {want:?}, got {got:?}")
                });
            }
        }
        cells
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        let jobs = self.jobs;
        out.insert(
            format!("collectives.parsim.ring_msg_ns_jobs{jobs}"),
            view.ns_per_count("collectives.parsim.ring"),
        );
        out.insert(
            format!("collectives.parsim.program_msg_ns_jobs{jobs}"),
            view.ns_per_count("workloads.cell.shuffle"),
        );
        if jobs == 1 {
            for kind in WorkloadKind::ALL {
                out.insert(
                    format!("workloads.cell_ms.{}", kind.name()),
                    view.ms(&format!("workloads.cell.{}", kind.name())),
                );
            }
            return;
        }
        // The cells run under `run_spec`, parsim's default at this commit.
        let stats = self
            .ring_stats
            .as_ref()
            .expect("layer metrics follow an iteration");
        let attempted = stats.spec_events_committed + stats.spec_events_rolled_back;
        out.insert(
            "simnet.shard.spec_wasted_ratio".into(),
            if attempted == 0 {
                0.0
            } else {
                stats.spec_events_rolled_back as f64 / attempted as f64
            },
        );
        out.insert(
            "simnet.shard.spec_event_ns_jobs2".into(),
            view.total("collectives.parsim.ring").0 / stats.events_dispatched.max(1) as f64,
        );
    }
}
