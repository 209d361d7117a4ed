//! `flow_collectives`: the serial `collectives::simx` executor over the
//! flow-level `simnet::network` — the F3 1024-host allreduce slice.
//! Event queue, engine dispatch, `route_plan` and link charge do nearly
//! all the work; shard, cache, rms and the executable stack do none.

use super::{rng, Cell, Laps, Metrics, SpanView, Workload};
use crate::trace::Tracer;
use polaris_collectives::prelude::*;
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::topology::{Topology, TopologyKind};
use serde_json::value::Value;

const ALGOS: [AllreduceAlgo; 3] = [
    AllreduceAlgo::RecursiveDoubling,
    AllreduceAlgo::Ring,
    AllreduceAlgo::ReduceBcast,
];

pub struct FlowCollectives {
    kind: TopologyKind,
    /// `(algorithm, payload bytes, size class)`.
    cells: Vec<(AllreduceAlgo, u64, &'static str)>,
}

impl FlowCollectives {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        // F3's two payload classes (64 B and 4 MiB), moved a few cache
        // lines by the seed: the flow model's work per message does not
        // depend on the byte count, so every seed costs the same host
        // time, while a result remembered from another seed's run would
        // fail the check.
        let mut r = rng(seed, 0xf10);
        let small = 64 + 8 * r.next_below(8);
        let large = (4 << 20) - 4096 * r.next_below(16);
        let cells = ALGOS
            .iter()
            .flat_map(|&a| [(a, small, "64b"), (a, large, "4mib")])
            .collect();
        let k = if smoke { 8 } else { 16 };
        FlowCollectives {
            kind: TopologyKind::FatTree { k },
            cells,
        }
    }
}

impl Workload for FlowCollectives {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        let params = ExecParams::default();
        self.cells
            .iter()
            .map(|&(algo, bytes, class)| {
                let cell = tr.begin("flow.cell");
                let topo = tr.time("simnet.topology.new", || Topology::new(self.kind));
                let mut net = tr.time("simnet.network.new", || {
                    Network::new(topo, Generation::InfiniBand4x.link_model())
                });
                let open = tr.begin(&format!("collectives.simx.simulate.{class}"));
                let r = simulate_collective(&mut net, Collective::Allreduce(algo), bytes, params);
                tr.end(open, r.messages);
                tr.end(cell, 1);
                laps.lap();
                Cell::new(
                    format!("{algo:?}/{class}"),
                    vec![
                        ("bytes", Value::U64(bytes)),
                        ("completion_ps", Value::U64(r.completion.0)),
                        ("messages", Value::U64(r.messages)),
                        ("payload_bytes", Value::U64(r.payload_bytes)),
                    ],
                )
            })
            .collect()
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        out.insert(
            "collectives.simx.msg_ns_64b".into(),
            view.ns_per_count("collectives.simx.simulate.64b"),
        );
        out.insert(
            "collectives.simx.msg_ns_4mib".into(),
            view.ns_per_count("collectives.simx.simulate.4mib"),
        );
    }
}
