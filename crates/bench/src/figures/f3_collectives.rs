//! F3 — collective scaling "as system scale explodes": completion time
//! versus node count for the algorithm variants, on a simulated
//! InfiniBand fat-tree (an ideal crossbar stands in at the node counts
//! no fat-tree arity `k` fits exactly, `k^3/4` hosts: 4, 64 and 256).
//! Each cell is a [`PointSpec`] computed by the serving plane's own
//! miss path, so a served F3 cell and the figure share one network.

use crate::table::Table;
use polaris_collectives::prelude::*;
use polaris_serve::spec::PointSpec;
use polaris_simnet::time::SimDuration;

const SCALES: [u32; 5] = [4, 16, 64, 256, 1024];

/// The ten (collective, payload) cells each scale runs, in row order.
const CELLS_PER_SCALE: usize = 10;

fn cells_for(nodes: u32) -> [PointSpec; CELLS_PER_SCALE] {
    [
        (Collective::Barrier(BarrierAlgo::Dissemination), 0),
        (Collective::Barrier(BarrierAlgo::Tree), 0),
        (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 64),
        (Collective::Allreduce(AllreduceAlgo::Ring), 64),
        (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 64),
        (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 4 << 20),
        (Collective::Allreduce(AllreduceAlgo::Ring), 4 << 20),
        (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 4 << 20),
        (Collective::Bcast(BcastAlgo::Binomial), 1 << 20),
        (Collective::Bcast(BcastAlgo::ScatterAllgather), 1 << 20),
    ]
    .map(|(collective, payload_bytes)| PointSpec { nodes, collective, payload_bytes })
}

pub fn generate() -> Vec<Table> {
    // Every (scale, collective, payload) cell is an independent
    // simulation on the network the serving plane answers it from; fan
    // them out across the sweep threads and assemble rows from the
    // index-ordered completions, so the rendered tables are
    // byte-identical at any job count.
    let points: Vec<PointSpec> = SCALES.iter().flat_map(|&p| cells_for(p)).collect();
    let times = crate::sweep::sweep(points, |spec| SimDuration(spec.compute().completion_ps));

    let mut barrier = Table::new(
        "F3a",
        "barrier time (us) vs nodes",
        &["nodes", "dissemination", "tree"],
    );
    let mut allreduce_small = Table::new(
        "F3b",
        "allreduce 64B time (us) vs nodes",
        &["nodes", "recursive-doubling", "ring", "reduce+bcast"],
    );
    let mut allreduce_large = Table::new(
        "F3c",
        "allreduce 4MiB time (ms) vs nodes",
        &["nodes", "recursive-doubling", "ring", "reduce+bcast"],
    );
    let mut bcast = Table::new(
        "F3d",
        "bcast 1MiB time (ms) vs nodes",
        &["nodes", "binomial", "scatter+allgather"],
    );
    for (i, p) in SCALES.iter().enumerate() {
        let t = &times[i * CELLS_PER_SCALE..(i + 1) * CELLS_PER_SCALE];
        barrier.row(vec![
            p.to_string(),
            format!("{:.1}", t[0].as_us()),
            format!("{:.1}", t[1].as_us()),
        ]);
        allreduce_small.row(vec![
            p.to_string(),
            format!("{:.1}", t[2].as_us()),
            format!("{:.1}", t[3].as_us()),
            format!("{:.1}", t[4].as_us()),
        ]);
        allreduce_large.row(vec![
            p.to_string(),
            format!("{:.2}", t[5].as_ms()),
            format!("{:.2}", t[6].as_ms()),
            format!("{:.2}", t[7].as_ms()),
        ]);
        bcast.row(vec![
            p.to_string(),
            format!("{:.2}", t[8].as_ms()),
            format!("{:.2}", t[9].as_ms()),
        ]);
    }
    barrier.note("expected: O(log p) growth; dissemination flatter (one round-trip per stage)");
    allreduce_small.note("expected: recursive doubling wins small vectors (log p rounds)");
    allreduce_large.note("expected: ring wins large vectors (bandwidth-optimal 2n(p-1)/p)");
    bcast.note("expected: binomial's n·log p loses to scatter+allgather's 2n at scale");

    vec![barrier, allreduce_small, allreduce_large, bcast]
}

/// Helper for SimDuration -> ms used above.
trait AsMs {
    fn as_ms(&self) -> f64;
}

impl AsMs for SimDuration {
    fn as_ms(&self) -> f64 {
        self.as_secs() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_scales_sub_linearly() {
        let tables = generate();
        let barrier = &tables[0];
        let first: f64 = barrier.rows[0][1].parse().unwrap();
        let last: f64 = barrier.rows.last().unwrap()[1].parse().unwrap();
        // 4 -> 4096 nodes is 1024x; dissemination grows ~6x (2 -> 12 rounds).
        assert!(last / first < 20.0, "barrier must scale ~log p: {first} -> {last}");
    }

    #[test]
    fn algorithm_tradeoffs_visible_at_scale() {
        let tables = generate();
        let small = tables[1].rows.last().unwrap();
        let rd: f64 = small[1].parse().unwrap();
        let ring: f64 = small[2].parse().unwrap();
        assert!(rd < ring, "small vectors: rd {rd} must beat ring {ring}");
        let large = tables[2].rows.last().unwrap();
        let rd: f64 = large[1].parse().unwrap();
        let ring: f64 = large[2].parse().unwrap();
        assert!(ring < rd, "large vectors: ring {ring} must beat rd {rd}");
        let bcast = tables[3].rows.last().unwrap();
        let binomial: f64 = bcast[1].parse().unwrap();
        let vdg: f64 = bcast[2].parse().unwrap();
        assert!(vdg < binomial, "scatter+allgather {vdg} must beat binomial {binomial}");
    }
}
