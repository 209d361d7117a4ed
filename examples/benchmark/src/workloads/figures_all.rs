//! `figures_all`: every figure generator at sweep `jobs = 1`, checked
//! against the committed `figures_output.txt` — the command a user
//! actually runs, and the blend in which every layer's gain must show
//! in proportion.

use super::{Cell, Laps, Metrics, SpanView, Workload};
use crate::stats::digest;
use crate::trace::Tracer;
use polaris_bench::{all_experiments, Generator, WALL_CLOCK_TABLES};
use serde_json::value::Value;

/// The committed stdout of `figures all`, read from the repository root.
const SNAPSHOT: &str = "figures_output.txt";

pub struct FiguresAll {
    /// `(table id, block)` pairs of the committed snapshot.
    expected: Vec<(String, String)>,
    generators: Vec<(&'static str, Generator)>,
}

/// Split a `figures` stdout capture at its `== ID — title ==` banners,
/// as `polaris_bench::check_figures_output` does.
fn split_tables(s: &str) -> Vec<(String, String)> {
    let mut blocks: Vec<(String, String)> = Vec::new();
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            let id = rest.split(" — ").next().unwrap_or("").to_string();
            blocks.push((id, String::new()));
        }
        if let Some((_, body)) = blocks.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    blocks
}

impl FiguresAll {
    /// The generators are fixed functions with nothing to shrink, so
    /// `--smoke` runs them at full size, once.
    pub fn setup() -> Result<Self, String> {
        let text = std::fs::read_to_string(SNAPSHOT)
            .map_err(|e| format!("cannot read {SNAPSHOT} (run from the repository root): {e}"))?;
        // Pinned, so `POLARIS_JOBS` in the environment cannot change the
        // work: sweep-level parallelism is out of this benchmark's scope.
        polaris_bench::sweep::set_jobs(1);
        Ok(FiguresAll {
            expected: split_tables(&text),
            generators: all_experiments(),
        })
    }
}

impl Workload for FiguresAll {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        let mut rendered = String::new();
        for (id, generate) in &self.generators {
            let open = tr.begin(&format!("bench.figures.{id}"));
            let tables = generate();
            tr.end(open, tables.len() as u64);
            for table in tables {
                rendered.push_str(&table.render());
                rendered.push('\n');
            }
            laps.lap();
        }
        let actual = split_tables(&rendered);
        let mut cells: Vec<Cell> = Vec::new();
        for (id, block) in &actual {
            let lines = block.lines().count() as u64;
            let wall_clock = WALL_CLOCK_TABLES.contains(&id.as_str());
            // Wall-clock tables hold host times: only their shape is a
            // simulated statistic.
            let mut stats = vec![("lines", Value::U64(lines))];
            if !wall_clock {
                stats.push(("digest", Value::Str(digest(block.as_bytes()))));
            }
            let mut cell = Cell::new(id.clone(), stats);
            match self.expected.iter().find(|(eid, _)| eid == id) {
                None => cell.require(false, || format!("table {id} is not in {SNAPSHOT}")),
                Some((_, exp)) if wall_clock => cell.require(exp.lines().count() as u64 == lines, || {
                    format!("wall-clock table {id} changed shape: {} lines committed, {lines} generated", exp.lines().count())
                }),
                Some((_, exp)) => cell.require(exp == block, || {
                    let (el, al) =
                        exp.lines().zip(block.lines()).find(|(e, a)| e != a).unwrap_or(("<missing>", "<extra>"));
                    format!("table {id} drifted: committed `{el}`, generated `{al}`")
                }),
            }
            cells.push(cell);
        }
        let ids = |blocks: &[(String, String)]| {
            blocks.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>()
        };
        let (exp_ids, act_ids) = (ids(&self.expected), ids(&actual));
        let mut cell = Cell::new(
            "sequence",
            vec![("tables", Value::U64(act_ids.len() as u64))],
        );
        cell.require(exp_ids == act_ids, || {
            format!("table sequence drifted: committed {exp_ids:?}, generated {act_ids:?}")
        });
        cells.push(cell);
        laps.lap();
        cells
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        for (id, _) in &self.generators {
            out.insert(
                format!("bench.figures.{id}_ms"),
                view.ms(&format!("bench.figures.{id}")),
            );
        }
    }
}
