//! The seven workloads. Each builds its inputs from the seed in
//! `setup`, and one `iterate` call does the workload's fixed unit of
//! work, wrapping every call into a layer in a span and returning the
//! simulated statistics of each cell for the runner to check.

pub mod figures_all;
pub mod fleet_churn;
pub mod flow_collectives;
pub mod msg_pingpong;
pub mod program_cells;
pub mod serve_zipf;

use crate::trace::{total, Span, Tracer};
use polaris_simnet::rng::SplitMix64;
use serde_json::value::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAMES: [&str; 7] = [
    "figures_all",
    "flow_collectives",
    "program_cells_jobs1",
    "program_cells_jobs2",
    "fleet_churn",
    "serve_zipf",
    "msg_pingpong",
];

/// The seed `golden.json` is pinned at.
pub const DEFAULT_SEED: u64 = 1;

/// One checked unit of an iteration: a figure table, a simulation cell,
/// a request phase or a message cell.
pub struct Cell {
    pub name: String,
    /// Simulated statistics, compared exactly with the golden file and
    /// with the previous iteration. Host-time numbers never go here.
    pub stats: Value,
    /// Operations in the cell (tables, cells, requests, messages).
    pub ops: u64,
    /// Operations whose own check (payload, table, counter) failed.
    pub failed: u64,
    /// First failure of the cell's own check, for the report.
    pub why: Option<String>,
}

impl Cell {
    pub fn new(name: impl Into<String>, stats: Vec<(&str, Value)>) -> Cell {
        Cell {
            name: name.into(),
            stats: obj(stats),
            ops: 1,
            failed: 0,
            why: None,
        }
    }

    /// Fail the whole cell unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok && self.failed == 0 {
            self.failed = self.ops;
            self.why = Some(why());
        }
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Per-layer metric values by name; units live in `metrics::PER_LAYER`.
pub type Metrics = BTreeMap<String, f64>;

/// Wall-clock of the consecutive segments of one iteration: a workload
/// calls `lap` after each of its cells, so the segments add up to the
/// iteration and each can be compared across iterations.
pub struct Laps {
    last: Instant,
    pub seconds: Vec<f64>,
    /// Seconds a fixed piece of work took at each lap boundary (the
    /// first entry is the iteration's start), where it was measured.
    pub gauge: Vec<Option<f64>>,
    gauging: bool,
    since_gauge: f64,
    /// Seconds spent reading the gauge.
    pub gauge_seconds: f64,
}

/// Laps shorter than this share the gauge readings of their neighbours.
const GAUGE_EVERY_S: f64 = 0.02;

/// The gauge: a fixed piece of work, event-queue churn, 1 ms on a quiet
/// 2 GHz core; the fastest of three goes is a reading. The box this runs
/// on slows everything down by a third to two thirds, for seconds or for
/// minutes, whenever its neighbours are busy; how long the gauge takes
/// next to a lap says whether the lap was timed in such a spell. It does
/// not say by how much the lap was slowed: scaling laps by the gauge was
/// tried, and reported serving iterations 13 to 43 % faster than any ever
/// ran.
fn gauge() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(polaris_bench::perf::churn_calendar(1 << 12, 1 << 15));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

impl Laps {
    /// Laps only.
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            seconds: Vec::new(),
            gauge: Vec::new(),
            gauging: false,
            since_gauge: 0.0,
            gauge_seconds: 0.0,
        }
    }

    /// Laps with the gauge read between them, outside the timed parts.
    pub fn gauged() -> Self {
        let t0 = Instant::now();
        let first = gauge();
        let spent = t0.elapsed().as_secs_f64();
        Laps {
            last: Instant::now(),
            seconds: Vec::new(),
            gauge: vec![Some(first)],
            gauging: true,
            since_gauge: 0.0,
            gauge_seconds: spent,
        }
    }

    pub fn lap(&mut self) {
        let lap = self.last.elapsed().as_secs_f64();
        self.seconds.push(lap);
        if self.gauging {
            self.since_gauge += lap;
            let due = self.since_gauge >= GAUGE_EVERY_S;
            let t0 = Instant::now();
            self.gauge.push(due.then(gauge));
            if due {
                self.since_gauge = 0.0;
                self.gauge_seconds += t0.elapsed().as_secs_f64();
            }
        }
        self.last = Instant::now();
    }

    /// For each lap, the slower of the gauge readings nearest before and
    /// after it.
    pub fn gauge_around(&self) -> Vec<f64> {
        /// Each boundary's reading, or the last one taken before it.
        fn carried<'a>(readings: impl Iterator<Item = &'a Option<f64>>) -> Vec<f64> {
            let mut seen = f64::INFINITY;
            readings
                .map(|reading| {
                    seen = reading.unwrap_or(seen);
                    seen
                })
                .collect()
        }
        let laps = self.seconds.len();
        let before = carried(self.gauge[..laps].iter());
        let after = carried(self.gauge[1..].iter().rev());
        before
            .into_iter()
            .zip(after.into_iter().rev())
            .map(|(b, a)| b.max(a))
            .collect()
    }
}

pub trait Workload {
    /// One unit of work. Ends every cell with `laps.lap()`.
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell>;

    /// The per-layer metrics this workload's spans and counts give,
    /// read from traced iteration `iteration`.
    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics);
}

/// The spans of one traced iteration of one workload.
pub struct SpanView<'a> {
    pub spans: &'a [Span],
    pub workload: &'static str,
    pub iteration: u32,
}

impl SpanView<'_> {
    /// Summed `(nanoseconds, count)` of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, f64) {
        let (ns, count) = total(self.spans, self.workload, self.iteration, name);
        (ns as f64, count as f64)
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.total(name).0 / 1e6
    }

    /// Nanoseconds per counted unit; 0 when the span reported none.
    pub fn ns_per_count(&self, name: &str) -> f64 {
        let (ns, count) = self.total(name);
        if count == 0.0 {
            0.0
        } else {
            ns / count
        }
    }
}

/// Golden statistics are shared by the two `program_cells` workloads:
/// the sharded engine must give the same answer at any job count.
pub fn golden_key(workload: &str) -> &str {
    if workload.starts_with("program_cells") {
        "program_cells"
    } else {
        workload
    }
}

/// Independent seeded stream `stream` of run seed `seed`.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// `name` as one of `NAMES`, or what is wrong with it.
pub fn known(name: &str) -> Result<&'static str, String> {
    NAMES
        .iter()
        .copied()
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`; known: {}", NAMES.join(" ")))
}

/// Build one workload's inputs. `smoke` shrinks every size so the whole
/// set runs in seconds; its statistics have their own golden section.
pub fn setup(
    name: &'static str,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "figures_all" => Box::new(figures_all::FiguresAll::setup()?),
        "flow_collectives" => Box::new(flow_collectives::FlowCollectives::setup(seed, smoke)),
        "program_cells_jobs1" => Box::new(program_cells::ProgramCells::setup(seed, smoke, 1, tr)),
        "program_cells_jobs2" => Box::new(program_cells::ProgramCells::setup(seed, smoke, 2, tr)),
        "fleet_churn" => Box::new(fleet_churn::FleetChurn::setup(seed, smoke, tr)),
        "serve_zipf" => Box::new(serve_zipf::ServeZipf::setup(seed, smoke)),
        "msg_pingpong" => Box::new(msg_pingpong::MsgPingpong::setup(seed, smoke)),
        other => {
            return Err(format!(
                "unknown workload `{other}`; known: {}",
                NAMES.join(" ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_takes_the_slower_of_the_gauge_readings_around_it() {
        // Four laps; readings at the start, after lap 1 and after lap 3.
        let laps = Laps {
            last: Instant::now(),
            seconds: vec![0.1; 4],
            gauge: vec![Some(4.0), None, Some(6.0), None, Some(5.0)],
            gauging: true,
            since_gauge: 0.0,
            gauge_seconds: 0.0,
        };
        assert_eq!(laps.gauge_around(), vec![6.0, 6.0, 6.0, 6.0]);
        let quiet = Laps {
            gauge: vec![Some(4.0), None, Some(4.1), Some(7.0), Some(4.2)],
            ..laps
        };
        assert_eq!(quiet.gauge_around(), vec![4.1, 4.1, 7.0, 7.0]);
    }
}
