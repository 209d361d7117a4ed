//! One run of one workload: set-up, timed iterations, checks.

use crate::alloc::peak_heap_mib;
use crate::metrics::PER_LAYER;
use crate::report::{Environment, RunRecord};
use crate::stats::{digest, high_percentile, iqr_ratio, median};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    self, golden_key, Cell, Laps, Metrics, SpanView, Workload, DEFAULT_SEED, NAMES,
};
use crate::{probes, Options};
use serde_json::value::Value;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Timed iterations a run makes at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// The same for each half of a traced run, which only feeds diagnostics.
const MIN_TRACED_ITERATIONS: usize = 1;

/// Set-up is measured in this many fresh processes besides the run's
/// own; `setup_s` and `peak_heap_mib` are the medians of them all.
const SETUP_CHILDREN: usize = 2;

/// The pinned statistics, compiled in so a run needs no path to them.
const GOLDEN: &str = include_str!("../golden.json");

/// Where `--update-golden` rewrites them.
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

fn scale_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The golden cells of one workload at one scale, if pinned.
fn golden_cells(golden: &Value, smoke: bool, workload: &str) -> Option<Value> {
    golden
        .field(scale_name(smoke))
        .ok()?
        .field(golden_key(workload))
        .ok()
        .cloned()
}

/// Counts a run's operations and holds every iteration's statistics
/// against the golden file, the previous iteration and the cell's own
/// check.
pub struct Checker {
    /// The pinned statistics, when the run's seed is the one they were
    /// pinned at: another seed makes other inputs, whose statistics can
    /// only be held against themselves.
    pinned: Option<Value>,
    smoke: bool,
    workload: &'static str,
    golden: Option<Value>,
    previous: Option<Vec<(String, Value)>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, as `(workload, cell, field, expected, got)`.
    pub first_failure: Option<String>,
}

impl Checker {
    pub fn new(opts: &Options) -> Result<Self, String> {
        let pinned = if opts.seed == DEFAULT_SEED {
            Some(
                serde_json::from_str(GOLDEN)
                    .map_err(|e| format!("golden.json does not parse: {e}"))?,
            )
        } else {
            None
        };
        Ok(Checker {
            pinned,
            smoke: opts.smoke,
            workload: "",
            golden: None,
            previous: None,
            attempted: 0,
            failed: 0,
            first_failure: None,
        })
    }

    /// The iterations that follow are `workload`'s.
    pub fn start(&mut self, workload: &'static str) {
        self.workload = workload;
        self.golden = self
            .pinned
            .as_ref()
            .and_then(|g| golden_cells(g, self.smoke, workload));
        self.previous = None;
    }

    fn fail(&mut self, ops: u64, cell: &str, detail: String) {
        self.failed += ops;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("({}, {cell}, {detail})", self.workload));
        }
    }

    /// The first field in which `got` differs from `want`.
    fn first_difference(want: &Value, got: &Value) -> String {
        if let (Value::Object(want), Value::Object(got)) = (want, got) {
            for (field, w) in want {
                let g = got.iter().find(|(k, _)| k == field).map(|(_, v)| v);
                if g != Some(w) {
                    return format!("{field}, expected {w:?}, got {g:?}");
                }
            }
            if let Some((field, g)) = got.iter().find(|(k, _)| !want.iter().any(|(w, _)| w == k)) {
                return format!("{field}, expected nothing, got {g:?}");
            }
        }
        format!("*, expected {want:?}, got {got:?}")
    }

    pub fn check(&mut self, cells: Vec<Cell>) -> Vec<(String, Value)> {
        for (i, cell) in cells.iter().enumerate() {
            self.attempted += cell.ops;
            if cell.failed > 0 {
                let why = cell.why.clone().unwrap_or_default();
                self.fail(cell.failed, &cell.name, format!("check, passes, {why}"));
                continue;
            }
            let pinned = self
                .golden
                .as_ref()
                .map(|g| g.field(&cell.name).ok().cloned());
            let previous = self.previous.as_ref().map(|p| {
                p.get(i)
                    .filter(|(n, _)| *n == cell.name)
                    .map(|(_, s)| s.clone())
            });
            for (what, want) in [("golden", pinned), ("previous iteration", previous)] {
                match want {
                    None => {}
                    Some(None) => {
                        self.fail(
                            cell.ops,
                            &cell.name,
                            format!("*, a cell of the {what}, a cell it does not have"),
                        );
                        break;
                    }
                    Some(Some(want)) if want != cell.stats => {
                        self.fail(
                            cell.ops,
                            &cell.name,
                            format!("{} [{what}]", Self::first_difference(&want, &cell.stats)),
                        );
                        break;
                    }
                    Some(Some(_)) => {}
                }
            }
        }
        let stats: Vec<(String, Value)> = cells.into_iter().map(|c| (c.name, c.stats)).collect();
        self.previous = Some(stats.clone());
        stats
    }
}

/// User plus system CPU seconds of this process, all threads.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in ticks of 1/100 s on Linux.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one process needed from its start to its first timed iteration.
struct SetUp {
    seconds: f64,
    peak_heap_mib: f64,
    /// Laps of the warm-up iteration.
    laps: Vec<f64>,
}

/// Set up `name` and run its untimed warm-up iteration, which lets lazy
/// set-up finish and caches fill before anything is timed.
fn set_up(
    name: &'static str,
    opts: &Options,
    tr: &mut Tracer,
    checker: &mut Checker,
    started: Instant,
) -> Result<(Box<dyn Workload>, SetUp), String> {
    let mut workload = workloads::setup(name, opts.seed, opts.smoke, tr)?;
    let mut laps = Laps::start();
    checker.start(name);
    checker.check(workload.iterate(tr, &mut laps));
    Ok((
        workload,
        SetUp {
            seconds: started.elapsed().as_secs_f64(),
            peak_heap_mib: peak_heap_mib(),
            laps: laps.seconds,
        },
    ))
}

/// `--setup-only`: set up in a fresh process and print the seconds, the
/// peak heap and the warm-up laps, and nothing else.
pub fn setup_only(opts: &Options, started: Instant) -> Result<(), String> {
    let (_, done) = set_up(
        workloads::known(&opts.workload)?,
        opts,
        &mut Tracer::new(false),
        &mut Checker::new(opts)?,
        started,
    )?;
    let laps: Vec<String> = done.laps.iter().map(f64::to_string).collect();
    println!("{} {} {}", done.seconds, done.peak_heap_mib, laps.join(" "));
    Ok(())
}

fn setup_in_child(opts: &Options) -> Result<SetUp, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot find the benchmark's own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    match text
        .split_whitespace()
        .map(str::parse::<f64>)
        .collect::<Result<Vec<f64>, _>>()
    {
        Ok(numbers) if numbers.len() > 2 => Ok(SetUp {
            seconds: numbers[0],
            peak_heap_mib: numbers[1],
            laps: numbers[2..].to_vec(),
        }),
        _ => Err(format!(
            "set-up process printed `{}`, not a time, a size and laps",
            text.trim()
        )),
    }
}

/// A lap was timed on a quiet box when the gauge readings around it are
/// within this factor of the fastest reading of the run.
const QUIET_GAUGE: f64 = 1.2;

/// However busy the box, the timed iterations end after this many times
/// `--seconds`.
const PATIENCE: f64 = 1.5;

/// How long to iterate.
#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    /// Iterations to make however short `seconds` is.
    at_least: usize,
    /// Read the gauge between laps and wait for quiet ones.
    gauged: bool,
}

/// The timed iterations of a run.
struct Timed {
    /// Laps of each iteration.
    laps: Vec<Vec<f64>>,
    /// CPU seconds per iteration, all threads.
    cpu_s: f64,
    /// Statistics of the last iteration.
    stats: Vec<(String, Value)>,
    /// Laps never once timed on a quiet box (always 0 without `gauged`).
    unquiet_laps: usize,
}

/// Iterate until `seconds` have passed and at least `at_least` iterations
/// are done. With `gauged`, go on, for at most `PATIENCE` times as long,
/// until every lap has been timed at least once on a quiet box. Checks
/// and gauge readings happen between the timed parts.
fn timed_iterations(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    checker: &mut Checker,
    name: &'static str,
    first_iteration: u32,
    budget: Budget,
) -> Timed {
    let (begin, cpu0) = (Instant::now(), cpu_seconds());
    let mut laps: Vec<Vec<f64>> = Vec::new();
    let mut gauges: Vec<Vec<f64>> = Vec::new();
    let mut gauge_seconds = 0.0;
    let (stats, unquiet_laps) = loop {
        tr.scope(name, first_iteration + laps.len() as u32);
        let open = tr.begin("iteration");
        let mut iteration = if budget.gauged {
            Laps::gauged()
        } else {
            Laps::start()
        };
        let cells = workload.iterate(tr, &mut iteration);
        tr.end(open, 1);
        if budget.gauged {
            gauges.push(iteration.gauge_around());
            gauge_seconds += iteration.gauge_seconds;
        }
        laps.push(iteration.seconds);
        let stats = checker.check(cells);

        let elapsed = begin.elapsed().as_secs_f64();
        if laps.len() < budget.at_least || elapsed < budget.seconds {
            continue;
        }
        let fastest = gauges
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let unquiet = fastest_per_lap(&gauges)
            .iter()
            .filter(|&&quietest| quietest > QUIET_GAUGE * fastest)
            .count();
        if unquiet == 0 || elapsed >= PATIENCE * budget.seconds {
            break (stats, unquiet);
        }
    };
    let cpu_s = (cpu_seconds() - cpu0 - gauge_seconds) / laps.len() as f64;
    Timed {
        laps,
        cpu_s,
        stats,
        unquiet_laps,
    }
}

/// Wall of each iteration: its laps added up.
fn walls(laps: &[Vec<f64>]) -> Vec<f64> {
    laps.iter().map(|l| l.iter().sum()).collect()
}

/// The iteration's wall with the box's interference taken out: for each
/// lap, the fastest it was in any iteration, added up. The work of a lap
/// is fixed, and noise on a shared box only ever adds time and comes in
/// bursts longer than an iteration, so whole-iteration percentiles move
/// with the burst while each lap's minimum needs one quiet moment only.
fn fastest_per_lap(laps: &[Vec<f64>]) -> Vec<f64> {
    let width = laps.iter().map(Vec::len).min().unwrap_or(0);
    (0..width)
        .map(|j| laps.iter().map(|l| l[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn quiet_wall(laps: &[Vec<f64>]) -> f64 {
    fastest_per_lap(laps).iter().sum()
}

fn diagnostics(walls: &[f64], cpu_s: f64) -> Metrics {
    let (hi, pct) = high_percentile(walls);
    BTreeMap::from([
        ("run.iterations".to_string(), walls.len() as f64),
        ("run.wall_median_s".to_string(), median(walls)),
        ("run.wall_hi_s".to_string(), hi),
        ("run.wall_hi_pct".to_string(), pct),
        ("run.iqr_ratio".to_string(), iqr_ratio(walls)),
        ("run.cpu_s".to_string(), cpu_s),
        ("run.peak_rss_mib".to_string(), peak_rss_mib()),
    ])
}

/// The end-to-end run: tracing off.
pub fn untraced(opts: &Options) -> Result<RunRecord, String> {
    let name = workloads::known(&opts.workload)?;
    let mut env = Environment::capture(opts);
    let mut setups = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        setups.push(setup_in_child(opts)?);
    }
    let mut tr = Tracer::new(false);
    let mut checker = Checker::new(opts)?;
    let (mut workload, own) = set_up(name, opts, &mut tr, &mut checker, Instant::now())?;
    setups.push(own);
    let ops_per_iteration = checker.attempted;

    let Timed {
        mut laps,
        cpu_s,
        stats,
        unquiet_laps,
    } = timed_iterations(
        workload.as_mut(),
        &mut tr,
        &mut checker,
        name,
        1,
        Budget {
            seconds: opts.seconds,
            at_least: MIN_ITERATIONS,
            gauged: true,
        },
    );
    env.finish(laps.len(), unquiet_laps);
    let walls = walls(&laps);
    // A warm-up lap did the same work as a timed one, plus whatever a
    // first time costs: as one more sample for the minimum it can only
    // help, and the long iterations have few samples.
    laps.extend(setups.iter().map(|s| s.laps.clone()));
    let quiet = fastest_per_lap(&laps);
    let mut metrics = Metrics::new();
    metrics.insert("wall_s".into(), quiet.iter().sum());
    metrics.insert(
        "setup_s".into(),
        median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
    );
    // Taken at the end of the warm-up, where every process has done the
    // same work.
    metrics.insert(
        "peak_heap_mib".into(),
        median(&setups.iter().map(|s| s.peak_heap_mib).collect::<Vec<_>>()),
    );
    Ok(RunRecord {
        workload: name,
        traced: false,
        env,
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        ops_per_iteration,
        stats,
        metrics,
        diagnostics: diagnostics(&walls, cpu_s),
        walls,
        quiet_laps: quiet,
    })
}

/// Share of the iteration's wall spent inside leaf spans, that is,
/// inside calls into a layer and not in the benchmark's own glue.
fn attributed_ratio(spans: &[Span], workload: &str, iteration: u32) -> f64 {
    let ours: Vec<&Span> = spans
        .iter()
        .filter(|s| s.workload == workload && s.iteration == iteration)
        .collect();
    let Some(root) = ours.iter().find(|s| s.name == "iteration") else {
        return 0.0;
    };
    let leaves: u64 = ours
        .iter()
        .filter(|s| s.id != root.id && !ours.iter().any(|c| c.parent == Some(s.id)))
        .map(|s| s.duration_ns())
        .sum();
    leaves as f64 / root.duration_ns().max(1) as f64
}

/// The workload a traced run goes on with after the ladder.
struct Kept {
    workload: Box<dyn Workload>,
    ops_per_iteration: u64,
}

/// Set up every workload and trace one iteration of each, giving the
/// span and count metrics of all layers whichever workload the run is
/// for. Returns the state of `keep`, if any, for its diagnostics.
fn ladder(
    opts: &Options,
    tr: &mut Tracer,
    checker: &mut Checker,
    metrics: &mut Metrics,
    keep: Option<&'static str>,
) -> Result<Option<Kept>, String> {
    let mut kept = None;
    for name in NAMES {
        checker.start(name);
        tr.scope(name, 0);
        let open = tr.begin("setup");
        let mut workload = workloads::setup(name, opts.seed, opts.smoke, tr)?;
        // `--smoke` does each workload once: no warm-up.
        if !opts.smoke {
            checker.check(workload.iterate(tr, &mut Laps::start()));
        }
        tr.end(open, 1);
        tr.scope(name, 1);
        let open = tr.begin("iteration");
        let cells = workload.iterate(tr, &mut Laps::start());
        tr.end(open, 1);
        let before = checker.attempted;
        checker.check(cells);
        workload.layer_metrics(
            &SpanView {
                spans: tr.spans(),
                workload: name,
                iteration: 1,
            },
            metrics,
        );
        if keep == Some(name) {
            kept = Some(Kept {
                workload,
                ops_per_iteration: checker.attempted - before,
            });
        }
    }
    Ok(kept)
}

/// What the traced run measured against what the registry lists.
fn reconcile(metrics: &Metrics, skip_prefix: Option<&str>) -> Result<(), String> {
    let skipped = |n: &str| skip_prefix.is_some_and(|p| n.starts_with(p));
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !skipped(n) && !metrics.contains_key(*n))
        .collect();
    let extra: Vec<&String> = metrics
        .keys()
        .filter(|n| !PER_LAYER.iter().any(|d| d.name == n.as_str()))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "per-layer metrics do not match the registry: missing {missing:?}, extra {extra:?}"
        ))
    }
}

/// The traced run: the per-layer metrics of every layer, and the run
/// diagnostics of this run's workload.
pub fn traced(opts: &Options) -> Result<RunRecord, String> {
    let name = workloads::known(&opts.workload)?;
    let mut env = Environment::capture(opts);
    let mut tr = Tracer::new(true);
    let mut checker = Checker::new(opts)?;
    let mut metrics = Metrics::new();
    let Kept {
        mut workload,
        ops_per_iteration,
    } = ladder(opts, &mut tr, &mut checker, &mut metrics, Some(name))?
        .expect("the run's workload is one of the ladder's");

    // Untraced iterations, then traced ones, half the time each: the
    // ratio of the two is what tracing costs.
    checker.start(name);
    let half = Budget {
        seconds: opts.seconds / 2.0,
        at_least: MIN_TRACED_ITERATIONS,
        gauged: false,
    };
    tr.on = false;
    let plain = timed_iterations(workload.as_mut(), &mut tr, &mut checker, name, 2, half);
    tr.on = true;
    let first = 2 + plain.laps.len() as u32;
    let spanned = timed_iterations(workload.as_mut(), &mut tr, &mut checker, name, first, half);
    drop(workload);
    let walls = walls(&plain.laps);
    metrics.extend(diagnostics(&walls, plain.cpu_s));
    metrics.insert(
        "run.trace_overhead_ratio".into(),
        quiet_wall(&spanned.laps) / quiet_wall(&plain.laps),
    );
    metrics.insert(
        "run.attributed_ratio".into(),
        attributed_ratio(tr.spans(), name, first),
    );

    probes::run_all(opts.seed, false, &mut metrics);
    reconcile(&metrics, None)?;
    env.finish(plain.laps.len(), 0);

    let path = opts.out.join(format!("trace-{name}.json"));
    let text = serde_json::to_string(&trace::to_json(tr.spans())).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(RunRecord {
        workload: name,
        traced: true,
        env,
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        ops_per_iteration,
        stats: spanned.stats,
        metrics,
        diagnostics: Metrics::new(),
        walls,
        quiet_laps: fastest_per_lap(&plain.laps),
    })
}

/// `--smoke`: every workload and every probe once at reduced scale, all
/// checks on, in this process.
pub fn smoke(opts: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let mut checker = Checker::new(opts)?;
    let mut metrics = Metrics::new();
    ladder(
        opts,
        &mut Tracer::new(true),
        &mut checker,
        &mut metrics,
        None,
    )?;
    probes::run_all(opts.seed, true, &mut metrics);
    reconcile(&metrics, Some("run."))?;
    for (name, value) in &metrics {
        println!(
            "{name:46} {value:>16.4} {}",
            crate::metrics::unit_of(name).unwrap_or("")
        );
    }
    if let Some(first) = &checker.first_failure {
        println!("first failure (workload, cell, field, expected, got): {first}");
    }
    println!(
        "smoke: {} operations attempted, {} failed, {:.1} s",
        checker.attempted,
        checker.failed,
        started.elapsed().as_secs_f64()
    );
    Ok(checker.failed == 0)
}

/// `--update-golden`: pin the statistics of one iteration of every
/// workload at the default seed, at both scales.
pub fn update_golden() -> Result<(), String> {
    let mut sections = Vec::new();
    for smoke in [false, true] {
        let mut by_key: Vec<(String, Value)> = Vec::new();
        for name in NAMES {
            let key = golden_key(name).to_string();
            if by_key.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let mut workload =
                workloads::setup(name, DEFAULT_SEED, smoke, &mut Tracer::new(false))?;
            let cells = workload.iterate(&mut Tracer::new(false), &mut Laps::start());
            if let Some(bad) = cells.iter().find(|c| c.failed > 0) {
                return Err(format!(
                    "refusing to pin a failing cell: ({name}, {}, {:?})",
                    bad.name, bad.why
                ));
            }
            by_key.push((
                key,
                Value::Object(cells.into_iter().map(|c| (c.name, c.stats)).collect()),
            ));
        }
        sections.push((scale_name(smoke).to_string(), Value::Object(by_key)));
    }
    let mut fields = vec![("seed".to_string(), Value::U64(DEFAULT_SEED))];
    fields.extend(sections);
    let text = serde_json::to_string_pretty(&Value::Object(fields)).map_err(|e| e.to_string())?;
    std::fs::write(GOLDEN_PATH, text + "\n")
        .map_err(|e| format!("cannot write {GOLDEN_PATH}: {e}"))?;
    println!("pinned {GOLDEN_PATH}; rebuild to compile it in");
    Ok(())
}

/// Identity of a run's simulated statistics, for exact comparison.
pub fn stats_digest(stats: &[(String, Value)]) -> String {
    let tree = Value::Object(stats.to_vec());
    digest(serde_json::to_string(&tree).unwrap_or_default().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_wall_adds_up_each_laps_minimum() {
        let laps = vec![
            vec![1.0, 5.0, 2.0],
            vec![3.0, 4.0, 1.5],
            vec![2.0, 6.0, 9.0],
        ];
        assert_eq!(fastest_per_lap(&laps), vec![1.0, 4.0, 1.5]);
        assert_eq!(quiet_wall(&laps), 6.5);
        assert_eq!(walls(&laps), vec![8.0, 8.5, 17.0]);
    }

    #[test]
    fn checker_names_the_first_differing_field() {
        let opts = Options {
            workload: "flow_collectives".into(),
            seed: DEFAULT_SEED + 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            out: "unused".into(),
        };
        let cell = |messages: u64| {
            Cell::new(
                "ring",
                vec![
                    ("bytes", Value::U64(64)),
                    ("messages", Value::U64(messages)),
                ],
            )
        };
        let mut checker = Checker::new(&opts).unwrap();
        checker.start("flow_collectives");
        checker.check(vec![cell(7)]);
        checker.check(vec![cell(7)]);
        assert_eq!((checker.attempted, checker.failed), (2, 0));
        // The third iteration disagrees with the second.
        checker.check(vec![cell(8)]);
        assert_eq!((checker.attempted, checker.failed), (3, 1));
        let first = checker.first_failure.unwrap();
        assert!(
            first.starts_with(
                "(flow_collectives, ring, messages, expected U64(7), got Some(U64(8))"
            ),
            "{first}"
        );
    }

    #[test]
    fn a_cells_own_failure_counts_its_failed_operations() {
        let opts = Options {
            workload: "msg_pingpong".into(),
            seed: DEFAULT_SEED + 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            out: "unused".into(),
        };
        let mut cell = Cell::new("eager/64b", vec![]);
        cell.ops = 100;
        cell.failed = 3;
        cell.why = Some("message 5: payload differs on arrival".into());
        let mut checker = Checker::new(&opts).unwrap();
        checker.start("msg_pingpong");
        checker.check(vec![cell]);
        assert_eq!((checker.attempted, checker.failed), (100, 3));
    }
}
