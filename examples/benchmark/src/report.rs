//! What a run leaves behind: the result line, the record file, the
//! table of a whole set, and the comparison of two sets.

use crate::metrics::{unit_of, END_TO_END};
use crate::run::stats_digest;
use crate::workloads::{obj, Metrics, NAMES};
use crate::Options;
use serde_json::value::Value;
use std::path::Path;
use std::process::Command;

/// A spread of iteration walls beyond this marks a run `noisy`.
const NOISY_IQR_RATIO: f64 = 0.10;

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where and on what a run was taken.
pub struct Environment(Vec<(&'static str, Value)>);

impl Environment {
    pub fn capture(opts: &Options) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        // Only in a work tree of its own: git would otherwise walk up and
        // describe some repository above the checkout.
        let git = |args: &[&str]| {
            Path::new(".git")
                .exists()
                .then(|| command_line("git", args))
                .flatten()
        };
        let commit = git(&["rev-parse", "HEAD"]);
        let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
        Environment(vec![
            ("nproc", Value::U64(nproc)),
            ("loadavg_before", text(loadavg())),
            (
                "rustc",
                text(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
            ),
            ("commit", commit.map_or(Value::Null, text)),
            ("dirty", dirty.map_or(Value::Null, Value::Bool)),
            ("seed", Value::U64(opts.seed)),
            ("seconds", Value::F64(opts.seconds)),
        ])
    }

    pub fn finish(&mut self, iterations: usize, unquiet_laps: usize) {
        self.0.push(("loadavg_after", text(loadavg())));
        self.0.push(("iterations", Value::U64(iterations as u64)));
        self.0
            .push(("unquiet_laps", Value::U64(unquiet_laps as u64)));
    }
}

fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).unwrap_or("");
                (
                    name.clone(),
                    obj(vec![("value", Value::F64(*value)), ("unit", text(unit))]),
                )
            })
            .collect(),
    )
}

/// Everything one run measured and checked.
pub struct RunRecord {
    pub workload: &'static str,
    pub traced: bool,
    pub env: Environment,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub ops_per_iteration: u64,
    /// Simulated statistics of the last iteration, cell by cell.
    pub stats: Vec<(String, Value)>,
    /// The contract's metrics: end-to-end ones, or per-layer when traced.
    pub metrics: Metrics,
    /// `run.*` of an untraced run (a traced run has them in `metrics`).
    pub diagnostics: Metrics,
    /// Wall of every untraced timed iteration, in order.
    pub walls: Vec<f64>,
    /// The fastest each lap of the iteration was.
    pub quiet_laps: Vec<f64>,
}

impl RunRecord {
    /// The last line of standard output, as the driver reads it.
    pub fn result_line(&self) -> String {
        let line = obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("workload", text(self.workload)),
            ("traced", Value::Bool(self.traced)),
            (
                "env",
                Value::Object(
                    self.env
                        .0
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "first_failure",
                self.first_failure.clone().map_or(Value::Null, text),
            ),
            ("ops_per_iteration", Value::U64(self.ops_per_iteration)),
            ("stats_digest", text(stats_digest(&self.stats))),
            ("stats", Value::Object(self.stats.clone())),
            ("metrics", metrics_json(&self.metrics)),
            ("diagnostics", metrics_json(&self.diagnostics)),
            (
                "iteration_walls_s",
                Value::Array(self.walls.iter().map(|w| Value::F64(*w)).collect()),
            ),
            (
                "quiet_laps_s",
                Value::Array(self.quiet_laps.iter().map(|w| Value::F64(*w)).collect()),
            ),
        ])
    }

    pub fn print(&self) {
        for (name, value) in self.metrics.iter().chain(&self.diagnostics) {
            println!("{name:46} {value:>16.6} {}", unit_of(name).unwrap_or(""));
        }
        if let Some(first) = &self.first_failure {
            println!("first failure (workload, cell, field, expected, got): {first}");
        }
        println!(
            "{}: {} operations attempted, {} failed",
            self.workload, self.attempted, self.failed
        );
    }
}

pub fn record_path(out: &Path, workload: &str, traced: bool) -> std::path::PathBuf {
    out.join(format!("run-{workload}-trace{}.json", u8::from(traced)))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn write_record(out: &Path, record: &RunRecord) -> Result<(), String> {
    write_json(
        &record_path(out, record.workload, record.traced),
        &record.to_json(),
    )
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
}

/// `value` of metric `name` in a record's `section`.
fn metric(record: &Value, section: &str, name: &str) -> Option<f64> {
    match record
        .field(section)
        .ok()?
        .field(name)
        .ok()?
        .field("value")
        .ok()?
    {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn child_failed(workload: &str, detail: &str) -> Value {
    obj(vec![
        ("workload", text(workload)),
        ("died", text(detail)),
        ("failed", Value::U64(1)),
        ("attempted", Value::U64(1)),
    ])
}

/// Run every workload, each in a fresh process so that its set-up time
/// and peak memory are its own; print the table; write the result set.
pub fn run_set(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot find the benchmark's own executable: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    println!(
        "{:22} {:>10} {:>10} {:>13} {:>10} {:>10} {:>8}",
        "workload", "wall_s", "setup_s", "peak_heap_mib", "attempted", "failed", "iqr"
    );
    for name in NAMES {
        let mut pair = Vec::new();
        for traced in [false, true] {
            if traced && !opts.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    &opts.seed.to_string(),
                    "--seconds",
                    &opts.seconds.to_string(),
                ])
                .args(["--trace", if traced { "1" } else { "0" }, "--out"])
                .arg(&opts.out)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the run of {name}: {e}"))?;
            // A process that dies reports all its operations failed.
            let record = if status.success() {
                read_json(&record_path(&opts.out, name, traced))?
            } else {
                child_failed(name, &status.to_string())
            };
            ok &= matches!(record.field("failed"), Ok(Value::U64(0)));
            pair.push((if traced { "traced" } else { "untraced" }, record));
        }
        let plain = &pair[0].1;
        let iqr = metric(plain, "diagnostics", "run.iqr_ratio").unwrap_or(f64::NAN);
        let show =
            |m: &str| metric(plain, "metrics", m).map_or("-".to_string(), |v| format!("{v:.4}"));
        let count = |f: &str| {
            plain.field(f).map_or("-".to_string(), |v| {
                if let Value::U64(n) = v {
                    n.to_string()
                } else {
                    "-".into()
                }
            })
        };
        println!(
            "{name:22} {:>10} {:>10} {:>13} {:>10} {:>10} {iqr:>8.3}{}",
            show("wall_s"),
            show("setup_s"),
            show("peak_heap_mib"),
            count("attempted"),
            count("failed"),
            if iqr > NOISY_IQR_RATIO { "  noisy" } else { "" },
        );
        if let Ok(Value::Str(first)) = plain.field("first_failure") {
            println!("  first failure (workload, cell, field, expected, got): {first}");
        }
        records.push((
            name.to_string(),
            Value::Object(pair.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ));
    }
    // No gain is claimed by measuring.
    let set = obj(vec![
        ("schema", text("polaris-benchmark/1")),
        ("seed", Value::U64(opts.seed)),
        ("workloads", Value::Object(records)),
        ("claim", Value::Null),
    ]);
    let path = opts.out.join("results.json");
    write_json(&path, &set)?;
    println!("result set written to {}", path.display());
    let summary = obj(vec![
        ("results", text(path.display().to_string())),
        ("correct", Value::Bool(ok)),
        ("claim", Value::Null),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("a value tree serializes")
    );
    Ok(ok)
}

/// Bounds of the end-to-end metrics: `BENCHMARK.json` in the working
/// directory when it lists them, the registry otherwise.
fn bounds() -> Vec<(&'static str, f64)> {
    let listed = match read_json(Path::new("BENCHMARK.json"))
        .as_ref()
        .map(|f| f.field("end_to_end").cloned())
    {
        Ok(Ok(Value::Array(items))) => items,
        _ => Vec::new(),
    };
    END_TO_END
        .iter()
        .map(|(def, registry)| {
            let item = listed
                .iter()
                .find(|i| i.field("name") == Ok(&text(def.name)));
            let bound = item.and_then(|i| {
                if let Ok(Value::F64(b)) = i.field("bound") {
                    Some(*b)
                } else {
                    None
                }
            });
            (def.name, bound.unwrap_or(*registry))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// B against base A for a lower-is-better metric: unresolved when either
/// side's own spread exceeds the bound, worse when B exceeds A by more
/// than the bound.
pub fn verdict(a: f64, b: f64, bound: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if b > a * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `--compare A.json B.json`: one row per (metric, workload). Exit code
/// 0 when every row is ok, 1 when any is worse or any statistics differ,
/// 2 when none is worse but some are unresolved.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let (mut worse, mut unresolved) = (false, false);
    println!("base A = {}, B = {}", a_path.display(), b_path.display());
    println!(
        "{:14} {:22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "metric", "workload", "A", "B", "B/A", "bound"
    );
    for name in NAMES {
        let run = |set: &Value| {
            set.field("workloads")
                .and_then(|w| w.field(name))
                .and_then(|w| w.field("untraced"))
                .cloned()
        };
        let (Ok(ra), Ok(rb)) = (run(&a), run(&b)) else {
            println!("{:14} {name:22} missing from a result set", "*");
            worse = true;
            continue;
        };
        for (metric_name, bound) in bounds() {
            let (Some(va), Some(vb)) = (
                metric(&ra, "metrics", metric_name),
                metric(&rb, "metrics", metric_name),
            ) else {
                println!("{metric_name:14} {name:22} missing from a result set");
                worse = true;
                continue;
            };
            // Only `wall_s` has a spread measured inside the run.
            let spread = |r: &Value| {
                if metric_name == "wall_s" {
                    metric(r, "diagnostics", "run.iqr_ratio").unwrap_or(0.0)
                } else {
                    0.0
                }
            };
            let v = verdict(va, vb, bound, spread(&ra), spread(&rb));
            worse |= v == Verdict::Worse;
            unresolved |= v == Verdict::Unresolved;
            println!(
                "{metric_name:14} {name:22} {va:>12.4} {vb:>12.4} {:>9.4} {bound:>7.2}  {}",
                vb / va,
                format!("{v:?}").to_lowercase()
            );
        }
        let same = |f: &str| ra.field(f).is_ok() && ra.field(f) == rb.field(f);
        let (counts, stats) = (
            same("ops_per_iteration") && same("failed"),
            same("stats_digest"),
        );
        worse |= !(counts && stats);
        println!(
            "{:14} {name:22} counts {}, simulated statistics {}",
            "exact",
            if counts { "agree" } else { "DIFFER" },
            if stats { "agree" } else { "DIFFER" }
        );
    }
    Ok(if worse {
        1
    } else if unresolved {
        2
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_bound_and_the_spread() {
        assert_eq!(verdict(1.0, 1.09, 0.10, 0.02, 0.02), Verdict::Ok);
        assert_eq!(verdict(1.0, 0.5, 0.10, 0.02, 0.02), Verdict::Ok);
        assert_eq!(verdict(1.0, 1.11, 0.10, 0.02, 0.02), Verdict::Worse);
        assert_eq!(verdict(1.0, 1.5, 0.10, 0.12, 0.02), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 1.0, 0.10, 0.02, 0.11), Verdict::Unresolved);
    }
}
