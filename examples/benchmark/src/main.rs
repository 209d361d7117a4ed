//! The Polaris benchmark: seven workloads, three end-to-end metrics and
//! a per-layer ladder, all in host time and all measured from outside
//! the program. See `README.md` beside this package for the metric,
//! workload and layer definitions.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>    one run, result as the last line
//! benchmark [--workload all] [--trace] [--seed <n>] [--out DIR]         the whole set, one process per run
//! benchmark --smoke                                                     everything once at reduced scale
//! benchmark --compare A.json B.json                                     two result sets, row by row
//! benchmark --update-golden | --list-metrics
//! ```

mod alloc;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use serde_json::value::Value;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub struct Options {
    /// A workload name, or `all`.
    pub workload: String,
    pub seed: u64,
    /// How long the timed iterations of one run last.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where records, traces and result sets go.
    pub out: PathBuf,
}

enum Mode {
    Run,
    SetupOnly,
    Smoke,
    UpdateGolden,
    ListMetrics,
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<(Mode, Options), String> {
    let mut opts = Options {
        workload: "all".into(),
        seed: workloads::DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut mode = Mode::Run;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = value(&mut i, "--workload")?,
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    opts.trace = v == "1";
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--out" => opts.out = PathBuf::from(value(&mut i, "--out")?),
            "--smoke" => {
                opts.smoke = true;
                mode = Mode::Smoke;
            }
            "--setup-only" => mode = Mode::SetupOnly,
            "--update-golden" => mode = Mode::UpdateGolden,
            "--list-metrics" => mode = Mode::ListMetrics,
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                mode = Mode::Compare(a.into(), b.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok((mode, opts))
}

/// The `end_to_end` and `per_layer` lists in `BENCHMARK.json`'s format.
fn list_metrics() -> String {
    let def = |d: &metrics::Def, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Value::Str(d.name.into())),
            ("unit", Value::Str(d.unit.into())),
            ("better", Value::Str(d.better.into())),
        ];
        if let Some(b) = bound {
            fields.push(("bound", Value::F64(b)));
        }
        workloads::obj(fields)
    };
    let lists = workloads::obj(vec![
        (
            "end_to_end",
            Value::Array(
                metrics::END_TO_END
                    .iter()
                    .map(|(d, b)| def(d, Some(*b)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(metrics::PER_LAYER.iter().map(|d| def(d, None)).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&lists).expect("a value tree serializes")
}

fn real_main(started: Instant) -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts) = parse(&args)?;
    match mode {
        Mode::ListMetrics => {
            println!("{}", list_metrics());
            Ok(0)
        }
        Mode::Compare(a, b) => report::compare(&a, &b),
        Mode::UpdateGolden => run::update_golden().map(|()| 0),
        Mode::SetupOnly => run::setup_only(&opts, started).map(|()| 0),
        Mode::Smoke => Ok(i32::from(!run::smoke(&opts)?)),
        Mode::Run => {
            std::fs::create_dir_all(&opts.out)
                .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
            if opts.workload == "all" {
                return Ok(i32::from(!report::run_set(&opts)?));
            }
            let record = if opts.trace {
                run::traced(&opts)?
            } else {
                run::untraced(&opts)?
            };
            report::write_record(&opts.out, &record)?;
            record.print();
            println!("{}", record.result_line());
            // Failed operations are reported in the result, not by the
            // exit code: the run itself completed.
            Ok(0)
        }
    }
}

fn main() {
    let started = Instant::now();
    match real_main(started) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
