//! `sentinel` — drive the conservation audits and differential oracles
//! over seeded random workloads.
//!
//! ```text
//! sentinel [--seed N | --seed A..B] [--iters K] [--shrink] [--no-figures]
//!          [--out DIR] [--spec FILE]
//! ```
//!
//! * `--seed A..B` — base seeds to fuzz (default `0..8`, end exclusive).
//! * `--iters K`   — cases per base seed (default 25).
//! * `--shrink`    — minimize failing specs before reporting.
//! * `--no-figures` — skip the (process-global, comparatively slow)
//!   figures jobs=1-vs-4 oracle.
//! * `--out DIR`   — where failure artifacts land (default
//!   `target/sentinel`).
//! * `--spec FILE` — replay one JSON spec (as dumped in a failure
//!   report) instead of fuzzing.
//!
//! Exit status: 0 clean, 1 violations found, 2 usage error or a
//! replayed spec whose topology the simulator refuses. Every
//! failing case writes `<out>/case-<case_seed>.json` — a
//! [`FailureReport`] with the original and minimized specs plus the
//! violation details — so CI can upload the minimal reproducer.

use polaris_sentinel::gen::WorkloadSpec;
use polaris_sentinel::{oracle, run_case, shrink, FailureReport};
use polaris_simnet::prelude::Topology;
use std::process::ExitCode;

struct Args {
    seed_lo: u64,
    seed_hi: u64,
    iters: u64,
    shrink: bool,
    figures: bool,
    out_dir: String,
    spec_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed_lo: 0,
        seed_hi: 8,
        iters: 25,
        shrink: false,
        figures: true,
        out_dir: "target/sentinel".into(),
        spec_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                if let Some((lo, hi)) = v.split_once("..") {
                    args.seed_lo = lo.parse().map_err(|_| format!("bad seed range {v}"))?;
                    args.seed_hi = hi.parse().map_err(|_| format!("bad seed range {v}"))?;
                    if args.seed_hi <= args.seed_lo {
                        return Err(format!("empty seed range {v}"));
                    }
                } else {
                    args.seed_lo = v.parse().map_err(|_| format!("bad seed {v}"))?;
                    args.seed_hi = args.seed_lo + 1;
                }
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad iters {v}"))?;
            }
            "--shrink" => args.shrink = true,
            "--no-figures" => args.figures = false,
            "--out" => args.out_dir = it.next().ok_or("--out needs a value")?,
            "--spec" => args.spec_file = Some(it.next().ok_or("--spec needs a value")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sentinel: {e}");
            return ExitCode::from(2);
        }
    };

    // Replay mode: one spec, full audit, verbose verdicts.
    if let Some(path) = &args.spec_file {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("sentinel: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        // Accept either a bare spec or a full failure report (in which
        // case the minimized spec is the interesting one to replay).
        let spec: WorkloadSpec = match serde_json::from_str(&json) {
            Ok(s) => s,
            Err(_) => match serde_json::from_str::<FailureReport>(&json) {
                Ok(r) => r.minimized,
                Err(e) => {
                    eprintln!("sentinel: {path} is neither a WorkloadSpec nor a FailureReport: {e}");
                    return ExitCode::from(2);
                }
            },
        };
        // A replayed spec is outside input, not a seed draw: refuse a
        // shape the simulator cannot build before any audit runs it.
        if let Err(e) = Topology::try_new(spec.topology()) {
            eprintln!("sentinel: {path}: {e}");
            return ExitCode::from(2);
        }
        let violations = run_case(&spec);
        if violations.is_empty() {
            println!("replay {path}: clean");
            return ExitCode::SUCCESS;
        }
        for v in &violations {
            println!("VIOLATION [{}] {}", v.invariant, v.detail);
        }
        return ExitCode::FAILURE;
    }

    let total_cases = (args.seed_hi - args.seed_lo) * args.iters;
    println!(
        "sentinel: seeds {}..{}, {} iters each ({} cases), shrink={}, figures={}",
        args.seed_lo, args.seed_hi, args.iters, total_cases, args.shrink, args.figures
    );
    let mut failures = 0u64;
    let mut cases = 0u64;
    for base in args.seed_lo..args.seed_hi {
        for iter in 0..args.iters {
            cases += 1;
            let case_seed = WorkloadSpec::case_seed(base, iter);
            let spec = WorkloadSpec::from_seed(case_seed);
            let violations = run_case(&spec);
            if violations.is_empty() {
                continue;
            }
            failures += 1;
            println!(
                "FAIL base={base} iter={iter} case_seed={case_seed:#x}: {} violation(s)",
                violations.len()
            );
            for v in &violations {
                println!("  [{}] {}", v.invariant, v.detail);
            }
            let (minimized, min_violations) = if args.shrink {
                shrink(&spec, 64)
            } else {
                (spec.clone(), violations.clone())
            };
            if minimized != spec {
                println!("  minimized to size {} (from {}):", minimized.size(), spec.size());
                for v in &min_violations {
                    println!("    [{}] {}", v.invariant, v.detail);
                }
            }
            let report = FailureReport {
                base_seed: base,
                iter,
                case_seed,
                spec,
                violations,
                minimized,
                minimized_violations: min_violations,
            };
            if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
                eprintln!("sentinel: cannot create {}: {e}", args.out_dir);
            } else {
                let path = format!("{}/case-{case_seed:016x}.json", args.out_dir);
                match serde_json::to_string(&report) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(&path, json) {
                            eprintln!("sentinel: cannot write {path}: {e}");
                        } else {
                            println!("  replay artifact: {path}");
                        }
                    }
                    Err(e) => eprintln!("sentinel: cannot serialize report: {e}"),
                }
            }
        }
        println!("seed {base}: {cases} cases so far, {failures} failing");
    }

    if args.figures {
        println!("figures oracle: jobs=1 vs jobs=4 ...");
        let v = oracle::figures_jobs_oracle();
        if !v.is_empty() {
            failures += 1;
            for v in &v {
                println!("VIOLATION [{}] {}", v.invariant, v.detail);
            }
        }
    }

    if failures == 0 {
        println!("sentinel: {cases} cases, all invariants held");
        ExitCode::SUCCESS
    } else {
        println!("sentinel: {failures} failing case(s) out of {cases}");
        ExitCode::FAILURE
    }
}
