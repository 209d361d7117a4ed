//! `figures` — regenerate the evaluation tables.
//!
//! Usage: `cargo run --release -p polaris-bench -- [all|f1|f2|...|f14|a2|ablations]...`
//!        `cargo run --release -p polaris-bench -- [--jobs N] ...`
//!        `cargo run --release -p polaris-bench -- --check-output [path]`
//!
//! Prints each table and writes `target/figures/<id>.json`. Sweeps fan
//! out over `--jobs` worker threads (or `POLARIS_JOBS`); output is
//! byte-identical at any job count. `--check-output` regenerates every
//! table and diffs the result against the committed snapshot
//! (`figures_output.txt` by default), exiting nonzero on drift.
//! `ablations` (A1 / A3 / A4) runs only when named: `all` is exactly
//! what the snapshot holds.

use polaris_bench::{all_experiments, named_experiments, sweep};
use std::path::PathBuf;

/// Compare the regenerated output with the committed snapshot; report
/// the first divergent table on mismatch. The tables in
/// [`polaris_bench::WALL_CLOCK_TABLES`] are shape-checked only.
fn check_output(path: &str) -> i32 {
    let expected = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--check-output: cannot read {path}: {e}");
            return 2;
        }
    };
    match polaris_bench::check_figures_output(&expected) {
        Ok(()) => {
            eprintln!("--check-output: {path} is up to date");
            0
        }
        Err(report) => {
            eprintln!("--check-output: {path} {report}");
            1
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--jobs N` may appear anywhere (before experiment ids or modes).
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let n = args
            .get(i + 1)
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("--jobs requires a positive integer");
                std::process::exit(2);
            });
        sweep::set_jobs(n);
        args.drain(i..i + 2);
    }
    if let Some(i) = args.iter().position(|a| a == "--check-output") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "figures_output.txt".to_string());
        std::process::exit(check_output(&path));
    }
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all_experiments().iter().map(|(id, _)| id.to_string()).collect()
    } else {
        args
    };
    let known: Vec<_> = all_experiments().into_iter().chain(named_experiments()).collect();
    let out_dir = PathBuf::from("target/figures");
    let mut ran = 0;
    for &(id, gen) in &known {
        if !wanted.iter().any(|w| w.eq_ignore_ascii_case(id)) {
            continue;
        }
        ran += 1;
        let t0 = std::time::Instant::now();
        for table in gen() {
            table.print();
            if let Err(e) = table.save_json(&out_dir) {
                eprintln!("warning: could not save {}: {e}", table.id);
            }
        }
        eprintln!("[{id} regenerated in {:?}]\n", t0.elapsed());
    }
    if ran == 0 {
        let known: Vec<&str> = known.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment id(s) {wanted:?}; known: {} all", known.join(" "));
        std::process::exit(2);
    }
    eprintln!("JSON series written to {}", out_dir.display());
}
