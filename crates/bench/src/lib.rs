//! # polaris-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! constructed evaluation (see DESIGN.md / EXPERIMENTS.md): the
//! `figures` binary prints the tables and dumps machine-readable JSON to
//! `target/figures/`. How fast the stack runs is measured only by the
//! benchmark in `examples/benchmark/`; the executable stack's wall-clock
//! *results* (F5, A2b and the A1 / A3 / A4 ablations) are tables here
//! beside the simulated ones.

pub mod figures;
pub mod perf;
pub mod sweep;
pub mod table;

use table::Table;

/// A figure/table generator.
pub type Generator = fn() -> Vec<Table>;

/// Render every experiment's tables exactly as the `figures` binary
/// prints them to stdout: each table's [`Table::render`] output followed
/// by the newline `println!` appends. `figures --check-output` diffs
/// this against the committed `figures_output.txt`.
pub fn render_all() -> String {
    let mut out = String::new();
    for (_id, generator) in all_experiments() {
        for table in generator() {
            out.push_str(&table.render());
            out.push('\n');
        }
    }
    out
}

/// Tables whose cells measure host wall-clock time (the executable
/// stack timed on whatever machine runs the harness). Their values are
/// legitimately machine-dependent, so `--check-output` verifies their
/// presence and position but not their cells. Everything else is a pure
/// function of virtual time and seeds and must match byte for byte.
pub const WALL_CLOCK_TABLES: &[&str] = &["F5", "A2b"];

/// Split a `figures` stdout capture into `(table id, block)` pairs; a
/// block is everything from a `== ID — title ==` banner up to the next.
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

/// Regenerate every experiment and compare against a committed stdout
/// snapshot. Deterministic tables must match byte for byte; tables in
/// [`WALL_CLOCK_TABLES`] only need to exist in the same position with
/// the same shape (row count). Returns a human-readable drift report on
/// mismatch.
pub fn check_figures_output(expected: &str) -> Result<(), String> {
    let actual = render_all();
    let exp = split_tables(expected);
    let act = split_tables(&actual);
    let exp_ids: Vec<&str> = exp.iter().map(|(id, _)| id.as_str()).collect();
    let act_ids: Vec<&str> = act.iter().map(|(id, _)| id.as_str()).collect();
    if exp_ids != act_ids {
        return Err(format!(
            "table sequence drifted:\n  committed: {exp_ids:?}\n  generated: {act_ids:?}"
        ));
    }
    for ((id, e), (_, a)) in exp.iter().zip(&act) {
        if WALL_CLOCK_TABLES.contains(&id.as_str()) {
            if e.lines().count() != a.lines().count() {
                return Err(format!(
                    "wall-clock table {id} changed shape: {} lines committed, {} generated",
                    e.lines().count(),
                    a.lines().count()
                ));
            }
            continue;
        }
        if e != a {
            let (el, al) = e
                .lines()
                .zip(a.lines())
                .find(|(el, al)| el != al)
                .unwrap_or(("<missing>", "<extra>"));
            return Err(format!(
                "table {id} drifted:\n  committed: {el}\n  generated: {al}"
            ));
        }
    }
    Ok(())
}

/// All experiments, in index order, as (id, generator) pairs.
pub fn all_experiments() -> Vec<(&'static str, Generator)> {
    vec![
        ("f1", figures::f1_projection::generate),
        ("f2", figures::f2_p2p::generate),
        ("f3", figures::f3_collectives::generate),
        ("f4", figures::f4_roofline::generate),
        ("f5", figures::f5_halo::generate),
        ("t2", figures::t2_rms::generate),
        ("f6", figures::f6_checkpoint::generate),
        ("f7", figures::f7_optical::generate),
        ("f8", figures::f8_decade::generate),
        ("f9", figures::f9_placement::generate),
        ("f10", figures::f10_sustained::generate),
        ("f11", figures::f11_chaos::generate),
        ("f12", figures::f12_lifecycle::generate),
        ("f13", figures::f13_interconnect::generate),
        ("f14", figures::f14_workloads::generate),
        ("a2", figures::a2_threshold::generate),
    ]
}

/// Experiments `figures` runs only when named, never under `all`: the
/// A1 / A3 / A4 wall-clock ablations. `all` is what `figures_output.txt`
/// holds, and the frozen benchmark's golden file pins that table
/// sequence; the benchmark PR folds them in (ROADMAP item 1).
pub fn named_experiments() -> Vec<(&'static str, Generator)> {
    vec![("ablations", figures::a2_threshold::ablations)]
}
