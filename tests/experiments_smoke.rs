//! Smoke-runs every experiment generator end to end: the full
//! table/figure pipeline must produce non-empty, well-formed output.
//! (The shape assertions live in each generator's unit tests; this is
//! the cross-crate "does the whole harness run" check.)

use polaris_bench::all_experiments;
use polaris_bench::figures::f5_halo;

#[test]
fn every_experiment_generates_output() {
    for (id, generate) in all_experiments() {
        // A2b times thousands of messages on the host clock, which the
        // unoptimised test profile makes slow; A2's model half is pinned
        // by `figures --check-output` and its counters by the
        // `a2_threshold` unit tests.
        if id == "a2" {
            continue;
        }
        let tables = generate();
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has no rows", t.id);
            assert!(!t.headers.is_empty());
            // Rendering succeeds and mentions the id.
            let r = t.render();
            assert!(r.contains(&t.id), "{} render missing id", t.id);
        }
    }
}

#[test]
fn json_series_are_written() {
    let dir = std::env::temp_dir().join("polaris-experiments-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let (_, generate) = all_experiments()
        .into_iter()
        .find(|(id, _)| *id == "f1")
        .expect("f1 exists");
    for t in generate() {
        t.save_json(&dir).expect("save json");
    }
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(entries.len() >= 3, "expected F1 tables on disk");
}

/// F5 runs on the endpoints' virtual clock, so its content is a function
/// of the program: the table equals its block in the committed
/// `figures_output.txt` byte for byte, in this profile as in release
/// (both run the same IEEE operations). `--check-output` and the
/// benchmark check only F5's shape.
#[test]
fn f5_matches_the_committed_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/figures_output.txt");
    let committed = std::fs::read_to_string(path).expect("read figures_output.txt");
    let start = committed.find("== F5 ").expect("F5 in figures_output.txt");
    let len = committed[start..].find("\n\n").expect("F5 block ends") + 1;
    let rendered: String = f5_halo::generate().iter().map(|t| t.render()).collect();
    assert_eq!(rendered, &committed[start..start + len]);
}
