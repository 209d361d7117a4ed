//! `sentinel --spec` against specs naming a topology the simulator
//! refuses: the replay reports the refusal and exits 2, and no audit
//! runs (so nothing panics).

use polaris_sentinel::gen::WorkloadSpec;
use std::process::Command;

/// Replay `spec` through the `sentinel` binary; returns its exit code
/// and standard error.
fn replay(name: &str, spec: &WorkloadSpec) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("sentinel-{name}-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(spec).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sentinel"))
        .arg("--spec")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

fn assert_refused(name: &str, spec: WorkloadSpec, reason: &str) {
    let (code, stderr) = replay(name, &spec);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(reason), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_one_host_ring_is_refused() {
    let spec = WorkloadSpec { topo_kind: 1, topo_a: 1, ..WorkloadSpec::from_seed(0) };
    assert_refused("ring1", spec, "Ring { hosts: 1 }: ring needs at least two hosts");
}

#[test]
fn an_odd_fat_tree_arity_is_refused() {
    let spec = WorkloadSpec { topo_kind: 6, topo_a: 3, topo_b: 1, ..WorkloadSpec::from_seed(0) };
    assert_refused("arity3", spec, "FatTreePods { k: 3, pods: 1 }: fat tree arity must be even");
}
