//! Integration tests for the serving plane: the content-addressed
//! result cache, the sweep server, the closed-loop client population,
//! and incremental re-simulation — exercised together, from outside
//! the `polaris-serve` crate, the way the benchmark's `serve_zipf`
//! workload drives them.

use polaris_serve::prelude::*;
use polaris_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A warm figure render must be byte-identical to the cold one and
/// must never re-enter the simulation engine: every row comes out of
/// the cache.
#[test]
fn warm_figure_is_byte_identical_and_engine_free() {
    let server = SweepServer::new(64 << 20, Obs::new());
    let scales = [4u32, 16, 64];
    let cold = server.run_figure(&scales);
    let misses_after_cold = server.cache_stats().misses;
    let warm = server.run_figure(&scales);
    let stats = server.cache_stats();

    assert_eq!(cold.header, warm.header);
    assert_eq!(cold.rows, warm.rows, "warm render must be byte-identical");
    assert_eq!(
        stats.misses, misses_after_cold,
        "warm render must not miss (engine re-entry)"
    );
    assert!(stats.hits >= cold.rows.len() as u64);
}

/// Two servers built independently answer the same spec with the same
/// cache key and the same result: content addressing is a function of
/// the spec value, not of construction order or server identity.
#[test]
fn content_addressing_is_stable_across_servers() {
    let specs = figure_specs(&[4, 16]);
    let a = SweepServer::new(1 << 20, Obs::new());
    let b = SweepServer::new(1 << 20, Obs::new());
    // Ask b in reverse order to break any order dependence.
    let from_a: Vec<_> = specs.iter().map(|s| a.request(*s)).collect();
    let from_b: Vec<_> = specs.iter().rev().map(|s| b.request(*s)).collect();
    for (s, (ra, rb)) in specs.iter().zip(from_a.iter().zip(from_b.iter().rev())) {
        assert_eq!(**ra, **rb, "spec {s:?} answered differently");
    }
}

/// Concurrent identical requests are deduplicated by single-flight:
/// the expensive computation runs once, late arrivals wait and share
/// the leader's Arc.
#[test]
fn single_flight_collapses_concurrent_identical_requests() {
    let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(1 << 20, Obs::new()));
    let runs = Arc::new(AtomicU64::new(0));
    let key = SpecHash(0xdead_beef);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let cache = Arc::clone(&cache);
        let runs = Arc::clone(&runs);
        handles.push(std::thread::spawn(move || {
            *cache.get_or_compute(key, || {
                runs.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                42u64
            }, |_| 8)
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 42);
    }
    assert_eq!(runs.load(Ordering::SeqCst), 1, "compute must run exactly once");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "only the leader may miss");
    // Every follower resolves as a hit, whether it parked behind the
    // leader (also counting a singleflight wait) or arrived after the
    // slot was Ready.
    assert_eq!(stats.hits, 7);
    assert!(stats.singleflight_waits >= 1, "20ms of compute must park someone");
}

/// Under a byte budget too small for the working set, the cache evicts
/// least-recently-used entries, keeps serving correct results, and its
/// stats stay conserved (hits + misses == requests).
#[test]
fn eviction_keeps_results_correct_under_pressure() {
    let specs = figure_specs(&[4, 16, 64]);
    let tiny = specs[0].compute().cache_bytes() * 4; // room for ~4 of 30 entries
    let server = SweepServer::new(tiny, Obs::new());
    let mut expected = Vec::new();
    for s in &specs {
        expected.push((*server.request(*s)).clone());
    }
    // Sweep again: most entries were evicted, recomputes must agree.
    for (s, want) in specs.iter().zip(&expected) {
        assert_eq!(*server.request(*s), *want, "recompute after eviction diverged");
    }
    let stats = server.cache_stats();
    assert!(stats.evictions > 0, "a 4-entry budget over 30 specs must evict");
    assert_eq!(stats.hits + stats.misses, 2 * specs.len() as u64);
    assert!(stats.bytes <= tiny, "cache exceeded its byte budget");
}

/// The Zipf client population against the full figure spec space: a
/// skewed draw over a small universe must settle into a high hit
/// ratio, and the report's books must balance.
#[test]
fn zipf_population_is_cache_friendly() {
    let server = SweepServer::new(64 << 20, Obs::new());
    let specs = figure_specs(&[4, 16, 64]);
    let report = drive(
        &server,
        &specs,
        LoadConfig { requests: 20_000, clients: 4, zipf_s: 1.0, seed: 0xf00d },
    );
    assert_eq!(report.hits + report.misses, report.requests);
    assert!(report.hit_ratio > 0.99, "hit ratio {}", report.hit_ratio);
    assert!(report.requests_per_sec > 0.0);
    // The server's own counters tell the same story as the report.
    let stats = server.cache_stats();
    assert_eq!(stats.hits, report.hits);
}

/// Incremental re-simulation answers a point-mutated spec with the
/// exact digest of a cold run while skipping the unaffected prefix.
#[test]
fn incremental_resimulation_matches_cold_and_saves_work() {
    let base = PhasedSpec {
        hosts: 10,
        nshards: 2,
        phase_len: 300,
        phases: vec![
            PhaseCfg { tokens: 3, hops: 12, stagger: 1 },
            PhaseCfg { tokens: 2, hops: 10, stagger: 2 },
            PhaseCfg { tokens: 4, hops: 14, stagger: 0 },
            PhaseCfg { tokens: 2, hops: 8, stagger: 3 },
        ],
    };
    let runner = IncrementalRunner::new(Obs::new());
    let first = runner.run(&base);
    assert_eq!(first.phases_reused, 0, "nothing to reuse on the first run");

    let mut mutated = base.clone();
    mutated.phases[3].hops += 9; // tail-only mutation
    let warm = runner.run(&mutated);
    let cold = polaris_serve::incremental::run_cold(&mutated);

    assert_eq!(warm.digest, cold.digest, "incremental digest diverged from cold");
    assert_eq!(warm.end_time_ps, cold.end_time_ps);
    assert_eq!(warm.phases_reused, 3, "all three unaffected phases must be reused");
    assert!(
        warm.events_executed < cold.events_executed,
        "incremental must execute fewer events ({} vs {})",
        warm.events_executed,
        cold.events_executed
    );
    assert_eq!(warm.events_total, cold.events_total);
}

/// The full checkpoint identity contract incremental re-simulation
/// relies on:
/// snapshots taken at every phase boundary restore bit-identically
/// through JSON at 1/2/4 shards.
#[test]
fn snapshot_identity_contract_holds() {
    assert!(polaris_serve::incremental::snapshot_identity_check());
}
