//! Parallel sweep harness for figure generation.
//!
//! Figure sweeps are embarrassingly parallel — each point (a message
//! size, a rank count, a loss-rate cell) is an independent simulation —
//! but the harness must keep two properties the serial generators
//! already have:
//!
//! 1. **Deterministic output.** Points run on a rayon pool sized by
//!    [`jobs`], yet results come back in point-index order, and
//!    [`sweep_obs`] gives every point an isolated [`Obs`] bundle that is
//!    merged back into the caller's bundle in index order via
//!    [`Obs::merge_from`] — so metric registries, Prometheus/JSON
//!    exports, and flight-recorder JSONL are byte-identical whatever
//!    the job count. The determinism oracle in
//!    `tests/parallel_determinism.rs` pins this.
//! 2. **Serial by default.** The job count resolves, in order, to the
//!    value set by `figures --jobs N`, then the `POLARIS_JOBS`
//!    environment variable, then 1.

use polaris_obs::Obs;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// 0 = unset (fall back to `POLARIS_JOBS`, then 1).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Pin the sweep job count for this process (the `--jobs` flag).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The job count sweeps will use: `set_jobs` value, else `POLARIS_JOBS`,
/// else 1.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::env::var("POLARIS_JOBS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1),
        n => n,
    }
}

/// Run `f` over every point on a pool of [`jobs`] workers, returning
/// results in point-index order.
pub fn sweep<T, R, F>(points: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    sweep_with_jobs(points, jobs(), f)
}

/// The pool serving `jobs`-wide sweeps, built once per job count and
/// cached for the life of the process. The vendored pool parks its
/// workers between operations, so every sweep after the first reuses
/// warm threads — short sweeps (a figure of 20 sub-millisecond points)
/// no longer pay a spawn/join per point batch, which is what turned
/// the 2-job sweep into a 0.76× regression.
fn pool_for(jobs: usize) -> Arc<rayon::ThreadPool> {
    type PoolCache = Mutex<Vec<(usize, Arc<rayon::ThreadPool>)>>;
    static POOLS: OnceLock<PoolCache> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
    let mut cached = pools.lock().unwrap();
    if let Some((_, pool)) = cached.iter().find(|(n, _)| *n == jobs) {
        return Arc::clone(pool);
    }
    let pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .expect("building a sweep pool cannot fail"),
    );
    cached.push((jobs, Arc::clone(&pool)));
    pool
}

/// Build (or fetch) the persistent pool for `jobs` workers and run one
/// trivial operation through it, so the threads exist and have parked
/// once before any timed region. The benchmark's `bench.sweep.*` probes
/// call this ahead of their measured sweeps: without it, the first
/// sample at each job count pays thread spawn inside the timing window,
/// which is what kept the 2-job sweep point below break-even even after
/// the pool became persistent.
pub fn warm_pool(jobs: usize) {
    if jobs <= 1 {
        return;
    }
    let warmed: Vec<usize> = pool_for(jobs).install(|| (0..jobs).into_par_iter().collect());
    debug_assert_eq!(warmed.len(), jobs);
}

/// [`sweep`] with an explicit worker count (used by the benchmark's
/// `bench.sweep.*` probes to measure specific job counts regardless of
/// the global setting).
pub fn sweep_with_jobs<T, R, F>(points: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    if jobs <= 1 {
        return points.into_iter().map(f).collect();
    }
    pool_for(jobs).install(|| points.into_par_iter().map(f).collect())
}

/// Run `f` over every point with a per-point isolated [`Obs`] bundle,
/// then merge the bundles into `obs` in point-index order. Because
/// [`Obs::merge_from`] applied in a fixed order reproduces exactly what
/// a single shared bundle would have recorded, the caller's exports are
/// independent of the job count.
pub fn sweep_obs<T, R, F>(points: Vec<T>, obs: &Obs, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&Obs, T) -> R + Sync + Send,
{
    let results: Vec<(Obs, R)> = sweep(points, |p| {
        let local = Obs::new();
        let r = f(&local, p);
        (local, r)
    });
    results
        .into_iter()
        .map(|(local, r)| {
            obs.merge_from(&local);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_point_order() {
        let out = sweep_with_jobs((0..64u64).collect(), 4, |i| i * i);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn obs_merge_is_job_count_invariant() {
        let run = |jobs: usize| {
            let obs = Obs::new();
            let points: Vec<u64> = (0..16).collect();
            let _: Vec<()> = sweep_with_jobs(points, jobs, |i| {
                let local = Obs::new();
                local.counter("sweep_test_total", &[("point", &i.to_string())]).add(i + 1);
                local.instant(i * 10, polaris_obs::Subject::Node(i as u32), "point", &[]);
                (local, ())
            })
            .into_iter()
            .map(|(local, r)| {
                obs.merge_from(&local);
                r
            })
            .collect();
            (obs.prometheus(), obs.recorder.to_jsonl())
        };
        assert_eq!(run(1), run(4));
    }
}
