//! Parallel sweep harness for figure generation.
//!
//! Figure sweeps are embarrassingly parallel — each point (a message
//! size, a rank count, a loss-rate cell) is an independent simulation —
//! but the harness must keep three properties the serial generators
//! already have:
//!
//! 1. **Deterministic output.** A sweep of [`jobs`] runs its points on
//!    the caller plus `jobs − 1` scoped threads, each claiming point
//!    indices from one counter and writing each result into that
//!    point's slot, so results come back in point-index order.
//!    [`sweep_obs`] gives every point an isolated [`Obs`] bundle that is
//!    merged back into the caller's bundle in index order via
//!    [`Obs::merge_from`] — so metric registries, Prometheus/JSON
//!    exports, and flight-recorder JSONL are byte-identical whatever
//!    the job count. The determinism oracle in
//!    `tests/parallel_determinism.rs` pins this.
//! 2. **Serial by default.** The job count resolves, in order, to the
//!    value set by `figures --jobs N`, then the `POLARIS_JOBS`
//!    environment variable, then 1.
//! 3. **A panicking point fails the sweep.** `std::thread::scope` joins
//!    every worker before the panic leaves the call, so a sweep never
//!    hangs on a dead worker and no thread outlives the points it
//!    borrows.

use polaris_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Run `f` over every point on [`jobs`] threads, returning results in
/// point-index order.
pub fn sweep<T, R, F>(points: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    sweep_with_jobs(points, jobs(), f)
}

/// Does nothing: sweeps spawn their threads per call, so there is no
/// pool to warm. Kept only because the frozen benchmark's `probes.rs`
/// calls it ahead of its `bench.sweep.*` timings.
pub fn warm_pool(_jobs: usize) {}

/// [`sweep`] with an explicit worker count (used by the benchmark's
/// `bench.sweep.*` probes to measure specific job counts regardless of
/// the global setting). A panic in `f` is re-raised with its own
/// payload once every thread has stopped.
pub fn sweep_with_jobs<T, R, F>(points: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    let threads = jobs.min(points.len());
    if threads <= 1 {
        return points.into_iter().map(f).collect();
    }
    let points: Vec<Mutex<Option<T>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = points.get(i) else { break };
        let point = slot
            .lock()
            .unwrap()
            .take()
            .expect("each point is claimed once");
        let r = f(point);
        *results[i].lock().unwrap() = Some(r);
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        claim();
        for w in workers {
            // Joining here, rather than leaving it to the scope, keeps
            // the point's own panic message instead of the scope's
            // generic one.
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().unwrap().expect("every point ran"))
        .collect()
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
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_point_order() {
        let out = sweep_with_jobs((0..64u64).collect(), 4, |i| i * i);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn many_small_sweeps_back_to_back() {
        for round in 0..200usize {
            let out = sweep_with_jobs((0..8usize).collect(), 2, |i| i + round);
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    /// Points 0 and 1 meet at a barrier, so they run on different
    /// threads and one of them is the worker's; that one panics. The
    /// sweep runs on a helper thread so a hang fails the test within
    /// seconds instead of stalling the suite.
    #[test]
    fn a_panicking_point_fails_the_sweep_instead_of_hanging() {
        let (done, finished) = mpsc::channel::<()>();
        let sweep = thread::spawn(move || {
            let _done = done;
            let caller = thread::current().id();
            let both_claimed = Barrier::new(2);
            sweep_with_jobs((0..64u64).collect(), 2, |i| {
                if i < 2 {
                    both_claimed.wait();
                    if thread::current().id() != caller {
                        panic!("point {i} panicked on a worker");
                    }
                }
                i
            })
        });
        assert_eq!(
            finished.recv_timeout(Duration::from_secs(10)),
            Err(RecvTimeoutError::Disconnected),
            "the sweep hung on a panicking point"
        );
        let payload = sweep.join().expect_err("the sweep must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the point's message");
        let expected = [
            "point 0 panicked on a worker",
            "point 1 panicked on a worker",
        ];
        assert!(expected.contains(&msg.as_str()), "{msg}");
        let again = sweep_with_jobs((0..64u64).collect(), 2, |i| i * i);
        assert_eq!(again, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
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
