//! Batch-scheduler simulation: FCFS, EASY and conservative backfill.
//!
//! The keynote's "resource management" responsibility. An event-driven
//! simulation of a space-shared cluster: jobs arrive, wait in a queue,
//! run on a rigid node allocation for their actual runtime, and leave.
//! The events run on the node-lifecycle fleet ([`crate::lifecycle::fleet`])
//! with churn switched off; this module owns the admission policy.
//! Three policies:
//!
//! * **FCFS** — start the head of the queue whenever it fits; nothing
//!   may pass it. Simple, fair, and poor at packing.
//! * **EASY backfill** — the head gets a *reservation* at the earliest
//!   time enough nodes free up (using user estimates); any later job may
//!   jump ahead if it fits on idle nodes *without delaying that
//!   reservation*. The classic utilization win, reproduced as T2.
//! * **Conservative backfill** — every queued job holds a reservation in
//!   arrival order; a job may start early only if it delays none of
//!   them. More predictable waits, less aggressive packing.

use crate::job::{Job, JobOutcome, ScheduleMetrics};
use crate::timeline::Timeline;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Fcfs,
    /// Reservation for the queue head only; anything may backfill that
    /// does not delay it (aggressive, the production default).
    EasyBackfill,
    /// A reservation for *every* queued job, in arrival order; backfill
    /// only where no reservation is delayed (predictable, less packing).
    ConservativeBackfill,
}

/// Simulate `jobs` (sorted by arrival) on `nodes` nodes under `policy`.
/// Returns one outcome per job, sorted by id.
///
/// This is the node-lifecycle fleet without churn
/// ([`crate::lifecycle::fleet`]): every node is `Healthy` from t = 0,
/// so the run is pure queueing. Times are rounded to the fleet's
/// picosecond clock, and `arrival`, `start` and `finish` are reported
/// on it.
pub fn simulate(nodes: u32, policy: Policy, jobs: &[Job]) -> Vec<JobOutcome> {
    assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    assert!(
        jobs.iter().all(|j| j.width <= nodes),
        "a job wider than the machine never starts"
    );
    // Some job runs whenever the queue is non-empty, so every job ends
    // by the last arrival plus all the work, and every estimated end by
    // that plus the largest overestimate. Past 2^64 ps the clock would
    // saturate silently.
    let work: f64 = jobs.iter().map(|j| j.runtime).sum();
    let slack = jobs.iter().map(|j| j.estimate - j.runtime).fold(0.0, f64::max);
    let bound = jobs.last().map_or(0.0, |j| j.arrival) + work + slack;
    assert!(
        bound * 1e12 < u64::MAX as f64,
        "jobs may run to {bound:.3e} s, past the 2^64 ps (about 213 days) simulated clock"
    );
    crate::lifecycle::fleet::run_batch(nodes, policy, jobs)
}

/// A queued admission request, as the planner sees it: how many nodes,
/// and the user's runtime estimate (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedReq {
    pub width: u32,
    pub estimate: f64,
}

/// A running allocation, as the planner sees it: how many nodes it
/// holds and when the scheduler believes they free up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningRes {
    pub width: u32,
    pub est_end: f64,
}

/// How deep into the queue conservative backfill looks per pass.
/// Production schedulers bound this scan: reservations beyond a few
/// dozen queue positions cost quadratic work and almost never start a
/// job (jobs deeper in the queue stay queued, which is safe — strictly
/// *more* conservative).
const CONSERVATIVE_DEPTH: usize = 32;

/// The single admission authority: given the queue (arrival order),
/// the running allocations, and the free-node count, decide which
/// queued requests start *now* under `policy`. Returns their queue
/// indices in ascending order.
///
/// A pure planning function — it mutates nothing. The node-lifecycle
/// fleet (`lifecycle::fleet`) calls it on every dispatch, and so does
/// [`simulate`], which is that fleet without churn.
pub fn plan_admissions(
    policy: Policy,
    now: f64,
    queue: &[QueuedReq],
    running: &[RunningRes],
    free: u32,
) -> Vec<usize> {
    let mut picks = Vec::new();
    let mut free = free;
    // Queue heads start while they fit, under every policy.
    let mut started: Vec<RunningRes> = Vec::new();
    let mut next = 0usize;
    while next < queue.len() && queue[next].width <= free {
        free -= queue[next].width;
        started.push(RunningRes {
            width: queue[next].width,
            est_end: now + queue[next].estimate,
        });
        picks.push(next);
        next += 1;
    }
    if policy == Policy::Fcfs || next >= queue.len() {
        return picks;
    }
    if policy == Policy::ConservativeBackfill {
        conservative_plan(now, queue, running, &started, free, next, &mut picks);
        return picks;
    }
    // EASY: reserve for the head, then backfill behind it. When can the
    // head start? Walk estimated completions in time order, accumulating
    // freed nodes.
    let head = queue[next];
    let mut ends: Vec<(f64, u32)> = running
        .iter()
        .chain(started.iter())
        .map(|r| (r.est_end, r.width))
        .collect();
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut avail = free;
    let mut shadow = now;
    let mut extra = 0u32; // nodes idle at shadow time beyond the head's need
    for (t, w) in ends {
        if avail >= head.width {
            break;
        }
        avail += w;
        shadow = t;
    }
    if avail >= head.width {
        extra = avail - head.width;
    }
    // Backfill: any queued job (after the head) that fits free nodes now
    // and either finishes (by estimate) before the shadow time or uses
    // only nodes the reservation does not need.
    for (idx, cand) in queue.iter().enumerate().skip(next + 1) {
        let fits_now = cand.width <= free;
        let respects_reservation =
            now + cand.estimate <= shadow || cand.width <= extra.min(free);
        if fits_now && respects_reservation {
            picks.push(idx);
            free -= cand.width;
            if cand.width <= extra {
                extra -= cand.width;
            }
        }
    }
    picks
}

/// Conservative backfill: give each queued job (in arrival order, up to
/// [`CONSERVATIVE_DEPTH`] deferred reservations) a reservation on an
/// availability timeline built from estimated ends; pick exactly those
/// whose reservation is "now".
fn conservative_plan(
    now: f64,
    queue: &[QueuedReq],
    running: &[RunningRes],
    started: &[RunningRes],
    free_in: u32,
    next: usize,
    picks: &mut Vec<usize>,
) {
    let mut free = free_in;
    let mut tl = Timeline::new(now, free);
    for r in running.iter().chain(started.iter()) {
        tl.release_at(r.est_end, r.width);
    }
    let mut deferred = 0usize;
    for (idx, job) in queue.iter().enumerate().skip(next) {
        if deferred >= CONSERVATIVE_DEPTH {
            break;
        }
        let start_at = tl.earliest_fit(job.width, job.estimate);
        if start_at <= now && job.width <= free {
            picks.push(idx);
            free -= job.width;
            tl.commit(now, job.estimate, job.width);
            // Earlier reservations are unaffected (we only consumed a
            // window that fit); later ones are recomputed against the
            // updated timeline as the loop continues.
        } else {
            tl.commit(start_at.min(f64::MAX), job.estimate, job.width);
            deferred += 1;
        }
    }
}

/// Convenience: simulate and summarize.
pub fn run_and_summarize(nodes: u32, policy: Policy, jobs: &[Job]) -> ScheduleMetrics {
    ScheduleMetrics::from_outcomes(&simulate(nodes, policy, jobs), nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};

    fn job(id: u64, width: u32, runtime: f64, est: f64, arrival: f64) -> Job {
        Job::new(id, width, runtime, est, arrival)
    }

    #[test]
    fn single_job_runs_immediately() {
        let out = simulate(4, Policy::Fcfs, &[job(0, 2, 100.0, 100.0, 5.0)]);
        assert_eq!(out[0].start, 5.0);
        assert_eq!(out[0].finish, 105.0);
    }

    #[test]
    fn fcfs_never_reorders() {
        // Wide job blocks; a tiny job behind it must wait under FCFS.
        let jobs = [
            job(0, 4, 100.0, 100.0, 0.0), // occupies everything
            job(1, 4, 100.0, 100.0, 1.0), // must wait for all 4
            job(2, 1, 10.0, 10.0, 2.0),   // could fit, FCFS says no
        ];
        let out = simulate(4, Policy::Fcfs, &jobs);
        assert_eq!(out[1].start, 100.0);
        assert!(out[2].start >= 200.0, "tiny job must not pass the queue head");
    }

    #[test]
    fn easy_backfills_the_tiny_job() {
        let jobs = [
            job(0, 3, 100.0, 100.0, 0.0), // leaves one node idle
            job(1, 4, 100.0, 100.0, 1.0), // head: must wait until t=100
            job(2, 1, 10.0, 10.0, 2.0),   // fits the idle node, ends by 12
        ];
        let out = simulate(4, Policy::EasyBackfill, &jobs);
        // Job 2 fits in the hole while job 1 waits for nodes — allowed
        // because its estimate ends before the head's reservation.
        assert_eq!(out[2].start, 2.0);
        // And the head was not delayed.
        assert_eq!(out[1].start, 100.0);
        // FCFS, by contrast, leaves the hole empty.
        let fcfs = simulate(4, Policy::Fcfs, &jobs);
        assert!(fcfs[2].start >= 100.0);
    }

    #[test]
    fn easy_never_delays_the_reservation() {
        // A backfill candidate whose estimate exceeds the shadow window
        // and which would eat reserved nodes must NOT start.
        let jobs = [
            job(0, 3, 100.0, 100.0, 0.0), // 3 of 4 nodes busy until 100
            job(1, 2, 50.0, 50.0, 1.0),   // head: needs 2, waits for t=100
            job(2, 1, 500.0, 500.0, 2.0), // fits the idle node but runs long
        ];
        let out = simulate(4, Policy::EasyBackfill, &jobs);
        // At the shadow time (100) 4 nodes are free and the head needs
        // 2, so 2 are spare: a candidate no wider than that may run past
        // the shadow.
        assert_eq!(out[2].start, 2.0);
        // Head still starts exactly at its reservation.
        assert_eq!(out[1].start, 100.0);
    }

    #[test]
    fn easy_blocks_backfill_that_would_delay_head() {
        // All nodes needed by the head at shadow time: extra = 0, long
        // candidate must wait.
        let jobs = [
            job(0, 4, 100.0, 100.0, 0.0),
            job(1, 4, 50.0, 50.0, 1.0),   // head needs the whole machine
            job(2, 1, 500.0, 500.0, 2.0), // would delay the head
        ];
        let out = simulate(4, Policy::EasyBackfill, &jobs);
        assert_eq!(out[1].start, 100.0, "head must not be delayed");
        assert!(out[2].start >= 150.0, "long candidate must not backfill");
    }

    #[test]
    fn conservative_blocks_backfill_that_delays_any_reservation() {
        // j2 fits the idle node and respects the HEAD's reservation (so
        // EASY lets it run), but it would push the already-queued j3's
        // reservation from t=150 past t=300 — conservative holds it back.
        // (Arrival order matters: j3 must be queued before j2 arrives.)
        let jobs = [
            job(0, 3, 100.0, 100.0, 0.0), // 3 of 4 nodes until 100
            job(1, 2, 50.0, 50.0, 1.0),   // head: reserved at 100
            job(3, 4, 50.0, 50.0, 2.0),   // whole machine; reserved 150
            job(2, 1, 300.0, 300.0, 3.0), // long; fits the idle node
        ];
        let easy = simulate(4, Policy::EasyBackfill, &jobs);
        assert_eq!(easy[2].start, 3.0, "EASY backfills the long job");
        assert!(easy[3].start >= 290.0, "...delaying the wide job");
        let cons = simulate(4, Policy::ConservativeBackfill, &jobs);
        assert!(cons[2].start >= 150.0, "conservative holds the long job");
        assert_eq!(cons[3].start, 150.0, "wide job's reservation honoured");
    }

    #[test]
    fn conservative_still_backfills_harmless_jobs() {
        let jobs = [
            job(0, 3, 100.0, 100.0, 0.0),
            job(1, 4, 100.0, 100.0, 1.0), // head reserved at 100
            job(2, 1, 10.0, 10.0, 2.0),   // ends long before 100
        ];
        let out = simulate(4, Policy::ConservativeBackfill, &jobs);
        assert_eq!(out[2].start, 2.0);
        assert_eq!(out[1].start, 100.0);
    }

    #[test]
    fn policy_ordering_on_realistic_load() {
        let cfg = WorkloadConfig {
            mean_interarrival: 120.0,
            ..WorkloadConfig::default()
        };
        let jobs = generate(&cfg, 400, 17);
        let fcfs = run_and_summarize(64, Policy::Fcfs, &jobs);
        let cons = run_and_summarize(64, Policy::ConservativeBackfill, &jobs);
        let easy = run_and_summarize(64, Policy::EasyBackfill, &jobs);
        // Both backfillers beat FCFS; EASY packs at least as well as
        // conservative on makespan.
        assert!(cons.mean_wait < fcfs.mean_wait);
        assert!(easy.mean_wait < fcfs.mean_wait);
        assert!(easy.makespan <= cons.makespan * 1.05);
    }

    #[test]
    fn work_is_conserved_under_both_policies() {
        let jobs = generate(&WorkloadConfig::default(), 300, 5);
        for policy in [
            Policy::Fcfs,
            Policy::EasyBackfill,
            Policy::ConservativeBackfill,
        ] {
            let out = simulate(64, policy, &jobs);
            assert_eq!(out.len(), jobs.len());
            for (o, j) in out.iter().zip(jobs.iter()) {
                assert_eq!(o.id, j.id);
                assert!(o.start >= o.arrival, "{policy:?} started before arrival");
                assert!((o.finish - o.start - j.runtime).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn node_capacity_never_exceeded() {
        // Reconstruct node usage over time from outcomes.
        let jobs = generate(&WorkloadConfig::default(), 300, 6);
        for policy in [
            Policy::Fcfs,
            Policy::EasyBackfill,
            Policy::ConservativeBackfill,
        ] {
            let out = simulate(64, policy, &jobs);
            let mut events: Vec<(f64, i64)> = Vec::new();
            for o in &out {
                events.push((o.start, o.width as i64));
                events.push((o.finish, -(o.width as i64)));
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut used = 0i64;
            for (_, delta) in events {
                used += delta;
                assert!(used <= 64, "{policy:?} oversubscribed: {used}");
                assert!(used >= 0);
            }
        }
    }

    #[test]
    fn backfill_improves_throughput_on_realistic_load() {
        // Heavier load than default so queues form.
        let cfg = WorkloadConfig {
            mean_interarrival: 120.0,
            ..WorkloadConfig::default()
        };
        let jobs = generate(&cfg, 1000, 42);
        let fcfs = run_and_summarize(64, Policy::Fcfs, &jobs);
        let easy = run_and_summarize(64, Policy::EasyBackfill, &jobs);
        assert!(
            easy.mean_wait < fcfs.mean_wait * 0.9,
            "backfill should cut waits: easy {} vs fcfs {}",
            easy.mean_wait,
            fcfs.mean_wait
        );
        assert!(easy.makespan <= fcfs.makespan * 1.001);
        assert!(easy.utilization >= fcfs.utilization * 0.999);
    }

    #[test]
    fn fcfs_order_is_strict_by_start_time() {
        let jobs = generate(&WorkloadConfig::default(), 200, 8);
        let out = simulate(64, Policy::Fcfs, &jobs);
        // Under FCFS, start times are non-decreasing in arrival order.
        for w in out.windows(2) {
            assert!(w[0].start <= w[1].start + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "wider than the machine")]
    fn oversized_job_rejected() {
        simulate(4, Policy::Fcfs, &[job(0, 8, 10.0, 10.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "2^64 ps")]
    fn job_set_past_the_picosecond_clock_rejected() {
        // Two 100-day jobs on one node: the second would end on day 200
        // of a 213-day clock, and its estimate reaches past it.
        let day = 86_400.0;
        let jobs = [
            job(0, 1, 100.0 * day, 100.0 * day, 0.0),
            job(1, 1, 100.0 * day, 120.0 * day, 0.0),
        ];
        simulate(1, Policy::Fcfs, &jobs);
    }
}
