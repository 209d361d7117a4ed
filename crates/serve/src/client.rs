//! Closed-loop simulated client population.
//!
//! The north star turned on itself: the serving plane is exercised by
//! the same kind of synthetic population the simulator models —
//! millions of requests drawn from a seeded Zipf distribution over the
//! spec space (real request logs are Zipf-ish: a few hot sweep points
//! dominate, a long tail of one-off questions). Clients are
//! **closed-loop**: each worker sends its next request when the
//! previous one returns, with no think time, so the measured throughput
//! is the server's saturation throughput at that client count, and a
//! slower server is offered less load.
//!
//! The p99 is *exact* (no histogram interpolation error in the gated
//! number), yet a client keeps only the latencies that can be it: its
//! largest `n − floor(0.99 n)` of the drive's `n`, so a million-request
//! drive holds 10 000 per client, not a million. Hit counts come from
//! the cache's own obs counters, so the report can't drift from what
//! Prometheus would scrape.

use crate::server::SweepServer;
use crate::spec::PointSpec;
use polaris_simnet::rng::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Load-drive parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Total requests across all clients.
    pub requests: u64,
    /// Concurrent client threads.
    pub clients: u32,
    /// Zipf skew `s` (popularity of rank r ∝ 1/r^s). 1.0 is the
    /// classic web-trace value.
    pub zipf_s: f64,
    /// Seed for the population's request streams.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { requests: 1_000_000, clients: 4, zipf_s: 1.0, seed: 0x5e21_e011 }
    }
}

/// What the drive observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub hit_ratio: f64,
    pub wall_seconds: f64,
    pub requests_per_sec: f64,
    /// Exact 99th-percentile service latency, nanoseconds.
    pub p99_latency_ns: u64,
}

/// Seeded Zipf sampler over `n` ranks: precomputed CDF, binary-search
/// draw. Rank 0 is the most popular spec.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Drive `server` with `cfg.requests` requests over `specs`, Zipf-
/// distributed by popularity rank = spec index. Returns the merged
/// report; all obs series land in the server's bundle.
pub fn drive(server: &SweepServer, specs: &[PointSpec], cfg: LoadConfig) -> LoadReport {
    assert!(!specs.is_empty());
    let zipf = Zipf::new(specs.len(), cfg.zipf_s);
    let clients = cfg.clients.max(1) as u64;
    let before = server.cache_stats();

    let start = Instant::now();
    let keep = p99_tail_len(cfg.requests);
    let tails: Vec<Tail> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let share = cfg.requests / clients + u64::from(c < cfg.requests % clients);
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng =
                        SplitMix64::new(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c + 1)));
                    let mut tail = Tail::new(keep);
                    for _ in 0..share {
                        let spec = specs[zipf.sample(&mut rng)];
                        let t = Instant::now();
                        server.request(spec);
                        tail.push(t.elapsed().as_nanos() as u64);
                    }
                    tail
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let p99_latency_ns = p99_of_tails(cfg.requests, tails);

    let after = server.cache_stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    LoadReport {
        requests: cfg.requests,
        hits,
        misses,
        hit_ratio: hits as f64 / cfg.requests.max(1) as f64,
        wall_seconds,
        requests_per_sec: cfg.requests as f64 / wall_seconds.max(1e-9),
        p99_latency_ns,
    }
}

/// How many of `n` latencies the exact p99 needs. The p99 is the one
/// at ascending rank `floor(0.99 n)` (the last, for a tiny `n`), that is
/// the `n − floor(0.99 n)`-th largest: it is among the largest that many
/// of all `n`, and so among each client's largest that many.
fn p99_tail_len(n: u64) -> usize {
    match n as usize {
        0 => 0,
        n => n - ((n as f64 * 0.99) as usize).min(n - 1),
    }
}

/// The `k` largest values pushed so far, in a bounded min-heap whose
/// top is the least of them.
struct Tail {
    k: usize,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Tail {
    fn new(k: usize) -> Tail {
        Tail { k, heap: BinaryHeap::with_capacity(k) }
    }

    fn push(&mut self, v: u64) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(v));
        } else if let Some(mut least) = self.heap.peek_mut() {
            if v > least.0 {
                *least = Reverse(v);
            }
        }
    }
}

/// The exact p99 of `n` latencies, from each client's
/// `p99_tail_len(n)` largest: the union holds the largest that many of
/// all `n`, so its `p99_tail_len(n)`-th largest is the p99. 0 when `n`
/// is.
fn p99_of_tails(n: u64, tails: Vec<Tail>) -> u64 {
    let k = p99_tail_len(n);
    if k == 0 {
        return 0;
    }
    let mut union: Vec<u64> = tails.into_iter().flat_map(|t| t.heap).map(|Reverse(v)| v).collect();
    let rank = union.len() - k;
    *union.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::figure_specs;
    use polaris_obs::Obs;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let zipf = Zipf::new(100, 1.0);
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..10_000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same stream");
        let sample = draw(7);
        let head = sample.iter().filter(|&&r| r == 0).count();
        let tail = sample.iter().filter(|&&r| r == 99).count();
        assert!(head > 10 * tail.max(1), "rank 0 must dominate rank 99: {head} vs {tail}");
        assert!(sample.iter().all(|&r| r < 100));
    }

    /// The p99 from the clients' bounded tails equals the full sort's
    /// value at ascending rank `floor(0.99 n)`, however the `n`
    /// latencies split across clients. Ties are frequent here (values
    /// below 200), so a tail that dropped a duplicate would show.
    #[test]
    fn the_p99_of_the_tails_is_the_p99_of_a_full_sort() {
        let mut rng = SplitMix64::new(0x99);
        for n in [0u64, 1, 99, 100, 101, 12_000] {
            let all: Vec<u64> = (0..n).map(|_| rng.next_below(200)).collect();
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let expect = match n as usize {
                0 => 0,
                len => sorted[((len as f64 * 0.99) as usize).min(len - 1)],
            };
            for clients in 1..=4u64 {
                let mut tails: Vec<Tail> =
                    (0..clients).map(|_| Tail::new(p99_tail_len(n))).collect();
                for (i, &v) in all.iter().enumerate() {
                    tails[i % clients as usize].push(v);
                }
                assert!(tails.iter().all(|t| t.heap.len() <= p99_tail_len(n)));
                assert_eq!(p99_of_tails(n, tails), expect, "n {n}, {clients} clients");
            }
        }
    }

    #[test]
    fn zipf_drive_reaches_a_high_hit_ratio() {
        let server = SweepServer::new(1 << 20, Obs::new());
        let specs = figure_specs(&[4, 16]);
        let report = drive(
            &server,
            &specs,
            LoadConfig { requests: 5_000, clients: 2, zipf_s: 1.0, seed: 11 },
        );
        // 20 distinct specs, 5k requests: at most 20 misses.
        assert!(report.hit_ratio > 0.99, "hit ratio {}", report.hit_ratio);
        assert_eq!(report.hits + report.misses, report.requests);
        assert!(report.requests_per_sec > 0.0);
    }
}
