//! `serve_zipf`: the serving plane — `serve::canonical` hashing, the
//! `serve::cache` lock and LRU, and the `obs` histogram on the request
//! path. A cold figure sweep, a hot closed-loop Zipf drive that is all
//! reads, and a churn drive against a 16-entry cache where misses,
//! evictions and single-flight recompute sit beside the reads; a
//! hit-path gain that costs the miss path shows in the same `wall_s`.

use super::{rng, Cell, Laps, Metrics, SpanView, Workload};
use crate::stats::digest;
use crate::trace::Tracer;
use polaris_obs::Obs;
use polaris_serve::client::{drive, LoadConfig, LoadReport};
use polaris_serve::server::SweepServer;
use polaris_serve::spec::{figure_specs, PointResult, PointSpec};
use serde_json::value::Value;

/// One closed-loop client: it sends its next request when the previous
/// one returns, with no think time. Two such clients on this 2-core box
/// are bimodal — an iteration takes 1.7 s or, when the threads convoy on
/// the cache mutex, 7 s — and no percentile of that repeats within a
/// 10 % bound, so lock contention is left out of the gated number.
const CLIENTS: u32 = 1;
const HOT_SCALES: [u32; 3] = [4, 16, 64];
const HOT_BUDGET_BYTES: u64 = 64 << 20;
const CHURN_ENTRIES: u64 = 16;

pub struct ServeZipf {
    seed: u64,
    hot_specs: Vec<PointSpec>,
    hot_requests: u64,
    /// Every spec either drive can ask for, with the answer computed
    /// outside the server during set-up.
    expected: Vec<(PointSpec, PointResult)>,
    churn_requests: u64,
    last: Option<Last>,
}

/// Host-side observations of the last iteration, for the layer metrics.
struct Last {
    hot: LoadReport,
    churn: LoadReport,
    hot_p50_ns: u64,
    churn_evictions: u64,
}

impl ServeZipf {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let churn_scales: Vec<u32> = (1..=16).map(|i| 4 * i).collect();
        let expected = figure_specs(&churn_scales)
            .into_iter()
            .map(|s| (s, s.compute()))
            .collect();
        ServeZipf {
            seed: rng(seed, 0x21bf).next_u64(),
            hot_specs: figure_specs(&HOT_SCALES),
            hot_requests: if smoke { 20_000 } else { 1_000_000 },
            expected,
            churn_requests: if smoke { 500 } else { 12_000 },
            last: None,
        }
    }

    fn expected(&self, spec: &PointSpec) -> &PointResult {
        &self
            .expected
            .iter()
            .find(|(s, _)| s == spec)
            .expect("every requested spec was computed in set-up")
            .1
    }

    /// Ask the server for every spec once more and compare each answer
    /// with the one computed in set-up. Returns the mismatches.
    fn verify(
        &self,
        server: &SweepServer,
        specs: impl Iterator<Item = PointSpec>,
        tr: &mut Tracer,
    ) -> (u64, Option<String>) {
        let (mut bad, mut why) = (0, None);
        for spec in specs {
            let got = tr.time("serve.server.request", || server.request(spec));
            let want = self.expected(&spec);
            if *got != *want {
                bad += 1;
                why.get_or_insert_with(|| format!("{spec:?}: expected {want:?}, got {got:?}"));
            }
        }
        (bad, why)
    }

    fn drive_cell(
        &self,
        name: &str,
        server: &SweepServer,
        specs: &[PointSpec],
        requests: u64,
        tr: &mut Tracer,
    ) -> (Cell, LoadReport) {
        let open = tr.begin(&format!("serve.client.drive.{name}"));
        let load = drive(
            server,
            specs,
            LoadConfig {
                requests,
                clients: CLIENTS,
                zipf_s: 1.0,
                seed: self.seed,
            },
        );
        tr.end(open, requests);
        let mut cell = Cell::new(
            name,
            // One client makes the cache's decisions a pure function of
            // the seed, so they are statistics too.
            vec![
                ("requests", Value::U64(load.requests)),
                ("hits", Value::U64(load.hits)),
                ("misses", Value::U64(load.misses)),
            ],
        );
        cell.ops = requests + specs.len() as u64;
        cell.require(load.hits + load.misses == requests, || {
            format!(
                "{} hits + {} misses != {requests} requests",
                load.hits, load.misses
            )
        });
        let (bad, why) = self.verify(server, specs.iter().copied(), tr);
        if bad > 0 && cell.failed == 0 {
            cell.failed = bad;
            cell.why = why;
        }
        (cell, load)
    }
}

impl Workload for ServeZipf {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        // Cold: the figure sweep on an empty cache, then again warm.
        let server = SweepServer::new(HOT_BUDGET_BYTES, Obs::new());
        let cold = tr.time("serve.server.cold_sweep", || server.run_figure(&HOT_SCALES));
        let warm = tr.time("serve.server.warm_sweep", || server.run_figure(&HOT_SCALES));
        let rendered: String = cold.rows.iter().map(|r| r.join(",") + "\n").collect();
        let mut sweep = Cell::new(
            "cold",
            vec![
                ("rows", Value::U64(cold.rows.len() as u64)),
                ("digest", Value::Str(digest(rendered.as_bytes()))),
            ],
        );
        sweep.ops = cold.rows.len() as u64;
        sweep.require(warm == cold, || {
            "the warm render differs from the cold one".to_string()
        });
        for (spec, row) in self.hot_specs.iter().zip(&cold.rows) {
            let want = self.expected(spec);
            sweep.require(
                row[3] == want.completion_ps.to_string() && row[4] == want.messages.to_string(),
                || format!("{spec:?}: expected {want:?}, rendered {row:?}"),
            );
        }
        laps.lap();

        // Hot: the warmed cache under the Zipf population — every
        // request is a hit.
        let (mut hot_cell, hot) =
            self.drive_cell("hot", &server, &self.hot_specs, self.hot_requests, tr);
        hot_cell.require(hot.misses == 0, || {
            format!("{} misses on a warm cache with no eviction", hot.misses)
        });
        let hot_p50_ns = server
            .obs()
            .histogram("serve_request_latency_ns", &[])
            .quantile(0.5);
        laps.lap();

        // Churn: ten times the specs the cache can hold.
        let entry = self.expected[0].1.cache_bytes();
        let small = SweepServer::new(CHURN_ENTRIES * entry, Obs::new());
        let all: Vec<PointSpec> = self.expected.iter().map(|(s, _)| *s).collect();
        let (churn_cell, churn) = self.drive_cell("churn", &small, &all, self.churn_requests, tr);
        let churn_evictions = small.cache_stats().evictions;
        laps.lap();

        self.last = Some(Last {
            hot,
            churn,
            hot_p50_ns,
            churn_evictions,
        });
        vec![sweep, hot_cell, churn_cell]
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        let last = self
            .last
            .as_ref()
            .expect("layer metrics follow an iteration");
        out.insert(
            "serve.server.cold_sweep_ms".into(),
            view.ms("serve.server.cold_sweep"),
        );
        out.insert(
            "serve.server.warm_sweep_us".into(),
            view.total("serve.server.warm_sweep").0 / 1e3,
        );
        out.insert(
            "serve.client.hot_req_per_s".into(),
            last.hot.requests_per_sec,
        );
        out.insert(
            "serve.client.churn_req_per_s".into(),
            last.churn.requests_per_sec,
        );
        out.insert("serve.client.p50_ns".into(), last.hot_p50_ns as f64);
        out.insert("serve.client.p99_ns".into(), last.hot.p99_latency_ns as f64);
        out.insert("serve.cache.hit_ratio_hot".into(), last.hot.hit_ratio);
        out.insert("serve.cache.hit_ratio_churn".into(), last.churn.hit_ratio);
        out.insert("serve.cache.evictions".into(), last.churn_evictions as f64);
    }
}
