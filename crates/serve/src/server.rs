//! The sweep server: request → content address → cache → (maybe)
//! simulate.
//!
//! A [`SweepServer`] is the long-running object a deployment would put
//! behind a listener. Requests are [`PointSpec`]s; answers are
//! `Arc<PointResult>`s served from the content-addressed cache, with
//! per-request service latency recorded into the
//! `serve_request_latency_ns` histogram. [`SweepServer::run_figure`]
//! answers a whole figure sweep through the same path, so a warm
//! server renders figure tables without touching the engine at all —
//! and byte-identically to a cold one (the serving CI job pins this).

use crate::cache::{CacheStats, ResultCache};
use crate::canonical::SpecHash;
use crate::spec::{figure_specs, PointResult, PointSpec};
use polaris_obs::{Histogram, Obs};
use std::sync::Arc;
use std::time::Instant;

pub struct SweepServer {
    cache: ResultCache<PointResult>,
    obs: Obs,
    /// `serve_request_latency_ns`, resolved once.
    latency: Histogram,
}

/// A rendered figure: one row per spec, formatted exactly as the
/// table layer would print them. Rows are deterministic, so cold and
/// warm renders must be byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureResult {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl SweepServer {
    /// A server whose cache charges against `cache_budget_bytes`,
    /// publishing all serving metrics into `obs`.
    pub fn new(cache_budget_bytes: u64, obs: Obs) -> Self {
        SweepServer {
            cache: ResultCache::new(cache_budget_bytes, obs.clone()),
            latency: obs.histogram("serve_request_latency_ns", &[]),
            obs,
        }
    }

    /// Answer one request. Cache hits return the shared result without
    /// touching the engine; misses simulate once under single-flight.
    pub fn request(&self, spec: PointSpec) -> Arc<PointResult> {
        let start = Instant::now();
        let result = self.cache.get_or_compute(
            SpecHash::of(&spec),
            || spec.compute(),
            PointResult::cache_bytes,
        );
        self.latency.record(start.elapsed().as_nanos() as u64);
        result
    }

    /// Answer a full figure sweep at the given scales through the
    /// cache, rendering completion rows in spec order.
    pub fn run_figure(&self, scales: &[u32]) -> FigureResult {
        let specs = figure_specs(scales);
        let rows = specs
            .iter()
            .map(|s| {
                let r = self.request(*s);
                vec![
                    s.nodes.to_string(),
                    format!("{:?}", s.collective),
                    s.payload_bytes.to_string(),
                    r.completion_ps.to_string(),
                    r.messages.to_string(),
                ]
            })
            .collect();
        FigureResult {
            header: ["nodes", "collective", "payload_bytes", "completion_ps", "messages"]
                .map(String::from)
                .to_vec(),
            rows,
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The obs bundle all serving metrics publish into (hand it to
    /// `Obs::prometheus` for the exposition-format scrape).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_figure_render_is_byte_identical_and_engine_free() {
        let server = SweepServer::new(1 << 20, Obs::new());
        let cold = server.run_figure(&[4, 16]);
        let cold_stats = server.cache_stats();
        assert_eq!(cold_stats.misses as usize, cold.rows.len());

        let warm = server.run_figure(&[4, 16]);
        let warm_stats = server.cache_stats();
        assert_eq!(cold, warm, "warm render must be byte-identical");
        assert_eq!(warm_stats.misses, cold_stats.misses, "warm render must not simulate");
        assert_eq!(warm_stats.hits, cold_stats.hits + cold.rows.len() as u64);
    }

    #[test]
    fn latency_histogram_sees_every_request() {
        let server = SweepServer::new(1 << 20, Obs::new());
        let spec = figure_specs(&[4])[0];
        for _ in 0..5 {
            server.request(spec);
        }
        // 1 miss + 4 hits all recorded.
        let h = server.obs().histogram("serve_request_latency_ns", &[]);
        assert!(h.quantile(0.5) > 0);
    }
}
