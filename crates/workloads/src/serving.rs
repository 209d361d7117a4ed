//! Latency-SLO key-value serving: an open-loop tier reporting its p99.
//!
//! Each of the `p` ranks is a serving replica receiving its own
//! open-loop Poisson request stream (arrivals do not slow down when the
//! server falls behind — the property that makes tail latency explode
//! past saturation). Request service is [`GUPS`]-profile work — random
//! reads against the store — priced by the roofline, so a PIM node
//! track serves the same stream with a fraction of the PC track's
//! service time. Network time is the fabric round trip from a client
//! half the machine away.
//!
//! No request ever reaches another replica, so the tier needs no event
//! engine. Each replica is a FIFO server whose arrivals [`SplitMix64`]
//! generates in time order, so its queue is the Lindley recursion
//! `start = max(arrival, busy_until)`: one loop per server, no event
//! stored. The latency [`Histogram`] and the completion and busy-time
//! maxima do not depend on the order the servers run in, so the result
//! is a pure function of the config.

use crate::{phase_ps, Fabric, WorkloadResult};
use polaris_arch::kernels::GUPS;
use polaris_arch::node::NodeModel;
use polaris_obs::metrics::Histogram;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::{SimDuration, PS_PER_SEC};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Requests per replica.
    pub requests_per_server: u32,
    /// Open-loop arrival rate per replica, requests/second.
    pub rate_hz: f64,
    /// Arrival-stream seed.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig { requests_per_server: 256, rate_hz: 8_000.0, seed: 0x5E12_F00D }
    }
}

/// Store-lookup flops per request (GUPS profile).
const FLOPS_PER_REQ: f64 = 2e3;
/// Request / response payload bytes.
const REQ_BYTES: u64 = 512;
const RESP_BYTES: u64 = 2048;

/// Virtual time one replica spends serving its whole stream back to
/// back: a lower bound on its completion, which adds any wait for
/// arrivals and the wire ([`crate::effective_bound`]).
pub(crate) fn busy_ps(cfg: &ServingConfig, node: &NodeModel) -> u64 {
    cfg.requests_per_server as u64 * phase_ps(node, &GUPS, FLOPS_PER_REQ)
}

/// Application-useful flops of `p` replicas serving their streams.
pub(crate) fn useful_flops(cfg: &ServingConfig, p: u32) -> f64 {
    FLOPS_PER_REQ * (p as u64 * cfg.requests_per_server as u64) as f64
}

/// Run the serving tier: `p` replicas of `node` over `fabric`. The tier
/// has no engine to shard, so `jobs` (taken for the same call shape as
/// [`crate::run_compiled`]) cannot change the result.
pub fn run(cfg: &ServingConfig, node: &NodeModel, fabric: &Fabric, p: u32, _jobs: u32) -> WorkloadResult {
    assert!(p > 0, "at least one replica");
    let link = fabric.link();
    let service = phase_ps(node, &GUPS, FLOPS_PER_REQ);
    let hist = Histogram::new();
    let mut completion = 0u64;
    for s in 0..p {
        // Round trip from a client half the machine away.
        let far = (s + p / 2) % p;
        let net = if far == s {
            link.message_time(REQ_BYTES, 1).0 + link.message_time(RESP_BYTES, 1).0
        } else {
            let c = fabric.path_cost(s, far);
            link.message_time(REQ_BYTES, c.hops).0 + link.message_time(RESP_BYTES, c.hops).0
                + 2 * c.extra_ps
        };
        // Per-server Poisson stream, a pure function of (seed, server).
        let mut rng = SplitMix64::new(cfg.seed ^ ((s as u64) << 20) ^ 0x5E12_71E2);
        let (mut arrival, mut busy_until) = (0u64, 0u64);
        for _ in 0..cfg.requests_per_server {
            let gap_s = rng.exp(cfg.rate_hz);
            arrival += (gap_s * PS_PER_SEC as f64).ceil().max(1.0) as u64;
            busy_until = arrival.max(busy_until) + service;
            hist.record(busy_until - arrival + net);
            completion = completion.max(busy_until + net);
        }
    }

    let requests = p as u64 * cfg.requests_per_server as u64;
    WorkloadResult {
        completion: SimDuration(completion),
        messages: 2 * requests,
        payload_bytes: requests * (REQ_BYTES + RESP_BYTES),
        // Every replica serves the same count at the same service time.
        compute: SimDuration(busy_ps(cfg, node)),
        useful_flops: useful_flops(cfg, p),
        p99: Some(SimDuration(hist.quantile(0.99))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_arch::device::Projection;
    use polaris_arch::node::{NodeKind, NodeModel};
    use polaris_simnet::link::Generation;

    fn node(kind: NodeKind) -> NodeModel {
        NodeModel::build(kind, &Projection::default().at(2006))
    }

    #[test]
    fn open_loop_tail_grows_with_load() {
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 8);
        let pc = node(NodeKind::Pc);
        let light = ServingConfig { rate_hz: 1_000.0, ..ServingConfig::default() };
        let heavy = ServingConfig { rate_hz: 30_000.0, ..ServingConfig::default() };
        let lo = run(&light, &pc, &fabric, 8, 1).p99.unwrap();
        let hi = run(&heavy, &pc, &fabric, 8, 1).p99.unwrap();
        assert!(hi > lo, "p99 {lo:?} -> {hi:?}");
    }

    #[test]
    fn pim_track_serves_the_same_stream_faster() {
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 8);
        let cfg = ServingConfig::default();
        let pc = run(&cfg, &node(NodeKind::Pc), &fabric, 8, 1);
        let pim = run(&cfg, &node(NodeKind::Pim), &fabric, 8, 1);
        // GUPS-profile service: PIM's latency advantage shows directly.
        assert!(pim.p99.unwrap() < pc.p99.unwrap());
    }

    #[test]
    fn a_saturated_replica_serves_back_to_back() {
        // Arrivals about 1 ns apart against a service of microseconds:
        // every request queues behind the one before, so the replica
        // finishes all its services in a row after its first arrival.
        let fabric = Fabric::crossbar(Generation::GigabitEthernet, 8);
        let cfg = ServingConfig { rate_hz: 1e9, ..ServingConfig::default() };
        let r = run(&cfg, &node(NodeKind::Pc), &fabric, 1, 1);
        let link = fabric.link();
        let net = link.message_time(REQ_BYTES, 1).0 + link.message_time(RESP_BYTES, 1).0;
        let first_arrival = r.completion.0 - r.compute.0 - net;
        assert!((1..100_000).contains(&first_arrival), "{first_arrival} ps");
    }
}
