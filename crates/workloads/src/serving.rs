//! Latency-SLO key-value serving: an open-loop tier with a p99 gate.
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
//! Arrivals are pre-generated with [`SplitMix64`] and pre-scheduled
//! into the sharded engine keyed `(server << 32) | seq`; each server's
//! queue evolves by the Lindley recursion inside its shard and no event
//! ever crosses shards, so any shard count replays the identical
//! `(time, key)` order — the same determinism contract as the program
//! executor, held by `tests/workloads.rs`.

use crate::{phase_ps, Fabric, WorkloadResult};
use polaris_arch::kernels::GUPS;
use polaris_arch::node::NodeModel;
use polaris_obs::metrics::Histogram;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::shard::{Partition, ShardCtx, ShardSim, ShardWorld};
use polaris_simnet::time::{SimDuration, SimTime, PS_PER_SEC};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Requests per replica.
    pub requests_per_server: u32,
    /// Open-loop arrival rate per replica, requests/second.
    pub rate_hz: f64,
    /// Store-lookup flops per request (GUPS profile).
    pub flops_per_req: f64,
    /// Request / response payload bytes.
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// The SLO the p99 is gated against.
    pub slo: SimDuration,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            requests_per_server: 256,
            rate_hz: 8_000.0,
            flops_per_req: 2e3,
            req_bytes: 512,
            resp_bytes: 2048,
            seed: 0x5E12_F00D,
            slo: SimDuration::from_us(500),
        }
    }
}

#[derive(Clone, Copy)]
enum SEv {
    /// One request reaches `server`'s queue.
    Request { server: u32 },
}

#[derive(Clone)]
struct ServeWorld {
    base: u32,
    /// Per local server: queue free time (ps), busy-time sum (ps).
    busy_until: Vec<u64>,
    busy_sum: Vec<u64>,
    /// Per local server: service + fabric round-trip cost (ps).
    service_ps: Vec<u64>,
    net_ps: Vec<u64>,
    /// Request latencies (queueing + service + network), ps.
    latencies: Vec<u64>,
    last_finish: u64,
}

impl ShardWorld for ServeWorld {
    type Event = SEv;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, SEv>, event: SEv) {
        let SEv::Request { server } = event;
        let now = ctx.now().0;
        let l = (server - self.base) as usize;
        let start = now.max(self.busy_until[l]);
        let finish = start + self.service_ps[l];
        self.busy_until[l] = finish;
        self.busy_sum[l] += self.service_ps[l];
        self.latencies.push(finish - now + self.net_ps[l]);
        self.last_finish = self.last_finish.max(finish + self.net_ps[l]);
    }
}

/// Run the serving tier: `p` replicas of `node` over `fabric`, sharded
/// across `jobs` engine shards. Bit-identical at any `jobs` value.
pub fn run(cfg: &ServingConfig, node: &NodeModel, fabric: &Fabric, p: u32, jobs: u32) -> WorkloadResult {
    assert!(p > 0, "at least one replica");
    let link = fabric.link();
    let service = phase_ps(node, &GUPS, cfg.flops_per_req);
    let part = Partition::block(p, jobs.max(1));
    let worlds: Vec<ServeWorld> = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            let base = ranks.start;
            let (mut service_ps, mut net_ps) = (Vec::new(), Vec::new());
            for s in ranks {
                // Round trip from a client half the machine away.
                let far = (s + p / 2) % p;
                let net = if far == s {
                    link.message_time(cfg.req_bytes, 1).0 + link.message_time(cfg.resp_bytes, 1).0
                } else {
                    let c = fabric.path_cost(s, far);
                    link.message_time(cfg.req_bytes, c.hops).0
                        + link.message_time(cfg.resp_bytes, c.hops).0
                        + 2 * c.extra_ps
                };
                service_ps.push(service);
                net_ps.push(net);
            }
            let n = service_ps.len();
            ServeWorld {
                base,
                busy_until: vec![0; n],
                busy_sum: vec![0; n],
                service_ps,
                net_ps,
                latencies: Vec::new(),
                last_finish: 0,
            }
        })
        .collect();

    let mut sim = ShardSim::uniform(worlds, SimDuration::from_us(1));
    for s in 0..p {
        // Per-server Poisson stream; the stream is a pure function of
        // (seed, server), independent of sharding.
        let mut rng = SplitMix64::new(cfg.seed ^ ((s as u64) << 20) ^ 0x5E12_71E2);
        let mut t_ps = 0u64;
        for seq in 0..cfg.requests_per_server {
            let gap_s = rng.exp(cfg.rate_hz);
            t_ps += (gap_s * PS_PER_SEC as f64).ceil().max(1.0) as u64;
            sim.schedule(
                part.shard_of(s),
                SimTime(t_ps),
                ((s as u64) << 32) | seq as u64,
                SEv::Request { server: s },
            );
        }
    }
    sim.run(jobs > 1, None);

    let hist = Histogram::new();
    let mut completion = 0u64;
    let mut compute = 0u64;
    let mut requests = 0u64;
    for w in sim.worlds() {
        completion = completion.max(w.last_finish);
        compute = compute.max(w.busy_sum.iter().copied().max().unwrap_or(0));
        requests += w.latencies.len() as u64;
        for &l in &w.latencies {
            hist.record(l);
        }
    }
    WorkloadResult {
        completion: SimDuration(completion),
        messages: 2 * requests,
        payload_bytes: requests * (cfg.req_bytes + cfg.resp_bytes),
        compute: SimDuration(compute),
        useful_flops: cfg.flops_per_req * requests as f64,
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
    fn shard_count_does_not_change_the_tail() {
        let fabric = Fabric::dragonfly(Generation::Optical, 32);
        let cfg = ServingConfig::default();
        let pc = node(NodeKind::Pc);
        let base = run(&cfg, &pc, &fabric, 32, 1);
        for jobs in [2u32, 4] {
            let r = run(&cfg, &pc, &fabric, 32, jobs);
            assert_eq!(r, base, "jobs={jobs}");
        }
    }
}
