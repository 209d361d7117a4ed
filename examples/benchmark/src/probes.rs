//! Probes: short loops over one public function of one layer, at the
//! size the workloads use it. They run only in the traced run, each
//! reports the fastest of a few repetitions per unit of work, and each
//! names in `README.md` the workload whose `wall_s` it should move.

use crate::workloads::{rng, Metrics};
use polaris_arch::prelude::*;
use polaris_bench::perf::{churn_calendar, churn_delay};
use polaris_bench::sweep::{sweep_with_jobs, warm_pool};
use polaris_collectives::hier::{flat_allreduce_model, simulate_hier_allreduce, InterGroup};
use polaris_collectives::parsim::simulate_collective_sharded_opts;
use polaris_collectives::prelude::*;
use polaris_msg::match_engine::MatchEngine;
use polaris_msg::prelude::{Endpoint, MatchSpec, MsgConfig, MsgResult, Protocol};
use polaris_nic::prelude::*;
use polaris_obs::Obs;
use polaris_rms::lifecycle::{churn_plan, ChurnSpec};
use polaris_rms::sched::{plan_admissions, run_and_summarize, Policy, QueuedReq, RunningRes};
use polaris_rms::workload::WorkloadConfig;
use polaris_serve::cache::ResultCache;
use polaris_serve::canonical::SpecHash;
use polaris_serve::incremental::{IncrementalRunner, PhaseCfg, PhasedSpec};
use polaris_serve::spec::figure_specs;
use polaris_simnet::channel::ShardChannel;
use polaris_simnet::circuit::CircuitSchedulerConfig;
use polaris_simnet::engine::{run, Scheduler, World};
use polaris_simnet::event::EventQueue;
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::shard::{ShardCtx, ShardSim, ShardWorld};
use polaris_simnet::time::{SimDuration, SimTime};
use polaris_simnet::topology::{Routing, Topology, TopologyKind};
use polaris_simnet::{packetnet, switch};
use polaris_workloads::{paramserver, shuffle, stencil, training, Fabric};
use std::hint::black_box;
use std::time::Instant;

/// Fastest of `reps` runs of `f`, in nanoseconds per unit of work; `f`
/// returns how many units it did.
fn ns_per_unit(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let units = f();
        best = best.min(t0.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    best
}

/// Nanoseconds per call of `f`, the fastest of `reps` batches of `calls`
/// back-to-back calls: a short call is batched so that the clock's
/// resolution does not quantize the result.
fn ns_per_call<T>(reps: usize, calls: u64, mut f: impl FnMut() -> T) -> f64 {
    ns_per_unit(reps, || {
        for _ in 0..calls {
            black_box(f());
        }
        calls
    })
}

const HOLD: usize = 1 << 14;

/// The F13 1M-host Dragonfly (2048 groups x 32 routers x 16 hosts).
const DRAGONFLY_1M: TopologyKind = TopologyKind::Dragonfly {
    groups: 2048,
    routers_per_group: 32,
    hosts_per_router: 16,
};

pub fn run_all(seed: u64, smoke: bool, out: &mut Metrics) {
    let reps = if smoke { 1 } else { 5 };
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    event_queue(reps, &mut put);
    engine(reps, &mut put);
    topology(seed, reps, &mut put);
    network(seed, smoke, reps, &mut put);
    packet_models(seed, reps, &mut put);
    shard(smoke, reps, &mut put);
    channel(reps, &mut put);
    collectives(smoke, reps, &mut put);
    workloads_and_arch(reps, &mut put);
    rms(seed, reps, &mut put);
    serve(reps, &mut put);
    nic(reps, &mut put);
    msg_and_core(reps, &mut put);
    obs(reps, &mut put);
    sweep(smoke, &mut put);
}

type Put<'a> = &'a mut dyn FnMut(&str, f64);

fn event_queue(reps: usize, put: Put) {
    let txns = 8 * HOLD;
    put(
        "simnet.event.hold_ns",
        ns_per_unit(reps, || {
            black_box(churn_calendar(HOLD, txns));
            txns as u64
        }),
    );
    // The sharded engine's entry points: caller-supplied tie-break keys.
    put(
        "simnet.event.keyed_hold_ns",
        ns_per_unit(reps, || {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(HOLD);
            let mut r = SplitMix64::new(0x5eed);
            let mut key = 0u64;
            for i in 0..HOLD {
                key += 1;
                q.push_keyed(SimTime(churn_delay(&mut r)), key, i as u32);
            }
            let mut acc = 0u64;
            for _ in 0..txns {
                let (t, k, ev) = q.pop_entry().expect("queue stays charged");
                acc = acc.wrapping_add(t.0 ^ k);
                key += 1;
                q.push_keyed(SimTime(t.0 + churn_delay(&mut r)), key, ev);
            }
            black_box(acc);
            txns as u64
        }),
    );
    // One reschedule in eight lands 15 simulated seconds out, as the
    // fleet's heartbeats and horizons do: far beyond the wheel, in the
    // `far` heap, migrating back as the cursor approaches.
    put(
        "simnet.event.far_hold_ns",
        ns_per_unit(reps, || {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(HOLD);
            let mut r = SplitMix64::new(0x5eed);
            for i in 0..HOLD {
                q.push(SimTime(churn_delay(&mut r)), i as u32);
            }
            let mut acc = 0u64;
            for _ in 0..txns {
                let (t, ev) = q.pop().expect("queue stays charged");
                acc = acc.wrapping_add(t.0);
                let far = if r.next_u64() & 7 == 0 {
                    SimDuration::from_secs(15).0
                } else {
                    0
                };
                q.push(SimTime(t.0 + far + churn_delay(&mut r)), ev);
            }
            black_box(acc);
            txns as u64
        }),
    );
}

/// Independent event chains, each rescheduling itself until it has
/// fired `hops` times: the whole `engine::run` dispatch loop.
struct ChainWorld {
    remaining: Vec<u32>,
    rng: SplitMix64,
}

impl World for ChainWorld {
    type Event = u32;
    fn handle(&mut self, sched: &mut Scheduler<u32>, chain: u32) {
        let left = &mut self.remaining[chain as usize];
        if *left > 0 {
            *left -= 1;
            sched.after(SimDuration::from_ps(churn_delay(&mut self.rng)), chain);
        }
    }
}

fn engine(reps: usize, put: Put) {
    const CHAINS: u32 = 1024;
    const HOPS: u32 = 1500;
    put(
        "simnet.engine.dispatch_ns",
        ns_per_unit(reps, || {
            let mut world = ChainWorld {
                remaining: vec![HOPS; CHAINS as usize],
                rng: SplitMix64::new(7),
            };
            let mut sched = Scheduler::with_capacity(CHAINS as usize);
            for c in 0..CHAINS {
                sched.at(SimTime::ZERO, c);
            }
            run(&mut world, &mut sched, None).events_dispatched
        }),
    );
}

/// Derive and walk `pairs` route plans between seeded host pairs.
fn route_ns(topo: &Topology, seed: u64, reps: usize) -> f64 {
    const PAIRS: u64 = 100_000;
    let hosts = topo.hosts() as u64;
    ns_per_unit(reps, || {
        let mut r = rng(seed, 0x2007e);
        let mut acc = 0u64;
        for _ in 0..PAIRS {
            let (s, d) = (r.next_below(hosts) as u32, r.next_below(hosts) as u32);
            for link in topo.route_plan(s, d) {
                acc = acc.wrapping_add(link.0 as u64);
            }
        }
        black_box(acc);
        PAIRS
    })
}

fn topology(seed: u64, reps: usize, put: Put) {
    let fat_tree = TopologyKind::FatTree { k: 16 };
    put(
        "simnet.topology.build_fat_tree_k16_us",
        ns_per_call(reps, 10_000, || Topology::new(black_box(fat_tree))) / 1e3,
    );
    put(
        "simnet.topology.build_dragonfly_1m_us",
        ns_per_call(reps, 10_000, || Topology::new(black_box(DRAGONFLY_1M))) / 1e3,
    );
    put(
        "simnet.topology.route_fat_tree_ns",
        route_ns(&Topology::new(fat_tree), seed, reps),
    );
    put(
        "simnet.topology.route_dragonfly_ns",
        route_ns(&Topology::new(DRAGONFLY_1M), seed, reps),
    );
    let valiant = Topology::new(DRAGONFLY_1M).with_routing(Routing::Valiant { seed });
    put(
        "simnet.topology.route_valiant_ns",
        route_ns(&valiant, seed, reps),
    );
}

fn network(seed: u64, smoke: bool, reps: usize, put: Put) {
    let transfers: u64 = if smoke { 10_000 } else { 100_000 };
    for (name, bytes) in [
        ("simnet.network.transfer_64b_ns", 64u64),
        ("simnet.network.transfer_4mib_ns", 4 << 20),
    ] {
        put(
            name,
            ns_per_unit(reps, || {
                let mut net = Network::new(
                    Topology::new(TopologyKind::FatTree { k: 16 }),
                    Generation::InfiniBand4x.link_model(),
                );
                let hosts = net.topology().hosts() as u64;
                let mut r = rng(seed, 0x7a25);
                let mut acc = 0u64;
                for i in 0..transfers {
                    let src = r.next_below(hosts);
                    let dst = (src + 1 + r.next_below(hosts - 1)) % hosts;
                    acc = acc.wrapping_add(
                        net.transfer(SimTime(i * 1_000_000), src as u32, dst as u32, bytes)
                            .arrival
                            .0,
                    );
                }
                black_box(acc);
                transfers
            }),
        );
    }
}

/// The same crossbar traffic through both packet-level models.
fn packet_models(seed: u64, reps: usize, put: Put) {
    const PORTS: u32 = 16;
    const MESSAGES: u64 = 2_000;
    const BYTES: u64 = 16 << 10;
    let model = Generation::GigabitEthernet.link_model();
    let mut r = rng(seed, 0x9ac4);
    let traffic: Vec<(SimTime, u32, u32)> = (0..MESSAGES)
        .map(|i| {
            let src = r.next_below(PORTS as u64) as u32;
            let dst = (src + 1 + r.next_below(PORTS as u64 - 1) as u32) % PORTS;
            (SimTime(i * 20_000_000), src, dst)
        })
        .collect();
    let packets = MESSAGES * model.packets_for(BYTES);
    let general: Vec<packetnet::Injection> = traffic
        .iter()
        .map(|&(at, src, dst)| packetnet::Injection {
            at,
            src,
            dst,
            bytes: BYTES,
        })
        .collect();
    put(
        "simnet.packetnet.packet_ns",
        ns_per_unit(reps, || {
            let done = packetnet::simulate_packets(
                Topology::new(TopologyKind::Crossbar { hosts: PORTS }),
                model,
                &general,
            );
            assert_eq!(done.len() as u64, MESSAGES, "packetnet lost messages");
            packets
        }),
    );
    let crossbar: Vec<switch::Injection> = traffic
        .iter()
        .map(|&(at, src, dst)| switch::Injection {
            at,
            src,
            dst,
            bytes: BYTES,
        })
        .collect();
    put(
        "simnet.switch.packet_ns",
        ns_per_unit(reps, || {
            let done = switch::simulate_crossbar(PORTS, model, &crossbar)
                .expect("crossbar model invariant");
            assert_eq!(done.len() as u64, MESSAGES, "switch lost messages");
            packets
        }),
    );
}

/// A world that holds state and pending events and does nothing else:
/// what a checkpoint has to copy.
#[derive(Clone)]
struct Parked(Vec<u64>);

impl ShardWorld for Parked {
    type Event = u64;
    fn handle(&mut self, _ctx: &mut ShardCtx<'_, u64>, event: u64) {
        let slot = event as usize % self.0.len();
        self.0[slot] += 1;
    }
}

fn shard(smoke: bool, reps: usize, put: Put) {
    // Conservative windows only (`speculate = false`) on the ring cell of
    // `program_cells`; the cells themselves run under `run_spec`, whose
    // cost `simnet.shard.spec_event_ns_jobs2` reports from their span.
    let ranks = if smoke { 64 } else { 512 };
    for jobs in [1u32, 2] {
        let t0 = Instant::now();
        let (_, stats) = simulate_collective_sharded_opts(
            ranks,
            Collective::Allreduce(AllreduceAlgo::Ring),
            1 << 20,
            ExecParams::default(),
            Generation::GigabitEthernet.link_model(),
            jobs,
            false,
        );
        let ns = t0.elapsed().as_nanos() as f64;
        put(
            &format!("simnet.shard.window_us_jobs{jobs}"),
            ns / 1e3 / stats.windows.max(1) as f64,
        );
        put(
            &format!("simnet.shard.event_ns_jobs{jobs}"),
            ns / stats.events_dispatched.max(1) as f64,
        );
        if jobs == 2 {
            put("simnet.shard.windows", stats.windows as f64);
            put("simnet.shard.remote_events", stats.remote_events as f64);
        }
    }

    const PENDING: u64 = 1 << 16;
    let mut sim = ShardSim::uniform(
        vec![Parked(vec![0; 1 << 16]), Parked(vec![0; 1 << 16])],
        SimDuration::from_ns(100),
    );
    for i in 0..PENDING {
        sim.schedule((i & 1) as u32, SimTime(1_000 + 37 * i), i, i);
    }
    put(
        "simnet.shard.snapshot_ms",
        ns_per_call(reps, 4, || sim.snapshot()) / 1e6,
    );
    let snapshot = sim.snapshot();
    put(
        "simnet.shard.restore_ms",
        ns_per_call(reps, 4, || snapshot.restore()) / 1e6,
    );
}

fn channel(reps: usize, put: Put) {
    const TOTAL: u64 = 1 << 16;
    const WINDOW: u64 = 4096;
    type Payload = (SimTime, u64, u64);
    let ch: ShardChannel<Payload> = ShardChannel::new();
    let mut out: Vec<Payload> = Vec::with_capacity(WINDOW as usize);
    put(
        "simnet.channel.push_ns",
        ns_per_unit(reps, || {
            let mut t = 0u64;
            for _ in 0..TOTAL / WINDOW {
                for _ in 0..WINDOW {
                    t += 1;
                    ch.push((SimTime(t), t, t));
                }
                out.clear();
                ch.drain_into(&mut out);
            }
            TOTAL
        }),
    );
    let mut buf: Vec<Payload> = Vec::with_capacity(WINDOW as usize);
    put(
        "simnet.channel.push_batch_ns",
        ns_per_unit(reps, || {
            let mut t = 0u64;
            for _ in 0..TOTAL / WINDOW {
                for _ in 0..WINDOW {
                    t += 1;
                    buf.push((SimTime(t), t, t));
                }
                ch.push_batch(&mut buf);
                out.clear();
                ch.drain_into(&mut out);
            }
            TOTAL
        }),
    );
}

fn collectives(smoke: bool, reps: usize, put: Put) {
    put(
        "collectives.simx.schedule_us",
        ns_per_call(reps, 1, || {
            (0..1024)
                .map(|r| {
                    schedule(Collective::Allreduce(AllreduceAlgo::Ring), r, 1024, 4 << 20).len()
                })
                .sum::<usize>()
        }) / 1e3,
    );
    // The F13b 1M-host point: flat model, leaders on the packet fabric,
    // leaders on reserved circuits.
    let (groups, group_size) = if smoke { (64, 64) } else { (2048, 512) };
    put(
        "collectives.hier.allreduce_1m_ms",
        ns_per_call(reps.min(2), 1, || {
            let (params, link) = (ExecParams::default(), Generation::Optical.link_model());
            let flat = flat_allreduce_model(groups, group_size, 4 << 20, params, link);
            let pkt = simulate_hier_allreduce(
                groups,
                group_size,
                4 << 20,
                params,
                link,
                InterGroup::Packet,
                1,
            );
            let circuits = InterGroup::Circuits(CircuitSchedulerConfig::default());
            let circ =
                simulate_hier_allreduce(groups, group_size, 4 << 20, params, link, circuits, 1);
            (flat, pkt.completion, circ.completion)
        }) / 1e6,
    );
}

fn workloads_and_arch(reps: usize, put: Put) {
    let node = NodeModel::build(NodeKind::SmpOnChip, &Projection::default().at(2008));
    let fabric = Fabric::fat_tree(Generation::InfiniBand4x, 128);
    // Serving has no compiled program; the other four do.
    put(
        "workloads.compile_ms",
        ns_per_call(reps, 8, || {
            (
                stencil::compile(&stencil::StencilConfig::default(), &node, 128)
                    .programs
                    .len(),
                training::compile(&training::TrainingConfig::for_fabric(&fabric), &node, 128)
                    .programs
                    .len(),
                paramserver::compile(&paramserver::ParamServerConfig::default(), &node, 128)
                    .programs
                    .len(),
                shuffle::compile(&shuffle::ShuffleConfig::default(), &node, 128)
                    .programs
                    .len(),
            )
        }) / 1e6,
    );
    put(
        "arch.projection_us",
        ns_per_call(reps, 1_000, || {
            let proj = Projection::default();
            NodeKind::ALL.map(|kind| {
                let points = curve(&proj, kind, Constraint::Budget(10e6), DEFAULT_HORIZON);
                (
                    points.len(),
                    cluster_at(&proj, kind, Constraint::Power(1e6), 2010).nodes,
                )
            })
        }) / 1e3,
    );
}

fn rms(seed: u64, reps: usize, put: Put) {
    let mut r = rng(seed, 0x5c4ed);
    let queue: Vec<QueuedReq> = (0..256)
        .map(|_| QueuedReq {
            width: 1 + r.next_below(64) as u32,
            estimate: 60.0 + 3600.0 * r.next_f64(),
        })
        .collect();
    let running: Vec<RunningRes> = (0..32)
        .map(|_| RunningRes {
            width: 1 + r.next_below(16) as u32,
            est_end: 3600.0 * r.next_f64(),
        })
        .collect();
    put(
        "rms.sched.plan_admissions_us",
        ns_per_call(reps, 50, || {
            [
                Policy::Fcfs,
                Policy::EasyBackfill,
                Policy::ConservativeBackfill,
            ]
            .map(|policy| plan_admissions(policy, 0.0, &queue, &running, 96).len())
        }) / 1e3,
    );
    // One load level of T2 under each policy.
    let jobs = polaris_rms::workload::generate(
        &WorkloadConfig {
            mean_interarrival: 900.0,
            ..WorkloadConfig::default()
        },
        3000,
        2002,
    );
    put(
        "rms.sched.batch_sim_ms",
        ns_per_call(reps.min(2), 1, || {
            [
                Policy::Fcfs,
                Policy::ConservativeBackfill,
                Policy::EasyBackfill,
            ]
            .map(|policy| run_and_summarize(64, policy, &jobs).mean_wait)
        }) / 1e6,
    );
    let spec = ChurnSpec {
        events: 400,
        ..ChurnSpec::default()
    };
    put(
        "rms.lifecycle.churn_plan_ms",
        ns_per_call(reps, 200, || churn_plan(seed, 100_000, &spec)) / 1e6,
    );
}

fn serve(reps: usize, put: Put) {
    let specs = figure_specs(&[4, 16, 64]);
    put(
        "serve.canonical.hash_ns",
        ns_per_unit(reps, || {
            let mut acc = 0u128;
            for _ in 0..500 {
                for spec in &specs {
                    acc ^= SpecHash::of(spec).0;
                }
            }
            black_box(acc);
            500 * specs.len() as u64
        }),
    );

    const OPS: u64 = 50_000;
    let warm: ResultCache<u64> = ResultCache::new(1 << 20, Obs::new());
    let keys: Vec<SpecHash> = specs.iter().map(SpecHash::of).collect();
    for key in &keys {
        warm.get_or_compute(*key, || 1, |_| 8);
    }
    put(
        "serve.cache.hit_ns",
        ns_per_unit(reps, || {
            for i in 0..OPS {
                black_box(warm.get_or_compute(keys[i as usize % keys.len()], || 1, |_| 8));
            }
            OPS
        }),
    );
    // Unique keys and a trivial compute: what a miss costs beyond the
    // computation, with room for everything and with room for 16.
    for (name, budget) in [
        ("serve.cache.miss_overhead_ns", u64::MAX),
        ("serve.cache.evict_ns", 16 * 8),
    ] {
        put(
            name,
            ns_per_unit(reps, || {
                let cache: ResultCache<u64> = ResultCache::new(budget, Obs::new());
                for i in 0..OPS {
                    black_box(cache.get_or_compute(SpecHash(i as u128), || i, |_| 8));
                }
                OPS
            }),
        );
    }

    // A four-phase spec run once, then again with its last phase
    // changed: the second run resumes from the third phase's checkpoint.
    let base = PhasedSpec {
        hosts: 12,
        nshards: 2,
        phase_len: 400,
        phases: vec![
            PhaseCfg {
                tokens: 6,
                hops: 40,
                stagger: 1,
            },
            PhaseCfg {
                tokens: 4,
                hops: 60,
                stagger: 0,
            },
            PhaseCfg {
                tokens: 8,
                hops: 25,
                stagger: 3,
            },
            PhaseCfg {
                tokens: 5,
                hops: 45,
                stagger: 2,
            },
        ],
    };
    let mut mutated = base.clone();
    mutated.phases[3].hops += 16;
    let (mut resume_ns, mut saved) = (f64::INFINITY, 0.0);
    for _ in 0..reps {
        const RUNS: u32 = 32;
        let mut total = std::time::Duration::ZERO;
        for _ in 0..RUNS {
            let runner = IncrementalRunner::new(Obs::new());
            runner.run(&base);
            let t0 = Instant::now();
            let outcome = runner.run(&mutated);
            total += t0.elapsed();
            saved = 1.0 - outcome.events_executed as f64 / outcome.events_total.max(1) as f64;
        }
        resume_ns = resume_ns.min(total.as_nanos() as f64 / RUNS as f64);
    }
    put("serve.incremental.resume_ms", resume_ns / 1e6);
    put("serve.incremental.events_saved_ratio", saved);
}

fn nic(reps: usize, put: Put) {
    let fabric = polaris_nic::prelude::Fabric::new();
    let (nic_a, nic_b) = (fabric.create_nic(), fabric.create_nic());
    let (pd_a, pd_b) = (nic_a.alloc_pd(), nic_b.alloc_pd());
    let (cq_a, cq_b) = (CompletionQueue::new(128), CompletionQueue::new(128));
    let a = nic_a.create_qp(pd_a, &cq_a, &cq_a).expect("qp a");
    let b = nic_b.create_qp(pd_b, &cq_b, &cq_b).expect("qp b");
    fabric.connect(&a, &b).expect("connect loopback pair");

    const OPS: u64 = 20_000;
    let src = nic_a.register_from(pd_a, &[7u8; 64]).expect("register");
    let dst = nic_b.register(pd_b, 64).expect("register");
    let mut cqes = Vec::with_capacity(4);
    put(
        "nic.post_poll_ns",
        ns_per_unit(reps, || {
            for i in 0..OPS {
                b.post_recv(RecvWr::new(i, SgeList::single(Sge::whole(&dst))))
                    .expect("post_recv");
                a.post_send(SendWr::Send {
                    wr_id: i,
                    sges: SgeList::single(Sge::whole(&src)),
                    imm: None,
                })
                .expect("post_send");
                cqes.clear();
                let got = cq_a.poll_into(&mut cqes, 4).expect("poll a")
                    + cq_b.poll_into(&mut cqes, 4).expect("poll b");
                assert_eq!(got, 2, "one send and one receive completion per message");
            }
            OPS
        }),
    );
    put(
        "nic.mr_register_ns",
        ns_per_unit(reps, || {
            for _ in 0..OPS {
                let mr = nic_a.register(pd_a, 4096).expect("register");
                nic_a.deregister(&mr);
            }
            OPS
        }),
    );
    const WRITES: u64 = 100;
    let big_src = nic_a.register(pd_a, 1 << 20).expect("register");
    let big_dst = nic_b.register(pd_b, 1 << 20).expect("register");
    let ns_per_write = ns_per_unit(reps, || {
        for i in 0..WRITES {
            let remote = RemoteAddr {
                node: b.node(),
                rkey: big_dst.rkey(),
                offset: 0,
            };
            a.post_send(SendWr::RdmaWrite {
                wr_id: i,
                sges: SgeList::single(Sge::whole(&big_src)),
                remote,
            })
            .expect("rdma write");
            cqes.clear();
            assert_eq!(
                cq_a.poll_into(&mut cqes, 4).expect("poll a"),
                1,
                "one completion per write"
            );
        }
        WRITES
    });
    put(
        "nic.rdma_write_1m_gbps",
        8.0 * (1u64 << 20) as f64 / ns_per_write,
    );
}

fn msg_and_core(reps: usize, put: Put) {
    // 64 posted receives, matched from the back of the list.
    const POSTED: u64 = 64;
    put(
        "msg.match_ns",
        ns_per_unit(reps, || {
            let mut engine: MatchEngine<u64, ()> = MatchEngine::new();
            let mut matched = 0;
            for _ in 0..200 {
                for tag in 0..POSTED {
                    engine.post_recv(MatchSpec::exact(0, tag), tag);
                }
                for tag in (0..POSTED).rev() {
                    matched += u64::from(engine.arrive(0, tag).is_some());
                }
            }
            assert_eq!(matched, 200 * POSTED, "every arrival finds its receive");
            matched
        }),
    );
    put(
        "msg.frame_pool_hit_ratio",
        frame_pool_hit_ratio().unwrap_or(0.0),
    );
    put(
        "core.cluster_spawn_us",
        ns_per_call(reps, 8, || {
            polaris::prelude::Cluster::builder()
                .nodes(2)
                .run(|ctx| ctx.rank())
        }) / 1e3,
    );
}

/// Eager messages that arrive before their receive is posted: the path
/// that parks payloads in pooled frames (the ping-pong cells pre-post
/// every receive and never touch the pool).
fn frame_pool_hit_ratio() -> MsgResult<f64> {
    let fabric = polaris_nic::prelude::Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, 2, MsgConfig::with_protocol(Protocol::Eager))?;
    let (head, tail) = eps.split_at_mut(1);
    let (ep0, ep1) = (&mut head[0], &mut tail[0]);
    for tag in 0..2_000u64 {
        let mut sbuf = ep0.alloc(64)?;
        sbuf.fill_from(&[tag as u8; 64]);
        let sreq = ep0.isend(1, tag, sbuf)?;
        let seen = ep1.stats().unexpected_arrivals;
        let mut spins = 0u32;
        while ep1.stats().unexpected_arrivals == seen && spins < 1_000_000 {
            ep0.progress();
            ep1.progress();
            spins += 1;
        }
        let rbuf = ep1.alloc(64)?;
        let (rbuf, _) = ep1.recv(MatchSpec::exact(0, tag), rbuf)?;
        let sbuf = ep0.wait_send(sreq)?;
        ep0.release(sbuf);
        ep1.release(rbuf);
    }
    let pool = ep1.frame_pool_stats();
    Ok(pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64)
}

fn obs(reps: usize, put: Put) {
    const OPS: u64 = 200_000;
    let plane = Obs::new();
    // Looked up by name on every call, as the cache and the server do.
    put(
        "obs.counter_add_ns",
        ns_per_unit(reps, || {
            for _ in 0..OPS {
                plane.counter("serve_cache_hits_total", &[]).add(1);
            }
            OPS
        }),
    );
    put(
        "obs.histogram_record_ns",
        ns_per_unit(reps, || {
            for i in 0..OPS {
                plane
                    .histogram("serve_request_latency_ns", &[])
                    .record(500 + (i & 1023));
            }
            OPS
        }),
    );
    // A per-cell bundle the size a figure cell publishes.
    let populated = || {
        let cell = Obs::new();
        for i in 0..64u64 {
            let (node, algo) = (i.to_string(), if i % 2 == 0 { "ring" } else { "tree" });
            let labels = [("node", node.as_str()), ("algo", algo)];
            cell.counter("messages_total", &labels).add(i);
            cell.gauge("utilization", &labels).set(i as f64 / 64.0);
            for v in 0..32 {
                cell.histogram("latency_ns", &labels).record(100 * (v + i));
            }
        }
        cell
    };
    let cell = populated();
    put(
        "obs.export_prometheus_ms",
        ns_per_call(reps, 8, || cell.prometheus().len()) / 1e6,
    );
    put(
        "obs.merge_ms",
        ns_per_call(reps, 8, || {
            let parent = populated();
            parent.merge_from(&cell);
            parent
        }) / 1e6,
    );
}

fn sweep(smoke: bool, put: Put) {
    warm_pool(2);
    const POINTS: u64 = 64;
    put(
        "bench.sweep.point_dispatch_us",
        ns_per_unit(20, || {
            black_box(sweep_with_jobs((0..POINTS).collect(), 2, |x| x + 1));
            POINTS
        }) / 1e3,
    );
    // The F3 1024-host cells fanned over the sweep pool at 2 jobs
    // against 1: where sweep-pool work is visible, `figures_all` being
    // pinned to `jobs = 1`.
    let k = if smoke { 8 } else { 16 };
    let f3 = |jobs: usize| {
        let mut cells = Vec::new();
        for algo in [
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::ReduceBcast,
        ] {
            for bytes in [64u64, 4 << 20] {
                cells.push((algo, bytes));
            }
        }
        let t0 = Instant::now();
        black_box(sweep_with_jobs(cells, jobs, |(algo, bytes)| {
            let mut net = Network::new(
                Topology::new(TopologyKind::FatTree { k }),
                Generation::InfiniBand4x.link_model(),
            );
            simulate_collective(
                &mut net,
                Collective::Allreduce(algo),
                bytes,
                ExecParams::default(),
            )
            .messages
        }));
        t0.elapsed().as_secs_f64()
    };
    let serial = f3(1);
    put("bench.sweep.f3_jobs2_speedup", serial / f3(2));
}
