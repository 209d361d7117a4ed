//! Differential oracles: two implementations that must agree, driven
//! by the same seeded workload, with every divergence reported as a
//! [`Violation`].
//!
//! * Calendar [`EventQueue`] vs the binary-heap reference queue — same
//!   pop stream, same lengths, same `pop_at` behaviour.
//! * Sharded conservative-parallel executor at 1 vs 2 vs 4 shards —
//!   bit-identical completion times and message ledgers — and against
//!   the serial flow-level executor, which must agree on the
//!   message/payload ledgers (virtual times legitimately differ: the
//!   two engines resolve crossbar contention in different deterministic
//!   orders).
//! * Raw vs reliable delivery under the same chaos plan — whatever the
//!   raw channel happens to deliver, the reliable channel must deliver
//!   a superset: all of it, exactly once, in order.
//! * Interrupted vs uninterrupted execution — a run cut at an arbitrary
//!   horizon, snapshotted, restored into a fresh engine, and resumed
//!   must be bit-identical to one that never stopped.

use crate::gen::WorkloadSpec;
use crate::Violation;
use polaris_collectives::prelude::{
    simulate_collective, simulate_collective_sharded_stats, ExecParams,
};
use polaris_msg::prelude::{Endpoint, MatchSpec, MsgConfig, Protocol, Reliability};
use polaris_nic::prelude::{ChaosParams, Fabric};
use polaris_simnet::event::{reference::HeapQueue, EventQueue};
use polaris_simnet::prelude::{
    Generation, Network, Partition, ShardCtx, ShardSim, ShardSnapshot, ShardWorld, SimDuration,
    SimTime, SplitMix64, Topology, TopologyKind,
};
use std::time::{Duration, Instant};

macro_rules! check {
    ($out:expr, $cond:expr, $inv:expr, $($fmt:tt)+) => {
        if !$cond {
            $out.push(Violation::new($inv, format!($($fmt)+)));
        }
    };
}

/// Calendar queue vs reference heap: identical observable behaviour
/// over a seeded op stream. Timestamps are constructed unique (low bits
/// carry the event id), so pop order is fully determined and the two
/// queues must agree event-for-event, not just time-for-time. A keyed
/// near-future phase follows on fresh queues ([`keyed_spill_phase`]),
/// then a preload phase ([`preload_phase`]), each drawing after the
/// phases before it so pinned seeds replay those unchanged.
pub fn queue_oracle(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let inv = "queue-divergence";
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut rng = SplitMix64::new(spec.seed ^ 0x7175_6575_655F_6469); // "queue_di"
    let mut next_id = 0u64;
    let mut pushes = 0u64;
    for _ in 0..spec.queue_ops {
        match rng.next_below(4) {
            0 | 1 => {
                // Bias toward pushes so the population grows and the
                // calendar has to resize/advance its wheel.
                let t = SimTime((rng.next_below(1 << 40) << 13) | (next_id & 0x1fff));
                cal.push(t, next_id);
                heap.push(t, next_id);
                next_id += 1;
                pushes += 1;
            }
            2 => {
                let a = cal.pop();
                let b = heap.pop();
                check!(out, a == b, inv, "pop diverged: calendar {a:?} vs heap {b:?}");
            }
            _ => {
                let a = cal.peek_time();
                let b = heap.peek_time();
                check!(out, a == b, inv, "peek diverged: calendar {a:?} vs heap {b:?}");
                if let Some(t) = b {
                    let a = cal.pop_at(t);
                    let b = heap.pop();
                    check!(out, a == b, inv, "pop_at({t:?}) diverged: {a:?} vs {b:?}");
                }
            }
        }
        check!(
            out,
            cal.len() == heap.len(),
            inv,
            "len diverged: calendar {} vs heap {}",
            cal.len(),
            heap.len()
        );
        if !out.is_empty() {
            return out; // one divergence cascades; report the first
        }
    }
    // Drain both to empty.
    loop {
        let a = cal.pop();
        let b = heap.pop();
        check!(out, a == b, inv, "drain diverged: calendar {a:?} vs heap {b:?}");
        if b.is_none() || !out.is_empty() {
            break;
        }
    }
    check!(
        out,
        cal.scheduled_total() == pushes,
        inv,
        "calendar scheduled_total {} != pushes {pushes}",
        cal.scheduled_total()
    );
    if out.is_empty() {
        keyed_spill_phase(spec.queue_ops, &mut rng, &mut out);
    }
    if out.is_empty() {
        preload_phase(spec.queue_ops, &mut rng, &mut out);
    }
    out
}

/// The sharded engine's pattern on a fresh queue: keyed chains start at
/// one instant and reschedule 0.5, 2, 3 or 36 µs out, so most pushes
/// land past the wheel's horizon and the queue must re-fit to the
/// spill. Keys follow insertion order, so the heap's FIFO tie-break is
/// the same total order and the two must agree event for event.
fn keyed_spill_phase(ops: u32, rng: &mut SplitMix64, out: &mut Vec<Violation>) {
    const DELTAS: [u64; 4] = [500_000, 2_000_000, 3_000_000, 36_000_000];
    let inv = "queue-divergence";
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut key = 0u64;
    let chains = 1 + rng.next_below((u64::from(ops) / 4).max(1));
    for chain in 0..chains {
        cal.push_keyed(SimTime(0), key, chain);
        heap.push(SimTime(0), chain);
        key += 1;
    }
    for _ in 0..ops {
        let a = cal.pop();
        let b = heap.pop();
        check!(out, a == b, inv, "keyed pop diverged: calendar {a:?} vs heap {b:?}");
        if !out.is_empty() {
            return;
        }
        let (now, chain) = b.expect("every pop reschedules its chain");
        let at = SimTime(now.0 + DELTAS[rng.next_below(4) as usize]);
        cal.push_keyed(at, key, chain);
        heap.push(at, chain);
        key += 1;
    }
    loop {
        let a = cal.pop();
        let b = heap.pop();
        check!(out, a == b, inv, "keyed drain diverged: calendar {a:?} vs heap {b:?}");
        if b.is_none() || !out.is_empty() {
            return;
        }
    }
}

/// The fleet's pattern on fresh queues: arrivals spread over 1200 s and
/// timers 48 to 216 s out, pushed in no order before the first pop, then
/// a drain in which some pops schedule a follow-up. No push made before
/// the first pop may land behind the cursor, and the two queues must
/// agree event for event (FIFO ties on both sides).
fn preload_phase(ops: u32, rng: &mut SplitMix64, out: &mut Vec<Violation>) {
    const S: u64 = 1_000_000_000_000;
    let inv = "queue-divergence";
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut next_id = 0u64;
    for _ in 0..ops {
        let t = if rng.chance(0.25) {
            rng.next_below(1_200 * S)
        } else {
            48 * S + rng.next_below(168 * S)
        };
        cal.push(SimTime(t), next_id);
        heap.push(SimTime(t), next_id);
        next_id += 1;
    }
    let behind = cal.stats().behind;
    check!(out, behind == 0, inv, "{behind} of {ops} preload pushes landed behind the cursor");
    loop {
        let a = cal.pop();
        let b = heap.pop();
        check!(out, a == b, inv, "preload drain diverged: calendar {a:?} vs heap {b:?}");
        let Some((now, _)) = b else { return };
        if !out.is_empty() {
            return;
        }
        if next_id < 2 * u64::from(ops) && rng.chance(0.5) {
            let t = SimTime(now.0 + rng.next_below(60 * S));
            cal.push(t, next_id);
            heap.push(t, next_id);
            next_id += 1;
        }
    }
}

/// Sharded executor determinism, two halves:
///
/// 1. The collective engine: jobs=1 is the reference; 2 and 4 shards
///    must be bit-identical in completion time, message/payload ledger
///    and events dispatched, and the serial flow-level executor must
///    agree on the message/payload ledgers.
/// 2. A token workload that lands cross-shard events exactly on window
///    edges ([`StragWorld`]): the merged log at 1/2/4 shards must equal
///    the 1-shard log, with an event-conservation ledger — every token
///    accounts for exactly `hops + 1` dispatches.
pub fn shard_oracle(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let inv = "shard-divergence";
    let (coll, bytes) = spec.collective();
    let p = spec.coll_ranks.max(3);
    let link = if spec.seed & 1 == 0 {
        Generation::GigabitEthernet.link_model()
    } else {
        Generation::InfiniBand4x.link_model()
    };
    let (base, base_stats) =
        simulate_collective_sharded_stats(p, coll, bytes, ExecParams::default(), link, 1);
    for jobs in [2u32, 4] {
        let (run, stats) =
            simulate_collective_sharded_stats(p, coll, bytes, ExecParams::default(), link, jobs);
        check!(
            out,
            run.completion == base.completion,
            inv,
            "{coll:?} p={p} jobs={jobs}: completion {:?} != serial-shard {:?}",
            run.completion,
            base.completion
        );
        check!(
            out,
            run.messages == base.messages && run.payload_bytes == base.payload_bytes,
            inv,
            "{coll:?} p={p} jobs={jobs}: ledger ({}, {}) != serial-shard ({}, {})",
            run.messages,
            run.payload_bytes,
            base.messages,
            base.payload_bytes
        );
        check!(
            out,
            stats.events_dispatched == base_stats.events_dispatched,
            inv,
            "{coll:?} p={p} jobs={jobs}: {} events dispatched vs serial-shard {}",
            stats.events_dispatched,
            base_stats.events_dispatched
        );
    }
    let mut net = Network::new(Topology::new(TopologyKind::Crossbar { hosts: p }), link);
    let serial = simulate_collective(&mut net, coll, bytes, ExecParams::default());
    check!(
        out,
        serial.messages == base.messages && serial.payload_bytes == base.payload_bytes,
        "shard-vs-serial-ledger",
        "{coll:?} p={p}: serial executor ledger ({}, {}) != sharded ({}, {})",
        serial.messages,
        serial.payload_bytes,
        base.messages,
        base.payload_bytes
    );

    // Half 2: stragglers at window edges over the token workload. The
    // salt is frozen so pinned seeds keep drawing the same cases.
    let mut rng = SplitMix64::new(spec.seed ^ 0x726F_6C6C_6261_636B);
    let hosts = 5 + rng.next_below(8) as u32;
    let ntokens = spec.spec_tokens.clamp(1, 4) as usize;
    let hops = spec.spec_hops.clamp(1, 64);
    let tokens: Vec<u32> = (0..ntokens)
        .map(|_| rng.next_below(hosts as u64) as u32)
        .collect();
    let expected_events = tokens.len() as u64 * (hops as u64 + 1);
    let (reference, _) = run_stragglers(hosts, 1, &tokens, hops);
    for nshards in [1u32, 2, 4] {
        let (log, events) = run_stragglers(hosts, nshards, &tokens, hops);
        check!(
            out,
            log == reference,
            inv,
            "straggler workload diverged at nshards={nshards}: {} events vs {} \
             (hosts={hosts} tokens={tokens:?} hops={hops})",
            log.len(),
            reference.len()
        );
        check!(
            out,
            events == expected_events,
            "shard-event-conservation",
            "nshards={nshards}: dispatched {events} != ledger {expected_events} — the window \
             protocol double-counted or dropped events"
        );
        if !out.is_empty() {
            return out; // one divergence cascades; report the first
        }
    }
    out
}

/// Raw vs reliable delivery under the spec's chaos plan. The raw
/// channel may lose anything the injector drops; the reliable channel
/// over the *same plan* must deliver every message exactly once, in
/// order — a strict superset of whatever raw managed.
pub fn reliable_superset(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let n_msgs = spec.msgs.clamp(1, 64) as usize;
    let len = spec.msg_len.clamp(1, 1024) as usize;
    let chaos = ChaosParams {
        seed: spec.chaos_seed,
        drop_prob: spec.drop_prob(),
        corrupt_prob: spec.corrupt_prob(),
    };
    let pattern = |j: usize| -> Vec<u8> { (0..len).map(|b| (j * 17 + b * 5 + 1) as u8).collect() };

    // `reliable = false` drives a bounded number of progress rounds and
    // reports what arrived; `reliable = true` must converge to all.
    let run = |reliable: bool, out: &mut Vec<Violation>| -> Option<Vec<bool>> {
        let cfg = MsgConfig {
            reliability: if reliable {
                Reliability {
                    rto_initial: Duration::from_millis(2),
                    rto_max: Duration::from_millis(20),
                    ..Reliability::on()
                }
            } else {
                Reliability::default()
            },
            ..MsgConfig::with_protocol(Protocol::Eager)
        };
        let fabric = Fabric::new();
        let mut eps = Endpoint::create_world(&fabric, 2, cfg).unwrap();
        fabric.set_chaos(chaos);
        let (e0, e1) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e0[0], &mut e1[0]);
        let mut rreqs = Vec::with_capacity(n_msgs);
        for j in 0..n_msgs {
            let buf = ep1.alloc(len).unwrap();
            rreqs.push(ep1.irecv(MatchSpec::exact(0, j as u64), buf).unwrap());
        }
        for j in 0..n_msgs {
            let mut buf = ep0.alloc(len).unwrap();
            buf.fill_from(&pattern(j));
            let sreq = ep0.isend(1, j as u64, buf).unwrap();
            match ep0.wait_send(sreq) {
                Ok(sb) => ep0.release(sb),
                Err(e) => {
                    out.push(Violation::new(
                        "reliable-superset",
                        format!("send {j} failed (reliable={reliable}): {e}"),
                    ));
                    return None;
                }
            }
        }
        let mut delivered = vec![false; n_msgs];
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut rounds = 0u32;
        loop {
            ep0.progress();
            ep1.progress();
            for (j, req) in rreqs.iter().enumerate() {
                if delivered[j] {
                    continue;
                }
                if let Ok(Some((buf, info))) = ep1.test_recv(*req) {
                    if info.len != len || buf.as_slice() != &pattern(j)[..] {
                        out.push(Violation::new(
                            "reliable-superset",
                            format!("message {j} arrived damaged (reliable={reliable})"),
                        ));
                    }
                    ep1.release(buf);
                    delivered[j] = true;
                }
            }
            rounds += 1;
            let all = delivered.iter().all(|&d| d);
            if all {
                break;
            }
            if !reliable && rounds > 2000 {
                break; // raw losses are permanent; stop polling
            }
            if Instant::now() >= deadline {
                if reliable {
                    out.push(Violation::new(
                        "reliable-superset",
                        format!(
                            "reliable channel stalled: {}/{n_msgs} delivered under plan {chaos:?}",
                            delivered.iter().filter(|&&d| d).count()
                        ),
                    ));
                }
                break;
            }
        }
        Some(delivered)
    };

    let Some(raw) = run(false, &mut out) else { return out };
    let Some(rel) = run(true, &mut out) else { return out };
    for j in 0..n_msgs {
        check!(
            out,
            !raw[j] || rel[j],
            "reliable-superset",
            "message {j}: raw delivered it but reliable lost it"
        );
        check!(
            out,
            rel[j],
            "reliable-superset",
            "message {j}: reliable channel failed to deliver under {chaos:?}"
        );
    }
    out
}

/// Figure regeneration at sweep jobs=1 vs jobs=4: rendered tables,
/// registry export, and trace JSONL must be byte-identical. Process-
/// global (sets the sweep job count), so run once per sentinel
/// invocation, not per case.
pub fn figures_jobs_oracle() -> Vec<Violation> {
    use polaris_bench::figures::{f11_chaos, f2_p2p};
    use polaris_bench::sweep;
    use polaris_obs::Obs;
    let mut out = Vec::new();
    let render = |jobs: usize| {
        sweep::set_jobs(jobs);
        let obs = Obs::new();
        let mut tables = String::new();
        for t in f2_p2p::generate_with(&obs) {
            tables.push_str(&t.render());
        }
        for t in f11_chaos::generate_with(&obs) {
            tables.push_str(&t.render());
        }
        (tables, obs.prometheus(), obs.recorder.to_jsonl())
    };
    let serial = render(1);
    let parallel = render(4);
    sweep::set_jobs(1);
    // The divergence report carries the first differing line of each
    // artifact, so a CI failure uploads an actionable trace diff, not
    // just a boolean.
    for (name, a, b) in [
        ("rendered tables", &serial.0, &parallel.0),
        ("registry exports", &serial.1, &parallel.1),
        ("flight-recorder JSONL", &serial.2, &parallel.2),
    ] {
        check!(
            out,
            a == b,
            "figures-jobs-divergence",
            "{name} differ between jobs=1 and jobs=4: {}",
            first_line_diff(a, b)
        );
    }
    out
}

/// Locate the first line where two rendered artifacts diverge —
/// `line <n>: <jobs=1 side> != <jobs=4 side>` — for divergence
/// reports.
fn first_line_diff(a: &str, b: &str) -> String {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut n = 1usize;
    loop {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => n += 1,
            (Some(x), Some(y)) => return format!("line {n}: {x:?} != {y:?}"),
            (Some(x), None) => return format!("line {n}: {x:?} != <end>"),
            (None, Some(y)) => return format!("line {n}: <end> != {y:?}"),
            (None, None) => return "identical line streams (length/encoding drift)".into(),
        }
    }
}

/// Routing differential oracle: the O(1) arithmetic `RoutePlan` against
/// the retained reference graph (explicit adjacency + `walk_route`
/// table lookups) on the spec's topology, under both minimal and
/// Valiant routing. Small machines compare every pair; larger ones a
/// seeded sample. Divergence in link ids, order, or hop count is a
/// violation, as is a route exceeding the routing-aware diameter.
/// `Topology::hops` is closed-form arithmetic that builds no plan, so
/// the `hops() == plan length` check below is a second differential
/// oracle — distance against the stepped route — on every fuzz run.
pub fn route_oracle(spec: &WorkloadSpec) -> Vec<Violation> {
    use polaris_simnet::prelude::Routing;
    let mut out = Vec::new();
    let inv = "route-divergence";
    let kind = spec.topology();
    for routing in [
        Routing::Minimal,
        Routing::Valiant {
            seed: spec.seed | 1,
        },
    ] {
        let topo = Topology::new_reference(kind).with_routing(routing);
        let hosts = topo.hosts();
        let bound = topo.diameter();
        let pairs: Vec<(u32, u32)> = if hosts <= 64 {
            (0..hosts)
                .flat_map(|s| (0..hosts).map(move |d| (s, d)))
                .collect()
        } else {
            let mut rng = SplitMix64::new(spec.seed ^ 0x726F_7574_655F_6F72); // "route_or"
            (0..512)
                .map(|_| {
                    (
                        rng.next_below(hosts as u64) as u32,
                        rng.next_below(hosts as u64) as u32,
                    )
                })
                .collect()
        };
        for (s, d) in pairs {
            let plan = topo.route(s, d);
            let reference = topo.route_reference(s, d);
            check!(
                out,
                plan == reference,
                inv,
                "{kind:?} {routing:?} {s}->{d}: plan {plan:?} != reference {reference:?}"
            );
            check!(
                out,
                plan.len() as u32 <= bound,
                inv,
                "{kind:?} {routing:?} {s}->{d}: {} hops exceeds diameter {bound}",
                plan.len()
            );
            check!(
                out,
                topo.hops(s, d) as usize == plan.len(),
                inv,
                "{kind:?} {routing:?} {s}->{d}: hops() {} != plan length {}",
                topo.hops(s, d),
                plan.len()
            );
            // Every link id must invert to endpoints inside the machine
            // (the arithmetic numbering round-trips).
            for &l in &plan {
                let _ = topo.link_endpoints(l);
            }
            if !out.is_empty() {
                return out; // one divergence cascades; report the first
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Window-edge straggler workload (shard and snapshot oracles)
// ---------------------------------------------------------------------

/// One straggler token in flight between ranks.
#[derive(Clone)]
struct StragToken {
    rank: u32,
    hops_left: u32,
}

/// A token-passing world tuned to stress the window protocol: every
/// forward lands either *exactly* on the window edge
/// (`now + lookahead`, the worst-case straggler position — a window
/// one tick too wide would drain past it) or one lookahead beyond it.
/// The choice is a pure hash of `(rank, seq)`, so event times are
/// independent of the shard layout and the run is bit-comparable
/// across shard counts.
#[derive(Clone)]
struct StragWorld {
    part: Partition,
    base: u32,
    seqs: Vec<u64>,
    log: Vec<(u64, u32)>,
}

impl ShardWorld for StragWorld {
    type Event = StragToken;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, StragToken>, ev: StragToken) {
        self.log.push((ctx.now().0, ev.rank));
        if ev.hops_left == 0 {
            return;
        }
        let next = (ev.rank + 1) % self.part.hosts;
        let seq = &mut self.seqs[(ev.rank - self.base) as usize];
        *seq += 1;
        let key = ((ev.rank as u64) << 32) | *seq;
        // Straggler at the window edge, or one lookahead of slack.
        let slack = SplitMix64::new(key ^ ctx.now().0.rotate_left(17)).next_below(2);
        let at = SimTime(ctx.now().0 + ctx.lookahead().0 * (1 + slack));
        ctx.send(
            self.part.shard_of(next),
            at,
            key,
            StragToken {
                rank: next,
                hops_left: ev.hops_left - 1,
            },
        );
    }
}

/// The straggler workload seeded and ready to run at `nshards` shards.
fn straggler_sim(hosts: u32, nshards: u32, tokens: &[u32], hops: u32) -> ShardSim<StragWorld> {
    let part = Partition::block(hosts, nshards);
    let worlds: Vec<StragWorld> = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            StragWorld {
                part,
                base: ranks.start,
                seqs: ranks.map(|_| 0).collect(),
                log: Vec::new(),
            }
        })
        .collect();
    let mut sim = ShardSim::uniform(worlds, SimDuration(5));
    for (i, &r) in tokens.iter().enumerate() {
        sim.schedule(
            part.shard_of(r),
            SimTime(r as u64),
            ((r as u64) << 32) | (i as u64) << 16,
            StragToken { rank: r, hops_left: hops },
        );
    }
    sim
}

/// The merged `(time, rank)` log of a finished straggler run.
fn straggler_log(sim: &ShardSim<StragWorld>) -> Vec<(u64, u32)> {
    let mut log: Vec<(u64, u32)> = sim.worlds().flat_map(|w| w.log.iter().copied()).collect();
    log.sort_unstable();
    log
}

/// Run the straggler workload and return the merged `(time, rank)`
/// log plus total events dispatched.
fn run_stragglers(hosts: u32, nshards: u32, tokens: &[u32], hops: u32) -> (Vec<(u64, u32)>, u64) {
    let mut sim = straggler_sim(hosts, nshards, tokens, hops);
    let stats = sim.run(false, None);
    (straggler_log(&sim), stats.events_dispatched)
}

// ---------------------------------------------------------------------
// Snapshot replay oracle
// ---------------------------------------------------------------------

/// Run the straggler workload with an interruption: execute to the
/// `cut` horizon, snapshot, restore into a *fresh* engine, and resume
/// to completion there. Returns the merged `(time, rank)` log and the
/// total events dispatched across both halves.
fn run_stragglers_split(
    hosts: u32,
    nshards: u32,
    tokens: &[u32],
    hops: u32,
    cut: SimTime,
) -> (Vec<(u64, u32)>, u64) {
    let mut sim = straggler_sim(hosts, nshards, tokens, hops);
    let first = sim.run(false, Some(cut));
    let snap = sim.snapshot();
    drop(sim); // the restored engine must not lean on the original
    let mut resumed = snap.restore();
    let second = resumed.run(false, None);
    (
        straggler_log(&resumed),
        first.events_dispatched + second.events_dispatched,
    )
}

/// Checkpoint/restore must be *invisible*: a run interrupted at an
/// arbitrary horizon, snapshotted, restored into a fresh engine, and
/// resumed must produce the bit-identical event log and event count of
/// an uninterrupted 1-shard run — at every shard count, and regardless
/// of where the cut lands (mid-flight, with cross-shard events pending
/// in the receivers' queues). The snapshot itself must be reusable:
/// two restores from the same snapshot resume to the same result.
pub fn snapshot_oracle(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let inv = "snapshot-divergence";

    let mut rng = SplitMix64::new(spec.seed ^ 0x736E_6170_5F63_7574); // "snap_cut"
    let hosts = 5 + rng.next_below(8) as u32;
    let ntokens = spec.spec_tokens.clamp(1, 4) as usize;
    let hops = spec.spec_hops.clamp(1, 64);
    let tokens: Vec<u32> = (0..ntokens)
        .map(|_| rng.next_below(hosts as u64) as u32)
        .collect();
    let expected_events = tokens.len() as u64 * (hops as u64 + 1);

    let (reference, ref_events) = run_stragglers(hosts, 1, &tokens, hops);
    check!(
        out,
        ref_events == expected_events,
        "snapshot-event-conservation",
        "uninterrupted reference dispatched {ref_events} events, ledger expects {expected_events}"
    );
    let end = reference.last().map(|&(t, _)| t).unwrap_or(0).max(2);
    // Two seed-derived cut points: one in the first half of virtual
    // time (every token still in flight), one in the second (most
    // tokens retired, queues draining).
    let cuts = [
        SimTime(1 + rng.next_below(end / 2)),
        SimTime(end / 2 + 1 + rng.next_below(end - end / 2)),
    ];
    for &cut in &cuts {
        for nshards in [1u32, 2, 4] {
            let (log, events) = run_stragglers_split(hosts, nshards, &tokens, hops, cut);
            check!(
                out,
                log == reference,
                inv,
                "resumed run diverged at nshards={nshards} cut={}: {} events vs {} \
                 (hosts={hosts} tokens={tokens:?} hops={hops})",
                cut.0,
                log.len(),
                reference.len()
            );
            check!(
                out,
                events == expected_events,
                "snapshot-event-conservation",
                "nshards={nshards} cut={}: dispatched {events} != ledger {expected_events} — \
                 the cut double-counted or dropped events",
                cut.0
            );
            if !out.is_empty() {
                return out; // one divergence cascades; report the first
            }
        }
    }

    // A snapshot is a value, not a transfer of ownership: restoring it
    // twice must yield the same resumed result both times.
    let mut sim = straggler_sim(hosts, 2, &tokens, hops);
    sim.run(false, Some(cuts[0]));
    let snap = sim.snapshot();
    let resume = |snap: &ShardSnapshot<StragWorld>| {
        let mut sim = snap.restore();
        sim.run(false, None);
        straggler_log(&sim)
    };
    let (a, b) = (resume(&snap), resume(&snap));
    check!(
        out,
        a == b && a == reference,
        inv,
        "two restores from one snapshot disagree (or diverge from the reference): \
         {} vs {} vs {} events (hosts={hosts} cut={})",
        a.len(),
        b.len(),
        reference.len(),
        cuts[0].0
    );
    out
}
