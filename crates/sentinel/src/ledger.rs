//! Conservation ledgers: cross-layer bookkeeping audits.
//!
//! Each audit runs a seeded workload while keeping its own independent
//! ledger of what *must* be conserved, then reconciles that ledger
//! against every layer that claims to account for the same quantity:
//! the layer's own getters, the fault-injection log, the flight
//! recorder, and (for the fleet) the metrics registry. A mismatch
//! anywhere is a [`Violation`] — nothing is allowed to leak,
//! double-count, or silently vanish.
//!
//! The invariants:
//!
//! 1. **Byte conservation (network).** Every transfer presented to
//!    [`Network::transfer`] is delivered or dropped-with-recorded-reason;
//!    `transfers == delivered + dropped`, every drop has a matching
//!    [`FaultEvent`](polaris_simnet::fault::FaultEvent) in the injector
//!    log.
//! 2. **Completion conservation (NIC).** Over a full messaging workload,
//!    every posted WQE yields exactly one CQE except receive descriptors
//!    still armed at quiescence: in
//!    [`FabricStats`](polaris_nic::prelude::FabricStats),
//!    `wqes - (cqes_ok + cqes_err)` equals the (constant) armed
//!    receive-window population.
//! 3. **Frame conservation (msg).** Every wire frame acquired from the
//!    [`FramePool`](polaris_msg::prelude::FramePool) is released by
//!    quiescence — `outstanding() == 0` on every endpoint, including
//!    under loss and corruption (retransmit, dedup-discard, and error
//!    paths all return their frames).
//! 4. **Delivery conservation (msg).** Exactly-once, in-order payload
//!    delivery per (sender, receiver) stream, reconciled against
//!    endpoint stats; every sequenced frame a rank receives, duplicates
//!    included, is acknowledged exactly once.
//! 5. **Clock monotonicity (obs).** Per-subject flight-recorder
//!    timestamps never run backwards in record order.
//! 6. **Lifecycle conservation (rms).** Replaying a fleet run's audit
//!    log: every node is in exactly one state at every instant, every
//!    transition is an edge of the lifecycle graph, jobs start only on
//!    `Healthy` unoccupied nodes and are evicted before their node
//!    leaves service, and the run's report, metrics, and log all tell
//!    the same story.

use crate::gen::WorkloadSpec;
use crate::Violation;
use polaris_msg::prelude::{Endpoint, MatchSpec, MsgConfig, Protocol, Reliability};
use polaris_nic::prelude::{ChaosParams, Fabric};
use polaris_obs::Obs;
use polaris_rms::lifecycle::{churn_plan, run_fleet, AuditEvent, ChurnSpec, FleetConfig, NodeState};
use polaris_simnet::prelude::{
    FaultAction, FaultPlan, Generation, Network, SplitMix64, SimTime, Topology,
};
use std::time::{Duration, Instant};

/// Push a violation unless `cond` holds.
macro_rules! check {
    ($out:expr, $cond:expr, $inv:expr, $($fmt:tt)+) => {
        if !$cond {
            $out.push(Violation::new($inv, format!($($fmt)+)));
        }
    };
}

/// Sum every counter series named `name` (any label set) in `obs`.
pub(crate) fn sum_counters(obs: &Obs, name: &str) -> u64 {
    obs.registry
        .counters_snapshot()
        .into_iter()
        .filter(|(k, _)| k == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

/// Invariant 1: network byte conservation and drop attribution.
pub fn network_conservation(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let topo = Topology::new(spec.topology());
    let hosts = topo.hosts();
    let plan = FaultPlan::new(spec.chaos_seed)
        .uniform_drop(spec.drop_prob())
        .corrupt(spec.corrupt_prob());
    let mut net = Network::new(topo, Generation::InfiniBand4x.link_model()).with_faults(plan);

    let mut rng = SplitMix64::new(spec.seed ^ 0x6E65_745F_6175_6469); // "net_audi"
    let (mut bytes_in, mut delivered, mut dropped, mut corrupted) = (0u64, 0u64, 0u64, 0u64);
    let mut loopbacks = 0u64;
    let mut now = 0u64;
    for _ in 0..spec.transfers {
        let src = rng.next_below(hosts as u64) as u32;
        let dst = rng.next_below(hosts as u64) as u32;
        let bytes = 1 + rng.next_below(1 << 14);
        now += 1 + rng.next_below(1_000_000);
        let d = net.transfer(SimTime(now), src, dst, bytes);
        bytes_in += bytes;
        if src == dst {
            loopbacks += 1;
        }
        if d.dropped {
            dropped += 1;
        } else {
            delivered += 1;
            if d.corrupted {
                corrupted += 1;
            }
        }
    }

    let inv = "net-byte-conservation";
    check!(
        out,
        delivered + dropped == spec.transfers as u64,
        inv,
        "delivered {delivered} + dropped {dropped} != transfers {}",
        spec.transfers
    );
    check!(
        out,
        net.transfers() == spec.transfers as u64,
        inv,
        "network transfer ledger {} != presented {}",
        net.transfers(),
        spec.transfers
    );
    check!(
        out,
        net.payload_bytes() == bytes_in,
        inv,
        "network byte ledger {} != presented bytes {bytes_in}",
        net.payload_bytes()
    );
    check!(
        out,
        net.dropped() == dropped,
        inv,
        "network drop ledger {} != observed drops {dropped}",
        net.dropped()
    );
    check!(
        out,
        net.corrupted() == corrupted,
        inv,
        "network corruption ledger {} != observed {corrupted}",
        net.corrupted()
    );

    // Every drop must be attributed: one injector log entry with a
    // recorded cause per dropped transfer (loopback transfers bypass
    // the injector by design and can never appear here).
    let logged_drops = net
        .fault_log()
        .iter()
        .filter(|e| matches!(e.action, FaultAction::Drop(_)))
        .count() as u64;
    let logged_corruptions = net
        .fault_log()
        .iter()
        .filter(|e| e.action == FaultAction::Corrupt)
        .count() as u64;
    check!(
        out,
        logged_drops == dropped,
        "net-drop-attribution",
        "{dropped} transfers dropped but {logged_drops} drop causes logged (loopbacks={loopbacks})"
    );
    check!(
        out,
        logged_corruptions == corrupted,
        "net-drop-attribution",
        "{corrupted} corrupted deliveries but {logged_corruptions} corruption events logged"
    );

    out
}

/// Invariants 2–5 over one executable messaging workload: WQE/CQE
/// balance, frame-pool custody, exactly-once delivery, and per-subject
/// trace monotonicity — under the spec's chaos plan.
pub fn endpoint_conservation(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = spec.ranks.max(2);
    let msgs = spec.msgs as usize;
    let len = spec.msg_len.clamp(1, 2048) as usize;

    let obs = Obs::new();
    let fabric = Fabric::new();
    let cfg = MsgConfig {
        reliability: Reliability {
            // Short timers keep the wall-clock cost of healing a
            // dropped final ACK negligible for the fuzzer.
            rto_initial: Duration::from_millis(2),
            rto_max: Duration::from_millis(20),
            ..Reliability::on()
        },
        srq_bufs: match spec.srq_bufs {
            0 => MsgConfig::default().srq_bufs,
            b => b as usize,
        },
        ..MsgConfig::with_protocol(Protocol::Eager)
    };
    let mut eps = match Endpoint::create_world(&fabric, n, cfg) {
        Ok(e) => e,
        Err(e) => {
            out.push(Violation::new("ep-bootstrap", format!("create_world({n}): {e}")));
            return out;
        }
    };
    for ep in &mut eps {
        ep.set_obs(obs.clone());
    }
    if spec.drop_pm > 0 || spec.corrupt_pm > 0 {
        fabric.set_chaos(ChaosParams {
            seed: spec.chaos_seed,
            drop_prob: spec.drop_prob(),
            corrupt_prob: spec.corrupt_prob(),
        });
    }

    // Ring workload: rank r sends `msgs` messages to (r+1) % n, tags
    // striding by the spec's pattern, payload a function of (sender, j).
    let pattern = |src: u32, j: usize| -> Vec<u8> {
        (0..len).map(|b| (src as usize * 131 + j * 31 + b * 7 + 3) as u8).collect()
    };
    let mut rreqs: Vec<Vec<_>> = Vec::with_capacity(n as usize);
    for (r, ep) in eps.iter_mut().enumerate() {
        let from = (r as u32 + n - 1) % n;
        let mut reqs = Vec::with_capacity(msgs);
        for j in 0..msgs {
            let buf = ep.alloc(len).unwrap();
            let tag = j as u64 * spec.tag_stride;
            reqs.push(ep.irecv(MatchSpec::exact(from, tag), buf).unwrap());
        }
        rreqs.push(reqs);
    }
    for (r, ep) in eps.iter_mut().enumerate() {
        let dst = (r as u32 + 1) % n;
        for j in 0..msgs {
            let mut buf = ep.alloc(len).unwrap();
            buf.fill_from(&pattern(r as u32, j));
            let sreq = ep.isend(dst, j as u64 * spec.tag_stride, buf).unwrap();
            match ep.wait_send(sreq) {
                Ok(sb) => ep.release(sb),
                Err(e) => {
                    out.push(Violation::new(
                        "ep-delivery",
                        format!("rank {r} send {j} failed: {e}"),
                    ));
                    return out;
                }
            }
        }
    }
    // Drain: drive every endpoint until all receives complete.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut pending: Vec<(usize, usize, polaris_msg::prelude::ReqId)> = rreqs
        .iter()
        .enumerate()
        .flat_map(|(r, reqs)| reqs.iter().enumerate().map(move |(j, &q)| (r, j, q)))
        .collect();
    while !pending.is_empty() {
        if Instant::now() >= deadline {
            out.push(Violation::new(
                "ep-delivery",
                format!("delivery stalled with {} receives outstanding", pending.len()),
            ));
            return out;
        }
        for ep in eps.iter_mut() {
            ep.progress();
        }
        pending.retain(|&(r, j, req)| match eps[r].test_recv(req) {
            Ok(Some((buf, info))) => {
                let from = (r as u32 + n - 1) % n;
                if info.len != len || buf.as_slice() != &pattern(from, j)[..] {
                    out.push(Violation::new(
                        "ep-delivery",
                        format!("rank {r} msg {j}: payload damaged or reordered"),
                    ));
                }
                eps[r].release(buf);
                false
            }
            Ok(None) => true,
            Err(e) => {
                out.push(Violation::new(
                    "ep-delivery",
                    format!("rank {r} msg {j}: recv failed: {e}"),
                ));
                false
            }
        });
    }
    if !out.is_empty() {
        return out;
    }

    // Invariant 4: exactly-once per stream, by the endpoints' own books.
    for (r, ep) in eps.iter().enumerate() {
        let s = ep.stats();
        check!(
            out,
            s.msgs_received == msgs as u64,
            "ep-exactly-once",
            "rank {r}: {} received, expected exactly {msgs}",
            s.msgs_received
        );
        check!(
            out,
            s.msgs_sent == msgs as u64,
            "ep-exactly-once",
            "rank {r}: {} sent, expected {msgs}",
            s.msgs_sent
        );
    }

    // Quiesce: the last data frame's ACK may itself have been dropped;
    // keep driving (RTO is 2 ms) until the wire reaches a true fixed
    // point or the grace period expires. Frame-pool occupancy alone is
    // NOT a fixed point: an un-acked frame can retransmit *after* the
    // pool looks idle, consuming an armed receive buffer that nobody
    // reposts once polling stops (and a parked duplicate can hold a
    // sender WQE open). Settle on three conditions simultaneously —
    // no frames outstanding, no reliability work in flight
    // ([`Endpoint::rel_inflight`]), and a full progress round that
    // processed zero completions (queues drained, every consumed
    // receive reposted).
    let grace = Instant::now() + Duration::from_secs(10);
    loop {
        let mut processed = 0usize;
        for ep in eps.iter_mut() {
            processed += ep.progress();
        }
        let outstanding: u64 = eps.iter().map(|ep| ep.frame_pool_stats().outstanding()).sum();
        let inflight: usize = eps.iter().map(|ep| ep.rel_inflight()).sum();
        if (processed == 0 && outstanding == 0 && inflight == 0) || Instant::now() >= grace {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    // No endpoint crashed, so none may have given up on a peer: a live
    // peer declared failed is a retry budget spent on a slow receiver,
    // not on a lossy wire.
    for (r, ep) in eps.iter().enumerate() {
        let failed: Vec<u32> = (0..n).filter(|&p| !ep.peer_alive(p)).collect();
        check!(
            out,
            failed.is_empty(),
            "ep-no-false-failure",
            "rank {r} declared live peers {failed:?} failed"
        );
    }

    // Invariant 3: frame custody. Every acquired frame is back home.
    for (r, ep) in eps.iter().enumerate() {
        let f = ep.frame_pool_stats();
        check!(
            out,
            f.outstanding() == 0,
            "frame-conservation",
            "rank {r}: {} wire frames never returned to the pool ({f:?})",
            f.outstanding()
        );
    }

    // Invariant 4, the acknowledgement half: the ring's frames are all
    // sequenced eager data, each delivered once, and the receiver ACKs
    // every copy it sees, so a rank's ACKs are its deliveries plus the
    // duplicates it discarded.
    for (r, ep) in eps.iter().enumerate() {
        let s = ep.stats();
        check!(
            out,
            s.rel_acks == s.msgs_received + s.rel_dups,
            "rel-ack-conservation",
            "rank {r}: {} acks != {} delivered + {} duplicates",
            s.rel_acks,
            s.msgs_received,
            s.rel_dups
        );
    }

    // Invariant 2: WQE/CQE balance. Each consumed receive is reposted
    // 1:1, so the armed receive population is constant: exactly the
    // bootstrap posting, one full shared pool per endpoint, `n` pools
    // in total. WQEs are the QPs' sends plus the pools' receive posts.
    // Everything else must have completed.
    let f = fabric.stats();
    let cqe = f.cqes_ok + f.cqes_err;
    let armed_rx = n as u64 * cfg.srq_bufs as u64;
    check!(
        out,
        f.wqes == cqe + armed_rx,
        "wqe-cqe-conservation",
        "wqe {} != cqe {cqe} + armed rx {armed_rx} (leak or double completion)",
        f.wqes
    );

    // Invariant 5: per-subject trace clocks are monotone.
    out.extend(trace_monotonicity(&obs));
    out
}

/// Invariant 6: lifecycle conservation. Runs a small fleet under a
/// spec-derived churn plan with the audit log on, then replays the log
/// with independent books — per-node state, per-node occupancy — and
/// reconciles the end state against the run's own report and metrics.
/// All fleet parameters are derived from existing spec fields so every
/// historical seed exercises this audit without shifting any other
/// audit's derivation.
pub fn lifecycle_conservation(spec: &WorkloadSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let inv = "lifecycle-conservation";
    let nodes = 16 + (spec.transfers % 49); // 16..=64
    let cfg = FleetConfig {
        nodes,
        seed: spec.seed ^ 0x6C69_6665_6C65_6467, // "lifeledg"
        jobs: 8 + spec.msgs % 24,
        max_job_width: 1 + (spec.coll_ranks % 6),
        record_audit: true,
        ..FleetConfig::default()
    };
    let churn = ChurnSpec { events: spec.msgs % 13 };
    let plan = churn_plan(spec.chaos_seed, nodes, &churn);
    let obs = Obs::new();
    let report = run_fleet(cfg, &plan, Some(&obs));

    // Determinism: the run is a pure function of (cfg, plan).
    let replay = run_fleet(cfg, &plan, None);
    check!(
        out,
        replay.audit == report.audit && replay.census == report.census,
        "lifecycle-determinism",
        "same (cfg, plan) produced diverging runs (audit {} vs {} events)",
        report.audit.len(),
        replay.audit.len()
    );

    // Replay the audit log with independent books.
    let mut state = vec![NodeState::Provision; nodes as usize];
    let mut occupant: Vec<Option<u32>> = vec![None; nodes as usize];
    let mut job_started = vec![false; cfg.jobs as usize];
    let mut job_ended = vec![false; cfg.jobs as usize];
    let mut last_ps = 0u64;
    let mut transitions = 0u64;
    let mut requeues = 0u64;
    for ev in &report.audit {
        let at = match ev {
            AuditEvent::Transition { at_ps, .. }
            | AuditEvent::JobStart { at_ps, .. }
            | AuditEvent::JobEvict { at_ps, .. }
            | AuditEvent::JobEnd { at_ps, .. } => *at_ps,
        };
        check!(out, at >= last_ps, inv, "audit log time ran backwards: {last_ps} -> {at}");
        last_ps = at;
        match ev {
            AuditEvent::Transition { node, from, to, .. } => {
                transitions += 1;
                let cur = state[*node as usize];
                // Exactly one state per node at every instant: the log's
                // `from` must be the state our books say the node holds.
                check!(
                    out,
                    cur == *from,
                    inv,
                    "node {node}: transition claims from {from:?} but ledger says {cur:?}"
                );
                check!(
                    out,
                    NodeState::is_edge(*from, *to),
                    inv,
                    "node {node}: {from:?} -> {to:?} is not an edge of the lifecycle graph"
                );
                // A node leaving service must already be vacated.
                if !matches!(to, NodeState::Healthy | NodeState::Degraded) {
                    check!(
                        out,
                        occupant[*node as usize].is_none(),
                        inv,
                        "node {node} left service for {to:?} while job {:?} still occupied it",
                        occupant[*node as usize]
                    );
                }
                state[*node as usize] = *to;
            }
            AuditEvent::JobStart { job, nodes: placed, .. } => {
                check!(out, !placed.is_empty(), inv, "job {job} started on zero nodes");
                check!(out, !job_ended[*job as usize], inv, "job {job} restarted after ending");
                job_started[*job as usize] = true;
                for n in placed {
                    // Admission gate: only Healthy, unoccupied nodes.
                    check!(
                        out,
                        state[*n as usize].schedulable(),
                        inv,
                        "job {job} started on node {n} in state {:?}",
                        state[*n as usize]
                    );
                    check!(
                        out,
                        occupant[*n as usize].is_none(),
                        inv,
                        "job {job} double-booked node {n} (held by {:?})",
                        occupant[*n as usize]
                    );
                    occupant[*n as usize] = Some(*job);
                }
            }
            AuditEvent::JobEvict { job, .. } => {
                requeues += 1;
                check!(out, job_started[*job as usize], inv, "job {job} evicted before starting");
                let held = occupant.iter().filter(|&&o| o == Some(*job)).count();
                check!(out, held > 0, inv, "job {job} evicted while holding no nodes");
                for slot in occupant.iter_mut() {
                    if *slot == Some(*job) {
                        *slot = None;
                    }
                }
            }
            AuditEvent::JobEnd { job, .. } => {
                check!(out, !job_ended[*job as usize], inv, "job {job} ended twice");
                job_ended[*job as usize] = true;
                for slot in occupant.iter_mut() {
                    if *slot == Some(*job) {
                        *slot = None;
                    }
                }
            }
        }
    }

    // End state reconciliation: replayed books vs the run's own census.
    let mut census = [0u32; 7];
    for s in &state {
        census[s.index()] += 1;
    }
    check!(
        out,
        census == report.census,
        inv,
        "replayed census {census:?} != reported census {:?}",
        report.census
    );
    check!(
        out,
        transitions == report.transitions,
        inv,
        "audit log holds {transitions} transitions, report claims {}",
        report.transitions
    );
    check!(
        out,
        requeues == report.requeues,
        inv,
        "audit log holds {requeues} evictions, report claims {} requeues",
        report.requeues
    );
    let ended = job_ended.iter().filter(|&&e| e).count() as u32;
    check!(
        out,
        ended == report.jobs_completed,
        inv,
        "audit log ends {ended} jobs, report claims {}",
        report.jobs_completed
    );
    // Convergence claim: every node settled, every victim terminal.
    if report.converged {
        for (n, s) in state.iter().enumerate() {
            check!(
                out,
                s.settled(),
                inv,
                "report claims convergence but node {n} ended in {s:?}"
            );
        }
        for node in plan.disturbed_nodes() {
            if node < nodes {
                check!(
                    out,
                    state[node as usize].terminal(),
                    inv,
                    "report claims convergence but victim {node} ended in {:?}",
                    state[node as usize]
                );
            }
        }
    }

    // The metrics registry must tell the same story as the report.
    for (name, want) in [
        ("lifecycle_transitions_total", report.transitions),
        ("lifecycle_requeues_total", report.requeues),
        ("lifecycle_evictions_total", report.evictions),
        ("lifecycle_jobs_completed_total", report.jobs_completed as u64),
    ] {
        let got = sum_counters(&obs, name);
        check!(
            out,
            got == want,
            "lifecycle-obs-reconciliation",
            "{name}: registry {got} != report {want}"
        );
    }
    let false_ctr = obs
        .registry
        .counter_value("lifecycle_evictions_total", &[("kind", "false_positive")]);
    check!(
        out,
        false_ctr == report.false_evictions,
        "lifecycle-obs-reconciliation",
        "false-eviction counter {false_ctr} != report {}",
        report.false_evictions
    );
    out
}

/// Invariant 5, standalone: for every subject, flight-recorder events
/// carry non-decreasing virtual timestamps in record (seq) order.
fn trace_monotonicity(obs: &Obs) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut events = obs.recorder.events();
    events.sort_by_key(|e| e.seq);
    let mut last: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for e in &events {
        let key = e.subject.to_string();
        if let Some(&(prev_ps, prev_seq)) = last.get(&key) {
            if e.at_ps < prev_ps {
                out.push(Violation::new(
                    "trace-monotonicity",
                    format!(
                        "subject {key}: clock ran backwards {prev_ps} -> {} (seq {prev_seq} -> {}, event {})",
                        e.at_ps, e.seq, e.name
                    ),
                ));
            }
        }
        last.insert(key, (e.at_ps, e.seq));
    }
    out
}

/// Invariant 7: circuit-scheduler conservation. Drives a seeded
/// reserve / transfer / release / preempt sequence through the
/// [`polaris_simnet::circuit::CircuitScheduler`] while keeping
/// independent books, then replays the scheduler's append-only event
/// ledger and reconciles:
///
/// * concurrently held reservations never exceed capacity, and the
///   scheduler refuses a reservation *only* at capacity;
/// * every reserve is closed by exactly one release or preemption, and
///   no traffic moves on a token outside its reservation window;
/// * every transfer starts at or after `ready_at = reserve_at +
///   reconfig` (reconfiguration latency actually charged) and after the
///   token's previous transfer (circuit serialization);
/// * the scheduler's counters equal the event counts equal the shadow
///   books.
pub fn circuit_conservation(spec: &WorkloadSpec) -> Vec<Violation> {
    use polaris_simnet::prelude::{
        CircuitEvent, CircuitScheduler, CircuitSchedulerConfig, Reservation, SimDuration,
    };
    let mut out = Vec::new();
    let inv = "circuit-conservation";
    let cap = spec.circuit_capacity.clamp(1, 64) as usize;
    let cfg = CircuitSchedulerConfig {
        max_circuits: cap,
        ..CircuitSchedulerConfig::default()
    };
    let mut s = CircuitScheduler::new(cfg);
    let mut rng = SplitMix64::new(spec.seed ^ 0x6369_7263_7569_7431); // "circuit1"
    let mut now = SimTime::ZERO;
    let mut active: Vec<Reservation> = Vec::new();
    let hosts = 64u64;
    let ops = spec.circuit_ops.max(8);
    for _ in 0..ops {
        let src = rng.next_below(hosts) as u32;
        let dst = ((src as u64 + 1 + rng.next_below(hosts - 1)) % hosts) as u32;
        match rng.next_below(10) {
            0..=3 => match s.try_reserve(now, src, dst) {
                Some(r) => {
                    check!(
                        out,
                        active.len() < cap,
                        inv,
                        "reservation granted beyond capacity: {} already held, cap {cap}",
                        active.len()
                    );
                    active.push(r);
                }
                None => check!(
                    out,
                    active.len() == cap,
                    inv,
                    "reservation refused below capacity: {}/{cap} held",
                    active.len()
                ),
            },
            4..=6 => {
                if !active.is_empty() {
                    let i = rng.next_below(active.len() as u64) as usize;
                    let bytes = 1 + rng.next_below(1 << 20);
                    let r = s.transfer(now, &active[i], bytes);
                    check!(
                        out,
                        r.is_ok(),
                        inv,
                        "transfer refused on an active circuit (token {})",
                        active[i].token
                    );
                }
            }
            7 => {
                if !active.is_empty() {
                    let i = rng.next_below(active.len() as u64) as usize;
                    let r = active.swap_remove(i);
                    check!(
                        out,
                        s.release(now, &r).is_ok(),
                        inv,
                        "release refused on an active circuit (token {})",
                        r.token
                    );
                    check!(
                        out,
                        s.release(now, &r).is_err(),
                        inv,
                        "double release accepted (token {})",
                        r.token
                    );
                    check!(
                        out,
                        s.transfer(now, &r, 64).is_err(),
                        inv,
                        "traffic accepted on a released circuit (token {})",
                        r.token
                    );
                }
            }
            8 => {
                if let Some(r) = s.reserve_preempting(now, src, dst) {
                    // Sync the shadow book with whatever idle victim the
                    // scheduler evicted (busy_until probes are pure).
                    active.retain(|a| s.busy_until(a.token).is_some());
                    active.push(r);
                    check!(
                        out,
                        active.len() <= cap,
                        inv,
                        "preempting reserve exceeded capacity: {}/{cap}",
                        active.len()
                    );
                }
            }
            _ => now += SimDuration::from_us(1 + rng.next_below(200)),
        }
        check!(
            out,
            s.active_count() == active.len(),
            inv,
            "active-count drift: scheduler {} vs shadow {}",
            s.active_count(),
            active.len()
        );
        if !out.is_empty() {
            return out; // one divergence cascades; report the first
        }
    }
    // Quiesce: everything still held is released.
    for r in active.drain(..) {
        check!(out, s.release(now, &r).is_ok(), inv, "final release refused");
    }

    // Replay the ledger with independent books.
    let mut open: std::collections::BTreeMap<u64, (SimTime, SimTime)> = Default::default();
    let mut last_arrival: std::collections::BTreeMap<u64, SimTime> = Default::default();
    let (mut reserves, mut transfers, mut releases, mut preempts) = (0u64, 0u64, 0u64, 0u64);
    for e in s.log() {
        match *e {
            CircuitEvent::Reserve {
                token,
                at,
                ready_at,
                ..
            } => {
                reserves += 1;
                check!(
                    out,
                    ready_at == at + cfg.reconfig,
                    inv,
                    "token {token}: reconfiguration not charged ({at:?} -> {ready_at:?})"
                );
                check!(
                    out,
                    open.insert(token, (at, ready_at)).is_none(),
                    inv,
                    "token {token} reserved twice without release"
                );
                check!(
                    out,
                    open.len() <= cap,
                    inv,
                    "ledger shows {} concurrent reservations, cap {cap}",
                    open.len()
                );
            }
            CircuitEvent::Transfer {
                token,
                start,
                arrival,
                bytes,
                ..
            } => {
                transfers += 1;
                match open.get(&token) {
                    None => check!(out, false, inv, "transfer on unreserved token {token}"),
                    Some(&(_, ready_at)) => {
                        check!(
                            out,
                            start >= ready_at,
                            inv,
                            "token {token}: transfer started {start:?} before ready {ready_at:?}"
                        );
                        if let Some(&prev) = last_arrival.get(&token) {
                            check!(
                                out,
                                start >= prev,
                                inv,
                                "token {token}: overlapping transfers ({start:?} < {prev:?})"
                            );
                        }
                        check!(
                            out,
                            arrival == start + cfg.link.message_time(bytes, 1),
                            inv,
                            "token {token}: arrival {arrival:?} != start + wire time"
                        );
                        last_arrival.insert(token, arrival);
                    }
                }
            }
            CircuitEvent::Release { token, .. } => {
                releases += 1;
                check!(
                    out,
                    open.remove(&token).is_some(),
                    inv,
                    "release of unreserved token {token}"
                );
            }
            CircuitEvent::Preempt { token, .. } => {
                preempts += 1;
                check!(
                    out,
                    open.remove(&token).is_some(),
                    inv,
                    "preemption of unreserved token {token}"
                );
            }
        }
        if !out.is_empty() {
            return out;
        }
    }
    check!(
        out,
        open.is_empty(),
        inv,
        "{} reservations never released: {:?}",
        open.len(),
        open.keys().collect::<Vec<_>>()
    );
    check!(
        out,
        reserves == releases + preempts,
        inv,
        "reserve/close mismatch: {reserves} reserves vs {releases} releases + {preempts} preempts"
    );
    check!(
        out,
        (s.reserves(), s.transfers(), s.releases(), s.preemptions())
            == (reserves, transfers, releases, preempts),
        inv,
        "scheduler counters ({}, {}, {}, {}) != ledger counts ({reserves}, {transfers}, {releases}, {preempts})",
        s.reserves(),
        s.transfers(),
        s.releases(),
        s.preemptions()
    );
    out
}
