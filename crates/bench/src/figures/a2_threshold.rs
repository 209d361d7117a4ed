//! A2 — ablation: the eager/rendezvous switch point. Sweeps the
//! protocol threshold in the analytic model per generation, and
//! cross-checks one point against the executable stack's wall clock.
//!
//! A1 / A3 / A4 — the executable stack's other ablations (registration
//! cache, completion mode, noncontiguous sends), timed the way A2b is.
//! Each carries one deterministic counter beside its informational
//! times; the unit test asserts the counters exactly.

use crate::table::{si_bytes, Table};
use polaris_msg::config::{MsgConfig, Protocol};
use polaris_msg::datatype::Layout;
use polaris_msg::endpoint::{Endpoint, ReqId};
use polaris_msg::match_engine::MatchSpec;
use polaris_msg::model::{eager_rendezvous_crossover, p2p_time, HostParams};
use polaris_nic::prelude::{CompletionQueue, Fabric, RecvWr, SendWr, Sge};
use polaris_simnet::link::Generation;
use std::time::{Duration, Instant};

pub fn generate() -> Vec<Table> {
    let host = HostParams::default();
    let mut t = Table::new(
        "A2",
        "eager/rendezvous crossover size by generation (model)",
        &["generation", "crossover", "eager@x/2-us", "rndv@x/2-us", "eager@2x-us", "rndv@2x-us"],
    );
    for g in Generation::ALL {
        let link = g.link_model();
        let x = eager_rendezvous_crossover(&link, 2, &host);
        let tt = |b: u64, p: Protocol| format!("{:.1}", p2p_time(&link, 2, b, p, &host).as_us());
        t.row(vec![
            g.name().to_string(),
            si_bytes(x),
            tt(x / 2, Protocol::Eager),
            tt(x / 2, Protocol::Rendezvous),
            tt(x * 2, Protocol::Eager),
            tt(x * 2, Protocol::Rendezvous),
        ]);
    }
    t.note("expected: crossover shrinks as links get faster (copies dominate sooner)");

    // Executable cross-check: measure real wall time per message for the
    // two protocols across sizes and find where rendezvous starts
    // winning on this host.
    let mut real = Table::new(
        "A2b",
        "executable stack: ns/message, eager vs rendezvous (this host)",
        &["size", "eager-ns", "rendezvous-ns"],
    );
    for exp in [6u32, 10, 14, 18, 22] {
        let bytes = 1usize << exp;
        let iters = (1 << 24) / bytes.max(1024) + 8;
        let ns = |p: Protocol| measure(MsgConfig::with_protocol(p), bytes, iters).0;
        let eager = (bytes <= 16 * 1024).then(|| ns(Protocol::Eager));
        let rndv = ns(Protocol::Rendezvous);
        real.row(vec![
            si_bytes(bytes as u64),
            eager.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into()),
            format!("{rndv:.0}"),
        ]);
    }
    real.note("in-process fabric: absolute numbers are host memcpy speeds, the shape is the point");
    vec![t, real]
}

/// The A1 / A3 / A4 tables, as `figures -- ablations` prints them.
pub fn ablations() -> Vec<Table> {
    vec![a1_reg_cache(64), a3_completion(4000), a4_noncontiguous(256)]
}

/// Rank 0 and rank 1 of a two-rank world on `fabric`, both driven from
/// the calling thread.
fn world(fabric: &Fabric, cfg: MsgConfig) -> (Endpoint, Endpoint) {
    let mut eps = Endpoint::create_world(fabric, 2, cfg).expect("bench world");
    let ep1 = eps.pop().expect("two endpoints");
    (eps.pop().expect("two endpoints"), ep1)
}

/// Progress `ep0` until `ep1`'s receive lands, then hand both buffers
/// back to their pools.
fn complete(ep0: &mut Endpoint, ep1: &mut Endpoint, rreq: ReqId, sreq: ReqId) {
    let (rbuf, _) = loop {
        ep0.progress();
        if let Some(done) = ep1.test_recv(rreq).expect("recv") {
            break done;
        }
    };
    let sbuf = ep0.wait_send(sreq).expect("send");
    ep0.release(sbuf);
    ep1.release(rbuf);
}

/// Run `message` once untimed, then `iters` times on the clock:
/// wall-clock nanoseconds per message and the per-message growth of
/// the counter `message` returns.
fn per_message(iters: usize, mut message: impl FnMut() -> u64) -> (f64, f64) {
    let before = message();
    let t0 = Instant::now();
    let after = (0..iters).map(|_| message()).last().unwrap_or(before);
    let per = |x: f64| x / iters as f64;
    (per(t0.elapsed().as_nanos() as f64), per((after - before) as f64))
}

/// Nanoseconds and buffer registrations per message of `bytes`, each
/// in freshly allocated buffers, single-threaded duplex world.
fn measure(cfg: MsgConfig, bytes: usize, iters: usize) -> (f64, f64) {
    let fabric = Fabric::new();
    let (mut ep0, mut ep1) = world(&fabric, cfg);
    per_message(iters, || {
        let rbuf = ep1.alloc(bytes).expect("alloc");
        let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).expect("irecv");
        let sbuf = ep0.alloc(bytes).expect("alloc");
        let sreq = ep0.isend(1, 1, sbuf).expect("isend");
        complete(&mut ep0, &mut ep1, rreq, sreq);
        ep0.pool_stats().misses + ep1.pool_stats().misses
    })
}

/// A1: 256 KiB rendezvous messages with the registration cache on and
/// off. Uncached, both sides register and deregister every buffer.
fn a1_reg_cache(iters: usize) -> Table {
    let mut t = Table::new(
        "A1",
        "registration cache on the rendezvous path, 256 KiB (this host)",
        &["reg-cache", "ns/msg", "registrations/msg"],
    );
    for (capacity, name) in [(64, "on (64)"), (0, "off")] {
        let cfg = MsgConfig {
            reg_cache_capacity: capacity,
            ..MsgConfig::with_protocol(Protocol::Rendezvous)
        };
        let (ns, regs) = measure(cfg, 256 << 10, iters);
        t.row(vec![name.into(), format!("{ns:.0}"), regs.to_string()]);
    }
    t.note(format!("{iters} messages after a warm-up; a registration is a pool miss on either rank"));
    t
}

/// A3: reap one send's two completions by spinning vs by blocking on
/// the condvar, on one thread over raw queue pairs.
fn a3_completion(iters: usize) -> Table {
    let fabric = Fabric::new();
    let (nic_a, nic_b) = (fabric.create_nic(), fabric.create_nic());
    let (pa, pb) = (nic_a.alloc_pd(), nic_b.alloc_pd());
    let (ca, cb) = (CompletionQueue::new(64), CompletionQueue::new(64));
    let qa = nic_a.create_qp(pa, &ca, &ca).expect("qp");
    let qb = nic_b.create_qp(pb, &cb, &cb).expect("qp");
    fabric.connect(&qa, &qb).expect("connect");
    let src = nic_a.register(pa, 64).expect("register");
    let dst = nic_b.register(pb, 64).expect("register");
    let mut t = Table::new(
        "A3",
        "completion reaping, 64 B send: spin vs blocking (this host)",
        &["mode", "ns/op", "wakeups"],
    );
    let second = Duration::from_secs(1);
    // Wake-ups are read outside the clock: each read takes the CQ lock.
    let wakeups = || ca.wakeups() + cb.wakeups();
    for (mode, blocking) in [("spin", false), ("blocking", true)] {
        let before = wakeups();
        let t0 = Instant::now();
        for _ in 0..iters {
            qb.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).expect("post_recv");
            let sges = polaris_nic::sge_list![Sge::whole(&src)];
            qa.post_send(SendWr::Send { wr_id: 2, sges, imm: None }).expect("post_send");
            for cq in [&cb, &ca] {
                let cqe = if blocking { cq.wait_one(second) } else { cq.spin_one(second) };
                cqe.expect("completion");
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        t.row(vec![mode.into(), format!("{ns:.0}"), (wakeups() - before).to_string()]);
    }
    t.note(format!("{iters} sends; a wake-up is a push that found a thread parked"));
    t
}

/// A4: 128 blocks of 64 B strided through a 32 KiB buffer, sent by NIC
/// gather (`isend_layout`) vs packed into a contiguous buffer first.
fn a4_noncontiguous(iters: usize) -> Table {
    let layout = Layout::Strided { offset: 0, count: 128, block_len: 64, stride: 256 };
    let (buf_len, total) = (128 * 256, layout.total_len());
    let mut t = Table::new(
        "A4",
        "noncontiguous send, 128 x 64 B strided: NIC gather vs pack (this host)",
        &["strategy", "ns/msg", "sender-copies/msg"],
    );
    for (name, gather) in [("nic-gather", true), ("pack-then-send", false)] {
        let fabric = Fabric::new();
        let (mut ep0, mut ep1) = world(&fabric, MsgConfig::default());
        let (ns, copies) = per_message(iters, || {
            let src = ep0.alloc(buf_len).expect("alloc");
            let rbuf = ep1.alloc(total).expect("alloc");
            let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).expect("irecv");
            let sreq = if gather {
                ep0.isend_layout(1, 1, src, &layout).expect("gather send")
            } else {
                let mut packed = ep0.alloc(total).expect("alloc");
                packed.fill_from(&layout.pack(src.as_slice()));
                ep0.release(src);
                ep0.isend(1, 1, packed).expect("send")
            };
            complete(&mut ep0, &mut ep1, rreq, sreq);
            ep0.stats().host_copies
        });
        t.row(vec![name.into(), format!("{ns:.0}"), copies.to_string()]);
    }
    t.note(format!("{iters} messages; copies are the sender endpoint's host copies, the pack itself aside"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_shrinks_with_faster_links() {
        let tables = generate();
        let rows = &tables[0].rows;
        // Fast Ethernet's crossover is the largest.
        let parse = |s: &str| -> u64 {
            if let Some(x) = s.strip_suffix("MiB") {
                x.parse::<u64>().unwrap() << 20
            } else if let Some(x) = s.strip_suffix("KiB") {
                x.parse::<u64>().unwrap() << 10
            } else {
                s.strip_suffix('B').unwrap().parse().unwrap()
            }
        };
        let fe = parse(&rows[0][1]);
        let ib = parse(&rows[3][1]);
        assert!(fe > ib, "FastEthernet {fe} vs InfiniBand {ib}");
    }

    /// The counters, not the times: a cached steady state registers
    /// nothing and an uncached one registers both buffers; a one-thread
    /// drive never parks, so blocking never wakes anyone; gather spares
    /// the sender the copy that pack-then-send pays.
    #[test]
    fn ablation_counters() {
        let counters = |t: Table| -> Vec<String> { t.rows.into_iter().map(|r| r[2].clone()).collect() };
        assert_eq!(counters(a1_reg_cache(4)), ["0", "2"]);
        assert_eq!(counters(a3_completion(16)), ["0", "0"]);
        assert_eq!(counters(a4_noncontiguous(4)), ["0", "1"]);
    }
}
