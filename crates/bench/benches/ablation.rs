//! Criterion ablations:
//!
//! * A1 — registration cache on/off on the rendezvous path.
//! * A3 — polling vs blocking completion reaping.
//! * A4 — NIC gather vs pack-then-send for a noncontiguous layout.

use criterion::{criterion_group, criterion_main, Criterion};
use polaris_msg::prelude::*;
use polaris_nic::prelude::*;
use std::hint::black_box;
use std::time::Duration;

/// A1: send a 256 KiB rendezvous message using a *fresh* buffer each
/// iteration. With the cache, alloc hits a pooled registration; without
/// it, every iteration registers and deregisters.
fn bench_reg_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1-reg-cache");
    for (cache, name) in [(64usize, "cached"), (0, "uncached")] {
        let mut cfg = MsgConfig::with_protocol(Protocol::Rendezvous);
        cfg.reg_cache_capacity = cache;
        let fabric = Fabric::new();
        let mut eps = Endpoint::create_world(&fabric, 2, cfg).expect("world");
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let bytes = 256 * 1024;
        group.bench_function(name, |b| {
            b.iter(|| {
                let rbuf = ep1.alloc(bytes).expect("alloc");
                let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).expect("irecv");
                let sbuf = ep0.alloc(bytes).expect("alloc");
                let sreq = ep0.isend(1, 1, sbuf).expect("isend");
                let (rbuf, _) = loop {
                    ep0.progress();
                    if let Some(done) = ep1.test_recv(rreq).expect("recv") {
                        break done;
                    }
                };
                let sbuf = ep0.wait_send(sreq).expect("send");
                ep0.release(sbuf);
                ep1.release(rbuf);
            })
        });
    }
    group.finish();
}

/// A3: reap one completion by spinning vs by blocking on the condvar.
/// Spin wins latency; blocking frees the core (its cost is the wakeup).
fn bench_cq_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3-completion-mode");
    let fabric = Fabric::new();
    let nic_a = fabric.create_nic();
    let nic_b = fabric.create_nic();
    let (pa, pb) = (nic_a.alloc_pd(), nic_b.alloc_pd());
    let (ca, cb) = (CompletionQueue::new(64), CompletionQueue::new(64));
    let qa = nic_a.create_qp(pa, &ca, &ca).unwrap();
    let qb = nic_b.create_qp(pb, &cb, &cb).unwrap();
    fabric.connect(&qa, &qb).unwrap();
    let src = nic_a.register(pa, 64).unwrap();
    let dst = nic_b.register(pb, 64).unwrap();

    group.bench_function("spin", |b| {
        b.iter(|| {
            qb.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
            qa.post_send(SendWr::Send {
                wr_id: 2,
                sges: polaris_nic::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
            black_box(cb.spin_one(Duration::from_secs(1)).unwrap());
            black_box(ca.spin_one(Duration::from_secs(1)).unwrap());
        })
    });
    group.bench_function("blocking", |b| {
        b.iter(|| {
            qb.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
            qa.post_send(SendWr::Send {
                wr_id: 2,
                sges: polaris_nic::sge_list![Sge::whole(&src)],
                imm: None,
            })
            .unwrap();
            black_box(cb.wait_one(Duration::from_secs(1)).unwrap());
            black_box(ca.wait_one(Duration::from_secs(1)).unwrap());
        })
    });
    group.finish();
}

/// A4: noncontiguous send strategies — NIC gather (`isend_layout`, zero
/// sender copies) vs pack-then-eager (one pack copy + the bounce copy).
fn bench_layout_strategies(c: &mut Criterion) {
    use polaris_msg::datatype::Layout;
    let mut group = c.benchmark_group("a4-noncontiguous");
    let fabric = Fabric::new();
    let mut eps =
        Endpoint::create_world(&fabric, 2, MsgConfig::default()).expect("world");
    let mut ep1 = eps.pop().unwrap();
    let mut ep0 = eps.pop().unwrap();
    // 128 blocks of 64 bytes strided through a 32 KiB buffer: 8 KiB of
    // payload, a classic matrix-column shape.
    let layout = Layout::Strided {
        offset: 0,
        count: 128,
        block_len: 64,
        stride: 256,
    };
    let buf_len = 128 * 256;
    let total = layout.total_len();

    group.bench_function("nic-gather", |b| {
        b.iter(|| {
            let src = ep0.alloc(buf_len).expect("alloc");
            let rreq = {
                let rbuf = ep1.alloc(total).expect("alloc");
                ep1.irecv(MatchSpec::exact(0, 1), rbuf).expect("irecv")
            };
            let sreq = ep0.isend_layout(1, 1, src, &layout).expect("gather send");
            let (rbuf, _) = loop {
                ep0.progress();
                if let Some(done) = ep1.test_recv(rreq).expect("recv") {
                    break done;
                }
            };
            let sbuf = ep0.wait_send(sreq).expect("send");
            ep0.release(sbuf);
            ep1.release(rbuf);
        })
    });
    group.bench_function("pack-then-send", |b| {
        b.iter(|| {
            let src = ep0.alloc(buf_len).expect("alloc");
            let rreq = {
                let rbuf = ep1.alloc(total).expect("alloc");
                ep1.irecv(MatchSpec::exact(0, 1), rbuf).expect("irecv")
            };
            // Explicit pack into a contiguous buffer, then plain send.
            let packed = layout.pack(src.as_slice());
            let mut pbuf = ep0.alloc(total).expect("alloc");
            pbuf.fill_from(&packed);
            let sreq = ep0.isend(1, 1, pbuf).expect("send");
            let (rbuf, _) = loop {
                ep0.progress();
                if let Some(done) = ep1.test_recv(rreq).expect("recv") {
                    break done;
                }
            };
            let sbuf = ep0.wait_send(sreq).expect("send");
            ep0.release(sbuf);
            ep0.release(src);
            ep1.release(rbuf);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reg_cache,
    bench_cq_modes,
    bench_layout_strategies
);
criterion_main!(benches);
