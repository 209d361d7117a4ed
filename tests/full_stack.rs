//! Cross-crate integration tests: the whole stack — runtime, messaging
//! protocols, NIC, collectives — exercised together at moderate scale.

use polaris::prelude::*;
use polaris_collectives::prelude as coll;

#[test]
fn sixteen_ranks_mixed_traffic() {
    // Every rank sends to every other rank (small + large payloads),
    // then the world allreduces a checksum of everything received.
    let (checksums, stats) = Cluster::builder().nodes(16).run(|mut ctx| {
        let rank = ctx.rank();
        let p = ctx.size();
        let ep = ctx.endpoint();
        // Post receives for all peers first (wildcard source, two tags).
        let mut reqs = Vec::new();
        for peer in 0..p {
            if peer == rank {
                continue;
            }
            let small = ep.alloc(64).unwrap();
            reqs.push(ep.irecv(MatchSpec::exact(peer, 1), small).unwrap());
            let large = ep.alloc(64 * 1024).unwrap();
            reqs.push(ep.irecv(MatchSpec::exact(peer, 2), large).unwrap());
        }
        // Send to everyone.
        let mut sends = Vec::new();
        for peer in 0..p {
            if peer == rank {
                continue;
            }
            let mut small = ep.alloc(8).unwrap();
            small.fill_from(&(rank as u64).to_le_bytes());
            sends.push(ep.isend(peer, 1, small).unwrap());
            let mut large = ep.alloc(64 * 1024).unwrap();
            large.as_mut_slice().fill(rank as u8);
            sends.push(ep.isend(peer, 2, large).unwrap());
        }
        // Drain.
        let mut checksum = 0u64;
        for r in reqs {
            let (buf, info) = ep.wait_recv(r).unwrap();
            checksum = checksum.wrapping_add(
                buf.as_slice().iter().map(|&b| b as u64).sum::<u64>() + info.len as u64,
            );
            ep.release(buf);
        }
        for s in sends {
            let buf = ep.wait_send(s).unwrap();
            ep.release(buf);
        }
        ctx.barrier();
        let mut v = vec![checksum];
        ctx.allreduce(ReduceOp::Sum, &mut v);
        v[0]
    });
    // All ranks agree on the global checksum.
    assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    assert!(checksums[0] > 0);
    // Large payloads went rendezvous: substantial DMA traffic, with
    // payload bytes crossing exactly once each.
    let expected_large = 16u64 * 15 * 64 * 1024;
    assert!(stats.dma_bytes >= expected_large);
}

#[test]
fn every_protocol_survives_a_crowd() {
    for proto in [Protocol::Eager, Protocol::Rendezvous, Protocol::Sockets] {
        let cfg = MsgConfig::with_protocol(proto);
        let (sums, _) = Cluster::builder().nodes(8).messaging(cfg).run(move |mut ctx| {
            // Ring traffic with per-hop verification, 20 rounds.
            let rank = ctx.rank();
            let p = ctx.size();
            let next = (rank + 1) % p;
            let prev = (rank + p - 1) % p;
            let mut acc = 0u64;
            for round in 0..20u64 {
                let payload = (rank as u64) << 32 | round;
                let got = ctx.sendrecv(next, &payload.to_le_bytes(), prev, 9, 8);
                let v = u64::from_le_bytes(got.try_into().unwrap());
                assert_eq!(v & 0xffff_ffff, round, "{proto:?} round mismatch");
                assert_eq!(v >> 32, prev as u64, "{proto:?} source mismatch");
                acc = acc.wrapping_add(v);
            }
            acc
        });
        assert_eq!(sums.len(), 8);
    }
}

#[test]
fn collectives_compose_over_the_runtime() {
    let (results, _) = Cluster::builder().nodes(12).run(|mut ctx| {
        let rank = ctx.rank();
        let p = ctx.size();
        // scan -> allgather -> alltoall chained.
        let mut prefix = vec![1u64];
        coll::scan_inclusive(ctx.endpoint(), coll::ReduceOp::Sum, &mut prefix);
        assert_eq!(prefix[0], rank as u64 + 1);

        let mine = [rank as u8; 4];
        let mut all = vec![0u8; 4 * p as usize];
        ctx.allgather(&mine, &mut all);
        for r in 0..p as usize {
            assert!(all[4 * r..4 * r + 4].iter().all(|&b| b == r as u8));
        }

        let send: Vec<u8> = (0..p).flat_map(|d| [rank as u8, d as u8]).collect();
        let mut recv = vec![0u8; 2 * p as usize];
        coll::alltoall_pairwise(ctx.endpoint(), &send, &mut recv, 2);
        for s in 0..p as usize {
            assert_eq!(recv[2 * s], s as u8);
            assert_eq!(recv[2 * s + 1], rank as u8);
        }
        true
    });
    assert!(results.into_iter().all(|x| x));
}

#[test]
fn qp_failure_flushes_cleanly_through_the_stack() {
    use polaris_nic::prelude::*;
    use std::time::Duration;
    // Down at the verbs layer: a QP forced into the error state flushes
    // posted work and subsequent sends, without hanging anything.
    let fabric = Fabric::new();
    let nic_a = fabric.create_nic();
    let nic_b = fabric.create_nic();
    let (pa, pb) = (nic_a.alloc_pd(), nic_b.alloc_pd());
    let (ca, cb) = (CompletionQueue::new(32), CompletionQueue::new(32));
    let qa = nic_a.create_qp(pa, &ca, &ca).unwrap();
    let qb = nic_b.create_qp(pb, &cb, &cb).unwrap();
    fabric.connect(&qa, &qb).unwrap();
    let dst = nic_b.register(pb, 64).unwrap();
    qb.post_recv(RecvWr::new(1, vec![Sge::whole(&dst)])).unwrap();
    // The "node" dies.
    qb.set_error();
    let flushed = cb.wait_one(Duration::from_secs(1)).unwrap();
    assert_eq!(flushed.status, CqeStatus::Flushed);
    // The peer's sends complete (flushed), not hang.
    let src = nic_a.register_from(pa, b"doomed").unwrap();
    qa.post_send(SendWr::Send {
        wr_id: 9,
        sges: polaris_nic::sge_list![Sge::whole(&src)],
        imm: None,
    })
    .unwrap();
    let c = ca.wait_one(Duration::from_secs(1)).unwrap();
    assert_eq!(c.status, CqeStatus::Flushed);
}

#[test]
fn unexpected_flood_is_survivable() {
    // One rank floods another with unexpected messages before any recv
    // is posted; matching must drain them all in order.
    let (ok, _) = Cluster::builder().nodes(2).run(|mut ctx| {
        let n = 200u64;
        if ctx.rank() == 0 {
            for i in 0..n {
                ctx.send(1, 4, &i.to_le_bytes()).unwrap();
            }
            true
        } else {
            // Give the flood time to land unexpected.
            std::thread::sleep(std::time::Duration::from_millis(50));
            for i in 0..n {
                let (v, _) = ctx.recv(0, 4, 8).unwrap();
                assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), i);
            }
            true
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

#[test]
fn srq_world_runs_collectives_and_halo() {
    // The whole stack on a receive pool larger than the default: same
    // results.
    let cfg = MsgConfig {
        srq_bufs: 48,
        ..MsgConfig::default()
    };
    let jacobi = polaris::prelude::JacobiConfig { n: 24, iters: 20 };
    let (serial, serial_res) = polaris::prelude::run_serial(jacobi);
    let (mut out, stats) = Cluster::builder()
        .nodes(9)
        .messaging(cfg)
        .run(move |mut ctx| {
            let mut v = vec![ctx.rank() as u64 + 1];
            ctx.allreduce(ReduceOp::Sum, &mut v);
            assert_eq!(v[0], 45);
            polaris::prelude::run_parallel(&mut ctx, jacobi)
        });
    let (parallel, par_res) = out.remove(0);
    let max_diff = serial
        .iter()
        .zip(&parallel)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(max_diff < 1e-12, "SRQ world diverges: {max_diff}");
    assert!((serial_res - par_res).abs() < 1e-9);
    assert!(stats.dma_bytes > 0);
}

#[test]
fn fabric_stats_are_consistent() {
    let (_, stats) = Cluster::builder().nodes(4).run(|mut ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, &[7u8; 50_000]).unwrap();
        } else if ctx.rank() == 1 {
            ctx.recv(0, 1, 50_000).unwrap();
        }
        ctx.barrier();
    });
    assert!(stats.dma_ops > 0);
    assert!(stats.dma_bytes >= 50_000);
    assert!(stats.registrations > 0);
    assert!(stats.registered_bytes > 0);
}

#[test]
fn send_slots_are_registered_by_the_traffic_not_up_front() {
    use polaris_msg::envelope::HEADER_LEN;
    use polaris_msg::prelude::{Endpoint, MatchSpec, MsgConfig, Protocol};
    use polaris_nic::prelude::Fabric;
    // A fresh world pins its receive pools and nothing else.
    let cfg = MsgConfig::with_protocol(Protocol::Eager);
    let bounce = (cfg.srq_bufs * (cfg.eager_buf_size + HEADER_LEN)) as u64;
    for n in [1u32, 2, 16] {
        let fabric = Fabric::new();
        let _eps = Endpoint::create_world(&fabric, n, cfg).unwrap();
        assert_eq!(fabric.stats().registered_bytes, n as u64 * bounce, "{n} ranks");
    }
    // A 2-rank eager ping-pong has one send in flight at a time, so each
    // rank registers only the slots that traffic needs.
    fn hop(src: &mut Endpoint, dst: &mut Endpoint, i: u64) {
        let rb = dst.alloc(8).unwrap();
        let rreq = dst.irecv(MatchSpec::exact(src.rank(), 1), rb).unwrap();
        let mut sb = src.alloc(8).unwrap();
        sb.fill_from(&i.to_le_bytes());
        let sreq = src.isend(dst.rank(), 1, sb).unwrap();
        let (rb, _) = dst.wait_recv(rreq).unwrap();
        assert_eq!(rb.as_slice(), i.to_le_bytes());
        dst.release(rb);
        let sb = src.wait_send(sreq).unwrap();
        src.release(sb);
    }
    let fabric = Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, 2, cfg).unwrap();
    let (e0, e1) = eps.split_at_mut(1);
    let (ep0, ep1) = (&mut e0[0], &mut e1[0]);
    for i in 0..10_000u64 {
        hop(ep0, ep1, i);
        hop(ep1, ep0, i);
    }
    // Measured: one slot a rank, recycled by every send after the first.
    for ep in [&*ep0, &*ep1] {
        let slots = ep.stats().tx_slots_registered;
        assert!(slots <= 1, "rank {} registered {slots} send slots", ep.rank());
    }
}
