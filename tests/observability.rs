//! Reliability observability: the fault-injection ledgers must
//! reconcile exactly with what the layers above them count.
//!
//! Four checks, each pinning one seam between layers:
//!
//! 1. the simnet `FaultInjector`'s drop ledger vs the F11 figure's
//!    registry counters, across the whole grid;
//! 2. NIC error completions (`FabricStats`) vs injected chaos drops
//!    (`ChaosStats`) under the real messaging stack (reliable delivery
//!    healing 10% uniform loss);
//! 3. NIC error completions vs injected corruptions on raw queue pairs
//!    (each corruption costs exactly two error CQEs: the receiver's
//!    checksum failure and the sender's retry exhaustion);
//! 4. the endpoint's buffer pools: a capacity-1 registration cache
//!    evicts and hits under churn, and reliable eager traffic recycles
//!    wire frames.

use polaris_bench::figures::f11_chaos;
use polaris_msg::prelude::{Endpoint, MatchSpec, MsgConfig, Protocol, Reliability};
use polaris_nic::prelude::*;
use polaris_obs::Obs;
use polaris_simnet::prelude::Generation;
use std::time::{Duration, Instant};

/// Every uniform drop the injector logs is accounted for by exactly one
/// observable outcome: a retransmission, a budget exhaustion, or (raw
/// mode) a silently lost message. The equality is over the entire F11
/// grid, so nothing the figure reports can leak out of the ledger.
#[test]
fn injected_losses_reconcile_with_f11_counters() {
    let obs = Obs::new();
    f11_chaos::generate_with(&obs);
    let reg = &obs.registry;

    let mut expected = 0u64;
    for g in Generation::ALL {
        for loss in f11_chaos::LOSS_RATES {
            let loss_s = format!("{loss}");
            for mode in ["raw", "reliable"] {
                let labels = [("gen", g.name()), ("loss", loss_s.as_str()), ("mode", mode)];
                let delivered = reg.counter_value(f11_chaos::DELIVERED, &labels);
                let retrans = reg.counter_value(f11_chaos::RETRANS, &labels);
                let failed = reg.counter_value(f11_chaos::BUDGET_FAILED, &labels);
                if mode == "raw" {
                    // Raw mode never retries: each drop is one lost message.
                    assert_eq!(retrans, 0, "{labels:?}");
                    expected += f11_chaos::MSGS as u64 - delivered;
                } else {
                    // Reliable mode: every drop either forced a
                    // retransmission or exhausted the budget.
                    expected += retrans + failed;
                }
            }
        }
    }
    let injected = reg.counter_value("sim_faults_total", &[("action", "drop_uniform")]);
    assert!(injected > 0, "the grid must inject faults");
    assert_eq!(
        injected, expected,
        "every injected drop must appear in exactly one counter"
    );
}

/// Reliable delivery over a 10%-loss chaos fabric: the messaging layer
/// heals every loss, and each injected drop surfaces as exactly one
/// NIC error completion (the sender's RetryExceeded).
#[test]
fn error_cqes_match_chaos_drop_ledger_under_reliable_delivery() {
    const N: usize = 150;
    const LEN: usize = 96;
    let cfg = MsgConfig {
        reliability: Reliability::on(),
        ..MsgConfig::with_protocol(Protocol::Eager)
    };
    let fabric = Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, 2, cfg).unwrap();
    fabric.set_chaos(ChaosParams::drop_only(0xB5_0BD5, 0.10));
    let (e0, e1) = eps.split_at_mut(1);
    let (ep0, ep1) = (&mut e0[0], &mut e1[0]);

    let msg = |i: usize| -> Vec<u8> { (0..LEN).map(|j| (i * 31 + j * 7 + 3) as u8).collect() };
    let mut rreqs = Vec::new();
    for _ in 0..N {
        let rb = ep1.alloc(LEN).unwrap();
        rreqs.push(ep1.irecv(MatchSpec::exact(0, 9), rb).unwrap());
    }
    for i in 0..N {
        let mut b = ep0.alloc(LEN).unwrap();
        b.fill_from(&msg(i));
        let sreq = ep0.isend(1, 9, b).unwrap();
        let sb = ep0.wait_send(sreq).unwrap();
        ep0.release(sb);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for (i, req) in rreqs.into_iter().enumerate() {
        loop {
            assert!(Instant::now() < deadline, "delivery stalled at message {i}");
            ep0.progress();
            if let Some((rb, info)) = ep1.test_recv(req).unwrap() {
                assert_eq!(info.len, LEN);
                assert_eq!(rb.as_slice(), &msg(i)[..], "message {i} must arrive intact");
                ep1.release(rb);
                break;
            }
        }
    }

    // Read the ledgers while the endpoints are still alive (teardown
    // flushes queues with error CQEs of its own).
    let drops = fabric.chaos_stats().unwrap().drops;
    let err_cqes = fabric.stats().cqes_err;
    assert!(drops > 0, "10% loss over {N} messages must drop something");
    assert_eq!(
        err_cqes, drops,
        "each injected drop surfaces exactly one RetryExceeded CQE"
    );
    // The messaging layer had to retransmit to heal the losses.
    let retrans: u64 = eps.iter().map(|ep| ep.stats().rel_retransmits).sum();
    assert!(retrans > 0, "healing {drops} drops requires retransmissions");
}

/// Corrupt-only chaos on raw queue pairs: a corrupted delivery costs
/// exactly two error completions — ChecksumError at the receiver,
/// RetryExceeded at the sender — and clean traffic completes ok.
#[test]
fn error_cqes_match_chaos_corruption_ledger_on_raw_qps() {
    const N: usize = 400;
    let fabric = Fabric::new();
    let (na, nb) = (fabric.create_nic(), fabric.create_nic());
    let (pa, pb) = (na.alloc_pd(), nb.alloc_pd());
    let (ca, cb) = (CompletionQueue::new(N * 2), CompletionQueue::new(N * 2));
    let qa = na.create_qp(pa, &ca, &ca).unwrap();
    let qb = nb.create_qp(pb, &cb, &cb).unwrap();
    fabric.connect(&qa, &qb).unwrap();
    fabric.set_chaos(ChaosParams {
        seed: 0xC0_44D5,
        drop_prob: 0.0,
        corrupt_prob: 0.15,
    });

    let src = na.register_from(pa, &[0xABu8; 64]).unwrap();
    let mut recv_mrs = Vec::new();
    for i in 0..N {
        let dst = nb.register(pb, 64).unwrap();
        qb.post_recv(RecvWr::new(i as u64, vec![Sge::whole(&dst)]))
            .unwrap();
        recv_mrs.push(dst);
    }
    for i in 0..N {
        qa.post_send(SendWr::Send {
            wr_id: (N + i) as u64,
            sges: polaris_nic::sge_list![Sge::whole(&src)],
            imm: None,
        })
        .unwrap();
    }

    let mut send_err = 0u64;
    let mut recv_err = 0u64;
    let mut ok = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = 0usize;
    while seen < 2 * N {
        assert!(Instant::now() < deadline, "stalled after {seen} CQEs");
        for cqe in ca.poll(64).unwrap().into_iter().chain(cb.poll(64).unwrap()) {
            seen += 1;
            match cqe.status {
                CqeStatus::Success => ok += 1,
                CqeStatus::RetryExceeded => send_err += 1,
                CqeStatus::ChecksumError => recv_err += 1,
                other => panic!("unexpected CQE status {other:?}"),
            }
        }
    }

    let corruptions = fabric.chaos_stats().unwrap().corruptions;
    let stats = fabric.stats();
    let (err_cqes, ok_cqes) = (stats.cqes_err, stats.cqes_ok);
    assert!(corruptions > 0, "15% corruption over {N} sends must fire");
    assert_eq!(send_err, corruptions, "one RetryExceeded per corruption");
    assert_eq!(recv_err, corruptions, "one ChecksumError per corruption");
    assert_eq!(
        err_cqes,
        2 * corruptions,
        "each corruption costs exactly two error CQEs"
    );
    assert_eq!(ok, ok_cqes, "polled and counted ok CQEs must agree");
    assert_eq!(ok_cqes, 2 * (N as u64 - corruptions));
    assert_eq!(stats.wqes, ok_cqes + err_cqes, "every posted WQE completed once");
}

/// The endpoint's two buffer pools do their jobs: a capacity-1
/// registration cache under churn both evicts and hits, and reliable
/// eager traffic recycles wire frames.
#[test]
fn pool_caches_evict_hit_and_recycle_frames() {
    let cfg = MsgConfig {
        reliability: Reliability::on(), // reliable eager drives the frame pool
        reg_cache_capacity: 1,          // force evictions under churn
        ..MsgConfig::with_protocol(Protocol::Eager)
    };
    let fabric = Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, 2, cfg).unwrap();
    let base_pool = eps[0].pool_stats();
    let (e0, e1) = eps.split_at_mut(1);
    let (ep0, ep1) = (&mut e0[0], &mut e1[0]);

    // Registration-cache churn: hold two buffers of one size class with
    // a capacity-1 cache, so frees alternate between caching and
    // evicting and allocs alternate between hits and misses.
    for _ in 0..8 {
        let a = ep0.alloc(256).unwrap();
        let b = ep0.alloc(256).unwrap();
        ep0.release(a);
        ep0.release(b);
    }
    // Frame-pool churn: reliable eager traffic builds, retransmits, and
    // recycles wire frames on both sides.
    for i in 0..32u8 {
        let mut sb = ep0.alloc(64).unwrap();
        sb.fill_from(&[i; 64]);
        let rb = ep1.alloc(64).unwrap();
        let rreq = ep1.irecv(MatchSpec::exact(0, 4), rb).unwrap();
        let sreq = ep0.isend(1, 4, sb).unwrap();
        let sb = ep0.wait_send(sreq).unwrap();
        ep0.release(sb);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "delivery stalled at message {i}");
            ep0.progress();
            if let Some((rb, _)) = ep1.test_recv(rreq).unwrap() {
                ep1.release(rb);
                break;
            }
        }
    }

    let pool = ep0.pool_stats();
    assert!(pool.evictions > base_pool.evictions, "capacity-1 cache under churn must evict");
    assert!(pool.hits > base_pool.hits, "churn must hit the cache");
    let frame_hits: u64 = eps.iter().map(|ep| ep.frame_pool_stats().hits).sum();
    assert!(frame_hits > 0, "steady-state eager traffic must recycle frames");
}
