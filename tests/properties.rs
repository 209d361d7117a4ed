//! Property-based tests over the stack's core invariants.

use polaris::prelude::*;
use polaris_collectives::op::{from_bytes, to_bytes};
use polaris_msg::datatype::Layout;
use polaris_msg::envelope::Envelope;
use polaris_msg::match_engine::{MatchEngine, MatchSpec};
use polaris_rms::prelude::*;
use polaris_simnet::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Envelope encoding
// ---------------------------------------------------------------------

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(src, tag, len)| Envelope::Eager { src, tag, len }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(src, tag, len, msg_id, rkey)| Envelope::Rts {
                src,
                tag,
                len,
                msg_id,
                rkey
            }
        ),
        any::<u64>().prop_map(|msg_id| Envelope::Fin { msg_id }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(src, tag, msg_id, total, offset, len)| Envelope::SockSeg {
                src,
                tag,
                msg_id,
                total,
                offset,
                len
            }),
    ]
}

proptest! {
    #[test]
    fn envelope_roundtrips(env in arb_envelope()) {
        let wire = env.encode();
        prop_assert_eq!(Envelope::decode(&wire), Some(env));
    }

    #[test]
    fn elem_bytes_roundtrip(xs in proptest::collection::vec(any::<u64>(), 0..64),
                            fs in proptest::collection::vec(any::<f64>(), 0..64)) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&xs)), xs);
        let back = from_bytes::<f64>(&to_bytes(&fs));
        prop_assert_eq!(back.len(), fs.len());
        for (a, b) in fs.iter().zip(&back) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
    }
}

// ---------------------------------------------------------------------
// Matching engine: no message lost, FIFO per (src, tag)
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn matching_loses_nothing(
        events in proptest::collection::vec(
            prop_oneof![
                // Arrival: (src in 0..3, tag in 0..3, payload)
                (0u32..3, 0u64..3, any::<u16>()).prop_map(|(s, t, p)| (true, s, t, p)),
                // Recv post: src/tag options (3 = wildcard)
                (0u32..4, 0u64..4).prop_map(|(s, t)| (false, s, t, 0u16)),
            ],
            0..60,
        )
    ) {
        let mut eng: MatchEngine<u64, u16> = MatchEngine::new();
        let mut arrivals = 0u64;
        let mut matched = 0u64;
        let mut pending_recvs = 0u64;
        let mut next_req = 0u64;
        for (is_arrival, s, t, payload) in events {
            if is_arrival {
                arrivals += 1;
                if eng.arrive(s, t).is_some() {
                    matched += 1;
                    pending_recvs -= 1;
                } else {
                    eng.park(s, t, payload);
                }
            } else {
                let spec = MatchSpec {
                    src: if s == 3 { None } else { Some(s) },
                    tag: if t == 3 { None } else { Some(t) },
                };
                next_req += 1;
                if eng.post_recv(spec, next_req).is_some() {
                    matched += 1;
                } else {
                    pending_recvs += 1;
                }
            }
        }
        // Conservation: every arrival is matched or parked.
        prop_assert_eq!(arrivals, matched + eng.unexpected_len() as u64);
        prop_assert_eq!(pending_recvs, eng.posted_len() as u64);
    }

    #[test]
    fn matching_is_fifo_per_channel(n in 1usize..30) {
        let mut eng: MatchEngine<u64, usize> = MatchEngine::new();
        for i in 0..n {
            eng.park(1, 1, i);
        }
        for i in 0..n {
            let got = eng.post_recv(MatchSpec::exact(1, 1), i as u64).unwrap();
            prop_assert_eq!(got.payload, i);
        }
    }
}

// ---------------------------------------------------------------------
// Datatype layouts
// ---------------------------------------------------------------------

fn arb_layout() -> impl Strategy<Value = (Layout, usize)> {
    prop_oneof![
        (0usize..200).prop_map(|len| (Layout::Contiguous { len }, 256usize)),
        (0usize..8, 1usize..9, 0usize..16).prop_map(|(count, block, gap)| {
            let stride = block + gap;
            (
                Layout::Strided {
                    offset: 0,
                    count,
                    block_len: block,
                    stride,
                },
                count * stride + block + 1,
            )
        }),
    ]
}

proptest! {
    #[test]
    fn layout_pack_unpack_roundtrip((layout, buf_len) in arb_layout(),
                                    seed in any::<u64>()) {
        prop_assume!(layout.validate(buf_len).is_ok());
        let src: Vec<u8> = (0..buf_len).map(|i| (i as u64 ^ seed) as u8).collect();
        let packed = layout.pack(&src);
        prop_assert_eq!(packed.len(), layout.total_len());
        let mut dst = vec![0u8; buf_len];
        layout.unpack(&packed, &mut dst);
        for (off, len) in layout.blocks() {
            prop_assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
    }
}

// ---------------------------------------------------------------------
// Topology routing
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn routes_terminate_and_connect(kind_sel in 0u8..5, a in 0u32..64, b in 0u32..64) {
        let topo = match kind_sel {
            0 => Topology::new(TopologyKind::Crossbar { hosts: 64 }),
            1 => Topology::new(TopologyKind::Ring { hosts: 64 }),
            2 => Topology::new(TopologyKind::Torus2D { w: 8, h: 8 }),
            3 => Topology::new(TopologyKind::Torus3D { x: 4, y: 4, z: 4 }),
            _ => Topology::new(TopologyKind::FatTree { k: 8 }), // 128 hosts
        };
        let n = topo.hosts();
        let (a, b) = (a % n, b % n);
        let route = topo.route(a, b);
        prop_assert!(route.len() as u32 <= topo.diameter());
        if a != b {
            let (from, _) = topo.link_endpoints(route[0]);
            let (_, to) = topo.link_endpoints(*route.last().unwrap());
            prop_assert_eq!(from, Vertex::Host(a));
            prop_assert_eq!(to, Vertex::Host(b));
        } else {
            prop_assert!(route.is_empty());
        }
    }

    #[test]
    fn network_transfers_are_causal(sizes in proptest::collection::vec(1u64..100_000, 1..20)) {
        let mut net = Network::new(
            Topology::new(TopologyKind::Ring { hosts: 8 }),
            Generation::GigabitEthernet.link_model(),
        );
        let mut t = SimTime::ZERO;
        for (i, bytes) in sizes.iter().enumerate() {
            let src = (i % 8) as u32;
            let dst = ((i + 3) % 8) as u32;
            let d = net.transfer(t, src, dst, *bytes);
            // Arrival is strictly after departure and at least the
            // uncontended time.
            prop_assert!(d.arrival >= t + net.nominal_time(src, dst, *bytes));
            t += SimDuration::from_ns(100);
        }
    }
}

// ---------------------------------------------------------------------
// Collectives: random inputs match a sequential reference
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn allreduce_matches_reference(
        p in 2u32..6,
        n in 1usize..24,
        seed in any::<u64>(),
        algo_sel in 0u8..3,
    ) {
        use polaris_collectives::prelude::*;
        let inputs: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                (0..n)
                    .map(|i| (seed ^ (r as u64) << 32 ^ i as u64).wrapping_mul(0x9e37_79b9))
                    .collect()
            })
            .collect();
        let mut expect = vec![0u64; n];
        for row in &inputs {
            for (e, v) in expect.iter_mut().zip(row) {
                *e = e.wrapping_add(*v);
            }
        }
        let algo = match algo_sel {
            0 => AllreduceAlgo::RecursiveDoubling,
            1 => AllreduceAlgo::Ring,
            _ => AllreduceAlgo::ReduceBcast,
        };
        let inputs2 = inputs.clone();
        let (out, _) = Cluster::builder().nodes(p).run(move |mut ctx| {
            let mut data = inputs2[ctx.rank() as usize].clone();
            allreduce_with(ctx.endpoint(), algo, ReduceOp::Sum, &mut data);
            data
        });
        for d in out {
            prop_assert_eq!(&d, &expect);
        }
    }
}

// ---------------------------------------------------------------------
// Simulated collectives: determinism and message-count laws
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn simulated_collectives_deterministic_and_lawful(
        p_sel in 0u8..4,
        bytes in 0u64..100_000,
    ) {
        use polaris_collectives::prelude::*;
        let p = [2u32, 5, 8, 16][p_sel as usize];
        let mk = || Network::new(
            Topology::new(TopologyKind::Crossbar { hosts: p }),
            Generation::Myrinet2000.link_model(),
        );
        for coll in [
            Collective::Barrier(BarrierAlgo::Dissemination),
            Collective::Allreduce(AllreduceAlgo::Ring),
            Collective::Allgather(AllgatherAlgo::Bruck),
            Collective::AlltoallPairwise,
        ] {
            let a = simulate_collective(&mut mk(), coll, bytes, ExecParams::default());
            let b = simulate_collective(&mut mk(), coll, bytes, ExecParams::default());
            prop_assert_eq!(a.completion, b.completion);
            prop_assert_eq!(a.messages, b.messages);
            // Message-count laws.
            match coll {
                Collective::AlltoallPairwise => {
                    prop_assert_eq!(a.messages, (p as u64) * (p as u64 - 1));
                }
                Collective::Barrier(BarrierAlgo::Dissemination) => {
                    let rounds = (32 - (p - 1).leading_zeros()) as u64;
                    prop_assert_eq!(a.messages, p as u64 * rounds);
                }
                _ => prop_assert!(a.messages > 0),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Timeline (conservative backfill substrate)
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn timeline_earliest_fit_is_sound(
        releases in proptest::collection::vec((0.0f64..1000.0, 1u32..8), 0..12),
        commits in proptest::collection::vec((0.0f64..1000.0, 1.0f64..200.0, 1u32..4), 0..6),
        width in 1u32..8,
        duration in 1.0f64..300.0,
    ) {
        let mut tl = Timeline::new(0.0, 8);
        for (t, w) in releases {
            tl.release_at(t, w);
        }
        for (t, d, w) in commits {
            tl.commit(t, d, w);
        }
        let start = tl.earliest_fit(width, duration);
        if start.is_finite() {
            // Soundness: availability covers the whole window.
            prop_assert!(tl.avail_at(start) >= width as i64);
            for i in 0..50 {
                let t = start + duration * i as f64 / 50.0;
                if t < start + duration {
                    prop_assert!(
                        tl.avail_at(t) >= width as i64,
                        "dip at {t}: {}",
                        tl.avail_at(t)
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint / recovery edge cases
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // Accounting sandwich for the Monte-Carlo checkpoint run: wall time
    // is exactly work + checkpoint overhead + restart costs + lost
    // partial segments, each of which is smaller than one segment
    // attempt — a failure after the last checkpoint loses only the
    // tail. Successful checkpoints always number ceil(work/tau).
    #[test]
    fn checkpoint_mc_accounting_sandwich(
        tau in 50.0f64..5000.0,
        work in 100.0f64..20_000.0,
        mtbf in 2_000.0f64..50_000.0,
        seed in any::<u64>(),
    ) {
        let p = CheckpointParams {
            checkpoint_cost: 30.0,
            restart_cost: 90.0,
            system_mtbf: mtbf,
        };
        let r = simulate_checkpointing(&p, work, tau, seed);
        prop_assert_eq!(r.checkpoints, (work / tau).ceil() as u64);
        let lost = r.wall
            - work
            - r.checkpoints as f64 * p.checkpoint_cost
            - r.failures as f64 * p.restart_cost;
        prop_assert!(lost >= -1e-6, "negative lost work: {lost}");
        prop_assert!(
            lost <= r.failures as f64 * (tau.min(work) + p.checkpoint_cost) + 1e-6,
            "failure lost more than one segment attempt: {lost} over {} failures",
            r.failures
        );
    }
}

/// Zero failure rate: both recovery policies finish in nominal time
/// (plus checkpoint overhead for the checkpointing one) and report
/// zero failures.
#[test]
fn recovery_zero_failure_rate_is_overhead_only() {
    let never = FailureModel { node_mtbf: 1e18 };
    let ckpt = CheckpointParams {
        checkpoint_cost: 60.0,
        restart_cost: 120.0,
        system_mtbf: 1e18,
    };
    let scratch = run_job(&never, &ckpt, RecoveryPolicy::RestartFromScratch, 512, 7_200.0, 3);
    assert_eq!(scratch.failures, 0);
    assert!((scratch.wall - 7_200.0).abs() < 1e-9);
    let ck = run_job(
        &never,
        &ckpt,
        RecoveryPolicy::CheckpointRestart { interval_s: 600 },
        512,
        7_200.0,
        3,
    );
    assert_eq!(ck.failures, 0);
    // 12 checkpoints of 60s on 7200s of work.
    assert!((ck.wall - 7_200.0 - 12.0 * 60.0).abs() < 1e-9);
}

/// Checkpoint interval longer than the job: exactly one checkpoint is
/// taken (the end-of-job one), and without failures the wall time is
/// work + one checkpoint cost.
#[test]
fn checkpoint_interval_longer_than_job_degenerates_to_one_segment() {
    let p = CheckpointParams {
        checkpoint_cost: 45.0,
        restart_cost: 120.0,
        system_mtbf: 1e18,
    };
    let r = simulate_checkpointing(&p, 500.0, 1_000_000.0, 9);
    assert_eq!(r.checkpoints, 1);
    assert_eq!(r.failures, 0);
    assert!((r.wall - 545.0).abs() < 1e-9);
    // The recovery-policy wrapper agrees.
    let never = FailureModel { node_mtbf: 1e18 };
    let out = run_job(
        &never,
        &p,
        RecoveryPolicy::CheckpointRestart { interval_s: 1_000_000 },
        16,
        500.0,
        9,
    );
    assert_eq!(out.failures, 0);
    assert!((out.wall - 545.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------
// RMS invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn schedulers_conserve_jobs_and_capacity(seed in any::<u64>(), nodes in 8u32..64) {
        let cfg = WorkloadConfig {
            max_width_log2: 3, // widths <= 8 <= nodes
            mean_interarrival: 200.0,
        };
        let jobs = generate(&cfg, 150, seed);
        for policy in [
            Policy::Fcfs,
            Policy::EasyBackfill,
            Policy::ConservativeBackfill,
        ] {
            let out = simulate(nodes, policy, &jobs);
            prop_assert_eq!(out.len(), jobs.len());
            // Capacity: reconstruct usage over time.
            let mut ev: Vec<(f64, i64)> = Vec::new();
            for o in &out {
                prop_assert!(o.start >= o.arrival);
                prop_assert!((o.finish - o.start - o.runtime).abs() < 1e-9);
                ev.push((o.start, o.width as i64));
                ev.push((o.finish, -(o.width as i64)));
            }
            ev.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            let mut used = 0i64;
            for (_, d) in ev {
                used += d;
                prop_assert!(used <= nodes as i64);
            }
        }
    }

    #[test]
    fn checkpoint_accounting_conserves_time(
        tau in 60.0f64..7200.0,
        mtbf_h in 1.0f64..100.0,
        seed in any::<u64>(),
    ) {
        let params = CheckpointParams {
            checkpoint_cost: 60.0,
            restart_cost: 120.0,
            system_mtbf: mtbf_h * 3600.0,
        };
        let work = 50_000.0;
        let r = simulate_checkpointing(&params, work, tau, seed);
        // Wall time covers the work plus all checkpoint overhead.
        prop_assert!(r.wall >= work + r.checkpoints as f64 * params.checkpoint_cost - 1e-6);
        prop_assert!(r.useful == work);
        prop_assert!(r.waste_fraction() >= 0.0 && r.waste_fraction() < 1.0);
        // Deterministic.
        prop_assert_eq!(r, simulate_checkpointing(&params, work, tau, seed));
    }
}
