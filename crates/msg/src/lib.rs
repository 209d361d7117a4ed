//! # polaris-msg
//!
//! Polaris's primary contribution: a **user-level zero-copy messaging
//! library** over the virtual RDMA NIC — the "supporting software" layer
//! the CLUSTER 2002 keynote says will define commodity clusters beyond
//! Moore's law, built the way the post-2002 interconnect generation
//! (VIA → InfiniBand) made possible: protocol processing in user space,
//! data moved by the NIC directly between registered application buffers.
//!
//! Three interchangeable protocols (see [`config::Protocol`]) let the
//! benchmarks reproduce the classic comparison:
//!
//! | protocol   | host copies | per-message cost        | best for   |
//! |------------|-------------|--------------------------|------------|
//! | sockets    | 4           | syscalls + per-MTU work  | (baseline) |
//! | eager      | 2           | one envelope             | small msgs |
//! | rendezvous | **0**       | handshake (RTS/FIN)      | large msgs |
//!
//! ```
//! use polaris_msg::prelude::*;
//! use polaris_nic::prelude::Fabric;
//!
//! let fabric = Fabric::new();
//! let mut eps = Endpoint::create_world(&fabric, 2, MsgConfig::default()).unwrap();
//! let mut ep1 = eps.pop().unwrap();
//! let mut ep0 = eps.pop().unwrap();
//!
//! let mut buf = ep0.alloc(5).unwrap();
//! buf.fill_from(b"hello");
//! let req = ep0.isend(1, 7, buf).unwrap();
//!
//! let rbuf = ep1.alloc(64).unwrap();
//! let (rbuf, info) = ep1.recv(MatchSpec::exact(0, 7), rbuf).unwrap();
//! assert_eq!(&rbuf.as_slice()[..info.len], b"hello");
//!
//! let buf = ep0.wait_send(req).unwrap();
//! ep0.release(buf);
//! ```

pub mod buffer;
pub mod config;
pub mod datatype;
pub mod endpoint;
pub mod envelope;
pub mod match_engine;
pub mod model;

pub mod prelude {
    pub use crate::buffer::{BufferPool, FramePool, FramePoolStats, MsgBuf, PoolStats};
    pub use crate::config::{MsgConfig, Protocol, Reliability};
    pub use crate::datatype::Layout;
    pub use crate::endpoint::{Endpoint, EndpointStats, MsgError, MsgResult, RecvInfo, ReqId};
    pub use crate::match_engine::MatchSpec;
}

#[cfg(test)]
mod tests {
    use crate::buffer::MsgBuf;
    use crate::config::{MsgConfig, Protocol, Reliability};
    use crate::endpoint::{Endpoint, EndpointStats, MsgError, RecvInfo, ReqId};
    use crate::match_engine::MatchSpec;
    use polaris_nic::prelude::{ChaosParams, Fabric};

    /// Two endpoints driven from one thread: the virtual NIC executes
    /// transfers synchronously, so this is fully deterministic.
    fn world(n: u32, cfg: MsgConfig) -> (Fabric, Vec<Endpoint>) {
        let fabric = Fabric::new();
        let eps = Endpoint::create_world(&fabric, n, cfg).unwrap();
        (fabric, eps)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Interleave progress on both endpoints, from one thread, until the
    /// send `sreq` on `ep0` and the receive `rreq` on `ep1` are done.
    fn drive(
        ep0: &mut Endpoint,
        ep1: &mut Endpoint,
        sreq: ReqId,
        rreq: ReqId,
    ) -> (MsgBuf, MsgBuf, RecvInfo) {
        let mut sdone = None;
        let mut rdone = None;
        for _ in 0..10_000 {
            if sdone.is_none() {
                sdone = ep0.test_send(sreq).unwrap();
            }
            if rdone.is_none() {
                rdone = ep1.test_recv(rreq).unwrap();
            }
            if sdone.is_some() && rdone.is_some() {
                break;
            }
        }
        let (rbuf, info) = rdone.expect("recv completed");
        (sdone.expect("send completed"), rbuf, info)
    }

    /// Single-threaded roundtrip of one `len`-byte message, which the
    /// receiver must count once.
    fn roundtrip_with(cfg: MsgConfig, len: usize) {
        let (_fabric, mut eps) = world(2, cfg);
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let data = payload(len);
        let mut buf = ep0.alloc(len).unwrap();
        buf.fill_from(&data);
        let sreq = ep0.isend(1, 42, buf).unwrap();
        let rbuf = ep1.alloc(len.max(1)).unwrap();
        let rreq = ep1.irecv(MatchSpec::exact(0, 42), rbuf).unwrap();
        let (sbuf, rbuf, info) = drive(ep0, ep1, sreq, rreq);
        assert_eq!(info.src, 0);
        assert_eq!(info.tag, 42);
        assert_eq!(info.len, len);
        assert_eq!(rbuf.as_slice(), &data[..]);
        assert_eq!(ep1.stats().msgs_received, 1, "{:?}, {len} bytes", cfg.protocol);
        assert_eq!(ep1.stats().bytes_received, len as u64);
        ep0.release(sbuf);
        ep1.release(rbuf);
    }

    #[test]
    fn eager_roundtrip_various_sizes() {
        for len in [0, 1, 7, 100, 4096, 16 * 1024 - 1] {
            roundtrip_with(MsgConfig::with_protocol(Protocol::Eager), len);
        }
    }

    #[test]
    fn rendezvous_read_roundtrip_various_sizes() {
        let cfg = MsgConfig::with_protocol(Protocol::Rendezvous);
        for len in [0, 1, 100, 64 * 1024, 1 << 20] {
            roundtrip_with(cfg, len);
        }
    }

    #[test]
    fn sockets_roundtrip_various_sizes() {
        let cfg = MsgConfig::with_protocol(Protocol::Sockets);
        for len in [0, 1, 1499, 1500, 1501, 100_000] {
            roundtrip_with(cfg, len);
        }
    }

    #[test]
    fn auto_switches_protocol_at_threshold() {
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let small = ep0.alloc(100).unwrap();
        let r1 = ep0.isend(1, 1, small).unwrap();
        let big = ep0.alloc(1 << 20).unwrap();
        let r2 = ep0.isend(1, 2, big).unwrap();
        assert_eq!(ep0.stats().eager_sends, 1);
        assert_eq!(ep0.stats().rendezvous_sends, 1);
        for (tag, len) in [(1u64, 100usize), (2, 1 << 20)] {
            let rb = ep1.alloc(len).unwrap();
            let (rb, info) = ep1.recv(MatchSpec::exact(0, tag), rb).unwrap();
            assert_eq!(info.len, len);
            ep1.release(rb);
        }
        let b1 = ep0.wait_send(r1).unwrap();
        ep0.release(b1);
        let b2 = ep0.wait_send(r2).unwrap();
        ep0.release(b2);
    }

    #[test]
    fn rendezvous_is_zero_copy_and_eager_is_not() {
        // The central claim of the paper-hint: verify copy counts.
        let len = 256 * 1024;
        // Rendezvous: zero host copies, payload DMA'd exactly once.
        let (fabric, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Rendezvous));
        {
            let (e1, rest) = eps.split_at_mut(1);
            let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
            let rbuf = ep1.alloc(len).unwrap();
            let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).unwrap();
            let mut sbuf = ep0.alloc(len).unwrap();
            sbuf.fill_from(&payload(len));
            let before_copies = ep0.stats().host_copies + ep1.stats().host_copies;
            let dma_before = fabric.stats().dma_bytes;
            let sreq = ep0.isend(1, 1, sbuf).unwrap();
            let (rbuf, _) = ep1.wait_recv(rreq).unwrap();
            ep0.wait_send(sreq).unwrap();
            let copies = ep0.stats().host_copies + ep1.stats().host_copies - before_copies;
            assert_eq!(copies, 0, "rendezvous must not copy on the host");
            // Payload crossed the fabric exactly once (controls are
            // header-only and move 64-byte envelopes).
            let dma = fabric.stats().dma_bytes - dma_before;
            assert!(
                dma >= len as u64 && dma < len as u64 + 1024,
                "dma bytes = {dma}"
            );
            ep1.release(rbuf);
        }
        // Eager: exactly two host copies of the payload.
        let (_fabric, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Eager));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let len = 8 * 1024;
        let rbuf = ep1.alloc(len).unwrap();
        let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).unwrap();
        let mut sbuf = ep0.alloc(len).unwrap();
        sbuf.fill_from(&payload(len));
        let sreq = ep0.isend(1, 1, sbuf).unwrap();
        ep1.wait_recv(rreq).unwrap();
        ep0.wait_send(sreq).unwrap();
        let copies = ep0.stats().host_copies + ep1.stats().host_copies;
        assert_eq!(copies, 2, "eager copies once per side");
        // Sockets: four host copies.
        let (_fabric, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Sockets));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let rbuf = ep1.alloc(len).unwrap();
        let rreq = ep1.irecv(MatchSpec::exact(0, 1), rbuf).unwrap();
        let mut sbuf = ep0.alloc(len).unwrap();
        sbuf.fill_from(&payload(len));
        let sreq = ep0.isend(1, 1, sbuf).unwrap();
        ep1.wait_recv(rreq).unwrap();
        ep0.wait_send(sreq).unwrap();
        let copy_bytes = ep0.stats().host_copy_bytes + ep1.stats().host_copy_bytes;
        assert_eq!(copy_bytes, 4 * len as u64, "sockets copies twice per side");
    }

    #[test]
    fn unexpected_messages_match_later_recvs() {
        for proto in [Protocol::Eager, Protocol::Rendezvous, Protocol::Sockets] {
            let (_f, mut eps) = world(2, MsgConfig::with_protocol(proto));
            let (e1, rest) = eps.split_at_mut(1);
            let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
            let len = 8 * 1024;
            let data = payload(len);
            let mut sbuf = ep0.alloc(len).unwrap();
            sbuf.fill_from(&data);
            let sreq = ep0.isend(1, 5, sbuf).unwrap();
            // Let the message arrive before any receive is posted.
            ep1.progress();
            let rbuf = ep1.alloc(len).unwrap();
            let (rbuf, info) = ep1.recv(MatchSpec::exact(0, 5), rbuf).unwrap();
            assert_eq!(info.len, len, "protocol {proto:?}");
            assert_eq!(rbuf.as_slice(), &data[..]);
            ep0.wait_send(sreq).unwrap();
            assert!(ep1.stats().unexpected_arrivals >= 1);
        }
    }

    #[test]
    fn unexpected_rendezvous_stays_zero_copy() {
        let (_f, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Rendezvous));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let len = 128 * 1024;
        let mut sbuf = ep0.alloc(len).unwrap();
        sbuf.fill_from(&payload(len));
        let sreq = ep0.isend(1, 5, sbuf).unwrap();
        ep1.progress(); // RTS parks; no data moves
        let rbuf = ep1.alloc(len).unwrap();
        let (rbuf, info) = ep1.recv(MatchSpec::exact(0, 5), rbuf).unwrap();
        assert_eq!(info.len, len);
        assert_eq!(
            ep0.stats().host_copies + ep1.stats().host_copies,
            0,
            "zero-copy even when unexpected"
        );
        ep0.wait_send(sreq).unwrap();
        ep1.release(rbuf);
    }

    #[test]
    fn wildcard_receive_reports_actual_source_and_tag() {
        let (_f, mut eps) = world(3, MsgConfig::default());
        let (a, rest) = eps.split_at_mut(1);
        let (b, c) = rest.split_at_mut(1);
        let (ep0, ep1, ep2) = (&mut a[0], &mut b[0], &mut c[0]);
        let mut buf = ep2.alloc(4).unwrap();
        buf.fill_from(b"from");
        let s1 = ep2.isend(1, 99, buf).unwrap();
        let _ = ep0; // rank 0 is idle in this test
        let rb = ep1.alloc(16).unwrap();
        let (rb, info) = ep1.recv(MatchSpec::any(), rb).unwrap();
        assert_eq!(info.src, 2);
        assert_eq!(info.tag, 99);
        ep2.wait_send(s1).unwrap();
        ep1.release(rb);
    }

    #[test]
    fn messages_do_not_overtake_within_a_tag() {
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let mut reqs = vec![];
        for i in 0..20u8 {
            let mut b = ep0.alloc(1).unwrap();
            b.fill_from(&[i]);
            reqs.push(ep0.isend(1, 3, b).unwrap());
        }
        for i in 0..20u8 {
            let rb = ep1.alloc(1).unwrap();
            let (rb, _) = ep1.recv(MatchSpec::exact(0, 3), rb).unwrap();
            assert_eq!(rb.as_slice(), &[i], "message order must be preserved");
            ep1.release(rb);
        }
        for r in reqs {
            ep0.wait_send(r).unwrap();
        }
    }

    #[test]
    fn mixed_eager_and_rendezvous_preserve_tag_order() {
        // A small (eager) then large (rendezvous) message on the same
        // tag must still match posted receives in send order.
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let mut small = ep0.alloc(8).unwrap();
        small.fill_from(b"smallone");
        let big_len = 256 * 1024;
        let mut big = ep0.alloc(big_len).unwrap();
        big.fill_from(&payload(big_len));
        let r1 = ep0.isend(1, 7, small).unwrap();
        let r2 = ep0.isend(1, 7, big).unwrap();
        let rb = ep1.alloc(big_len).unwrap();
        let (rb, i1) = ep1.recv(MatchSpec::exact(0, 7), rb).unwrap();
        assert_eq!(i1.len, 8);
        let rb2 = ep1.alloc(big_len).unwrap();
        let (_rb2, i2) = ep1.recv(MatchSpec::exact(0, 7), rb2).unwrap();
        assert_eq!(i2.len, big_len);
        ep0.wait_send(r1).unwrap();
        ep0.wait_send(r2).unwrap();
        ep1.release(rb);
    }

    #[test]
    fn self_send_works() {
        let (_f, mut eps) = world(1, MsgConfig::default());
        let ep = &mut eps[0];
        let mut b = ep.alloc(11).unwrap();
        b.fill_from(b"to myself!!");
        let sreq = ep.isend(0, 0, b).unwrap();
        let rb = ep.alloc(16).unwrap();
        let (rb, info) = ep.recv(MatchSpec::exact(0, 0), rb).unwrap();
        assert_eq!(info.len, 11);
        assert_eq!(rb.as_slice(), b"to myself!!");
        ep.wait_send(sreq).unwrap();
    }

    #[test]
    fn truncation_is_reported_not_corrupted() {
        // One case per delivery path: RTS refusal, bounce copy, and the
        // reassembled-slice copy. A 16-byte request gets the pool's
        // 64-byte class, and that real capacity is what is reported.
        for proto in [Protocol::Rendezvous, Protocol::Eager, Protocol::Sockets] {
            let (_f, mut eps) = world(2, MsgConfig::with_protocol(proto));
            let (e1, rest) = eps.split_at_mut(1);
            let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
            let mut sbuf = ep0.alloc(1024).unwrap();
            sbuf.fill_from(&payload(1024));
            let sreq = ep0.isend(1, 1, sbuf).unwrap();
            let small = ep1.alloc(16).unwrap();
            let req = ep1.irecv(MatchSpec::exact(0, 1), small).unwrap();
            let err = ep1.wait_recv(req).unwrap_err();
            assert_eq!(
                err,
                MsgError::Truncated {
                    incoming: 1024,
                    capacity: 64
                },
                "{proto:?}"
            );
            assert_eq!(err.to_string(), "message of 1024 bytes truncated to 64");
            // The sender still completes (FIN is sent on refusal).
            ep0.wait_send(sreq).unwrap();
        }
    }

    #[test]
    fn many_outstanding_sends_backpressure_cleanly() {
        let (_f, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Eager));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        // More sends than bounce buffers + tx slots: the sender must
        // recycle via progress without deadlocking.
        let n = 500u64;
        let mut reqs = vec![];
        for i in 0..n {
            let mut b = ep0.alloc(64).unwrap();
            b.fill_from(&i.to_le_bytes());
            // Receiver drains as we go (single-threaded interleave).
            if i % 7 == 0 {
                ep1.progress();
            }
            reqs.push(ep0.isend(1, 1, b).unwrap());
        }
        for i in 0..n {
            let rb = ep1.alloc(64).unwrap();
            let (rb, info) = ep1.recv(MatchSpec::exact(0, 1), rb).unwrap();
            assert_eq!(info.len, 8);
            assert_eq!(&rb.as_slice()[..8], &i.to_le_bytes());
            ep1.release(rb);
        }
        for r in reqs {
            let b = ep0.wait_send(r).unwrap();
            ep0.release(b);
        }
    }

    #[test]
    fn send_slice_and_recv_vec_convenience() {
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        ep0.send_slice(1, 9, b"easy mode").unwrap();
        let (v, info) = ep1.recv_vec(MatchSpec::exact(0, 9), 64).unwrap();
        assert_eq!(v, b"easy mode");
        assert_eq!(info.tag, 9);
    }

    #[test]
    fn registration_cache_reuses_buffers() {
        let (_f, mut eps) = world(1, MsgConfig::default());
        let ep = &mut eps[0];
        let b = ep.alloc(4096).unwrap();
        ep.release(b);
        let b2 = ep.alloc(4000).unwrap();
        ep.release(b2);
        assert_eq!(ep.pool_stats().hits, 1);
        assert_eq!(ep.pool_stats().misses, 1);
    }

    #[test]
    fn stats_track_traffic() {
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let mut b = ep0.alloc(100).unwrap();
        b.fill_from(&payload(100));
        let s = ep0.isend(1, 1, b).unwrap();
        let rb = ep1.alloc(100).unwrap();
        ep1.recv(MatchSpec::any(), rb).unwrap();
        ep0.wait_send(s).unwrap();
        assert_eq!(ep0.stats().msgs_sent, 1);
        assert_eq!(ep0.stats().bytes_sent, 100);
        assert_eq!(ep1.stats().msgs_received, 1);
        assert_eq!(ep1.stats().bytes_received, 100);
    }

    #[test]
    fn eager_rejects_oversized_payload() {
        let (_f, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Eager));
        let ep0 = &mut eps[0];
        let b = ep0.alloc(1 << 20).unwrap();
        let err = ep0.isend(1, 1, b).unwrap_err();
        assert!(matches!(err, MsgError::TooLargeForEager { .. }));
    }

    #[test]
    fn wait_on_unknown_request_errors() {
        let (_f, mut eps) = world(1, MsgConfig::default());
        let ep = &mut eps[0];
        assert!(matches!(
            ep.wait_send(9999),
            Err(MsgError::UnknownRequest(9999))
        ));
        assert!(matches!(
            ep.wait_recv(9999),
            Err(MsgError::UnknownRequest(9999))
        ));
    }

    #[test]
    fn interleaved_sockets_messages_reassemble_independently() {
        // Two multi-segment sockets messages on different tags from the
        // same sender must reassemble without cross-talk even though
        // their segments interleave on the wire.
        let cfg = MsgConfig::with_protocol(Protocol::Sockets);
        let (_f, mut eps) = world(2, cfg);
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let a = payload(10_000);
        let b: Vec<u8> = payload(7_000).iter().map(|x| x ^ 0xff).collect();
        let mut ba = ep0.alloc(a.len()).unwrap();
        ba.fill_from(&a);
        let mut bb = ep0.alloc(b.len()).unwrap();
        bb.fill_from(&b);
        let r1 = ep0.isend(1, 1, ba).unwrap();
        let r2 = ep0.isend(1, 2, bb).unwrap();
        // Receive in reverse tag order.
        let rb = ep1.alloc(b.len()).unwrap();
        let (rb, info) = ep1.recv(MatchSpec::exact(0, 2), rb).unwrap();
        assert_eq!(info.len, b.len());
        assert_eq!(rb.as_slice(), &b[..]);
        let ra = ep1.alloc(a.len()).unwrap();
        let (ra, info) = ep1.recv(MatchSpec::exact(0, 1), ra).unwrap();
        assert_eq!(info.len, a.len());
        assert_eq!(ra.as_slice(), &a[..]);
        ep0.wait_send(r1).unwrap();
        ep0.wait_send(r2).unwrap();
        ep1.release(ra);
        ep1.release(rb);
    }

    #[test]
    fn a_one_buffer_pool_runs_all_protocols() {
        // Every handshake frame (RTS, FIN, segments) takes a turn
        // in the endpoint's single receive buffer.
        for proto in [Protocol::Eager, Protocol::Rendezvous, Protocol::Sockets] {
            let mut cfg = MsgConfig::with_protocol(proto);
            cfg.srq_bufs = 1;
            for len in [0usize, 100, 8 * 1024, 100_000] {
                if proto == Protocol::Eager && len > 16 * 1024 {
                    continue;
                }
                roundtrip_with(cfg, len);
            }
        }
    }

    #[test]
    fn srq_backpressure_survives_a_flood() {
        // Far more in-flight messages than pooled buffers: parked
        // inbounds must drain as the receiver reposts.
        let mut cfg = MsgConfig::with_protocol(Protocol::Eager);
        cfg.srq_bufs = 4;
        let (_f, mut eps) = world(2, cfg);
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let n = 100u64;
        let mut reqs = vec![];
        for i in 0..n {
            let mut b = ep0.alloc(8).unwrap();
            b.fill_from(&i.to_le_bytes());
            reqs.push(ep0.isend(1, 1, b).unwrap());
        }
        for i in 0..n {
            let rb = ep1.alloc(8).unwrap();
            let (rb, _) = ep1.recv(MatchSpec::exact(0, 1), rb).unwrap();
            assert_eq!(u64::from_le_bytes(rb.as_slice().try_into().unwrap()), i);
            ep1.release(rb);
        }
        for r in reqs {
            let b = ep0.wait_send(r).unwrap();
            ep0.release(b);
        }
    }

    #[test]
    fn receive_memory_grows_linearly_with_the_world() {
        // Each endpoint registers one receive pool, whatever the world
        // size, and no send slot before its first send, so doubling the
        // ranks exactly doubles the world's registered bytes; a receive
        // window per peer would grow it with the square of the ranks
        // (3.5x from 12 to 24).
        let registered = |p: u32| {
            let fabric = Fabric::new();
            let _eps = Endpoint::create_world(&fabric, p, MsgConfig::default()).unwrap();
            fabric.stats().registered_bytes
        };
        let (r12, r24) = (registered(12), registered(24));
        assert_eq!(
            r24,
            2 * r12,
            "24 ranks registered {r24} bytes, not twice the {r12} of 12 ranks"
        );
    }

    #[test]
    fn failed_peer_is_detected_and_pending_work_errors_out() {
        let (_f, mut eps) = world(3, MsgConfig::with_protocol(Protocol::Rendezvous));
        let mut ep2 = eps.pop().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        // ep0 starts a rendezvous toward ep1 (parks at AwaitFin since
        // ep1 never posts a receive) and a receive from ep1.
        let mut sbuf = ep0.alloc(100_000).unwrap();
        sbuf.fill_from(&payload(100_000));
        let sreq = ep0.isend(1, 1, sbuf).unwrap();
        let rbuf = ep0.alloc(64).unwrap();
        let rreq = ep0.irecv(MatchSpec::exact(1, 2), rbuf).unwrap();
        assert!(ep0.peer_alive(1));
        // ep1 dies.
        ep1.fail();
        assert!(!ep0.peer_alive(1));
        let dead = ep0.detect_failures();
        assert_eq!(dead, vec![1]);
        // Pending work toward the corpse errors out.
        assert!(matches!(ep0.wait_send(sreq), Err(MsgError::PeerFailed(1))));
        assert!(matches!(ep0.wait_recv(rreq), Err(MsgError::PeerFailed(1))));
        // Future operations fail fast.
        let b = ep0.alloc(8).unwrap();
        assert!(matches!(ep0.isend(1, 1, b), Err(MsgError::PeerFailed(1))));
        // The dead endpoint refuses work.
        let b = ep1.alloc(8).unwrap();
        assert!(matches!(ep1.isend(0, 1, b), Err(MsgError::EndpointDown)));
        // Traffic between survivors is unaffected.
        let mut b = ep0.alloc(5).unwrap();
        b.fill_from(b"alive");
        let s = ep0.isend(2, 9, b).unwrap();
        let rb = ep2.alloc(8).unwrap();
        let (rb, info) = ep2.recv(MatchSpec::exact(0, 9), rb).unwrap();
        assert_eq!(info.len, 5);
        assert_eq!(rb.as_slice(), b"alive");
        ep0.wait_send(s).unwrap();
    }

    #[test]
    fn late_fin_after_manual_failure_mark_keeps_request_reapable() {
        // A rendezvous send is in flight (AwaitFin); the app marks the
        // peer failed (e.g. a false-positive detector); the peer is in
        // fact alive and its FIN arrives late. The request must still
        // reap as PeerFailed — not vanish into UnknownRequest.
        let (_f, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Rendezvous));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let mut sbuf = ep0.alloc(100_000).unwrap();
        sbuf.fill_from(&payload(100_000));
        let sreq = ep0.isend(1, 1, sbuf).unwrap();
        ep0.mark_peer_failed(1);
        // The live peer receives the RTS and completes the transfer,
        // which lands a FIN in ep0's completion queue.
        let rbuf = ep1.alloc(100_000).unwrap();
        let (rbuf, info) = ep1.recv(MatchSpec::exact(0, 1), rbuf).unwrap();
        assert_eq!(info.len, 100_000);
        ep1.release(rbuf);
        // Reaping must report the failure, not lose the request.
        assert!(matches!(ep0.wait_send(sreq), Err(MsgError::PeerFailed(1))));
    }

    #[test]
    fn failure_cancels_only_receives_bound_to_the_corpse() {
        let (_f, mut eps) = world(3, MsgConfig::default());
        let mut ep2 = eps.pop().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        // Wildcard recv and a recv from the (future) corpse.
        let wild = ep0.alloc(16).unwrap();
        let wild_req = ep0
            .irecv(MatchSpec { src: None, tag: Some(7) }, wild)
            .unwrap();
        let bound = ep0.alloc(16).unwrap();
        let bound_req = ep0.irecv(MatchSpec::exact(1, 7), bound).unwrap();
        ep1.fail();
        ep0.detect_failures();
        assert!(matches!(
            ep0.wait_recv(bound_req),
            Err(MsgError::PeerFailed(1))
        ));
        // The wildcard receive is still live; a survivor satisfies it.
        let mut b = ep2.alloc(4).unwrap();
        b.fill_from(b"ping");
        let s = ep2.isend(0, 7, b).unwrap();
        let (rb, info) = ep0.wait_recv(wild_req).unwrap();
        assert_eq!(info.src, 2);
        assert_eq!(rb.as_slice(), b"ping");
        ep2.wait_send(s).unwrap();
    }

    #[test]
    fn gather_eager_sends_noncontiguous_without_copies() {
        use crate::datatype::Layout;
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        // A strided layout: 4 blocks of 3 bytes every 8 bytes.
        let layout = Layout::Strided {
            offset: 1,
            count: 4,
            block_len: 3,
            stride: 8,
        };
        let mut buf = ep0.alloc(64).unwrap();
        buf.set_len(40);
        for (i, b) in buf.as_mut_slice().iter_mut().enumerate() {
            *b = i as u8;
        }
        let expect = layout.pack(buf.as_slice());
        let before = ep0.stats().host_copies;
        let sreq = ep0.isend_layout(1, 5, buf, &layout).unwrap();
        // The gather path adds no sender-side host copies.
        assert_eq!(ep0.stats().host_copies, before);
        let rb = ep1.alloc(64).unwrap();
        let (rb, info) = ep1.recv(MatchSpec::exact(0, 5), rb).unwrap();
        assert_eq!(info.len, 12);
        assert_eq!(rb.as_slice(), &expect[..]);
        let sbuf = ep0.wait_send(sreq).unwrap();
        assert_eq!(sbuf.len(), 40, "original buffer returned");
        ep0.release(sbuf);
        ep1.release(rb);
    }

    #[test]
    fn layout_send_falls_back_to_rendezvous_above_eager_limit() {
        use crate::datatype::Layout;
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let n = 200_000usize;
        let layout = Layout::Contiguous { len: n };
        let mut buf = ep0.alloc(n).unwrap();
        buf.fill_from(&payload(n));
        let expect = buf.to_vec();
        let sreq = ep0.isend_layout(1, 6, buf, &layout).unwrap();
        let rb = ep1.alloc(n).unwrap();
        let (rb, info) = ep1.recv(MatchSpec::exact(0, 6), rb).unwrap();
        assert_eq!(info.len, n);
        assert_eq!(rb.as_slice(), &expect[..]);
        let orig = ep0.wait_send(sreq).unwrap();
        assert_eq!(orig.len(), n, "caller gets the original buffer back");
        assert_eq!(ep0.stats().rendezvous_sends, 1);
        ep0.release(orig);
        ep1.release(rb);
    }

    #[test]
    fn layout_send_rejects_out_of_bounds_layout() {
        use crate::datatype::Layout;
        let (_f, mut eps) = world(2, MsgConfig::default());
        let ep0 = &mut eps[0];
        let buf = ep0.alloc(16).unwrap();
        let layout = Layout::Strided {
            offset: 0,
            count: 4,
            block_len: 8,
            stride: 8,
        };
        let err = ep0.isend_layout(1, 1, buf, &layout).unwrap_err();
        assert!(matches!(err, MsgError::BadConfig(_)));
    }

    #[test]
    fn cross_thread_ping_pong_all_protocols() {
        for proto in [Protocol::Eager, Protocol::Rendezvous, Protocol::Sockets] {
            let (_f, mut eps) = world(2, MsgConfig::with_protocol(proto));
            let ep1 = eps.pop().unwrap();
            let mut ep0 = eps.pop().unwrap();
            let iters = 50;
            let len = 2048;
            let h = std::thread::spawn(move || {
                let mut ep1 = ep1;
                for _ in 0..iters {
                    let rb = ep1.alloc(len).unwrap();
                    let (rb, info) = ep1.recv(MatchSpec::exact(0, 1), rb).unwrap();
                    let mut reply = ep1.alloc(info.len).unwrap();
                    reply.fill_from(rb.as_slice());
                    let reply = ep1.send(0, 2, reply).unwrap();
                    ep1.release(reply);
                    ep1.release(rb);
                }
            });
            let data = payload(len);
            for _ in 0..iters {
                let mut b = ep0.alloc(len).unwrap();
                b.fill_from(&data);
                let b = ep0.send(1, 1, b).unwrap();
                ep0.release(b);
                let rb = ep0.alloc(len).unwrap();
                let (rb, info) = ep0.recv(MatchSpec::exact(1, 2), rb).unwrap();
                assert_eq!(info.len, len);
                assert_eq!(rb.as_slice(), &data[..], "echo mismatch under {proto:?}");
                ep0.release(rb);
            }
            h.join().unwrap();
        }
    }

    // ------------------------------------------------------------------
    // Reliability layer
    // ------------------------------------------------------------------

    fn reliable(proto: Protocol) -> MsgConfig {
        MsgConfig {
            reliability: Reliability::on(),
            ..MsgConfig::with_protocol(proto)
        }
    }

    #[test]
    fn reliable_roundtrips_on_clean_fabric() {
        // The sequencing/ACK machinery must be invisible when nothing
        // goes wrong, for every protocol.
        for len in [0, 1, 1000, 4096] {
            roundtrip_with(reliable(Protocol::Eager), len);
        }
        for len in [0, 1, 64 * 1024, 1 << 20] {
            roundtrip_with(reliable(Protocol::Rendezvous), len);
        }
        for len in [0, 1499, 100_000] {
            roundtrip_with(reliable(Protocol::Sockets), len);
        }
    }

    #[test]
    fn reliability_on_and_off_count_alike_on_a_clean_fabric() {
        // Both receive paths run one dispatch, so on a fabric that loses
        // nothing the reliability layer must not move a single copy,
        // protocol choice or arrival count. Even-numbered messages are
        // sent, and have arrived as far as they can, before their
        // receive is posted; odd ones find it posted.
        let sizes = [0usize, 64, 4 << 10, 16 << 10, 100_000, 1 << 20];
        let row = |s: EndpointStats| {
            [
                s.host_copies,
                s.host_copy_bytes,
                s.eager_sends,
                s.rendezvous_sends,
                s.sockets_segments,
                s.msgs_received,
                s.bytes_received,
                s.unexpected_arrivals,
            ]
        };
        let counts = |reliability: Reliability| {
            let mut rows = Vec::new();
            for proto in [
                Protocol::Auto,
                Protocol::Eager,
                Protocol::Rendezvous,
                Protocol::Sockets,
            ] {
                let cfg = MsgConfig {
                    reliability,
                    ..MsgConfig::with_protocol(proto)
                };
                let (_f, mut eps) = world(2, cfg);
                let (e1, rest) = eps.split_at_mut(1);
                let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
                let mut sent = 0;
                for (tag, &len) in sizes.iter().enumerate() {
                    if proto == Protocol::Eager && len > cfg.eager_buf_size {
                        continue;
                    }
                    let tag = tag as u64;
                    let data = payload(len);
                    let mut sbuf = ep0.alloc(len).unwrap();
                    sbuf.fill_from(&data);
                    let rbuf = ep1.alloc(len.max(1)).unwrap();
                    let spec = MatchSpec::exact(0, tag);
                    let (sreq, rreq) = if tag.is_multiple_of(2) {
                        let sreq = ep0.isend(1, tag, sbuf).unwrap();
                        while ep0.progress() + ep1.progress() > 0 {}
                        (sreq, ep1.irecv(spec, rbuf).unwrap())
                    } else {
                        let rreq = ep1.irecv(spec, rbuf).unwrap();
                        (ep0.isend(1, tag, sbuf).unwrap(), rreq)
                    };
                    let (sbuf, rbuf, info) = drive(ep0, ep1, sreq, rreq);
                    assert_eq!(rbuf.as_slice(), &data[..], "{proto:?}, {len} bytes");
                    assert_eq!(info.len, len);
                    ep0.release(sbuf);
                    ep1.release(rbuf);
                    sent += 1;
                }
                assert_eq!(ep1.stats().msgs_received, sent, "{proto:?}");
                rows.push((proto, row(ep0.stats()), row(ep1.stats())));
            }
            rows
        };
        assert_eq!(counts(Reliability::default()), counts(Reliability::on()));
    }

    #[test]
    fn reliable_delivery_is_exactly_once_over_lossy_fabric() {
        const N: usize = 100;
        const LEN: usize = 256;
        let (fabric, mut eps) = world(2, reliable(Protocol::Eager));
        fabric.set_chaos(ChaosParams::drop_only(0xC0FFEE, 0.10));
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);

        let msg = |i: usize| -> Vec<u8> { (0..LEN).map(|j| (i * 131 + j * 31 + 7) as u8).collect() };
        let mut rreqs = Vec::new();
        for _ in 0..N {
            let rb = ep1.alloc(LEN).unwrap();
            rreqs.push(ep1.irecv(MatchSpec::exact(0, 7), rb).unwrap());
        }
        for i in 0..N {
            let mut b = ep0.alloc(LEN).unwrap();
            b.fill_from(&msg(i));
            let sreq = ep0.isend(1, 7, b).unwrap();
            let sb = ep0.wait_send(sreq).unwrap();
            ep0.release(sb);
        }

        let mut results: Vec<Option<_>> = (0..N).map(|_| None).collect();
        let mut done = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while done < N {
            assert!(
                std::time::Instant::now() < deadline,
                "delivery stalled at {done}/{N} over 10% loss"
            );
            ep0.progress();
            ep1.progress();
            for (i, req) in rreqs.iter().enumerate() {
                if results[i].is_none() {
                    if let Some(r) = ep1.test_recv(*req).unwrap() {
                        results[i] = Some(r);
                        done += 1;
                    }
                }
            }
        }
        for (i, r) in results.into_iter().enumerate() {
            let (rb, info) = r.unwrap();
            assert_eq!(info.len, LEN);
            assert_eq!(rb.as_slice(), &msg(i)[..], "message {i} corrupted or reordered");
            ep1.release(rb);
        }
        let drops = fabric.chaos_stats().unwrap().drops;
        assert!(drops > 0, "10% loss should have dropped something");
        assert!(
            ep0.stats().rel_retransmits > 0,
            "dropped frames must be retransmitted"
        );
        assert_eq!(
            ep1.stats().msgs_received,
            N as u64,
            "every message delivered exactly once"
        );
    }

    #[test]
    fn reliable_delivery_heals_corruption() {
        const N: usize = 50;
        const LEN: usize = 512;
        let (fabric, mut eps) = world(2, reliable(Protocol::Eager));
        fabric.set_chaos(ChaosParams {
            seed: 11,
            drop_prob: 0.0,
            corrupt_prob: 0.2,
        });
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let data = payload(LEN);
        let mut rreqs = Vec::new();
        for _ in 0..N {
            let rb = ep1.alloc(LEN).unwrap();
            rreqs.push(ep1.irecv(MatchSpec::exact(0, 3), rb).unwrap());
        }
        for _ in 0..N {
            let mut b = ep0.alloc(LEN).unwrap();
            b.fill_from(&data);
            let sreq = ep0.isend(1, 3, b).unwrap();
            let sb = ep0.wait_send(sreq).unwrap();
            ep0.release(sb);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        for req in &rreqs {
            loop {
                assert!(std::time::Instant::now() < deadline, "corruption healing stalled");
                ep0.progress();
                if let Some((rb, info)) = ep1.test_recv(*req).unwrap() {
                    assert_eq!(info.len, LEN);
                    // Corrupted frames failed their ICRC, were dropped, and
                    // were retransmitted: the user never sees a flipped byte.
                    assert_eq!(rb.as_slice(), &data[..]);
                    ep1.release(rb);
                    break;
                }
            }
        }
        assert!(fabric.chaos_stats().unwrap().corruptions > 0);
        assert!(ep0.stats().rel_retransmits > 0);
    }

    #[test]
    fn reliable_lossy_roundtrip_all_protocols() {
        for (proto, len) in [
            (Protocol::Eager, 4096),
            (Protocol::Rendezvous, 64 * 1024),
            (Protocol::Sockets, 50_000),
        ] {
            let (fabric, mut eps) = world(2, reliable(proto));
            fabric.set_chaos(ChaosParams::drop_only(0xBAD5EED, 0.20));
            let (e1, rest) = eps.split_at_mut(1);
            let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
            let data = payload(len);
            let mut b = ep0.alloc(len).unwrap();
            b.fill_from(&data);
            let sreq = ep0.isend(1, 5, b).unwrap();
            let rb = ep1.alloc(len).unwrap();
            let rreq = ep1.irecv(MatchSpec::exact(0, 5), rb).unwrap();
            let mut sdone = None;
            let mut rdone = None;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while sdone.is_none() || rdone.is_none() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{proto:?} roundtrip stalled under 20% loss"
                );
                // Buffered sends complete before delivery, so the sender
                // must keep progressing for retransmissions to fire.
                ep0.progress();
                ep1.progress();
                if sdone.is_none() {
                    sdone = ep0.test_send(sreq).unwrap();
                }
                if rdone.is_none() {
                    rdone = ep1.test_recv(rreq).unwrap();
                }
            }
            let (rb, info) = rdone.unwrap();
            assert_eq!(info.len, len);
            assert_eq!(rb.as_slice(), &data[..], "{proto:?} payload under loss");
            ep0.release(sdone.unwrap());
            ep1.release(rb);
        }
    }

    #[test]
    fn retry_budget_exhaustion_escalates_to_peer_failed() {
        let (fabric, mut eps) = world(2, reliable(Protocol::Rendezvous));
        // Total blackout: every RTS (re)transmission is dropped, so the
        // retry budget runs out and the peer is declared dead.
        fabric.set_chaos(ChaosParams::drop_only(3, 1.0));
        let ep0 = &mut eps[0];
        let mut b = ep0.alloc(4096).unwrap();
        b.fill_from(&payload(4096));
        let sreq = ep0.isend(1, 9, b).unwrap();
        let err = ep0.wait_send_timeout(sreq, std::time::Duration::from_secs(10));
        assert!(
            matches!(err, Err(MsgError::PeerFailed(1))),
            "expected PeerFailed(1), got {err:?}"
        );
        assert!(ep0.stats().rel_retransmits >= 8, "budget must be spent first");
        // The corpse stays dead: later traffic fails fast.
        let b2 = ep0.alloc(8).unwrap();
        assert!(matches!(ep0.isend(1, 9, b2), Err(MsgError::PeerFailed(1))));
    }

    #[test]
    fn reliable_duplicates_are_suppressed() {
        // Corrupting ACKs (they are the only traffic flowing back) forces
        // the sender to retransmit frames the receiver already has; the
        // dedup window must absorb them.
        const N: usize = 30;
        const LEN: usize = 64;
        let (fabric, mut eps) = world(2, reliable(Protocol::Eager));
        fabric.set_chaos(ChaosParams {
            seed: 99,
            drop_prob: 0.15,
            corrupt_prob: 0.15,
        });
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        let data = payload(LEN);
        let mut rreqs = Vec::new();
        for _ in 0..N {
            let rb = ep1.alloc(LEN).unwrap();
            rreqs.push(ep1.irecv(MatchSpec::exact(0, 1), rb).unwrap());
        }
        for _ in 0..N {
            let mut b = ep0.alloc(LEN).unwrap();
            b.fill_from(&data);
            let sreq = ep0.isend(1, 1, b).unwrap();
            let sb = ep0.wait_send(sreq).unwrap();
            ep0.release(sb);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        for req in &rreqs {
            loop {
                assert!(std::time::Instant::now() < deadline, "dedup drive stalled");
                ep0.progress();
                if let Some((rb, _)) = ep1.test_recv(*req).unwrap() {
                    assert_eq!(rb.as_slice(), &data[..]);
                    ep1.release(rb);
                    break;
                }
            }
        }
        assert_eq!(ep1.stats().msgs_received, N as u64, "no duplicate deliveries");
    }

    // --- failure-handling edge cases ----------------------------------

    #[test]
    fn peer_failure_mid_rendezvous_fails_the_pending_send() {
        // The sender is parked in AwaitFin — RTS delivered, but the
        // receiver never posts a matching recv, so no FIN ever comes.
        let (_f, mut eps) = world(2, MsgConfig::with_protocol(Protocol::Rendezvous));
        let (e1, rest) = eps.split_at_mut(1);
        let ep0 = &mut e1[0];
        let _ep1 = &rest[0];
        let mut b = ep0.alloc(4096).unwrap();
        b.fill_from(&payload(4096));
        let req = ep0.isend(1, 9, b).unwrap();
        ep0.progress();
        assert!(matches!(ep0.test_send(req), Ok(None)), "stuck awaiting FIN");

        ep0.mark_peer_failed(1);
        assert_eq!(ep0.wait_send(req).unwrap_err(), MsgError::PeerFailed(1));
        // The request was reaped by the error: a second query is a
        // protocol error, not a second PeerFailed.
        assert_eq!(ep0.test_send(req).unwrap_err(), MsgError::UnknownRequest(req));
        // Future operations naming the dead peer fail fast.
        let b2 = ep0.alloc(16).unwrap();
        assert_eq!(ep0.isend(1, 9, b2).unwrap_err(), MsgError::PeerFailed(1));
    }

    #[test]
    fn gather_slot_is_retired_not_recycled_on_peer_failure() {
        use crate::datatype::Layout;
        // Reliability off, so the zero-copy gather path is exercised;
        // slot accounting is observable via the slots registered.
        let (_f, mut eps) = world(3, MsgConfig::with_protocol(Protocol::Eager));
        let (e1, rest) = eps.split_at_mut(1);
        let (r1, r2) = rest.split_at_mut(1);
        let (ep0, _ep1, ep2) = (&mut e1[0], &mut r1[0], &mut r2[0]);

        let layout = Layout::Contiguous { len: 64 };
        let mut buf = ep0.alloc(64).unwrap();
        buf.fill_from(&payload(64));
        let req = ep0.isend_layout(1, 5, buf, &layout).unwrap();
        // Mark before any progress: the request is still GatherInflight.
        ep0.mark_peer_failed(1);
        assert_eq!(ep0.wait_send(req).unwrap_err(), MsgError::PeerFailed(1));
        assert_eq!(ep0.stats().tx_slots_registered, 1);

        // The retired slot must NOT come back through the gather CQE: the
        // next eager send is forced to register a second slot instead of
        // reusing it, and still goes through cleanly to a live peer.
        let mut b = ep0.alloc(32).unwrap();
        b.fill_from(&payload(32));
        let sreq = ep0.isend(2, 6, b).unwrap();
        assert_eq!(
            ep0.stats().tx_slots_registered,
            2,
            "slot parked at the dead peer stays retired"
        );
        let rb = ep2.alloc(32).unwrap();
        let rreq = ep2.irecv(MatchSpec::exact(0, 6), rb).unwrap();
        let (rb, info) = ep2.wait_recv(rreq).unwrap();
        assert_eq!(info.len, 32);
        assert_eq!(rb.as_slice(), &payload(32)[..]);
        ep2.release(rb);
        let sb = ep0.wait_send(sreq).unwrap();
        ep0.release(sb);
    }

    #[test]
    fn detect_failures_and_double_mark_are_idempotent() {
        let (_f, mut eps) = world(2, MsgConfig::default());
        let (e1, rest) = eps.split_at_mut(1);
        let (ep0, ep1) = (&mut e1[0], &mut rest[0]);
        // One recv pinned to the doomed peer, one wildcard.
        let rb = ep0.alloc(64).unwrap();
        let pinned = ep0.irecv(MatchSpec::exact(1, 3), rb).unwrap();
        let rb2 = ep0.alloc(64).unwrap();
        let wild = ep0.irecv(MatchSpec::any(), rb2).unwrap();

        ep1.fail();
        assert_eq!(ep0.detect_failures(), vec![1]);
        // A second sweep and an explicit re-mark are both no-ops.
        assert!(ep0.detect_failures().is_empty());
        ep0.mark_peer_failed(1);
        assert!(!ep0.peer_alive(1));

        // The pinned recv fails exactly once, then is unknown.
        assert_eq!(ep0.test_recv(pinned).unwrap_err(), MsgError::PeerFailed(1));
        assert_eq!(
            ep0.test_recv(pinned).unwrap_err(),
            MsgError::UnknownRequest(pinned)
        );
        // The wildcard recv is NOT cancelled: it could still match a
        // message from some other (live) source.
        assert!(matches!(ep0.test_recv(wild), Ok(None)));
        // New operations naming the dead peer fail fast, in both roles.
        let b = ep0.alloc(8).unwrap();
        assert_eq!(ep0.isend(1, 1, b).unwrap_err(), MsgError::PeerFailed(1));
        let b = ep0.alloc(8).unwrap();
        assert_eq!(
            ep0.irecv(MatchSpec::exact(1, 1), b).unwrap_err(),
            MsgError::PeerFailed(1)
        );
    }
}
