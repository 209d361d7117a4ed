//! `msg_pingpong`: the executable stack — user-level messaging over
//! `nic` — and the only workload with no discrete-event simulation in
//! it. One thread drives both ranks of a 2-rank world (as
//! `benches/p2p.rs` does), so it measures the protocol code and not the
//! thread scheduler.

use super::{rng, Cell, Laps, Metrics, SpanView, Workload};
use crate::trace::Tracer;
use polaris_msg::prelude::*;
use polaris_nic::prelude::Fabric;
use serde_json::value::Value;

/// `(protocol, name, payload bytes, size class, messages)`.
const CELLS: [(Protocol, &str, usize, &str, u64); 8] = [
    (Protocol::Sockets, "sockets", 64, "64b", 150_000),
    (Protocol::Sockets, "sockets", 16 << 10, "16k", 15_000),
    (Protocol::Sockets, "sockets", 1 << 20, "1m", 200),
    (Protocol::Eager, "eager", 64, "64b", 150_000),
    (Protocol::Eager, "eager", 16 << 10, "16k", 15_000),
    (Protocol::Rendezvous, "rndv", 64, "64b", 100_000),
    (Protocol::Rendezvous, "rndv", 16 << 10, "16k", 40_000),
    (Protocol::Rendezvous, "rndv", 1 << 20, "1m", 400),
];

pub struct MsgPingpong {
    /// Two payloads that differ in every byte; messages alternate
    /// between them so a stale receive buffer cannot pass the check.
    patterns: [Vec<u8>; 2],
    /// Divides every message count (`--smoke`).
    shrink: u64,
    rndv_host_copies: u64,
    rndv_messages: u64,
}

impl MsgPingpong {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let mut r = rng(seed, 0x9199);
        let a: Vec<u8> = (0..1 << 20).map(|_| r.next_u64() as u8).collect();
        let b = a.iter().map(|x| !x).collect();
        MsgPingpong {
            patterns: [a, b],
            shrink: if smoke { 100 } else { 1 },
            rndv_host_copies: 0,
            rndv_messages: 0,
        }
    }

    /// One message from rank 0 to rank 1, payload checked on arrival.
    fn message(
        ep0: &mut Endpoint,
        ep1: &mut Endpoint,
        payload: &[u8],
        tag: u64,
    ) -> MsgResult<bool> {
        let rbuf = ep1.alloc(payload.len())?;
        let rreq = ep1.irecv(MatchSpec::exact(0, tag), rbuf)?;
        let mut sbuf = ep0.alloc(payload.len())?;
        sbuf.fill_from(payload);
        let sreq = ep0.isend(1, tag, sbuf)?;
        let (rbuf, info) = loop {
            ep0.progress();
            if let Some(done) = ep1.test_recv(rreq)? {
                break done;
            }
        };
        let ok = info.len == payload.len() && rbuf.as_slice() == payload;
        let sbuf = ep0.wait_send(sreq)?;
        ep0.release(sbuf);
        ep1.release(rbuf);
        Ok(ok)
    }
}

impl Workload for MsgPingpong {
    fn iterate(&mut self, tr: &mut Tracer, laps: &mut Laps) -> Vec<Cell> {
        (self.rndv_host_copies, self.rndv_messages) = (0, 0);
        let mut cells = Vec::new();
        for (proto, name, bytes, class, full) in CELLS {
            let messages = (full / self.shrink).max(2);
            let mut cell = Cell::new(format!("{name}/{class}"), vec![]);
            cell.ops = messages;
            let fabric = Fabric::new();
            let mut eps = match Endpoint::create_world(&fabric, 2, MsgConfig::with_protocol(proto))
            {
                Ok(eps) => eps,
                Err(e) => {
                    cell.require(false, || format!("cannot create the 2-rank world: {e:?}"));
                    cells.push(cell);
                    laps.lap();
                    continue;
                }
            };
            let (head, tail) = eps.split_at_mut(1);
            let (ep0, ep1) = (&mut head[0], &mut tail[0]);

            let open = tr.begin(&format!("msg.{name}_{class}"));
            let mut done = 0;
            for i in 0..messages {
                match Self::message(ep0, ep1, &self.patterns[(i & 1) as usize][..bytes], i) {
                    Ok(true) => {}
                    Ok(false) => {
                        cell.failed += 1;
                        cell.why.get_or_insert_with(|| {
                            format!("message {i}: payload differs on arrival")
                        });
                    }
                    // A protocol error leaves the world in an unknown
                    // state: every message not yet sent counts as failed.
                    Err(e) => {
                        cell.failed += messages - i;
                        cell.why
                            .get_or_insert_with(|| format!("message {i}: {e:?}"));
                        break;
                    }
                }
                done += 1;
            }
            tr.end(open, done);

            let (s0, s1) = (ep0.stats(), ep1.stats());
            let host_copies = s0.host_copies + s1.host_copies;
            cell.stats = super::obj(vec![
                ("messages", Value::U64(s0.msgs_sent)),
                ("bytes", Value::U64(s0.bytes_sent)),
                ("received", Value::U64(s1.msgs_received)),
                ("host_copies", Value::U64(host_copies)),
                ("eager_sends", Value::U64(s0.eager_sends)),
                ("rendezvous_sends", Value::U64(s0.rendezvous_sends)),
                ("sockets_segments", Value::U64(s0.sockets_segments)),
            ]);
            if proto == Protocol::Rendezvous {
                cell.require(host_copies == 0, || {
                    format!("rendezvous made {host_copies} host copies; zero-copy means none")
                });
                self.rndv_host_copies += host_copies;
                self.rndv_messages += done;
            }
            cells.push(cell);
            laps.lap();
        }
        cells
    }

    fn layer_metrics(&self, view: &SpanView, out: &mut Metrics) {
        for (_, name, bytes, class, _) in CELLS {
            let (ns, messages) = view.total(&format!("msg.{name}_{class}"));
            if class == "1m" {
                // Bytes per nanosecond are gigabytes per second.
                out.insert(
                    format!("msg.{name}_1m_gbps"),
                    8.0 * bytes as f64 * messages / ns.max(1.0),
                );
            } else {
                out.insert(format!("msg.{name}_{class}_ns"), ns / messages.max(1.0));
            }
        }
        out.insert(
            "msg.rndv_host_copies_per_msg".into(),
            self.rndv_host_copies as f64 / self.rndv_messages.max(1) as f64,
        );
    }
}
