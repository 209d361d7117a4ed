//! The communicator abstraction collectives are written against.
//!
//! [`Comm`] is deliberately small — ranked blocking send/receive of byte
//! messages — so that the same algorithm code runs over the real
//! messaging endpoint and under tracing instrumentation. The tag space is
//! used to separate concurrent collectives phases from application
//! traffic (collectives reserve tags with the top bit set).

use crate::op::{from_bytes, to_bytes, Elem};
use polaris_msg::prelude::{Endpoint, MatchSpec};

/// Tag namespace reserved for collective operations.
pub const COLL_TAG_BASE: u64 = 1 << 63;

/// Ranked, blocking, tagged byte transport.
pub trait Comm {
    fn rank(&self) -> u32;
    fn size(&self) -> u32;
    /// Blocking tagged send.
    fn send_bytes(&mut self, dst: u32, tag: u64, data: &[u8]);
    /// Blocking tagged receive from a specific source of at most
    /// `max_len` bytes (collective rounds always know their sizes).
    fn recv_bytes(&mut self, src: u32, tag: u64, max_len: usize) -> Vec<u8>;
    /// Concurrent send+receive (both directions in flight at once), the
    /// deadlock-free primitive most collective rounds are built on.
    fn sendrecv_bytes(&mut self, dst: u32, data: &[u8], src: u32, tag: u64, max_len: usize)
        -> Vec<u8>;

    /// Typed convenience over `send_bytes`.
    fn send_elems<T: Elem>(&mut self, dst: u32, tag: u64, xs: &[T]) {
        self.send_bytes(dst, tag, &to_bytes(xs));
    }

    /// Typed convenience over `recv_bytes`; receives exactly `count`
    /// elements' worth of capacity.
    fn recv_elems<T: Elem>(&mut self, src: u32, tag: u64, count: usize) -> Vec<T> {
        from_bytes(&self.recv_bytes(src, tag, count * T::SIZE))
    }

    /// Typed convenience over `sendrecv_bytes`.
    fn sendrecv_elems<T: Elem>(
        &mut self,
        dst: u32,
        xs: &[T],
        src: u32,
        tag: u64,
        count: usize,
    ) -> Vec<T> {
        from_bytes(&self.sendrecv_bytes(dst, &to_bytes(xs), src, tag, count * T::SIZE))
    }
}

impl Comm for Endpoint {
    fn rank(&self) -> u32 {
        Endpoint::rank(self)
    }

    fn size(&self) -> u32 {
        Endpoint::size(self)
    }

    fn send_bytes(&mut self, dst: u32, tag: u64, data: &[u8]) {
        self.send_slice(dst, tag, data).expect("collective send");
    }

    fn recv_bytes(&mut self, src: u32, tag: u64, max_len: usize) -> Vec<u8> {
        self.recv_vec(MatchSpec::exact(src, tag), max_len)
            .expect("collective recv")
            .0
    }

    fn sendrecv_bytes(
        &mut self,
        dst: u32,
        data: &[u8],
        src: u32,
        tag: u64,
        max_len: usize,
    ) -> Vec<u8> {
        let sbuf = self.copy_in(data).expect("alloc sendrecv buffer");
        let sreq = self.isend(dst, tag, sbuf).expect("collective isend");
        let out = self.recv_bytes(src, tag, max_len);
        let sbuf = self.wait_send(sreq).expect("collective send completion");
        self.release(sbuf);
        out
    }
}

/// One recorded communication event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    Send { to: u32, bytes: u64 },
    Recv { from: u32, bytes: u64 },
}

/// Wraps a [`Comm`] and records every transfer: used to cross-check that
/// the executable algorithms and the simulator's schedules agree.
pub struct TracingComm<'a, C: Comm> {
    inner: &'a mut C,
    pub trace: Vec<TraceEvent>,
}

impl<'a, C: Comm> TracingComm<'a, C> {
    pub fn new(inner: &'a mut C) -> Self {
        TracingComm {
            inner,
            trace: Vec::new(),
        }
    }
}

impl<C: Comm> Comm for TracingComm<'_, C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn send_bytes(&mut self, dst: u32, tag: u64, data: &[u8]) {
        self.trace.push(TraceEvent::Send {
            to: dst,
            bytes: data.len() as u64,
        });
        self.inner.send_bytes(dst, tag, data);
    }

    fn recv_bytes(&mut self, src: u32, tag: u64, max_len: usize) -> Vec<u8> {
        let v = self.inner.recv_bytes(src, tag, max_len);
        self.trace.push(TraceEvent::Recv {
            from: src,
            bytes: v.len() as u64,
        });
        v
    }

    fn sendrecv_bytes(
        &mut self,
        dst: u32,
        data: &[u8],
        src: u32,
        tag: u64,
        max_len: usize,
    ) -> Vec<u8> {
        self.trace.push(TraceEvent::Send {
            to: dst,
            bytes: data.len() as u64,
        });
        let v = self.inner.sendrecv_bytes(dst, data, src, tag, max_len);
        self.trace.push(TraceEvent::Recv {
            from: src,
            bytes: v.len() as u64,
        });
        v
    }
}
