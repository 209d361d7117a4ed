//! Allocation accounting for the messaging fast path.
//!
//! The eager protocol's steady state is supposed to be completely
//! heap-free: bounce slots, receive windows, gather lists, CQ polling,
//! and request bookkeeping all reuse storage that was set up during
//! bootstrap or the first few messages. A counting global allocator
//! enforces that budget — 0 allocations per message — so any future
//! `Vec`/`Box`/`clone` snuck into the hot path fails this test rather
//! than quietly costing 100ns per message.

use polaris_msg::match_engine::{MatchEngine, MatchSpec};
use polaris_msg::prelude::*;
use polaris_nic::prelude::Fabric;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed, realloc) the calling
/// thread makes. Deallocations are free. Per thread, because the
/// harness runs this binary's tests on parallel threads and a sibling's
/// allocations must not land in a measured window; every test here
/// drives its endpoints from its own thread.
struct CountingAlloc;

thread_local! {
    // `const` + `Cell<u64>`: reachable from the allocator hook without
    // allocating or registering a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One matched round trip: rank 0 sends, rank 1 receives, both buffers
/// come back to the caller for reuse.
fn round(eps: &mut [Endpoint], sbuf: MsgBuf, rbuf: MsgBuf, tag: u64) -> (MsgBuf, MsgBuf) {
    let (a, b) = eps.split_at_mut(1);
    let ep0 = &mut a[0];
    let ep1 = &mut b[0];
    let len = sbuf.len();
    let rreq = ep1.irecv(MatchSpec::exact(0, tag), rbuf).unwrap();
    let sreq = ep0.isend(1, tag, sbuf).unwrap();
    let (rbuf, info) = ep1.wait_recv(rreq).unwrap();
    assert_eq!(info.len, len);
    // Rendezvous: the sender's FIN arrives only once the receiver
    // has reaped its read completion, which `wait_recv` just did.
    let sbuf = ep0.wait_send(sreq).unwrap();
    (sbuf, rbuf)
}

/// Heap allocations made by 1000 steady-state messages of `len` bytes
/// under `proto`, after a 200-message warm-up that lets every
/// lazily-grown structure (CQ ring, scratch, match queues, request
/// tables, tx window, frame pool) reach its steady size.
fn steady_state_allocs(proto: Protocol, len: usize) -> u64 {
    let fabric = Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, 2, MsgConfig::with_protocol(proto)).unwrap();
    let mut sbuf = eps[0].alloc(len).unwrap();
    sbuf.fill_from(&vec![7u8; len]);
    let mut rbuf = eps[1].alloc(len).unwrap();
    for tag in 0..200u64 {
        (sbuf, rbuf) = round(&mut eps, sbuf, rbuf, tag);
    }
    let before = allocs();
    for tag in 0..1000u64 {
        (sbuf, rbuf) = round(&mut eps, sbuf, rbuf, 1000 + tag);
    }
    let delta = allocs() - before;
    let sent = eps[0].stats();
    match proto {
        Protocol::Rendezvous => assert_eq!(sent.rendezvous_sends, 1200),
        Protocol::Sockets => assert!(sent.sockets_segments >= 1200),
        _ => assert_eq!(sent.eager_sends, 1200),
    }
    eps[0].release(sbuf);
    eps[1].release(rbuf);
    delta
}

#[test]
fn eager_steady_state_is_allocation_free() {
    assert_eq!(steady_state_allocs(Protocol::Eager, 64), 0);
}

#[test]
fn rendezvous_steady_state_is_allocation_free() {
    // RTS, RDMA read and FIN per message: two control frames through
    // bounce slots, one one-sided read, five completions.
    assert_eq!(steady_state_allocs(Protocol::Rendezvous, 64), 0);
    assert_eq!(steady_state_allocs(Protocol::Rendezvous, 16 << 10), 0);
}

#[test]
fn sockets_steady_state_is_allocation_free() {
    // One segment: the reassembly buffer comes from the frame pool and
    // never enters the table. Twelve segments: it does, and the table
    // and the pool have both reached their steady size.
    assert_eq!(steady_state_allocs(Protocol::Sockets, 64), 0);
    assert_eq!(steady_state_allocs(Protocol::Sockets, 16 << 10), 0);
}

#[test]
fn reliable_eager_steady_state_recycles_frames() {
    // With the reliability layer on, each message builds one
    // retransmittable frame — which must come from (and return to) the
    // endpoint's frame pool, not the heap, once the pool is warm.
    let fabric = Fabric::new();
    let cfg = MsgConfig {
        reliability: Reliability {
            enabled: true,
            ..Reliability::default()
        },
        ..MsgConfig::default()
    };
    let mut eps = Endpoint::create_world(&fabric, 2, cfg).unwrap();

    let mut sbuf = eps[0].alloc(64).unwrap();
    sbuf.fill_from(&[3u8; 64]);
    let mut rbuf = eps[1].alloc(64).unwrap();
    for tag in 0..200u64 {
        let (s, r) = round(&mut eps, sbuf, rbuf, tag);
        sbuf = s;
        rbuf = r;
        // Reliable eager completes locally, so nothing above blocks on
        // the sender's CQ; drive its progress (ACK processing, frame
        // retirement) explicitly, as an owning thread would.
        eps[0].progress();
    }

    let pool_before = eps[0].frame_pool_stats();
    for tag in 0..300u64 {
        let (s, r) = round(&mut eps, sbuf, rbuf, 1000 + tag);
        sbuf = s;
        rbuf = r;
        eps[0].progress();
    }
    let pool_after = eps[0].frame_pool_stats();
    // Every steady-state frame acquisition was a pool hit.
    assert!(
        pool_after.hits >= pool_before.hits + 300,
        "expected >=300 new frame-pool hits, got {} -> {:?}",
        pool_before.hits,
        pool_after
    );
    assert_eq!(
        pool_after.misses, pool_before.misses,
        "steady state must not allocate fresh frames"
    );

    eps[0].release(sbuf);
    eps[1].release(rbuf);
}

#[test]
fn cancel_posted_with_no_match_does_not_allocate() {
    let mut eng: MatchEngine<u64, Vec<u8>> = MatchEngine::new();
    for i in 0..64u64 {
        eng.post_recv(MatchSpec::exact((i % 4) as u32, i), i);
    }
    let before = allocs();
    let cancelled = eng.cancel_posted(|spec| spec.src == Some(99));
    assert!(cancelled.is_empty());
    assert_eq!(
        allocs() - before,
        0,
        "in-place cancel sweep must not allocate"
    );
    assert_eq!(eng.posted_len(), 64);
}
