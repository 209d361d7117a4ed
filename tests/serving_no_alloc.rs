//! Allocation accounting for the serving plane's hit path.
//!
//! A request that is already cached costs a hash, one map probe and
//! two atomic adds. The canonical encoder folds bytes into the hash
//! state instead of a buffer, the cache and the server hold their obs
//! handles instead of resolving them by name, and the answer is an
//! `Arc::clone` — so a hit touches the heap zero times. A counting
//! global allocator (its own test binary for that reason) holds it
//! there: a `String`, `Vec` or registry key back on the request path
//! fails this test instead of quietly costing 40 ns a request.

use polaris_obs::Obs;
use polaris_serve::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed, realloc) the calling
/// thread makes, as `crates/msg/tests/no_alloc.rs` does. Per thread, so
/// the count is sound on a 1-core box and beside sibling tests: the
/// measured window holds what this thread asked for and nothing else.
struct CountingAlloc;

thread_local! {
    // `const` + `Cell<u64>`: reachable from the allocator hook without
    // allocating or registering a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the hook only
// bumps a thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_cache_hit_does_not_allocate() {
    let server = SweepServer::new(64 << 20, Obs::new());
    let specs = figure_specs(&[4, 16, 64]);
    // Warm: every spec misses once, which may allocate as it likes.
    let before = allocs();
    for spec in &specs {
        server.request(*spec);
    }
    assert!(allocs() > before, "the counter must see the misses' allocations");

    const HITS: u64 = 10_000;
    let misses = server.cache_stats().misses;
    let before = allocs();
    for i in 0..HITS {
        let answer = server.request(specs[i as usize % specs.len()]);
        std::hint::black_box(&answer);
    }
    let made = allocs() - before;
    assert_eq!(made, 0, "{made} allocations in {HITS} hits");
    let stats = server.cache_stats();
    assert_eq!(stats.misses, misses, "the measured window must be all hits");
    assert_eq!(stats.hits, HITS);
}
