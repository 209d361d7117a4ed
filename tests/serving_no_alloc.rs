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

use polaris_obs::alloc::{calls as allocs, Counting};
use polaris_obs::Obs;
use polaris_serve::prelude::*;

/// Counts every allocation (alloc, alloc_zeroed, realloc) the calling
/// thread makes, as `crates/msg/tests/no_alloc.rs` does. Per thread, so
/// the count is sound on a 1-core box and beside sibling tests: the
/// measured window holds what this thread asked for and nothing else.
#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
