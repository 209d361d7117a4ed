//! A counting allocator: the system allocator with per-thread counters
//! of allocator calls, bytes asked for, bytes live and their peak.
//!
//! A test binary that bounds what a code path allocates installs it as
//! its own allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: polaris_obs::alloc::Counting = polaris_obs::alloc::Counting;
//! ```
//!
//! Every counter is per thread. The harness runs a binary's tests on
//! parallel threads, and a sibling's allocations must not land in a
//! measured window, so a measured path runs on the thread that reads
//! the counters. Without the `#[global_allocator]` line the counters
//! stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counted. See the module doc.
pub struct Counting;

thread_local! {
    // `const` + `Cell`: reachable from the allocator hook without
    // allocating or registering a destructor.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread holds now (allocated minus freed), and the most
    // it has held since `peak_live_bytes` last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one call asking for `asked` bytes that changes the bytes held
/// by `delta`.
fn note(asked: usize, delta: i64) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + asked as u64));
    hold(delta);
}

fn hold(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`; the hook only
// bumps thread-local counters, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) the calling thread has
/// made. Frees are not counted.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes the calling thread has asked for, a realloc counting its new
/// size.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes the calling thread holds now: allocated minus freed. A block
/// freed by another thread than the one that allocated it moves both
/// threads' numbers.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The most bytes the calling thread held at once while running `f`,
/// beyond what it held going in.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = live_bytes();
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate's own test binary runs on the system allocator, so the
    // hooks are driven by hand here; the counters move all the same.
    #[test]
    fn hooks_count_calls_bytes_and_the_peak_held() {
        let layout = Layout::from_size_align(1000, 8).unwrap();
        let (calls0, bytes0) = (calls(), bytes());
        // SAFETY: the block is freed with the layout it was last given.
        let ((), peak) = peak_live_bytes(|| unsafe {
            let p = Counting.alloc(layout);
            let p = Counting.realloc(p, layout, 3000);
            Counting.dealloc(p, Layout::from_size_align(3000, 8).unwrap());
        });
        assert_eq!(calls() - calls0, 2);
        assert_eq!(bytes() - bytes0, 4000);
        assert_eq!(peak, 3000);
    }
}
