//! Live heap bytes and their peak, counted at the allocator.
//!
//! The resident set of these processes is not a repeatable number: with
//! address-space randomisation and one malloc arena per thread, `VmHWM`
//! of the same binary on the same input moves by 15 % from process to
//! process, and its modes move again with any unrelated change to the
//! code. What the program asked for is repeatable, so that is the memory
//! metric; `VmHWM` is still printed, as a diagnostic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct Counting;

/// Bytes live, as far as threads have reported, and the most that was.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread reports once it has this much unreported, so that two shards
/// allocating side by side do not share a cache line on every call. The
/// peak is exact to this many bytes per thread.
const REPORT_EVERY: isize = 64 << 10;

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing and registers nothing, which an allocator must not do.
    static UNREPORTED: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // No thread-local any more while the thread is torn down: report at
    // once then.
    let report = UNREPORTED
        .try_with(|unreported| {
            let total = unreported.get() + delta;
            if total.abs() >= REPORT_EVERY {
                unreported.set(0);
                Some(total)
            } else {
                unreported.set(total);
                None
            }
        })
        .unwrap_or(Some(delta));
    if let Some(total) = report {
        // Statistics only: nothing is published through these.
        let live = LIVE.fetch_add(total, Ordering::Relaxed) + total;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is passed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; `note` only counts and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The most heap that was live at once so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}
