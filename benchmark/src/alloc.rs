//! A counting wrapper around the system allocator, for `alloc.count_per_op`
//! and `alloc.bytes_per_op`. Counting is off unless the traced arm turns it
//! on, so the untraced passes pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Statistics only: the counters publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn count(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with counting on and return its result with the number of
/// allocations and the bytes requested while it ran (on every thread).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (count0, bytes0) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.store(true, Relaxed);
    let result = f();
    COUNTING.store(false, Relaxed);
    (
        result,
        ALLOCATIONS.load(Relaxed) - count0,
        BYTES.load(Relaxed) - bytes0,
    )
}
