//! Thread-local allocation counter behind the global allocator — the
//! method of `crates/net/tests/alloc_regression.rs`:
//! `run_with_thread_workers` runs the coordinator on the calling thread
//! and the workers on their own, so the calling thread's count is exactly
//! the coordinator's. Compiled in for traced and untraced runs alike, so
//! the two differ only by telemetry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct ThreadCountingAlloc;

thread_local! {
    // Const-init `Cell<u64>`: no destructor and no lazy initialization,
    // so the allocator can touch it without recursing.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own layout and
// pointer; the only addition is a thread-local counter bump that cannot
// allocate (see the const-init note above).
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}
