//! Test support: the counting global allocator behind the allocation
//! fences (`crates/{core,net}/tests/alloc_regression.rs`,
//! `crates/obs/tests/zero_alloc.rs`). A fence installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: fda_obs::alloc_count::CountingAlloc = fda_obs::alloc_count::CountingAlloc;
//! ```
//!
//! in its own test binary and reads the counters of *its own thread*, so
//! work on other threads (socket workers, pool lanes, the test harness)
//! never shows up in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting this thread's `alloc` and
/// `realloc` calls.
pub struct CountingAlloc;

thread_local! {
    // Const-init `Cell`s carry no destructor and no lazy initialization,
    // so the allocator can touch them without recursing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_BYTES: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if LARGE_BYTES
        .try_with(Cell::get)
        .is_ok_and(|large| size >= large)
    {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `record` only touches const-initialized
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// This thread's allocations.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// This thread's allocations of at least [`set_large_bytes`] bytes (none
/// until a threshold is set).
pub fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

/// Sets the size from which this thread's allocations count as large.
pub fn set_large_bytes(bytes: usize) {
    LARGE_BYTES.with(|c| c.set(bytes));
}
