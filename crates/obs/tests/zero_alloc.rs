//! Disabled-path contract: with telemetry off (the default), metric
//! updates and spans perform zero heap allocations and store nothing.
//! Lives in its own test binary so the counting global allocator and the
//! process-global enable flag are isolated from the other suites.

use fda_obs::alloc_count::{allocs, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_allocates_nothing_and_records_nothing() {
    assert!(!fda_obs::enabled(), "telemetry must default to off");

    // Registration is the only allocating operation; do it up front.
    let c = fda_obs::registry().counter("zero_alloc_counter");
    let h = fda_obs::registry().histogram("zero_alloc_hist");

    let before = allocs();
    for i in 0..1000 {
        c.add(7);
        h.record(i as u64);
        let span = h.span();
        assert_eq!(span.elapsed_ns(), 0);
        drop(span);
    }
    let after = allocs();

    assert_eq!(after - before, 0, "disabled path must not allocate");
    assert_eq!(c.get(), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);

    // Flipping the flag on makes the same handles live.
    fda_obs::set_enabled(true);
    c.add(2);
    h.record(3);
    assert_eq!(c.get(), 2);
    assert_eq!(h.count(), 1);
    fda_obs::set_enabled(false);
}
