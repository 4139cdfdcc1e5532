//! Injectable monotonic clock so span timings are testable without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic nanosecond source. Spans take `&dyn Clock` so tests can
/// substitute [`ManualClock`] and assert exact recorded durations.
pub trait Clock: Send + Sync {
    fn now_ns(&self) -> u64;
}

/// Wall clock: nanoseconds since the first observation in this process.
pub struct MonotonicClock;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        epoch().elapsed().as_nanos() as u64
    }
}

/// The process-global monotonic clock used by `Histogram::span()`.
pub fn monotonic() -> &'static MonotonicClock {
    static CLOCK: MonotonicClock = MonotonicClock;
    &CLOCK
}

/// Test clock: time advances only when told to.
#[derive(Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self {
            ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn advance_ns(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::SeqCst);
    }

    pub fn advance_us(&self, delta: u64) {
        self.advance_ns(delta * 1_000);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}
