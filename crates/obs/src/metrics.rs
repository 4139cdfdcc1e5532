//! Process-global metrics: counters and log₂-bucket histograms.
//!
//! Handles are `&'static` (leaked on registration, once per name for the
//! process lifetime) so hot paths hold a direct pointer and never take the
//! registry lock. Every mutation is gated on the global enable flag; the
//! disabled path is a relaxed load + branch and performs no stores and no
//! allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::{self, Clock};
use crate::span::Span;

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; the last bucket additionally absorbs
/// everything above its lower bound.
pub const HIST_BUCKETS: usize = 64;

/// Monotonically increasing u64 counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed log₂-bucket histogram of u64 samples (by convention microseconds
/// for span timings, bytes for payload sizes).
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`, clamped
/// to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Start a span that records elapsed microseconds into this histogram
    /// when dropped. When telemetry is disabled the span is inert (no clock
    /// read, no allocation).
    pub fn span(&'static self) -> Span<'static> {
        self.span_with(clock::monotonic())
    }

    /// Like [`Histogram::span`] with an explicit clock (for tests).
    pub fn span_with<'c>(&'static self, clock: &'c dyn Clock) -> Span<'c> {
        Span::start(self, clock)
    }
}

enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

/// Named metric store. `counter`/`histogram` get-or-register under a
/// mutex and hand back `&'static` handles; see the [`crate::counter!`]-style
/// macros for call-site caching.
pub struct Registry {
    metrics: Mutex<Vec<(&'static str, Metric)>>,
}

/// A point-in-time copy of every registered metric, for rendering.
pub enum MetricSnapshot {
    Counter {
        name: &'static str,
        value: u64,
    },
    Histogram {
        name: &'static str,
        buckets: Vec<u64>,
        sum: u64,
        count: u64,
    },
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            metrics: Mutex::new(Vec::new()),
        }
    }

    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut metrics = self.metrics.lock().unwrap();
        for (n, m) in metrics.iter() {
            if *n == name {
                match m {
                    Metric::Counter(c) => return c,
                    _ => panic!("metric {name:?} already registered with a different type"),
                }
            }
        }
        let handle: &'static Counter = Box::leak(Box::new(Counter::new(name)));
        metrics.push((name, Metric::Counter(handle)));
        handle
    }

    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        for (n, m) in metrics.iter() {
            if *n == name {
                match m {
                    Metric::Histogram(h) => return h,
                    _ => panic!("metric {name:?} already registered with a different type"),
                }
            }
        }
        let handle: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
        metrics.push((name, Metric::Histogram(handle)));
        handle
    }

    /// Snapshot every metric in registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(_, m)| match m {
                Metric::Counter(c) => MetricSnapshot::Counter {
                    name: c.name,
                    value: c.get(),
                },
                Metric::Histogram(h) => MetricSnapshot::Histogram {
                    name: h.name,
                    buckets: (0..HIST_BUCKETS).map(|i| h.bucket(i)).collect(),
                    sum: h.sum(),
                    count: h.count(),
                },
            })
            .collect()
    }
}
