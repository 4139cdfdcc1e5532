//! `fda_obs` — zero-dependency observability for the FDA stack.
//!
//! Three layers, all optional at runtime:
//!
//! 1. **Metrics registry** ([`Registry`]): process-global named counters
//!    and log₂-bucket histograms backed by relaxed atomics. Every
//!    update is gated on one relaxed [`AtomicBool`] load, so the disabled
//!    path is a predictable branch that allocates nothing and never touches
//!    model arithmetic — bit-identity invariants (`golden_trajectory`,
//!    `net_parity`, `codec_parity`) hold with telemetry on or off because
//!    telemetry only *reads* timings and byte counts, never values.
//! 2. **Spans** ([`span::Span`]): RAII guards that record elapsed
//!    microseconds into a histogram on drop. The clock is behind the
//!    [`clock::Clock`] trait so tests can drive time deterministically.
//! 3. **Events** ([`event`]): a versioned JSONL schema for per-round and
//!    end-of-run records, identical between the simulator and the socket
//!    transport, plus a Prometheus text-exposition scrape endpoint
//!    ([`scrape`]) for live inspection of the registry.
//!
//! Telemetry is **off by default**; `set_enabled(true)` turns the whole
//! layer on. Handles may be registered while disabled (registration is the
//! only allocating operation) and update cheaply in either state.

#[doc(hidden)]
pub mod alloc_count;
pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod scrape;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{
    read_jsonl, DropRecord, JsonlWriter, MembershipRecord, RoundEvent, RunEvent, SCHEMA_VERSION,
};
pub use json::Json;
pub use metrics::{Counter, Histogram, Registry, HIST_BUCKETS};
pub use scrape::MetricsServer;
pub use span::Span;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable telemetry. Cheap; callable at any time.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently enabled (one relaxed atomic load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolve (and cache at the call site) a `&'static Counter` by name.
///
/// The `OnceLock` makes the steady-state cost of a hot-path counter update
/// one pointer load + one relaxed atomic add, with no registry lookup.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolve (and cache at the call site) a `&'static Histogram` by name.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}
