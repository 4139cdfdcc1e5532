//! Allocation-regression fence for the transport's steady-state round
//! loop: the coordinator's per-round allocation count must be a small
//! constant — payload buffers, receive buffers, and broadcast scratch are
//! round-persistent, so growing the run by N rounds may only add the
//! constant per-round bookkeeping (per-worker state decodes, the round
//! log), never per-byte work like frame re-encoding or `to_vec` copies of
//! received payloads.
//!
//! Measured with a *thread-local* counter inside the global allocator:
//! `run_with_thread_workers` runs the coordinator on the calling thread
//! and the workers on their own threads, so the calling thread's count is
//! exactly the coordinator's. Lives in its own test binary so the
//! counting allocator is isolated from the other suites.

use fda_core::cluster::ClusterConfig;
use fda_core::fda::FdaConfig;
use fda_core::wire::JobSpec;
use fda_data::synth::SynthSpec;
use fda_obs::alloc_count::{allocs, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const K: usize = 3;

/// Runs a Θ = ∞ job (state-only rounds — the steady-state fast path) and
/// returns the coordinator thread's allocation count for the whole run.
fn coordinator_allocs(steps: u32) -> u64 {
    let spec = JobSpec {
        cluster: ClusterConfig {
            workers: K,
            ..ClusterConfig::small_test(K)
        },
        fda: FdaConfig::linear(f32::INFINITY),
        codec: fda_comm::CodecSpec::Dense,
        downlink: fda_comm::DownlinkSpec::Dense,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "alloc-regression".to_string(),
    };
    let before = allocs();
    let report = fda_net::run_with_thread_workers(&spec).expect("alloc-fence run");
    let after = allocs();
    assert_eq!(report.decisions.len(), steps as usize, "all rounds ran");
    assert_eq!(report.syncs, 0, "Θ = ∞ must stay state-only");
    after - before
}

/// The fence: differencing two run lengths cancels the per-run setup
/// (listener, handshakes, config/resume encoding, final collection), so
/// the slope is the coordinator's marginal allocations per round. The
/// budget has headroom over the observed cost (K state decodes plus the
/// round log and telemetry bookkeeping) but sits far below what any
/// per-send encode buffer or per-recv `to_vec` would add.
#[test]
fn coordinator_round_loop_allocations_are_flat() {
    // Warm-up: metric registration, runtime one-time init.
    let _ = coordinator_allocs(3);
    let short = coordinator_allocs(6);
    let long = coordinator_allocs(30);
    assert!(
        long >= short,
        "longer run cannot allocate less ({long} vs {short})"
    );
    let per_round = (long - short) as f64 / (30.0 - 6.0);
    const BUDGET_PER_ROUND: f64 = 8.0;
    assert!(
        per_round <= BUDGET_PER_ROUND,
        "coordinator allocates {per_round:.1}/round (short run {short}, long \
         run {long}); budget is {BUDGET_PER_ROUND}/round — did a per-round \
         encode buffer or payload copy sneak back into the hot path?"
    );
}
