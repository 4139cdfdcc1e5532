//! Allocation-regression fence for the transport's steady-state round
//! loop: the coordinator's per-round allocation count must be a small
//! constant — payload buffers, receive buffers, deposit slots and
//! broadcast scratch are round-persistent, so growing the run by N rounds
//! may only add the constant per-round bookkeeping (the reduce's
//! reference lists, the round log), never per-byte work like frame
//! re-encoding, `to_vec` copies of received payloads, or a decoded upload.
//! The worker's side is pinned exactly: its machine allocates nothing per
//! round beyond local training but the sketch estimate's three.
//!
//! Measured with a *thread-local* counter inside the global allocator:
//! `run_with_thread_workers` runs the coordinator on the calling thread
//! and the workers on their own threads, so the calling thread's count is
//! exactly the coordinator's; the in-memory driver counts only inside the
//! worker machines' calls. Lives in its own test binary so the counting
//! allocator is isolated from the other suites.

mod in_memory;

use fda_core::cluster::ClusterConfig;
use fda_core::fda::FdaConfig;
use fda_core::wire::JobSpec;
use fda_data::synth::SynthSpec;
use fda_net::{FrameKind, Input, Output, RoundPolicy, WorkerMachine};
use fda_obs::alloc_count::{allocs, large_allocs, set_large_bytes, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn job(k: usize, fda: FdaConfig, steps: u32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda,
        codec: fda_comm::CodecSpec::Dense,
        downlink: fda_comm::DownlinkSpec::Dense,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "alloc-regression".to_string(),
    }
}

/// Runs `spec` and returns the coordinator thread's `(allocations,
/// large allocations)` for the whole run, and its sync count.
fn coordinator_allocs(spec: &JobSpec) -> (u64, u64, u64) {
    let before = (allocs(), large_allocs());
    let report = fda_net::run_with_thread_workers(spec).expect("alloc-fence run");
    let after = (allocs(), large_allocs());
    assert_eq!(
        report.decisions.len(),
        spec.steps as usize,
        "all rounds ran"
    );
    (after.0 - before.0, after.1 - before.1, report.syncs)
}

/// Differencing two run lengths cancels the per-run setup (listener,
/// handshakes, config/resume encoding, deposit slots, final collection),
/// so the slope is the coordinator's marginal `(allocations, large
/// allocations)` per round. Also returns the long run's sync count.
fn per_round(job_of: impl Fn(u32) -> JobSpec) -> (f64, f64, u64) {
    // Warm-up: metric registration, runtime one-time init.
    let _ = coordinator_allocs(&job_of(3));
    let (short_n, long_n) = (6u32, 30u32);
    let short = coordinator_allocs(&job_of(short_n));
    let long = coordinator_allocs(&job_of(long_n));
    assert!(
        long.0 >= short.0,
        "longer run cannot allocate less ({} vs {})",
        long.0,
        short.0
    );
    let slope = |l: u64, s: u64| (l as f64 - s as f64) / f64::from(long_n - short_n);
    (slope(long.0, short.0), slope(long.1, short.1), long.2)
}

/// Per-round allocation budget of the coordinator, on rounds with and
/// without a sync. It has headroom over the observed cost but sits far
/// below what any per-send encode buffer or per-recv `to_vec` would add.
const BUDGET_PER_ROUND: f64 = 8.0;

fn assert_within_budget(per_round: f64, leg: &str) {
    assert!(
        per_round <= BUDGET_PER_ROUND,
        "{leg}: coordinator allocates {per_round:.1}/round; budget is \
         {BUDGET_PER_ROUND}/round — did a per-round encode buffer or payload \
         copy sneak back into the hot path?"
    );
}

/// The state-only fence: a Θ = ∞ job (the steady-state fast path), whose
/// every round the drift scalars settle (phase A alone).
#[test]
fn coordinator_round_loop_allocations_are_flat() {
    const K: usize = 3;
    let (per_round, _, syncs) = per_round(|steps| job(K, FdaConfig::linear(f32::INFINITY), steps));
    assert_eq!(syncs, 0, "Θ = ∞ must stay state-only");
    assert_within_budget(per_round, "certified rounds");
}

/// The phase-B fence: rounds the drift scalars cannot settle and that do
/// not sync. One worker under the exact monitor has `H(S̄) = ‖u‖² − ‖u‖²
/// = 0` exactly, so at Θ = 0 no round certifies (`m > 0`) and none
/// syncs: every round runs `Drift` → `SummaryRequest` → `Summary` →
/// `AvgState`.
#[test]
fn phase_b_rounds_without_a_sync_allocate_within_the_same_budget() {
    let exact = FdaConfig {
        variant: fda_core::fda::FdaVariant::Exact,
        theta: 0.0,
    };
    let (per_round, _, syncs) = per_round(|steps| job(1, exact, steps));
    assert_eq!(syncs, 0, "H = 0 never exceeds Θ = 0");
    assert_within_budget(per_round, "phase-B rounds");
}

/// The synchronizing fence: a dense Θ = 0 SketchFDA job, where every
/// round falls through phase A — a drift scalar, a summary request and a
/// sketch from every worker — then deposits a model from every worker and
/// broadcasts the consensus. Each upload is decoded into its worker's
/// slot, so the coordinator allocates nothing model-sized per round, and
/// its per-round count stays within the budget and does not grow with K.
#[test]
fn synchronizing_rounds_allocate_nothing_model_sized_at_any_k() {
    let cluster = ClusterConfig::small_test(1);
    let dim = cluster.model.build(cluster.seed, 0).param_count();
    set_large_bytes(dim * 4);
    let mut slopes = Vec::new();
    for k in [2usize, 3] {
        let (all, large, syncs) = per_round(|steps| job(k, FdaConfig::sketch_auto(0.0), steps));
        assert_eq!(syncs, 30, "K = {k}: Θ = 0 syncs every round");
        assert_eq!(
            large, 0.0,
            "K = {k}: the coordinator allocates {large:.1} model-sized buffers per \
             round — is an upload decoded into a fresh Vec again?"
        );
        assert_within_budget(all, &format!("K = {k}: phase-B rounds that sync"));
        slopes.push(all);
    }
    assert_eq!(
        slopes[0], slopes[1],
        "the coordinator's per-round allocations grow with K ({slopes:?} at K = 2, 3)"
    );
}

/// One worker machine's allocations per round beyond local training: the
/// slope of the machines' own count (inside their `handle` and `poll`
/// calls) between two in-memory run lengths, less the slope of as many
/// bare `Worker::step_once` calls on workers built the same way, per
/// worker. Also returns the long run's sync count.
fn worker_machine_per_round(job_of: impl Fn(u32) -> JobSpec) -> (f64, u64) {
    let (short_n, long_n) = (6u32, 30u32);
    let beyond_training = |steps: u32| {
        let spec = job_of(steps);
        let run = in_memory::run_in_memory(&spec, &RoundPolicy::default(), &[]);
        let syncs = run.report.expect("an in-memory run").syncs;
        let task = spec.synth.generate(&spec.task_name);
        let mut training = 0;
        for id in 0..spec.cluster.workers {
            let mut worker = spec.cluster.build_worker(&task.train, id);
            let before = allocs();
            for _ in 0..steps {
                worker.step_once(&task.train);
            }
            training += allocs() - before;
        }
        (run.worker_allocs as f64 - training as f64, syncs)
    };
    let (short, _) = beyond_training(short_n);
    let (long, syncs) = beyond_training(long_n);
    let k = job_of(long_n).cluster.workers as f64;
    ((long - short) / f64::from(long_n - short_n) / k, syncs)
}

/// The worker-side fence, pinned exactly, so that one per-round copy of a
/// drift, summary or model payload fails it. A certified round (Θ = ∞)
/// allocates nothing beyond local training. A phase-B round that syncs
/// (dense SketchFDA, Θ = 0) allocates 3, all in `Replica::check` →
/// `SketchMonitor::estimate` → `AmsSketch::estimate_sq_norm`: its row
/// `Vec`, `median_f32`'s f64 copy and the sorted copy `stats::quantile`
/// makes. ROADMAP item 17 takes those 3 to 0.
#[test]
fn worker_machines_allocate_nothing_per_round_beyond_training_and_the_estimate() {
    const K: usize = 3;
    let (certified, syncs) =
        worker_machine_per_round(|steps| job(K, FdaConfig::linear(f32::INFINITY), steps));
    assert_eq!(syncs, 0, "Θ = ∞ must stay state-only");
    assert_eq!(
        certified, 0.0,
        "certified rounds: a worker allocates {certified}/round"
    );
    let (phase_b, syncs) =
        worker_machine_per_round(|steps| job(K, FdaConfig::sketch_auto(0.0), steps));
    assert_eq!(syncs, 30, "Θ = 0 syncs every round");
    assert_eq!(
        phase_b, 3.0,
        "phase-B rounds that sync: a worker allocates {phase_b}/round"
    );
}

/// A handoff is checked before anything is built for it: a truncated
/// `Resume` is refused on its own bytes, so refusing it allocates a
/// handful of times, not the task generation and replica build (a
/// dataset's worth of allocations) that a valid one pays for.
#[test]
fn a_truncated_resume_is_refused_before_the_replica_is_built() {
    let spec = job(2, FdaConfig::linear(0.01), 3);
    let run = in_memory::run_in_memory(&spec, &RoundPolicy::default(), &[]);
    let mut to_worker = run.to_workers.into_iter().filter(|(id, _)| *id == 0);
    let (_, (config, epoch, job)) = to_worker.next().expect("the job");
    let (_, (resume, _, handoff)) = to_worker.next().expect("the handoff");
    assert_eq!((config, resume), (FrameKind::Config, FrameKind::Resume));
    let mut worker = WorkerMachine::new(0, 0);
    let frame = |kind, payload| Input::Frame {
        from: 0,
        kind,
        epoch,
        payload,
    };
    worker.handle(frame(config, &job));
    while worker.poll().is_some() {}

    let before = allocs();
    worker.handle(frame(resume, &handoff[..handoff.len() / 2]));
    let refused = matches!(worker.poll(), Some(Output::Done(Err(_))));
    let spent = allocs() - before;
    assert!(refused, "a truncated handoff is a protocol error");
    assert!(
        spent <= 8,
        "refusing a truncated Resume allocated {spent} times — is the task \
         generated before the handoff is decoded again?"
    );
}
