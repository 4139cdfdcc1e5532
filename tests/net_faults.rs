//! Chaos suite for the elastic TCP transport: scripted faults, worker
//! churn, quorum aborts, and reconnect with versioned state handoff.
//!
//! The load-bearing claim is **replayability**: a [`FaultPlan`] is a pure
//! value, the coordinator's reduce runs in worker-id order over the
//! survivor set, and rejoins happen at scheduled rounds — so running the
//! same plan twice must produce bit-identical decisions, estimates, final
//! parameters, and membership logs. Chaos that cannot be replayed cannot
//! be debugged; chaos that can be replayed is just another deterministic
//! trajectory.
//!
//! Hang guard: every socket carries an in-code timeout and the CI job
//! wraps the suite in an outer `timeout`, so an injected stall converts
//! to a typed drop, never a wedged run.

use fda::core::cluster::ClusterConfig;
use fda::core::fda::FdaConfig;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{
    run_chaos_with_spawned_workers, run_chaos_with_thread_workers, run_with_thread_workers,
    DropReason, FaultAction, FaultPlan, MemberEvent, MembershipEvent, NetError, NetReport,
    RejoinPolicy, RoundPolicy, WorkerOutcome,
};
use std::path::Path;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(15);

fn spec(k: usize, steps: u32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda: FdaConfig::linear(0.01),
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "net-faults".to_string(),
    }
}

fn policy(min_workers: usize) -> RoundPolicy {
    RoundPolicy {
        min_workers,
        deposit_timeout: Duration::from_secs(10),
        admissions: Vec::new(),
    }
}

/// Bitwise comparison of two surviving trajectories.
fn assert_bit_identical(a: &NetReport, b: &NetReport, case: &str) {
    assert_eq!(a.decisions, b.decisions, "{case}: decisions diverged");
    assert_eq!(
        a.estimates.len(),
        b.estimates.len(),
        "{case}: estimate count diverged"
    );
    for (step, (x, y)) in a.estimates.iter().zip(&b.estimates).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    assert_eq!(a.survivors, b.survivors, "{case}: survivor sets diverged");
    assert_eq!(a.events, b.events, "{case}: membership logs diverged");
    assert_eq!(a.syncs, b.syncs, "{case}: sync counts diverged");
    assert_eq!(
        a.worker_params, b.worker_params,
        "{case}: final replicas diverged"
    );
    assert_eq!(
        a.final_params, b.final_params,
        "{case}: final mean diverged"
    );
    assert_eq!(
        a.charged_bytes, b.charged_bytes,
        "{case}: charged accounting diverged"
    );
    assert_eq!(
        a.measured_payload_bytes, b.measured_payload_bytes,
        "{case}: measured accounting diverged"
    );
}

fn drops_of(report: &NetReport) -> Vec<MembershipEvent> {
    report
        .events
        .iter()
        .filter(|e| matches!(e.event, MemberEvent::Dropped(_)))
        .copied()
        .collect()
}

/// The acceptance scenario: K = 4 spawned worker **processes**, worker 2
/// scripted to die (process exit) before its step-4 state. The run must
/// complete with K′ = 3 survivors, and twice with the same plan must be
/// bit-identical end to end.
#[test]
fn k4_process_kill_survives_with_k3_bit_identically() {
    let spec = spec(4, 8);
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let plan = FaultPlan::new().fault(2, FaultAction::ExitBeforeState(4));

    let run = || {
        run_chaos_with_spawned_workers(&spec, node_bin, &plan, policy(2), IO_TIMEOUT)
            .expect("chaos run should survive a single death")
    };
    let a = run();
    let b = run();

    assert_eq!(a.survivors, vec![0, 1, 3], "worker 2 must be gone");
    assert_eq!(a.worker_params.len(), 3);
    assert_eq!(a.decisions.len(), 8, "all rounds ran");
    assert_eq!(
        drops_of(&a),
        vec![MembershipEvent {
            round: 4,
            worker: 2,
            event: MemberEvent::Dropped(DropReason::Disconnect),
        }],
        "exactly one drop, at the scripted round"
    );
    assert!(
        a.decisions.iter().any(|&d| d),
        "horizon should exercise a post-drop model AllReduce"
    );
    assert_bit_identical(&a, &b, "k4 process kill");
}

/// Dropping below quorum aborts with the typed error — naming the round
/// and the headcount — instead of hanging or half-finishing.
#[test]
fn below_quorum_aborts_with_typed_error() {
    let spec = spec(4, 8);
    let plan = FaultPlan::new()
        .fault(1, FaultAction::KillBeforeState(3))
        .fault(2, FaultAction::KillBeforeState(3));

    let (report, workers) =
        run_chaos_with_thread_workers(&spec, &plan, policy(3), None, IO_TIMEOUT);
    match report {
        Err(NetError::Quorum {
            round,
            alive,
            min_workers,
        }) => {
            assert_eq!(round, 3);
            assert_eq!(alive, 2);
            assert_eq!(min_workers, 3);
        }
        other => panic!("expected quorum abort, got {other:?}"),
    }
    // The scripted workers ended by fault; the innocent ones lost their
    // coordinator and ended with a (retryable, but unretried) error.
    for id in [1usize, 2] {
        assert!(
            matches!(workers[id], Ok(WorkerOutcome::Faulted { step: 3, .. })),
            "worker {id} should have faulted at step 3: {:?}",
            workers[id]
        );
    }
    for id in [0usize, 3] {
        assert!(workers[id].is_err(), "worker {id} should have lost the run");
    }
}

/// A quorum of 0 still needs one survivor: when every worker is gone the
/// run aborts with the typed error instead of reducing over nobody.
#[test]
fn zero_quorum_aborts_when_every_worker_is_gone() {
    let spec = spec(2, 6);
    let plan = FaultPlan::new()
        .fault(0, FaultAction::KillBeforeState(2))
        .fault(1, FaultAction::KillBeforeState(2));

    let (report, _) = run_chaos_with_thread_workers(&spec, &plan, policy(0), None, IO_TIMEOUT);
    assert!(
        matches!(
            report,
            Err(NetError::Quorum {
                round: 2,
                alive: 0,
                ..
            })
        ),
        "expected a quorum abort at round 2, got {report:?}"
    );
}

/// A bit-flipped state frame fails the checksum and becomes a clean
/// per-worker protocol drop; the survivors' trajectory is replayable.
#[test]
fn corrupt_frame_drops_worker_as_protocol_violation() {
    let spec = spec(3, 6);
    let plan = FaultPlan::new().fault(1, FaultAction::FlipStateBit { step: 2, bit: 137 });

    let run = || run_chaos_with_thread_workers(&spec, &plan, policy(1), None, IO_TIMEOUT);
    let (a, workers_a) = run();
    let (b, _) = run();
    let a = a.expect("run survives a corrupt frame");
    let b = b.expect("run survives a corrupt frame");

    assert_eq!(a.survivors, vec![0, 2]);
    assert_eq!(
        drops_of(&a),
        vec![MembershipEvent {
            round: 2,
            worker: 1,
            event: MemberEvent::Dropped(DropReason::Protocol),
        }]
    );
    assert!(
        workers_a[1].is_err(),
        "the corrupting worker loses its session"
    );
    assert_bit_identical(&a, &b, "corrupt frame");
}

/// A stalled worker trips the round's deposit deadline and is dropped as
/// a timeout; the round completes with the remaining workers.
#[test]
fn stalled_worker_is_dropped_on_deposit_deadline() {
    let spec = spec(3, 5);
    let plan = FaultPlan::new().fault(2, FaultAction::StallState { step: 1, ms: 4_000 });
    let tight = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_millis(1_000),
        admissions: Vec::new(),
    };

    let (report, workers) =
        run_chaos_with_thread_workers(&spec, &plan, tight.clone(), None, IO_TIMEOUT);
    let report = report.expect("run survives a stalled worker");
    assert_eq!(report.survivors, vec![0, 1]);
    assert_eq!(report.decisions.len(), 5, "all rounds ran");
    assert_eq!(
        drops_of(&report),
        vec![MembershipEvent {
            round: 1,
            worker: 2,
            event: MemberEvent::Dropped(DropReason::Timeout),
        }]
    );
    assert!(workers[2].is_err(), "the stalled worker loses its session");
}

/// The full elastic loop: worker 3's state frame is truncated mid-wire at
/// round 2 (a disconnect), it reconnects with backoff, and the scheduled
/// admission re-admits it at round 5 through the versioned `Resume`
/// handoff. All four workers finish; the whole churn trajectory —
/// including the rejoined replica's parameters — is bit-identical across
/// repeats.
#[test]
fn truncated_worker_rejoins_at_scheduled_round_bit_identically() {
    let spec = spec(4, 9);
    let plan = FaultPlan::new()
        .fault(3, FaultAction::TruncateState { step: 2, keep: 9 })
        .admit(5, 3);
    let policy = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_secs(10),
        admissions: plan.admissions.clone(),
    };
    let rejoin = RejoinPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
    };

    let run =
        || run_chaos_with_thread_workers(&spec, &plan, policy.clone(), Some(rejoin), IO_TIMEOUT);
    let (a, workers_a) = run();
    let (b, _) = run();
    let a = a.expect("elastic run completes");
    let b = b.expect("elastic run completes");

    assert_eq!(a.survivors, vec![0, 1, 2, 3], "everyone finishes");
    assert_eq!(a.worker_params.len(), 4);
    assert_eq!(a.decisions.len(), 9);
    let churn: Vec<MembershipEvent> = a
        .events
        .iter()
        .filter(|e| !matches!(e.event, MemberEvent::Joined { rejoin: false }))
        .copied()
        .collect();
    assert_eq!(
        churn,
        vec![
            MembershipEvent {
                round: 2,
                worker: 3,
                event: MemberEvent::Dropped(DropReason::Disconnect),
            },
            MembershipEvent {
                round: 5,
                worker: 3,
                event: MemberEvent::Joined { rejoin: true },
            },
        ],
        "one drop at round 2, one scheduled rejoin at round 5"
    );
    match &workers_a[3] {
        Ok(WorkerOutcome::Completed(summary)) => {
            assert_eq!(summary.rejoins, 1, "exactly one reconnect");
        }
        other => panic!("rejoined worker should complete: {other:?}"),
    }
    assert_bit_identical(&a, &b, "truncate + rejoin");
}

/// The elastic loop under a delta-coded downlink: worker 3 is truncated
/// off the run at round 2 and re-admitted at round 5. Steady-state
/// consensus rides `AvgModelDelta` frames, but the `Resume` handoff stays
/// a dense snapshot — so the rejoining replica lands on the exact
/// reconstruction consensus and the whole churn trajectory, delta frames
/// and all, replays bit for bit.
#[test]
fn truncated_worker_rejoins_under_delta_downlink_bit_identically() {
    let mut spec = spec(4, 9);
    // Θ = 0 keeps a model AllReduce — and therefore a delta downlink — in
    // every round, including the rejoin round.
    spec.fda = FdaConfig::linear(0.0);
    spec.downlink = fda::comm::DownlinkSpec::Delta {
        codec: fda::comm::CodecSpec::Uniform8 { chunk: 256 },
    };
    let plan = FaultPlan::new()
        .fault(3, FaultAction::TruncateState { step: 2, keep: 9 })
        .admit(5, 3);
    let policy = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_secs(10),
        admissions: plan.admissions.clone(),
    };
    let rejoin = RejoinPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
    };

    let run =
        || run_chaos_with_thread_workers(&spec, &plan, policy.clone(), Some(rejoin), IO_TIMEOUT);
    let (a, workers_a) = run();
    let (b, _) = run();
    let a = a.expect("elastic delta run completes");
    let b = b.expect("elastic delta run completes");

    assert_eq!(a.survivors, vec![0, 1, 2, 3], "everyone finishes");
    assert!(a.decisions.iter().all(|&d| d), "Θ = 0 syncs every round");
    assert!(
        a.downlink_model_bytes > 0,
        "delta downlinks actually went out"
    );
    match &workers_a[3] {
        Ok(WorkerOutcome::Completed(summary)) => {
            assert_eq!(summary.rejoins, 1, "exactly one reconnect");
        }
        other => panic!("rejoined worker should complete: {other:?}"),
    }
    assert_eq!(
        a.measured_payload_bytes, a.charged_bytes,
        "measured == charged holds under churn + delta downlink"
    );
    assert_eq!(
        a.downlink_model_bytes, b.downlink_model_bytes,
        "delta frame bytes replay"
    );
    assert_bit_identical(&a, &b, "truncate + rejoin under delta downlink");
}

/// The zero-fault chaos path is the plain path: an empty plan through the
/// chaos driver must reproduce `run_with_thread_workers` bit for bit,
/// with full membership and measured == charged accounting.
#[test]
fn empty_plan_matches_clean_run_bitwise() {
    let spec = spec(3, 6);
    let (chaos, workers) = run_chaos_with_thread_workers(
        &spec,
        &FaultPlan::new(),
        RoundPolicy::default(),
        None,
        IO_TIMEOUT,
    );
    let chaos = chaos.expect("zero-fault chaos run");
    let clean = run_with_thread_workers(&spec).expect("clean run");

    assert_bit_identical(&chaos, &clean, "zero-fault vs clean");
    assert_eq!(chaos.survivors, vec![0, 1, 2]);
    assert!(drops_of(&chaos).is_empty(), "no drops without faults");
    assert_eq!(
        chaos.measured_payload_bytes, chaos.charged_bytes,
        "measured == charged still holds through the chaos driver"
    );
    for (id, w) in workers.iter().enumerate() {
        assert!(
            matches!(w, Ok(WorkerOutcome::Completed(_))),
            "worker {id} should complete: {w:?}"
        );
    }
}

/// ROADMAP 5b over the socket: a learning rate that overflows every
/// replica makes `H(S̄)` infinite in round 0 and NaN from round 1 on. The
/// decision must fail closed — `sync` every round — on the coordinator
/// *and* in each worker's cross-check of the decision byte (a disagreement
/// is a protocol error and would abort the run), and the trajectory must
/// be the simulator's.
#[test]
fn nan_state_synchronizes_on_coordinator_and_workers() {
    use fda::core::fda::Fda;
    use fda::core::strategy::Strategy;

    const STEPS: u32 = 5;
    for variant in [FdaConfig::linear(0.01), FdaConfig::sketch_auto(0.01)] {
        let mut spec = spec(3, STEPS);
        spec.fda = variant;
        spec.cluster.optimizer = fda::optim::OptimizerKind::Sgd { lr: 1e30 };
        let (report, workers) = run_chaos_with_thread_workers(
            &spec,
            &FaultPlan::new(),
            RoundPolicy::default(),
            None,
            IO_TIMEOUT,
        );
        let report = report.expect("a diverged job is not a protocol error");
        for (id, w) in workers.iter().enumerate() {
            assert!(
                matches!(w, Ok(WorkerOutcome::Completed(_))),
                "worker {id} must agree with every decision byte: {w:?}"
            );
        }
        assert!(
            report.estimates[1..].iter().all(|e| e.is_nan()),
            "the job was meant to diverge: {:?}",
            report.estimates
        );
        assert_eq!(report.decisions, vec![true; STEPS as usize]);
        assert_eq!(report.syncs, u64::from(STEPS));
        assert_eq!(report.measured_payload_bytes, report.charged_bytes);

        let task = spec.synth.generate(&spec.task_name);
        let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
        for (round, &decision) in report.decisions.iter().enumerate() {
            let out = sim.step();
            assert_eq!(out.synced, decision, "round {round}: simulator decision");
            let estimate = out.variance_estimate.expect("fda reports estimates");
            assert!(
                estimate.to_bits() == report.estimates[round].to_bits()
                    || (estimate.is_nan() && report.estimates[round].is_nan()),
                "round {round}: simulator estimate {estimate} vs {}",
                report.estimates[round]
            );
        }
    }
}

/// Seeded plans are values: the same seed draws the same chaos, and a
/// drawn plan never schedules worker 0 (quorum floor).
#[test]
fn seeded_plans_replay() {
    for seed in [1u64, 7, 42, 0xDEAD] {
        let a = FaultPlan::from_seed(seed, 6, 12);
        let b = FaultPlan::from_seed(seed, 6, 12);
        assert_eq!(a.faults, b.faults, "seed {seed} must replay");
        assert!(!a.has_fault(0), "seed {seed}: worker 0 must be spared");
    }
}
