//! Failure-layer suite for the elastic transport: worker churn, quorum
//! aborts, and reconnect with versioned state handoff.
//!
//! The machines' failure model is searched exhaustively in memory: every
//! single-fault placement at K = 3 runs in `crates/net/tests/machines.rs`.
//! This suite keeps the scenarios worth a name, on the same in-memory
//! driver, and over TCP one smoke test per path only a socket has — a
//! dead link, the collection deadline mapped onto the read timeout (on a
//! deposit and on a model upload), a checksum failure on a live link, and
//! reconnect, parking and `Resume` across processes. The TCP tests run
//! spawned `fda_node` workers behind the frame relay of `relay/mod.rs`,
//! which injects the very [`Fault`] values the in-memory driver takes.
//!
//! The load-bearing claim is **replayability**: a fault list is a pure
//! value, the coordinator's reduce runs in worker-id order over the
//! survivor set, and rejoins happen at scheduled rounds — so running the
//! same faults twice must produce bit-identical decisions, estimates,
//! final parameters, and membership logs.
//!
//! Hang guard: every socket carries an in-code timeout and the CI job
//! wraps the suite in an outer `timeout`, so an injected stall converts
//! to a typed drop, never a wedged run.

#[path = "../crates/net/tests/in_memory/mod.rs"]
mod in_memory;
mod relay;

use fda::core::cluster::ClusterConfig;
use fda::core::fda::FdaConfig;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{
    run_with_spawned_workers, DropReason, FrameKind, MemberEvent, MembershipEvent, NetError,
    NetReport, RoundPolicy,
};
use in_memory::{run_in_memory, Action, Fault};
use relay::{run_relayed, run_relayed_behind_silent_peers};
use std::path::Path;
use std::time::{Duration, Instant};

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

/// `action` on worker `worker`'s round-`round` frame of `kind`.
fn fault(worker: usize, round: u32, kind: FrameKind, action: Action) -> Fault {
    Fault {
        worker,
        round,
        kind,
        action,
    }
}

/// Worker `worker`'s link closing before it sends its round-`round`
/// drift scalar: a kill, or a frame truncated on the wire.
fn lose(worker: usize, round: u32) -> Fault {
    fault(worker, round, FrameKind::Drift, Action::Disconnect)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bitwise comparison of two surviving trajectories.
fn assert_bit_identical(a: &NetReport, b: &NetReport, case: &str) {
    assert_eq!(a.decisions, b.decisions, "{case}: decisions diverged");
    assert_eq!(
        bits(&a.estimates),
        bits(&b.estimates),
        "{case}: estimates diverged"
    );
    assert_eq!(a.survivors, b.survivors, "{case}: survivor sets diverged");
    assert_eq!(a.events, b.events, "{case}: membership logs diverged");
    assert_eq!(a.syncs, b.syncs, "{case}: sync counts diverged");
    assert_eq!(
        a.worker_params.len(),
        b.worker_params.len(),
        "{case}: replica count"
    );
    for (x, y) in a.worker_params.iter().zip(&b.worker_params) {
        assert_eq!(bits(x), bits(y), "{case}: final replicas diverged");
    }
    assert_eq!(
        bits(&a.final_params),
        bits(&b.final_params),
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

/// The acceptance scenario: K = 4 spawned worker **processes**, worker 2's
/// link cut in its round-4 deposit. The run must complete with K′ = 3
/// survivors, and twice with the same fault must be bit-identical end to
/// end.
#[test]
fn k4_process_kill_survives_with_k3_bit_identically() {
    let spec = spec(4, 8);
    let faults = [lose(2, 4)];

    let run = || {
        run_relayed(&spec, &policy(2), &faults, None)
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
        "exactly one drop, at the faulted round"
    );
    assert!(
        a.decisions.iter().any(|&d| d),
        "horizon should exercise a post-drop model AllReduce"
    );
    assert_bit_identical(&a, &b, "k4 process kill");
}

/// Worker 2 lost at round 5 of a K = 3 run: one fault, its link closed
/// in memory or cut mid-frame by the relay under the TCP driver. Both
/// drivers leave the same decisions, estimates, survivors, membership log,
/// replicas and byte ledgers: the failure model lives in the machine.
#[test]
fn a_lost_worker_leaves_the_same_trajectory_in_memory_and_over_tcp() {
    let spec = spec(3, 8);
    let faults = [lose(2, 5)];
    let memory = run_in_memory(&spec, &policy(1), &faults);
    let memory = memory.report.expect("the in-memory run survives one loss");
    let tcp = run_relayed(&spec, &policy(1), &faults, None).expect("the TCP run survives one loss");

    assert_eq!(memory.survivors, vec![0, 1]);
    assert_bit_identical(&memory, &tcp, "in memory vs over TCP");
}

/// Dropping below quorum aborts with the typed error — naming the round
/// and the headcount — instead of hanging or half-finishing.
#[test]
fn below_quorum_aborts_with_typed_error() {
    let spec = spec(4, 8);
    let run = run_in_memory(&spec, &policy(3), &[lose(1, 3), lose(2, 3)]);
    match run.report {
        Err(NetError::Quorum {
            round,
            alive,
            min_workers,
        }) => assert_eq!((round, alive, min_workers), (3, 2, 3)),
        other => panic!("expected quorum abort, got {other:?}"),
    }
}

/// A quorum of 0 still needs one survivor: when every worker is gone the
/// run aborts with the typed error instead of reducing over nobody.
#[test]
fn zero_quorum_aborts_when_every_worker_is_gone() {
    let spec = spec(2, 6);
    let run = run_in_memory(&spec, &policy(0), &[lose(0, 2), lose(1, 2)]);
    assert!(
        matches!(
            run.report,
            Err(NetError::Quorum {
                round: 2,
                alive: 0,
                ..
            })
        ),
        "expected a quorum abort at round 2, got {:?}",
        run.report
    );
}

/// A bit-flipped deposit frame fails the live link's CRC and becomes a
/// clean per-worker protocol drop; the survivors' trajectory is
/// replayable.
#[test]
fn corrupt_frame_drops_worker_as_protocol_violation() {
    let spec = spec(3, 6);
    let faults = [fault(1, 2, FrameKind::Drift, Action::Corrupt)];

    let run =
        || run_relayed(&spec, &policy(1), &faults, None).expect("run survives a corrupt frame");
    let a = run();
    let b = run();

    assert_eq!(a.survivors, vec![0, 2]);
    assert_eq!(
        drops_of(&a),
        vec![MembershipEvent {
            round: 2,
            worker: 1,
            event: MemberEvent::Dropped(DropReason::Protocol),
        }]
    );
    assert_bit_identical(&a, &b, "corrupt frame");
}

/// A 250 ms deadline, which the relay's holds are measured in: a frame
/// held past it arrives after 1 s.
fn tight() -> RoundPolicy {
    RoundPolicy {
        deposit_timeout: Duration::from_millis(250),
        ..policy(1)
    }
}

/// A deposit held past the deadline trips the socket read timeout the
/// deadline maps onto and its worker is dropped as a timeout; the round
/// completes with the remaining workers.
#[test]
fn stalled_worker_is_dropped_on_deposit_deadline() {
    let spec = spec(3, 5);
    let faults = [fault(2, 1, FrameKind::Drift, Action::HoldPast)];

    let report =
        run_relayed(&spec, &tight(), &faults, None).expect("run survives a stalled worker");
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
}

/// A model upload held past the deadline is a timeout drop like a late
/// deposit: every collection, not only the drift scalars and summaries,
/// runs under the deadline, so a stalled upload costs the round 250 ms,
/// not the socket's 60 s I/O timeout. Θ = 0 syncs every round.
#[test]
fn stalled_model_upload_is_dropped_on_the_deadline() {
    let mut spec = spec(3, 4);
    spec.fda = FdaConfig::linear(0.0);
    let faults = [fault(2, 1, FrameKind::Model, Action::HoldPast)];

    let report =
        run_relayed(&spec, &tight(), &faults, None).expect("run survives a stalled upload");
    assert_eq!(report.survivors, vec![0, 1]);
    assert_eq!(report.decisions, vec![true; 4], "all rounds ran and synced");
    assert_eq!(
        drops_of(&report),
        vec![MembershipEvent {
            round: 1,
            worker: 2,
            event: MemberEvent::Dropped(DropReason::Timeout),
        }]
    );
    assert_eq!(report.measured_payload_bytes, report.charged_bytes);
}

/// The relay is transparent: with no fault, a relayed run of spawned
/// workers is the direct spawned runner's run — every report field,
/// the raw socket byte counters included. A frame held inside the
/// deadline changes none of it either (held 500 ms of a 1 s deadline, a
/// margin a slow debug step cannot eat).
#[test]
fn a_fault_free_relayed_run_equals_the_direct_spawned_run() {
    let spec = spec(3, 6);
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let direct = run_with_spawned_workers(&spec, node_bin).expect("direct run");
    let relayed = run_relayed(&spec, &RoundPolicy::default(), &[], None).expect("relayed run");
    assert!(direct.raw_rx_bytes > direct.measured_payload_bytes);
    assert_eq!(format!("{direct:?}"), format!("{relayed:?}"));

    let held = [fault(1, 3, FrameKind::Drift, Action::HoldInside)];
    let inside = RoundPolicy {
        deposit_timeout: Duration::from_secs(1),
        ..policy(1)
    };
    let held = run_relayed(&spec, &inside, &held, None).expect("held run");
    assert_eq!(format!("{direct:?}"), format!("{held:?}"));
}

/// A connection that reaches the coordinator ahead of the workers and
/// never sends its hello is a stray, not a stall: its hello is awaited
/// beside the workers' (each connection for its own 2 s), so the cluster
/// forms from the workers queued behind it. Sixteen such connections cost
/// no more than one — read one after another, they would exhaust
/// formation's 30 s accept budget. Each run ends well inside that budget
/// and is the run without them.
#[test]
fn a_silent_connection_does_not_stall_formation() {
    let spec = spec(2, 4);
    let policy = RoundPolicy::default();
    let plain = run_relayed(&spec, &policy, &[], None).expect("relayed run");
    for silent in [1, 16] {
        let t0 = Instant::now();
        let behind = run_relayed_behind_silent_peers(&spec, &policy, silent)
            .unwrap_or_else(|e| panic!("run past {silent} silent peers: {e}"));
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(10),
            "{silent} silent peers: formation stalled for {took:?}"
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{behind:?}"),
            "{silent} silent peers"
        );
    }
}

/// The full elastic loop across processes: worker 3's deposit frame is
/// cut mid-wire at round 2 (a disconnect), its process reconnects with
/// backoff and is parked, and the scheduled admission re-admits it at
/// round 5 through the versioned `Resume` handoff. All four workers
/// finish; the whole churn trajectory — including the rejoined replica's
/// parameters — is bit-identical across repeats.
#[test]
fn truncated_worker_rejoins_at_scheduled_round_bit_identically() {
    let spec = spec(4, 9);
    let faults = [lose(3, 2)];
    let policy = RoundPolicy {
        admissions: vec![(5, 3)],
        ..policy(1)
    };

    let run = || run_relayed(&spec, &policy, &faults, None).expect("elastic run completes");
    let a = run();
    let b = run();

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
    assert_bit_identical(&a, &b, "truncate + rejoin");
}

/// The elastic loop under a delta-coded downlink: worker 3 is lost at
/// round 2 and re-admitted at round 5. Steady-state consensus rides
/// `AvgModelDelta` frames, but the `Resume` handoff stays a dense snapshot
/// — so the rejoining replica lands on the exact reconstruction consensus
/// and the whole churn trajectory, delta frames and all, replays bit for
/// bit.
#[test]
fn truncated_worker_rejoins_under_delta_downlink_bit_identically() {
    let mut spec = spec(4, 9);
    // Θ = 0 keeps a model AllReduce — and therefore a delta downlink — in
    // every round, including the rejoin round.
    spec.fda = FdaConfig::linear(0.0);
    spec.downlink = fda::comm::DownlinkSpec::Delta {
        codec: fda::comm::CodecSpec::Uniform8 { chunk: 256 },
    };
    let policy = RoundPolicy {
        admissions: vec![(5, 3)],
        ..policy(1)
    };

    let run = || run_in_memory(&spec, &policy, &[lose(3, 2)]);
    let (a, b) = (run(), run());
    assert!(
        a.sessions.contains(&(3, Ok(4))),
        "the rejoined session runs rounds 5..9: {:?}",
        a.sessions
    );
    let a = a.report.expect("elastic delta run completes");
    let b = b.report.expect("elastic delta run completes");

    assert_eq!(a.survivors, vec![0, 1, 2, 3], "everyone finishes");
    assert!(a.decisions.iter().all(|&d| d), "Θ = 0 syncs every round");
    assert!(
        a.downlink_model_bytes > 0,
        "delta downlinks actually went out"
    );
    assert_eq!(
        a.measured_payload_bytes, a.charged_bytes,
        "measured == charged holds under churn + delta downlink"
    );
    assert_eq!(
        a.downlink_model_bytes, b.downlink_model_bytes,
        "delta frame bytes replay"
    );
    assert_bit_identical(&a, &b, "loss + rejoin under delta downlink");
}

/// ROADMAP 5b on the machines: a learning rate that overflows every
/// replica makes `H(S̄)` infinite in round 0 and NaN from round 1 on. The
/// decision must fail closed — `sync` every round — on the coordinator
/// *and* in each worker's cross-check of the decision byte (a
/// disagreement is a protocol error and would end the worker's session),
/// and the trajectory must be the simulator's.
#[test]
fn nan_state_synchronizes_on_coordinator_and_workers() {
    use fda::core::fda::Fda;
    use fda::core::strategy::Strategy;

    const STEPS: u32 = 5;
    for variant in [FdaConfig::linear(0.01), FdaConfig::sketch_auto(0.01)] {
        let mut spec = spec(3, STEPS);
        spec.fda = variant;
        spec.cluster.optimizer = fda::optim::OptimizerKind::Sgd { lr: 1e30 };
        let run = run_in_memory(&spec, &RoundPolicy::default(), &[]);
        let report = run.report.expect("a diverged job is not a protocol error");
        assert_eq!(run.sessions.len(), 3, "every session ends");
        for (id, session) in &run.sessions {
            assert_eq!(
                session,
                &Ok(u64::from(STEPS)),
                "worker {id} must agree with every decision byte"
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
