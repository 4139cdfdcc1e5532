//! The round protocol without sockets: one coordinator machine and K
//! worker machines driven from the calling thread, frames carried in
//! per-link queues — no socket, no sleep, no spawned thread.
//!
//! Two claims are pinned here. The machines alone reproduce the
//! sequential simulator bit for bit (every replica, decision and
//! estimate, with measured == charged), so the TCP driver adds transport
//! and nothing else. And a worker lost mid-run leaves the same trajectory
//! whether its link closes in memory or its socket dies under the TCP
//! driver: the failure model lives in the machine.

use fda_comm::{CodecSpec, DownlinkSpec};
use fda_core::cluster::ClusterConfig;
use fda_core::fda::{Fda, FdaConfig};
use fda_core::strategy::Strategy;
use fda_core::wire::JobSpec;
use fda_data::synth::SynthSpec;
use fda_net::{
    run_chaos_with_thread_workers, CoordinatorMachine, DropReason, FaultAction, FaultPlan,
    FrameKind, Input, NetError, NetReport, Output, RoundPolicy, To, WorkerMachine,
};
use std::collections::VecDeque;
use std::time::Duration;

/// A frame in flight: kind, epoch stamp, payload.
type Frame = (FrameKind, u32, Vec<u8>);

fn spec(fda: FdaConfig, codec: CodecSpec, downlink: DownlinkSpec, steps: u32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig::small_test(3),
        fda,
        codec,
        downlink,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "machines".to_string(),
    }
}

/// Runs `spec` through the machines on one thread. The scheduler is
/// deterministic: the coordinator's outputs first, then its oldest
/// pending frame from the lowest worker id, then one frame to the lowest
/// worker id that has one. With `lose = Some((id, round, kinds))`,
/// worker `id`'s link closes where it would send a frame of one of
/// `kinds` in `round`.
fn run_in_memory(
    spec: &JobSpec,
    policy: &RoundPolicy,
    lose: Option<(usize, u32, &[FrameKind])>,
) -> NetReport {
    let k = spec.cluster.workers;
    let mut coordinator = CoordinatorMachine::new(spec, policy, false);
    let mut workers: Vec<Option<WorkerMachine>> = (0..k)
        .map(|id| Some(WorkerMachine::new(id as u32, 0)))
        .collect();
    let mut down: Vec<VecDeque<Frame>> = vec![VecDeque::new(); k];
    let mut up: Vec<VecDeque<Frame>> = vec![VecDeque::new(); k];
    for id in 0..k {
        coordinator.handle(Input::hello(id));
    }
    loop {
        while let Some(out) = coordinator.poll() {
            match out {
                Output::Send {
                    to,
                    epoch,
                    kind,
                    payload,
                } => {
                    for id in (0..k).filter(|&id| workers[id].is_some()) {
                        if to == To::Live || to == To::One(id) {
                            down[id].push_back((kind, epoch, payload.to_vec()));
                        }
                    }
                }
                Output::Close { to, .. } => workers[to] = None,
                Output::Round(_) => {}
                Output::Done(report) => return report.expect("in-memory run"),
            }
        }
        if let Some(id) = (0..k).find(|&id| !up[id].is_empty()) {
            let (kind, epoch, payload) = up[id].pop_front().expect("a pending frame");
            coordinator.handle(Input::Frame {
                from: id,
                kind,
                epoch,
                payload: &payload,
            });
            continue;
        }
        let id = (0..k)
            .find(|&id| workers[id].is_some() && !down[id].is_empty())
            .expect("a machine with work to do: the protocol stalled");
        let worker = workers[id].as_mut().expect("a live worker");
        let (kind, epoch, payload) = down[id].pop_front().expect("a pending frame");
        worker.handle(Input::Frame {
            from: 0,
            kind,
            epoch,
            payload: &payload,
        });
        let round = worker.round();
        while let Some(out) = worker.poll() {
            match out {
                Output::Send { kind, .. }
                    if lose.is_some_and(|(w, r, kinds)| {
                        (w, r) == (id, round) && kinds.contains(&kind)
                    }) =>
                {
                    workers[id] = None;
                    down[id].clear();
                    let reason = DropReason::Disconnect;
                    coordinator.handle(Input::Closed { from: id, reason });
                    break;
                }
                Output::Send {
                    epoch,
                    kind,
                    payload,
                    ..
                } => up[id].push_back((kind, epoch, payload.to_vec())),
                Output::Done(steps) => {
                    assert_eq!(steps.expect("a clean session"), u64::from(spec.steps))
                }
                Output::Close { .. } | Output::Round(_) => unreachable!("a worker only sends"),
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// K = 3 for 20 rounds through the in-memory driver retraces the
/// sequential simulator bit for bit — every replica, every decision,
/// every estimate — for LinearFDA and SketchFDA, dense and with a
/// uniform8 uplink plus a delta downlink; measured == charged.
#[test]
fn in_memory_driver_matches_the_sequential_simulator() {
    let coded = (
        CodecSpec::Uniform8 { chunk: 256 },
        DownlinkSpec::Delta {
            codec: CodecSpec::Uniform8 { chunk: 256 },
        },
    );
    for fda in [FdaConfig::linear(0.01), FdaConfig::sketch_auto(0.01)] {
        for (codec, downlink) in [(CodecSpec::Dense, DownlinkSpec::Dense), coded] {
            let spec = spec(fda, codec, downlink, 20);
            let case = format!(
                "{} / {} / {}",
                fda.variant.name(),
                codec.name(),
                downlink.name()
            );
            let report = run_in_memory(&spec, &RoundPolicy::default(), None);

            let task = spec.synth.generate(&spec.task_name);
            let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
            sim.set_codec(codec);
            sim.set_downlink(downlink);
            for round in 0..spec.steps as usize {
                let out = sim.step();
                assert_eq!(
                    report.decisions[round], out.synced,
                    "{case}: decision {round}"
                );
                let estimate = out.variance_estimate.expect("fda reports estimates");
                assert_eq!(
                    report.estimates[round].to_bits(),
                    estimate.to_bits(),
                    "{case}: estimate {round}"
                );
            }
            assert!(
                report.decisions.contains(&true) && report.decisions.contains(&false),
                "{case}: the horizon mixes quiet and synchronizing rounds"
            );
            assert_eq!(report.survivors, vec![0, 1, 2], "{case}");
            for (id, params) in report.worker_params.iter().enumerate() {
                let want = sim.cluster().worker(id).params();
                assert_eq!(bits(params), bits(&want), "{case}: worker {id}");
            }
            assert_eq!(report.charged_bytes, sim.comm_bytes(), "{case}: charged");
            assert_eq!(
                report.measured_payload_bytes, report.charged_bytes,
                "{case}: measured"
            );
        }
    }
}

/// Worker 2 lost at round 5 of a K = 3 run: its link closed in memory,
/// or its socket shut by `KillBeforeState(5)` under the TCP driver. Both
/// drivers leave the same decisions, estimates, survivors, membership
/// log, replicas and byte ledgers.
#[test]
fn a_lost_worker_leaves_the_same_trajectory_in_memory_and_over_tcp() {
    let spec = spec(
        FdaConfig::linear(0.01),
        CodecSpec::Dense,
        DownlinkSpec::Dense,
        8,
    );
    let policy = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_secs(10),
        admissions: Vec::new(),
    };
    let memory = run_in_memory(&spec, &policy, Some((2, 5, &[FrameKind::Drift])));
    let plan = FaultPlan::new().fault(2, FaultAction::KillBeforeState(5));
    let io_timeout = Duration::from_secs(15);
    let (tcp, _) = run_chaos_with_thread_workers(&spec, &plan, policy, None, io_timeout);
    let tcp = tcp.expect("the TCP run survives one loss");

    assert_eq!(memory.survivors, vec![0, 1]);
    assert_eq!(memory.decisions, tcp.decisions, "decisions");
    assert_eq!(bits(&memory.estimates), bits(&tcp.estimates), "estimates");
    assert_eq!(memory.survivors, tcp.survivors, "survivors");
    assert_eq!(memory.events, tcp.events, "membership log");
    assert_eq!(memory.worker_params.len(), tcp.worker_params.len());
    for (a, b) in memory.worker_params.iter().zip(&tcp.worker_params) {
        assert_eq!(bits(a), bits(b), "replicas");
    }
    assert_eq!(memory.charged_bytes, tcp.charged_bytes, "charged");
    assert_eq!(
        memory.measured_payload_bytes, tcp.measured_payload_bytes,
        "measured"
    );
}

/// Drives one coordinator and its workers like `run_in_memory` until a
/// worker sends a frame `stop` accepts, and returns that worker's id and
/// the frame, undelivered.
fn run_until(
    coordinator: &mut CoordinatorMachine,
    workers: &mut [WorkerMachine],
    stop: impl Fn(&Frame) -> bool,
) -> (usize, Frame) {
    let k = workers.len();
    let (mut down, mut up) = (vec![VecDeque::new(); k], vec![VecDeque::new(); k]);
    loop {
        while let Some(out) = coordinator.poll() {
            if let Output::Send {
                to,
                epoch,
                kind,
                payload,
            } = out
            {
                for (id, queue) in down.iter_mut().enumerate() {
                    if to == To::Live || to == To::One(id) {
                        queue.push_back((kind, epoch, payload.to_vec()));
                    }
                }
            }
        }
        if let Some(id) = (0..k).find(|&id| !up[id].is_empty()) {
            let (kind, epoch, payload): Frame = up[id].pop_front().expect("a pending frame");
            coordinator.handle(Input::Frame {
                from: id,
                kind,
                epoch,
                payload: &payload,
            });
            continue;
        }
        let id = (0..k)
            .find(|&id| !down[id].is_empty())
            .expect("the protocol stalled");
        let (kind, epoch, payload) = down[id].pop_front().expect("a pending frame");
        workers[id].handle(Input::Frame {
            from: 0,
            kind,
            epoch,
            payload: &payload,
        });
        while let Some(out) = workers[id].poll() {
            if let Output::Send {
                epoch,
                kind,
                payload,
                ..
            } = out
            {
                let frame = (kind, epoch, payload.to_vec());
                if stop(&frame) {
                    return (id, frame);
                }
                up[id].push_back(frame);
            }
        }
    }
}

/// Worker 2 of a K = 3 Θ = 0 run lost in round 0 after its drift scalar
/// went out but before its summary did — between phase A and phase B —
/// leaves the trajectory of a loss before the scalar: the same decisions,
/// estimates and replicas. Its scalar is the only extra byte charge
/// (4, charged at K = 3 before the drop), and measured == charged in both.
#[test]
fn a_worker_lost_between_the_phases_keeps_measured_equal_to_charged() {
    let spec = spec(
        FdaConfig::linear(0.0),
        CodecSpec::Dense,
        DownlinkSpec::Dense,
        6,
    );
    let policy = RoundPolicy::default();
    let before = run_in_memory(&spec, &policy, Some((2, 0, &[FrameKind::Drift])));
    let between = run_in_memory(&spec, &policy, Some((2, 0, &[FrameKind::Summary])));
    for report in [&before, &between] {
        assert_eq!(report.survivors, vec![0, 1]);
        assert_eq!(report.decisions, vec![true; 6], "Θ = 0 syncs every round");
        assert_eq!(report.measured_payload_bytes, report.charged_bytes);
    }
    assert_eq!(bits(&before.estimates), bits(&between.estimates));
    for (a, b) in before.worker_params.iter().zip(&between.worker_params) {
        assert_eq!(bits(a), bits(b), "replicas");
    }
    assert_eq!(between.charged_bytes, before.charged_bytes + 4);
}

/// The machines of `spec`, formed: the coordinator after its workers'
/// hellos, and the workers.
fn formed<'a>(
    spec: &'a JobSpec,
    policy: &'a RoundPolicy,
) -> (CoordinatorMachine<'a>, Vec<WorkerMachine>) {
    let mut coordinator = CoordinatorMachine::new(spec, policy, false);
    (0..spec.cluster.workers).for_each(|id| coordinator.handle(Input::hello(id)));
    let workers = (0..spec.cluster.workers)
        .map(|id| WorkerMachine::new(id as u32, 0))
        .collect();
    (coordinator, workers)
}

/// A K = 2 LinearFDA job at Θ.
fn two_workers(theta: f32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig::small_test(2),
        ..spec(
            FdaConfig::linear(theta),
            CodecSpec::Dense,
            DownlinkSpec::Dense,
            4,
        )
    }
}

/// The next `Close` among the coordinator's outputs.
fn next_close(coordinator: &mut CoordinatorMachine) -> Option<(usize, DropReason)> {
    while let Some(out) = coordinator.poll() {
        if let Output::Close { to, reason } = out {
            return Some((to, reason));
        }
    }
    None
}

/// Phase A's frames from a broken worker are protocol drops at the
/// coordinator, never a panic: a drift scalar cut short or padded, and a
/// summary nobody asked for (the round is collecting drift scalars).
#[test]
fn bad_phase_a_deposits_are_protocol_drops() {
    let (spec, policy) = (two_workers(0.01), RoundPolicy::default());
    let bad = [
        (FrameKind::Drift, vec![0, 0, 0]),
        (FrameKind::Drift, vec![0; 5]),
        (FrameKind::Drift, Vec::new()),
        (FrameKind::Summary, vec![0; 9]),
    ];
    for (kind, payload) in bad {
        let (mut coordinator, mut workers) = formed(&spec, &policy);
        let (id, (_, epoch, _)) =
            run_until(&mut coordinator, &mut workers, |f| f.0 == FrameKind::Drift);
        coordinator.handle(Input::Frame {
            from: id,
            kind,
            epoch,
            payload: &payload,
        });
        let case = format!("{kind:?} of {} bytes", payload.len());
        assert_eq!(
            next_close(&mut coordinator),
            Some((id, DropReason::Protocol)),
            "{case}"
        );
    }
}

/// A worker refuses what a broken coordinator answers its deposits with,
/// as a protocol error and never a panic: a quiet decision on an `m`
/// that does not certify (above Θ, NaN, or the wrong length), a full
/// decision on a drift scalar whose summary was never asked for, and —
/// once its summary went out — a quiet decision or a second summary
/// request. A certifying quiet decision is taken.
#[test]
fn bad_phase_a_answers_are_worker_protocol_errors() {
    use fda_comm::Dense32;
    use fda_core::monitor::{LocalState, StateSummary};
    let (spec, policy) = (two_workers(0.0), RoundPolicy::default());
    // Flags: quiet (2); none: a full decision without a sync.
    let quiet = |m: &[u8]| [&[2], m].concat();
    let linear = LocalState {
        drift_sq_norm: 0.0,
        summary: StateSummary::Linear(0.0),
    };
    let full = [
        &[0],
        &fda_core::wire::encode_state_coded(&linear, &Dense32)[..],
    ]
    .concat();
    let answers = [
        (quiet(&0.5f32.to_le_bytes()), Some("does not certify")),
        (quiet(&f32::NAN.to_le_bytes()), Some("does not certify")),
        (quiet(&[0, 0, 0]), Some("quiet decision of")),
        (full, Some("not asked for")),
        (quiet(&0.0f32.to_le_bytes()), None),
    ];
    for (payload, refused) in answers {
        let (mut coordinator, mut workers) = formed(&spec, &policy);
        let (id, (_, epoch, _)) =
            run_until(&mut coordinator, &mut workers, |f| f.0 == FrameKind::Drift);
        let worker = &mut workers[id];
        worker.handle(Input::Frame {
            from: 0,
            kind: FrameKind::AvgState,
            epoch,
            payload: &payload,
        });
        match (worker.poll(), refused) {
            (Some(Output::Send { kind, .. }), None) => assert_eq!(kind, FrameKind::Drift),
            (Some(Output::Done(Err(NetError::Protocol(why)))), Some(what)) => {
                assert!(why.contains(what), "{why}")
            }
            (other, _) => panic!("{payload:?}: unexpected {other:?}"),
        }
    }

    // Θ = 0: round 0 falls through to the summaries.
    let after_the_summary = [
        (
            FrameKind::AvgState,
            quiet(&0.0f32.to_le_bytes()),
            "after the summary",
        ),
        (FrameKind::SummaryRequest, Vec::new(), "summary request"),
    ];
    for (kind, payload, what) in after_the_summary {
        let (mut coordinator, mut workers) = formed(&spec, &policy);
        let (id, (_, epoch, _)) = run_until(&mut coordinator, &mut workers, |f| {
            f.0 == FrameKind::Summary
        });
        let worker = &mut workers[id];
        worker.handle(Input::Frame {
            from: 0,
            kind,
            epoch,
            payload: &payload,
        });
        match worker.poll() {
            Some(Output::Done(Err(NetError::Protocol(why)))) => {
                assert!(why.contains(what), "{why}")
            }
            other => panic!("{kind:?} after the summary: unexpected {other:?}"),
        }
    }
}
