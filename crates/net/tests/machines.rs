//! The round protocol without sockets, driven by the in-memory driver
//! (`in_memory/mod.rs`): one coordinator machine and K worker machines on
//! the calling thread.
//!
//! Three claims are pinned here. The machines alone reproduce the
//! sequential simulator bit for bit (every replica, decision and
//! estimate, with measured == charged), so the TCP driver adds transport
//! and nothing else. Every single-fault placement at K = 3 — each way a
//! link can fail, on every frame either side sends, with and without a
//! re-admission — ends the run within a virtual-time bound with the
//! trajectory its loss point determines. And no frame a peer can send
//! makes either machine panic.

mod in_memory;

use fda_comm::{CodecSpec, DownlinkSpec};
use fda_core::cluster::ClusterConfig;
use fda_core::fda::{Fda, FdaConfig};
use fda_core::strategy::Strategy;
use fda_core::wire::JobSpec;
use fda_data::synth::SynthSpec;
use fda_net::{
    CoordinatorMachine, DropReason, FrameKind, Input, MemberEvent, MembershipEvent, NetError,
    NetReport, Output, RoundPolicy, To, WorkerMachine,
};
use in_memory::{run_in_memory, Action, Fault, Frame, LATENCY};
use std::collections::VecDeque;
use std::time::Duration;

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
            let run = run_in_memory(&spec, &RoundPolicy::default(), &[]);
            let report = run.report.expect("in-memory run");
            assert_eq!(run.sessions.len(), 3, "{case}: sessions");
            for (id, session) in &run.sessions {
                assert_eq!(session, &Ok(u64::from(spec.steps)), "{case}: worker {id}");
            }

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
    let lose = |kind| {
        let fault = Fault {
            worker: 2,
            round: 0,
            kind,
            action: Action::Disconnect,
        };
        run_in_memory(&spec, &policy, &[fault])
            .report
            .expect("a run")
    };
    let (before, between) = (lose(FrameKind::Drift), lose(FrameKind::Summary));
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
/// coordinator, never a panic: a drift scalar cut short or padded, a
/// summary nobody asked for (the round is collecting drift scalars), and
/// a hello on a live link, out of phase like any kind the round is not
/// collecting.
#[test]
fn bad_phase_a_deposits_are_protocol_drops() {
    let (spec, policy) = (two_workers(0.01), RoundPolicy::default());
    let bad = [
        (FrameKind::Drift, vec![0, 0, 0]),
        (FrameKind::Drift, vec![0; 5]),
        (FrameKind::Drift, Vec::new()),
        (FrameKind::Summary, vec![0; 9]),
        (FrameKind::Hello, Vec::new()),
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

/// The jobs the placements run on: K = 3, four rounds, at a Θ where the
/// fault-free run has rounds the drift scalars certify, rounds that fall
/// through to the summaries without a sync, and synchronizing rounds.
#[derive(Debug, Clone, Copy)]
enum Job {
    Linear,
    Sketch,
    /// SketchFDA with a uniform8 uplink and a delta-coded downlink.
    CodedSketch,
}

impl Job {
    fn spec(self) -> JobSpec {
        let (fda, codec, downlink) = match self {
            Job::Linear => (
                FdaConfig::linear(LINEAR_THETA),
                CodecSpec::Dense,
                DownlinkSpec::Dense,
            ),
            Job::Sketch => (
                FdaConfig::sketch_auto(SKETCH_THETA),
                CodecSpec::Dense,
                DownlinkSpec::Dense,
            ),
            Job::CodedSketch => (
                FdaConfig::sketch_auto(SKETCH_THETA),
                CodecSpec::Uniform8 { chunk: 256 },
                DownlinkSpec::Delta {
                    codec: CodecSpec::Uniform8 { chunk: 256 },
                },
            ),
        };
        JobSpec {
            cluster: ClusterConfig {
                batch_size: 4,
                ..ClusterConfig::small_test(3)
            },
            synth: SynthSpec {
                n_train: 48,
                n_test: 8,
                ..SynthSpec::synth_mnist()
            },
            ..spec(fda, codec, downlink, PLACEMENT_STEPS)
        }
    }
}

const PLACEMENT_STEPS: u32 = 4;
const LINEAR_THETA: f32 = 0.001;
const SKETCH_THETA: f32 = 0.004;

/// The deposit deadline of every placement.
const DEADLINE: Duration = Duration::from_secs(5);

/// One placement's run: `fault` on `job` under a quorum of `min_workers`,
/// with the faulted worker re-admitted at `readmit`. A failing placement
/// names this call.
fn placement(
    job: Job,
    fault: Option<Fault>,
    readmit: Option<u32>,
    min_workers: usize,
) -> in_memory::Run {
    let policy = RoundPolicy {
        min_workers,
        deposit_timeout: DEADLINE,
        admissions: match (fault, readmit) {
            (Some(f), Some(round)) => vec![(round, f.worker as u32)],
            _ => Vec::new(),
        },
    };
    run_in_memory(&job.spec(), &policy, fault.as_slice())
}

/// What a loss at one point fixes: decisions, estimates, survivors, their
/// replicas, both ledgers and — with `reasons` — the membership log, or
/// otherwise the log with every drop reason erased.
#[derive(Debug, PartialEq)]
struct Trajectory {
    decisions: Vec<bool>,
    estimates: Vec<u32>,
    survivors: Vec<u32>,
    replicas: Vec<Vec<u32>>,
    charged: u64,
    measured: u64,
    events: Vec<MembershipEvent>,
}

fn trajectory(report: &NetReport, reasons: bool) -> Trajectory {
    let erase = |e: &MembershipEvent| match e.event {
        MemberEvent::Dropped(_) if !reasons => MembershipEvent {
            event: MemberEvent::Dropped(DropReason::Disconnect),
            ..*e
        },
        _ => *e,
    };
    Trajectory {
        decisions: report.decisions.clone(),
        estimates: bits(&report.estimates),
        survivors: report.survivors.clone(),
        replicas: report.worker_params.iter().map(|p| bits(p)).collect(),
        charged: report.charged_bytes,
        measured: report.measured_payload_bytes,
        events: report.events.iter().map(erase).collect(),
    }
}

/// The latest a run of `spec` may end in virtual time: every frame of a
/// fault-free run and of one re-admission on the wire for [`LATENCY`]
/// each, plus one wait of the deadline.
fn time_bound(spec: &JobSpec) -> Duration {
    let k = spec.cluster.workers as u32;
    let frames = 2 * (k + 1) * (3 * spec.steps + 4);
    LATENCY * frames + DEADLINE
}

/// Every single-fault placement on `job`'s fault-free run — each worker
/// send (`Drift`, `Summary`, `Model`, `FinalModel`) under each [`Action`],
/// each failed coordinator send of `SummaryRequest`, `AvgState` or the
/// consensus — with and without the faulted worker's re-admission two
/// rounds later, checked against the invariants:
///
/// - the run ends within [`time_bound`], completed, with every session
///   clean and measured == charged; under a quorum of K, a placement that
///   loses a worker ends in the typed `Quorum` error at the loss instead;
/// - a frame held inside the deadline leaves the fault-free run;
/// - placements that lose worker w in the same round after the same last
///   frame from it leave one trajectory, up to the drop reason;
/// - a fixed sample replays bit for bit.
///
/// Returns the number of placements.
fn every_placement(job: Job) -> usize {
    let spec = job.spec();
    let k = spec.cluster.workers;
    let bound = time_bound(&spec);
    let clean = placement(job, None, None, 1);
    let clean_report = clean.report.as_ref().expect("the fault-free run");
    let (quiet, summaries, syncs) = round_kinds(&clean);
    assert!(
        quiet > 0 && summaries > syncs && syncs > 0,
        "{job:?}: {quiet} certified, {summaries} phase-B and {syncs} synchronizing rounds"
    );
    let worker_actions = [
        Action::Disconnect,
        Action::Corrupt,
        Action::HoldPast,
        Action::HoldInside,
    ];
    let mut placements = Vec::new();
    for &(worker, round, kind) in &clean.sends {
        let actions: &[Action] = match kind {
            FrameKind::Drift | FrameKind::Summary | FrameKind::Model | FrameKind::FinalModel => {
                &worker_actions
            }
            FrameKind::SummaryRequest
            | FrameKind::AvgState
            | FrameKind::AvgModel
            | FrameKind::AvgModelDelta => &[Action::Disconnect],
            _ => &[],
        };
        for &action in actions {
            let fault = Fault {
                worker,
                round,
                kind,
                action,
            };
            placements.push((fault, None));
            if action != Action::HoldInside && round + 2 < spec.steps {
                placements.push((fault, Some(round + 2)));
            }
        }
    }

    let mut at_loss: Vec<(_, Trajectory)> = Vec::new();
    for (i, &(fault, readmit)) in placements.iter().enumerate() {
        let case = format!(
            "{job:?}: replay with placement(Job::{job:?}, Some({fault:?}), {readmit:?}, 1)"
        );
        let run = placement(job, Some(fault), readmit, 1);
        assert!(run.now <= bound, "{case}: ended at {:?}", run.now);
        let report = run
            .report
            .as_ref()
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(
            report.measured_payload_bytes, report.charged_bytes,
            "{case}: measured"
        );
        let runs = readmit.map_or(spec.steps, |r| spec.steps - r);
        assert_eq!(
            run.sessions.len(),
            report.survivors.len(),
            "{case}: sessions"
        );
        for (id, session) in &run.sessions {
            let want = if *id == fault.worker {
                runs
            } else {
                spec.steps
            };
            assert_eq!(
                session,
                &Ok(u64::from(want)),
                "{case}: worker {id}'s session"
            );
        }
        if fault.action == Action::HoldInside {
            assert!(
                run.lost.is_none(),
                "{case}: a frame held inside the deadline lost a worker"
            );
            assert_eq!(
                trajectory(report, true),
                trajectory(clean_report, true),
                "{case}"
            );
        } else {
            let loss = run.lost.unwrap_or_else(|| panic!("{case}: nobody lost"));
            assert_eq!(loss.worker, fault.worker, "{case}: lost worker");
            let mut survivors: Vec<u32> = (0..k as u32).collect();
            if readmit.is_none() {
                survivors.retain(|&w| w != fault.worker as u32);
            }
            assert_eq!(report.survivors, survivors, "{case}: survivors");
            let this = trajectory(report, false);
            let point = (loss, readmit);
            match at_loss.iter().find(|(p, _)| *p == point) {
                Some((_, first)) => assert_eq!(&this, first, "{case}: {loss:?}"),
                None if readmit.is_some() => at_loss.push((point, this)),
                None => {
                    at_loss.push((point, this));
                    // The first loss at each point, again under a quorum of K.
                    let quorum = placement(job, Some(fault), None, k);
                    assert!(
                        quorum.now <= bound,
                        "{case}, quorum {k}: ended at {:?}",
                        quorum.now
                    );
                    match quorum.report {
                        Err(NetError::Quorum {
                            round: r,
                            alive,
                            min_workers,
                        }) => assert_eq!((r, alive, min_workers), (loss.round, k - 1, k), "{case}"),
                        other => {
                            panic!("{case}, quorum {k}: expected a quorum abort, got {other:?}")
                        }
                    }
                }
            }
        }
        if i % 16 == 0 {
            let again = placement(job, Some(fault), readmit, 1);
            let report_again = again.report.as_ref().expect("a replay");
            assert_eq!(
                trajectory(report_again, true),
                trajectory(report, true),
                "{case}: replay"
            );
            assert_eq!(
                (again.now, again.sends, again.lost),
                (run.now, run.sends, run.lost)
            );
        }
    }
    placements.len()
}

/// The fault-free run's `(certified, phase-B, synchronizing)` round counts,
/// read off its sends.
fn round_kinds(run: &in_memory::Run) -> (usize, usize, usize) {
    let rounds = |kind: FrameKind| {
        let mut r: Vec<u32> = run
            .sends
            .iter()
            .filter(|s| s.2 == kind)
            .map(|s| s.1)
            .collect();
        r.dedup();
        r.len()
    };
    let (all, summaries, syncs) = (
        rounds(FrameKind::Drift),
        rounds(FrameKind::SummaryRequest),
        rounds(FrameKind::Model),
    );
    (all - summaries, summaries, syncs)
}

// The three jobs enumerate 207 + 153 + 153 = 513 placements; the floors
// keep the total at 500 or more.

#[test]
fn every_single_fault_placement_on_a_linear_job() {
    let n = every_placement(Job::Linear);
    assert!(n >= 200, "{n} placements");
}

#[test]
fn every_single_fault_placement_on_a_sketch_job() {
    let n = every_placement(Job::Sketch);
    assert!(n >= 150, "{n} placements");
}

#[test]
fn every_single_fault_placement_under_a_delta_downlink() {
    let n = every_placement(Job::CodedSketch);
    assert!(n >= 150, "{n} placements");
}

/// Every frame kind on the wire.
const KINDS: [FrameKind; 13] = [
    FrameKind::Hello,
    FrameKind::Config,
    FrameKind::State,
    FrameKind::AvgState,
    FrameKind::Model,
    FrameKind::AvgModel,
    FrameKind::FinalModel,
    FrameKind::Shutdown,
    FrameKind::Resume,
    FrameKind::AvgModelDelta,
    FrameKind::Drift,
    FrameKind::SummaryRequest,
    FrameKind::Summary,
];

/// SplitMix64: the mutator's deterministic stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every mutation, in the order the coordinator mutator cycles through.
const EVERY_MUTATION: [Mutation; 6] = [
    Mutation::Kind,
    Mutation::Stale,
    Mutation::Future,
    Mutation::Truncated,
    Mutation::Flipped,
    Mutation::Garbage,
];

/// How many times the worker mutator rebuilds a worker at one frame
/// before it feeds only mutations the worker must refuse.
const MAX_REBUILDS: usize = 12;

/// How a frame was mangled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Another kind, same payload.
    Kind,
    /// An epoch older than the one the sender was last sent.
    Stale,
    /// An epoch newer than any the coordinator issued.
    Future,
    /// A strict prefix of the payload.
    Truncated,
    /// One to three bits of the payload flipped.
    Flipped,
    /// Random bytes under the frame's own kind.
    Garbage,
}

/// The valid `frame` under mutation `m`, unless `m` cannot apply to it (a
/// stale epoch below 1, a prefix of an empty payload).
fn mutate(frame: &Frame, m: Mutation, mix: &mut Mix) -> Option<Frame> {
    let (kind, epoch, payload) = frame;
    let mut f = frame.clone();
    match m {
        Mutation::Kind => {
            f.0 = KINDS[mix.below(KINDS.len())];
            if f.0 == *kind {
                return None;
            }
        }
        Mutation::Stale => f.1 = epoch.checked_sub(1 + mix.below(3) as u32)?,
        Mutation::Future => f.1 = epoch + 1 + mix.below(3) as u32,
        Mutation::Truncated => f.2.truncate(mix.below(payload.len().checked_sub(1)? + 1)),
        Mutation::Flipped => {
            for _ in 0..=mix.below(3) {
                let bit = mix.below(payload.len().max(1) * 8);
                *f.2.get_mut(bit / 8)? ^= 1 << (bit % 8);
            }
        }
        Mutation::Garbage => {
            let len = mix.below(2 * payload.len() + 8);
            f.2 = (0..len).map(|_| mix.next() as u8).collect();
        }
    }
    Some(f)
}

/// How a machine ended one mutated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// The coordinator dropped the sender as a protocol violator.
    Dropped,
    /// The coordinator skipped a stale frame: no output, still waiting.
    Skipped,
    /// The worker failed its session with a protocol error.
    Refused,
    /// A well-formed frame, taken as the protocol's next step.
    Taken,
}

/// Whether mutation `m` may end as `ending` at a machine that refuses a
/// frame as `refused`: a frame of the wrong kind, from a future epoch or
/// cut short is refused; a stale one is skipped; flipped bits or random
/// bytes under the right kind may still be well formed.
fn allowed(m: Mutation, ending: Ending, refused: Ending) -> bool {
    match m {
        Mutation::Kind | Mutation::Future | Mutation::Truncated => ending == refused,
        Mutation::Stale => ending == Ending::Skipped,
        Mutation::Flipped | Mutation::Garbage => ending == refused || ending == Ending::Taken,
    }
}

/// The coordinator of `spec` after the first `n` frames of a fault-free
/// run's `log`.
fn coordinator_after<'a>(
    spec: &'a JobSpec,
    policy: &'a RoundPolicy,
    log: &[(usize, Frame)],
    n: usize,
) -> CoordinatorMachine<'a> {
    let mut c = CoordinatorMachine::new(spec, policy, false);
    (0..spec.cluster.workers).for_each(|id| c.handle(Input::hello(id)));
    while c.poll().is_some() {}
    for (from, (kind, epoch, payload)) in &log[..n] {
        c.handle(Input::Frame {
            from: *from,
            kind: *kind,
            epoch: *epoch,
            payload,
        });
        while c.poll().is_some() {}
    }
    c
}

/// Worker `id` of `spec` after the first `n` frames of a fault-free run's
/// `log` to it.
fn worker_after(id: usize, log: &[Frame], n: usize) -> WorkerMachine {
    let mut w = WorkerMachine::new(id as u32, 0);
    for (kind, epoch, payload) in &log[..n] {
        w.handle(Input::Frame {
            from: 0,
            kind: *kind,
            epoch: *epoch,
            payload,
        });
        while w.poll().is_some() {}
    }
    w
}

/// Feeds `frame` from `from` to `c` and reads how it ended.
fn coordinator_takes(c: &mut CoordinatorMachine, from: usize, frame: &Frame) -> Ending {
    let before = c.wants();
    let (kind, epoch, payload) = frame;
    c.handle(Input::Frame {
        from,
        kind: *kind,
        epoch: *epoch,
        payload,
    });
    let mut ending = None;
    while let Some(out) = c.poll() {
        match out {
            Output::Close { to, reason } => {
                assert_eq!((to, reason), (from, DropReason::Protocol));
                ending = Some(Ending::Dropped);
            }
            _ => ending = ending.or(Some(Ending::Taken)),
        }
    }
    ending.unwrap_or(match c.wants() == before {
        true => Ending::Skipped,
        false => Ending::Taken,
    })
}

/// Feeds `frame` to `w` and reads how it ended.
fn worker_takes(w: &mut WorkerMachine, frame: &Frame) -> Ending {
    let (kind, epoch, payload) = frame;
    w.handle(Input::Frame {
        from: 0,
        kind: *kind,
        epoch: *epoch,
        payload,
    });
    let mut ending = Ending::Taken;
    while let Some(out) = w.poll() {
        if let Output::Done(Err(e)) = out {
            assert!(
                matches!(e, NetError::Protocol(_) | NetError::Decode(_)),
                "{e}"
            );
            ending = Ending::Refused;
        }
    }
    ending
}

/// The byte mutator at the coordinator: every frame a fault-free run
/// delivered to it — every phase of every round — is replaced by
/// mutations, each fed to a coordinator replayed to that point. Returns
/// the number of inputs.
fn mutate_coordinator_frames(job: Job, per_frame: usize, seed: u64) -> usize {
    let spec = job.spec();
    let policy = RoundPolicy::default();
    let log = placement(job, None, None, 1).to_coordinator;
    let kinds = [
        FrameKind::Drift,
        FrameKind::Summary,
        FrameKind::Model,
        FrameKind::FinalModel,
    ];
    assert!(
        kinds.iter().all(|k| log.iter().any(|(_, f)| f.0 == *k)),
        "{job:?}: every phase"
    );
    let mut mix = Mix(seed);
    let mut inputs = 0;
    for (n, (from, frame)) in log.iter().enumerate() {
        for i in 0..per_frame {
            let m = EVERY_MUTATION[i % EVERY_MUTATION.len()];
            let Some(mutated) = mutate(frame, m, &mut mix) else {
                continue;
            };
            let mut c = coordinator_after(&spec, &policy, &log, n);
            let ending = coordinator_takes(&mut c, *from, &mutated);
            let case = format!("{job:?}: {m:?} {:?} at coordinator input {n}", frame.0);
            assert!(allowed(m, ending, Ending::Dropped), "{case}: {ending:?}");
            inputs += 1;
        }
    }
    inputs
}

/// The byte mutator at a worker: before each frame a fault-free run
/// delivered to worker 0 — the job, the handoff, every decision kind,
/// the consensus and the shutdown — mutations of it, each stamped with a
/// random stale, current or future epoch (the worker takes the
/// coordinator's stamp as authoritative), are fed to the worker as it
/// stands there. A refused input leaves it where it was; one it takes
/// moves it on, so it is rebuilt, at most [`MAX_REBUILDS`] times a frame.
/// Returns the number of inputs.
fn mutate_worker_frames(job: Job, per_frame: usize, seed: u64) -> usize {
    let log: Vec<Frame> = placement(job, None, None, 1)
        .to_workers
        .into_iter()
        .filter_map(|(id, frame)| (id == 0).then_some(frame))
        .collect();
    let mut mix = Mix(seed);
    let mut inputs = 0;
    for (n, frame) in log.iter().enumerate() {
        let mut w = worker_after(0, &log, n);
        let mut rebuilds = 0;
        for i in 0..per_frame {
            let cycle: &[Mutation] = match rebuilds < MAX_REBUILDS {
                true => &[
                    Mutation::Kind,
                    Mutation::Truncated,
                    Mutation::Flipped,
                    Mutation::Garbage,
                ],
                false => &[Mutation::Kind, Mutation::Truncated],
            };
            let m = cycle[i % cycle.len()];
            let Some(mut mutated) = mutate(frame, m, &mut mix) else {
                continue;
            };
            mutated.1 = (frame.1 + mix.below(3) as u32).saturating_sub(1);
            let ending = worker_takes(&mut w, &mutated);
            let case = format!("{job:?}: {m:?} {:?} at worker input {n}", frame.0);
            assert!(allowed(m, ending, Ending::Refused), "{case}: {ending:?}");
            if ending == Ending::Taken {
                w = worker_after(0, &log, n);
                rebuilds += 1;
            }
            inputs += 1;
        }
    }
    inputs
}

#[test]
fn no_mutated_frame_makes_the_coordinator_panic() {
    let inputs = mutate_coordinator_frames(Job::Linear, 360, 1)
        + mutate_coordinator_frames(Job::CodedSketch, 48, 2);
    assert!(inputs >= 10_000, "{inputs} mutated inputs");
}

#[test]
fn no_mutated_frame_makes_a_worker_panic() {
    let inputs =
        mutate_worker_frames(Job::CodedSketch, 960, 3) + mutate_worker_frames(Job::Linear, 480, 4);
    assert!(inputs >= 10_000, "{inputs} mutated inputs");
}
