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
    FrameKind, Input, NetReport, Output, RoundPolicy, To, WorkerMachine,
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
/// worker id that has one. With `lose = Some((id, round))`, worker `id`'s
/// link closes where it would send its state for `round`.
fn run_in_memory(spec: &JobSpec, policy: &RoundPolicy, lose: Option<(usize, u32)>) -> NetReport {
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
                    if kind == FrameKind::State && lose == Some((id, round)) =>
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
    let memory = run_in_memory(&spec, &policy, Some((2, 5)));
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
