//! The round protocol without sockets: one coordinator machine and K
//! worker machines driven from the calling thread, frames carried in
//! per-link queues — no socket, no sleep, no spawned thread — under a
//! virtual clock, with a fault filter on the links.
//!
//! Shared by the `fda-net` machine and allocation suites and by the
//! workspace's `net_faults` suite, which each use a different part of it;
//! hence the module-wide `dead_code` allowance.
#![allow(dead_code)]

use fda_core::wire::JobSpec;
use fda_net::{
    CoordinatorMachine, DropReason, FrameKind, Input, NetError, NetReport, Output, RoundPolicy, To,
    WorkerMachine,
};
use fda_obs::alloc_count::allocs;
use std::collections::VecDeque;
use std::time::Duration;

/// Virtual time one frame spends on a link.
pub const LATENCY: Duration = Duration::from_millis(1);

/// A frame in flight: kind, epoch stamp, payload.
pub type Frame = (FrameKind, u32, Vec<u8>);

/// What a fault does to the frame it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The link closes before the frame goes out — a kill, or a truncated
    /// frame: `Closed { Disconnect }`. On a coordinator send, the send
    /// fails.
    Disconnect,
    /// The frame arrives but fails on receipt — a checksum or decode
    /// failure: `Closed { Protocol }`.
    Corrupt,
    /// The frame is held past the deadline of the coordinator's
    /// collection: a `Tick` at the deadline, then `Closed { Timeout }` —
    /// what the TCP driver does with `wants()`' `within` as its read
    /// timeout.
    HoldPast,
    /// The frame is held, then delivered halfway to the deadline.
    HoldInside,
}

/// One fault: `action` on the frame of `kind` sent in `round` (`steps`
/// for the final replica) by worker `worker` — or, for a coordinator
/// kind (`SummaryRequest`, `AvgState`, `AvgModel`, `AvgModelDelta`), on
/// the coordinator's send of it to `worker`, which can only fail
/// ([`Action::Disconnect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub worker: usize,
    pub round: u32,
    pub kind: FrameKind,
    pub action: Action,
}

/// What reaches the coordinator on a worker's link, in order.
enum Up {
    Frame(u32, Frame),
    Closed(DropReason),
}

/// One worker's end of the fabric.
struct Peer {
    /// `None` while the worker is off the run.
    machine: Option<WorkerMachine>,
    down: VecDeque<Frame>,
    up: VecDeque<Up>,
    held: Option<(u32, Frame, Action)>,
    /// The epoch of the last session, presented by a re-admitted one.
    last_epoch: u32,
    /// The round and kind of the last frame the coordinator received.
    accepted: Option<(u32, FrameKind)>,
}

/// Where the coordinator dropped a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loss {
    pub worker: usize,
    /// The round of the drop.
    pub round: u32,
    /// The round and kind of the last frame the coordinator received from
    /// the worker.
    pub last: Option<(u32, FrameKind)>,
}

/// How a run went.
#[derive(Debug)]
pub struct Run {
    /// The coordinator's ending.
    pub report: Result<NetReport, NetError>,
    /// The virtual time it ended at.
    pub now: Duration,
    /// Every send, as `(worker, round, kind)`: a worker's own, and each
    /// coordinator send to a worker.
    pub sends: Vec<(usize, u32, FrameKind)>,
    /// Every frame the coordinator received, with its sender, in order.
    pub to_coordinator: Vec<(usize, Frame)>,
    /// Every frame a worker received, with the worker, in order.
    pub to_workers: Vec<(usize, Frame)>,
    /// The first worker the coordinator dropped.
    pub lost: Option<Loss>,
    /// Per worker session that ended: the worker and the rounds it ran, or
    /// why it failed.
    pub sessions: Vec<(usize, Result<u64, String>)>,
    /// Allocations made inside the worker machines' `handle` and `poll`
    /// calls, counted when the test binary installs
    /// `fda_obs::alloc_count::CountingAlloc` (0 otherwise).
    pub worker_allocs: u64,
}

/// Runs `spec` through the machines on one thread, under `policy` and
/// `faults`. The scheduler is deterministic: the coordinator's
/// outputs first, then a clock tick, then the oldest frame on the
/// lowest-id link to the coordinator, then a scheduled rejoiner's hello
/// (the driver starts its new session when `wants()` names it), then a
/// held frame once the coordinator waits on it, then one frame to the
/// lowest worker id that has one. Panics if no machine has work to do.
pub fn run_in_memory(spec: &JobSpec, policy: &RoundPolicy, faults: &[Fault]) -> Run {
    let k = spec.cluster.workers;
    let mut c = CoordinatorMachine::new(spec, policy, false);
    let mut peers: Vec<Peer> = (0..k)
        .map(|id| Peer {
            machine: Some(WorkerMachine::new(id as u32, 0)),
            down: VecDeque::new(),
            up: VecDeque::new(),
            held: None,
            last_epoch: 0,
            accepted: None,
        })
        .collect();
    let hits = |id: usize, round: u32, kind: FrameKind| {
        let fault = faults
            .iter()
            .find(|f| (f.worker, f.round, f.kind) == (id, round, kind));
        fault.map(|f| f.action)
    };
    let mut now = Duration::ZERO;
    let (mut sends, mut lost, mut sessions, mut worker_allocs) = (Vec::new(), None, Vec::new(), 0);
    let (mut to_coordinator, mut to_workers) = (Vec::new(), Vec::new());
    let mut done = None;
    for id in 0..k {
        c.handle(Input::hello(id));
    }
    loop {
        loop {
            let round = c.round();
            let Some(out) = c.poll() else { break };
            let mut failed = None;
            match out {
                Output::Send {
                    to,
                    epoch,
                    kind,
                    payload,
                } => {
                    for (id, peer) in peers.iter_mut().enumerate() {
                        if peer.machine.is_none() || !(to == To::Live || to == To::One(id)) {
                            continue;
                        }
                        sends.push((id, round, kind));
                        match hits(id, round, kind) {
                            Some(_) => failed = Some(id),
                            None => peer.down.push_back((kind, epoch, payload.to_vec())),
                        }
                    }
                }
                Output::Close { to, .. } => {
                    let last = peers[to].accepted;
                    lost = lost.or(Some(Loss {
                        worker: to,
                        round,
                        last,
                    }));
                    disconnect(&mut peers[to]);
                }
                Output::Round(_) => {}
                Output::Done(report) => done = Some(report),
            }
            if let Some(from) = failed {
                disconnect(&mut peers[from]);
                let reason = DropReason::Disconnect;
                c.handle(Input::Closed { from, reason });
            }
        }
        match done {
            None => c.handle(Input::Tick(now)),
            Some(report) if peers.iter().all(|p| p.down.is_empty()) => {
                return Run {
                    report,
                    now,
                    sends,
                    to_coordinator,
                    to_workers,
                    lost,
                    sessions,
                    worker_allocs,
                }
            }
            Some(_) => {}
        }
        // Once the run is over, the workers read what is still on their
        // links (the shutdown), and what they send goes nowhere.
        if let Some(from) = (0..k).find(|&id| done.is_none() && !peers[id].up.is_empty()) {
            now += LATENCY;
            match peers[from].up.pop_front().expect("a pending frame") {
                Up::Frame(round, (kind, epoch, payload)) => {
                    peers[from].accepted = Some((round, kind));
                    c.handle(Input::Frame {
                        from,
                        kind,
                        epoch,
                        payload: &payload,
                    });
                    to_coordinator.push((from, (kind, epoch, payload)));
                }
                Up::Closed(reason) => {
                    disconnect(&mut peers[from]);
                    c.handle(Input::Closed { from, reason });
                }
            }
            continue;
        }
        // Every link to the coordinator is drained, so a worker without a
        // session is one the coordinator knows is off the run.
        let wants = c.wants().filter(|_| done.is_none());
        if let Some((id, _)) = wants.filter(|&(id, _)| peers[id].machine.is_none()) {
            peers[id].machine = Some(WorkerMachine::new(id as u32, peers[id].last_epoch));
            c.handle(Input::hello(id));
            continue;
        }
        if let Some((from, within)) = wants.filter(|&(id, _)| peers[id].held.is_some()) {
            let (round, frame, action) = peers[from].held.take().expect("a held frame");
            let wait = within.expect("every collection runs under a deadline");
            if action == Action::HoldPast {
                now += wait;
                c.handle(Input::Tick(now));
                disconnect(&mut peers[from]);
                let reason = DropReason::Timeout;
                c.handle(Input::Closed { from, reason });
            } else {
                now += wait / 2;
                peers[from].up.push_back(Up::Frame(round, frame));
            }
            continue;
        }
        let Some(id) = (0..k).find(|&id| !peers[id].down.is_empty()) else {
            panic!("the protocol stalled at round {} ({faults:?})", c.round());
        };
        now += LATENCY;
        let peer = &mut peers[id];
        let (kind, epoch, payload) = peer.down.pop_front().expect("a pending frame");
        let worker = peer.machine.as_mut().expect("a live worker");
        let before = allocs();
        worker.handle(Input::Frame {
            from: 0,
            kind,
            epoch,
            payload: &payload,
        });
        worker_allocs += allocs() - before;
        to_workers.push((id, (kind, epoch, payload)));
        let round = worker.round();
        loop {
            let before = allocs();
            let out = worker.poll();
            worker_allocs += allocs() - before;
            match out {
                None => break,
                Some(Output::Send {
                    epoch,
                    kind,
                    payload,
                    ..
                }) => {
                    sends.push((id, round, kind));
                    let frame = (kind, epoch, payload.to_vec());
                    match hits(id, round, kind) {
                        None => peer.up.push_back(Up::Frame(round, frame)),
                        Some(Action::Disconnect) => {
                            peer.up.push_back(Up::Closed(DropReason::Disconnect));
                            break;
                        }
                        Some(Action::Corrupt) => {
                            peer.up.push_back(Up::Closed(DropReason::Protocol))
                        }
                        Some(action) => peer.held = Some((round, frame, action)),
                    }
                }
                Some(Output::Done(ended)) => {
                    let failed = ended.is_err();
                    sessions.push((id, ended.map_err(|e| e.to_string())));
                    if failed {
                        peer.up.push_back(Up::Closed(DropReason::Disconnect));
                    }
                }
                Some(Output::Close { .. } | Output::Round(_)) => {
                    unreachable!("a worker only sends")
                }
            }
        }
        if matches!(peer.up.back(), Some(Up::Closed(DropReason::Disconnect))) {
            // Its link closed (a kill) or the session failed; the
            // coordinator learns so when it reads the link.
            end_session(peer);
        }
    }
}

/// Ends worker `peer`'s session; what was on its way to it is lost.
fn end_session(peer: &mut Peer) {
    if let Some(machine) = peer.machine.take() {
        peer.last_epoch = machine.epoch();
    }
    peer.down.clear();
}

/// Takes worker `peer` off the run: its session ends, and nothing more
/// arrives from it.
fn disconnect(peer: &mut Peer) {
    end_session(peer);
    peer.up.clear();
    peer.held = None;
}
