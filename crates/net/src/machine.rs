//! The round protocol as two pure state machines.
//!
//! Algorithm 1 on the wire is a message protocol between a coordinator and
//! its workers, and this module writes it as one: [`CoordinatorMachine`]
//! and [`WorkerMachine`] react to [`Input`]s — a frame from a peer, the
//! driver's clock, a link that closed — and answer with [`Output`]s — a
//! frame to send, a link to close, a round record, the end of the run. They
//! never touch a socket or a clock, so any driver can run them: the TCP
//! driver of [`crate::coordinator`] and [`crate::worker`], or an in-memory
//! one that holds all K + 1 machines on one thread.
//!
//! A driver feeds one input with `handle`, then calls `poll` until it
//! returns `None`, performing each output before the next `poll`; a failed
//! send is reported back as [`Input::Closed`] before that next `poll`, so
//! it lands in the phase that sent it.
//!
//! The coordinator owns the round's server half ([`fda_core::round::Server`]),
//! membership, epochs and the quorum, the stale/future-epoch rule, the
//! per-id deposit slots, the measured and charged ledgers, and the
//! trajectory. It takes a phase's frames in any order — each lands in its
//! worker's slot, and the reduce runs over the slots in id order once every
//! live worker has delivered or dropped — and [`CoordinatorMachine::wants`]
//! tells a blocking driver which peer it still waits for, lowest id first.
//!
//! A round's state exchange collects `Drift` deposits and either settles
//! quiet on them ([`Server::settle`]) or broadcasts `SummaryRequest`,
//! collects every `Summary` and decides. Each phase is measured at its
//! own K′, so a drop between the two keeps measured == charged.
//!
//! The worker owns its replica ([`fda_core::round::Replica`]), its
//! [`Worker`] and the session's round counter; local training runs inside
//! its frame handler, because it is compute, not I/O.

use crate::frame::{FrameKind, NetError};
use fda_comm::{sim::per_worker_bytes, Dense32, SimNetwork};
use fda_core::cluster::Worker;
use fda_core::monitor::LocalState;
use fda_core::round::{Replica, RoundLedger, Server};
use fda_core::wire::{
    decode_job, decode_summary_coded_into, decode_vector_coded_into, encode_job,
    encode_vector_coded_into, state_frame_overhead, JobSpec,
};
use fda_data::TaskData;
use fda_obs::{DropRecord, RoundEvent};
use fda_tensor::vector;
use std::collections::VecDeque;
use std::time::Duration;

/// How many consecutive stale-epoch frames [`check_epoch`] will discard
/// on one connection before declaring the peer a protocol
/// violator. A legitimate zombie has at most a handful of in-flight
/// frames; an endless stale stream is a broken or hostile peer.
pub const MAX_STALE_FRAMES: u32 = 8;

/// The epoch rule for one frame on a link whose peer was last sent
/// `current`: `Ok(true)` delivers it, `Ok(false)` discards it.
///
/// A frame from an **older** epoch is discarded on its header alone (up to
/// [`MAX_STALE_FRAMES`] in a row, counted in `stale`): it is the in-flight
/// deposit of a connection that raced a membership change — a zombie's
/// state must be dropped, not averaged into `S̄`, and need not even be
/// decodable. A frame claiming a **future** epoch is a protocol violation
/// (the coordinator is the only epoch authority).
pub fn check_epoch(epoch: u32, current: u32, stale: &mut u32) -> Result<bool, NetError> {
    if epoch == current {
        *stale = 0;
        return Ok(true);
    }
    if epoch > current {
        return Err(NetError::Protocol(format!(
            "frame from future epoch {epoch} (current {current})"
        )));
    }
    *stale += 1;
    if *stale > MAX_STALE_FRAMES {
        return Err(NetError::Protocol(format!(
            "more than {MAX_STALE_FRAMES} stale-epoch frames (last {epoch}, current {current})"
        )));
    }
    Ok(false)
}

/// Why the coordinator dropped a worker from the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Missed a collection's deadline.
    Timeout,
    /// Socket closed or reset mid-protocol.
    Disconnect,
    /// Sent a frame that failed checksum/decode/shape validation, or the
    /// wrong message kind for the phase.
    Protocol,
}

impl DropReason {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::Timeout => "timeout",
            DropReason::Disconnect => "disconnect",
            DropReason::Protocol => "protocol",
        }
    }

    /// The drop bucket of a link error.
    pub fn of(e: &NetError) -> DropReason {
        match e {
            NetError::Timeout(_) => DropReason::Timeout,
            NetError::Disconnect(_) | NetError::Io(_) => DropReason::Disconnect,
            NetError::Decode(_) | NetError::Protocol(_) | NetError::Quorum { .. } => {
                DropReason::Protocol
            }
        }
    }
}

/// What happened to one worker's membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// The worker entered the run — at formation (`rejoin: false`) or via
    /// a scheduled re-admission after a drop (`rejoin: true`).
    Joined {
        /// Whether this join is a reconnect of a previously dropped worker.
        rejoin: bool,
    },
    /// The worker was dropped from the run.
    Dropped(DropReason),
}

/// One membership change, anchored to the round it took effect in.
/// Drops during the final replica collection use `round == steps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Round index the event took effect at.
    pub round: u32,
    /// Worker id.
    pub worker: u32,
    /// The change.
    pub event: MemberEvent,
}

/// Per-round liveness policy: deadline, quorum, and the deterministic
/// re-admission schedule.
#[derive(Debug, Clone)]
pub struct RoundPolicy {
    /// Abort with [`NetError::Quorum`] when fewer workers remain.
    pub min_workers: usize,
    /// Budget for each collection — a round's drift scalars, its
    /// summaries, its models, and the final replicas; a worker whose frame
    /// has not arrived when the budget runs out is dropped.
    pub deposit_timeout: Duration,
    /// `(round, worker_id)`: re-admit `worker_id` at the start of `round`,
    /// *waiting* for it if it has not reconnected yet. Scheduling
    /// admissions — rather than admitting whenever a reconnect happens to
    /// land — is what makes a churn trajectory replayable: reconnect
    /// timing depends on OS scheduling and backoff jitter, the schedule
    /// does not.
    pub admissions: Vec<(u32, u32)>,
}

impl Default for RoundPolicy {
    fn default() -> RoundPolicy {
        RoundPolicy {
            min_workers: 1,
            deposit_timeout: Duration::from_secs(30),
            admissions: Vec::new(),
        }
    }
}

/// Outcome of a coordinated run — the transport-side mirror of a
/// simulator trajectory, for bit-parity checks and byte-accounting audits.
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    /// Model synchronizations performed.
    pub syncs: u64,
    /// Per-round sync decisions, in step order.
    pub decisions: Vec<bool>,
    /// Per-round variance estimates `H(S̄_t)`, in step order.
    pub estimates: Vec<f32>,
    /// Bytes charged by the embedded [`SimNetwork`] — the simulator's
    /// convention (state payload per step, `d·4` per sync, per worker),
    /// summed across membership eras when the worker set changed.
    pub charged_bytes: u64,
    /// Bytes *measured* on the fabric under the same payload convention:
    /// every data-plane frame that was actually averaged, fed through the
    /// accounting mode at the round's live worker count. Equals
    /// `charged_bytes` iff the traffic that crossed the fabric is exactly
    /// what the simulator charges.
    pub measured_payload_bytes: u64,
    /// Raw bytes the coordinator transmitted (framing, control plane and
    /// broadcasts included), dropped connections included; filled in by
    /// the driver that owns the sockets.
    pub raw_tx_bytes: u64,
    /// Raw bytes the coordinator received.
    pub raw_rx_bytes: u64,
    /// Frame-payload bytes of the consensus-model downlink broadcasts
    /// (`AvgModel`/`AvgModelDelta`), summed over workers and syncs —
    /// uncharged control-plane traffic, reported so delta downlinks can be
    /// audited against the dense baseline.
    pub downlink_model_bytes: u64,
    /// Final replica parameters of each worker that finished the run, in
    /// [`NetReport::survivors`] order (== worker-id order). On a fault-free
    /// run this is every worker, indexed by id.
    pub worker_params: Vec<Vec<f32>>,
    /// Mean of the surviving final replicas (uncharged evaluation model).
    pub final_params: Vec<f32>,
    /// Worker ids that completed the run, ascending.
    pub survivors: Vec<u32>,
    /// Every membership change, in occurrence order: K `Joined` events at
    /// round 0, then drops/rejoins as they happened.
    pub events: Vec<MembershipEvent>,
}

/// What a machine reacts to. Peers are worker ids; a worker machine's one
/// peer, the coordinator, is `0`.
#[derive(Debug)]
pub enum Input<'a> {
    /// A checksummed frame from `from`, stamped with `epoch`.
    Frame {
        /// The sending peer.
        from: usize,
        /// The frame's kind.
        kind: FrameKind,
        /// The membership epoch the frame was stamped with.
        epoch: u32,
        /// The frame's payload.
        payload: &'a [u8],
    },
    /// The driver's clock: time since the run began.
    Tick(Duration),
    /// The link to `from` failed or closed.
    Closed {
        /// The peer whose link is gone.
        from: usize,
        /// The drop bucket of the failure.
        reason: DropReason,
    },
}

impl Input<'_> {
    /// Worker `from`'s hello, checked by its driver's handshake: a join.
    pub fn hello(from: usize) -> Input<'static> {
        Input::Frame {
            from,
            kind: FrameKind::Hello,
            epoch: 0,
            payload: &[],
        }
    }
}

/// Who a [`Output::Send`] goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum To {
    /// One peer.
    One(usize),
    /// Every live peer, in id order: a broadcast, one frame head for the
    /// whole fan-out.
    Live,
}

/// What a machine asks of its driver. `R` is what the run ends with.
#[derive(Debug)]
pub enum Output<'a, R> {
    /// Frame `payload` as `kind`, stamped with `epoch`, to `to`. The
    /// payload is borrowed from the machine's scratch.
    Send {
        /// The target(s).
        to: To,
        /// The epoch stamp.
        epoch: u32,
        /// The frame kind.
        kind: FrameKind,
        /// The payload.
        payload: &'a [u8],
    },
    /// Close the link to `to`.
    Close {
        /// The peer.
        to: usize,
        /// Why the machine dropped it.
        reason: DropReason,
    },
    /// A finished round's record, when the machine keeps records; the
    /// driver adds its transport fields and writes it.
    Round(Box<RoundEvent>),
    /// The run is over.
    Done(R),
}

/// A queued coordinator output; a send's payload is the one its kind
/// names, borrowed when polled.
#[derive(Debug)]
enum Queued {
    Send(To, FrameKind),
    Close(usize, DropReason),
    Round(Box<RoundEvent>),
    Done(Box<Result<NetReport, NetError>>),
}

/// Where the coordinator is in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the K hellos of formation.
    Forming,
    /// Waiting for a scheduled rejoiner's hello.
    Admit(usize),
    /// Waiting for one frame of this kind from every live worker.
    Collect(FrameKind),
    /// A broadcast went out; its phase ends once the driver reported the
    /// failed sends, then the models are collected (`Some`) or the round
    /// ends (`None`).
    Fanout(Option<FrameKind>),
    Done,
}

/// The coordinator half of the protocol.
pub struct CoordinatorMachine<'a> {
    spec: &'a JobSpec,
    policy: &'a RoundPolicy,
    /// The round's arithmetic and accounting: monitor, Θ, codecs, the
    /// consensus and the one before it (the `Resume` handoff), `S̄`.
    server: Server,
    /// Uncharged self-description bytes of a summary frame, which charges
    /// its encoded summary; a drift charges its 4 bytes, a model its
    /// encoded payload minus the 4-byte length header.
    state_overhead: u64,
    /// The join handshake's `Config` or `Resume` payload, encoded when
    /// polled.
    join: Vec<u8>,
    round: u32,
    phase: Phase,
    queue: VecDeque<Queued>,
    /// Per worker id: connected; the epoch last stamped on a frame sent to
    /// it, which its frames are validated against; consecutive stale
    /// frames; whether it delivered this phase, and what that charges.
    live: Vec<bool>,
    sent_epoch: Vec<u32>,
    stale: Vec<u32>,
    delivered: Vec<bool>,
    sizes: Vec<u64>,
    /// One state slot and one model slot per worker id, shaped at
    /// formation and overwritten by each of that worker's deposits — with
    /// the server's own broadcast scratch, the steady-state round loop
    /// allocates nothing sized by the payload.
    state_slots: Vec<LocalState>,
    model_slots: Vec<Vec<f32>>,
    /// The membership epoch: bumped once per phase that dropped anyone
    /// (`dropped`) and once per re-admission.
    epoch: u32,
    dropped: bool,
    min_workers: usize,
    /// Where the scan for this round's admissions resumes.
    admit_from: usize,
    now: Duration,
    deadline: Option<Duration>,
    /// The charged fabric. On a membership change it is rebuilt at the new
    /// K′ and the old era's charges are banked; a fault-free run keeps one
    /// fabric end to end.
    net: SimNetwork,
    banked: u64,
    /// The trajectory and the measured bytes so far.
    report: NetReport,
    downlink_len: u64,
    /// The ids a finished phase reduces, ascending, and their charges.
    deposited: Vec<usize>,
    payloads: Vec<u64>,
    /// With `records`, each round's record: events and measured bytes
    /// past `marks.0` and `marks.1` belong to the round, `marks.2` is the
    /// measured total after its states, `marks.3` its reduce's headcount.
    records: bool,
    marks: (usize, u64, u64, u32),
}

impl<'a> CoordinatorMachine<'a> {
    /// The coordinator of a validated job under `policy`, waiting for its
    /// K hellos. With `records`, every finished round yields an
    /// [`Output::Round`].
    pub fn new(spec: &'a JobSpec, policy: &'a RoundPolicy, records: bool) -> Self {
        let k = spec.cluster.workers;
        let w0 = spec.cluster.model.build(spec.cluster.seed, 0).params_flat();
        let dim = w0.len();
        let mut server = Server::new(spec.fda, w0);
        server.set_uplink(spec.codec);
        server.set_downlink(spec.downlink);
        CoordinatorMachine {
            spec,
            policy,
            state_overhead: state_frame_overhead(server.avg_state()),
            state_slots: vec![server.avg_state().clone(); k],
            model_slots: vec![vec![0.0; dim]; k],
            server,
            join: Vec::new(),
            round: 0,
            phase: Phase::Forming,
            queue: VecDeque::with_capacity(8),
            live: vec![false; k],
            sent_epoch: vec![0; k],
            stale: vec![0; k],
            delivered: vec![false; k],
            sizes: vec![0; k],
            epoch: 1,
            dropped: false,
            min_workers: policy.min_workers.max(1),
            admit_from: 0,
            now: Duration::ZERO,
            deadline: None,
            net: SimNetwork::new(k),
            banked: 0,
            report: NetReport {
                decisions: Vec::with_capacity(spec.steps as usize),
                estimates: Vec::with_capacity(spec.steps as usize),
                ..NetReport::default()
            },
            downlink_len: 0,
            deposited: Vec::with_capacity(k),
            payloads: Vec::with_capacity(k),
            records,
            marks: (0, 0, 0, 0),
        }
    }

    /// The round under way (`steps` during the final collection).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The worker a blocking driver should wait on next: the lowest live
    /// id that has not delivered this collection, within what is left of
    /// its deadline (at least 1 ms; `None` before the first tick armed
    /// it), or the scheduled rejoiner — a dropped worker, whose hello on a
    /// new link the driver waits for, with no deadline. `None` once the run
    /// is over or while outputs are pending.
    pub fn wants(&self) -> Option<(usize, Option<Duration>)> {
        match self.phase {
            Phase::Admit(id) => Some((id, None)),
            Phase::Collect(_) => {
                let from = (0..self.live.len()).find(|&i| self.live[i] && !self.delivered[i])?;
                let left = |d: Duration| d.saturating_sub(self.now).max(Duration::from_millis(1));
                Some((from, self.deadline.map(left)))
            }
            _ => None,
        }
    }

    /// Reacts to one input. The deadline is armed by the first tick of
    /// each collection.
    pub fn handle(&mut self, input: Input) {
        match input {
            Input::Tick(now) => {
                self.now = now;
                let collecting = matches!(self.phase, Phase::Collect(_));
                if collecting && self.deadline.is_none() {
                    self.deadline = Some(now + self.policy.deposit_timeout);
                }
            }
            Input::Closed { from, reason } if from < self.live.len() => {
                self.drop_worker(from, reason);
                self.try_complete();
            }
            Input::Frame {
                from,
                kind,
                epoch,
                payload,
            } if from < self.live.len() => {
                // A live worker's hello is out of phase like any other kind.
                if kind == FrameKind::Hello && !self.live[from] {
                    return self.join(from);
                }
                if let Err(e) = self.deposit(from, kind, epoch, payload) {
                    self.drop_worker(from, DropReason::of(&e));
                }
                self.try_complete();
            }
            _ => {}
        }
    }

    /// The next output, if any. Once the queue drains, a fan-out's phase
    /// ends here: an epoch bump for its drops, the quorum, the next phase.
    pub fn poll(&mut self) -> Option<Output<'_, Result<NetReport, NetError>>> {
        loop {
            if let Some(q) = self.queue.pop_front() {
                return Some(self.resolve(q));
            }
            let Phase::Fanout(next) = self.phase else {
                return None;
            };
            if self.end_phase() {
                match next {
                    Some(kind) => self.collect(kind),
                    None => self.end_round(),
                }
            }
        }
    }

    fn resolve(&mut self, q: Queued) -> Output<'_, Result<NetReport, NetError>> {
        let (to, kind) = match q {
            Queued::Send(to, kind) => (to, kind),
            Queued::Close(to, reason) => return Output::Close { to, reason },
            Queued::Round(record) => return Output::Round(record),
            Queued::Done(outcome) => return Output::Done(*outcome),
        };
        for id in 0..self.live.len() {
            if to == To::One(id) || (to == To::Live && self.live[id]) {
                self.sent_epoch[id] = self.epoch;
            }
        }
        let payload: &[u8] = match kind {
            FrameKind::Config => {
                self.join = encode_job(self.spec);
                &self.join
            }
            FrameKind::Resume => {
                self.join.clear();
                self.server.resume_payload(self.round, &mut self.join);
                &self.join
            }
            FrameKind::AvgState => self.server.avg_state_payload(),
            FrameKind::AvgModel | FrameKind::AvgModelDelta => {
                let payload = self.server.downlink_payload();
                self.downlink_len = payload.len() as u64;
                payload
            }
            _ => &[],
        };
        let epoch = self.epoch;
        Output::Send {
            to,
            epoch,
            kind,
            payload,
        }
    }

    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn finish(&mut self, outcome: Result<NetReport, NetError>) {
        self.phase = Phase::Done;
        self.queue.push_back(Queued::Done(Box::new(outcome)));
    }

    /// A hello: one of formation's K, or the rejoin the schedule waits for
    /// (the driver holds any other back). Both get the one join handshake,
    /// `Config` then the versioned `Resume` handoff at the current round —
    /// at formation `Resume { round: 0, model: w_0, prev: None }`, a bitwise
    /// no-op for a fresh replica.
    fn join(&mut self, id: usize) {
        let to = match self.phase {
            Phase::Forming => To::Live,
            Phase::Admit(w) if w == id => To::One(id),
            _ => return,
        };
        self.live[id] = true;
        if to == To::Live && self.live_count() < self.live.len() {
            return;
        }
        let rejoin = to != To::Live;
        let joined = if rejoin {
            id..id + 1
        } else {
            0..self.live.len()
        };
        self.report.events.extend(joined.map(|w| MembershipEvent {
            round: self.round,
            worker: w as u32,
            event: MemberEvent::Joined { rejoin },
        }));
        self.epoch += rejoin as u32;
        self.stale[id] = 0;
        self.queue.push_back(Queued::Send(to, FrameKind::Config));
        self.queue.push_back(Queued::Send(to, FrameKind::Resume));
        if rejoin {
            self.admit_next();
        } else {
            self.start_round();
        }
    }

    /// A round begins: telemetry marks, then the scheduled re-admissions;
    /// past the last round, the final collection.
    fn start_round(&mut self) {
        self.marks = (
            self.report.events.len(),
            self.report.measured_payload_bytes,
            0,
            0,
        );
        if self.round == self.spec.steps {
            self.collect(FrameKind::FinalModel);
        } else {
            self.admit_next();
        }
    }

    /// Waits for the next admission due this round, or opens the deposits.
    fn admit_next(&mut self) {
        let admissions = &self.policy.admissions[self.admit_from..];
        let Some(i) = admissions.iter().position(|&(r, _)| r == self.round) else {
            self.admit_from = 0;
            return self.collect(FrameKind::Drift);
        };
        let w = admissions[i].1 as usize;
        self.admit_from += i + 1;
        if w < self.live.len() && !self.live[w] {
            self.phase = Phase::Admit(w);
        } else {
            let why = format!(
                "admission schedule: worker {w} at round {} is not a dropped worker",
                self.round
            );
            self.finish(Err(NetError::Protocol(why)));
        }
    }

    fn collect(&mut self, kind: FrameKind) {
        self.phase = Phase::Collect(kind);
        self.deadline = None;
        self.delivered.fill(false);
    }

    /// One frame of the current phase from `from`: the epoch rule, then
    /// the kind, then the decode into `from`'s slot, whose shape the
    /// header must match before anything is written.
    fn deposit(
        &mut self,
        id: usize,
        kind: FrameKind,
        epoch: u32,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let Phase::Collect(want) = self.phase else {
            return Ok(());
        };
        if !self.live[id] || !check_epoch(epoch, self.sent_epoch[id], &mut self.stale[id])? {
            return Ok(());
        }
        if kind != want || self.delivered[id] {
            let (want, got) = (want.label(), kind.label());
            return Err(NetError::Protocol(format!("expected {want}, got {got}")));
        }
        let (codec, len) = (self.server.uplink(), payload.len() as u64);
        self.sizes[id] = match kind {
            FrameKind::Drift => {
                let Ok(scalar) = <[u8; 4]>::try_from(payload) else {
                    let why = format!("drift scalar of {len} bytes");
                    return Err(NetError::Protocol(why));
                };
                self.state_slots[id].drift_sq_norm = f32::from_le_bytes(scalar);
                len
            }
            FrameKind::Summary => {
                decode_summary_coded_into(payload, &mut self.state_slots[id], codec)?;
                len - self.state_overhead
            }
            FrameKind::Model => {
                decode_vector_coded_into(payload, &mut self.model_slots[id], codec)?;
                len - 4
            }
            _ => {
                decode_vector_coded_into(payload, &mut self.model_slots[id], &Dense32)?;
                0
            }
        };
        self.delivered[id] = true;
        Ok(())
    }

    fn drop_worker(&mut self, id: usize, reason: DropReason) {
        if self.phase == Phase::Done || !std::mem::take(&mut self.live[id]) {
            return;
        }
        self.queue.push_back(Queued::Close(id, reason));
        let (round, worker) = (self.round, id as u32);
        let event = MemberEvent::Dropped(reason);
        self.report.events.push(MembershipEvent {
            round,
            worker,
            event,
        });
        self.dropped = true;
    }

    /// Ends a phase: one epoch bump if it dropped anyone, then the quorum.
    fn end_phase(&mut self) -> bool {
        self.epoch += std::mem::take(&mut self.dropped) as u32;
        let (round, alive, min_workers) = (self.round, self.live_count(), self.min_workers);
        if alive < min_workers {
            let quorum = NetError::Quorum {
                round,
                alive,
                min_workers,
            };
            self.finish(Err(quorum));
        }
        alive >= min_workers
    }

    /// Once every live worker delivered: the phase ends, and its
    /// deliveries are measured at the surviving K′ and reduced in id order.
    fn try_complete(&mut self) {
        let Phase::Collect(kind) = self.phase else {
            return;
        };
        if self.wants().is_some() || !self.end_phase() {
            return;
        }
        self.deposited.clear();
        self.payloads.clear();
        for id in (0..self.live.len()).filter(|&i| self.live[i] && self.delivered[i]) {
            self.deposited.push(id);
            self.payloads.push(self.sizes[id]);
        }
        let alive = self.deposited.len();
        if self.net.workers() != alive {
            self.banked += self.net.total_bytes();
            self.net = SimNetwork::new(alive);
        }
        for &bytes in &self.payloads {
            self.report.measured_payload_bytes += per_worker_bytes(bytes, alive);
        }
        match kind {
            FrameKind::Drift => self.settle(),
            FrameKind::Summary => self.decide(),
            FrameKind::Model => self.commit(),
            _ => self.report(),
        }
    }

    /// Phase A: the server settles the round on the drift scalars — a
    /// quiet decision broadcast goes out — or the summaries are asked for.
    fn settle(&mut self) {
        let slots = &self.state_slots;
        let scalars = self.deposited.iter().map(|&i| slots[i].drift_sq_norm);
        match self.server.settle(&mut self.net, scalars) {
            Some(m) => {
                self.marks.2 = self.report.measured_payload_bytes;
                self.marks.3 = self.deposited.len() as u32;
                self.report.estimates.push(m);
                self.report.decisions.push(false);
                self.queue
                    .push_back(Queued::Send(To::Live, FrameKind::AvgState));
                self.phase = Phase::Fanout(None);
            }
            None => {
                self.queue
                    .push_back(Queued::Send(To::Live, FrameKind::SummaryRequest));
                self.phase = Phase::Fanout(Some(FrameKind::Summary));
            }
        }
    }

    /// Phase B: the server reduces phase A's scalars completed by the
    /// summaries and decides; its decision broadcast goes out once, to
    /// every live worker.
    fn decide(&mut self) {
        self.marks.2 = self.report.measured_payload_bytes;
        self.marks.3 = self.deposited.len() as u32;
        let states: Vec<&LocalState> = self
            .deposited
            .iter()
            .map(|&i| &self.state_slots[i])
            .collect();
        let (estimate, sync) = self
            .server
            .decide(&mut self.net, None, &states, &self.payloads);
        self.report.estimates.push(estimate);
        self.report.decisions.push(sync);
        self.queue
            .push_back(Queued::Send(To::Live, FrameKind::AvgState));
        self.phase = Phase::Fanout(sync.then_some(FrameKind::Model));
    }

    /// The server's model AllReduce, then its consensus downlink — a dense
    /// `AvgModel`, or the `AvgModelDelta` whose reconstruction is the
    /// consensus every worker will compute.
    fn commit(&mut self) {
        let models: Vec<&[f32]> = self
            .deposited
            .iter()
            .map(|&i| &self.model_slots[i][..])
            .collect();
        self.server
            .commit(&mut self.net, None, &models, &self.payloads);
        let kind = match self.spec.downlink.is_dense() {
            true => FrameKind::AvgModel,
            false => FrameKind::AvgModelDelta,
        };
        self.queue.push_back(Queued::Send(To::Live, kind));
        self.phase = Phase::Fanout(None);
    }

    /// The round's record and the next round.
    fn end_round(&mut self) {
        let downlink = std::mem::take(&mut self.downlink_len) * self.live_count() as u64;
        self.report.downlink_model_bytes += downlink;
        if self.records {
            let (events, before, after_state, alive) = self.marks;
            let drops = self.report.events[events..]
                .iter()
                .filter_map(|e| match e.event {
                    MemberEvent::Dropped(r) => Some(DropRecord {
                        worker: e.worker,
                        reason: r.as_str().to_string(),
                    }),
                    MemberEvent::Joined { .. } => None,
                });
            let ledger = RoundLedger {
                source: "net",
                epoch: self.epoch,
                alive,
                state_bytes: after_state - before,
                model_bytes: self.report.measured_payload_bytes - after_state,
                charged_bytes: self.banked + self.net.total_bytes(),
                measured_bytes: self.report.measured_payload_bytes,
                deposit_us: Vec::new(),
                drops: drops.collect(),
            };
            let record = self.server.round_event(self.round + 1, ledger);
            self.queue.push_back(Queued::Round(Box::new(record)));
        }
        self.round += 1;
        self.start_round();
    }

    /// The final replicas (uncharged, like `Cluster::average_params`), the
    /// shutdown, and the report.
    fn report(&mut self) {
        let mut report = std::mem::take(&mut self.report);
        report.survivors = self.deposited.iter().map(|&id| id as u32).collect();
        let slots = self
            .deposited
            .iter()
            .map(|&i| std::mem::take(&mut self.model_slots[i]));
        report.worker_params = slots.collect();
        let refs: Vec<&[f32]> = report.worker_params.iter().map(|p| p.as_slice()).collect();
        report.final_params = vector::mean(&refs);
        report.syncs = self.server.syncs();
        report.charged_bytes = self.banked + self.net.total_bytes();
        self.queue
            .push_back(Queued::Send(To::Live, FrameKind::Shutdown));
        self.finish(Ok(report));
    }
}

/// One worker session's half of the protocol: `Config` → `Resume` →
/// rounds from `Resume.round` → `FinalModel` → `Shutdown`.
pub struct WorkerMachine {
    id: u32,
    epoch: u32,
    /// The next frame kind the protocol allows.
    expect: FrameKind,
    /// The job and its model's dimension `d`.
    spec: Option<(JobSpec, usize)>,
    joined: Option<Joined>,
    /// Round-persistent uplink scratch: every deposit and model payload is
    /// encoded into this buffer in place.
    ubuf: Vec<u8>,
    out: Option<FrameKind>,
    /// How the session ended: the rounds it ran, or why it failed.
    done: Option<Result<u64, NetError>>,
    syncs: u64,
}

/// A session past its handoff: the replica and where it is.
struct Joined {
    task: TaskData,
    worker: Worker,
    replica: Replica,
    start: u32,
    round: u32,
}

impl WorkerMachine {
    /// Worker `id`'s session, its hello sent with `last_epoch`.
    pub fn new(id: u32, last_epoch: u32) -> WorkerMachine {
        WorkerMachine {
            id,
            epoch: last_epoch,
            expect: FrameKind::Config,
            spec: None,
            joined: None,
            ubuf: Vec::new(),
            out: None,
            done: None,
            syncs: 0,
        }
    }

    /// The epoch of the last frame received — stamped on everything this
    /// session sends, so the coordinator can tell live deposits from a
    /// zombie's.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The round whose state the session is at.
    pub fn round(&self) -> u32 {
        self.joined.as_ref().map_or(0, |j| j.round)
    }

    /// Synchronizations this session took part in.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The next output, if any.
    pub fn poll(&mut self) -> Option<Output<'_, Result<u64, NetError>>> {
        if let Some(done) = self.done.take() {
            return Some(Output::Done(done));
        }
        let (to, epoch, kind, payload) = (To::One(0), self.epoch, self.out.take()?, &self.ubuf[..]);
        Some(Output::Send {
            to,
            epoch,
            kind,
            payload,
        })
    }

    /// Reacts to a frame; the driver owns the link and the clock, so a
    /// worker ignores the other inputs.
    pub fn handle(&mut self, input: Input) {
        if let Input::Frame {
            kind,
            epoch,
            payload,
            ..
        } = input
        {
            self.epoch = epoch;
            match self.frame(kind, payload) {
                Ok(true) => self.train(),
                Ok(false) => {}
                Err(e) => self.done = Some(Err(e)),
            }
        }
    }

    /// One frame of the session; `Ok(true)` when the replica trains the
    /// next round.
    fn frame(&mut self, kind: FrameKind, payload: &[u8]) -> Result<bool, NetError> {
        let id = self.id;
        let fail = |why: String| NetError::Protocol(format!("worker {id}: {why}"));
        // A drift scalar's answer is its decision or, in phase B, a
        // summary request.
        let requested = kind == FrameKind::SummaryRequest && self.expect == FrameKind::AvgState;
        if kind != self.expect && !requested {
            return Err(fail(format!(
                "expected {}, got {}",
                self.expect.label(),
                kind.label()
            )));
        }
        if kind == FrameKind::Config {
            let spec = decode_job(payload)?;
            if id as usize >= spec.cluster.workers {
                let k = spec.cluster.workers;
                return Err(fail(format!("id out of range for a job of K = {k}")));
            }
            let dim = spec.cluster.model.build(spec.cluster.seed, 0).param_count();
            self.spec = Some((spec, dim));
            self.expect = FrameKind::Resume;
            return Ok(false);
        }
        let (spec, dim) = self.spec.as_ref().expect("a configured session");
        if kind == FrameKind::Resume {
            // The versioned handoff, checked before the task is generated:
            // the replica rebuilt from `(seed, id)` and the consensus
            // loaded — at formation `w_0` into a replica already holding
            // `w_0`, a bitwise no-op.
            let (start, replica) = Replica::resume(spec, *dim, payload).map_err(fail)?;
            let task = spec.synth.generate(&spec.task_name);
            let mut worker = spec.cluster.build_worker(&task.train, id as usize);
            worker.model_mut().load_params(replica.consensus());
            let round = start;
            self.joined = Some(Joined {
                task,
                worker,
                replica,
                start,
                round,
            });
            return Ok(true);
        }
        let j = self.joined.as_mut().expect("a session past its handoff");
        match kind {
            // Phase B: the summary of the drift whose scalar went ahead.
            FrameKind::SummaryRequest => {
                if !payload.is_empty() {
                    return Err(fail("summary request with a payload".to_string()));
                }
                self.ubuf.clear();
                j.replica.summary_payload(&mut self.ubuf).map_err(fail)?;
                self.out = Some(FrameKind::Summary);
                return Ok(false);
            }
            // The averaged state and the decision, checked against this
            // replica's own shape and `H(S̄) > Θ`: a disagreement is a
            // protocol error, not a silent divergence. On a sync, the
            // model upload.
            FrameKind::AvgState => {
                if j.replica.check(payload).map_err(fail)? {
                    self.ubuf.clear();
                    j.replica
                        .model_payload(j.worker.model().params(), &mut self.ubuf);
                    self.out = Some(FrameKind::Model);
                    self.expect = match spec.downlink.is_dense() {
                        true => FrameKind::AvgModel,
                        false => FrameKind::AvgModelDelta,
                    };
                    return Ok(false);
                }
            }
            FrameKind::Shutdown => {
                if !payload.is_empty() {
                    return Err(fail("shutdown with a payload".to_string()));
                }
                self.done = Some(Ok(u64::from(spec.steps - j.start)));
                return Ok(false);
            }
            _ => {
                let consensus = j.replica.adopt(payload).map_err(fail)?;
                j.worker.model_mut().load_params(consensus);
                self.syncs += 1;
            }
        }
        j.round += 1;
        Ok(true)
    }

    /// Local training — the simulator's exact code path — and the round's
    /// deposit, the drift scalar; past the last round, the final replica
    /// instead.
    fn train(&mut self) {
        let steps = self.spec.as_ref().expect("a configured session").0.steps;
        let j = self.joined.as_mut().expect("a session past its handoff");
        self.ubuf.clear();
        if j.round < steps {
            j.worker.step_once(&j.task.train);
            j.replica
                .drift_payload(j.worker.model().params(), &mut self.ubuf);
            (self.out, self.expect) = (Some(FrameKind::Drift), FrameKind::AvgState);
        } else {
            encode_vector_coded_into(&j.worker.params(), &Dense32, &mut self.ubuf);
            (self.out, self.expect) = (Some(FrameKind::FinalModel), FrameKind::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_into, write_frame};
    use fda_core::fda::FdaConfig;
    use fda_core::monitor::{LinearMonitor, SketchMonitor, VarianceMonitor};
    use fda_core::wire::{decode_state_coded, decode_vector_coded, encode_state_coded};
    use fda_sketch::SketchConfig;

    fn job(fda: FdaConfig) -> JobSpec {
        JobSpec {
            cluster: fda_core::cluster::ClusterConfig::small_test(2),
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps: 4,
            synth: fda_data::synth::SynthSpec {
                n_train: 64,
                n_test: 16,
                ..fda_data::synth::SynthSpec::synth_mnist()
            },
            task_name: "machine".to_string(),
        }
    }

    /// The first frame on `wire` that [`check_epoch`] delivers at `epoch`.
    fn recv_at(wire: Vec<u8>, epoch: u32, buf: &mut Vec<u8>) -> Result<FrameKind, NetError> {
        let (mut r, mut stale) = (std::io::Cursor::new(wire), 0);
        loop {
            let (kind, frame_epoch) = read_frame_into(&mut r, buf)?;
            if check_epoch(frame_epoch, epoch, &mut stale)? {
                return Ok(kind);
            }
        }
    }

    /// A local state survives the data-plane frame (through the epoch
    /// filter) bit for bit, and the server's decision broadcast reaches a
    /// replica, which reads back the server's decision.
    #[test]
    fn state_and_avg_state_roundtrip_bitwise() {
        let drift: Vec<f32> = (0..96).map(|i| (i as f32 * 0.11).sin()).collect();
        let through_a_frame = |kind, payload: &[u8], buf: &mut Vec<u8>| {
            let mut wire: Vec<u8> = Vec::new();
            write_frame(&mut wire, 11, kind, payload).unwrap();
            let got = recv_at(wire, 11, buf).unwrap();
            assert_eq!(got, kind);
        };
        for fda in [
            FdaConfig::linear(0.01),
            FdaConfig {
                variant: fda_core::fda::FdaVariant::Sketch(SketchConfig::new(3, 16, 5)),
                theta: 0.01,
            },
        ] {
            let state = fda.variant.build_monitor(drift.len()).local_state(&drift);
            let mut buf = Vec::new();
            through_a_frame(
                FrameKind::State,
                &encode_state_coded(&state, &Dense32),
                &mut buf,
            );
            assert_eq!(
                decode_state_coded(&buf[1..], &state, &Dense32).unwrap(),
                state
            );

            let mut server = Server::new(fda, vec![0.0; drift.len()]);
            let mut handoff = Vec::new();
            server.resume_payload(0, &mut handoff);
            let (_, mut replica) = Replica::resume(&job(fda), drift.len(), &handoff).unwrap();
            let mut net = fda_comm::SimNetwork::new(1);
            let (_, sync) = server.decide(&mut net, None, &[&state], &[]);
            through_a_frame(FrameKind::AvgState, server.avg_state_payload(), &mut buf);
            assert_eq!(replica.check(&buf[1..]), Ok(sync));
            assert_eq!(
                decode_state_coded(&buf[2..], &state, &Dense32).unwrap(),
                state
            );
        }
    }

    /// A parameter vector round-trips as the final model, decoded into a
    /// slot of the receiver's dimension, and as a dense model upload its
    /// accounted payload — the frame payload minus the 4-byte length
    /// header — is `d·4`.
    #[test]
    fn model_roundtrip_and_accounting() {
        let v: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let upload = fda_core::wire::encode_vector_coded(&v, &Dense32);
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 11, FrameKind::FinalModel, &upload).unwrap();
        let mut buf = Vec::new();
        let (kind, _) = read_frame_into(&mut std::io::Cursor::new(wire), &mut buf).unwrap();
        assert_eq!(kind, FrameKind::FinalModel);
        let mut slot = vec![0.0f32; 1000];
        decode_vector_coded_into(&buf[1..], &mut slot, &Dense32).unwrap();
        assert_eq!(slot, v);
        assert_eq!(upload.len() as u64 - 4, 4000);
    }

    /// A dense state frame's accounted payload — the frame payload minus
    /// its uncharged tag/shape header — is the monitor's `state_bytes`,
    /// the exact quantity the simulator charges per step.
    #[test]
    fn state_accounting_matches_monitor_convention() {
        let drift: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let lin = LinearMonitor::new();
        let sk = SketchMonitor::new(SketchConfig::new(5, 25, 1), 64);
        for (state, charged) in [
            (lin.local_state(&drift), lin.state_bytes()),
            (sk.local_state(&drift), sk.state_bytes()),
        ] {
            let accounted =
                encode_state_coded(&state, &Dense32).len() as u64 - state_frame_overhead(&state);
            assert_eq!(accounted, charged);
        }
    }

    /// The zombie guard: stale-epoch frames are skipped, the current-epoch
    /// frame behind them is delivered, future epochs and stale floods are
    /// protocol errors.
    #[test]
    fn stale_epochs_skipped_future_rejected() {
        let state = encode_state_coded(
            &LinearMonitor::new().local_state(&[1.0, 2.0, 3.0]),
            &Dense32,
        );
        let recv = |wire: Vec<u8>, buf: &mut Vec<u8>| recv_at(wire, 5, buf);
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 3, FrameKind::State, &state).unwrap(); // stale
        write_frame(&mut wire, 4, FrameKind::State, &state).unwrap(); // stale
        let live = fda_core::wire::encode_vector_coded(&[9.0], &Dense32);
        write_frame(&mut wire, 5, FrameKind::FinalModel, &live).unwrap(); // current
        let mut buf = Vec::new();
        assert_eq!(recv(wire, &mut buf).unwrap(), FrameKind::FinalModel);
        assert_eq!(decode_vector_coded(&buf[1..], 1, &Dense32).unwrap(), [9.0]);

        // Future epoch → protocol violation.
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 9, FrameKind::State, &state).unwrap();
        assert!(matches!(recv(wire, &mut buf), Err(NetError::Protocol(_))));

        // A flood of stale frames → protocol violation, not an endless
        // discard loop.
        let mut wire: Vec<u8> = Vec::new();
        for _ in 0..(MAX_STALE_FRAMES + 2) {
            write_frame(&mut wire, 1, FrameKind::State, &state).unwrap();
        }
        assert!(matches!(recv(wire, &mut buf), Err(NetError::Protocol(_))));
    }

    /// A `Config` frame whose job asks for a sketch big enough to exhaust
    /// memory ends the worker's session with a decode error before any
    /// model or monitor is built.
    #[test]
    fn config_frame_asking_for_a_huge_sketch_is_refused() {
        let job = job(FdaConfig {
            variant: fda_core::fda::FdaVariant::Sketch(SketchConfig::new(65_535, 65_535, 7)),
            theta: 0.1,
        });
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 1, FrameKind::Config, &encode_job(&job)).unwrap();
        let mut buf = Vec::new();
        assert_eq!(recv_at(wire, 1, &mut buf).unwrap(), FrameKind::Config);
        let mut m = WorkerMachine::new(0, 0);
        m.handle(Input::Frame {
            from: 0,
            kind: FrameKind::Config,
            epoch: 1,
            payload: &buf[1..],
        });
        assert!(matches!(
            m.poll(),
            Some(Output::Done(Err(NetError::Decode(
                fda_core::wire::DecodeError::Malformed(_)
            ))))
        ));
    }
}
