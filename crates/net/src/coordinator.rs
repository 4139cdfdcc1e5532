//! The TCP coordinator: deposit → deterministic reduce → broadcast,
//! surviving worker churn.
//!
//! One FDA round on the wire is the same three-phase rendezvous as the
//! simulator's pooled reduction, with sockets in place of the pool's lanes:
//!
//! 1. **deposit** — every live worker uploads its local state frame;
//! 2. **reduce** — the round's server half ([`fda_core::round::Server`],
//!    the one the simulator runs) averages the decoded states **in
//!    worker-id order**, evaluates `H(S̄_t)`, and decides;
//! 3. **broadcast** — every live worker receives the averaged state plus
//!    the decision, so the conditional model AllReduce is
//!    cluster-consistent without an extra round.
//!
//! On a violation the same server averages the uploaded models, forms the
//! consensus downlink and advances the consensus; the coordinator only
//! moves the bytes. State and model charges land in an embedded
//! [`SimNetwork`], so a K-process TCP run is bit-identical to the
//! simulator by construction, and the charged byte counters are the
//! simulator's own. Independently, every data-plane frame that actually
//! crosses a socket is *measured* (payload convention and raw bytes); the
//! parity suite asserts measured == charged. What the coordinator itself
//! owns is membership, epochs, deadlines, framing, the measured bytes,
//! the charge eras of a changing membership, and telemetry.
//!
//! # Failure model
//!
//! Each round has a deposit deadline and a `min_workers` quorum
//! ([`RoundPolicy`]). A worker that times out, disconnects, or sends a
//! malformed frame is **dropped from the round**: its deposit is
//! discarded, the id-order reduce runs over the survivor set, and the run
//! continues with K′ < K. Every membership change bumps the **epoch**;
//! frames are stamped with it, and a connection's deposits are validated
//! against the epoch last announced *to that connection* — a zombie's
//! stale frames are skipped, never averaged. Dropping below quorum aborts
//! the run with [`NetError::Quorum`] instead of hanging or half-finishing.
//! A dropped worker may be re-admitted at a scheduled round
//! ([`RoundPolicy::admissions`]) via the versioned `Resume` handoff. The
//! full argument lives in DESIGN.md § "Failure model".

use crate::frame::{
    write_frame, write_frame_with, CountingStream, FrameHead, FrameKind, NetError, PROTOCOL_VERSION,
};
use crate::protocol::{encode_resume, recv_frame_at_epoch_into, Msg};
use fda_comm::{sim::per_worker_bytes, Dense32, SimNetwork};
use fda_core::monitor::LocalState;
use fda_core::round::Server;
use fda_core::wire::{
    decode_state_coded_into, decode_vector_coded_into, state_frame_overhead, JobSpec,
};
use fda_obs::{DropRecord, JsonlWriter, MembershipRecord, RoundEvent, RunEvent};
use fda_tensor::vector;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Why the coordinator dropped a worker from the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Missed the round's deposit deadline.
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
    /// Budget for collecting all of a round's deposits; a worker whose
    /// state has not arrived when the budget runs out is dropped.
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

/// Outcome of a coordinated TCP run — the transport-side mirror of a
/// simulator trajectory, for bit-parity checks and byte-accounting audits.
#[derive(Debug, Clone)]
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
    /// Bytes *measured* on the sockets under the same payload convention:
    /// every data-plane frame that was actually averaged, fed through the
    /// accounting mode at the round's live worker count. Equals
    /// `charged_bytes` iff the traffic that crossed the fabric is exactly
    /// what the simulator charges.
    pub measured_payload_bytes: u64,
    /// Raw bytes the coordinator transmitted (framing, control plane and
    /// broadcasts included), dropped connections included.
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

/// The rendezvous server side of the transport.
pub struct Coordinator {
    listener: TcpListener,
    accept_timeout: Duration,
    read_timeout: Duration,
    policy: RoundPolicy,
    telemetry: Option<PathBuf>,
}

/// One accepted worker connection.
///
/// `epoch` is the membership epoch last *stamped on a frame sent to this
/// peer* — the epoch the worker will echo back, and therefore the one its
/// deposits are validated against. It intentionally lags the
/// coordinator's global epoch until the next send: a worker that deposited
/// before learning of a concurrent membership change is not a zombie.
struct Conn {
    stream: CountingStream<TcpStream>,
    epoch: u32,
    /// Round-persistent receive buffer: [`Conn::recv_kind`]
    /// leaves the frame body here (kind byte + payload, so the payload is
    /// `rbuf[1..]`), and steady-state deposits never allocate per frame —
    /// the buffer only grows to the largest frame this peer ever sends.
    rbuf: Vec<u8>,
}

impl Conn {
    /// The join handshake, the same for first joins and rejoins: `Config`,
    /// then the versioned `Resume` handoff at `round`.
    fn send_join(
        &mut self,
        epoch: u32,
        round: u32,
        config: &[u8],
        model: &[f32],
        prev: Option<&[f32]>,
    ) -> Result<(), NetError> {
        self.epoch = epoch;
        write_frame(&mut self.stream, epoch, FrameKind::Config, config)?;
        let resume = encode_resume(round, model, prev);
        write_frame(&mut self.stream, epoch, FrameKind::Resume, &resume)
    }

    /// One target of an encode-once broadcast: `head` was composed (and
    /// `payload` checksummed) once for the whole fan-out.
    fn send_with(&mut self, head: &FrameHead, payload: &[u8]) -> Result<(), NetError> {
        self.epoch = head.epoch();
        write_frame_with(&mut self.stream, head, payload)
    }

    /// Current-epoch receive at the frame layer of a frame of kind
    /// `want`, whose payload — decoded against the job's codec and an
    /// expected shape — lands in `self.rbuf` (at `rbuf[1..]`).
    fn recv_kind(&mut self, want: FrameKind) -> Result<(), NetError> {
        match recv_frame_at_epoch_into(&mut self.stream, self.epoch, &mut self.rbuf)? {
            kind if kind == want => Ok(()),
            other => Err(NetError::Protocol(format!(
                "expected {}, got {}",
                want.label(),
                other.label()
            ))),
        }
    }

    fn set_read_timeout(&self, t: Duration) -> Result<(), NetError> {
        self.stream.get_ref().set_read_timeout(Some(t))?;
        Ok(())
    }
}

/// Maps a per-connection receive/send error to the drop bucket the
/// membership log records.
fn drop_reason(e: &NetError) -> DropReason {
    match e {
        NetError::Timeout(_) => DropReason::Timeout,
        NetError::Disconnect(_) | NetError::Io(_) => DropReason::Disconnect,
        NetError::Decode(_) | NetError::Protocol(_) | NetError::Quorum { .. } => {
            DropReason::Protocol
        }
    }
}

impl Coordinator {
    /// Binds the rendezvous listener. `127.0.0.1:0` picks a free loopback
    /// port (read it back via [`Coordinator::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Coordinator, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Coordinator {
            listener,
            accept_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(60),
            policy: RoundPolicy::default(),
            telemetry: None,
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Replaces the hang guards: how long to wait for all `K` workers to
    /// connect (also the wait budget for a scheduled re-admission), and
    /// the per-read/per-write socket timeout outside the deposit phase. A
    /// worker that stalls past the I/O timeout — silent on a read, or not
    /// draining its receive buffer on a write — is dropped (or fails the
    /// run, during formation) instead of wedging the rendezvous forever.
    pub fn set_timeouts(&mut self, accept: Duration, io: Duration) {
        self.accept_timeout = accept;
        self.read_timeout = io;
    }

    /// Replaces the per-round liveness policy (quorum, deposit deadline,
    /// admission schedule).
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        self.policy = policy;
    }

    /// Streams the versioned round-event JSONL ([`fda_obs`] schema) to
    /// `path`: one `"round"` record per FDA round — decision, estimate,
    /// per-worker deposit latency, drops, and the byte ledger — and one
    /// `"run"` summary record at the end. The stream is schema-identical
    /// to the simulator's (`Strategy::set_telemetry` on `Fda`); only the
    /// `source` field differs.
    pub fn set_telemetry(&mut self, path: impl Into<PathBuf>) {
        self.telemetry = Some(path.into());
    }

    /// Accepts one connection and completes the hello handshake, returning
    /// the claimed worker id and last-seen epoch.
    fn handshake(&self, stream: TcpStream, k: usize) -> Result<(usize, u32, Conn), NetError> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_write_timeout(Some(self.read_timeout))?;
        let mut conn = Conn {
            stream: CountingStream::new(stream),
            epoch: 0,
            rbuf: Vec::new(),
        };
        let (version, id, last_epoch) = match Msg::recv(&mut conn.stream)? {
            (
                Msg::Hello {
                    version,
                    worker_id,
                    last_epoch,
                },
                _,
            ) => (version, worker_id as usize, last_epoch),
            (other, _) => {
                return Err(NetError::Protocol(format!(
                    "expected hello, got {}",
                    other.kind_name()
                )));
            }
        };
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "worker {id} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
            )));
        }
        if id >= k {
            return Err(NetError::Protocol(format!(
                "worker id {id} out of range for K = {k}"
            )));
        }
        Ok((id, last_epoch, conn))
    }

    /// Accepts `k` workers, handshakes, and indexes them by worker id.
    fn accept_workers(&self, k: usize) -> Result<Vec<Conn>, NetError> {
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.accept_timeout;
        let mut slots: Vec<Option<Conn>> = (0..k).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < k {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let (id, _last_epoch, conn) = self.handshake(stream, k)?;
                    if slots[id].is_some() {
                        return Err(NetError::Protocol(format!("duplicate worker id {id}")));
                    }
                    slots[id] = Some(conn);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Protocol(format!(
                            "only {accepted}/{k} workers connected within {:?}",
                            self.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all accepted"))
            .collect())
    }

    /// Drains pending reconnects into the parking lot without blocking.
    /// A hello claiming a currently-live id is a zombie and its connection
    /// is closed; a second reconnect of the same parked id replaces the
    /// first (the worker retried).
    fn drain_accepts(
        &self,
        members: &mut Membership,
        pending: &mut Vec<(usize, Conn)>,
    ) -> Result<(), NetError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => match self.handshake(stream, members.conns.len()) {
                    Ok((id, _last_epoch, conn)) => {
                        if members.is_live(id) {
                            members.retire(conn);
                            continue;
                        }
                        if let Some(pos) = pending.iter().position(|(pid, _)| *pid == id) {
                            members.retire(pending.swap_remove(pos).1);
                        }
                        pending.push((id, conn));
                    }
                    // A reconnect that fails its own handshake harms only
                    // itself; the run goes on.
                    Err(NetError::Io(e)) => return Err(NetError::Io(e)),
                    Err(_) => continue,
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Runs the full FDA job across `spec.cluster.workers` TCP workers and
    /// returns the trajectory report. Blocks until the run completes, a
    /// membership drop takes it below quorum, or a formation failure. A
    /// spec that fails [`JobSpec::validate`] is a [`NetError::Protocol`].
    pub fn run(&self, spec: &JobSpec) -> Result<NetReport, NetError> {
        spec.validate()
            .map_err(|e| NetError::Protocol(format!("invalid job: {e}")))?;
        let mut run = Run::form(self, spec)?;
        for step in 0..spec.steps {
            // Telemetry bookkeeping: membership events and measured bytes
            // appended past these marks belong to this round.
            let events_mark = run.members.events.len();
            let measured_before = run.measured_payload;
            run.admit(step)?;
            let deposit_us = run.collect_states(step)?;
            let alive = run.members.live_count() as u32;
            let measured_after_state = run.measured_payload;
            let (estimate, sync) = run.decide_and_broadcast(step)?;
            if sync {
                run.sync_models(step)?;
            }
            if let Some(w) = run.tele.as_mut() {
                let drops: Vec<DropRecord> = run.members.events[events_mark..]
                    .iter()
                    .filter_map(|e| match e.event {
                        MemberEvent::Dropped(r) => Some(DropRecord {
                            worker: e.worker,
                            reason: r.as_str().to_string(),
                        }),
                        MemberEvent::Joined { .. } => None,
                    })
                    .collect();
                let ev = RoundEvent {
                    source: "net".into(),
                    round: step + 1,
                    epoch: run.members.epoch,
                    alive,
                    decision: sync,
                    estimate,
                    theta: spec.fda.theta,
                    codec: spec.codec.name().into(),
                    state_bytes: measured_after_state - measured_before,
                    model_bytes: run.measured_payload - measured_after_state,
                    charged_bytes: run.charged_banked + run.net.total_bytes(),
                    measured_bytes: run.measured_payload,
                    deposit_us,
                    drops,
                };
                w.write(&ev.to_json())?;
            }
        }
        run.finish()
    }
}

/// The live worker set of one run: who is connected, at which epoch, and
/// the log of every change. Holding the slots privately behind
/// [`Membership::each_live`] is what keeps the round phases from indexing
/// a `Vec<Option<Conn>>` and unwrapping.
struct Membership {
    /// Connection slot per worker id; `None` while the worker is dropped.
    conns: Vec<Option<Conn>>,
    events: Vec<MembershipEvent>,
    /// The membership epoch: bumped once per batch of drops and once per
    /// re-admission.
    epoch: u32,
    /// Raw `(tx, rx)` bytes of closed connections.
    raw_retired: (u64, u64),
    min_workers: usize,
}

impl Membership {
    /// The formed cluster: every worker live, K `Joined` events at round 0.
    /// A round needs one survivor, so the quorum is at least 1 whatever
    /// the policy asks for.
    fn form(conns: Vec<Conn>, min_workers: usize) -> Membership {
        let events = (0..conns.len() as u32)
            .map(|w| MembershipEvent {
                round: 0,
                worker: w,
                event: MemberEvent::Joined { rejoin: false },
            })
            .collect();
        Membership {
            conns: conns.into_iter().map(Some).collect(),
            events,
            epoch: 1,
            raw_retired: (0, 0),
            min_workers: min_workers.max(1),
        }
    }

    fn is_live(&self, id: usize) -> bool {
        self.conns[id].is_some()
    }

    fn live_count(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Closes a connection and banks its raw byte counters.
    fn retire(&mut self, conn: Conn) {
        self.raw_retired.0 += conn.stream.tx_bytes();
        self.raw_retired.1 += conn.stream.rx_bytes();
        let _ = conn.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }

    /// Seats a re-admitted worker's connection and logs the rejoin.
    fn rejoin(&mut self, id: usize, conn: Conn, round: u32) {
        self.conns[id] = Some(conn);
        self.events.push(MembershipEvent {
            round,
            worker: id as u32,
            event: MemberEvent::Joined { rejoin: true },
        });
    }

    /// One phase of a round: runs `f` over every live connection in
    /// worker-id order. A worker whose `f` fails is dropped — closed, its
    /// bytes banked, the drop logged against `round` — and the phase goes
    /// on with the rest; a phase that dropped anyone bumps the epoch once.
    /// Ends with the quorum check, so a caller that gets `Ok` holds a
    /// survivor set it may keep working with.
    fn each_live(
        &mut self,
        round: u32,
        mut f: impl FnMut(usize, &mut Conn) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let mut dropped = false;
        for id in 0..self.conns.len() {
            let Some(conn) = self.conns[id].as_mut() else {
                continue;
            };
            let Err(e) = f(id, conn) else {
                continue;
            };
            if let Some(conn) = self.conns[id].take() {
                self.retire(conn);
            }
            self.events.push(MembershipEvent {
                round,
                worker: id as u32,
                event: MemberEvent::Dropped(drop_reason(&e)),
            });
            dropped = true;
        }
        if dropped {
            self.epoch += 1;
        }
        let alive = self.live_count();
        if alive < self.min_workers {
            return Err(NetError::Quorum {
                round,
                alive,
                min_workers: self.min_workers,
            });
        }
        Ok(())
    }
}

/// Everything one [`Coordinator::run`] owns between formation and the
/// report: the job's derived constants, the round's server half, the
/// membership, the charged fabric, the trajectory so far, and the
/// round-persistent scratch.
struct Run<'a> {
    coord: &'a Coordinator,
    spec: &'a JobSpec,
    /// The round's arithmetic and accounting: monitor, Θ, codecs, the
    /// consensus and the one before it (the `Resume` handoff), `S̄`.
    server: Server,
    /// Uncharged self-description bytes of a state frame. Accounted bytes
    /// follow the simulator's convention — a state charges its raw 4-byte
    /// drift scalar plus the encoded summary, a model its encoded payload
    /// (minus the 4-byte length header).
    state_overhead: u64,
    tele: Option<JsonlWriter>,
    members: Membership,
    /// Reconnected workers waiting for their scheduled admission.
    pending: Vec<(usize, Conn)>,
    config_payload: Vec<u8>,
    /// The charged fabric. On a membership change it is rebuilt at the new
    /// K′ and the old era's charges are banked; a fault-free run keeps one
    /// fabric end to end.
    net: SimNetwork,
    charged_banked: u64,
    measured_payload: u64,
    decisions: Vec<bool>,
    estimates: Vec<f32>,
    downlink_model_bytes: u64,
    /// One state slot and one model slot per worker id, shaped at
    /// formation and overwritten by each of that worker's deposits (and,
    /// for the model slot, its final replica) — with the server's own
    /// broadcast scratch, the steady-state round loop allocates nothing
    /// sized by the payload.
    state_slots: Vec<LocalState>,
    model_slots: Vec<Vec<f32>>,
    /// The ids that completed the current phase, ascending, and their
    /// deposits' accounted payload sizes.
    deposited: Vec<usize>,
    payloads: Vec<u64>,
}

impl<'a> Run<'a> {
    /// Formation: accept all K, then the uniform join handshake — Config
    /// followed by the versioned handoff. At formation the handoff is
    /// `Resume { round: 0, model: w_0, prev: None }`, a bitwise no-op for a
    /// fresh replica, so there is exactly one join path for first joins
    /// and rejoins alike.
    fn form(coord: &'a Coordinator, spec: &'a JobSpec) -> Result<Run<'a>, NetError> {
        let k = spec.cluster.workers;
        let w0 = spec.cluster.model.build(spec.cluster.seed, 0).params_flat();
        let dim = w0.len();
        let mut server = Server::new(spec.fda, w0);
        server.set_uplink(spec.codec);
        server.set_downlink(spec.downlink);
        let tele = match &coord.telemetry {
            Some(path) => Some(JsonlWriter::create(path)?),
            None => None,
        };
        let mut run = Run {
            coord,
            spec,
            state_overhead: state_frame_overhead(server.avg_state()),
            state_slots: vec![server.avg_state().clone(); k],
            server,
            tele,
            members: Membership::form(coord.accept_workers(k)?, coord.policy.min_workers),
            pending: Vec::new(),
            config_payload: fda_core::wire::encode_job(spec),
            net: SimNetwork::new(k),
            charged_banked: 0,
            measured_payload: 0,
            decisions: Vec::with_capacity(spec.steps as usize),
            estimates: Vec::with_capacity(spec.steps as usize),
            downlink_model_bytes: 0,
            model_slots: (0..k).map(|_| vec![0.0; dim]).collect(),
            deposited: Vec::with_capacity(k),
            payloads: Vec::with_capacity(k),
        };
        let epoch = run.members.epoch;
        let (model, prev) = (run.server.consensus(), run.server.previous());
        for conn in run.members.conns.iter_mut().flatten() {
            conn.send_join(epoch, 0, &run.config_payload, model, prev)?;
        }
        Ok(run)
    }

    /// (0) Scheduled re-admissions: wait for each worker due this round,
    /// then replay the join handshake at the bumped epoch with the current
    /// consensus state.
    fn admit(&mut self, step: u32) -> Result<(), NetError> {
        let coord = self.coord;
        let due = coord.policy.admissions.iter().filter(|&&(r, _)| r == step);
        for &(_, w) in due {
            let id = w as usize;
            if id >= self.members.conns.len() || self.members.is_live(id) {
                return Err(NetError::Protocol(format!(
                    "admission schedule: worker {w} at round {step} is not a dropped worker"
                )));
            }
            let deadline = Instant::now() + coord.accept_timeout;
            let mut conn = loop {
                coord.drain_accepts(&mut self.members, &mut self.pending)?;
                if let Some(pos) = self.pending.iter().position(|(pid, _)| *pid == id) {
                    break self.pending.swap_remove(pos).1;
                }
                if Instant::now() >= deadline {
                    return Err(NetError::Protocol(format!(
                        "scheduled rejoin of worker {w} at round {step} did not arrive \
                         within {:?}",
                        coord.accept_timeout
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            self.members.epoch += 1;
            conn.send_join(
                self.members.epoch,
                step,
                &self.config_payload,
                self.server.consensus(),
                self.server.previous(),
            )?;
            self.members.rejoin(id, conn, step);
        }
        Ok(())
    }

    /// (1) Deposit: one state frame per live worker, read in id order
    /// under the round's deadline, then the deposits measured at the
    /// surviving K′. Returns the per-worker deposit latencies (empty
    /// unless telemetry is on).
    fn collect_states(&mut self, step: u32) -> Result<Vec<(u32, u64)>, NetError> {
        let deadline = Instant::now() + self.coord.policy.deposit_timeout;
        let read_timeout = self.coord.read_timeout;
        let timed = self.tele.is_some();
        let mut deposit_us: Vec<(u32, u64)> = Vec::new();
        self.deposited.clear();
        self.payloads.clear();
        let (slots, deposited, payloads) = (
            &mut self.state_slots,
            &mut self.deposited,
            &mut self.payloads,
        );
        let codec = self.server.uplink();
        let overhead = self.state_overhead;
        self.members.each_live(step, |id, conn| {
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            conn.set_read_timeout(remaining)?;
            let t0 = timed.then(Instant::now);
            conn.recv_kind(FrameKind::State)?;
            // The coded decoder checks tag and dims against the slot before
            // writing it; a mismatch is the same protocol drop a
            // wrong-shaped dense deposit always was, and a failed deposit's
            // slot is never read.
            decode_state_coded_into(&conn.rbuf[1..], &mut slots[id], codec)?;
            if let Some(t0) = t0 {
                deposit_us.push((id as u32, t0.elapsed().as_micros() as u64));
            }
            conn.set_read_timeout(read_timeout)?;
            deposited.push(id);
            payloads.push(conn.rbuf.len() as u64 - 1 - overhead);
            Ok(())
        })?;
        self.measure();
        Ok(deposit_us)
    }

    /// Measures the deposits of a finished phase at the surviving K′, and
    /// readies the charged fabric for that K′.
    fn measure(&mut self) {
        let alive = self.members.live_count();
        ensure_net(&mut self.net, &mut self.charged_banked, alive);
        for &bytes in &self.payloads {
            self.measured_payload += per_worker_bytes(bytes, alive);
        }
    }

    /// (2) The server reduces the deposits in worker-id order, charges
    /// them and decides; (3) the server's decision broadcast — the
    /// averaged state + decision, encoded once into its scratch — is
    /// fanned out as a borrowed slice; a failed write is a drop, not a run
    /// abort. Returns `(H(S̄), sync)`.
    fn decide_and_broadcast(&mut self, step: u32) -> Result<(f32, bool), NetError> {
        let states: Vec<&LocalState> = self
            .deposited
            .iter()
            .map(|&id| &self.state_slots[id])
            .collect();
        let (estimate, sync) = self
            .server
            .decide(&mut self.net, None, &states, &self.payloads);
        self.estimates.push(estimate);
        self.decisions.push(sync);

        let payload = self.server.avg_state_payload(sync);
        let head = FrameHead::new(self.members.epoch, FrameKind::AvgState, payload)?;
        self.members
            .each_live(step, |_, conn| conn.send_with(&head, payload))?;
        Ok((estimate, sync))
    }

    /// (4) The model uploads, the server's model AllReduce, then the
    /// server's consensus downlink.
    fn sync_models(&mut self, step: u32) -> Result<(), NetError> {
        self.deposited.clear();
        self.payloads.clear();
        let (slots, deposited, payloads) = (
            &mut self.model_slots,
            &mut self.deposited,
            &mut self.payloads,
        );
        let codec = self.server.uplink();
        self.members.each_live(step, |id, conn| {
            conn.recv_kind(FrameKind::Model)?;
            decode_vector_coded_into(&conn.rbuf[1..], &mut slots[id], codec)?;
            deposited.push(id);
            // Charge the encoded payload; the 4-byte length header is
            // framing.
            payloads.push(conn.rbuf.len() as u64 - 1 - 4);
            Ok(())
        })?;
        self.measure();
        let models: Vec<&[f32]> = self
            .deposited
            .iter()
            .map(|&id| &self.model_slots[id][..])
            .collect();
        self.server
            .commit(&mut self.net, None, &models, &self.payloads);

        // Downlink: the server's consensus payload — a dense `AvgModel`,
        // or under delta mode the `AvgModelDelta` whose reconstruction is
        // the consensus every worker will compute — framed once.
        let kind = if self.spec.downlink.is_dense() {
            FrameKind::AvgModel
        } else {
            FrameKind::AvgModelDelta
        };
        let payload = self.server.downlink_payload();
        let head = FrameHead::new(self.members.epoch, kind, payload)?;
        let downlink_bytes = &mut self.downlink_model_bytes;
        self.members.each_live(step, |_, conn| {
            conn.send_with(&head, payload)?;
            *downlink_bytes += payload.len() as u64;
            Ok(())
        })
    }

    /// Final replica collection (uncharged, like
    /// `Cluster::average_params`) into each survivor's model slot,
    /// shutdown, and the report.
    fn finish(mut self) -> Result<NetReport, NetError> {
        let mut survivors: Vec<u32> = Vec::new();
        let slots = &mut self.model_slots;
        self.members.each_live(self.spec.steps, |id, conn| {
            conn.recv_kind(FrameKind::FinalModel)?;
            decode_vector_coded_into(&conn.rbuf[1..], &mut slots[id], &Dense32)?;
            survivors.push(id as u32);
            Ok(())
        })?;
        let worker_params: Vec<Vec<f32>> = survivors
            .iter()
            .map(|&id| std::mem::take(&mut self.model_slots[id as usize]))
            .collect();
        let head = FrameHead::new(self.members.epoch, FrameKind::Shutdown, &[])?;
        let (mut raw_tx, mut raw_rx) = self.members.raw_retired;
        for conn in self.members.conns.iter_mut().flatten() {
            conn.send_with(&head, &[])?;
            conn.stream.flush()?;
            raw_tx += conn.stream.tx_bytes();
            raw_rx += conn.stream.rx_bytes();
        }
        for (_, parked) in &self.pending {
            raw_tx += parked.stream.tx_bytes();
            raw_rx += parked.stream.rx_bytes();
        }

        let refs: Vec<&[f32]> = worker_params.iter().map(|p| p.as_slice()).collect();
        let report = NetReport {
            syncs: self.server.syncs(),
            decisions: self.decisions,
            estimates: self.estimates,
            charged_bytes: self.charged_banked + self.net.total_bytes(),
            measured_payload_bytes: self.measured_payload,
            raw_tx_bytes: raw_tx,
            raw_rx_bytes: raw_rx,
            downlink_model_bytes: self.downlink_model_bytes,
            final_params: vector::mean(&refs),
            worker_params,
            survivors,
            events: self.members.events,
        };
        if let Some(mut w) = self.tele {
            w.write(&run_event(&report, self.spec).to_json())?;
            w.flush()?;
        }
        Ok(report)
    }
}

/// Builds the schema'd end-of-run summary record from a finished run — the
/// record `fda_node` prints as its run report and every telemetry stream
/// ends with. Membership events serialize as `"join"`, `"rejoin"`, or
/// `"drop-<reason>"`.
pub fn run_event(report: &NetReport, spec: &JobSpec) -> RunEvent {
    let membership = report
        .events
        .iter()
        .map(|e| {
            let event = match e.event {
                MemberEvent::Joined { rejoin: false } => "join".to_string(),
                MemberEvent::Joined { rejoin: true } => "rejoin".to_string(),
                MemberEvent::Dropped(r) => format!("drop-{}", r.as_str()),
            };
            MembershipRecord {
                round: e.round,
                worker: e.worker,
                event,
            }
        })
        .collect();
    RunEvent {
        source: "net".into(),
        workers: spec.cluster.workers as u32,
        variant: spec.fda.variant.name().into(),
        theta: spec.fda.theta,
        steps: spec.steps,
        syncs: report.syncs,
        decisions: report
            .decisions
            .iter()
            .map(|&d| if d { '1' } else { '0' })
            .collect(),
        codec: spec.codec.name().into(),
        charged_bytes: report.charged_bytes,
        measured_payload_bytes: report.measured_payload_bytes,
        raw_tx_bytes: report.raw_tx_bytes,
        raw_rx_bytes: report.raw_rx_bytes,
        survivors: report.survivors.clone(),
        membership,
    }
}

/// Rebuilds the charged fabric when the live worker count changes, banking
/// the finished era's charges. A fault-free run never rebuilds, so its
/// charged counters are the simulator's, untouched.
fn ensure_net(net: &mut SimNetwork, banked: &mut u64, k: usize) {
    if net.workers() != k {
        *banked += net.total_bytes();
        *net = SimNetwork::new(k);
    }
}
