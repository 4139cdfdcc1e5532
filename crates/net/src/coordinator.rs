//! The TCP coordinator: deposit → deterministic reduce → broadcast,
//! surviving worker churn.
//!
//! One FDA round on the wire is the same three-phase rendezvous as
//! [`fda_comm::ThreadedReducer`], with sockets in place of condvars:
//!
//! 1. **deposit** — every live worker uploads its local state frame;
//! 2. **reduce** — the coordinator averages the decoded states **in
//!    worker-id order** (`LocalState::average_refs`: copy-first, then add
//!    id-ascending — the exact association of `SimNetwork::allreduce_mean`
//!    and the pooled `WorkerPool::chunked_mean`), evaluates `H(S̄_t)`, and
//!    decides;
//! 3. **broadcast** — every live worker receives the averaged state plus
//!    the decision, so the conditional model AllReduce is
//!    cluster-consistent without an extra round.
//!
//! Model synchronizations run the *arithmetic and the charged accounting*
//! through an embedded [`SimNetwork`] — the identical code path the
//! sequential simulator executes — so a K-process TCP run is bit-identical
//! to the simulator by construction, and the charged byte counters are the
//! simulator's own. Independently, every data-plane frame that actually
//! crosses a socket is *measured* (payload convention and raw bytes); the
//! parity suite asserts measured == charged.
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
use crate::protocol::{recv_at_epoch, recv_frame_at_epoch_into, Msg};
use fda_comm::{delta_downlink_into, AccountingMode, SimNetwork};
use fda_core::fda::violates;
use fda_core::monitor::LocalState;
use fda_core::wire::{
    decode_state_coded, decode_vector_coded, encode_state_into, encode_vector, encode_vector_into,
    state_frame_overhead, JobSpec,
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
    /// Round-persistent receive buffer: [`Conn::recv_frame_current`]
    /// leaves the frame body here (kind byte + payload, so the payload is
    /// `rbuf[1..]`), and steady-state deposits never allocate per frame —
    /// the buffer only grows to the largest frame this peer ever sends.
    rbuf: Vec<u8>,
}

impl Conn {
    fn send_raw(&mut self, epoch: u32, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
        self.epoch = epoch;
        write_frame(&mut self.stream, epoch, kind, payload)
    }

    /// One target of an encode-once broadcast: `head` was composed (and
    /// `payload` checksummed) once for the whole fan-out.
    fn send_with(&mut self, head: &FrameHead, payload: &[u8]) -> Result<(), NetError> {
        self.epoch = head.epoch();
        write_frame_with(&mut self.stream, head, payload)
    }

    fn recv_current(&mut self) -> Result<Msg, NetError> {
        recv_at_epoch(&mut self.stream, self.epoch)
    }

    /// Current-epoch receive at the frame layer — for uplink payloads
    /// whose decoding needs the job's codec and an expected shape. The
    /// payload lands in `self.rbuf` (at `rbuf[1..]`).
    fn recv_frame_current(&mut self) -> Result<FrameKind, NetError> {
        recv_frame_at_epoch_into(&mut self.stream, self.epoch, &mut self.rbuf)
    }

    fn set_read_timeout(&self, t: Duration) -> Result<(), NetError> {
        self.stream.get_ref().set_read_timeout(Some(t))?;
        Ok(())
    }
}

/// Closes a connection and banks its raw byte counters.
fn retire(conn: Conn, raw: &mut (u64, u64)) {
    raw.0 += conn.stream.tx_bytes();
    raw.1 += conn.stream.rx_bytes();
    let _ = conn.stream.get_ref().shutdown(std::net::Shutdown::Both);
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
    /// to the simulator's (`RunConfig::with_telemetry`); only the
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
        k: usize,
        conns: &[Option<Conn>],
        pending: &mut Vec<(usize, Conn)>,
        raw: &mut (u64, u64),
    ) -> Result<(), NetError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => match self.handshake(stream, k) {
                    Ok((id, _last_epoch, conn)) => {
                        if conns[id].is_some() {
                            retire(conn, raw);
                            continue;
                        }
                        if let Some(pos) = pending.iter().position(|(pid, _)| *pid == id) {
                            retire(pending.swap_remove(pos).1, raw);
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
    /// membership drop takes it below quorum, or a formation failure.
    ///
    /// # Panics
    /// Panics on degenerate specs (`workers == 0` or `steps == 0`).
    pub fn run(&self, spec: &JobSpec) -> Result<NetReport, NetError> {
        let k = spec.cluster.workers;
        assert!(k >= 1, "coordinator: need at least one worker");
        assert!(spec.steps >= 1, "coordinator: need at least one step");
        let template = spec.cluster.model.build(spec.cluster.seed, 0);
        let dim = template.param_count();
        let w0 = template.params_flat();
        let monitor = spec.fda.variant.build_monitor(dim);
        // Template for validating deposit shapes before `average_refs`.
        let state_shape = monitor.local_state(&vec![0.0f32; dim]);
        let mode = AccountingMode::PerWorkerPayload;
        // The job's uplink codec: State/Model payloads arrive encoded and
        // are decoded against the expected shape. Accounted bytes follow
        // the simulator's convention — a state charges its raw 4-byte
        // drift scalar plus the encoded summary (the tag/dims header is
        // uncharged self-description), a model charges its encoded
        // payload (minus the 4-byte length header).
        let codec = spec.codec.build();
        let coded = !spec.codec.is_dense();
        // The job's downlink mode: `Some(codec)` switches the consensus
        // broadcast to `AvgModelDelta` frames and makes the shared lossy
        // reconstruction the authoritative consensus (see
        // `fda_comm::delta_downlink`); `None` keeps the historical dense
        // `AvgModel` broadcast bit-for-bit.
        let downlink_codec = spec.downlink.build();
        let state_overhead = state_frame_overhead(&state_shape);
        let mut tele: Option<JsonlWriter> = match &self.telemetry {
            Some(path) => Some(JsonlWriter::create(path)?),
            None => None,
        };

        // Formation: accept all K, then the uniform join handshake —
        // Config followed by the versioned handoff. At formation the
        // handoff is `Resume { round: 0, model: w_0, prev: None }`, a
        // bitwise no-op for a fresh replica, so there is exactly one join
        // path for first joins and rejoins alike.
        let mut epoch: u32 = 1;
        let formed = self.accept_workers(k)?;
        let mut conns: Vec<Option<Conn>> = formed.into_iter().map(Some).collect();
        let config_payload = fda_core::wire::encode_job(spec);
        let mut resume_model = w0;
        let mut resume_prev: Option<Vec<f32>> = None;
        for conn in conns.iter_mut().flatten() {
            conn.send_raw(epoch, FrameKind::Config, &config_payload)?;
            let (kind, payload) = resume_msg(0, &resume_model, &resume_prev);
            conn.send_raw(epoch, kind, &payload)?;
        }

        // Charged accounting and model-AllReduce arithmetic: the
        // simulator's own code path. On a membership change the fabric is
        // rebuilt at the new K′ and the old era's charges are banked; a
        // fault-free run keeps one fabric end to end.
        let mut net = SimNetwork::new(k);
        let mut charged_banked = 0u64;
        let mut measured_payload = 0u64;
        let mut raw_retired = (0u64, 0u64); // (tx, rx) of closed conns
        let mut pending: Vec<(usize, Conn)> = Vec::new();
        let mut events: Vec<MembershipEvent> = (0..k as u32)
            .map(|w| MembershipEvent {
                round: 0,
                worker: w,
                event: MemberEvent::Joined { rejoin: false },
            })
            .collect();
        let mut decisions = Vec::with_capacity(spec.steps as usize);
        let mut estimates = Vec::with_capacity(spec.steps as usize);
        let mut syncs = 0u64;
        let mut downlink_model_bytes = 0u64;

        // Round-persistent scratch: the broadcast payload is encoded once
        // per round into `bcast`, its frame head (checksum included) is
        // composed once, and both are fanned out as borrowed slices to
        // every worker, and the per-worker deposit slots are
        // reset in place — the steady-state round loop performs a small
        // constant number of allocations.
        let mut bcast: Vec<u8> = Vec::new();
        let mut states: Vec<Option<LocalState>> = (0..k).map(|_| None).collect();
        let mut state_bytes: Vec<u64> = vec![0; k];
        let mut models: Vec<Option<Vec<f32>>> = (0..k).map(|_| None).collect();
        let mut model_bytes: Vec<u64> = vec![0; k];

        // Applies a batch of drops: close, log, bump the epoch once.
        let apply_drops = |drops: &[(usize, DropReason)],
                           round: u32,
                           conns: &mut Vec<Option<Conn>>,
                           events: &mut Vec<MembershipEvent>,
                           epoch: &mut u32,
                           raw: &mut (u64, u64)| {
            if drops.is_empty() {
                return;
            }
            for &(id, reason) in drops {
                let conn = conns[id].take().expect("dropping a live conn");
                retire(conn, raw);
                events.push(MembershipEvent {
                    round,
                    worker: id as u32,
                    event: MemberEvent::Dropped(reason),
                });
            }
            *epoch += 1;
        };
        let alive_ids =
            |conns: &Vec<Option<Conn>>| (0..k).filter(|&i| conns[i].is_some()).collect::<Vec<_>>();
        let quorum = |alive: usize, round: u32| -> Result<(), NetError> {
            if alive < self.policy.min_workers {
                Err(NetError::Quorum {
                    round,
                    alive,
                    min_workers: self.policy.min_workers,
                })
            } else {
                Ok(())
            }
        };

        for step in 0..spec.steps {
            // Telemetry bookkeeping: membership events and measured bytes
            // appended past these marks belong to this round.
            let events_mark = events.len();
            let measured_before = measured_payload;
            let mut deposit_us: Vec<(u32, u64)> = Vec::new();

            // (0) Scheduled re-admissions: wait for each worker due this
            // round, then replay the join handshake at the bumped epoch
            // with the current consensus state.
            let due: Vec<u32> = self
                .policy
                .admissions
                .iter()
                .filter(|&&(r, _)| r == step)
                .map(|&(_, w)| w)
                .collect();
            for w in due {
                let id = w as usize;
                if id >= k || conns[id].is_some() {
                    return Err(NetError::Protocol(format!(
                        "admission schedule: worker {w} at round {step} is not a dropped worker"
                    )));
                }
                let deadline = Instant::now() + self.accept_timeout;
                let mut conn = loop {
                    self.drain_accepts(k, &conns, &mut pending, &mut raw_retired)?;
                    if let Some(pos) = pending.iter().position(|(pid, _)| *pid == id) {
                        break pending.swap_remove(pos).1;
                    }
                    if Instant::now() >= deadline {
                        return Err(NetError::Protocol(format!(
                            "scheduled rejoin of worker {w} at round {step} did not arrive \
                             within {:?}",
                            self.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                };
                epoch += 1;
                conn.send_raw(epoch, FrameKind::Config, &config_payload)?;
                let (kind, payload) = resume_msg(step, &resume_model, &resume_prev);
                conn.send_raw(epoch, kind, &payload)?;
                conns[id] = Some(conn);
                events.push(MembershipEvent {
                    round: step,
                    worker: w,
                    event: MemberEvent::Joined { rejoin: true },
                });
            }

            // (1) Deposit: one state frame per live worker, read in id
            // order under the round's deadline.
            let deposit_deadline = Instant::now() + self.policy.deposit_timeout;
            states.fill(None);
            state_bytes.fill(0);
            let mut drops: Vec<(usize, DropReason)> = Vec::new();
            for id in 0..k {
                let Some(conn) = conns[id].as_mut() else {
                    continue;
                };
                let remaining = deposit_deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                conn.set_read_timeout(remaining)?;
                let t0 = tele.as_ref().map(|_| Instant::now());
                match conn.recv_frame_current() {
                    // The coded decoder validates tag, dims and payload
                    // totality against the expected template before any
                    // allocation; a mismatch is the same protocol drop a
                    // wrong-shaped dense deposit always was.
                    Ok(FrameKind::State) => {
                        match decode_state_coded(&conn.rbuf[1..], &state_shape, codec.as_ref()) {
                            Ok(s) => {
                                if let Some(t0) = t0 {
                                    deposit_us.push((id as u32, t0.elapsed().as_micros() as u64));
                                }
                                states[id] = Some(s);
                                state_bytes[id] = conn.rbuf.len() as u64 - 1 - state_overhead;
                            }
                            Err(_) => drops.push((id, DropReason::Protocol)),
                        }
                    }
                    Ok(_) => drops.push((id, DropReason::Protocol)),
                    Err(e) => drops.push((id, drop_reason(&e))),
                }
            }
            apply_drops(
                &drops,
                step,
                &mut conns,
                &mut events,
                &mut epoch,
                &mut raw_retired,
            );
            let alive = alive_ids(&conns);
            quorum(alive.len(), step)?;
            for &id in &alive {
                conns[id]
                    .as_ref()
                    .expect("alive")
                    .set_read_timeout(self.read_timeout)?;
            }

            // Charge the state AllReduce at the surviving K′ and measure
            // the deposits that were actually averaged. Dense keeps the
            // historical flat charge (`monitor.state_bytes()` per worker);
            // coded payloads charge exactly what each worker emitted.
            ensure_net(&mut net, &mut charged_banked, alive.len());
            if coded {
                let payloads: Vec<u64> = alive.iter().map(|&id| state_bytes[id]).collect();
                net.charge_per_worker(&payloads);
            } else {
                net.charge_allreduce(monitor.state_bytes());
            }
            for &id in &alive {
                measured_payload += mode.per_worker_bytes(state_bytes[id], alive.len());
            }
            let round_alive = alive.len() as u32;
            let measured_after_state = measured_payload;

            // (2) Reduce over the survivor set in worker-id order + the
            // decision.
            let refs: Vec<&LocalState> = alive
                .iter()
                .map(|&id| states[id].as_ref().expect("alive worker deposited"))
                .collect();
            let avg = LocalState::average_refs(&refs);
            let estimate = monitor.estimate(&avg);
            let sync = violates(estimate, spec.fda.theta);
            estimates.push(estimate);
            decisions.push(sync);

            // (3) Broadcast the averaged state + decision — encoded once
            // into the round scratch, fanned out as a borrowed slice; a
            // failed write is a drop, not a run abort.
            bcast.clear();
            bcast.push(sync as u8);
            encode_state_into(&avg, &mut bcast);
            let head = FrameHead::new(epoch, FrameKind::AvgState, &bcast)?;
            let mut drops: Vec<(usize, DropReason)> = Vec::new();
            for &id in &alive {
                let conn = conns[id].as_mut().expect("alive");
                if let Err(e) = conn.send_with(&head, &bcast) {
                    drops.push((id, drop_reason(&e)));
                }
            }
            apply_drops(
                &drops,
                step,
                &mut conns,
                &mut events,
                &mut epoch,
                &mut raw_retired,
            );
            let alive = alive_ids(&conns);
            quorum(alive.len(), step)?;

            // (4) Conditional model AllReduce through the SimNetwork.
            if sync {
                models.fill(None);
                model_bytes.fill(0);
                let mut drops: Vec<(usize, DropReason)> = Vec::new();
                for &id in &alive {
                    let conn = conns[id].as_mut().expect("alive");
                    match conn.recv_frame_current() {
                        Ok(FrameKind::Model) => {
                            match decode_vector_coded(&conn.rbuf[1..], dim, codec.as_ref()) {
                                Ok(v) => {
                                    models[id] = Some(v);
                                    // Charge the encoded payload; the
                                    // 4-byte length header is framing.
                                    model_bytes[id] = conn.rbuf.len() as u64 - 1 - 4;
                                }
                                Err(_) => drops.push((id, DropReason::Protocol)),
                            }
                        }
                        Ok(_) => drops.push((id, DropReason::Protocol)),
                        Err(e) => drops.push((id, drop_reason(&e))),
                    }
                }
                apply_drops(
                    &drops,
                    step,
                    &mut conns,
                    &mut events,
                    &mut epoch,
                    &mut raw_retired,
                );
                let alive = alive_ids(&conns);
                quorum(alive.len(), step)?;

                ensure_net(&mut net, &mut charged_banked, alive.len());
                let mut bufs: Vec<Vec<f32>> = alive
                    .iter()
                    .map(|&id| models[id].take().expect("alive worker uploaded"))
                    .collect();
                if coded {
                    let payloads: Vec<u64> = alive.iter().map(|&id| model_bytes[id]).collect();
                    net.allreduce_mean_with(&mut bufs, &payloads);
                } else {
                    net.allreduce_mean(&mut bufs);
                }
                for &id in &alive {
                    measured_payload += mode.per_worker_bytes(model_bytes[id], alive.len());
                }

                // Downlink: encode the consensus once into the round
                // scratch — dense `AvgModel`, or the delta against the
                // previous broadcast under delta mode, in which case the
                // authoritative consensus becomes the shared lossy
                // reconstruction (what every worker will compute).
                let mean = bufs.swap_remove(0);
                bcast.clear();
                let (kind, consensus) = match &downlink_codec {
                    Some(dc) => {
                        bcast.extend_from_slice(&(dim as u32).to_le_bytes());
                        let mut recon = Vec::new();
                        delta_downlink_into(
                            &resume_model,
                            &mean,
                            dc.as_ref(),
                            &mut bcast,
                            &mut recon,
                        );
                        (FrameKind::AvgModelDelta, recon)
                    }
                    None => {
                        encode_vector_into(&mean, &mut bcast);
                        (FrameKind::AvgModel, mean)
                    }
                };
                let head = FrameHead::new(epoch, kind, &bcast)?;
                let mut drops: Vec<(usize, DropReason)> = Vec::new();
                for &id in &alive {
                    let conn = conns[id].as_mut().expect("alive");
                    match conn.send_with(&head, &bcast) {
                        Ok(()) => downlink_model_bytes += bcast.len() as u64,
                        Err(e) => drops.push((id, drop_reason(&e))),
                    }
                }
                apply_drops(
                    &drops,
                    step,
                    &mut conns,
                    &mut events,
                    &mut epoch,
                    &mut raw_retired,
                );
                quorum(alive_ids(&conns).len(), step)?;

                // The versioned handoff advances with the consensus (the
                // reconstruction, under delta mode — a rejoin's dense
                // `Resume` must hand over exactly what the survivors
                // hold).
                resume_prev = Some(std::mem::replace(&mut resume_model, consensus));
                syncs += 1;
            }

            if let Some(w) = tele.as_mut() {
                let drops: Vec<DropRecord> = events[events_mark..]
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
                    epoch,
                    alive: round_alive,
                    decision: sync,
                    estimate,
                    theta: spec.fda.theta,
                    codec: spec.codec.name().into(),
                    state_bytes: measured_after_state - measured_before,
                    model_bytes: measured_payload - measured_after_state,
                    charged_bytes: charged_banked + net.total_bytes(),
                    measured_bytes: measured_payload,
                    deposit_us,
                    drops,
                };
                w.write(&ev.to_json())?;
            }
        }

        // Final collection (uncharged, like `Cluster::average_params`).
        let alive = alive_ids(&conns);
        let mut survivors: Vec<u32> = Vec::with_capacity(alive.len());
        let mut worker_params: Vec<Vec<f32>> = Vec::with_capacity(alive.len());
        let mut drops: Vec<(usize, DropReason)> = Vec::new();
        for &id in &alive {
            let conn = conns[id].as_mut().expect("alive");
            match conn.recv_current() {
                Ok(Msg::FinalModel(v)) if v.len() == dim => {
                    survivors.push(id as u32);
                    worker_params.push(v);
                }
                Ok(_) => drops.push((id, DropReason::Protocol)),
                Err(e) => drops.push((id, drop_reason(&e))),
            }
        }
        apply_drops(
            &drops,
            spec.steps,
            &mut conns,
            &mut events,
            &mut epoch,
            &mut raw_retired,
        );
        quorum(survivors.len(), spec.steps)?;
        let head = FrameHead::new(epoch, FrameKind::Shutdown, &[])?;
        for conn in conns.iter_mut().flatten() {
            conn.send_with(&head, &[])?;
            conn.stream.flush()?;
        }

        let refs: Vec<&[f32]> = worker_params.iter().map(|p| p.as_slice()).collect();
        let final_params = vector::mean(&refs);
        let live_tx: u64 = conns.iter().flatten().map(|c| c.stream.tx_bytes()).sum();
        let live_rx: u64 = conns.iter().flatten().map(|c| c.stream.rx_bytes()).sum();
        let parked_tx: u64 = pending.iter().map(|(_, c)| c.stream.tx_bytes()).sum();
        let parked_rx: u64 = pending.iter().map(|(_, c)| c.stream.rx_bytes()).sum();
        let report = NetReport {
            syncs,
            decisions,
            estimates,
            charged_bytes: charged_banked + net.total_bytes(),
            measured_payload_bytes: measured_payload,
            raw_tx_bytes: raw_retired.0 + live_tx + parked_tx,
            raw_rx_bytes: raw_retired.1 + live_rx + parked_rx,
            downlink_model_bytes,
            worker_params,
            final_params,
            survivors,
            events,
        };
        if let Some(mut w) = tele {
            w.write(&run_event(&report, spec).to_json())?;
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

/// Encodes the `Resume` handoff without cloning the model vectors into a
/// `Msg`.
fn resume_msg(round: u32, model: &[f32], prev: &Option<Vec<f32>>) -> (FrameKind, Vec<u8>) {
    let mut p = Vec::with_capacity(9 + model.len() * 4);
    p.extend_from_slice(&round.to_le_bytes());
    p.push(prev.is_some() as u8);
    p.extend_from_slice(&encode_vector(model));
    if let Some(prev) = prev {
        p.extend_from_slice(&encode_vector(prev));
    }
    (FrameKind::Resume, p)
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
