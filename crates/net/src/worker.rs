//! The TCP worker loop.
//!
//! A worker process is one half of the protocol. It rebuilds its exact
//! simulator replica from the config frame —
//! [`fda_core::cluster::ClusterConfig::build_worker`] derives model init,
//! `w_0`, dropout stream, shard and batch order deterministically from
//! `(seed, id)` — and then drives [`Worker::step_once`], the *same*
//! training code path the simulator's `Cluster::local_step` runs.
//! Everything that crosses the process boundary goes through
//! `fda_core::wire`, whose decode is exact (f32 bits round-trip), and the
//! round's replica half ([`fda_core::round::Replica`]) computes the drift
//! and local state, cross-checks the broadcast `S̄` and adopts the
//! consensus, so the K-process trajectory is bit-identical to the
//! K-worker simulator. The worker loop itself keeps sessions, faults and
//! rejoin.
//!
//! # Sessions, faults and rejoin
//!
//! One *session* is one connection's worth of protocol: connect (with
//! exponential backoff + jitter under `connect_timeout`), hello, `Config`,
//! the versioned `Resume` handoff, then rounds from `Resume.round`
//! onwards. Scripted [`FaultAction`]s fire when the session is about to
//! upload a given step's state. If the session dies retryably
//! (disconnect, timeout) and a [`RejoinPolicy`] is set, the worker opens a
//! new session presenting its id + last-seen epoch; the coordinator's
//! `Resume` tells it where to restart. A rejoin is a **warm restart**: the
//! replica, optimizer state and data stream are rebuilt from `(seed, id)`
//! and the parameters are loaded from the consensus model — deterministic
//! given the coordinator's admission schedule, though not a continuation
//! of the dropped session's local trajectory.

use crate::fault::{Backoff, FaultAction, RejoinPolicy, FAULT_EXIT_CODE};
use crate::frame::{
    encode_frame, read_frame_into, write_frame, CountingStream, FrameKind, NetError,
};
use crate::protocol::{decode_resume, Msg};
use fda_comm::Dense32;
use fda_core::cluster::Worker;
use fda_core::round::Replica;
use fda_core::wire::{encode_vector_coded_into, JobSpec};
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Summary a worker returns after a completed run (for logging/tests; the
/// authoritative trajectory lives in the coordinator's report).
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// Steps performed (across all sessions).
    pub steps: u64,
    /// Synchronizations participated in.
    pub syncs: u64,
    /// Times this worker reconnected after losing a session.
    pub rejoins: u64,
}

/// How a worker run ended.
#[derive(Debug, Clone, Copy)]
pub enum WorkerOutcome {
    /// Ran every remaining round through shutdown.
    Completed(WorkerSummary),
    /// A terminal scripted fault ended the run on purpose. Spawned worker
    /// processes exit with [`FAULT_EXIT_CODE`] instead of returning this
    /// (see [`WorkerOptions::exit_process_on_fault`]).
    Faulted {
        /// Step the fault fired at.
        step: u32,
        /// The scripted action.
        action: FaultAction,
    },
}

/// Knobs for one worker run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Deadline for each session's connect loop (the coordinator may
    /// still be binding when a spawned worker starts).
    pub connect_timeout: Duration,
    /// Per-read/per-write socket timeout (the hang guard).
    pub io_timeout: Duration,
    /// When set, retryable session failures trigger reconnect attempts;
    /// when `None`, the first failure is final.
    pub rejoin: Option<RejoinPolicy>,
    /// Scripted faults for this worker.
    pub faults: Vec<FaultAction>,
    /// Spawned processes set this so a terminal fault exits the process
    /// with [`FAULT_EXIT_CODE`] (the harness reaper treats that exit as
    /// scripted); in-process (thread) workers leave it false and return
    /// [`WorkerOutcome::Faulted`] instead.
    pub exit_process_on_fault: bool,
    /// Perturbs backoff jitter only — never numerics.
    pub backoff_seed: u64,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            connect_timeout: Duration::from_secs(20),
            io_timeout: Duration::from_secs(60),
            rejoin: None,
            faults: Vec::new(),
            exit_process_on_fault: false,
            backoff_seed: 0,
        }
    }
}

/// One connection's worth of protocol state.
struct Session {
    stream: CountingStream<TcpStream>,
    id: u32,
    /// Epoch of the last frame received — stamped on everything this
    /// session sends, so the coordinator can tell live deposits from a
    /// zombie's.
    epoch: u32,
    /// Round-persistent receive buffer (frame bodies land here; the
    /// payload of the last received frame is `rbuf[1..]`).
    rbuf: Vec<u8>,
}

impl Session {
    /// Connects with exponential backoff + jitter under the
    /// `connect_timeout` deadline, then sends the extended hello. The
    /// address is borrowed through the backoff loop — retries never clone
    /// it.
    fn connect<A: ToSocketAddrs + ?Sized>(
        addr: &A,
        id: u32,
        last_epoch: u32,
        opts: &WorkerOptions,
        backoff: &mut Backoff,
    ) -> Result<Session, NetError> {
        let deadline = Instant::now() + opts.connect_timeout;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::from_io(e));
                    }
                    let wait = backoff
                        .next_delay()
                        .min(deadline.saturating_duration_since(now));
                    std::thread::sleep(wait);
                }
            }
        };
        backoff.reset();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(opts.io_timeout))?;
        stream.set_write_timeout(Some(opts.io_timeout))?;
        let mut stream = CountingStream::new(stream);
        Msg::hello(id, last_epoch).send(&mut stream, last_epoch)?;
        Ok(Session {
            stream,
            id,
            epoch: last_epoch,
            rbuf: Vec::new(),
        })
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let kind = self.recv_frame()?;
        Msg::decode(kind, &self.rbuf[1..])
    }

    /// Receives one frame into the session buffer without interpreting
    /// the payload (it lands at `self.rbuf[1..]`).
    fn recv_frame(&mut self) -> Result<FrameKind, NetError> {
        let (kind, epoch) = read_frame_into(&mut self.stream, &mut self.rbuf)?;
        self.epoch = epoch;
        Ok(kind)
    }

    /// [`Session::recv_frame`] of a frame that must be of kind `want` —
    /// the path of every payload carrying an `f32` run, which decodes
    /// only into a buffer this replica shaped.
    fn recv_kind(&mut self, want: FrameKind) -> Result<(), NetError> {
        let kind = self.recv_frame()?;
        if kind != want {
            return Err(self.fail(&format!("expected {}, got {}", want.label(), kind.label())));
        }
        Ok(())
    }

    /// Sends a pre-encoded payload as one frame — the path of every
    /// payload carrying an `f32` run, which `Msg` does not represent.
    fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.stream, self.epoch, kind, payload)
    }

    fn protocol_err(&self, expected: &str, got: &Msg) -> NetError {
        self.fail(&format!("expected {expected}, got {}", got.kind_name()))
    }

    /// A protocol violation observed by this session.
    fn fail(&self, why: &str) -> NetError {
        NetError::Protocol(format!("worker {}: {why}", self.id))
    }

    fn shutdown(&self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// How one session ended (distinct from how the whole run ends: a
/// retryable session error may turn into a rejoin).
enum SessionEnd {
    Completed { steps: u64 },
    Faulted { step: u32, action: FaultAction },
}

/// Runs one worker to completion, surviving session loss when a
/// [`RejoinPolicy`] is configured. This is the entry point for both
/// in-process (thread) workers and the `fda_node worker` binary.
pub fn run_worker<A: ToSocketAddrs>(
    addr: A,
    id: u32,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, NetError> {
    let policy = opts.rejoin.unwrap_or_default();
    let mut backoff = Backoff::new(
        policy.base_backoff,
        policy.max_backoff,
        opts.backoff_seed ^ (0x5EED ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut last_epoch = 0u32;
    let mut attempts_left = opts.rejoin.map(|p| p.max_attempts).unwrap_or(0);
    let mut rejoins = 0u64;
    let mut syncs = 0u64;

    loop {
        let mut session = Session::connect(&addr, id, last_epoch, opts, &mut backoff)?;
        match run_session(&mut session, opts, &mut syncs) {
            Ok(SessionEnd::Completed { steps }) => {
                return Ok(WorkerOutcome::Completed(WorkerSummary {
                    steps,
                    syncs,
                    rejoins,
                }));
            }
            Ok(SessionEnd::Faulted { step, action }) => {
                session.shutdown();
                if opts.exit_process_on_fault {
                    std::process::exit(FAULT_EXIT_CODE);
                }
                return Ok(WorkerOutcome::Faulted { step, action });
            }
            Err(e) if e.is_retryable() && attempts_left > 0 => {
                attempts_left -= 1;
                rejoins += 1;
                last_epoch = session.epoch;
                session.shutdown();
            }
            Err(e) => return Err(e),
        }
    }
}

/// One session: `Config` → `Resume` handoff → rounds from `Resume.round`.
fn run_session(
    session: &mut Session,
    opts: &WorkerOptions,
    syncs: &mut u64,
) -> Result<SessionEnd, NetError> {
    let spec: JobSpec = match session.recv()? {
        Msg::Config(job) => *job,
        other => return Err(session.protocol_err("config", &other)),
    };
    if session.id as usize >= spec.cluster.workers {
        let why = format!("id out of range for a job of K = {}", spec.cluster.workers);
        return Err(session.fail(&why));
    }
    // The handoff is read as it arrives and decoded once the replica's
    // dimension is known; nothing touches the session buffer in between.
    session.recv_kind(FrameKind::Resume)?;

    let task = spec.synth.generate(&spec.task_name);
    let mut worker: Worker = spec.cluster.build_worker(&task.train, session.id as usize);
    let dim = worker.model().param_count();
    let (start_round, resume_model, resume_prev) = decode_resume(&session.rbuf[1..], dim)?;
    // The versioned handoff. At formation it loads `w_0` into a replica
    // already holding `w_0` — a bitwise no-op.
    let mut replica = Replica::join(&spec, resume_model, resume_prev.as_deref());
    worker.model_mut().load_params(replica.consensus());
    // Round-persistent uplink scratch: every State/Model payload is
    // encoded into this buffer in place, so steady-state rounds don't
    // allocate on the send path.
    let mut ubuf: Vec<u8> = Vec::new();

    for step in start_round..spec.steps {
        // (1) Local training — the simulator's exact code path.
        worker.step_once(&task.train);

        // (2) Local state from the drift — the point scripted faults hit.
        ubuf.clear();
        replica.state_payload(worker.model().params(), &mut ubuf);
        match apply_faults(session, step, opts, &ubuf)? {
            FaultOutcome::Sent => {}
            FaultOutcome::Terminal(action) => {
                return Ok(SessionEnd::Faulted { step, action });
            }
        }

        // (3) The averaged state and the decision, checked against this
        // replica's own shape and `H(S̄) > Θ`: a disagreement (a
        // coordinator running different monitor code, a corrupted frame
        // that still decoded) is a protocol error, not a silent
        // divergence.
        session.recv_kind(FrameKind::AvgState)?;
        let sync = replica
            .check(&session.rbuf[1..])
            .map_err(|why| session.fail(&why))?;

        // (4) Conditional model AllReduce.
        if sync {
            ubuf.clear();
            replica.model_payload(worker.model().params(), &mut ubuf);
            session.send_frame(FrameKind::Model, &ubuf)?;
            session.recv_kind(if spec.downlink.is_dense() {
                FrameKind::AvgModel
            } else {
                FrameKind::AvgModelDelta
            })?;
            let consensus = replica
                .adopt(&session.rbuf[1..])
                .map_err(|why| session.fail(&why))?;
            worker.model_mut().load_params(consensus);
            *syncs += 1;
        }
    }

    // Final replica collection + shutdown.
    ubuf.clear();
    encode_vector_coded_into(&worker.params(), &Dense32, &mut ubuf);
    session.send_frame(FrameKind::FinalModel, &ubuf)?;
    match session.recv()? {
        Msg::Shutdown => {}
        other => return Err(session.protocol_err("shutdown", &other)),
    }
    Ok(SessionEnd::Completed {
        steps: u64::from(spec.steps - start_round),
    })
}

enum FaultOutcome {
    /// The state frame went out (clean, delayed, or deliberately mangled).
    Sent,
    /// A terminal fault fired; the session is over by design.
    Terminal(FaultAction),
}

/// Applies every scripted fault anchored to `step` in place of (or around)
/// the state upload. `state_payload` is the already codec-encoded state —
/// faults mangle the exact bytes a clean send would have produced.
fn apply_faults(
    session: &mut Session,
    step: u32,
    opts: &WorkerOptions,
    state_payload: &[u8],
) -> Result<FaultOutcome, NetError> {
    let mut actions: Vec<FaultAction> = opts
        .faults
        .iter()
        .filter(|a| a.step() == step)
        .copied()
        .collect();
    actions.sort_by_key(|a| a.is_terminal()); // stalls first, then at most one terminal
    for action in actions {
        match action {
            FaultAction::StallState { ms, .. } => {
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
            }
            FaultAction::KillBeforeState(_) => {
                return Ok(FaultOutcome::Terminal(action));
            }
            FaultAction::ExitBeforeState(_) => {
                if opts.exit_process_on_fault {
                    std::process::exit(FAULT_EXIT_CODE);
                }
                return Ok(FaultOutcome::Terminal(action));
            }
            FaultAction::FlipStateBit { bit, .. } => {
                // Corrupt the frame past the length field so the
                // coordinator reads a complete frame and the checksum —
                // not a short read — must catch it.
                let mut frame = encode_frame(session.epoch, FrameKind::State, state_payload)?;
                let body_bits = (frame.len() - 4) * 8;
                let b = bit as usize % body_bits;
                frame[4 + b / 8] ^= 1 << (b % 8);
                session.stream.write_all(&frame)?;
                session.stream.flush()?;
                return Ok(FaultOutcome::Sent);
            }
            FaultAction::TruncateState { keep, .. } => {
                let frame = encode_frame(session.epoch, FrameKind::State, state_payload)?;
                let keep = (keep as usize).min(frame.len().saturating_sub(1));
                session.stream.write_all(&frame[..keep])?;
                session.stream.flush()?;
                session.shutdown();
                // The session is unusable; surface it as the disconnect
                // the coordinator also observes, so the rejoin machinery
                // takes over.
                return Err(NetError::Disconnect(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "scripted mid-frame truncation",
                )));
            }
        }
    }
    session.send_frame(FrameKind::State, state_payload)?;
    Ok(FaultOutcome::Sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_core::cluster::ClusterConfig;
    use fda_core::fda::FdaConfig;
    use fda_core::monitor::LocalState;
    use fda_data::synth::SynthSpec;
    use std::net::TcpListener;

    /// Runs worker `id` against a fake coordinator that hands it a K = 2
    /// job and, given an `avg`, reads the worker's first state and answers
    /// with `avg` as the round's `S̄`.
    fn against_fake_coordinator(
        id: u32,
        fda: FdaConfig,
        avg: Option<LocalState>,
    ) -> Result<WorkerOutcome, NetError> {
        let spec = JobSpec {
            cluster: ClusterConfig::small_test(2),
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps: 3,
            synth: SynthSpec {
                n_train: 240,
                n_test: 80,
                ..SynthSpec::synth_mnist()
            },
            task_name: "fake-coordinator".to_string(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let w0 = spec.cluster.model.build(spec.cluster.seed, 0).params_flat();
        let coordinator = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            Msg::recv(&mut stream).expect("hello");
            Msg::Config(Box::new(spec)).send(&mut stream, 1).unwrap();
            let resume = crate::protocol::encode_resume(0, &w0, None);
            // The worker may hang up before the handoff arrives.
            let _ = write_frame(&mut stream, 1, FrameKind::Resume, &resume);
            if let Some(state) = avg {
                let (kind, _) = read_frame_into(&mut stream, &mut Vec::new()).expect("state");
                assert_eq!(kind, FrameKind::State);
                let mut decision = vec![0u8]; // no sync
                fda_core::wire::encode_state_coded_into(&state, &Dense32, &mut decision);
                let _ = write_frame(&mut stream, 1, FrameKind::AvgState, &decision);
                // Hold the socket until the worker hangs up.
                let _ = std::io::Read::read(&mut stream, &mut [0u8; 1]);
            }
        });
        let outcome = run_worker(addr, id, &WorkerOptions::default());
        coordinator.join().expect("fake coordinator");
        outcome
    }

    /// A broadcast `S̄` whose summary is not the job's — another monitor's
    /// variant, or a sketch of other dimensions — is a protocol error at
    /// the worker, not a panic inside the monitor's estimate.
    #[test]
    fn worker_refuses_an_avg_state_of_the_wrong_shape() {
        use fda_core::monitor::{LinearMonitor, SketchMonitor, VarianceMonitor};
        let linear = LinearMonitor::new().local_state(&[0.5; 8]);
        let sketch = SketchMonitor::new(fda_sketch::SketchConfig::new(2, 8, 1), 8);
        for avg in [linear, sketch.local_state(&[0.5; 8])] {
            match against_fake_coordinator(0, FdaConfig::sketch_auto(0.01), Some(avg)) {
                Err(NetError::Protocol(why)) => assert!(why.contains("shape"), "{why}"),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }

    /// A coordinator that configures a K = 2 job for a worker claiming
    /// id 5 (the real one refuses that hello) must get a protocol error
    /// back, not an out-of-range shard index inside `build_worker`.
    #[test]
    fn worker_refuses_a_job_its_id_does_not_fit() {
        match against_fake_coordinator(5, FdaConfig::linear(0.01), None) {
            Err(NetError::Protocol(why)) => assert!(why.contains("out of range"), "{why}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
