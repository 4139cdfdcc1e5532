//! The TCP worker loop.
//!
//! A worker process is one half of the protocol. It rebuilds its exact
//! simulator replica from the config frame —
//! [`fda_core::cluster::ClusterConfig::build_worker`] derives model init,
//! `w_0`, dropout stream, shard and batch order deterministically from
//! `(seed, id)` — and then drives
//! [`fda_core::cluster::Worker::step_once`], the *same*
//! training code path the simulator's `Cluster::local_step` runs.
//! Everything that crosses the process boundary goes through
//! `fda_core::wire`, whose decode is exact (f32 bits round-trip), and the
//! round's replica half ([`fda_core::round::Replica`]) computes the drift
//! and local state, cross-checks the broadcast `S̄` and adopts the
//! consensus, so the K-process trajectory is bit-identical to the
//! K-worker simulator. All of that is the protocol's [`WorkerMachine`];
//! this module is its TCP driver, which keeps sessions and rejoin.
//!
//! # Sessions and rejoin
//!
//! One *session* is one connection's worth of protocol: connect (with
//! exponential backoff + jitter under `connect_timeout`), hello, `Config`,
//! the versioned `Resume` handoff, then rounds from `Resume.round`
//! onwards. If the session dies retryably (disconnect, timeout) and
//! [`WorkerOptions::rejoin`] has attempts left, the worker opens a new
//! session presenting its id + last-seen epoch; the coordinator's `Resume`
//! tells it where to restart. A rejoin is a **warm restart**: the
//! replica, optimizer state and data stream are rebuilt from `(seed, id)`
//! and the parameters are loaded from the consensus model — deterministic
//! given the coordinator's admission schedule, though not a continuation
//! of the dropped session's local trajectory.

use crate::frame::{FrameHead, FrameKind, Hello, Link, NetError, PROTOCOL_VERSION};
use crate::machine::{Input, Output, WorkerMachine};
use fda_tensor::Rng;
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

/// Knobs for one worker run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Deadline for each session's connect loop (the coordinator may
    /// still be binding when a spawned worker starts).
    pub connect_timeout: Duration,
    /// Reconnect attempts after a retryable session failure; each is a
    /// backoff-paced connect loop under `connect_timeout`. With 0 the first
    /// failure is final.
    pub rejoin: u32,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            connect_timeout: Duration::from_secs(20),
            rejoin: 0,
        }
    }
}

/// Connects with exponential backoff + jitter under the `connect_timeout`
/// deadline, then sends the extended hello. The address is borrowed
/// through the backoff loop — retries never clone it.
fn connect<A: ToSocketAddrs + ?Sized>(
    addr: &A,
    id: u32,
    last_epoch: u32,
    opts: &WorkerOptions,
    backoff: &mut Backoff,
) -> Result<Link, NetError> {
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
    let mut link = Link::new(stream)?;
    let hello = Hello {
        version: PROTOCOL_VERSION,
        worker_id: id,
        last_epoch,
    }
    .encode();
    link.write(
        &FrameHead::new(last_epoch, FrameKind::Hello, &hello)?,
        &hello,
    )?;
    Ok(link)
}

/// Runs one worker to completion, surviving up to
/// [`WorkerOptions::rejoin`] session losses. This is the entry point for
/// both in-process (thread) workers and the `fda_node worker` binary.
pub fn run_worker<A: ToSocketAddrs>(
    addr: A,
    id: u32,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, NetError> {
    let seed = (0x5EED ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, seed);
    let mut last_epoch = 0u32;
    let mut attempts_left = opts.rejoin;
    let mut rejoins = 0u64;
    let mut syncs = 0u64;

    loop {
        let mut link = connect(&addr, id, last_epoch, opts, &mut backoff)?;
        let mut m = WorkerMachine::new(id, last_epoch);
        let end = session(&mut link, &mut m);
        syncs += m.syncs();
        match end {
            Ok(steps) => {
                return Ok(WorkerSummary {
                    steps,
                    syncs,
                    rejoins,
                })
            }
            Err(e) if e.is_retryable() && attempts_left > 0 => {
                attempts_left -= 1;
                rejoins += 1;
                last_epoch = m.epoch();
                link.close();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Drives one session's machine over its link until it ends, returning
/// the steps it ran.
fn session(link: &mut Link, m: &mut WorkerMachine) -> Result<u64, NetError> {
    loop {
        while let Some(out) = m.poll() {
            match out {
                Output::Send {
                    epoch,
                    kind,
                    payload,
                    ..
                } => link.write(&FrameHead::new(epoch, kind, payload)?, payload)?,
                Output::Done(steps) => return steps,
                Output::Close { .. } | Output::Round(_) => {}
            }
        }
        let (kind, epoch) = link.read()?;
        m.handle(Input::Frame {
            from: 0,
            kind,
            epoch,
            payload: link.payload(),
        });
    }
}

/// First reconnect backoff delay.
const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Reconnect backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Exponential backoff with jitter: delay `i` is uniform in
/// `[base·2^i / 2, base·2^i)`, capped at `cap` — the standard
/// "decorrelated-ish" shape that avoids reconnect stampedes while keeping
/// the expected delay growing geometrically.
#[derive(Debug)]
struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: Rng,
}

impl Backoff {
    /// Creates a backoff sequence; `seed` only perturbs the jitter.
    fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: Rng::new(seed),
        }
    }

    /// The next delay in the sequence.
    fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16); // 2^16 · base already ≫ any cap we use
        self.attempt += 1;
        let full = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .as_micros() as u64;
        let jittered = full / 2 + self.rng.next_u64() % (full / 2 + 1);
        Duration::from_micros(jittered)
    }

    /// Resets the sequence to the first delay (after a successful connect).
    fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_into, write_frame};
    use fda_comm::Dense32;
    use fda_core::cluster::ClusterConfig;
    use fda_core::fda::FdaConfig;
    use fda_core::monitor::LocalState;
    use fda_core::round::Server;
    use fda_core::wire::{encode_job, JobSpec};
    use fda_data::synth::SynthSpec;
    use std::net::TcpListener;

    /// What the fake coordinator answers after the `Resume` handoff.
    enum Reply {
        /// Nothing: it holds the socket until the worker hangs up.
        Nothing,
        /// Reads the first drift scalar, asks for its summary and answers
        /// with this `S̄` (no sync).
        AvgState(LocalState),
        /// Answers a `FinalModel` with `Shutdown`.
        Shutdown,
    }

    const STEPS: u32 = 3;

    /// Runs worker `id` against a fake coordinator that hands it a K = 2
    /// job of `STEPS` rounds resumed at `round`, then plays `reply`.
    fn against_fake_coordinator(
        id: u32,
        fda: FdaConfig,
        round: u32,
        reply: Reply,
    ) -> Result<WorkerSummary, NetError> {
        let spec = JobSpec {
            cluster: ClusterConfig::small_test(2),
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps: STEPS,
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
            let mut buf = Vec::new();
            let (kind, _) = read_frame_into(&mut stream, &mut buf).expect("hello");
            Hello::decode(kind, &buf[1..]).expect("hello");
            write_frame(&mut stream, 1, FrameKind::Config, &encode_job(&spec)).unwrap();
            let mut resume = Vec::new();
            Server::new(spec.fda, w0).resume_payload(round, &mut resume);
            // The worker may hang up before the handoff arrives.
            let _ = write_frame(&mut stream, 1, FrameKind::Resume, &resume);
            let next = read_frame_into(&mut stream, &mut Vec::new());
            match reply {
                Reply::Nothing => {}
                Reply::AvgState(state) => {
                    assert_eq!(next.expect("drift").0, FrameKind::Drift);
                    let _ = write_frame(&mut stream, 1, FrameKind::SummaryRequest, &[]);
                    let summary = read_frame_into(&mut stream, &mut Vec::new());
                    assert_eq!(summary.expect("summary").0, FrameKind::Summary);
                    let mut decision = vec![0u8]; // no sync
                    fda_core::wire::encode_state_coded_into(&state, &Dense32, &mut decision);
                    let _ = write_frame(&mut stream, 1, FrameKind::AvgState, &decision);
                    // Hold the socket until the worker hangs up.
                    let _ = std::io::Read::read(&mut stream, &mut [0u8; 1]);
                }
                Reply::Shutdown => {
                    if let Ok((FrameKind::FinalModel, _)) = next {
                        write_frame(&mut stream, 1, FrameKind::Shutdown, &[]).unwrap();
                    }
                }
            }
        });
        let outcome = run_worker(addr, id, &WorkerOptions::default());
        coordinator.join().expect("fake coordinator");
        outcome
    }

    /// A handoff at the job's last round runs no round: the worker sends
    /// its final replica and completes with zero steps. A handoff past it
    /// is a protocol error, not a wrapped or panicking step count.
    #[test]
    fn worker_refuses_a_resume_past_the_jobs_end() {
        let fda = FdaConfig::linear(0.01);
        match against_fake_coordinator(0, fda, STEPS, Reply::Shutdown) {
            Ok(summary) => assert_eq!(summary.steps, 0),
            other => panic!("expected a completed run, got {other:?}"),
        }
        match against_fake_coordinator(0, fda, STEPS + 1, Reply::Shutdown) {
            Err(NetError::Protocol(why)) => assert!(why.contains("past the job"), "{why}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
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
            match against_fake_coordinator(0, FdaConfig::sketch_auto(0.01), 0, Reply::AvgState(avg))
            {
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
        match against_fake_coordinator(5, FdaConfig::linear(0.01), 0, Reply::Nothing) {
            Err(NetError::Protocol(why)) => assert!(why.contains("out of range"), "{why}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 7);
        let d0 = b.next_delay();
        assert!(
            d0 >= Duration::from_millis(5)
                && d0 < Duration::from_millis(10) + Duration::from_micros(1)
        );
        // After many attempts every delay sits in [cap/2, cap].
        for _ in 0..10 {
            b.next_delay();
        }
        for _ in 0..5 {
            let d = b.next_delay();
            assert!(d >= Duration::from_millis(50) && d <= Duration::from_millis(100));
        }
        b.reset();
        assert!(b.next_delay() < Duration::from_millis(11));
    }
}
