//! A frame relay for the TCP smoke tests: faults come from the wire.
//!
//! The relay stands between the in-process `Coordinator` and the spawned
//! `fda_node` workers and forwards every byte unchanged, except the one
//! worker → coordinator frame a [`Fault`] names — the in-memory driver's
//! own fault values, so one `&[Fault]` means the same event on both
//! drivers. A frame is named by the coordinates the in-memory filter
//! uses: in a worker's first session the n-th `Drift` is round n − 1, a
//! `Summary` or `Model` takes its round's number, and the `FinalModel`
//! takes `steps` (the number of drifts before it). Rejoined sessions pass
//! through unchanged. The actions, at a frame boundary:
//!
//! - [`Action::Disconnect`] forwards a strict prefix of the frame, then
//!   shuts both halves: a mid-frame cut, which the coordinator cannot tell
//!   from a killed process;
//! - [`Action::Corrupt`] flips one bit past the length field, so the
//!   frame arrives whole and fails its checksum;
//! - [`Action::HoldPast`] holds the frame for 4× the deadline, then
//!   forwards it;
//! - [`Action::HoldInside`] holds it for half the deadline.
//!
//! Shared by `net_faults.rs` and `obs_telemetry.rs`, which each include
//! the in-memory driver as `in_memory` next to it.

use crate::in_memory::{Action, Fault};
use fda::core::wire::JobSpec;
use fda::net::frame::{encode_frame, read_frame_into, write_frame};
use fda::net::{Coordinator, FrameKind, Hello, NetError, NetReport, RoundPolicy, SpawnedWorkers};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Runs `spec` under `policy` over spawned `fda_node` workers that reach
/// the coordinator through a relay injecting `faults`, streaming round
/// events to `telemetry`. A worker a fault names may exit non-zero.
pub fn run_relayed(
    spec: &JobSpec,
    policy: &RoundPolicy,
    faults: &[Fault],
    telemetry: Option<&Path>,
) -> Result<NetReport, NetError> {
    run(spec, policy, faults, telemetry, 0)
}

/// Runs `spec` like [`run_relayed`] without faults, behind `silent`
/// relayed connections that reach the coordinator ahead of every worker
/// and then send nothing until the run ends.
#[allow(dead_code)] // obs_telemetry.rs shares this module and runs none
pub fn run_relayed_behind_silent_peers(
    spec: &JobSpec,
    policy: &RoundPolicy,
    silent: usize,
) -> Result<NetReport, NetError> {
    run(spec, policy, &[], None, silent)
}

fn run(
    spec: &JobSpec,
    policy: &RoundPolicy,
    faults: &[Fault],
    telemetry: Option<&Path>,
    silent: usize,
) -> Result<NetReport, NetError> {
    let mut coordinator = Coordinator::bind("127.0.0.1:0")?;
    if let Some(path) = telemetry {
        coordinator.set_telemetry(path);
    }
    coordinator.set_policy(policy.clone());
    let relay = Relay::start(coordinator.local_addr()?, faults, policy.deposit_timeout)?;
    // The relay accepts in arrival order, so these connections reach the
    // coordinator's backlog before any spawned worker's.
    let _silent = (0..silent)
        .map(|_| TcpStream::connect(relay.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let workers = SpawnedWorkers::spawn(spec, node_bin, relay.addr, policy)?;
    let report = workers.run(coordinator, spec, |id| {
        faults.iter().any(|f| f.worker == id)
    });
    relay.stop();
    report
}

/// The relay's listener, and its accept loop.
struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

/// What every connection of one relay shares: the faults, the deadline
/// the holds are measured in, and the ids whose first session has begun.
struct Plan {
    faults: Vec<Fault>,
    deadline: Duration,
    seen: Mutex<Vec<usize>>,
}

impl Relay {
    /// Listens on a free loopback port; each connection is relayed to
    /// `upstream` on a fresh connection of its own.
    fn start(upstream: SocketAddr, faults: &[Fault], deadline: Duration) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let plan = Arc::new(Plan {
            faults: faults.to_vec(),
            deadline,
            seen: Mutex::new(Vec::new()),
        });
        let halt = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            while !halt.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((worker, _)) => {
                        if let Ok(coordinator) = TcpStream::connect(upstream) {
                            let _ = relay(worker, coordinator, Arc::clone(&plan));
                        }
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Ok(Relay { addr, stop, accept })
    }

    /// Stops accepting; relayed connections end with their sockets.
    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.accept.join().expect("relay accept loop");
    }
}

/// Relays one connection on two threads: coordinator → worker bytes as
/// they come, worker → coordinator frame by frame. When either direction
/// ends, both halves of both sockets are shut.
fn relay(worker: TcpStream, coordinator: TcpStream, plan: Arc<Plan>) -> std::io::Result<()> {
    for s in [&worker, &coordinator] {
        s.set_nonblocking(false)?;
        s.set_nodelay(true)?;
    }
    let (mut to_worker, mut from_coordinator) = (worker.try_clone()?, coordinator.try_clone()?);
    let (mut from_worker, mut to_coordinator) = (worker, coordinator);
    let shut = |a: &TcpStream, b: &TcpStream| {
        let _ = a.shutdown(Shutdown::Both);
        let _ = b.shutdown(Shutdown::Both);
    };
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut from_coordinator, &mut to_worker);
        shut(&from_coordinator, &to_worker);
    });
    std::thread::spawn(move || {
        let _ = forward(&mut from_worker, &mut to_coordinator, &plan);
        shut(&from_worker, &to_coordinator);
    });
    Ok(())
}

/// Forwards one connection's worker → coordinator frames until either
/// side ends it or a `Disconnect` fault cuts it.
fn forward(
    worker: &mut TcpStream,
    coordinator: &mut TcpStream,
    plan: &Plan,
) -> Result<(), NetError> {
    let mut buf = Vec::new();
    let (kind, epoch) = read_frame_into(worker, &mut buf)?;
    let Hello { worker_id, .. } = Hello::decode(kind, &buf[1..])?;
    write_frame(coordinator, epoch, kind, &buf[1..])?;
    let id = worker_id as usize;
    let first = {
        let mut seen = plan.seen.lock().expect("relay state");
        let first = !seen.contains(&id);
        seen.push(id);
        first
    };
    let mut drifts = 0u32;
    loop {
        let (kind, epoch) = read_frame_into(worker, &mut buf)?;
        let round = match kind {
            FrameKind::Drift | FrameKind::FinalModel => drifts,
            _ => drifts.saturating_sub(1),
        };
        drifts += u32::from(kind == FrameKind::Drift);
        let fault = plan
            .faults
            .iter()
            .find(|f| first && (f.worker, f.round, f.kind) == (id, round, kind));
        let Some(fault) = fault else {
            write_frame(coordinator, epoch, kind, &buf[1..])?;
            continue;
        };
        let mut frame = encode_frame(epoch, kind, &buf[1..])?;
        match fault.action {
            Action::Disconnect => {
                coordinator.write_all(&frame[..frame.len() / 2])?;
                return Ok(());
            }
            Action::Corrupt => *frame.last_mut().expect("a frame has a head") ^= 1,
            Action::HoldPast => std::thread::sleep(plan.deadline * 4),
            Action::HoldInside => std::thread::sleep(plan.deadline / 2),
        }
        coordinator.write_all(&frame)?;
    }
}
