//! Run harnesses: whole FDA jobs over loopback TCP.
//!
//! Drivers around the same [`Coordinator`]:
//!
//! * [`run_with_thread_workers`] — workers are threads of the calling
//!   process, each speaking real TCP to the coordinator over loopback.
//!   Used by unit tests and the bench (no process-spawn cost in the
//!   measurement, sockets still real).
//! * [`run_with_spawned_workers`] — workers are **OS processes** spawned
//!   from an `fda_node` binary; the multi-process deployment the paper's
//!   byte accounting is ultimately about. It composes a bound
//!   [`Coordinator`] with [`SpawnedWorkers`], the spawn-and-reap type a
//!   caller with its own policy, telemetry or worker address (`fda_node
//!   demo`, the fault relay of the TCP smoke tests) composes the same way.
//!   Child processes are killed if the run fails, so a wedged worker
//!   cannot leak past it.

use crate::coordinator::Coordinator;
use crate::frame::NetError;
use crate::machine::{NetReport, RoundPolicy};
use crate::worker::{run_worker, WorkerOptions};
use fda_core::wire::JobSpec;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long spawned workers get to exit after shutdown before being
/// killed.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs `spec` with in-process worker threads over loopback TCP.
///
/// # Panics
/// Panics if a worker thread panics.
pub fn run_with_thread_workers(spec: &JobSpec) -> Result<NetReport, NetError> {
    run_with_thread_workers_telemetry(spec, None)
}

/// [`run_with_thread_workers`] with an optional round-event JSONL sink
/// (the [`fda_obs`] schema, streamed by the coordinator).
///
/// # Panics
/// Panics if a worker thread panics.
pub fn run_with_thread_workers_telemetry(
    spec: &JobSpec,
    telemetry: Option<&Path>,
) -> Result<NetReport, NetError> {
    let mut coordinator = Coordinator::bind("127.0.0.1:0")?;
    if let Some(path) = telemetry {
        coordinator.set_telemetry(path);
    }
    let addr = coordinator.local_addr()?;
    let opts = WorkerOptions::default();
    let (report, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.cluster.workers as u32)
            .map(|id| {
                let opts = &opts;
                scope.spawn(move || run_worker(addr, id, opts))
            })
            .collect();
        let report = coordinator.run(spec);
        // Unbind the listener before joining: a worker still retrying a
        // connect gets connection-refused promptly instead of parking on a
        // dead rendezvous until its io timeout.
        drop(coordinator);
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"));
        (report, workers.collect::<Vec<_>>())
    });
    // A coordinator error usually kills the workers too; report the
    // coordinator's (root-cause) error first.
    let report = report?;
    for (id, worker) in workers.into_iter().enumerate() {
        worker.map_err(|e| NetError::Protocol(format!("worker {id} failed: {e}")))?;
    }
    Ok(report)
}

/// The K worker processes of one run, spawned from an `fda_node` binary.
/// Still-running children are killed on drop, so a failed run cannot leak
/// worker processes.
pub struct SpawnedWorkers {
    children: Vec<Child>,
}

impl SpawnedWorkers {
    /// Spawns `spec`'s K workers from `node_bin` — a binary accepting
    /// `worker --connect <addr> --id <k> [--rejoin <n>]`, the workspace's
    /// `fda_node` — to connect to `addr`; each worker `policy` re-admits
    /// gets one reconnect attempt per scheduled admission. Worker stderr
    /// is inherited so failures surface in test output.
    pub fn spawn(
        spec: &JobSpec,
        node_bin: &Path,
        addr: SocketAddr,
        policy: &RoundPolicy,
    ) -> Result<SpawnedWorkers, NetError> {
        let mut workers = SpawnedWorkers {
            children: Vec::new(),
        };
        for id in 0..spec.cluster.workers as u32 {
            let admissions = policy.admissions.iter().filter(|&&(_, w)| w == id);
            let rejoin = match admissions.count() {
                0 => Vec::new(),
                n => vec!["--rejoin".to_string(), n.to_string()],
            };
            let child = Command::new(node_bin)
                .arg("worker")
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--id")
                .arg(id.to_string())
                .args(rejoin)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()?;
            workers.children.push(child);
        }
        Ok(workers)
    }

    /// Runs `spec` on `coordinator` — its policy and telemetry as set —
    /// with these workers, unbinds it, and reaps them. Every worker must
    /// exit cleanly, except those `may_fail` names and, when the run
    /// failed, all of them. The coordinator's result is returned as is: a
    /// typed [`NetError::Quorum`] is a valid, asserted-on ending.
    pub fn run(
        self,
        coordinator: Coordinator,
        spec: &JobSpec,
        may_fail: impl Fn(usize) -> bool,
    ) -> Result<NetReport, NetError> {
        let report = coordinator.run(spec);
        // Unbind the listener before reaping: a worker still retrying a
        // connect is refused instead of waiting out its connect timeout.
        drop(coordinator);
        self.reap(|id| report.is_err() || may_fail(id))?;
        report
    }

    /// Waits for every child to exit, killing laggards after
    /// [`REAP_TIMEOUT`]. Returns an error naming the first child that
    /// exited unsuccessfully, unless `may_fail` names it.
    fn reap(mut self, may_fail: impl Fn(usize) -> bool) -> Result<(), NetError> {
        let deadline = Instant::now() + REAP_TIMEOUT;
        for (id, child) in self.children.iter_mut().enumerate() {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            break child.wait().map_err(NetError::Io)?;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(NetError::Io(e)),
                }
            };
            if !status.success() && !may_fail(id) {
                // Return without clearing: `Drop` still kills the
                // remaining (possibly wedged) siblings.
                return Err(NetError::Protocol(format!(
                    "worker process {id} exited with {status}"
                )));
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for SpawnedWorkers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs `spec` with `K` spawned `fda_node` worker processes under the
/// default [`RoundPolicy`].
pub fn run_with_spawned_workers(spec: &JobSpec, node_bin: &Path) -> Result<NetReport, NetError> {
    let coordinator = Coordinator::bind("127.0.0.1:0")?;
    let addr = coordinator.local_addr()?;
    let workers = SpawnedWorkers::spawn(spec, node_bin, addr, &RoundPolicy::default())?;
    workers.run(coordinator, spec, |_| false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, FrameKind, Hello, PROTOCOL_VERSION};
    use fda_core::cluster::ClusterConfig;
    use fda_core::fda::{Fda, FdaConfig};
    use fda_core::strategy::Strategy;
    use fda_data::synth::SynthSpec;
    use std::net::TcpStream;

    fn tiny_spec(k: usize, fda: FdaConfig, steps: u32) -> JobSpec {
        JobSpec {
            cluster: ClusterConfig {
                workers: k,
                ..ClusterConfig::small_test(k)
            },
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps,
            synth: SynthSpec {
                n_train: 240,
                n_test: 80,
                ..SynthSpec::synth_mnist()
            },
            task_name: "tiny".to_string(),
        }
    }

    /// Thread-worker smoke parity: a K = 2 LinearFDA TCP run must retrace
    /// the sequential simulator bit-for-bit (the full multi-process matrix
    /// lives in the root `net_parity` integration suite).
    #[test]
    fn loopback_run_matches_simulator() {
        let spec = tiny_spec(2, FdaConfig::linear(0.02), 6);
        let report = run_with_thread_workers(&spec).expect("net run");

        let task = spec.synth.generate(&spec.task_name);
        let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
        let mut decisions = Vec::new();
        let mut estimates = Vec::new();
        for _ in 0..spec.steps {
            let out = sim.step();
            decisions.push(out.synced);
            estimates.push(out.variance_estimate.expect("fda reports estimates"));
        }
        assert_eq!(report.decisions, decisions, "sync schedule diverged");
        assert_eq!(report.estimates, estimates, "estimates diverged");
        assert!(report.syncs > 0, "horizon should exercise a sync");
        for (kk, params) in report.worker_params.iter().enumerate() {
            assert_eq!(
                params,
                &sim.cluster().worker(kk).params(),
                "worker {kk} final params diverged"
            );
        }
        assert_eq!(report.charged_bytes, sim.comm_bytes(), "charged diverged");
        assert_eq!(
            report.measured_payload_bytes, report.charged_bytes,
            "socket-measured payload != charged"
        );
        // Framing + control plane exist but are small.
        assert!(report.raw_rx_bytes > report.measured_payload_bytes);
        // A fault-free run keeps everyone: K joins, zero drops.
        assert_eq!(report.survivors, vec![0, 1]);
        assert_eq!(report.events.len(), 2);
    }

    /// Formation admits workers through the accept-and-park path a rejoin
    /// takes: stray connections — a hello claiming an id out of range, a
    /// frame that is no hello, a connection closed before its hello —
    /// harm only themselves, and the run is the one they never joined.
    #[test]
    fn bad_hellos_do_not_abort_formation() {
        let spec = tiny_spec(2, FdaConfig::linear(0.02), 4);
        let clean = run_with_thread_workers(&spec).expect("clean run");

        let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
        let addr = coordinator.local_addr().expect("addr");
        let hello = Hello {
            version: PROTOCOL_VERSION,
            worker_id: 7,
            last_epoch: 0,
        }
        .encode();
        let strays: Vec<TcpStream> = [Some(FrameKind::Hello), Some(FrameKind::Drift), None]
            .into_iter()
            .filter_map(|kind| {
                let mut stray = TcpStream::connect(addr).expect("connect");
                // With no kind, the stray closes before its hello.
                match kind? {
                    FrameKind::Hello => write_frame(&mut stray, 0, FrameKind::Hello, &hello),
                    kind => write_frame(&mut stray, 0, kind, &[0; 4]),
                }
                .expect("stray hello");
                Some(stray)
            })
            .collect();
        let report = std::thread::scope(|scope| {
            for id in 0..2 {
                scope.spawn(move || run_worker(addr, id, &WorkerOptions::default()));
            }
            coordinator.run(&spec)
        })
        .expect("formation survives bad hellos");
        drop(strays);
        assert_eq!(report.decisions, clean.decisions);
        assert_eq!(report.estimates, clean.estimates);
        assert_eq!(report.worker_params, clean.worker_params);
        assert_eq!(report.events, clean.events);
        assert_eq!(report.measured_payload_bytes, report.charged_bytes);
    }

    /// K = 1 degenerate cluster: runs, charges nothing (the accounting
    /// convention), still produces the simulator's exact trajectory.
    #[test]
    fn single_worker_run_charges_nothing() {
        let spec = tiny_spec(1, FdaConfig::linear(0.05), 4);
        let report = run_with_thread_workers(&spec).expect("net run");
        assert_eq!(report.charged_bytes, 0);
        assert_eq!(report.measured_payload_bytes, 0);
        assert!(report.raw_rx_bytes > 0, "frames still crossed the socket");

        let task = spec.synth.generate(&spec.task_name);
        let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
        let decisions: Vec<bool> = (0..spec.steps).map(|_| sim.step().synced).collect();
        assert_eq!(report.decisions, decisions);
        assert_eq!(report.worker_params[0], sim.cluster().worker(0).params());
    }
}
