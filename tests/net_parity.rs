//! TCP-transport parity suite: a multi-**process** FDA run over loopback
//! must be bit-identical to the sequential in-process simulator — final
//! parameters of every replica, per-round variance estimates, the full
//! sync-decision sequence — and the bytes *measured* on the sockets must
//! equal the bytes the simulator *charges*, exactly.
//!
//! This is the `pool_determinism.rs` pattern lifted across the process
//! boundary: same K × variant matrix, but every worker is a spawned
//! `fda_node` OS process and every state/model payload genuinely crosses
//! a TCP socket through `fda_core::wire`. On the single-core build host,
//! bit-identity (not speedup) is the correctness proof for the
//! distributed runtime.
//!
//! Hang guard: the coordinator and workers carry socket read timeouts, so
//! a wedged peer fails the test with an I/O error instead of blocking CI
//! forever (the workflow adds an outer `timeout` as a second fence).

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig, FdaVariant};
use fda::core::strategy::Strategy;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{run_with_spawned_workers, NetReport};
use std::path::Path;

const STEPS: u32 = 8;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn spec(k: usize, fda: FdaConfig) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda,
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps: STEPS,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "net-parity".to_string(),
    }
}

fn variants() -> Vec<(&'static str, FdaConfig)> {
    // Θ small enough that the horizon exercises model AllReduces, so the
    // parity claim covers the expensive phase too (same values as
    // `pool_determinism.rs`).
    vec![
        ("sketch", FdaConfig::sketch_auto(0.01)),
        ("linear", FdaConfig::linear(0.01)),
        (
            "exact",
            FdaConfig {
                variant: FdaVariant::Exact,
                theta: 0.01,
            },
        ),
    ]
}

/// Runs the job on the sequential simulator and as a K-process TCP
/// cluster, then asserts bit-identity and measured-== -charged accounting.
fn assert_parity(k: usize, tag: &str, fda: FdaConfig) {
    let spec = spec(k, fda);
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let report =
        run_with_spawned_workers(&spec, node_bin).unwrap_or_else(|e| panic!("k={k} {tag}: {e}"));

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.expect("fda reports estimates"));
    }

    let case = format!("k={k} variant={tag}");
    assert_eq!(
        report.decisions, decisions,
        "{case}: sync schedule diverged"
    );
    for (step, (a, b)) in report.estimates.iter().zip(&estimates).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    assert_eq!(report.syncs, sim.syncs(), "{case}: sync count diverged");
    for w in 0..k {
        assert_eq!(
            report.worker_params[w],
            sim.cluster().worker(w).params(),
            "{case}: worker {w} final replica diverged"
        );
    }
    assert_eq!(
        bits(&report.final_params),
        bits(&sim.global_params()),
        "{case}: final model != the simulator's evaluation model"
    );
    assert_eq!(
        report.charged_bytes,
        sim.comm_bytes(),
        "{case}: TCP charged accounting != simulator"
    );
    assert_eq!(
        report.measured_payload_bytes, report.charged_bytes,
        "{case}: bytes measured on the socket != bytes charged"
    );
    if k > 1 {
        assert!(
            report.decisions.iter().any(|&d| d),
            "{case}: horizon should exercise at least one model AllReduce"
        );
        // Real frames cost real (framing) bytes on top of the payloads.
        assert!(
            report.raw_rx_bytes > report.measured_payload_bytes,
            "{case}: raw socket traffic must exceed the payload convention"
        );
    }
}

/// Runs a Θ = 0 job (every round is a model AllReduce, so dense and
/// delta runs share one frame schedule and their wire traffic is directly
/// comparable) under the given downlink spec, against a simulator with
/// the downlink mirrored via [`Fda::set_downlink`]. Asserts bit-identity
/// and measured == charged, then returns the report for cross-run byte
/// comparisons.
fn assert_downlink_parity(k: usize, tag: &str, downlink: fda::comm::DownlinkSpec) -> NetReport {
    let mut spec = spec(k, FdaConfig::linear(0.0));
    spec.downlink = downlink;
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let report =
        run_with_spawned_workers(&spec, node_bin).unwrap_or_else(|e| panic!("k={k} {tag}: {e}"));

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    sim.set_downlink(spec.downlink);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.expect("fda reports estimates"));
    }

    let case = format!("k={k} downlink={tag}");
    assert!(
        report.decisions.iter().all(|&d| d),
        "{case}: Θ = 0 must sync every round"
    );
    assert_eq!(
        report.decisions, decisions,
        "{case}: sync schedule diverged"
    );
    for (step, (a, b)) in report.estimates.iter().zip(&estimates).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    for w in 0..k {
        assert_eq!(
            report.worker_params[w],
            sim.cluster().worker(w).params(),
            "{case}: worker {w} final replica diverged"
        );
    }
    assert_eq!(
        bits(&report.final_params),
        bits(&sim.global_params()),
        "{case}: final model != the simulator's evaluation model"
    );
    assert_eq!(
        report.charged_bytes,
        sim.comm_bytes(),
        "{case}: TCP charged accounting != simulator"
    );
    assert_eq!(
        report.measured_payload_bytes, report.charged_bytes,
        "{case}: bytes measured on the socket != bytes charged"
    );
    report
}

/// The delta-downlink acceptance matrix: for K ∈ {2, 4}, a lossily coded
/// downlink reconstructs the same consensus as the simulator mirror bit
/// for bit, charges exactly the same (worker-uplink) bytes as dense, and
/// puts strictly fewer downlink and raw-transmit bytes on the wire.
#[test]
fn delta_downlink_matches_simulator_and_beats_dense_on_the_wire() {
    use fda::comm::{CodecSpec, DownlinkSpec};
    for k in [2usize, 4] {
        let dense = assert_downlink_parity(k, "dense", DownlinkSpec::Dense);
        let delta = assert_downlink_parity(
            k,
            "delta-uniform8",
            DownlinkSpec::Delta {
                codec: CodecSpec::Uniform8 { chunk: 256 },
            },
        );
        assert_eq!(
            delta.charged_bytes, dense.charged_bytes,
            "k={k}: downlink coding must not change the charged (uplink) bytes"
        );
        assert!(
            delta.downlink_model_bytes < dense.downlink_model_bytes,
            "k={k}: coded downlink ({}) must undercut the dense broadcast ({})",
            delta.downlink_model_bytes,
            dense.downlink_model_bytes
        );
        assert!(
            delta.raw_tx_bytes < dense.raw_tx_bytes,
            "k={k}: coded downlink must shrink raw coordinator tx ({} vs {})",
            delta.raw_tx_bytes,
            dense.raw_tx_bytes
        );
    }
}

/// `Delta { codec: Dense }` takes the delta wire path (AvgModelDelta
/// frames, reconstruction at the worker) and must still agree with its
/// simulator mirror bit for bit.
#[test]
fn delta_dense_downlink_is_bit_identical_to_its_mirror() {
    use fda::comm::{CodecSpec, DownlinkSpec};
    assert_downlink_parity(
        2,
        "delta-dense",
        DownlinkSpec::Delta {
            codec: CodecSpec::Dense,
        },
    );
}

/// The acceptance matrix: K = 4 processes for every monitor variant.
#[test]
fn k4_processes_match_simulator_for_all_variants() {
    for (tag, fda) in variants() {
        assert_parity(4, tag, fda);
    }
}

/// K coverage: the degenerate single-process cluster and the K = 2 pair
/// (LinearFDA keeps the K sweep cheap; the full variant matrix runs at
/// K = 4 above).
#[test]
fn k1_and_k2_processes_match_simulator() {
    assert_parity(1, "linear", FdaConfig::linear(0.01));
    assert_parity(2, "linear", FdaConfig::linear(0.01));
    assert_parity(2, "sketch", FdaConfig::sketch_auto(0.01));
}

/// Wire bytes and checksums do not depend on the kernel arm: a coordinator
/// on this process's arm and worker processes forced onto the scalar arm
/// (`FDA_FORCE_KERNEL=scalar`: table CRC, per-element quantizer) run two
/// Θ = 0 jobs to completion — every frame either side checksummed
/// verifies on the other, every coded payload decodes, and the bytes
/// measured on the sockets equal the bytes charged. One job is coded
/// (uniform8 uplink, delta downlink: model frames under 4 KiB); the other
/// is dense both ways, so every round's model uploads and consensus
/// broadcast are ~15 KB frames that the default arm checksums with its
/// interleaved chains and the workers with the table. Trajectory equality
/// is deliberately *not* asserted across arms (float reductions
/// reassociate per arm; determinism is a per-arm property).
#[test]
fn scalar_arm_workers_pair_with_a_default_arm_coordinator() {
    use fda::comm::{CodecSpec, DownlinkSpec};

    let uniform8 = CodecSpec::Uniform8 { chunk: 256 };
    let mut coded = spec(2, FdaConfig::linear(0.0));
    coded.codec = uniform8;
    coded.downlink = DownlinkSpec::Delta { codec: uniform8 };
    mixed_arm_run("coded", &coded);

    let dense = spec(2, FdaConfig::linear(0.0));
    let dim = dense
        .cluster
        .model
        .build(dense.cluster.seed, 0)
        .param_count();
    assert!(
        4 + dim * 4 > 4 << 10,
        "a dense model frame ({dim} params) must be past the CRC interleave threshold"
    );
    mixed_arm_run("dense", &dense);
}

/// Runs `spec` with scalar-arm worker processes against a coordinator on
/// this process's arm; asserts no drops, a sync every round, and measured
/// == charged.
fn mixed_arm_run(tag: &str, spec: &JobSpec) {
    use fda::net::{Coordinator, MemberEvent};
    use std::process::{Command, Stdio};

    let k = spec.cluster.workers;
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let mut workers: Vec<_> = (0..k)
        .map(|id| {
            Command::new(env!("CARGO_BIN_EXE_fda_node"))
                .args(["worker", "--connect", &addr, "--id", &id.to_string()])
                .env("FDA_FORCE_KERNEL", "scalar")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn fda_node worker")
        })
        .collect();
    let report = coordinator.run(spec);
    for (id, child) in workers.iter_mut().enumerate() {
        if report.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().expect("wait for worker");
        assert!(
            status.success() || report.is_err(),
            "{tag}: worker {id} exited with {status}"
        );
    }
    let report = report.unwrap_or_else(|e| panic!("{tag}: mixed-arm run: {e}"));

    assert!(
        report
            .events
            .iter()
            .all(|e| matches!(e.event, MemberEvent::Joined { rejoin: false })),
        "{tag}: no worker may be dropped (a checksum or decode mismatch would drop one): {:?}",
        report.events
    );
    assert_eq!(report.survivors, (0..k as u32).collect::<Vec<_>>(), "{tag}");
    assert_eq!(
        report.syncs,
        u64::from(STEPS),
        "{tag}: Θ = 0 syncs every round"
    );
    assert_eq!(
        report.measured_payload_bytes, report.charged_bytes,
        "{tag}: bytes measured on the socket != bytes charged"
    );
}

/// The version gate: a peer that frames correctly but announces protocol
/// v4 is turned away at the handshake with the version-mismatch error.
#[test]
fn v4_hello_is_rejected_at_the_handshake() {
    use fda::net::frame::write_frame;
    use fda::net::{Coordinator, FrameKind, Hello, NetError};

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let hello = Hello {
            version: 4,
            worker_id: 0,
            last_epoch: 0,
        };
        write_frame(&mut stream, 0, FrameKind::Hello, &hello.encode()).expect("send hello");
        // Hold the socket open until the coordinator has answered by
        // closing it.
        let _ = std::io::Read::read(&mut stream, &mut [0u8; 1]);
    });
    let err = coordinator
        .run(&spec(1, FdaConfig::linear(0.01)))
        .expect_err("a v4 peer must not be admitted");
    drop(coordinator);
    peer.join().expect("peer thread");
    match err {
        NetError::Protocol(what) => assert_eq!(
            what,
            format!(
                "worker 0 speaks protocol v4, coordinator v{}",
                fda::net::PROTOCOL_VERSION
            )
        ),
        other => panic!("expected the version-mismatch error, got {other}"),
    }
}
