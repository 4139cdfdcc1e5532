//! Telemetry acceptance suite for the `fda_obs` round-event stream.
//!
//! Three claims:
//!
//! 1. A K = 4 **spawned-process** chaos run with `--telemetry` emits one
//!    round event per FDA round whose per-kind byte fields *reconcile*:
//!    summed over rounds they equal the coordinator's cumulative measured
//!    total, which equals the charged total — and the drop records match
//!    the `NetReport` membership buckets exactly.
//! 2. The sequential simulator emits a **schema-identical** stream for the
//!    same job: same keys, same order, same JSON types per event kind —
//!    only the `source` field differs. Every baseline writes that schema
//!    too, with a `null` estimate and Θ, and re-attaching a stream
//!    finishes the one it replaces.
//! 3. `fda_node demo` prints the schema's one-line `"run"` record on
//!    stdout; this is the parse-don't-regex regression test for the run
//!    report.

#[path = "../crates/net/tests/in_memory/mod.rs"]
mod in_memory;
mod relay;

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig};
use fda::core::strategy::Strategy;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{FrameKind, MemberEvent, RoundPolicy};
use fda::obs::{read_jsonl, Json, JsonlWriter, RoundEvent, RunEvent, SCHEMA_VERSION};
use fda::optim::OptimizerKind;
use in_memory::{Action, Fault};
use std::path::PathBuf;
use std::time::Duration;

fn spec(k: usize, steps: u32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda: FdaConfig::linear(0.01),
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "obs-telemetry".to_string(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fda_obs_{}_{name}.jsonl", std::process::id()))
}

/// Splits a parsed stream into (round events, the single trailing run
/// event), failing on anything malformed.
fn split_stream(lines: &[Json]) -> (Vec<RoundEvent>, RunEvent) {
    assert!(lines.len() >= 2, "stream needs rounds + a run summary");
    let (last, rounds) = lines.split_last().expect("non-empty");
    let rounds = rounds
        .iter()
        .map(|l| RoundEvent::from_json(l).expect("round event parses"))
        .collect();
    let run = RunEvent::from_json(last).expect("run event parses");
    (rounds, run)
}

fn keys(v: &Json) -> Vec<String> {
    v.as_obj()
        .expect("events are objects")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn type_tag(v: &Json) -> &'static str {
    match v {
        Json::Null => "null-or-num", // non-finite floats serialize as null
        Json::Bool(_) => "bool",
        Json::Num(_) => "null-or-num",
        Json::Str(_) => "str",
        Json::Arr(_) => "arr",
        Json::Obj(_) => "obj",
    }
}

/// Line by line, `a` and `b` have the same keys in the same order and the
/// same JSON types; their `source` fields read `sources`.
fn assert_same_schema(a: &[Json], b: &[Json], sources: (&str, &str)) {
    assert_eq!(a.len(), b.len(), "stream lengths diverge");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(keys(x), keys(y), "line {i}: key set/order diverged");
        for ((key, xv), (_, yv)) in x.as_obj().unwrap().iter().zip(y.as_obj().unwrap()) {
            if key == "source" {
                assert_eq!(xv.as_str(), Some(sources.0));
                assert_eq!(yv.as_str(), Some(sources.1));
                continue;
            }
            assert_eq!(
                type_tag(xv),
                type_tag(yv),
                "line {i} key {key:?}: JSON type diverged"
            );
        }
    }
}

/// Steps `sim` `steps` times with a telemetry stream attached, and returns
/// the stream.
fn sim_stream(sim: &mut Fda, steps: u32, name: &str) -> Vec<Json> {
    let path = temp_path(name);
    let writer = JsonlWriter::create(&path).expect("sim sink");
    assert!(
        sim.set_telemetry(Some(writer)),
        "{} accepts telemetry",
        sim.name()
    );
    for _ in 0..steps {
        sim.step();
    }
    assert!(sim.set_telemetry(None), "detach flushes the run summary");
    let lines = read_jsonl(&path).expect("sim stream");
    std::fs::remove_file(&path).ok();
    lines
}

/// The simulator's ledger reconciles on its own terms: one round event
/// per step, per-round bytes summing to the run's charged total, which is
/// the simulator's (measured == charged by construction).
fn sim_ledger(lines: &[Json], sim: &Fda, steps: u32) -> (Vec<RoundEvent>, RunEvent) {
    let (rounds, run) = split_stream(lines);
    assert_eq!(rounds.len(), steps as usize);
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    assert_eq!(summed, run.charged_bytes, "sim per-round bytes must sum");
    assert!(
        run.measured_equals_charged(),
        "sim measures what it charges"
    );
    assert_eq!(run.charged_bytes, sim.comm_bytes(), "ledger != simulator");
    let workers = sim.cluster().workers() as u32;
    for r in &rounds {
        assert_eq!(r.source, "sim");
        assert_eq!(r.epoch, 1, "sim has no membership churn");
        assert_eq!(r.alive, workers);
        assert!(r.deposit_us.is_empty() && r.drops.is_empty());
    }
    (rounds, run)
}

/// K = 4 spawned `fda_node` processes, one link cut mid-frame by the
/// fault relay, telemetry on: the JSONL byte ledger must reconcile with
/// the coordinator's report and the drop records must match the
/// membership buckets.
#[test]
fn k4_faulted_process_run_round_events_reconcile() {
    let spec = spec(4, 8);
    let faults = [Fault {
        worker: 2,
        round: 4,
        kind: FrameKind::Drift,
        action: Action::Disconnect,
    }];
    let policy = RoundPolicy {
        min_workers: 2,
        deposit_timeout: Duration::from_secs(10),
        admissions: Vec::new(),
    };
    let path = temp_path("k4_faulted");

    let report = relay::run_relayed(&spec, &policy, &faults, Some(&path))
        .expect("chaos run survives one death");

    let lines = read_jsonl(&path).expect("telemetry stream readable");
    std::fs::remove_file(&path).ok();
    let (rounds, run) = split_stream(&lines);
    assert_eq!(rounds.len(), spec.steps as usize, "one event per round");

    // Byte reconciliation: per-round frame-kind bytes sum to the
    // cumulative measured total, which equals the charged total.
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    let last = rounds.last().expect("rounds");
    assert_eq!(
        summed, last.measured_bytes,
        "per-round bytes must sum to the ledger"
    );
    assert_eq!(
        last.measured_bytes, last.charged_bytes,
        "measured != charged"
    );
    assert_eq!(run.charged_bytes, report.charged_bytes);
    assert_eq!(run.measured_payload_bytes, report.measured_payload_bytes);
    assert_eq!(summed, report.measured_payload_bytes, "JSONL != NetReport");
    assert!(run.measured_equals_charged());

    // Cumulative fields are monotone and rounds are 1-based in order.
    for (i, pair) in rounds.windows(2).enumerate() {
        assert_eq!(pair[0].round, i as u32 + 1);
        assert!(pair[1].charged_bytes >= pair[0].charged_bytes);
        assert!(pair[1].measured_bytes >= pair[0].measured_bytes);
    }

    // Drop records match the NetReport membership buckets exactly.
    let report_drops: Vec<(u32, u32, String)> = report
        .events
        .iter()
        .filter_map(|e| match e.event {
            MemberEvent::Dropped(r) => Some((e.round, e.worker, r.as_str().to_string())),
            MemberEvent::Joined { .. } => None,
        })
        .collect();
    let jsonl_drops: Vec<(u32, u32, String)> = rounds
        .iter()
        .flat_map(|r| {
            r.drops
                .iter()
                .map(move |d| (r.round - 1, d.worker, d.reason.clone()))
        })
        .collect();
    assert_eq!(jsonl_drops, report_drops, "drop buckets diverged");
    assert!(
        jsonl_drops.iter().any(|(_, w, _)| *w == 2),
        "the loss of worker 2 must be recorded"
    );

    // The faulted round carries the shrunken quorum and a bumped epoch.
    assert_eq!(rounds[0].alive, 4);
    assert_eq!(rounds.last().expect("rounds").alive, 3);
    assert!(rounds.last().expect("rounds").epoch > rounds[0].epoch);

    // Deposit latencies: one pair per alive worker, ids in range.
    for r in &rounds {
        assert_eq!(r.deposit_us.len() as u32, r.alive);
        assert!(r.deposit_us.iter().all(|(w, _)| *w < 4));
    }

    // Run summary mirrors the report.
    assert_eq!(run.source, "net");
    assert_eq!(run.survivors, report.survivors);
    assert_eq!(run.syncs, report.syncs);
    assert_eq!(run.membership.len(), report.events.len());
    let decisions: String = report
        .decisions
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect();
    assert_eq!(run.decisions, decisions);
}

/// The simulator's stream for the same job must be schema-identical to
/// the net stream: same keys in the same order per event kind, and its
/// own ledger must reconcile (measured == charged by construction).
#[test]
fn simulator_stream_is_schema_identical_to_net_stream() {
    let spec = spec(4, 8);

    // Net side: thread workers keep this test cheap; schema is what the
    // spawned test above already validated.
    let net_path = temp_path("schema_net");
    fda::net::run_with_thread_workers_telemetry(&spec, Some(&net_path)).expect("net run");
    let net_lines = read_jsonl(&net_path).expect("net stream");
    std::fs::remove_file(&net_path).ok();

    // Sim side: the same job stepped through the sequential simulator.
    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let sim_lines = sim_stream(&mut sim, spec.steps, "schema_sim");

    assert_same_schema(&sim_lines, &net_lines, ("sim", "net"));
    sim_ledger(&sim_lines, &sim, spec.steps);
}

/// The simulator and the socket coordinator agree, round by round, on
/// which rounds the drift scalars settled (`certified`), and on their
/// decisions, estimates and state bytes — which on a certified round are
/// the 4-byte scalar per worker, K′·4. The `fda_certified_rounds` counter
/// counts every certified round.
#[test]
fn simulator_and_net_streams_agree_on_certified_rounds() {
    let spec = JobSpec {
        fda: FdaConfig::sketch_auto(0.05),
        ..spec(3, 24)
    };
    fda::obs::set_enabled(true);
    let counter = fda::obs::registry().counter("fda_certified_rounds");
    let before = counter.get();
    let net_path = temp_path("certified_net");
    fda::net::run_with_thread_workers_telemetry(&spec, Some(&net_path)).expect("net run");
    let net_lines = read_jsonl(&net_path).expect("net stream");
    std::fs::remove_file(&net_path).ok();
    let (net_rounds, _) = split_stream(&net_lines);

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let sim_lines = sim_stream(&mut sim, spec.steps, "certified_sim");
    let (sim_rounds, _) = sim_ledger(&sim_lines, &sim, spec.steps);

    let certified = sim_rounds.iter().filter(|r| r.certified).count() as u64;
    assert!(
        certified > 0 && certified < u64::from(spec.steps),
        "the run mixes certified and phase-B rounds ({certified})"
    );
    for (s, n) in sim_rounds.iter().zip(&net_rounds) {
        let round = s.round;
        assert_eq!(s.certified, n.certified, "round {round}: certified");
        assert_eq!(s.decision, n.decision, "round {round}: decision");
        assert_eq!(
            s.estimate.to_bits(),
            n.estimate.to_bits(),
            "round {round}: estimate"
        );
        assert_eq!(s.state_bytes, n.state_bytes, "round {round}: state bytes");
        if s.certified {
            assert!(!s.decision, "round {round}: a certified round syncs");
            assert_eq!(s.state_bytes, u64::from(s.alive) * 4, "round {round}");
        }
    }
    assert!(
        counter.get() >= before + 2 * certified,
        "both runs count their certified rounds"
    );
}

/// Every baseline writes the FDA stream's schema: the same keys and JSON
/// types, with a `null` estimate and Θ and no state bytes, a ledger that
/// reconciles, and the baseline's display name as the run's variant.
#[test]
fn baseline_streams_are_schema_identical_to_the_fda_stream() {
    let spec = spec(4, 8);
    let task = spec.synth.generate(&spec.task_name);
    let mut fda = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let fda_lines = sim_stream(&mut fda, spec.steps, "baseline_fda");
    let baselines = [
        Fda::synchronous(spec.cluster.clone(), &task),
        Fda::fedavgm(1, spec.cluster.clone(), &task),
    ];
    for mut sim in baselines {
        let name = sim.name();
        let lines = sim_stream(&mut sim, spec.steps, &name);
        assert_same_schema(&lines, &fda_lines, ("sim", "sim"));
        let (run_line, round_lines) = lines.split_last().expect("stream");
        let thresholds = round_lines
            .iter()
            .flat_map(|l| [(l, "estimate"), (l, "theta")]);
        for (line, key) in thresholds.chain([(run_line, "theta")]) {
            let v = line.as_obj().unwrap().iter().find(|(k, _)| k == key);
            assert!(matches!(v, Some((_, Json::Null))), "{name}: {key} is null");
        }
        let (rounds, run) = sim_ledger(&lines, &sim, spec.steps);
        assert!(rounds.iter().all(|r| r.state_bytes == 0), "{name}");
        assert_eq!(run.variant, name);
        assert_eq!(run.syncs, sim.syncs(), "{name}");
    }
    assert!(
        fda.syncs() > 0 && fda.syncs() < u64::from(spec.steps),
        "the FDA stream mixes quiet and synchronizing rounds"
    );
    let cluster = || spec.cluster.clone();
    for mut sim in [
        Fda::local_sgd(3, cluster(), &task),
        Fda::fedadam(1, cluster(), &task),
        Fda::fedopt(
            "FedAvg",
            OptimizerKind::Sgd { lr: 1.0 },
            1,
            cluster(),
            &task,
        ),
    ] {
        assert!(sim.set_telemetry(None), "{} emits telemetry", sim.name());
    }
}

/// Attaching a stream over an attached one finishes the first: its run
/// record is written, and the second stream starts at round 1.
#[test]
fn reattaching_telemetry_finishes_the_first_stream() {
    let spec = spec(2, 3);
    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let (path_a, path_b) = (temp_path("reattach_a"), temp_path("reattach_b"));
    assert!(sim.set_telemetry(Some(JsonlWriter::create(&path_a).expect("sink A"))));
    sim.step();
    sim.step();
    assert!(sim.set_telemetry(Some(JsonlWriter::create(&path_b).expect("sink B"))));
    sim.step();
    assert!(sim.set_telemetry(None));
    let (a, b) = (read_jsonl(&path_a), read_jsonl(&path_b));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    let (rounds, run) = split_stream(&a.expect("stream A"));
    assert_eq!(rounds.iter().map(|r| r.round).collect::<Vec<_>>(), [1, 2]);
    assert_eq!(run.steps, 2, "stream A's run record");
    let (rounds, run) = split_stream(&b.expect("stream B"));
    assert_eq!(rounds.iter().map(|r| r.round).collect::<Vec<_>>(), [1]);
    assert_eq!(run.steps, 1, "stream B's run record");
}

/// `fda_node demo` prints the one-line `"run"` record on stdout — parse
/// it (never regex it) and check the load-bearing fields.
#[test]
fn node_demo_prints_parseable_run_report() {
    let node_bin = env!("CARGO_BIN_EXE_fda_node");
    let tele_path = temp_path("demo");
    let out = std::process::Command::new(node_bin)
        .args([
            "demo",
            "--workers",
            "2",
            "--steps",
            "4",
            "--variant",
            "linear",
            "--theta",
            "0.01",
            "--train",
            "240",
            "--test",
            "80",
            "--telemetry",
        ])
        .arg(&tele_path)
        .args(["--metrics-addr", "127.0.0.1:0"])
        .output()
        .expect("fda_node demo runs");
    assert!(
        out.status.success(),
        "demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let line = stdout.lines().last().expect("a report line");
    let parsed = fda::obs::json::parse(line).expect("report is valid JSON");
    assert_eq!(parsed.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    let run = RunEvent::from_json(&parsed).expect("report is a run event");
    assert_eq!(run.source, "net");
    assert_eq!(run.workers, 2);
    assert_eq!(run.steps, 4);
    assert_eq!(run.variant, "LinearFDA");
    assert_eq!(run.codec, "dense-f32");
    assert_eq!(run.decisions.len(), 4);
    assert!(run.measured_equals_charged());
    assert_eq!(run.survivors, vec![0, 1]);
    assert_eq!(run.membership.len(), 2, "two joins, no drops");

    // The demo's --telemetry stream reconciles too.
    let lines = read_jsonl(&tele_path).expect("demo telemetry stream");
    std::fs::remove_file(&tele_path).ok();
    let (rounds, tele_run) = split_stream(&lines);
    assert_eq!(rounds.len(), 4);
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    assert_eq!(summed, tele_run.measured_payload_bytes);
    assert_eq!(
        tele_run.to_json().to_string(),
        line,
        "stdout == stream tail"
    );
}

/// `--model transfer` trains on its own Table 2 task (100 classes over 128
/// features), where every worker used to panic on a 144-wide image task.
#[test]
fn node_demo_runs_the_transfer_head_on_its_own_task() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fda_node"))
        .args([
            "demo",
            "--model",
            "transfer",
            "--workers",
            "2",
            "--steps",
            "3",
        ])
        .output()
        .expect("fda_node demo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "demo failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let report = fda::obs::json::parse(stdout.lines().last().expect("a report line"));
    let run = RunEvent::from_json(&report.expect("valid JSON")).expect("a run event");
    assert!(run.measured_equals_charged());
    assert_eq!((run.steps, run.survivors), (3, vec![0, 1]));
}
