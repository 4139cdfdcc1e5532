//! The traced run: layer replay, then the in-situ ledgers — where one
//! simulator step and one TCP round spend their time — closed against the
//! measured wall clock, with the gap reported instead of hidden.
//!
//! Inside a step or a round the bench cannot place its own spans (each is
//! one public call), so the split comes from the `fda_obs` histograms the
//! crates already feed; no span is added inside any crate. Those
//! histograms record whole microseconds, so sub-microsecond phases read
//! low and show up in the unattributed gap.

use crate::alloc::thread_allocs;
use crate::layers::{self, Metrics};
use crate::trace::Tracer;
use crate::workloads::{simulator, Kind, Scale, Workload};
use fda_core::cluster::Cluster;
use fda_core::harness::{run_to_target, RunConfig};
use fda_core::monitor::LocalState;
use fda_core::strategy::Strategy;
use fda_core::wire::JobSpec;
use fda_data::TaskData;
use fda_net::{MemberEvent, NetReport};
use fda_obs::{Histogram, RoundEvent};
use fda_tensor::stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sums of a set of `fda_obs` histograms, for before/after deltas.
struct HistSet(Vec<&'static Histogram>);

impl HistSet {
    fn new(names: &[&'static str]) -> HistSet {
        HistSet(
            names
                .iter()
                .map(|n| fda_obs::registry().histogram(n))
                .collect(),
        )
    }

    fn sums(&self) -> Vec<u64> {
        self.0.iter().map(|h| h.sum()).collect()
    }
}

/// Where per-run files go: the cargo target directory, so a checkout
/// stays clean.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("fda_bench")
}

/// `H(S̄)` over the exact variance it over-estimates, along an
/// unsynchronized drift: the median over samples taken every 10 local
/// steps. Independent of Θ, so it reads the monitor, not the schedule.
fn overestimate_ratio(job: &JobSpec, task: &TaskData, steps: usize) -> f64 {
    let mut cluster = Cluster::new(job.cluster.clone(), task);
    let monitor = job.fda.variant.build_monitor(cluster.dim());
    let w0 = cluster.worker(0).params();
    let mut drift = vec![0.0f32; w0.len()];
    let mut ratios = Vec::new();
    for step in 1..=steps {
        cluster.local_step();
        if step % 10 != 0 {
            continue;
        }
        let states: Vec<LocalState> = (0..cluster.workers())
            .map(|k| {
                fda_tensor::vector::sub_into(&cluster.worker(k).params(), &w0, &mut drift);
                monitor.local_state(&drift)
            })
            .collect();
        let exact = f64::from(cluster.exact_variance());
        if exact > 0.0 {
            ratios.push(f64::from(monitor.estimate(&LocalState::average(&states))) / exact);
        }
    }
    median(&ratios)
}

/// One simulator step, `steps` times, telemetry on: a bench-side span per
/// step with the three phase histograms' deltas recorded as its children.
fn sim_ledger(
    tr: &mut Tracer,
    m: &mut Metrics,
    job: &JobSpec,
    task: &TaskData,
    steps: usize,
    jsonl: &Path,
) -> std::io::Result<()> {
    use fda_core::fda::{HIST_ALLREDUCE_US, HIST_LOCAL_STEP_US, HIST_MONITOR_US};
    const CHILDREN: [&str; 3] = [
        "obs:fda_step_local_us",
        "obs:fda_step_monitor_us",
        "obs:fda_step_allreduce_us",
    ];
    let hists = HistSet::new(&[HIST_LOCAL_STEP_US, HIST_MONITOR_US, HIST_ALLREDUCE_US]);
    let mut fda = simulator(job, task);
    fda.set_telemetry(Some(fda_obs::JsonlWriter::create(jsonl)?));
    fda.step(); // sizes every scratch buffer
    let mut step_us = Vec::with_capacity(steps);
    let mut phase_us = [0.0f64; 3];
    let mut self_us = 0.0;
    let syncs_before = fda.syncs();
    for _ in 0..steps {
        let before = hists.sums();
        let id = tr.enter("core.fda.step");
        fda.step();
        tr.exit(id);
        let mut at = tr.start_ns(id);
        for (i, after) in hists.sums().into_iter().enumerate() {
            let us = after - before[i];
            phase_us[i] += us as f64;
            tr.record_under(id, CHILDREN[i], at, us * 1_000);
            at += us * 1_000;
        }
        step_us.push(tr.dur_us(id));
        self_us += tr.self_us(id);
    }
    let synced = fda.syncs() - syncs_before;
    fda.set_telemetry(None);

    let n = steps as f64;
    let wall_us: f64 = step_us.iter().sum();
    m.set("core.fda.monitor_us", phase_us[1] / n);
    m.set("core.fda.allreduce_us", phase_us[2] / n);
    m.set("core.fda.step_us_p50", median(&step_us));
    m.set("core.fda.step_us_p99", quantile(&step_us, 0.99));
    m.set("core.fda.step_samples", n);
    m.set("core.fda.attributed_frac", 1.0 - self_us / wall_us);
    m.set("core.fda.unattributed_us", self_us / n);
    m.set("core.fda.sync_rate", synced as f64 / n);
    Ok(())
}

/// `run_to_target`'s evaluation, replayed: global parameters, load, test
/// pass. The share is that cost times the evaluations of a short run over
/// the run's wall clock.
fn harness_ledger(tr: &mut Tracer, m: &mut Metrics, job: &JobSpec, task: &TaskData, reps: usize) {
    let mut fda = simulator(job, task);
    let mut eval_model = job.cluster.model.build(0, 0);
    let eval_us = tr.bench("core.harness.eval", reps.min(5), || {
        eval_model.load_params(&fda.global_params());
        std::hint::black_box(eval_model.evaluate_batched(
            task.test.features(),
            task.test.labels(),
            256,
        ));
    });
    m.set("core.harness.eval_us", eval_us);
    let cfg = RunConfig::to_target(f32::INFINITY, 100);
    let id = tr.enter("core.harness.run_to_target");
    let run = run_to_target(&mut fda, task, &cfg);
    tr.exit(id);
    m.set(
        "core.harness.eval_share",
        eval_us * run.trace.len() as f64 / tr.dur_us(id),
    );
}

struct TcpRun {
    report: NetReport,
    wall_us: f64,
    coordinator_allocs: u64,
}

fn tcp_run(job: &JobSpec, steps: u32, jsonl: Option<&Path>) -> Result<TcpRun, fda_net::NetError> {
    let job = JobSpec {
        steps,
        ..job.clone()
    };
    let allocs = thread_allocs();
    let t = Instant::now();
    let report = fda_net::run_with_thread_workers_telemetry(&job, jsonl)?;
    Ok(TcpRun {
        report,
        wall_us: t.elapsed().as_secs_f64() * 1e6,
        coordinator_allocs: thread_allocs() - allocs,
    })
}

/// One TCP round: the job at two lengths, telemetry on, differenced so
/// set-up cancels; the four transport histograms (fed by the coordinator
/// and the worker threads alike) over the long run; deposit waits from the
/// round-event JSONL.
///
/// The ledger is in thread-time: a round occupies K + 1 threads for
/// `net.round_us` each, and the leaves are the histogram sums, each
/// worker's replayed compute, and the coordinator's replayed decode and
/// reduce.
fn tcp_ledger(
    tr: &mut Tracer,
    m: &mut Metrics,
    job: &JobSpec,
    task: &TaskData,
    scale: Scale,
    jsonl: &Path,
) -> Result<(), fda_net::NetError> {
    // At most two workers: on this 2-core host more would time the scheduler.
    let mut job = job.clone();
    job.cluster.workers = job.cluster.workers.min(2);
    let k = job.cluster.workers as f64;
    let (short, long) = scale.pick((50, 350), (5, 25));

    let id = tr.enter("net.setup");
    tcp_run(&job, 1, None)?;
    tr.exit(id);
    m.set("net.setup.connect_ms", tr.dur_us(id) / 1e3);

    // Coordinator-thread allocations per steady-state round: the method of
    // `alloc_regression.rs` (Θ = ∞, slope over two run lengths, telemetry
    // off) on this job.
    let mut state_only = job.clone();
    state_only.fda.theta = f32::INFINITY;
    tcp_run(&state_only, 3, None)?; // metric registration, one-time init
    let (few, many) = (6, 30);
    let slope = tcp_run(&state_only, many, None)?
        .coordinator_allocs
        .saturating_sub(tcp_run(&state_only, few, None)?.coordinator_allocs);
    m.set(
        "net.coordinator.allocs_per_round",
        slope as f64 / f64::from(many - few),
    );

    // One worker's compute per round, replayed: the training step and the
    // local state.
    let mut worker = job.cluster.build_worker(&task.train, 0);
    let monitor = job.fda.variant.build_monitor(worker.model().param_count());
    let w_sync = worker.params();
    let (mut params, mut drift) = (w_sync.clone(), w_sync.clone());
    let mut state = monitor.local_state(&drift);
    let compute_us = tr.bench("net.worker.compute", scale.pick(15, 3), || {
        worker.step_once(&task.train);
        worker.model().copy_params_to(&mut params);
        fda_tensor::vector::sub_into(&params, &w_sync, &mut drift);
        monitor.local_state_into(&drift, &mut state);
    });

    fda_obs::set_enabled(true);
    let hists = HistSet::new(&[
        "net_frame_encode_us",
        "net_frame_decode_us",
        "net_socket_write_us",
        "net_socket_read_us",
    ]);
    let frames = fda_obs::registry().histogram("net_socket_write_us");
    let id = tr.enter("net.job.short");
    let short_run = tcp_run(&job, short, None);
    tr.exit(id);
    let (sums, frame_count) = (hists.sums(), frames.count());
    let id = tr.enter("net.job.long");
    let long_run = tcp_run(&job, long, Some(jsonl));
    tr.exit(id);
    let hist_us: Vec<f64> = hists
        .sums()
        .iter()
        .zip(&sums)
        .map(|(after, before)| (after - before) as f64)
        .collect();
    let frame_count = frames.count() - frame_count;
    fda_obs::set_enabled(false);
    let (short_run, long_run) = (short_run?, long_run?);

    let rounds = f64::from(long);
    let round_us = (long_run.wall_us - short_run.wall_us) / f64::from(long - short);
    let report = &long_run.report;
    m.set("net.round_us", round_us);
    m.set("net.transport_us", round_us - compute_us);
    m.set("net.transport_share", 1.0 - compute_us / round_us);
    m.set("net.frame.encode_us_per_round", hist_us[0] / rounds);
    m.set("net.frame.decode_us_per_round", hist_us[1] / rounds);
    m.set("net.socket.write_us_per_round", hist_us[2] / rounds);
    m.set("net.socket.read_wait_us_per_round", hist_us[3] / rounds);
    m.set("net.frames_per_round", frame_count as f64 / rounds);
    m.set(
        "net.raw_bytes_per_round",
        (report.raw_tx_bytes + report.raw_rx_bytes) as f64 / rounds,
    );
    m.set(
        "net.downlink_bytes_per_round",
        report.downlink_model_bytes as f64 / rounds,
    );
    let count = |pred: fn(&MemberEvent) -> bool| {
        report.events.iter().filter(|e| pred(&e.event)).count() as f64
    };
    m.set(
        "net.coordinator.drops",
        count(|e| matches!(e, MemberEvent::Dropped(_))),
    );
    m.set(
        "net.worker.reconnects",
        count(|e| matches!(e, MemberEvent::Joined { rejoin: true })),
    );

    // Thread-time ledger of the long run (its set-up is inside the
    // histogram sums and the wall clock alike). Besides the histograms the
    // leaves are the replayed per-call costs: every round each worker
    // trains and encodes its state and the coordinator decodes K states
    // and estimates; on a sync round each worker also encodes its model
    // and decodes the consensus, and the coordinator decodes K models,
    // averages them and encodes the (delta) downlink.
    let sync_rate = report.syncs as f64 / rounds;
    let downlink_us = if job.downlink.is_dense() {
        m.get("core.wire.encode_vector_us")
    } else {
        m.get("comm.delta_downlink_us")
    };
    let worker_us = compute_us
        + m.get("core.wire.encode_state_us")
        + sync_rate * (m.get("core.wire.encode_vector_us") + m.get("core.wire.decode_vector_us"));
    let coordinator_us = k * m.get("core.wire.decode_state_us")
        + m.get("core.monitor.estimate_us")
        + sync_rate
            * (k * m.get("core.wire.decode_vector_us")
                + m.get("comm.sim.allreduce_mean_us")
                + downlink_us);
    let attributed = hist_us.iter().sum::<f64>() / rounds + k * worker_us + coordinator_us;
    let thread_time = (k + 1.0) * long_run.wall_us / rounds;
    m.set("net.round.attributed_frac", attributed / thread_time);
    m.set("net.round.unattributed_us", thread_time - attributed);

    // Deposit waits: per round, how long the coordinator sat collecting
    // states, and how much of that came after the first worker's arrived.
    let mut waits = Vec::new();
    let mut skews = Vec::new();
    for line in fda_obs::read_jsonl(jsonl)? {
        let Ok(event) = RoundEvent::from_json(&line) else {
            continue; // the end-of-run summary line
        };
        let us: Vec<f64> = event.deposit_us.iter().map(|&(_, us)| us as f64).collect();
        waits.push(us.iter().sum());
        skews.push(us.iter().skip(1).sum());
    }
    m.set("net.coordinator.deposit_wait_us_p50", median(&waits));
    m.set(
        "net.coordinator.deposit_wait_us_p99",
        quantile(&waits, 0.99),
    );
    m.set("net.coordinator.deposit_skew_us", median(&skews));
    Ok(())
}

/// Steps per second of the workload's own driver with telemetry off and
/// on (registry live, round-event JSONL streaming), in back-to-back pairs
/// of passes of about a second each; the overhead is the median over the
/// pairs, so slow drift of the host cancels inside each pair. Returns the
/// overhead in percent and the JSONL bytes per round.
fn telemetry_overhead(
    workload: &Workload,
    job: &JobSpec,
    task: &TaskData,
    scale: Scale,
    jsonl: &Path,
) -> Result<(f64, f64), fda_net::NetError> {
    let steps = match workload.kind {
        Kind::SimTarget { .. } => scale.pick(600, 20),
        _ => scale.pick(job.steps / 2, job.steps),
    };
    let pass = |telemetry: bool| -> Result<f64, fda_net::NetError> {
        fda_obs::set_enabled(telemetry);
        let sink = telemetry.then_some(jsonl);
        let t;
        if workload.kind == Kind::Tcp {
            t = Instant::now();
            tcp_run(job, steps, sink)?;
        } else {
            let mut fda = simulator(job, task);
            if let Some(path) = sink {
                fda.set_telemetry(Some(fda_obs::JsonlWriter::create(path)?));
            }
            fda.step();
            t = Instant::now();
            for _ in 0..steps {
                fda.step();
            }
            fda.set_telemetry(None);
        }
        fda_obs::set_enabled(false);
        Ok(f64::from(steps) / t.elapsed().as_secs_f64())
    };
    let mut overhead_pct = Vec::new();
    for _ in 0..scale.pick(7, 1) {
        let (off, on) = (pass(false)?, pass(true)?);
        overhead_pct.push((off / on - 1.0) * 100.0);
    }
    let bytes = std::fs::metadata(jsonl)?.len() as f64;
    Ok((median(&overhead_pct), bytes / f64::from(steps)))
}

/// What a traced run leaves behind.
pub struct TracedRun {
    /// `(name, value)` for every metric of `spec::PER_LAYER`, in order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The span file it wrote.
    pub trace_file: PathBuf,
}

/// The traced run of one workload.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    scale: Scale,
) -> Result<TracedRun, fda_net::NetError> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let jsonl = dir.join(format!("{}.rounds.jsonl", workload.name));
    let job = workload.job(seed, scale);
    let task = job.synth.generate(&job.task_name);
    let reps = scale.pick(15, 3);

    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    layers::replay_compute(&mut tr, &mut m, &job, &task, reps);
    layers::replay_transport(&mut tr, &mut m, &job, reps)?;
    m.set(
        "core.monitor.overestimate_ratio",
        overestimate_ratio(&job, &task, scale.pick(100, 20)),
    );
    harness_ledger(&mut tr, &mut m, &job, &task, reps);

    fda_obs::set_enabled(true);
    let ledger = sim_ledger(&mut tr, &mut m, &job, &task, scale.pick(400, 20), &jsonl);
    fda_obs::set_enabled(false);
    ledger?;
    tcp_ledger(&mut tr, &mut m, &job, &task, scale, &jsonl)?;

    let (overhead_pct, jsonl_bytes) = telemetry_overhead(workload, &job, &task, scale, &jsonl)?;
    m.set("obs.trace_overhead_pct", overhead_pct);
    m.set("obs.jsonl_bytes_per_round", jsonl_bytes);

    let trace_file = dir.join(format!("{}.trace.jsonl", workload.name));
    tr.write_jsonl(&trace_file, workload.name)?;
    Ok(TracedRun {
        metrics: m.in_spec_order(),
        trace_file,
    })
}
