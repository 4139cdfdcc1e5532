//! The four workloads and their end-to-end measurement.
//!
//! Every workload is one [`JobSpec`] made from the seed; the program under
//! test receives nothing else. A run repeats the workload's *unit* — a TCP
//! job, a simulator rep, or a pass of six to-target runs — until the time
//! budget is spent, and reports medians over the units.

use crate::checks::{self, Trajectory};
use fda_comm::{CodecSpec, DownlinkSpec};
use fda_core::baselines::Synchronous;
use fda_core::cluster::ClusterConfig;
use fda_core::experiments::spec_for;
use fda_core::fda::{Fda, FdaConfig};
use fda_core::harness::{run_to_target, RunConfig};
use fda_core::strategy::Strategy;
use fda_core::wire::JobSpec;
use fda_data::synth::SynthSpec;
use fda_data::{Partition, TaskData};
use fda_nn::zoo::ModelId;
use fda_tensor::stats::median;
use std::time::Instant;

/// What a workload repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A pass of six `run_to_target` runs: SketchFDA, LinearFDA and
    /// Synchronous, each on an IID and a label-skewed partition, to these
    /// accuracy targets.
    SimTarget { iid: f32, label_skew: f32 },
    /// `steps` steps of the sequential simulator.
    SimFixed,
    /// One job over loopback TCP with thread workers.
    Tcp,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    model: ModelId,
    workers: usize,
    fda: FdaConfig,
    codec: CodecSpec,
    downlink: DownlinkSpec,
    /// Rounds per TCP job, steps per simulator rep, or the step cap of one
    /// to-target run.
    steps: u32,
}

const UNIFORM8: CodecSpec = CodecSpec::Uniform8 { chunk: 256 };

/// Units per cycle. A run with `--seed s` gives unit `i` the next unused
/// seed(s) from `s` upwards and starts over after one cycle. Counts that
/// depend on the seed (hitting times, sync counts, accuracies) are averaged
/// over one cycle. A to-target run's hitting time varies by about 20 % from
/// seed to seed, so that workload gets as many seeds as its time budget
/// holds: two per pass, eight per cycle.
const TARGET_CYCLE: usize = 4;
const FIXED_CYCLE: usize = 3;

/// The label-skew partition of the to-target workload.
const LABEL_SKEW: Partition = Partition::NonIidLabel(0);

pub fn all() -> [Workload; 4] {
    [
        Workload {
            name: "sim-target-lenet",
            // IID plateaus at 0.92-0.94 and label-skew at 0.83-0.92 under
            // seeds 1-5; 0.85 / 0.75 sit on the steep part of both curves,
            // where the hitting time varies least with the seed and every
            // run reaches its target in under a third of the cap.
            kind: Kind::SimTarget {
                iid: 0.85,
                label_skew: 0.75,
            },
            model: ModelId::Lenet5,
            workers: 4,
            fda: FdaConfig::sketch_auto(0.05),
            codec: CodecSpec::Dense,
            downlink: DownlinkSpec::Dense,
            steps: 2000,
        },
        Workload {
            name: "tcp-sync-head",
            kind: Kind::Tcp,
            model: ModelId::TransferHead,
            workers: 2,
            fda: FdaConfig::sketch_auto(0.0),
            codec: CodecSpec::Dense,
            downlink: DownlinkSpec::Dense,
            steps: 1000,
        },
        Workload {
            name: "tcp-fda-lenet",
            kind: Kind::Tcp,
            model: ModelId::Lenet5,
            workers: 2,
            fda: FdaConfig::sketch_auto(0.05),
            codec: UNIFORM8,
            downlink: DownlinkSpec::Delta { codec: UNIFORM8 },
            steps: 4000,
        },
        Workload {
            name: "sim-coded-head",
            kind: Kind::SimFixed,
            model: ModelId::TransferHead,
            workers: 4,
            fda: FdaConfig::sketch_auto(0.0),
            codec: UNIFORM8,
            downlink: DownlinkSpec::Delta { codec: UNIFORM8 },
            steps: 500,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Rep counts: the real ones, or tiny ones for the contract test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

impl Workload {
    /// The workload's job for `seed`, which perturbs the synthetic-data
    /// seed and the cluster seed and nothing else.
    pub fn job(&self, seed: u64, scale: Scale) -> JobSpec {
        let row = spec_for(self.model);
        let base = match self.model {
            ModelId::TransferHead => SynthSpec::synth_cifar100_features(),
            _ => SynthSpec::synth_mnist(),
        };
        JobSpec {
            cluster: ClusterConfig {
                model: self.model,
                workers: self.workers,
                batch_size: row.batch,
                optimizer: row.optimizer,
                partition: Partition::Iid,
                seed,
                parallel: false,
            },
            fda: self.fda,
            codec: self.codec,
            downlink: self.downlink,
            steps: scale.pick(self.steps, self.steps / 20),
            synth: SynthSpec {
                seed: base.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..base
            },
            task_name: self.name.to_string(),
        }
    }
}

/// The sequential simulator configured as the socket runs `job` (codec and
/// downlink mirrored) — the reference of the bit-identity invariant.
pub fn simulator(job: &JobSpec, task: &TaskData) -> Fda {
    let mut fda = Fda::new(job.fda, job.cluster.clone(), task);
    fda.set_codec(job.codec);
    fda.set_downlink(job.downlink);
    fda
}

/// Test accuracy of `params` loaded into a fresh `model`.
pub fn test_accuracy(model: ModelId, params: &[f32], task: &TaskData) -> f64 {
    let mut m = model.build(0, 0);
    m.load_params(params);
    f64::from(m.evaluate_batched(task.test.features(), task.test.labels(), 256))
}

/// What Synchronous charges for `steps` steps of `job`: one dense model
/// AllReduce per step.
fn synchronous_bytes(job: &JobSpec, dim: usize, steps: u64) -> u64 {
    let mut net = fda_comm::SimNetwork::new(job.cluster.workers);
    net.charge_allreduce(dim as u64 * 4);
    net.total_bytes() * steps
}

/// One repetition of a workload.
#[derive(Default)]
struct Unit {
    /// Wall seconds of the timed region and the in-parallel steps in it.
    wall_s: f64,
    steps: u64,
    /// Cost of the FDA runs up to the workload's end point: the accuracy
    /// target for a to-target pass, the last round otherwise.
    target_wall_s: f64,
    target_steps: u64,
    target_bytes: u64,
    /// What Synchronous charges to reach the same end point.
    synchronous_bytes: u64,
    /// Every byte that moved for `target_bytes` charged ones (framing and
    /// downlink included; the simulator moves exactly what it charges).
    raw_bytes: u64,
    final_test_acc: f64,
    digest: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn tcp_unit(job: &JobSpec, task: &TaskData) -> Unit {
    let t = Instant::now();
    let result = fda_net::run_with_thread_workers(job);
    let wall_s = t.elapsed().as_secs_f64();
    let steps = u64::from(job.steps);
    let mut unit = Unit {
        wall_s,
        steps,
        target_wall_s: wall_s,
        target_steps: steps,
        attempted: steps,
        ..Unit::default()
    };
    match result {
        Ok(report) => {
            unit.failures = checks::report_violations(job, &report);
            unit.target_bytes = report.charged_bytes;
            unit.synchronous_bytes = synchronous_bytes(job, report.final_params.len(), steps);
            unit.raw_bytes = report.raw_tx_bytes + report.raw_rx_bytes;
            unit.final_test_acc = test_accuracy(job.cluster.model, &report.final_params, task);
            unit.digest = checks::digest(report.worker_params.iter().map(Vec::as_slice));
        }
        Err(e) => unit.failures.push(format!("tcp job failed: {e}")),
    }
    unit
}

fn sim_fixed_unit(job: &JobSpec, task: &TaskData) -> Unit {
    let mut fda = simulator(job, task);
    let t = Instant::now();
    for _ in 0..job.steps {
        fda.step();
    }
    let wall_s = t.elapsed().as_secs_f64();
    let steps = u64::from(job.steps);
    let params = fda.global_params();
    let mut failures = Vec::new();
    if !fda_tensor::vector::all_finite(&params) {
        failures.push("non-finite global parameters".to_string());
    }
    Unit {
        wall_s,
        steps,
        target_wall_s: wall_s,
        target_steps: steps,
        target_bytes: fda.comm_bytes(),
        synchronous_bytes: synchronous_bytes(job, params.len(), steps),
        raw_bytes: fda.comm_bytes(),
        final_test_acc: test_accuracy(job.cluster.model, &params, task),
        digest: checks::digest([params.as_slice()]),
        attempted: steps,
        failures,
    }
}

/// Six to-target runs: the three strategies on the IID partition of one
/// seed's job, then on the label-skew partition of the next seed's. Two
/// seeds per pass, because the hitting time depends far more on the seed
/// (initialization, data) than on the strategy; a strategy is compared
/// with the Synchronous run that shares its seed.
fn sim_target_unit(inputs: &[(JobSpec, TaskData)], iid: f32, label_skew: f32) -> Unit {
    let mut unit = Unit::default();
    let cases = [(Partition::Iid, iid), (LABEL_SKEW, label_skew)];
    for ((partition, target), (job, task)) in cases.into_iter().zip(inputs) {
        let cluster = ClusterConfig {
            partition,
            ..job.cluster.clone()
        };
        let linear = FdaConfig::linear(job.fda.theta);
        let strategies: [(Box<dyn Strategy>, bool); 3] = [
            (Box::new(Fda::new(job.fda, cluster.clone(), task)), true),
            (Box::new(Fda::new(linear, cluster.clone(), task)), true),
            (Box::new(Synchronous::new(cluster, task)), false),
        ];
        let cfg = RunConfig::to_target(target, u64::from(job.steps));
        for (mut strategy, is_fda) in strategies {
            let t = Instant::now();
            let run = run_to_target(strategy.as_mut(), task, &cfg);
            let wall_s = t.elapsed().as_secs_f64();
            unit.wall_s += wall_s;
            unit.steps += run.steps;
            unit.attempted += 1;
            if is_fda {
                unit.target_wall_s += wall_s;
                unit.target_steps += run.steps;
                unit.target_bytes += run.comm_bytes;
            } else {
                // Two FDA variants share each Synchronous baseline.
                unit.synchronous_bytes += 2 * run.comm_bytes;
            }
            if !run.reached {
                unit.failures.push(format!(
                    "{} on {} stopped at {:.3}, short of {target}",
                    run.strategy,
                    partition.label(),
                    run.best_test_acc
                ));
            }
            unit.final_test_acc += f64::from(run.trace.last().map_or(0.0, |p| p.test_acc)) / 6.0;
            unit.digest ^= checks::digest([strategy.global_params().as_slice()])
                .rotate_left(unit.attempted as u32);
        }
    }
    unit.raw_bytes = unit.target_bytes;
    unit
}

/// `a / b`, or 0 when a failed unit left `b` at 0 (the run is already
/// incorrect; the metric only has to stay a number).
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Min, max and count of the samples behind one reported median.
pub struct Dispersion {
    pub name: &'static str,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn dispersion(name: &'static str, xs: &[f64]) -> Dispersion {
    Dispersion {
        name,
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: xs.len(),
    }
}

/// The result of one untraced run.
pub struct EndToEndRun {
    /// `(name, value)` for every metric of `spec::END_TO_END`, in order.
    pub metrics: Vec<(&'static str, f64)>,
    pub dispersion: Vec<Dispersion>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up cost, `reps` times: data generation plus strategy construction
/// for a simulator workload; a whole one-round job for a TCP workload
/// (bind, connect, config frame, per-worker data generation, final-model
/// collection).
fn setup_samples(kind: Kind, job: &JobSpec, reps: usize) -> Vec<f64> {
    let one_round = JobSpec {
        steps: 1,
        ..job.clone()
    };
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            match kind {
                Kind::Tcp => {
                    // A failure here fails the timed jobs too, where it is counted.
                    let _ = std::hint::black_box(fda_net::run_with_thread_workers(&one_round));
                }
                _ => {
                    let task = job.synth.generate(&job.task_name);
                    std::hint::black_box(simulator(job, &task));
                }
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The run-once output checks: TCP and the sequential simulator retrace
/// each other bit for bit over a prefix of the job; two simulator runs of
/// one seed are identical.
fn prefix_checks(kind: Kind, job: &JobSpec, task: &TaskData, scale: Scale) -> Vec<String> {
    let prefix = JobSpec {
        steps: scale.pick(300, 20).min(job.steps),
        ..job.clone()
    };
    let reference = Trajectory::of_simulator(&mut simulator(&prefix, task), prefix.steps);
    match kind {
        Kind::Tcp => match fda_net::run_with_thread_workers(&prefix) {
            Ok(report) => checks::trajectory_mismatches(
                "tcp vs sequential simulator",
                &Trajectory::of_report(&report),
                &reference,
            ),
            Err(e) => vec![format!("parity prefix failed: {e}")],
        },
        _ => {
            let again = Trajectory::of_simulator(&mut simulator(&prefix, task), prefix.steps);
            checks::trajectory_mismatches("simulator, same seed twice", &again, &reference)
        }
    }
}

/// Runs `workload` untraced for about `seconds` (always at least one full
/// cycle of units) and reduces the units to the end-to-end metrics.
pub fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64, scale: Scale) -> EndToEndRun {
    let kind = workload.kind;
    let cycle = match kind {
        Kind::SimTarget { .. } => scale.pick(TARGET_CYCLE, 1),
        _ => scale.pick(FIXED_CYCLE, 1),
    };
    let seeds_per_unit = match kind {
        Kind::SimTarget { .. } => 2,
        _ => 1,
    };
    let inputs: Vec<(JobSpec, TaskData)> = (0..(cycle * seeds_per_unit) as u64)
        .map(|i| {
            let job = workload.job(seed + i, scale);
            let task = job.synth.generate(&job.task_name);
            (job, task)
        })
        .collect();

    let (job, task) = &inputs[0];
    let setup = setup_samples(kind, job, scale.pick(15, 3));
    let mut failures = prefix_checks(kind, job, task, scale);
    let mut attempted = 1u64;

    let mut units: Vec<Unit> = Vec::new();
    let started = Instant::now();
    while units.len() < cycle || started.elapsed().as_secs_f64() < seconds {
        let i = units.len() % cycle;
        let mine = &inputs[i * seeds_per_unit..(i + 1) * seeds_per_unit];
        let unit = match kind {
            Kind::Tcp => tcp_unit(&mine[0].0, &mine[0].1),
            Kind::SimFixed => sim_fixed_unit(&mine[0].0, &mine[0].1),
            // The smoke target (chance is 0.10) is reached within the
            // shortened step cap.
            Kind::SimTarget { iid, label_skew } => {
                sim_target_unit(mine, scale.pick(iid, 0.15), scale.pick(label_skew, 0.15))
            }
        };
        // A repeat of a seed must retrace its first run exactly.
        if let Some(first) = units.get(i) {
            attempted += 1;
            if (unit.digest, unit.target_steps, unit.target_bytes)
                != (first.digest, first.target_steps, first.target_bytes)
            {
                failures.push(format!("unit {} differs from unit {i}", units.len()));
            }
        }
        units.push(unit);
    }
    for unit in &mut units {
        attempted += unit.attempted;
        failures.append(&mut unit.failures);
    }

    // Counts are the mean over the first cycle only, so they do not depend
    // on how many repeats the time budget allowed.
    let over_cycle =
        |f: &dyn Fn(&Unit) -> f64| units[..cycle].iter().map(f).sum::<f64>() / cycle as f64;
    let steps_per_s: Vec<f64> = units.iter().map(|u| u.steps as f64 / u.wall_s).collect();
    // Units of different seeds take different times: median over each
    // seed's repeats first, then the mean across seeds, as for the counts.
    let time_to_target: Vec<f64> = (0..cycle)
        .map(|i| {
            let repeats: Vec<f64> = units
                .iter()
                .skip(i)
                .step_by(cycle)
                .map(|u| u.target_wall_s)
                .collect();
            median(&repeats)
        })
        .collect();

    let metrics = vec![
        ("setup_s", median(&setup)),
        ("steps_per_s", median(&steps_per_s)),
        (
            "time_to_target_s",
            time_to_target.iter().sum::<f64>() / cycle as f64,
        ),
        ("bytes_to_target", over_cycle(&|u| u.target_bytes as f64)),
        ("steps_to_target", over_cycle(&|u| u.target_steps as f64)),
        (
            "bytes_vs_synchronous",
            over_cycle(&|u| ratio(u.target_bytes, u.synchronous_bytes)),
        ),
        (
            "charged_bytes_per_step",
            over_cycle(&|u| ratio(u.target_bytes, u.target_steps)),
        ),
        (
            "raw_over_charged",
            over_cycle(&|u| ratio(u.raw_bytes, u.target_bytes)),
        ),
        ("final_test_acc", over_cycle(&|u| u.final_test_acc)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let all_target_walls: Vec<f64> = units.iter().map(|u| u.target_wall_s).collect();
    EndToEndRun {
        metrics,
        dispersion: vec![
            dispersion("setup_s", &setup),
            dispersion("steps_per_s", &steps_per_s),
            dispersion("time_to_target_s", &all_target_walls),
        ],
        attempted,
        failures,
    }
}
