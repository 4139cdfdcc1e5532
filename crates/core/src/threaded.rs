//! FDA over real OS threads.
//!
//! The simulator executes workers in lock-step on one thread; this module
//! runs the **identical protocol** with one thread per worker and the
//! rendezvous AllReduce of [`fda_comm::ThreadedReducer`] — no coordinator,
//! exactly the deployment §1/Figure 1 of the paper describes. It exists to
//! demonstrate that nothing in the FDA design depends on the simulator's
//! sequential convenience:
//!
//! * local state vectors are genuinely exchanged (flattened to `f32`
//!   buffers, the same layout `crate::wire` frames for transport);
//! * every worker evaluates `H(S̄) > Θ` on the *same* averaged buffer, so
//!   the synchronization decision is consistent cluster-wide without any
//!   extra round;
//! * model AllReduces leave all replicas bit-identical.
//!
//! Workers reduce through [`ThreadedReducer::allreduce_indexed`] with
//! their stable worker ids, so accumulation order is worker order — the
//! same copy-first association as the simulator's
//! `SimNetwork::allreduce_mean`. A threaded run is therefore
//! bit-reproducible across invocations *and* matches the sequential
//! simulator's trajectory (tests assert both), while the reduction itself
//! executes chunk-parallel across the participating threads.

use crate::fda::violates;
use crate::monitor::{LinearMonitor, LocalState, SketchMonitor, StateSummary, VarianceMonitor};
use fda_comm::ThreadedReducer;
use fda_data::batch::BatchSampler;
use fda_data::{Partition, TaskData};
use fda_nn::zoo::ModelId;
use fda_optim::OptimizerKind;
use fda_sketch::SketchConfig;
use fda_tensor::{vector, Rng};

/// Which monitor the threaded driver runs (the two practical variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedVariant {
    /// LinearFDA.
    Linear,
    /// SketchFDA with the model-scaled sketch.
    Sketch,
}

/// Configuration for a threaded FDA run.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedFdaConfig {
    /// Model to train.
    pub model: ModelId,
    /// Number of worker threads `K`.
    pub workers: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Local optimizer.
    pub optimizer: OptimizerKind,
    /// Data distribution.
    pub partition: Partition,
    /// Variance threshold Θ.
    pub theta: f32,
    /// Monitor variant.
    pub variant: ThreadedVariant,
    /// Steps to run (every worker performs exactly this many).
    pub steps: u64,
    /// Master seed (same convention as [`crate::cluster::Cluster`]).
    pub seed: u64,
}

/// Outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedFdaReport {
    /// Synchronizations performed.
    pub syncs: u64,
    /// Total bytes across workers (analytic accounting, same convention
    /// as the simulator).
    pub comm_bytes: u64,
    /// Final consensus-averaged parameters (identical on all workers right
    /// after a sync; otherwise the average of the final replicas).
    pub final_params: Vec<f32>,
    /// Each worker's final replica (for consensus checks).
    pub worker_params: Vec<Vec<f32>>,
}

/// Flattens a state into the AllReduce buffer layout
/// `[‖u‖², summary…]` (averaging is component-wise for every variant).
fn flatten_state(state: &LocalState, out: &mut Vec<f32>) {
    out.clear();
    out.push(state.drift_sq_norm);
    match &state.summary {
        StateSummary::Linear(p) => out.push(*p),
        StateSummary::Sketch(sk) => out.extend_from_slice(sk.as_slice()),
        StateSummary::Exact(v) => out.extend_from_slice(v),
    }
}

/// Rebuilds a state from the averaged buffer, using `template` for shape.
fn unflatten_state(buf: &[f32], template: &LocalState) -> LocalState {
    let drift_sq_norm = buf[0];
    let summary = match &template.summary {
        StateSummary::Linear(_) => StateSummary::Linear(buf[1]),
        StateSummary::Sketch(sk) => {
            let mut s = fda_sketch::AmsSketch::zeros(sk.rows(), sk.cols());
            s.as_mut_slice().copy_from_slice(&buf[1..]);
            StateSummary::Sketch(s)
        }
        StateSummary::Exact(_) => StateSummary::Exact(buf[1..].to_vec()),
    };
    LocalState {
        drift_sq_norm,
        summary,
    }
}

/// Runs FDA with one OS thread per worker; blocks until completion.
///
/// # Panics
/// Panics on degenerate configs (zero workers/steps) or if a worker
/// thread panics.
pub fn run_threaded_fda(config: ThreadedFdaConfig, task: &TaskData) -> ThreadedFdaReport {
    assert!(config.workers >= 1, "threaded fda: need workers");
    assert!(config.steps >= 1, "threaded fda: need steps");
    let k = config.workers;
    let template = config.model.build(config.seed, 0);
    let dim = template.param_count();
    let w0 = template.params_flat();
    let shards = config
        .partition
        .shards(&task.train, k, config.seed ^ 0x5AAD);

    let state_reducer = ThreadedReducer::new(k);
    let model_reducer = ThreadedReducer::new(k);
    let sketch_config = SketchConfig::scaled_for(dim);

    let results: Vec<(u64, Vec<f32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(worker, shard)| {
                let state_reducer = state_reducer.clone();
                let model_reducer = model_reducer.clone();
                let w0 = w0.clone();
                let train = &task.train;
                scope.spawn(move || {
                    let mut model = config
                        .model
                        .build(config.seed, config.seed ^ (worker as u64 + 1));
                    model.load_params(&w0);
                    let mut optimizer = config.optimizer.build(dim);
                    let mut sampler = BatchSampler::new(
                        shard,
                        config.batch_size,
                        Rng::new(config.seed ^ 0xBA7C4).split(worker as u64),
                    );
                    let mut monitor: Box<dyn VarianceMonitor> = match config.variant {
                        ThreadedVariant::Linear => Box::new(LinearMonitor::new()),
                        ThreadedVariant::Sketch => Box::new(SketchMonitor::new(sketch_config, dim)),
                    };
                    let mut w_sync = w0.clone();
                    let mut params = vec![0.0f32; dim];
                    let mut grads = vec![0.0f32; dim];
                    let mut drift = vec![0.0f32; dim];
                    let mut state_buf: Vec<f32> = Vec::new();
                    let mut syncs = 0u64;

                    let channels = model.input_shape().map(|s| s.c);
                    for _ in 0..config.steps {
                        // (1) Local training: batch gathered in the
                        // model's native layout (channel-major for conv
                        // models), no per-step conversion pass.
                        let (x, y) = sampler.sample_native(train, channels);
                        model.compute_gradients_native(x, &y);
                        model.copy_params_to(&mut params);
                        model.copy_grads_to(&mut grads);
                        optimizer.step(&mut params, &grads);
                        model.load_params(&params);

                        // (2) Local state from the drift.
                        vector::sub_into(&params, &w_sync, &mut drift);
                        let state = monitor.local_state(&drift);

                        // (3) Real state AllReduce, worker-order
                        // accumulation (deterministic).
                        flatten_state(&state, &mut state_buf);
                        state_reducer.allreduce_indexed(worker, &mut state_buf);
                        let avg = unflatten_state(&state_buf, &state);

                        // (4) Consistent conditional synchronization: all
                        // workers see the identical averaged buffer, so the
                        // comparison agrees everywhere.
                        if violates(monitor.estimate(&avg), config.theta) {
                            model_reducer.allreduce_indexed(worker, &mut params);
                            model.load_params(&params);
                            monitor.on_sync(&params, &w_sync);
                            w_sync.copy_from_slice(&params);
                            syncs += 1;
                        }
                    }
                    model.copy_params_to(&mut params);
                    (syncs, params)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let syncs = results[0].0;
    assert!(
        results.iter().all(|(s, _)| *s == syncs),
        "workers must agree on the sync schedule"
    );
    let worker_params: Vec<Vec<f32>> = results.into_iter().map(|(_, p)| p).collect();
    let refs: Vec<&[f32]> = worker_params.iter().map(|p| p.as_slice()).collect();
    let final_params = vector::mean(&refs);

    // Analytic byte accounting, same convention as the simulator.
    let state_bytes = match config.variant {
        ThreadedVariant::Linear => 8u64,
        ThreadedVariant::Sketch => sketch_config.byte_size() as u64 + 4,
    };
    let comm_bytes = if k == 1 {
        0
    } else {
        k as u64 * (config.steps * state_bytes + syncs * dim as u64 * 4)
    };
    ThreadedFdaReport {
        syncs,
        comm_bytes,
        final_params,
        worker_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_data::synth::SynthSpec;

    fn tiny_task() -> TaskData {
        SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        }
        .generate("tiny")
    }

    fn config(theta: f32, variant: ThreadedVariant) -> ThreadedFdaConfig {
        ThreadedFdaConfig {
            model: ModelId::Lenet5,
            workers: 3,
            batch_size: 16,
            optimizer: OptimizerKind::paper_adam(),
            partition: Partition::Iid,
            theta,
            variant,
            steps: 40,
            seed: 7,
        }
    }

    #[test]
    fn workers_agree_and_sync_under_tight_theta() {
        let task = tiny_task();
        let report = run_threaded_fda(config(0.01, ThreadedVariant::Linear), &task);
        assert!(report.syncs > 0, "tight Θ must trigger syncs");
        assert!(report.comm_bytes > 0);
    }

    #[test]
    fn loose_theta_never_syncs_and_charges_states_only() {
        let task = tiny_task();
        let report = run_threaded_fda(config(f32::MAX, ThreadedVariant::Linear), &task);
        assert_eq!(report.syncs, 0);
        assert_eq!(report.comm_bytes, 3 * 40 * 8);
    }

    #[test]
    fn sketch_variant_runs_and_syncs_consistently() {
        let task = tiny_task();
        let report = run_threaded_fda(config(0.01, ThreadedVariant::Sketch), &task);
        assert!(report.syncs > 0);
        // State payload dominates the linear variant's.
        assert!(report.comm_bytes > 3 * 40 * 8);
    }

    #[test]
    fn theta_zero_leaves_replicas_identical() {
        // Syncing every step keeps every replica equal to the consensus at
        // the end of every step.
        let task = tiny_task();
        let report = run_threaded_fda(config(0.0, ThreadedVariant::Linear), &task);
        assert_eq!(report.syncs, 40);
        // All replicas end bit-identical (they all load the same AllReduce
        // result). Note: `final_params` is their mean, which can differ in
        // the last ulp (f32 sum-then-divide), so compare replicas directly.
        for p in &report.worker_params {
            assert_eq!(p, &report.worker_params[0], "replicas must agree");
        }
        for (a, b) in report.final_params.iter().zip(&report.worker_params[0]) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
        }
    }

    /// With worker-order (indexed) accumulation, two identical threaded
    /// runs must be bit-identical — no arrival-order jitter.
    #[test]
    fn threaded_runs_are_bit_reproducible() {
        let task = tiny_task();
        let a = run_threaded_fda(config(0.02, ThreadedVariant::Linear), &task);
        let b = run_threaded_fda(config(0.02, ThreadedVariant::Linear), &task);
        assert_eq!(a.syncs, b.syncs);
        assert_eq!(a.worker_params, b.worker_params, "trajectories diverged");
    }

    /// The real-threads runtime now performs the *same arithmetic in the
    /// same order* as the sequential simulator: same seeds ⇒ same sync
    /// schedule and identical final replicas, not just statistically
    /// similar ones.
    #[test]
    fn threaded_matches_simulator_trajectory() {
        use crate::cluster::ClusterConfig;
        use crate::fda::{Fda, FdaConfig};
        use crate::strategy::Strategy;

        let task = tiny_task();
        let cfg = config(0.02, ThreadedVariant::Linear);
        let report = run_threaded_fda(cfg, &task);

        let mut sim = Fda::new(
            FdaConfig::linear(cfg.theta),
            ClusterConfig {
                model: cfg.model,
                workers: cfg.workers,
                batch_size: cfg.batch_size,
                optimizer: cfg.optimizer,
                partition: cfg.partition,
                seed: cfg.seed,
                parallel: false,
            },
            &task,
        );
        for _ in 0..cfg.steps {
            sim.step();
        }
        assert_eq!(report.syncs, sim.syncs(), "sync schedules diverged");
        assert!(report.syncs > 0, "test should exercise syncs");
        for (k, params) in report.worker_params.iter().enumerate() {
            assert_eq!(
                params,
                &sim.cluster().worker(k).params(),
                "worker {k} diverged from the simulator"
            );
        }
    }

    #[test]
    fn threaded_training_actually_learns() {
        let task = tiny_task();
        let mut cfg = config(0.05, ThreadedVariant::Linear);
        cfg.steps = 250;
        let report = run_threaded_fda(cfg, &task);
        let mut eval = ModelId::Lenet5.build(0, 0);
        eval.load_params(&report.final_params);
        let acc = eval.evaluate_batched(task.test.features(), task.test.labels(), 128);
        assert!(acc > 0.5, "threaded FDA should learn: accuracy {acc}");
    }
}
