//! Training runs and the paper's evaluation methodology (§4.1).
//!
//! A *training run* executes one DDL algorithm on one (model, dataset)
//! pair **until the global model reaches a test-accuracy target** (or a
//! step cap). Its cost is the pair the paper plots everywhere:
//!
//! * **communication** — total bytes transmitted by all workers;
//! * **computation** — in-parallel learning steps.
//!
//! Evaluation itself is free (it does not transmit training data or model
//! updates) and is performed on the global model
//! ([`Strategy::global_params`]): the server model under a server
//! optimizer (FedOpt), the average of the worker models otherwise.

use crate::strategy::Strategy;
use fda_data::TaskData;
use fda_nn::Sequential;

/// Steps between test-accuracy evaluations.
const EVAL_EVERY: u64 = 10;

/// Mini-batch size of the evaluation forward passes.
const EVAL_BATCH: usize = 256;

/// Stop conditions for a run, which evaluates every 10 steps.
///
/// Telemetry is attached to the strategy, not the run: call
/// [`Strategy::set_telemetry`] before [`run_to_target`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The test-accuracy target that ends the run ("Accuracy Target").
    pub accuracy_target: f32,
    /// Hard cap on in-parallel steps (non-convergence guard).
    pub max_steps: u64,
}

impl RunConfig {
    /// A run to `accuracy_target`, capped at `max_steps`.
    pub fn to_target(accuracy_target: f32, max_steps: u64) -> RunConfig {
        RunConfig {
            accuracy_target,
            max_steps,
        }
    }
}

/// One point of the evaluation trace.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// In-parallel steps at evaluation time.
    pub step: u64,
    /// Total communication so far (bytes).
    pub comm_bytes: u64,
    /// Synchronizations so far.
    pub syncs: u64,
    /// Test accuracy of the global model.
    pub test_acc: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm display name.
    pub strategy: String,
    /// Whether the accuracy target was reached before the step cap.
    pub reached: bool,
    /// In-parallel steps consumed (the paper's computation metric).
    pub steps: u64,
    /// Total bytes transmitted by all workers (communication metric).
    pub comm_bytes: u64,
    /// Number of model synchronizations.
    pub syncs: u64,
    /// Best test accuracy observed.
    pub best_test_acc: f32,
    /// Evaluation trace (one point per evaluation).
    pub trace: Vec<TracePoint>,
}

/// Runs `strategy` until the target accuracy or the step cap.
///
/// The evaluation model is rebuilt from the cluster's [`fda_nn::zoo::ModelId`]
/// and loaded with the strategy's global parameters at each evaluation
/// point; dropout is inactive in eval mode so the measurement is
/// deterministic.
pub fn run_to_target(strategy: &mut dyn Strategy, task: &TaskData, cfg: &RunConfig) -> RunResult {
    assert!(cfg.max_steps > 0, "run: max_steps must be positive");
    let model_id = strategy.cluster().config().model;
    let mut eval_model = model_id.build(0, 0);
    let mut best_test = 0.0f32;
    let mut trace = Vec::new();
    let mut reached = false;

    // Evaluate the untrained global model once so every trace starts at
    // step zero (useful for Figure-7 style plots).
    let p0 = evaluate(strategy, task, &mut eval_model);
    best_test = best_test.max(p0.test_acc);
    reached |= p0.test_acc >= cfg.accuracy_target;
    trace.push(p0);

    while !reached && strategy.steps() < cfg.max_steps {
        for _ in 0..EVAL_EVERY {
            strategy.step();
            if strategy.steps() >= cfg.max_steps {
                break;
            }
        }
        let point = evaluate(strategy, task, &mut eval_model);
        best_test = best_test.max(point.test_acc);
        reached |= point.test_acc >= cfg.accuracy_target;
        trace.push(point);
    }

    RunResult {
        strategy: strategy.name(),
        reached,
        steps: strategy.steps(),
        comm_bytes: strategy.comm_bytes(),
        syncs: strategy.syncs(),
        best_test_acc: best_test,
        trace,
    }
}

fn evaluate(
    strategy: &mut dyn Strategy,
    task: &TaskData,
    eval_model: &mut Sequential,
) -> TracePoint {
    let params = strategy.global_params();
    eval_model.load_params(&params);
    let test_acc =
        eval_model.evaluate_batched(task.test.features(), task.test.labels(), EVAL_BATCH);
    TracePoint {
        step: strategy.steps(),
        comm_bytes: strategy.comm_bytes(),
        syncs: strategy.syncs(),
        test_acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fda::{Fda, FdaConfig};
    use fda_data::synth::SynthSpec;

    fn tiny_task() -> TaskData {
        SynthSpec {
            n_train: 400,
            n_test: 150,
            ..SynthSpec::synth_mnist()
        }
        .generate("tiny")
    }

    #[test]
    fn synchronous_reaches_easy_target() {
        let task = tiny_task();
        let mut s = Fda::synchronous(ClusterConfig::small_test(3), &task);
        let res = run_to_target(&mut s, &task, &RunConfig::to_target(0.60, 600));
        assert!(res.reached, "easy target should be reachable: {res:?}");
        assert!(res.steps <= 600);
        assert!(res.comm_bytes > 0);
        assert!(!res.trace.is_empty());
    }

    #[test]
    fn unreachable_target_hits_cap() {
        let task = tiny_task();
        let mut s = Fda::synchronous(ClusterConfig::small_test(2), &task);
        let res = run_to_target(&mut s, &task, &RunConfig::to_target(1.01, 30));
        assert!(!res.reached);
        assert_eq!(res.steps, 30);
    }

    #[test]
    fn fda_beats_synchronous_on_communication_at_equal_target() {
        // The paper's headline claim, in miniature: to the same accuracy
        // target, FDA transmits far less than Synchronous.
        let task = tiny_task();
        let target = 0.60;
        let cfg = RunConfig::to_target(target, 800);

        let mut sync = Fda::synchronous(ClusterConfig::small_test(3), &task);
        let sync_res = run_to_target(&mut sync, &task, &cfg);

        let mut fda = Fda::new(FdaConfig::linear(0.5), ClusterConfig::small_test(3), &task);
        let fda_res = run_to_target(&mut fda, &task, &cfg);

        assert!(
            sync_res.reached && fda_res.reached,
            "{sync_res:?} {fda_res:?}"
        );
        assert!(
            fda_res.comm_bytes < sync_res.comm_bytes / 2,
            "FDA should save communication: {} vs {}",
            fda_res.comm_bytes,
            sync_res.comm_bytes
        );
    }

    #[test]
    fn trace_is_monotone_in_step_and_bytes() {
        let task = tiny_task();
        let mut s = Fda::synchronous(ClusterConfig::small_test(2), &task);
        let res = run_to_target(&mut s, &task, &RunConfig::to_target(0.9, 100));
        for w in res.trace.windows(2) {
            assert!(w[0].step <= w[1].step);
            assert!(w[0].comm_bytes <= w[1].comm_bytes);
        }
    }
}
