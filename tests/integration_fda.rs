//! Cross-crate integration tests: the FDA protocol end-to-end over the
//! full substrate stack (nn + optim + data + sketch + comm).

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig, FdaVariant};
use fda::core::harness::{run_to_target, RunConfig};
use fda::core::strategy::Strategy;
use fda::data::synth::SynthSpec;
use fda::data::{Partition, TaskData};
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;

fn small_task() -> TaskData {
    SynthSpec {
        n_train: 600,
        n_test: 200,
        ..SynthSpec::synth_mnist()
    }
    .generate("it-task")
}

fn cluster(k: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        model: ModelId::Lenet5,
        workers: k,
        batch_size: 16,
        optimizer: OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed,
        parallel: false,
    }
}

#[test]
fn all_strategies_reach_a_moderate_target() {
    let task = small_task();
    let cfg = RunConfig::to_target(0.70, 2_500);
    let mut results = Vec::new();
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(Fda::new(FdaConfig::linear(0.5), cluster(4, 1), &task)),
        Box::new(Fda::new(FdaConfig::sketch_auto(0.5), cluster(4, 1), &task)),
        Box::new(Fda::synchronous(cluster(4, 1), &task)),
        Box::new(Fda::local_sgd(8, cluster(4, 1), &task)),
        Box::new(Fda::fedadam(1, cluster(4, 1), &task)),
    ];
    for mut s in strategies {
        let r = run_to_target(s.as_mut(), &task, &cfg);
        assert!(
            r.reached,
            "{} failed to reach 0.70 in 2500 steps (best {:.3})",
            r.strategy, r.best_test_acc
        );
        results.push(r);
    }
    // FDA variants must beat Synchronous on communication.
    let comm = |name: &str| {
        results
            .iter()
            .find(|r| r.strategy == name)
            .map(|r| r.comm_bytes)
            .expect("strategy ran")
    };
    assert!(comm("LinearFDA") < comm("Synchronous") / 3);
    assert!(comm("SketchFDA") < comm("Synchronous") / 3);
}

#[test]
fn theta_zero_fda_syncs_like_synchronous() {
    let task = small_task();
    let mut fda = Fda::new(FdaConfig::linear(0.0), cluster(3, 2), &task);
    let mut sync = Fda::synchronous(cluster(3, 2), &task);
    for _ in 0..20 {
        fda.step();
        sync.step();
    }
    assert_eq!(fda.syncs(), sync.syncs(), "Θ=0 syncs every step");
    // FDA pays the extra monitoring traffic on top of the model payloads:
    // 20 steps × 3 workers × 8 bytes of linear state.
    assert_eq!(fda.comm_bytes(), sync.comm_bytes() + 20 * 3 * 8);
    // Identical sync schedule + identical seeds ⇒ identical trajectories.
    assert_eq!(
        fda.cluster().worker(0).params(),
        sync.cluster().worker(0).params()
    );
}

#[test]
fn sketch_syncs_at_most_linear_syncs() {
    // SketchFDA estimates variance more tightly than LinearFDA, so at the
    // same Θ it should synchronize no more often (paper §3.3 and Main
    // Finding 3).
    let task = small_task();
    let theta = 0.3;
    let mut lin = Fda::new(FdaConfig::linear(theta), cluster(4, 3), &task);
    let mut sk = Fda::new(FdaConfig::sketch_auto(theta), cluster(4, 3), &task);
    for _ in 0..300 {
        lin.step();
        sk.step();
    }
    assert!(
        sk.syncs() <= lin.syncs(),
        "sketch ({}) should sync no more than linear ({})",
        sk.syncs(),
        lin.syncs()
    );
}

#[test]
fn exact_monitor_preserves_round_invariant_strictly() {
    let task = small_task();
    let theta = 0.4;
    let mut fda = Fda::new(
        FdaConfig {
            variant: FdaVariant::Exact,
            theta,
        },
        cluster(4, 4),
        &task,
    );
    for _ in 0..120 {
        let out = fda.step();
        let var = fda.cluster().exact_variance();
        if out.synced {
            assert!(var < 1e-9, "variance must be 0 right after sync");
        } else {
            assert!(
                var <= theta * 1.02 + 1e-6,
                "RI violated: Var = {var} > Θ = {theta}"
            );
        }
    }
}

#[test]
fn monitors_overestimate_variance_throughout_training() {
    let task = small_task();
    let mut lin = Fda::new(FdaConfig::linear(0.35), cluster(3, 5), &task);
    for _ in 0..150 {
        let out = lin.step();
        let est = out.variance_estimate.unwrap();
        let truth = lin.cluster().exact_variance();
        // After a sync, variance is 0 and the estimate refers to pre-sync
        // drifts; only check the no-sync steps.
        if !out.synced {
            assert!(
                est >= truth - 1e-3 * (1.0 + truth),
                "H = {est} < Var = {truth}"
            );
        }
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let task = small_task();
    let run = RunConfig::to_target(0.65, 1_200);
    let r1 = {
        let mut s = Fda::new(FdaConfig::sketch_auto(0.4), cluster(3, 6), &task);
        run_to_target(&mut s, &task, &run)
    };
    let r2 = {
        let mut s = Fda::new(FdaConfig::sketch_auto(0.4), cluster(3, 6), &task);
        run_to_target(&mut s, &task, &run)
    };
    assert_eq!(r1.steps, r2.steps);
    assert_eq!(r1.comm_bytes, r2.comm_bytes);
    assert_eq!(r1.syncs, r2.syncs);
    assert_eq!(r1.best_test_acc, r2.best_test_acc);
}

#[test]
fn non_iid_partitions_still_converge_with_fda() {
    let task = small_task();
    for partition in [Partition::NonIidPercent(0.6), Partition::NonIidLabel(0)] {
        let cc = ClusterConfig {
            partition,
            ..cluster(4, 7)
        };
        let mut fda = Fda::new(FdaConfig::linear(0.5), cc, &task);
        let r = run_to_target(&mut fda, &task, &RunConfig::to_target(0.65, 2_500));
        assert!(
            r.reached,
            "{} should converge under {} (best {:.3})",
            r.strategy,
            partition.label(),
            r.best_test_acc
        );
    }
}

#[test]
fn single_worker_cluster_degenerates_gracefully() {
    let task = small_task();
    let mut fda = Fda::new(FdaConfig::linear(0.5), cluster(1, 8), &task);
    for _ in 0..10 {
        let out = fda.step();
        // One worker: variance is identically zero, so never sync.
        assert!(!out.synced);
    }
    // And communication is free (nothing leaves the node).
    assert_eq!(fda.comm_bytes(), 0);
}

#[test]
fn fedopt_syncs_once_per_local_epoch() {
    let task = small_task();
    let mut fed = Fda::fedavgm(1, cluster(4, 9), &task);
    let spr = fed.cluster().steps_per_epoch() as u64;
    // Shards: 600 samples / 4 workers = 150; batch 16 ⇒ ceil = 10 steps.
    assert_eq!(spr, 10);
    for _ in 0..3 * spr {
        fed.step();
    }
    assert_eq!(fed.syncs(), 3);
}

/// Acceptance invariant for the parallel simulator mode: with scoped-thread
/// worker stepping enabled, FDA must make the *identical* sequence of
/// synchronization decisions (and end in the identical model state) as the
/// deterministic sequential mode — workers are independent between
/// AllReduce points and all RNG streams are per-worker.
#[test]
fn parallel_mode_preserves_sync_decision_sequence() {
    let task = small_task();
    for (tag, cfg) in [
        ("linear", FdaConfig::linear(0.05)),
        ("sketch", FdaConfig::sketch_auto(0.05)),
    ] {
        let mut seq_fda = Fda::new(cfg, cluster(4, 9), &task);
        let par_cc = ClusterConfig {
            parallel: true,
            ..cluster(4, 9)
        };
        let mut par_fda = Fda::new(cfg, par_cc, &task);
        let mut seq_decisions = Vec::new();
        let mut par_decisions = Vec::new();
        for _ in 0..60 {
            seq_decisions.push(seq_fda.step().synced);
            par_decisions.push(par_fda.step().synced);
        }
        assert_eq!(
            seq_decisions, par_decisions,
            "{tag}: sync-decision sequences diverged between modes"
        );
        assert!(
            seq_decisions.iter().any(|&s| s),
            "{tag}: test should exercise at least one sync"
        );
        assert_eq!(
            seq_fda.cluster().comm_bytes(),
            par_fda.cluster().comm_bytes(),
            "{tag}: byte accounting diverged"
        );
        for k in 0..4 {
            assert_eq!(
                seq_fda.cluster().worker(k).params(),
                par_fda.cluster().worker(k).params(),
                "{tag}: worker {k} final params diverged"
            );
        }
    }
}
