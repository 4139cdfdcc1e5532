//! Pool-determinism property suite: the persistent-worker-pool runtime
//! must be **bit-identical** to the sequential simulator — models, step
//! statistics, variance estimates, byte accounting, and therefore the
//! entire synchronization-decision sequence — across every FDA monitor
//! variant and worker count.
//!
//! Like `prop_invariants.rs`, this uses the workspace's deterministic RNG
//! as a case generator instead of an external property-testing crate:
//! every case carries its seed in the failure message, so a counterexample
//! reproduces exactly.

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig, FdaVariant};
use fda::core::strategy::Strategy;
use fda::data::synth::SynthSpec;
use fda::data::{Partition, TaskData};
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;

fn tiny_task() -> TaskData {
    SynthSpec {
        n_train: 280,
        n_test: 80,
        ..SynthSpec::synth_mnist()
    }
    .generate("pool-det")
}

fn cluster(k: usize, seed: u64, parallel: bool) -> ClusterConfig {
    ClusterConfig {
        model: ModelId::Lenet5,
        workers: k,
        batch_size: 16,
        optimizer: OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed,
        parallel,
    }
}

fn variants() -> Vec<(&'static str, FdaConfig)> {
    // Θ small enough that syncs happen within the horizon, so the test
    // exercises the monitor phase, the state reduction AND the pooled
    // model AllReduce for every variant.
    vec![
        ("sketch", FdaConfig::sketch_auto(0.01)),
        // The paper-default 5 kB sketch, wider than the model-scaled one.
        ("sketch-paper", FdaConfig::sketch(0.01)),
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

/// The core property: for K ∈ {1, 2, 3, 4, 7} and every monitor variant, the
/// pooled runtime reproduces the sequential run bit-for-bit at every step.
#[test]
fn pooled_fda_is_bit_identical_across_k_and_variants() {
    let task = tiny_task();
    let steps = 10;
    for k in [1usize, 2, 3, 4, 7] {
        for (tag, cfg) in variants() {
            let seed = 0xB00F + k as u64;
            let mut seq = Fda::new(cfg, cluster(k, seed, false), &task);
            let mut par = Fda::new(cfg, cluster(k, seed, true), &task);
            let mut decisions = Vec::new();
            for step in 0..steps {
                let s = seq.step();
                let p = par.step();
                let case = format!("k={k} variant={tag} seed={seed} step={step}");
                assert_eq!(s.synced, p.synced, "{case}: sync decision diverged");
                assert_eq!(
                    s.variance_estimate, p.variance_estimate,
                    "{case}: estimate diverged"
                );
                assert_eq!(
                    s.stats.mean_loss, p.stats.mean_loss,
                    "{case}: loss diverged"
                );
                assert_eq!(
                    s.stats.batch_accuracy, p.stats.batch_accuracy,
                    "{case}: accuracy diverged"
                );
                for w in 0..k {
                    assert_eq!(
                        seq.cluster().worker(w).params(),
                        par.cluster().worker(w).params(),
                        "{case}: worker {w} params diverged"
                    );
                }
                decisions.push(s.synced);
            }
            assert_eq!(
                seq.comm_bytes(),
                par.comm_bytes(),
                "k={k} variant={tag}: byte accounting diverged"
            );
            if k > 1 {
                assert!(
                    decisions.iter().any(|&d| d),
                    "k={k} variant={tag}: horizon should exercise at least one sync"
                );
            }
        }
    }
}

/// Randomized-seed sweep: a cheaper horizon over many seeds, asserting the
/// full sync-decision *sequence* and the final models match. Catches
/// schedule-dependent divergence a single seed might miss.
#[test]
fn pooled_sync_sequences_match_over_random_seeds() {
    let task = tiny_task();
    for case in 0..6u64 {
        let seed = 0x5EED_0000 + case * 131;
        let cfg = FdaConfig::linear(0.04);
        let mut seq = Fda::new(cfg, cluster(3, seed, false), &task);
        let mut par = Fda::new(cfg, cluster(3, seed, true), &task);
        let seq_seq: Vec<bool> = (0..12).map(|_| seq.step().synced).collect();
        let par_seq: Vec<bool> = (0..12).map(|_| par.step().synced).collect();
        assert_eq!(
            seq_seq, par_seq,
            "case {case} (seed {seed}): sequences diverged"
        );
        assert_eq!(
            seq.cluster().worker(0).params(),
            par.cluster().worker(0).params(),
            "case {case} (seed {seed}): final model diverged"
        );
    }
}

/// The baselines share the pooled cluster primitives; they must be
/// bit-identical across modes too (Synchronous exercises the pooled model
/// AllReduce every step, LocalSGD the mixed cadence, FedAdam the server
/// optimizer's step and its `load_global`).
#[test]
fn pooled_baselines_match_sequential() {
    let task = tiny_task();
    let mut seq_sync = Fda::synchronous(cluster(4, 11, false), &task);
    let mut par_sync = Fda::synchronous(cluster(4, 11, true), &task);
    let mut seq_local = Fda::local_sgd(3, cluster(4, 12, false), &task);
    let mut par_local = Fda::local_sgd(3, cluster(4, 12, true), &task);
    for _ in 0..7 {
        seq_sync.step();
        par_sync.step();
        seq_local.step();
        par_local.step();
    }
    for w in 0..4 {
        assert_eq!(
            seq_sync.cluster().worker(w).params(),
            par_sync.cluster().worker(w).params(),
            "Synchronous: worker {w} diverged"
        );
        assert_eq!(
            seq_local.cluster().worker(w).params(),
            par_local.cluster().worker(w).params(),
            "LocalSGD: worker {w} diverged"
        );
    }
    assert_eq!(seq_sync.comm_bytes(), par_sync.comm_bytes());
    assert_eq!(seq_local.comm_bytes(), par_local.comm_bytes());

    // Two FedAdam rounds and a local step into the third.
    let mut seq_adam = Fda::fedadam(1, cluster(4, 13, false), &task);
    let mut par_adam = Fda::fedadam(1, cluster(4, 13, true), &task);
    for _ in 0..2 * seq_adam.cluster().steps_per_epoch() + 1 {
        seq_adam.step();
        par_adam.step();
    }
    assert_eq!((seq_adam.syncs(), par_adam.syncs()), (2, 2));
    for w in 0..4 {
        assert_eq!(
            seq_adam.cluster().worker(w).params(),
            par_adam.cluster().worker(w).params(),
            "FedAdam: worker {w} diverged"
        );
    }
    assert_eq!(
        seq_adam.global_params(),
        par_adam.global_params(),
        "FedAdam: server model diverged"
    );
    assert_eq!(seq_adam.comm_bytes(), par_adam.comm_bytes());
}
