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

/// Algorithm 1 written out with full states, as the reference the
/// simulator's round is pinned to: every worker's `LocalState` of its
/// drift, their `LocalState::average`, the monitor's estimate and
/// `violates`, and on a sync the id-order model mean loaded everywhere.
/// For every monitor variant, K ∈ {2, 3, 4} and Θ ∈ {0, 0.05, f32::MAX},
/// `Fda` makes the same decision and holds the same replica bits every
/// round. Estimates and bytes are not compared.
#[test]
fn fda_matches_a_full_state_reference_loop() {
    use fda::core::cluster::Cluster;
    use fda::core::fda::violates;
    use fda::core::monitor::LocalState;
    use fda::tensor::vector;

    let task = SynthSpec {
        n_train: 240,
        n_test: 40,
        ..SynthSpec::synth_mnist()
    }
    .generate("differential");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let variants = [
        FdaVariant::Linear,
        FdaVariant::Sketch(fda::sketch::SketchConfig::new(3, 16, 5)),
        FdaVariant::SketchAuto,
        FdaVariant::Exact,
    ];
    let mut seen = [false; 2];
    for variant in variants {
        for k in [2usize, 3, 4] {
            for theta in [0.0f32, 0.05, f32::MAX] {
                let config = FdaConfig { variant, theta };
                let case = format!("{} K = {k} Θ = {theta}", variant.name());
                let mut fda = Fda::new(config, cluster(k, 11), &task);
                let mut reference = Cluster::new(cluster(k, 11), &task);
                let mut monitor = variant.build_monitor(reference.dim());
                let mut w_t0 = reference.worker(0).params();
                for round in 0..24 {
                    let synced = fda.step().synced;
                    reference.local_step();
                    let states: Vec<LocalState> = (0..k)
                        .map(|w| {
                            let mut drift = reference.worker(w).params();
                            vector::sub_assign(&mut drift, &w_t0);
                            monitor.local_state(&drift)
                        })
                        .collect();
                    let avg = LocalState::average(&states);
                    let sync = violates(monitor.estimate(&avg), theta);
                    assert_eq!(synced, sync, "{case}: decision {round}");
                    seen[sync as usize] = true;
                    if sync {
                        let models: Vec<Vec<f32>> =
                            (0..k).map(|w| reference.worker(w).params()).collect();
                        let mut mean = models[0].clone();
                        for m in &models[1..] {
                            vector::add_assign(&mut mean, m);
                        }
                        vector::scale(&mut mean, 1.0 / k as f32);
                        reference.load_global(&mean);
                        monitor.on_sync(&mean, &w_t0);
                        w_t0 = mean;
                    }
                    for w in 0..k {
                        assert_eq!(
                            bits(&fda.cluster().worker(w).params()),
                            bits(&reference.worker(w).params()),
                            "{case}: worker {w} after round {round}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(
        seen,
        [true, true],
        "the sweep mixes quiet and syncing rounds"
    );
}

/// Each round charges the 4-byte drift scalar per worker when its mean
/// certifies, and the full state otherwise — the scalar, then the
/// summary — plus the models on a sync.
#[test]
fn fda_charges_the_scalar_on_certified_rounds_and_the_full_state_otherwise() {
    use fda::core::cluster::Cluster;
    use fda::core::monitor::LocalState;
    use fda::core::round::certifies;
    use fda::tensor::vector;

    let task = SynthSpec {
        n_train: 240,
        n_test: 40,
        ..SynthSpec::synth_mnist()
    }
    .generate("charges");
    let mut certified = 0;
    for variant in [
        FdaVariant::Linear,
        FdaVariant::Sketch(fda::sketch::SketchConfig::new(3, 16, 5)),
    ] {
        for k in [2usize, 3] {
            for theta in [0.0f32, 0.05, f32::MAX] {
                let case = format!("{} K = {k} Θ = {theta}", variant.name());
                let mut fda = Fda::new(FdaConfig { variant, theta }, cluster(k, 12), &task);
                let mut reference = Cluster::new(cluster(k, 12), &task);
                let mut monitor = variant.build_monitor(reference.dim());
                let d = reference.dim();
                let mut w_t0 = reference.worker(0).params();
                for round in 0..24 {
                    let before = fda.comm_bytes();
                    let synced = fda.step().synced;
                    reference.local_step();
                    let states: Vec<LocalState> = (0..k)
                        .map(|w| {
                            let mut drift = reference.worker(w).params();
                            vector::sub_assign(&mut drift, &w_t0);
                            monitor.local_state(&drift)
                        })
                        .collect();
                    let m = LocalState::average(&states).drift_sq_norm;
                    let quiet = certifies(m, theta, &states[0], d);
                    let k = k as u64;
                    let state = if quiet { 4 } else { monitor.state_bytes() };
                    let models = if synced { d as u64 * 4 } else { 0 };
                    assert_eq!(
                        fda.comm_bytes() - before,
                        k * (state + models),
                        "{case}: round {round}"
                    );
                    assert!(!(quiet && synced), "{case}: a certified round syncs");
                    certified += quiet as u32;
                    if synced {
                        let mean = fda.cluster().worker(0).params();
                        reference.load_global(&mean);
                        monitor.on_sync(&mean, &w_t0);
                        w_t0 = mean;
                    }
                }
            }
        }
    }
    assert!(certified > 0, "the sweep certifies rounds");
}
