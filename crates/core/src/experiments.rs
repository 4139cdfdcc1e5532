//! The experiment grid of Table 2, at reproduction scale.
//!
//! Each entry mirrors one row of the paper's Table 2: the model, its
//! dataset, the Θ grid, batch size, worker counts, local optimizer, and the
//! algorithm set. Absolute Θ values are re-calibrated for our scaled
//! models (drift magnitudes depend on `d`, the optimizer and the task; see
//! [`crate::theta`] for the calibration), but the *structure*
//! — which algorithms face which model with which optimizer — is the
//! paper's.

use crate::baselines::{FedOpt, LocalSgd, Synchronous};
use crate::cluster::ClusterConfig;
use crate::fda::{Fda, FdaConfig, FdaVariant};
use crate::strategy::Strategy;
use fda_data::synth::SynthSpec;
use fda_data::TaskData;
use fda_nn::zoo::ModelId;
use fda_optim::OptimizerKind;

/// One algorithm of a Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// LinearFDA (needs Θ).
    LinearFda,
    /// SketchFDA with the paper's default sketch (needs Θ).
    SketchFda,
    /// Oracle-monitor FDA (ablations; needs Θ).
    ExactFda,
    /// Bulk-synchronous baseline.
    Synchronous,
    /// Local-SGD with fixed period τ.
    LocalSgd(u64),
    /// FedAvg with E = 1.
    FedAvg,
    /// FedAvgM with E = 1 (paper §4.1).
    FedAvgM,
    /// FedAdam with E = 1 (paper §4.1).
    FedAdam,
}

impl Algo {
    /// Display name used in tables (matches the paper's legends).
    pub fn name(&self) -> String {
        match self {
            Algo::LinearFda => "LinearFDA".into(),
            Algo::SketchFda => "SketchFDA".into(),
            Algo::ExactFda => "ExactFDA".into(),
            Algo::Synchronous => "Synchronous".into(),
            Algo::LocalSgd(tau) => format!("LocalSGD(tau={tau})"),
            Algo::FedAvg => "FedAvg".into(),
            Algo::FedAvgM => "FedAvgM".into(),
            Algo::FedAdam => "FedAdam".into(),
        }
    }

    /// True iff the algorithm consumes a Θ threshold.
    pub fn uses_theta(&self) -> bool {
        matches!(self, Algo::LinearFda | Algo::SketchFda | Algo::ExactFda)
    }

    /// Instantiates the strategy over a fresh cluster.
    pub fn build(
        &self,
        theta: f32,
        cluster_config: ClusterConfig,
        task: &TaskData,
    ) -> Box<dyn Strategy> {
        match self {
            Algo::LinearFda => Box::new(Fda::new(FdaConfig::linear(theta), cluster_config, task)),
            Algo::SketchFda => Box::new(Fda::new(
                FdaConfig::sketch_auto(theta),
                cluster_config,
                task,
            )),
            Algo::ExactFda => Box::new(Fda::new(
                FdaConfig {
                    variant: FdaVariant::Exact,
                    theta,
                },
                cluster_config,
                task,
            )),
            Algo::Synchronous => Box::new(Synchronous::new(cluster_config, task)),
            Algo::LocalSgd(tau) => Box::new(LocalSgd::new(*tau, cluster_config, task)),
            Algo::FedAvg => Box::new(FedOpt::fedavg(1, cluster_config, task)),
            Algo::FedAvgM => Box::new(FedOpt::fedavgm(1, cluster_config, task)),
            Algo::FedAdam => Box::new(FedOpt::fedadam(1, cluster_config, task)),
        }
    }
}

/// One row of Table 2.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Model under training.
    pub model: ModelId,
    /// Task name (dataset stand-in).
    pub task_name: &'static str,
    /// Θ grid (FDA variants).
    pub thetas: Vec<f32>,
    /// Mini-batch size `b`.
    pub batch: usize,
    /// Worker-count grid `K`.
    pub ks: Vec<usize>,
    /// Local optimizer.
    pub optimizer: OptimizerKind,
    /// Algorithms compared on this row.
    pub algos: Vec<Algo>,
    /// Accuracy targets evaluated in the corresponding figures.
    pub accuracy_targets: Vec<f32>,
}

impl ExperimentSpec {
    /// The generator of this row's task (its dataset stand-in).
    pub fn synth_spec(&self) -> SynthSpec {
        match self.task_name {
            "synth-mnist" => SynthSpec::synth_mnist(),
            "synth-cifar10" => SynthSpec::synth_cifar10(),
            "synth-cifar100-features" => SynthSpec::synth_cifar100_features(),
            other => panic!("unknown task {other}"),
        }
    }
}

/// The reproduction's Table 2 (paper Table 2 at scaled d, Θ and K).
///
/// | Paper row | Paper Θ grid | Paper K | Ours |
/// |---|---|---|---|
/// | LeNet-5 / MNIST | 0.5–7 | 5..60 | scaled Θ, K ⊂ {2..12} |
/// | VGG16* / MNIST | 20–100 | 5..60 | scaled |
/// | DenseNet121 / CIFAR-10 | 200–400 | 5..30 | scaled |
/// | DenseNet201 / CIFAR-10 | 350–900 | 5..30 | scaled |
/// | ConvNeXtLarge / CIFAR-100 | 25–150 | 3, 5 | scaled |
pub fn table2() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            model: ModelId::Lenet5,
            task_name: "synth-mnist",
            thetas: vec![0.01, 0.02, 0.05, 0.1, 0.2],
            batch: 32,
            ks: vec![2, 4, 6, 8, 10, 12],
            optimizer: OptimizerKind::paper_adam(),
            algos: vec![
                Algo::LinearFda,
                Algo::SketchFda,
                Algo::Synchronous,
                Algo::FedAdam,
            ],
            accuracy_targets: vec![0.88, 0.91],
        },
        ExperimentSpec {
            model: ModelId::Vgg16Star,
            task_name: "synth-mnist",
            thetas: vec![0.05, 0.1, 0.2, 0.5, 1.0],
            batch: 32,
            ks: vec![2, 4, 6, 8, 10, 12],
            optimizer: OptimizerKind::paper_adam(),
            algos: vec![
                Algo::LinearFda,
                Algo::SketchFda,
                Algo::Synchronous,
                Algo::FedAdam,
            ],
            accuracy_targets: vec![0.90, 0.93],
        },
        ExperimentSpec {
            model: ModelId::DenseNet121,
            task_name: "synth-cifar10",
            thetas: vec![0.2, 0.5, 1.0, 2.0, 4.0],
            batch: 32,
            ks: vec![2, 4, 6, 8],
            optimizer: OptimizerKind::paper_sgd_nm(0.01),
            algos: vec![
                Algo::LinearFda,
                Algo::SketchFda,
                Algo::Synchronous,
                Algo::FedAvgM,
            ],
            accuracy_targets: vec![0.78, 0.81],
        },
        ExperimentSpec {
            model: ModelId::DenseNet201,
            task_name: "synth-cifar10",
            thetas: vec![0.3, 0.6, 1.2, 2.5, 5.0],
            batch: 32,
            ks: vec![2, 4, 6, 8],
            optimizer: OptimizerKind::paper_sgd_nm(0.01),
            algos: vec![
                Algo::LinearFda,
                Algo::SketchFda,
                Algo::Synchronous,
                Algo::FedAvgM,
            ],
            accuracy_targets: vec![0.78, 0.80],
        },
        ExperimentSpec {
            model: ModelId::TransferHead,
            task_name: "synth-cifar100-features",
            thetas: vec![0.2, 0.5, 1.0, 2.0],
            batch: 32,
            ks: vec![3, 5],
            optimizer: OptimizerKind::paper_adamw(),
            algos: vec![Algo::LinearFda, Algo::SketchFda, Algo::Synchronous],
            accuracy_targets: vec![0.76],
        },
    ]
}

/// Looks up the Table 2 row for a model.
pub fn spec_for(model: ModelId) -> ExperimentSpec {
    table2()
        .into_iter()
        .find(|s| s.model == model)
        .expect("every zoo model has a Table 2 row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_five_rows_like_the_paper() {
        let t = table2();
        assert_eq!(t.len(), 5);
        // One row per zoo model, in paper order.
        let models: Vec<ModelId> = t.iter().map(|s| s.model).collect();
        assert_eq!(models, ModelId::ALL.to_vec());
    }

    #[test]
    fn optimizers_match_paper_assignments() {
        let t = table2();
        assert!(matches!(t[0].optimizer, OptimizerKind::Adam { .. }));
        assert!(matches!(t[1].optimizer, OptimizerKind::Adam { .. }));
        assert!(matches!(
            t[2].optimizer,
            OptimizerKind::SgdMomentum { nesterov: true, .. }
        ));
        assert!(matches!(
            t[3].optimizer,
            OptimizerKind::SgdMomentum { nesterov: true, .. }
        ));
        assert!(matches!(t[4].optimizer, OptimizerKind::AdamW { .. }));
    }

    #[test]
    fn fedopt_partner_follows_local_optimizer() {
        // Paper: Adam rows compare against FedAdam, SGD-NM rows against
        // FedAvgM; the transfer row has no FedOpt baseline.
        let t = table2();
        assert!(t[0].algos.contains(&Algo::FedAdam));
        assert!(t[1].algos.contains(&Algo::FedAdam));
        assert!(t[2].algos.contains(&Algo::FedAvgM));
        assert!(t[3].algos.contains(&Algo::FedAvgM));
        assert!(!t[4].algos.contains(&Algo::FedAdam));
        assert!(!t[4].algos.contains(&Algo::FedAvgM));
    }

    #[test]
    fn tasks_build_and_match_models() {
        for spec in table2() {
            let task = spec.synth_spec().generate(spec.task_name);
            assert_eq!(task.dim(), spec.model.input_shape().len());
            assert_eq!(task.classes(), spec.model.classes());
        }
    }

    #[test]
    fn algo_names_and_theta_usage() {
        assert!(Algo::LinearFda.uses_theta());
        assert!(Algo::SketchFda.uses_theta());
        assert!(!Algo::Synchronous.uses_theta());
        assert!(!Algo::FedAdam.uses_theta());
        assert_eq!(Algo::LocalSgd(16).name(), "LocalSGD(tau=16)");
    }

    #[test]
    fn spec_lookup() {
        let s = spec_for(ModelId::DenseNet201);
        assert_eq!(s.task_name, "synth-cifar10");
    }
}
