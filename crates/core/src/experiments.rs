//! The model rows of Table 2, at reproduction scale.
//!
//! Each entry mirrors one row of the paper's Table 2: the model, its
//! dataset stand-in, the batch size and the local optimizer. The paper's
//! Θ grids, worker counts and algorithm sets are not carried here: Θ is
//! re-calibrated for our scaled models (see [`crate::theta`]), and each
//! caller picks its own K and strategies.

use fda_data::synth::SynthSpec;
use fda_nn::zoo::ModelId;
use fda_optim::OptimizerKind;

/// One row of Table 2.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Model under training.
    pub model: ModelId,
    /// Task name (dataset stand-in).
    pub task_name: &'static str,
    /// Mini-batch size `b`.
    pub batch: usize,
    /// Local optimizer.
    pub optimizer: OptimizerKind,
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

/// The reproduction's Table 2, one row per zoo model in paper order:
/// LeNet-5 and VGG16* on MNIST, DenseNet121 and DenseNet201 on CIFAR-10,
/// the ConvNeXtLarge transfer head on CIFAR-100.
fn table2() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            model: ModelId::Lenet5,
            task_name: "synth-mnist",
            batch: 32,
            optimizer: OptimizerKind::paper_adam(),
        },
        ExperimentSpec {
            model: ModelId::Vgg16Star,
            task_name: "synth-mnist",
            batch: 32,
            optimizer: OptimizerKind::paper_adam(),
        },
        ExperimentSpec {
            model: ModelId::DenseNet121,
            task_name: "synth-cifar10",
            batch: 32,
            optimizer: OptimizerKind::paper_sgd_nm(0.01),
        },
        ExperimentSpec {
            model: ModelId::DenseNet201,
            task_name: "synth-cifar10",
            batch: 32,
            optimizer: OptimizerKind::paper_sgd_nm(0.01),
        },
        ExperimentSpec {
            model: ModelId::TransferHead,
            task_name: "synth-cifar100-features",
            batch: 32,
            optimizer: OptimizerKind::paper_adamw(),
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
    fn tasks_build_and_match_models() {
        for spec in table2() {
            let task = spec.synth_spec().generate(spec.task_name);
            assert_eq!(task.dim(), spec.model.input_shape().len());
            assert_eq!(task.classes(), spec.model.classes());
        }
    }

    #[test]
    fn spec_lookup() {
        let s = spec_for(ModelId::DenseNet201);
        assert_eq!(s.task_name, "synth-cifar10");
    }
}
