//! Model zoo mirroring the paper's architectures at CPU-tractable scale.
//!
//! The paper evaluates five networks (Table 2). Real GPU-scale training is
//! unavailable in this environment, so each architecture family is
//! reproduced with the same topology (conv → pool → dense, depth and width
//! ordering preserved) scaled down ~3 orders of magnitude. The *relative*
//! size ordering `LeNet-5 < VGG16* < DenseNet121 < DenseNet201 <
//! ConvNeXtLarge-head` is preserved because communication cost scales
//! linearly in `d` and the paper's comparisons are per-model.
//!
//! Each conv stage ends **pool, then ReLU**: `MaxPool2d` runs on the raw
//! conv output and the `Relu` after it on a quarter of the elements (so
//! does its mask). That is the textbook conv → ReLU → pool stage bit for
//! bit: `max_i max(x_i, 0) = max(max_i x_i, 0)`, the max only selects, and
//! both orders route a window's nonzero gradient to the same element
//! (DESIGN.md, "Pool before ReLU", has the NaN and ±0 cases).
//!
//! | Zoo id           | Paper model (d)        | Ours (d)    | Input        |
//! |------------------|------------------------|-------------|--------------|
//! | `Lenet5`         | LeNet-5 (62K)          | ≈3.7K       | 1×12×12      |
//! | `Vgg16Star`      | VGG16* (2.6M)          | ≈12.5K      | 1×12×12      |
//! | `DenseNet121`    | DenseNet121 (6.9M)     | ≈16.5K      | 3×8×8        |
//! | `DenseNet201`    | DenseNet201 (18M)      | ≈30.5K      | 3×8×8        |
//! | `TransferHead`   | ConvNeXtLarge (198M)   | ≈44K        | 128 features |

use crate::activation::Relu;
use crate::conv::Conv2d;
use crate::dense::{Dense, Flatten};
use crate::dropout::Dropout;
use crate::init::Init;
use crate::layer::Shape3;
use crate::model::Sequential;
use crate::pool::MaxPool2d;
use fda_tensor::Rng;

/// Identifier for each model in the zoo (one per paper architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// LeNet-5 analogue (MNIST-like task, Adam optimizer in the paper).
    Lenet5,
    /// VGG16* analogue (MNIST-like task, Adam).
    Vgg16Star,
    /// DenseNet121 analogue (CIFAR-10-like task, SGD + Nesterov momentum).
    DenseNet121,
    /// DenseNet201 analogue (CIFAR-10-like task, SGD + Nesterov momentum).
    DenseNet201,
    /// ConvNeXtLarge fine-tuning analogue (CIFAR-100-like features, AdamW).
    TransferHead,
}

impl ModelId {
    /// All zoo models in paper order (Table 2 rows).
    pub const ALL: [ModelId; 5] = [
        ModelId::Lenet5,
        ModelId::Vgg16Star,
        ModelId::DenseNet121,
        ModelId::DenseNet201,
        ModelId::TransferHead,
    ];

    /// Zoo identifier string.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Lenet5 => "lenet5-synth",
            ModelId::Vgg16Star => "vgg16star-synth",
            ModelId::DenseNet121 => "densenet121-synth",
            ModelId::DenseNet201 => "densenet201-synth",
            ModelId::TransferHead => "convnext-head-synth",
        }
    }

    /// Parameter count of the paper's model.
    pub fn paper_d(self) -> usize {
        match self {
            ModelId::Lenet5 => 62_000,
            ModelId::Vgg16Star => 2_600_000,
            ModelId::DenseNet121 => 6_900_000,
            ModelId::DenseNet201 => 18_000_000,
            ModelId::TransferHead => 198_000_000,
        }
    }

    /// Input activation shape expected by the built model.
    pub fn input_shape(self) -> Shape3 {
        match self {
            ModelId::Lenet5 | ModelId::Vgg16Star => Shape3::new(1, 12, 12),
            ModelId::DenseNet121 | ModelId::DenseNet201 => Shape3::new(3, 8, 8),
            ModelId::TransferHead => Shape3::new(1, 1, 128),
        }
    }

    /// Number of output classes.
    pub fn classes(self) -> usize {
        match self {
            ModelId::TransferHead => 100,
            _ => 10,
        }
    }

    /// Builds the model with deterministic initialization.
    ///
    /// Two models built with the same `init_seed` start bit-identical —
    /// this is how workers replicate the common global model `w_0`.
    /// `stochastic_seed` seeds training-only randomness (dropout masks) and
    /// should differ per worker.
    pub fn build(self, init_seed: u64, stochastic_seed: u64) -> Sequential {
        let mut rng = Rng::new(init_seed);
        match self {
            ModelId::Lenet5 => lenet5_synth(&mut rng),
            ModelId::Vgg16Star => vgg16star_synth(&mut rng),
            ModelId::DenseNet121 => densenet121_synth(&mut rng, stochastic_seed),
            ModelId::DenseNet201 => densenet201_synth(&mut rng, stochastic_seed),
            ModelId::TransferHead => transfer_head(&mut rng),
        }
    }
}

/// LeNet-5 analogue: two conv → pool → ReLU stages and two dense layers
/// (Glorot uniform, as in the paper §4.1).
fn lenet5_synth(rng: &mut Rng) -> Sequential {
    let input = Shape3::new(1, 12, 12);
    let c1 = Conv2d::new(input, 6, 3, 1, Init::GlorotUniform, rng);
    let p1 = MaxPool2d::new(c1.out_shape(), 2);
    let c2 = Conv2d::new(p1.out_shape(), 12, 3, 1, Init::GlorotUniform, rng);
    let p2 = MaxPool2d::new(c2.out_shape(), 2);
    let p2_shape = p2.out_shape();
    let flat = p2_shape.len();
    Sequential::new("lenet5-synth", input.len())
        .push(c1)
        .push(p1)
        .push(Relu::new())
        .push(c2)
        .push(p2)
        .push(Relu::new())
        .push(Flatten::new(p2_shape))
        .push(Dense::new(flat, 24, Init::GlorotUniform, rng))
        .push(Relu::new())
        .push(Dense::new(24, 10, Init::GlorotUniform, rng))
}

/// VGG16* analogue: stacked double-conv blocks, each ending pool → ReLU,
/// and a three-layer dense head, mirroring the paper's cut-down VGG16
/// (Glorot uniform).
fn vgg16star_synth(rng: &mut Rng) -> Sequential {
    let input = Shape3::new(1, 12, 12);
    let c1a = Conv2d::new(input, 8, 3, 1, Init::GlorotUniform, rng);
    let c1b = Conv2d::new(c1a.out_shape(), 8, 3, 1, Init::GlorotUniform, rng);
    let p1 = MaxPool2d::new(c1b.out_shape(), 2);
    let c2a = Conv2d::new(p1.out_shape(), 16, 3, 1, Init::GlorotUniform, rng);
    let c2b = Conv2d::new(c2a.out_shape(), 16, 3, 1, Init::GlorotUniform, rng);
    let p2 = MaxPool2d::new(c2b.out_shape(), 2);
    let p2_shape = p2.out_shape();
    let flat = p2_shape.len();
    Sequential::new("vgg16star-synth", input.len())
        .push(c1a)
        .push(Relu::new())
        .push(c1b)
        .push(p1)
        .push(Relu::new())
        .push(c2a)
        .push(Relu::new())
        .push(c2b)
        .push(p2)
        .push(Relu::new())
        .push(Flatten::new(p2_shape))
        .push(Dense::new(flat, 48, Init::GlorotUniform, rng))
        .push(Relu::new())
        .push(Dense::new(48, 32, Init::GlorotUniform, rng))
        .push(Relu::new())
        .push(Dense::new(32, 10, Init::GlorotUniform, rng))
}

/// DenseNet121 analogue: deeper conv stack (each block ending pool →
/// ReLU) with dropout 0.2 (He normal, as the paper prescribes for the
/// DenseNets).
fn densenet121_synth(rng: &mut Rng, stochastic_seed: u64) -> Sequential {
    let input = Shape3::new(3, 8, 8);
    let c1a = Conv2d::new(input, 12, 3, 1, Init::HeNormal, rng);
    let c1b = Conv2d::new(c1a.out_shape(), 12, 3, 1, Init::HeNormal, rng);
    let p1 = MaxPool2d::new(c1b.out_shape(), 2);
    let c2a = Conv2d::new(p1.out_shape(), 24, 3, 1, Init::HeNormal, rng);
    let c2b = Conv2d::new(c2a.out_shape(), 24, 3, 1, Init::HeNormal, rng);
    let p2 = MaxPool2d::new(c2b.out_shape(), 2);
    let p2_shape = p2.out_shape();
    let flat = p2_shape.len();
    Sequential::new("densenet121-synth", input.len())
        .push(c1a)
        .push(Relu::new())
        .push(c1b)
        .push(p1)
        .push(Relu::new())
        .push(c2a)
        .push(Relu::new())
        .push(c2b)
        .push(p2)
        .push(Relu::new())
        .push(Flatten::new(p2_shape))
        .push(Dropout::new(0.2, stochastic_seed.wrapping_add(1)))
        .push(Dense::new(flat, 64, Init::HeNormal, rng))
        .push(Relu::new())
        .push(Dropout::new(0.2, stochastic_seed.wrapping_add(2)))
        .push(Dense::new(64, 10, Init::HeNormal, rng))
}

/// DenseNet201 analogue: wider/deeper than the 121 variant (He normal,
/// dropout 0.2), preserving the paper's size ordering.
fn densenet201_synth(rng: &mut Rng, stochastic_seed: u64) -> Sequential {
    let input = Shape3::new(3, 8, 8);
    let c1a = Conv2d::new(input, 16, 3, 1, Init::HeNormal, rng);
    let c1b = Conv2d::new(c1a.out_shape(), 16, 3, 1, Init::HeNormal, rng);
    let p1 = MaxPool2d::new(c1b.out_shape(), 2);
    let c2a = Conv2d::new(p1.out_shape(), 32, 3, 1, Init::HeNormal, rng);
    let c2b = Conv2d::new(c2a.out_shape(), 32, 3, 1, Init::HeNormal, rng);
    let p2 = MaxPool2d::new(c2b.out_shape(), 2);
    let p2_shape = p2.out_shape();
    let flat = p2_shape.len();
    Sequential::new("densenet201-synth", input.len())
        .push(c1a)
        .push(Relu::new())
        .push(c1b)
        .push(p1)
        .push(Relu::new())
        .push(c2a)
        .push(Relu::new())
        .push(c2b)
        .push(p2)
        .push(Relu::new())
        .push(Flatten::new(p2_shape))
        .push(Dropout::new(0.2, stochastic_seed.wrapping_add(1)))
        .push(Dense::new(flat, 96, Init::HeNormal, rng))
        .push(Relu::new())
        .push(Dropout::new(0.2, stochastic_seed.wrapping_add(2)))
        .push(Dense::new(96, 10, Init::HeNormal, rng))
}

/// ConvNeXtLarge fine-tuning analogue: an MLP over frozen-extractor
/// features — the largest model in the zoo, matching the paper where the
/// transfer model dominates all others in `d`.
fn transfer_head(rng: &mut Rng) -> Sequential {
    Sequential::new("convnext-head-synth", 128)
        .push(Dense::new(128, 192, Init::GlorotUniform, rng))
        .push(Relu::new())
        .push(Dense::new(192, 100, Init::GlorotUniform, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    #[test]
    fn zoo_builds_and_size_ordering_matches_paper() {
        let counts: Vec<usize> = ModelId::ALL
            .iter()
            .map(|id| id.build(1, 2).param_count())
            .collect();
        for w in counts.windows(2) {
            assert!(
                w[0] < w[1],
                "zoo param counts must preserve the paper ordering: {counts:?}"
            );
        }
        let paper: Vec<usize> = ModelId::ALL.iter().map(|id| id.paper_d()).collect();
        for w in paper.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn same_init_seed_gives_identical_replicas() {
        for id in ModelId::ALL {
            let a = id.build(42, 0).params_flat();
            let b = id.build(42, 99).params_flat(); // stochastic seed differs
            assert_eq!(a, b, "{}: init must depend only on init_seed", id.name());
        }
    }

    #[test]
    fn input_shapes_match_model_in_dim() {
        for id in ModelId::ALL {
            let m = id.build(7, 7);
            assert_eq!(m.in_dim(), id.input_shape().len(), "{}", id.name());
            assert_eq!(m.out_dim(), id.classes(), "{}", id.name());
        }
    }

    #[test]
    fn forward_backward_smoke_all_models() {
        use fda_tensor::Matrix;
        for id in ModelId::ALL {
            let mut m = id.build(3, 4);
            let mut x = Matrix::zeros(2, m.in_dim());
            fda_tensor::Rng::new(5).fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let labels = vec![0, id.classes() - 1];
            let (loss, _) = m.compute_gradients(&x, &labels);
            assert!(loss.is_finite(), "{}: loss must be finite", id.name());
            let g = m.grads_flat();
            assert!(
                g.iter().any(|&v| v != 0.0),
                "{}: gradient must be nonzero",
                id.name()
            );
        }
    }

    /// Conv models declare their channel-major native input; MLPs don't.
    #[test]
    fn input_shape_detection() {
        assert_eq!(
            ModelId::Lenet5.build(1, 1).input_shape(),
            Some(Shape3::new(1, 12, 12))
        );
        assert_eq!(
            ModelId::DenseNet121.build(1, 1).input_shape(),
            Some(Shape3::new(3, 8, 8))
        );
        assert_eq!(ModelId::TransferHead.build(1, 1).input_shape(), None);
    }

    /// The native (channel-major, by-value) training entry must be
    /// bit-identical to the sample-major public API for every zoo model —
    /// this is what lets the cluster hot loop gather batches natively
    /// without perturbing trajectories.
    #[test]
    fn native_path_matches_sample_major_path() {
        use fda_tensor::Matrix;
        for id in ModelId::ALL {
            let mut a = id.build(3, 4);
            let mut b = id.build(3, 4);
            let mut x = Matrix::zeros(3, a.in_dim());
            fda_tensor::Rng::new(5).fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let labels = vec![0, 1, id.classes() - 1];
            let (l1, c1) = a.compute_gradients(&x, &labels);
            let native = match b.input_shape() {
                Some(s) => x.to_channel_major(s.c),
                None => x.clone(),
            };
            let (l2, c2) = b.compute_gradients_native(native, &labels);
            assert_eq!(l1.to_bits(), l2.to_bits(), "{}: loss diverged", id.name());
            assert_eq!(c1, c2, "{}", id.name());
            assert_eq!(
                a.grads_flat(),
                b.grads_flat(),
                "{}: gradients diverged",
                id.name()
            );
        }
    }

    /// The in-shapes of the zoo's eight pools: LeNet, VGG16*, DenseNet121
    /// and DenseNet201, two stages each.
    const ZOO_POOLS: [(usize, usize, usize); 8] = [
        (6, 12, 12),
        (12, 6, 6),
        (8, 12, 12),
        (16, 6, 6),
        (12, 8, 8),
        (24, 4, 4),
        (16, 8, 8),
        (32, 4, 4),
    ];

    fn bits(m: &fda_tensor::Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `MaxPool2d` then `Relu` (the zoo's order) against `Relu` then
    /// `MaxPool2d`, on every pool shape of the zoo at batches 1, 3 and 32,
    /// over integer-drawn inputs: ±0 in every sign pattern over a window's
    /// four slots, subnormals, exact ties, −∞ and NaN (whole windows of
    /// them too), and finite gradients of both signs and both zeros.
    ///
    /// The training and the inference forward agree bit for bit. The input
    /// gradients agree as values; their bits differ in one place only: in
    /// a window whose max is not above 0, ReLU-first scales the gradient
    /// routed to the window's first element by its zero mask, so a negative
    /// `g` leaves `g·0 = −0.0` there, where pool-first adds `g·0` into a
    /// `+0.0` buffer and leaves `+0.0`. The conv that receives that
    /// gradient starts its sums at `+0.0`, so its parameter and input
    /// gradients agree bit for bit.
    #[test]
    fn differential_pool_then_relu_matches_relu_then_pool() {
        use fda_tensor::Matrix;
        let tiny = f32::from_bits(1);
        let palette = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            -2.0,
            tiny,
            -tiny,
            f32::from_bits(0x007f_ffff),
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let grads = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0];
        let mut rng = Rng::new(0x9001);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        for &(c, h, w) in &ZOO_POOLS {
            let shape = Shape3::new(c, h, w);
            let (oh, ow) = (h / 2, w / 2);
            for batch in [1usize, 3, 32] {
                let ctx = format!("{shape:?} batch={batch}");
                let mut x = Matrix::zeros(c, batch * h * w);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                    let (y, xx) = ((i % (h * w)) / w, i % w);
                    let window = (i / (h * w)) * oh * ow + (y / 2) * ow + xx / 2;
                    let slot = (y % 2) * 2 + xx % 2;
                    // A quarter of the windows are ±0 only, a quarter
                    // constant (ties, all-NaN and all-−∞ among them).
                    *v = match window % 4 {
                        0 if (window / 4) >> slot & 1 == 1 => -0.0,
                        0 => 0.0,
                        1 => palette[(window / 4) % palette.len()],
                        _ => palette[pick(palette.len())],
                    };
                }
                let mut dy = Matrix::zeros(c, batch * oh * ow);
                for v in dy.as_mut_slice() {
                    *v = grads[pick(grads.len())];
                }
                let (mut relu_a, mut pool_a) = (Relu::new(), MaxPool2d::new(shape, 2));
                let (mut pool_b, mut relu_b) = (MaxPool2d::new(shape, 2), Relu::new());
                let ya = pool_a.forward(relu_a.forward(x.clone(), &[], true), &[], true);
                let yb = relu_b.forward(pool_b.forward(x.clone(), &[], true), &[], true);
                assert_eq!(bits(&ya), bits(&yb), "{ctx}: forward");
                let dxa = relu_a.backward(pool_a.backward(dy.clone(), &[], &mut []), &[], &mut []);
                let dxb = pool_b.backward(relu_b.backward(dy, &[], &mut []), &[], &mut []);
                for (i, (&a, &b)) in dxa.as_slice().iter().zip(dxb.as_slice()).enumerate() {
                    let same = a.to_bits() == b.to_bits();
                    let zero_sign = a.to_bits() == (-0.0f32).to_bits() && b.to_bits() == 0;
                    assert!(same || zero_sign, "{ctx}: dx[{i}] {a:?} vs {b:?}");
                }
                let ia = pool_a.forward_inference(relu_a.forward_inference(x.clone(), &[]), &[]);
                let ib = relu_b.forward_inference(pool_b.forward_inference(x, &[]), &[]);
                assert_eq!(bits(&ia), bits(&ib), "{ctx}: inference forward");

                // The conv below the stage takes both input gradients.
                let mut conv_input = Matrix::zeros(2, batch * h * w);
                Rng::new(5).fill_normal(conv_input.as_mut_slice(), 0.0, 1.0);
                let conv_backward = |dx: Matrix| {
                    let mut conv = Conv2d::new(
                        Shape3::new(2, h, w),
                        c,
                        3,
                        1,
                        Init::HeNormal,
                        &mut Rng::new(6),
                    );
                    let p = conv.take_params();
                    let _ = conv.forward(conv_input.clone(), &p, true);
                    let mut g = vec![0.0; p.len()];
                    let dx = conv.backward(dx, &p, &mut g);
                    (g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits(&dx))
                };
                assert_eq!(conv_backward(dxa), conv_backward(dxb), "{ctx}: conv below");
            }
        }
    }

    /// A conv model of the zoo in the textbook order, `Relu` before each
    /// `MaxPool2d`, from the same layers and the same RNG draws as
    /// [`ModelId::build`]: convs in stage order, then the dense head, each
    /// dropout seeded `stochastic_seed + 1, + 2, …` ahead of its dense.
    fn relu_then_pool(id: ModelId, init_seed: u64, stochastic_seed: u64) -> Sequential {
        let (init, convs, widths, head, dropout): (_, _, &[usize], &[usize], _) = match id {
            ModelId::Lenet5 => (Init::GlorotUniform, 1, &[6, 12], &[24], false),
            ModelId::Vgg16Star => (Init::GlorotUniform, 2, &[8, 16], &[48, 32], false),
            ModelId::DenseNet121 => (Init::HeNormal, 2, &[12, 24], &[64], true),
            ModelId::DenseNet201 => (Init::HeNormal, 2, &[16, 32], &[96], true),
            ModelId::TransferHead => unreachable!("the transfer head has no pool"),
        };
        let mut rng = Rng::new(init_seed);
        let mut shape = id.input_shape();
        let mut model = Sequential::new(id.name(), shape.len());
        for &width in widths {
            for _ in 0..convs {
                let conv = Conv2d::new(shape, width, 3, 1, init, &mut rng);
                shape = conv.out_shape();
                model = model.push(conv).push(Relu::new());
            }
            let pool = MaxPool2d::new(shape, 2);
            shape = pool.out_shape();
            model = model.push(pool);
        }
        model = model.push(Flatten::new(shape));
        let mut fan_in = shape.len();
        for (i, &fan_out) in head.iter().chain([&id.classes()]).enumerate() {
            if dropout {
                model = model.push(Dropout::new(
                    0.2,
                    stochastic_seed.wrapping_add(i as u64 + 1),
                ));
            }
            model = model.push(Dense::new(fan_in, fan_out, init, &mut rng));
            if i < head.len() {
                model = model.push(Relu::new());
            }
            fan_in = fan_out;
        }
        model
    }

    /// Every conv model of the zoo against its textbook-order twin, bit
    /// for bit: parameters, loss, correct count and gradients of a training
    /// step (dropout masks included), and `evaluate_batched` accuracy.
    #[test]
    fn differential_zoo_models_match_relu_then_pool_builders() {
        use fda_tensor::Matrix;
        for id in [
            ModelId::Lenet5,
            ModelId::Vgg16Star,
            ModelId::DenseNet121,
            ModelId::DenseNet201,
        ] {
            let mut zoo = id.build(11, 12);
            let mut twin = relu_then_pool(id, 11, 12);
            assert_eq!(zoo.params_flat(), twin.params_flat(), "{}: init", id.name());
            let mut rng = Rng::new(13);
            for batch in [1usize, 32] {
                let mut x = Matrix::zeros(batch, zoo.in_dim());
                rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
                let labels: Vec<usize> = (0..batch).map(|i| i % id.classes()).collect();
                let (la, ca) = zoo.compute_gradients(&x, &labels);
                let (lb, cb) = twin.compute_gradients(&x, &labels);
                let ctx = format!("{} batch={batch}", id.name());
                assert_eq!((la.to_bits(), ca), (lb.to_bits(), cb), "{ctx}: loss");
                let g = |m: &Sequential| m.grads_flat().iter().map(|v| v.to_bits()).collect();
                let (ga, gb): (Vec<u32>, Vec<u32>) = (g(&zoo), g(&twin));
                assert_eq!(ga, gb, "{ctx}: gradients");
            }
            let mut x = Matrix::zeros(300, zoo.in_dim());
            rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let labels: Vec<usize> = (0..300).map(|i| i % id.classes()).collect();
            let eval = |m: &mut Sequential| {
                let (loss, acc) = m.evaluate(&x, &labels);
                let batched = m.evaluate_batched(&x, &labels, 128);
                (loss.to_bits(), acc.to_bits(), batched.to_bits())
            };
            assert_eq!(eval(&mut zoo), eval(&mut twin), "{}: evaluation", id.name());
        }
    }

    #[test]
    fn param_counts_are_documented_scale() {
        // Keep the doc table in this module honest.
        let d = |id: ModelId| id.build(0, 0).param_count();
        assert!((3_000..5_000).contains(&d(ModelId::Lenet5)));
        assert!((10_000..16_000).contains(&d(ModelId::Vgg16Star)));
        assert!((14_000..20_000).contains(&d(ModelId::DenseNet121)));
        assert!((25_000..40_000).contains(&d(ModelId::DenseNet201)));
        assert!((40_000..50_000).contains(&d(ModelId::TransferHead)));
    }
}
