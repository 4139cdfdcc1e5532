//! Inverted dropout.
//!
//! The paper adds dropout at rate 0.2 to the DenseNet models (§4.1). We use
//! inverted dropout (scaling by `1/(1−p)` at train time) so evaluation is a
//! no-op. Each `Dropout` owns its RNG stream, seeded at construction from
//! the model's stochastic seed, so workers' masks are independent but
//! reproducible.

use crate::layer::Layer;
use fda_tensor::{Matrix, Rng};

/// Inverted dropout with drop probability `p`.
pub struct Dropout {
    p: f32,
    rng: Rng,
    // Scale applied to kept units (cached per forward for backward).
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Dropout {
            p,
            rng: Rng::new(seed),
            mask: Vec::new(),
        }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut x: Matrix, _p: &[f32], train: bool) -> Matrix {
        if !train || self.p == 0.0 {
            self.mask.clear();
            self.mask.resize(x.len(), 1.0);
            return x;
        }
        let keep = 1.0 - self.p;
        let inv_keep = 1.0 / keep;
        self.mask.clear();
        self.mask.reserve(x.len());
        for v in x.as_mut_slice() {
            let scale = if self.rng.bernoulli(keep as f64) {
                inv_keep
            } else {
                0.0
            };
            self.mask.push(scale);
            *v *= scale;
        }
        x
    }

    /// The identity, with no all-ones mask written (and the old mask
    /// dropped).
    fn forward_inference(&mut self, x: Matrix, _p: &[f32]) -> Matrix {
        self.mask.clear();
        x
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(
            dy.len(),
            self.mask.len(),
            "dropout: backward without matching forward"
        );
        let mut dx = dy;
        for (v, &m) in dx.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        dx
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut layer = Dropout::new(0.5, 42);
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = layer.forward(x.clone(), &[], false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn train_mode_zeroes_and_scales() {
        let mut layer = Dropout::new(0.5, 7);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = layer.forward(x.clone(), &[], true);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let kept = y
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + kept, 1000, "outputs are either 0 or 1/(1-p)");
        assert!(zeros > 350 && zeros < 650, "drop rate should be near 0.5");
    }

    #[test]
    fn expected_value_preserved() {
        let mut layer = Dropout::new(0.2, 11);
        let x = Matrix::from_vec(1, 20_000, vec![1.0; 20_000]);
        let y = layer.forward(x.clone(), &[], true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps E[y]=x");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut layer = Dropout::new(0.5, 3);
        let x = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let y = layer.forward(x.clone(), &[], true);
        let dy = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let dx = layer.backward(dy, &[], &mut []);
        assert_eq!(y.as_slice(), dx.as_slice(), "mask shared by fwd/bwd");
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut layer = Dropout::new(0.0, 5);
        let x = Matrix::from_vec(1, 8, (0..8).map(|i| i as f32).collect());
        let y = layer.forward(x.clone(), &[], true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn invalid_rate_panics() {
        let _ = Dropout::new(1.0, 0);
    }
}
