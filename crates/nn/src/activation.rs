//! Element-wise activation layers.
//!
//! Hot-path discipline: masks are stored as `f32` multipliers (not
//! `Vec<bool>`) in buffers that are resized, never re-pushed, so both the
//! forward max and the backward multiply compile to straight-line
//! branch-free SIMD loops.

use crate::layer::Layer;
use fda_tensor::Matrix;

/// Rectified linear unit `y = max(0, x)`.
#[derive(Default)]
pub struct Relu {
    // Forward gate as a multiplier: 1.0 where x > 0, else 0.0. Reused
    // across steps.
    mask: Vec<f32>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Matrix, _p: &[f32], _train: bool) -> Matrix {
        self.mask.resize(x.len(), 0.0);
        for (v, m) in x.as_mut_slice().iter_mut().zip(self.mask.iter_mut()) {
            *m = if *v > 0.0 { 1.0 } else { 0.0 };
            *v = v.max(0.0);
        }
        x
    }

    /// No mask is written (and the old one is dropped).
    fn forward_inference(&mut self, mut x: Matrix, _p: &[f32]) -> Matrix {
        self.mask.clear();
        for v in x.as_mut_slice() {
            *v = v.max(0.0);
        }
        x
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(
            dy.len(),
            self.mask.len(),
            "relu: backward without matching forward"
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

/// Hyperbolic tangent activation.
#[derive(Default)]
pub struct Tanh {
    // Cache of the forward output (tanh'(x) = 1 − y²).
    y: Vec<f32>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, mut x: Matrix, _p: &[f32], _train: bool) -> Matrix {
        for v in x.as_mut_slice() {
            *v = v.tanh();
        }
        self.y.clear();
        self.y.extend_from_slice(x.as_slice());
        x
    }

    /// No output cache is written (and the old one is dropped).
    fn forward_inference(&mut self, mut x: Matrix, _p: &[f32]) -> Matrix {
        self.y.clear();
        for v in x.as_mut_slice() {
            *v = v.tanh();
        }
        x
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(
            dy.len(),
            self.y.len(),
            "tanh: backward without matching forward"
        );
        let mut dx = dy;
        for (v, &yv) in dx.as_mut_slice().iter_mut().zip(&self.y) {
            *v *= 1.0 - yv * yv;
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
    fn relu_forward_backward() {
        let mut layer = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = layer.forward(x.clone(), &[], true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = layer.backward(dy, &[], &mut []);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut layer = Tanh::new();
        let x = Matrix::from_vec(1, 1, vec![0.0]);
        let _ = layer.forward(x.clone(), &[], true);
        let dx = layer.backward(Matrix::from_vec(1, 1, vec![1.0]), &[], &mut []);
        assert!((dx.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_preserves_shape() {
        let mut layer = Relu::new();
        let x = Matrix::zeros(3, 5);
        let y = layer.forward(x.clone(), &[], false);
        assert_eq!((y.rows(), y.cols()), (3, 5));
        assert_eq!(layer.out_dim(5), 5);
    }
}
