//! Fully-connected (dense) layer and the [`Flatten`] layout boundary.
//!
//! Dense layers operate on **sample-major** activations (`batch × features`
//! rows). A conv stack runs channel-major (see [`crate::layer`]), so the
//! transition into the dense head goes through exactly one [`Flatten`],
//! which converts `c × batch·spatial` back to `batch × c·spatial` — the
//! single place in a model where the activation layout changes after entry.

use crate::init::Init;
use crate::layer::{Layer, Shape3};
use fda_tensor::matrix::{self, MatMut, MatRef, Scratch};
use fda_tensor::{Matrix, Rng};

/// The conv→dense layout boundary: converts a channel-major activation
/// (`c × batch·spatial`) into the sample-major `batch × c·spatial` matrix a
/// [`Dense`] layer expects, and converts the gradient back on the way down.
///
/// Feature order within each flattened row is `(channel, y, x)` — the same
/// order datasets use — so the flattened width equals
/// [`Shape3::len`] and wiring stays layout-blind.
pub struct Flatten {
    shape: Shape3,
    batch: usize,
}

impl Flatten {
    /// Creates a flatten boundary for the given spatial input shape.
    pub fn new(shape: Shape3) -> Self {
        assert!(!shape.is_empty(), "flatten: empty shape {shape:?}");
        Flatten { shape, batch: 0 }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Matrix, _p: &[f32], _train: bool) -> Matrix {
        self.batch = self.shape.batch_of(&x, "flatten input");
        x.to_sample_major(self.batch)
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(
            dy.cols(),
            self.shape.len(),
            "flatten: grad width {} != flattened dims {} of {:?}",
            dy.cols(),
            self.shape.len(),
            self.shape
        );
        assert_eq!(
            dy.rows(),
            self.batch,
            "flatten: backward without matching forward"
        );
        dy.to_channel_major(self.shape.c)
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(
            in_dim,
            self.shape.len(),
            "flatten: wired to wrong input width (got {in_dim}, want {} for {:?})",
            self.shape.len(),
            self.shape
        );
        in_dim
    }

    fn in_shape3(&self) -> Option<Shape3> {
        Some(self.shape)
    }
}

/// A dense layer `y = x·W + b` with `W ∈ R^{in×out}`, `b ∈ R^{out}`.
///
/// Its parameter window is `W` (row-major) then `b`. Gradients accumulate
/// into the gradient window across `backward` calls; the model zeroes it
/// once per step.
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// The initial `W` then `b` until [`Layer::take_params`] moves them out.
    init: Vec<f32>,
    cache_x: Matrix,
    // GEMM packing arena, reused across steps.
    scratch: Scratch,
    // Wᵀ staging buffer for the input-gradient GEMM (refreshed each
    // backward; reused allocation).
    w_t: Matrix,
}

impl Dense {
    /// Creates a dense layer with the given initializer.
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng) -> Self {
        let mut params = vec![0.0; in_dim * out_dim + out_dim];
        init.fill(&mut params[..in_dim * out_dim], in_dim, out_dim, rng);
        Dense {
            in_dim,
            out_dim,
            init: params,
            cache_x: Matrix::zeros(0, 0),
            scratch: Scratch::new(),
            w_t: Matrix::zeros(0, 0),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Where `b` starts in a parameter or gradient window of `len` floats.
    fn w_len(&self, len: usize) -> usize {
        assert_eq!(len, (self.in_dim + 1) * self.out_dim, "dense: window size");
        self.in_dim * self.out_dim
    }

    /// `y = x·W + b`.
    fn affine(&mut self, x: &Matrix, p: &[f32]) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "dense: input width mismatch");
        let (w, b) = p.split_at(self.w_len(p.len()));
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        let w = MatRef::new(self.in_dim, self.out_dim, w);
        matrix::gemm_accumulate_with(x.view(), w, y.view_mut(), &mut self.scratch);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v += b[c];
            }
        }
        y
    }

    /// Checks an incoming gradient against the cached input and
    /// accumulates `dW += xᵀ · dy`, `db += column sums of dy` into `g`.
    fn accumulate_param_grads(&mut self, dy: &Matrix, g: &mut [f32]) {
        assert_eq!(dy.cols(), self.out_dim, "dense: grad width mismatch");
        assert_eq!(
            dy.rows(),
            self.cache_x.rows(),
            "dense: backward without matching forward"
        );
        let (dw, db) = g.split_at_mut(self.w_len(g.len()));
        let dw = MatMut::new(self.in_dim, self.out_dim, dw);
        matrix::gemm_at_b_accumulate_with(self.cache_x.view(), dy.view(), dw, &mut self.scratch);
        for r in 0..dy.rows() {
            let row = dy.row(r);
            for (c, v) in row.iter().enumerate() {
                db[c] += v;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: Matrix, p: &[f32], _train: bool) -> Matrix {
        let y = self.affine(&x, p);
        // Take ownership of the input as the backward cache — no copy.
        self.cache_x = x;
        y
    }

    /// Drops the input instead of caching it (and drops any older cache, so
    /// a stray `backward` fails its batch check).
    fn forward_inference(&mut self, x: Matrix, p: &[f32]) -> Matrix {
        self.cache_x = Matrix::zeros(0, 0);
        self.affine(&x, p)
    }

    fn backward(&mut self, dy: Matrix, p: &[f32], g: &mut [f32]) -> Matrix {
        self.accumulate_param_grads(&dy, g);
        // dx = dy · Wᵀ. Materializing Wᵀ (tiny, reused buffer) turns this
        // into a contiguous-B product eligible for the streaming mid
        // kernel, which beats the transpose-packed path at dense-layer
        // sizes.
        let (w, _) = p.split_at(self.w_len(p.len()));
        if self.w_t.rows() != self.out_dim {
            self.w_t = Matrix::zeros(self.out_dim, self.in_dim);
        }
        for (r, row) in w.chunks_exact(self.out_dim).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                self.w_t.set(c, r, v);
            }
        }
        let mut dx = Matrix::zeros(dy.rows(), self.in_dim);
        matrix::gemm_accumulate_with(dy.view(), self.w_t.view(), dx.view_mut(), &mut self.scratch);
        dx
    }

    /// Skips the `Wᵀ` materialisation and the `dy · Wᵀ` GEMM.
    fn backward_params_only(&mut self, dy: Matrix, _p: &[f32], g: &mut [f32]) {
        self.accumulate_param_grads(&dy, g);
    }

    fn take_params(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(in_dim, self.in_dim, "dense: wired to wrong input width");
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut rng = Rng::new(0);
        let mut layer = Dense::new(2, 2, Init::GlorotUniform, &mut rng);
        // Known weights: W = [[1,2],[3,4]], b = [10, 20].
        let p = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0];
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(x.clone(), &p, true);
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut rng = Rng::new(1);
        let mut layer = Dense::new(3, 2, Init::HeNormal, &mut rng);
        let p = layer.take_params();
        let mut g = vec![0.0; p.len()];
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.1).collect());
        let _ = layer.forward(x.clone(), &p, true);
        let dy = Matrix::from_vec(4, 2, vec![1.0; 8]);
        let dx = layer.backward(dy, &p, &mut g);
        assert_eq!(dx.rows(), 4);
        assert_eq!(dx.cols(), 3);
        // Bias gradient is the column sum of dy = 4 for each output.
        assert_eq!(&g[6..], &[4.0, 4.0]);
    }

    #[test]
    fn zero_grads_resets() {
        let mut rng = Rng::new(2);
        let mut m =
            crate::Sequential::new("dense", 2).push(Dense::new(2, 2, Init::HeNormal, &mut rng));
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let _ = m.forward(&x, true);
        let _ = m.backward(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert!(m.grads_flat().iter().any(|&v| v != 0.0));
        m.zero_grads();
        assert!(m.grads_flat().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn flatten_round_trips_layout() {
        let shape = Shape3::new(2, 2, 3);
        let mut flat = Flatten::new(shape);
        // Channel-major: 2 channel rows × 2 sample blocks of 6.
        let mut x = Matrix::zeros(2, 12);
        Rng::new(5).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let y = flat.forward(x.clone(), &[], true);
        assert_eq!((y.rows(), y.cols()), (2, 12), "flatten emits sample rows");
        // Sample 0's features are (c0 plane, c1 plane) in dataset order.
        assert_eq!(&y.row(0)[..6], &x.row(0)[..6]);
        assert_eq!(&y.row(0)[6..], &x.row(1)[..6]);
        let dx = flat.backward(y.clone(), &[], &mut []);
        assert_eq!(dx.as_slice(), x.as_slice(), "backward is the inverse");
        assert_eq!(flat.out_dim(12), 12);
    }

    #[test]
    #[should_panic(expected = "not channel-major")]
    fn flatten_mismatched_dims_panics() {
        // A sample-major batch arriving at Flatten (the historical silent
        // wrong-answer) must fail loudly.
        let mut flat = Flatten::new(Shape3::new(3, 2, 2));
        let _ = flat.forward(Matrix::zeros(4, 12), &[], true);
    }

    #[test]
    fn param_count_matches_slices() {
        let mut rng = Rng::new(3);
        let mut layer = Dense::new(5, 7, Init::GlorotUniform, &mut rng);
        assert_eq!(layer.take_params().len(), 5 * 7 + 7);
        assert!(layer.take_params().is_empty(), "handed over once");
    }
}
