//! The [`Sequential`] model container and its parameter arena.

use crate::layer::{Layer, Shape3};
use crate::loss::{argmax, SoftmaxCrossEntropy};
use fda_tensor::Matrix;
use std::ops::Range;

/// A feed-forward stack of layers over one flat parameter arena.
///
/// Built with [`Sequential::new`] + [`Sequential::push`]; wiring is
/// validated eagerly (each layer's expected input width must match the
/// previous layer's output width).
///
/// # Parameter arena
///
/// The model owns its parameters as one `d`-length vector `w` and its
/// gradients as a second one of the same layout: layers in push order,
/// each as `W` (row-major) then `b`. Each layer borrows its window of both
/// per call. [`Sequential::params`] is `w` itself, and
/// [`Sequential::arena_mut`] lends it to an in-place optimizer step.
///
/// # Activation layout
///
/// The public API is **sample-major**: batches arrive as `batch × features`
/// rows, logits leave the same way. When the stack opens with a spatial
/// layer (conv/pool — detected via [`Layer::in_shape3`] on the first
/// `push`), the model's *native* input layout is **channel-major**
/// (`c × batch·spatial`): [`Sequential::forward`] converts once at entry
/// (for single-channel inputs this is a zero-cost reshape of the clone it
/// performed anyway), and the conv stack runs channel-major until a
/// [`crate::dense::Flatten`] / [`crate::pool::GlobalAvgPool`] converts
/// back. Hot callers that can produce channel-major batches directly (see
/// `fda_data::Dataset::gather_channel_major`) skip even that by using
/// [`Sequential::forward_native`] / [`Sequential::compute_gradients_native`],
/// which also take the batch by value instead of cloning.
pub struct Sequential {
    in_dim: usize,
    out_dim: usize,
    /// `Some` iff the first layer consumes channel-major activations; the
    /// model input is converted at entry in that case.
    input_shape: Option<Shape3>,
    /// Each layer with its window of `params` / `grads`.
    layers: Vec<(Box<dyn Layer>, Range<usize>)>,
    params: Vec<f32>,
    grads: Vec<f32>,
    name: String,
}

impl Sequential {
    /// Creates an empty model that accepts `in_dim` features per sample.
    pub fn new(name: impl Into<String>, in_dim: usize) -> Self {
        Sequential {
            in_dim,
            out_dim: in_dim,
            input_shape: None,
            layers: Vec::new(),
            params: Vec::new(),
            grads: Vec::new(),
            name: name.into(),
        }
    }

    /// Appends a layer, validating that its expected input width matches,
    /// and moves its initial parameters to the end of the arena.
    ///
    /// # Panics
    /// Panics (inside the layer's `out_dim`) if the wiring is inconsistent.
    #[must_use]
    pub fn push(mut self, mut layer: impl Layer + 'static) -> Self {
        self.out_dim = layer.out_dim(self.out_dim);
        if self.layers.is_empty() {
            self.input_shape = layer.in_shape3();
        }
        let start = self.params.len();
        self.params.extend(layer.take_params());
        self.grads.resize(self.params.len(), 0.0);
        self.layers
            .push((Box::new(layer), start..self.params.len()));
        self
    }

    /// The spatial input shape, `Some` iff this model's native input layout
    /// is channel-major (its first layer is a conv/pool layer).
    pub fn input_shape(&self) -> Option<Shape3> {
        self.input_shape
    }

    /// Converts a sample-major batch into this model's native input layout
    /// (allocating — the hot path hands [`Sequential::forward_native`] an
    /// owned batch instead).
    fn native_input(&self, x: &Matrix) -> Matrix {
        self.native_rows(x, 0..x.rows())
    }

    /// Gathers the sample rows `rows` of a sample-major set into one batch
    /// in the native input layout — a single copy, whichever the layout.
    fn native_rows(&self, x: &Matrix, rows: std::ops::Range<usize>) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "model: input width mismatch");
        match self.input_shape {
            Some(s) => x.rows_to_channel_major(rows, s.c),
            None => Matrix::from_vec(
                rows.len(),
                x.cols(),
                x.as_slice()[rows.start * x.cols()..rows.end * x.cols()].to_vec(),
            ),
        }
    }

    /// Model name (zoo identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width (number of classes for classifiers).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total number of scalar parameters `d`.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The parameter vector `w` (the arena itself, no copy).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The parameter arena, writable, beside the gradients of the last
    /// `compute_gradients*` call: what an in-place optimizer step takes.
    pub fn arena_mut(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.params, &self.grads)
    }

    /// Forward pass through every layer (sample-major input batch; the
    /// entry conversion to the native layout happens here if needed).
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let h = self.native_input(x);
        self.forward_native(h, train)
    }

    /// Forward pass over a batch **already in this model's native input
    /// layout** (channel-major `c × batch·spatial` when
    /// [`Sequential::input_shape`] is `Some`, sample-major rows otherwise).
    /// Takes the batch by value — no clone, no conversion; this is the hot
    /// training-loop entry.
    ///
    /// # Panics
    /// Panics if the batch does not match the native layout.
    pub fn forward_native(&mut self, x: Matrix, train: bool) -> Matrix {
        self.assert_native(&x);
        let mut h = x;
        for (layer, span) in &mut self.layers {
            h = layer.forward(h, &self.params[span.clone()], train);
        }
        h
    }

    /// Eval-mode logits of a native-layout batch through
    /// [`Layer::forward_inference`]: bit-identical to
    /// `forward_native(x, false)`, with no backward cache written. The
    /// engine of [`Sequential::evaluate`] and
    /// [`Sequential::evaluate_batched`]; a `backward` may not follow it.
    fn infer_native(&mut self, x: Matrix) -> Matrix {
        self.assert_native(&x);
        let mut h = x;
        for (layer, span) in &mut self.layers {
            h = layer.forward_inference(h, &self.params[span.clone()]);
        }
        h
    }

    /// The entry layout check shared by every forward.
    fn assert_native(&self, x: &Matrix) {
        match self.input_shape {
            Some(s) => {
                let _ = s.batch_of(x, "model native input");
            }
            None => assert_eq!(x.cols(), self.in_dim, "model: input width mismatch"),
        }
    }

    /// Backward pass; parameter gradients accumulate into the gradient
    /// arena.
    ///
    /// The returned input gradient is in the model's **native** input
    /// layout (channel-major for spatial models). The training entry points
    /// (`compute_gradients*`) do not come through here: nothing reads the
    /// model's input gradient there, so they stop one layer short (see
    /// [`Layer::backward_params_only`]).
    pub fn backward(&mut self, dy: Matrix) -> Matrix {
        let mut g = dy;
        for (layer, span) in self.layers.iter_mut().rev() {
            let (p, dp) = (&self.params[span.clone()], &mut self.grads[span.clone()]);
            g = layer.backward(g, p, dp);
        }
        g
    }

    /// [`Sequential::backward`] minus the input gradient of the bottom
    /// layer; parameter gradients are bit-identical.
    fn backward_params_only(&mut self, dy: Matrix) {
        let Some(((first, span), rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = dy;
        for (layer, span) in rest.iter_mut().rev() {
            let (p, dp) = (&self.params[span.clone()], &mut self.grads[span.clone()]);
            g = layer.backward(g, p, dp);
        }
        let (p, dp) = (&self.params[span.clone()], &mut self.grads[span.clone()]);
        first.backward_params_only(g, p, dp);
    }

    /// Softmax-CE loss of `logits` and the parameter-gradient backward
    /// pass: the shared tail of the `compute_gradients*` entry points.
    fn loss_and_gradients(&mut self, logits: Matrix, labels: &[usize]) -> (f32, usize) {
        let (loss, dlogits, correct) = SoftmaxCrossEntropy.forward_owned(logits, labels);
        self.backward_params_only(dlogits);
        (loss, correct)
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Copies the flat parameter vector into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != self.param_count()`.
    pub fn copy_params_to(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.param_count(),
            "copy_params_to: size mismatch"
        );
        out.copy_from_slice(&self.params);
    }

    /// Returns the flat parameter vector (allocating).
    pub fn params_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Loads a flat parameter vector into the arena.
    ///
    /// # Panics
    /// Panics if `src.len() != self.param_count()`.
    pub fn load_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_count(), "load_params: size mismatch");
        self.params.copy_from_slice(src);
    }

    /// Returns the flat gradient vector (allocating).
    pub fn grads_flat(&self) -> Vec<f32> {
        self.grads.clone()
    }

    /// One supervised step's worth of gradients: forward in train mode,
    /// softmax-CE loss, backward. Gradients are zeroed first, so after this
    /// call the gradient arena holds exactly this batch's gradient.
    ///
    /// Returns `(mean loss, #correct)`.
    pub fn compute_gradients(&mut self, x: &Matrix, labels: &[usize]) -> (f32, usize) {
        let native = self.native_input(x);
        self.compute_gradients_native(native, labels)
    }

    /// [`Sequential::compute_gradients`] over a batch already in the native
    /// input layout, taken by value (the hot training-loop entry — no
    /// clone, no layout conversion).
    pub fn compute_gradients_native(&mut self, x: Matrix, labels: &[usize]) -> (f32, usize) {
        self.zero_grads();
        let logits = self.forward_native(x, true);
        self.loss_and_gradients(logits, labels)
    }

    /// Like [`Sequential::compute_gradients`] but with training-only
    /// stochasticity disabled: the forward pass runs in **eval** mode, so
    /// dropout is the identity. The gradient checker uses this so the
    /// analytic gradients and the finite-difference probes (which evaluate
    /// the eval-mode loss) measure the same deterministic function.
    pub fn compute_gradients_eval(&mut self, x: &Matrix, labels: &[usize]) -> (f32, usize) {
        self.zero_grads();
        let logits = self.forward(x, false);
        self.loss_and_gradients(logits, labels)
    }

    /// Evaluates mean loss and accuracy on a labelled set (eval mode).
    pub fn evaluate(&mut self, x: &Matrix, labels: &[usize]) -> (f32, f32) {
        let logits = self.infer_native(self.native_input(x));
        let (loss, _, correct) = SoftmaxCrossEntropy.forward_owned(logits, labels);
        (loss, correct as f32 / labels.len() as f32)
    }

    /// Evaluates accuracy in mini-batches (bounds peak memory on big sets).
    pub fn evaluate_batched(&mut self, x: &Matrix, labels: &[usize], batch: usize) -> f32 {
        assert!(batch > 0, "evaluate_batched: batch must be positive");
        assert_eq!(x.rows(), labels.len(), "evaluate_batched: size mismatch");
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < x.rows() {
            let end = (start + batch).min(x.rows());
            let logits = self.infer_native(self.native_rows(x, start..end));
            for (i, r) in (start..end).enumerate() {
                if argmax(logits.row(i)) == labels[r] {
                    correct += 1;
                }
            }
            start = end;
        }
        correct as f32 / labels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::init::Init;
    use fda_tensor::Rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new("tiny", 4)
            .push(Dense::new(4, 8, Init::GlorotUniform, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 3, Init::GlorotUniform, &mut rng))
    }

    #[test]
    fn param_roundtrip() {
        let mut m = tiny_mlp(1);
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.param_count());
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut perturbed = flat.clone();
        for v in &mut perturbed {
            *v += 1.0;
        }
        m.load_params(&perturbed);
        assert_eq!(m.params_flat(), perturbed);
        m.load_params(&flat);
        assert_eq!(m.params_flat(), flat);
    }

    #[test]
    fn identical_seeds_identical_models() {
        let a = tiny_mlp(9).params_flat();
        let b = tiny_mlp(9).params_flat();
        assert_eq!(a, b, "same seed must give identical initialization");
    }

    #[test]
    fn gradient_layout_matches_params() {
        let mut m = tiny_mlp(2);
        let x = Matrix::from_vec(2, 4, vec![0.1; 8]);
        let (_, _) = m.compute_gradients(&x, &[0, 1]);
        let g = m.grads_flat();
        assert_eq!(g.len(), m.param_count());
        assert!(g.iter().any(|&v| v != 0.0), "gradients should be nonzero");
    }

    #[test]
    fn compute_gradients_zeroes_previous() {
        let mut m = tiny_mlp(3);
        let x = Matrix::from_vec(1, 4, vec![1.0; 4]);
        let _ = m.compute_gradients(&x, &[0]);
        let g1 = m.grads_flat();
        let _ = m.compute_gradients(&x, &[0]);
        let g2 = m.grads_flat();
        for (a, b) in g1.iter().zip(&g2) {
            assert!(
                (a - b).abs() < 1e-6,
                "gradients must not accumulate across calls"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = tiny_mlp(4);
        let x = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0,
            ],
        );
        let labels = vec![0, 1, 2, 0];
        let (loss0, _) = m.compute_gradients(&x, &labels);
        // Plain gradient descent for a few steps.
        for _ in 0..200 {
            let (_, _) = m.compute_gradients(&x, &labels);
            let g = m.grads_flat();
            let mut p = m.params_flat();
            for (pv, gv) in p.iter_mut().zip(&g) {
                *pv -= 0.5 * gv;
            }
            m.load_params(&p);
        }
        let (loss1, _) = m.compute_gradients(&x, &labels);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1} should shrink");
    }

    #[test]
    fn evaluate_batched_matches_full() {
        let mut m = tiny_mlp(5);
        let mut rng = Rng::new(77);
        let mut x = Matrix::zeros(10, 4);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let (_, acc_full) = m.evaluate(&x, &labels);
        let acc_batched = m.evaluate_batched(&x, &labels, 3);
        assert!((acc_full - acc_batched).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mut m = tiny_mlp(6);
        let _ = m.forward(&Matrix::zeros(1, 5), false);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn random_batch(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut x = Matrix::zeros(rows, cols);
        Rng::new(seed).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        x
    }

    /// Predicted class per row, through the inference forward.
    fn predict(m: &mut Sequential, x: &Matrix) -> Vec<usize> {
        let logits = m.infer_native(m.native_input(x));
        (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
    }

    /// (c) The training step stops one layer short of a full backward; its
    /// parameter gradients must be those of the full chain (input gradient
    /// computed), bit for bit, for every zoo model.
    #[test]
    fn differential_training_step_matches_full_backward_chain() {
        use crate::zoo::ModelId;
        for id in ModelId::ALL {
            let mut step = id.build(3, 4);
            let mut full = id.build(3, 4);
            let x = random_batch(5, step.in_dim(), 0xC0DE);
            let labels: Vec<usize> = (0..5).map(|i| (i * 7) % id.classes()).collect();
            let native = step.native_input(&x);
            let (loss, correct) = step.compute_gradients_native(native.clone(), &labels);

            full.zero_grads();
            let logits = full.forward_native(native.clone(), true);
            let (want_loss, dlogits, want_correct) = SoftmaxCrossEntropy.forward(&logits, &labels);
            let dx = full.backward(dlogits);
            assert_eq!(
                (dx.rows(), dx.cols()),
                (native.rows(), native.cols()),
                "{}: the full chain yields the input gradient",
                id.name()
            );
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{}", id.name());
            assert_eq!(correct, want_correct, "{}", id.name());
            assert_eq!(
                bits(&step.grads_flat()),
                bits(&full.grads_flat()),
                "{}: parameter gradients diverged",
                id.name()
            );
        }
    }

    /// (d) The inference forward gives the eval-mode logits bit for bit on
    /// every zoo model — full chunks and a ragged last one — and leaves no
    /// cache a later eval-mode gradient could pick up.
    #[test]
    fn differential_inference_forward_matches_eval_forward() {
        use crate::zoo::ModelId;
        for id in ModelId::ALL {
            let mut infer = id.build(5, 6);
            let mut eval = id.build(5, 6);
            let (n, chunk) = (2 * 7 + 3, 7);
            let x = random_batch(n, infer.in_dim(), 0xE7A1);
            let labels: Vec<usize> = (0..n).map(|i| (i * 5) % id.classes()).collect();
            let mut classes = Vec::with_capacity(n);
            for start in (0..n).step_by(chunk) {
                let rows = start..(start + chunk).min(n);
                let got = infer.infer_native(infer.native_rows(&x, rows.clone()));
                let mut xb = Matrix::zeros(rows.len(), x.cols());
                for (i, r) in rows.clone().enumerate() {
                    xb.row_mut(i).copy_from_slice(x.row(r));
                }
                let want = eval.forward(&xb, false);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "{}: logits of rows {rows:?}",
                    id.name()
                );
                classes.extend((0..rows.len()).map(|i| argmax(want.row(i))));
            }
            let correct = classes.iter().zip(&labels).filter(|(c, l)| c == l).count();
            let acc = infer.evaluate_batched(&x, &labels, chunk);
            assert_eq!(acc, correct as f32 / n as f32, "{}", id.name());
            let whole = eval.forward(&x, false);
            let classes: Vec<usize> = (0..n).map(|r| argmax(whole.row(r))).collect();
            assert_eq!(predict(&mut infer, &x), classes, "{}", id.name());

            // An eval-mode gradient right after inference passes (of
            // another batch size) equals one on a model that never ran
            // inference.
            let xg = random_batch(4, infer.in_dim(), 0x6AAD);
            let lg: Vec<usize> = (0..4).map(|i| (i * 3) % id.classes()).collect();
            let got = infer.compute_gradients_eval(&xg, &lg);
            let want = eval.compute_gradients_eval(&xg, &lg);
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{}", id.name());
            assert_eq!(
                bits(&infer.grads_flat()),
                bits(&eval.grads_flat()),
                "{}: stale cache after inference",
                id.name()
            );
        }
    }

    /// (d, continued) The finite-difference check still holds on a model
    /// whose last forward was an inference pass.
    #[test]
    fn differential_gradcheck_after_inference_pass() {
        let mut m = crate::zoo::ModelId::Lenet5.build(17, 99);
        let warm = random_batch(9, m.in_dim(), 1);
        let _ = predict(&mut m, &warm);
        let x = random_batch(4, m.in_dim(), 2);
        let labels = vec![0, 3, 6, 9];
        let stride = (m.param_count() / 220).max(1);
        let report = crate::gradcheck::check_param_gradients(&mut m, &x, &labels, 3e-3, stride);
        assert!(
            report.quantile(0.90) < 5e-2,
            "p90 {}",
            report.quantile(0.90)
        );
        assert!(report.frac_above(2e-1) < 0.03, "gross errors");
    }

    /// A backward straight after an inference pass has no cache to consume
    /// and must say so.
    #[test]
    #[should_panic(expected = "backward without matching forward")]
    fn backward_after_inference_pass_panics() {
        let mut m = tiny_mlp(8);
        let x = random_batch(3, 4, 3);
        let logits = m.forward(&x, true);
        let _ = predict(&mut m, &x);
        let _ = m.backward(logits);
    }
}
