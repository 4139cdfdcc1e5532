//! The [`Layer`] trait and shape metadata.
//!
//! Activations flow between layers as a row-major [`Matrix`] in one of two
//! layouts:
//!
//! * **sample-major** — rows are samples, columns the flattened feature
//!   dimensions ordered `(channel, y, x)`. This is the layout of datasets,
//!   dense stacks, logits, and the model's public API.
//! * **channel-major** — rows are channels, columns are `batch·spatial`
//!   grouped into per-sample blocks (`col = sample·spatial + y·w + x`).
//!   This is the layout the im2col GEMM produces (`out_c × batch·spatial`),
//!   so the conv stack ([`crate::conv::Conv2d`],
//!   [`crate::pool::MaxPool2d`]) runs on it end-to-end with no per-layer
//!   gather/scatter staging.
//!
//! The layout boundary is explicit: [`crate::model::Sequential`] converts
//! the sample-major input batch once at entry when the stack opens with a
//! spatial layer (see [`Layer::in_shape3`]), and [`crate::dense::Flatten`]
//! (or [`crate::pool::GlobalAvgPool`], which collapses the spatial
//! dimensions itself) converts back exactly once at the conv→dense
//! boundary. Element-wise layers (ReLU, tanh, dropout) are layout-agnostic.
//! Layers that care about the spatial structure carry a [`Shape3`] fixed at
//! construction and assert the incoming activation shape, so a wiring
//! mistake fails loudly instead of silently rearranging features.

use fda_tensor::Matrix;

/// A `channels × height × width` activation shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape3 {
    /// Number of channels.
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl Shape3 {
    /// Creates a shape.
    pub const fn new(c: usize, h: usize, w: usize) -> Self {
        Shape3 { c, h, w }
    }

    /// Flattened length `c·h·w`.
    pub const fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Spatial plane size `h·w` (the per-sample block width of a
    /// channel-major activation row).
    pub const fn spatial(&self) -> usize {
        self.h * self.w
    }

    /// Validates that `x` is a channel-major activation batch of this shape
    /// (`rows == c`, width a whole number of `spatial` blocks) and returns
    /// the batch size. The single home of the layout check every spatial
    /// layer performs on entry; `ctx` names the layer for the panic
    /// message.
    ///
    /// # Panics
    /// Panics with a named layout mismatch otherwise.
    pub fn batch_of(&self, x: &Matrix, ctx: &str) -> usize {
        assert_eq!(
            x.rows(),
            self.c,
            "{ctx}: not channel-major for {self:?} (rows = {}, want c = {})",
            x.rows(),
            self.c
        );
        let spatial = self.spatial();
        assert_eq!(
            x.cols() % spatial,
            0,
            "{ctx}: width {} is not a multiple of spatial {spatial}",
            x.cols()
        );
        x.cols() / spatial
    }

    /// True iff any dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A differentiable network layer.
///
/// The contract mirrors classic define-by-layer backprop:
///
/// 1. `forward(x, p, train)` computes outputs and caches whatever the
///    backward pass needs (inputs, masks, argmaxes).
/// 2. `backward(dy, p, g)` consumes the most recent cache, **accumulates**
///    parameter gradients into `g`, and returns `dL/dx`.
///    [`Layer::backward_params_only`] is the same minus the input gradient,
///    for the bottom layer of a stack; [`Layer::forward_inference`] is a
///    forward that owes no cache to anyone.
/// 3. A layer owns no parameters. [`crate::model::Sequential`] keeps every
///    layer's parameters in one flat arena and its gradients in a second
///    one of the same layout; each call borrows the layer's window of them
///    (`p`, `g`: `W` row-major then `b`; empty for a parameter-free
///    layer). The construction-time initial values move into the arena
///    once, through [`Layer::take_params`].
///
/// Activations are passed **by value**: element-wise layers (ReLU, dropout)
/// transform their input in place and return the same allocation, and
/// layers that must cache their input (dense) take ownership instead of
/// cloning — the hot training loop performs no avoidable `O(batch·features)`
/// allocation between layers.
///
/// `backward` must be preceded by a `forward` on the same input batch;
/// implementations may panic otherwise.
pub trait Layer: Send {
    /// Forward pass with parameters `p`. `train` enables training-only
    /// behaviour (dropout).
    fn forward(&mut self, x: Matrix, p: &[f32], train: bool) -> Matrix;

    /// Backward pass: returns the gradient w.r.t. the layer input and
    /// accumulates the parameter gradients into `g`.
    fn backward(&mut self, dy: Matrix, p: &[f32], g: &mut [f32]) -> Matrix;

    /// Inference-only forward pass: the outputs of `forward(x, p, false)`,
    /// bit for bit, without the obligation to support a following
    /// `backward`.
    ///
    /// An override may skip everything `forward` does only for the backward
    /// pass — ReLU masks, pool argmaxes, the dense input cache — but must
    /// not cache anything a later `backward` could mistake for the state of
    /// a training forward: a layer that skips its cache **invalidates** it,
    /// so a `backward` with no regular `forward` in between fails its
    /// "backward without matching forward" assertion instead of consuming
    /// stale state. Layout and shape assertions stay on.
    fn forward_inference(&mut self, x: Matrix, p: &[f32]) -> Matrix {
        self.forward(x, p, false)
    }

    /// Backward pass that accumulates the parameter gradients exactly as
    /// [`Layer::backward`] does and drops the input gradient.
    ///
    /// Only the **first** layer of a stack may be driven through this
    /// (nothing sits below it to consume `dL/dx`); an override skips the
    /// work that exists only to produce the input gradient (conv: the
    /// `Wᵀ·dy` GEMM and the col2im scatter; dense: `dy·Wᵀ`) and must leave
    /// the parameter gradients bit-identical to those of `backward`.
    fn backward_params_only(&mut self, dy: Matrix, p: &[f32], g: &mut [f32]) {
        let _ = self.backward(dy, p, g);
    }

    /// Hands over the construction-time initial parameters (`W` row-major
    /// then `b`), leaving none behind; their length is the layer's
    /// parameter count. [`crate::model::Sequential::push`] calls it once.
    fn take_params(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Output feature dimension given the (already validated) input width.
    ///
    /// Widths are always **logical per-sample feature counts** (`c·h·w`),
    /// independent of the activation layout, so wiring validation in
    /// [`crate::model::Sequential::push`] is layout-blind.
    fn out_dim(&self, in_dim: usize) -> usize;

    /// The spatial input shape this layer expects, if it consumes
    /// channel-major activations (`Some` for conv/pool layers, `None` for
    /// dense/element-wise layers).
    ///
    /// [`crate::model::Sequential`] reads this off the **first** layer to
    /// decide whether the model's input batch must be converted to
    /// channel-major at entry.
    fn in_shape3(&self) -> Option<Shape3> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape3_len() {
        let s = Shape3::new(3, 8, 8);
        assert_eq!(s.len(), 192);
        assert!(!s.is_empty());
        assert!(Shape3::new(0, 4, 4).is_empty());
    }
}
