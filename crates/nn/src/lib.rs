//! # fda-nn
//!
//! Neural-network substrate for the FDA reproduction: layers with full
//! backpropagation, losses, initializers, a [`Sequential`] container, and a
//! model zoo mirroring the paper's architectures at CPU-tractable scale.
//!
//! ## Parameter arena
//!
//! FDA treats a model as a flat vector `w ∈ R^d`: worker drifts
//! `u^(k) = w^(k) − w_t0`, AllReduce averages and sketches all operate on
//! that view. A [`Sequential`] stores exactly that vector: one `d`-length
//! parameter arena and one gradient arena of the same layout (layers in
//! push order, each `W` row-major then `b`). Layers own no parameters and
//! borrow their window of both arenas per call. [`Sequential::params`]
//! reads `w` without a copy, [`Sequential::arena_mut`] lends it to an
//! in-place optimizer step, and [`Sequential::load_params`] overwrites it
//! at a synchronization.
//!
//! ## Correctness
//!
//! Each layer's backward pass is validated against central finite
//! differences (see [`gradcheck`]), and the test suites exercise shapes,
//! train/eval modes and degenerate inputs.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod dropout;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod pool;
pub mod zoo;

pub use layer::{Layer, Shape3};
pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
