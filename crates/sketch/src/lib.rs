//! # fda-sketch
//!
//! AMS (Alon–Matias–Szegedy) sketches as used by **SketchFDA** (§3.1 of the
//! paper) to estimate the squared L2 norm of the average worker drift
//! `‖ū_t‖²` from small, linearly-combinable summaries.
//!
//! An AMS sketch of `v ∈ R^d` is an `l × m` matrix; each row `ψ_i` is a
//! random ±1 projection of `v` bucketed into `m` counters. The estimator
//! `M2(sk(v)) = median_i ‖ψ_i‖²` satisfies, for `l = O(log 1/δ)` and
//! `m = O(1/ε²)`:
//!
//! ```text
//! Pr[ M2(sk(v)) ∈ (1 ± ε)·‖v‖² ] ≥ 1 − δ
//! ```
//!
//! The two crucial properties exploited by SketchFDA are
//!
//! 1. **linearity** — `sk(αa + βb) = α·sk(a) + β·sk(b)`, so AllReduce over
//!    sketches (an element-wise mean of their counters, taken by the round
//!    engine like any other flat vector) produces the sketch of the
//!    averaged drift, and
//! 2. **dimension-independent accuracy** — ε and δ depend only on `l·m`,
//!    never on `d`.
//!
//! Hashing uses the Carter–Wegman polynomial family over the Mersenne
//! prime `2^61 − 1`: a degree-3 polynomial gives the 4-wise independence
//! required by the AMS variance analysis.

pub mod ams;
pub mod hashing;

pub use ams::{AmsSketch, SketchConfig, SketchPlan};
