//! # fda-core — Federated Dynamic Averaging
//!
//! The paper's contribution: a distributed deep-learning strategy that
//! triggers the expensive model synchronization **dynamically**, based on a
//! communication-efficient over-estimate of the *model variance*
//!
//! ```text
//! Var(w_t) = (1/K) Σ_k ‖u_t^(k)‖²  −  ‖ū_t‖²,    u_t^(k) = w_t^(k) − w_t0
//! ```
//!
//! (Eq. 4 of the paper). Each training step every worker ships a tiny
//! *local state* `S_t^(k)`; an AllReduce produces the average state `S̄_t`;
//! a variant-specific function `H(S̄_t)` over-estimates `Var(w_t)`; models
//! are synchronized only when `H(S̄_t) > Θ` — otherwise the Round Invariant
//! `Var(w_t) ≤ Θ` is certified (deterministically for
//! [`monitor::LinearMonitor`], with probability ≥ 1 − δ for
//! [`monitor::SketchMonitor`]).
//!
//! ## Layout
//!
//! * [`cluster`] — K simulated workers (model, optimizer, shard sampler);
//!   what they transmit is charged by the round's server.
//! * [`pool`] — the persistent rendezvous worker pool behind
//!   [`cluster::ClusterConfig::parallel`]: spawn-once lanes serving every
//!   phase of the step (local training, monitor states, reductions).
//! * [`monitor`] — the three variance monitors (Sketch / Linear / Exact
//!   oracle) and the local-state algebra.
//! * [`round`] — one FDA round, written once: the server half (the sync
//!   policy, state and model means, the decision, the downlink, the
//!   consensus) and the replica half (drift, local state, `S̄`
//!   cross-check, adopting the consensus), called by the simulator and
//!   the socket transport alike.
//! * [`fda`] — Algorithm 1 and the [`fda::Fda`] strategy, the simulator's
//!   one driver of the round, whatever its sync policy.
//! * [`baselines`] — the `Fda` constructors of Synchronous (BSP),
//!   Local-SGD(τ) and FedAvg / FedAvgM / FedAdam (FedOpt with server
//!   optimizers): periodic sync policies of the same round.
//! * [`strategy`] — the [`strategy::Strategy`] trait the harness drives.
//! * [`harness`] — training runs to an accuracy target, producing the
//!   paper's two metrics (communication bytes, in-parallel steps).
//! * [`theta`] — the Θ ≈ c·d guideline (Figure 12) and calibration sweeps.
//! * [`experiments`] — the Table 2 model rows (task, batch, optimizer).

pub mod baselines;
pub mod cluster;
pub mod experiments;
pub mod fda;
pub mod harness;
pub mod monitor;
pub mod pool;
pub mod round;
pub mod strategy;
pub mod theta;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig};
pub use fda::{Fda, FdaConfig, FdaVariant};
pub use harness::{RunConfig, RunResult};
pub use monitor::{ExactMonitor, LinearMonitor, SketchMonitor, VarianceMonitor};
pub use pool::WorkerPool;
pub use strategy::Strategy;
