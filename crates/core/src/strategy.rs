//! The common interface every DDL algorithm implements.
//!
//! The paper compares five algorithms (LinearFDA, SketchFDA, Synchronous,
//! FedAdam, FedAvgM) by running each until a test-accuracy target and
//! measuring (communication bytes, in-parallel steps). The [`Strategy`]
//! trait is the uniform surface the [`crate::harness`] drives: one `step`
//! equals one in-parallel mini-batch step on every worker, so computation
//! is directly comparable across algorithms. Its one implementer is
//! [`crate::fda::Fda`], which runs every algorithm as a sync policy of
//! the round engine and reads its communication bytes from that engine's
//! charged ledger ([`crate::round::Server::charged_bytes`]).

use crate::cluster::{Cluster, StepStats};

/// What happened during one in-parallel step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Training telemetry from the local step.
    pub stats: StepStats,
    /// Whether a model synchronization happened this step.
    pub synced: bool,
    /// The variance estimate `H(S̄)` this step, if the algorithm computes
    /// one (FDA variants only).
    pub variance_estimate: Option<f32>,
}

/// A distributed training algorithm driving a [`Cluster`].
pub trait Strategy {
    /// Display name matching the paper's legends (`LinearFDA`,
    /// `SketchFDA`, `Synchronous`, `FedAvgM`, `FedAdam`, `LocalSGD(τ)`).
    fn name(&self) -> String;

    /// Executes one in-parallel step (local training + any communication
    /// the algorithm's schedule dictates).
    fn step(&mut self) -> StepOutcome;

    /// The cluster being trained.
    fn cluster(&self) -> &Cluster;

    /// Mutable cluster access (evaluation plumbing).
    fn cluster_mut(&mut self) -> &mut Cluster;

    /// Number of model synchronizations so far.
    fn syncs(&self) -> u64;

    /// Attaches (`Some`) or finishes (`None`) a per-round JSONL telemetry
    /// stream (see `fda_obs::event`). Detaching, or attaching over an
    /// attached stream, writes that stream's end-of-run summary and
    /// flushes. Returns whether this strategy emits telemetry.
    fn set_telemetry(&mut self, sink: Option<fda_obs::JsonlWriter>) -> bool;

    /// Total bytes transmitted by all workers so far, as the round's
    /// server charged them.
    fn comm_bytes(&self) -> u64;

    /// In-parallel steps so far.
    fn steps(&self) -> u64 {
        self.cluster().steps()
    }

    /// The model evaluation uses (evaluation is free, §4.1): the server
    /// model under a server optimizer (FedOpt), the average of the worker
    /// models otherwise.
    fn global_params(&self) -> Vec<f32>;
}
