//! # fda-net — FDA over real sockets.
//!
//! The simulator (sequential, or pooled over
//! [`fda_core::pool::WorkerPool`]) lives in one OS process and *charges*
//! communication bytes analytically. This crate is the deployment path the
//! paper's efficiency claim is about: the full FDA loop across **OS
//! processes**, every local state and model payload actually serialized
//! through `fda_core::wire` and shipped over TCP.
//!
//! Two properties are load-bearing, and both are asserted by tests:
//!
//! 1. **Bit-identity** — the coordinator runs the round's server half and
//!    every worker its replica half ([`fda_core::round`]), the very code
//!    the simulator runs, and workers rebuild their replicas via
//!    [`fda_core::cluster::ClusterConfig::build_worker`], so a K-process
//!    TCP run reproduces the sequential simulator's trajectory — every
//!    parameter bit, every estimate, every sync decision. On a single-core
//!    host this is *the* correctness proof for a distributed runtime
//!    (`tests/net_parity.rs` at the workspace root).
//! 2. **Measured = charged** — the simulator's byte accounting is
//!    validated against the payloads that actually cross the sockets:
//!    [`coordinator::NetReport::measured_payload_bytes`] (counted
//!    frame-by-frame as they arrive) must equal
//!    [`coordinator::NetReport::charged_bytes`] exactly; raw socket
//!    counters additionally expose the (small) framing overhead the
//!    paper's convention ignores.
//!
//! A third property arrived with the failure layer: **churn survival**.
//! Rounds have a deposit deadline and a `min_workers` quorum; a worker
//! that times out, disconnects or corrupts a frame is dropped from the
//! round (the id-order reduce runs over the survivors), dropped workers
//! can rejoin through a versioned `Resume` handoff, every frame carries a
//! membership epoch so zombie deposits are rejected, and the whole thing
//! is driven by a seeded, replayable [`fault::FaultPlan`]
//! (`tests/net_faults.rs` at the workspace root; DESIGN.md § "Failure
//! model").
//!
//! ## Layout
//!
//! * [`frame`] — length-prefixed, checksummed, epoch-stamped frame
//!   protocol and byte counters.
//! * [`protocol`] — typed control-plane messages (hello/config/shutdown),
//!   the `Resume` handoff's encoder and decoder, and the stale-epoch
//!   receive filter every receive goes through.
//! * [`coordinator`] — the deposit → server reduce → broadcast
//!   rendezvous, with per-round drop/quorum/rejoin handling.
//! * [`worker`] — the per-process worker loop over the simulator's own
//!   `Worker::step_once` and the round's replica half, with backoff
//!   reconnect and scripted faults.
//! * [`fault`] — deterministic fault plans, backoff, rejoin policy.
//! * [`harness`] — thread-worker and spawned-process run drivers, clean
//!   and chaos variants.

pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod harness;
pub mod protocol;
pub mod worker;

pub use coordinator::{
    run_event, Coordinator, DropReason, MemberEvent, MembershipEvent, NetReport, RoundPolicy,
};
pub use fault::{Backoff, FaultAction, FaultPlan, RejoinPolicy, FAULT_EXIT_CODE};
pub use frame::{FrameKind, NetError, PROTOCOL_VERSION};
pub use harness::{
    run_chaos_with_spawned_workers, run_chaos_with_spawned_workers_telemetry,
    run_chaos_with_thread_workers, run_with_spawned_workers, run_with_thread_workers,
    run_with_thread_workers_telemetry,
};
pub use protocol::{Msg, MAX_STALE_FRAMES};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome, WorkerSummary};
