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
//!    [`NetReport::measured_payload_bytes`] (counted
//!    frame-by-frame as they arrive) must equal
//!    [`NetReport::charged_bytes`] exactly; raw socket
//!    counters additionally expose the (small) framing overhead the
//!    paper's convention ignores.
//!
//! A third property arrived with the failure layer: **churn survival**.
//! Every collection runs under a deadline and every round under a
//! `min_workers` quorum; a worker that times out, disconnects or corrupts
//! a frame is dropped from the round (the id-order reduce runs over the
//! survivors), dropped workers can rejoin through a versioned `Resume`
//! handoff at a scheduled round, and every frame carries a membership
//! epoch so zombie deposits are rejected. Every single-fault placement at
//! K = 3 is enumerated on the machines in memory
//! (`crates/net/tests/machines.rs`); what only a socket adds is exercised
//! over spawned processes by the same fault values, injected at frame
//! boundaries by a test relay between the coordinator and its workers
//! (`tests/net_faults.rs` at the workspace root; DESIGN.md § "Failure
//! model").
//!
//! ## Layout
//!
//! * [`machine`] — the round protocol as two pure state machines,
//!   [`CoordinatorMachine`] and [`WorkerMachine`]: frames, clock ticks and
//!   closed links in; sends, closes, round records and the run's end out.
//!   They own the round's halves ([`fda_core::round`]), membership, epochs,
//!   the quorum, the deposit slots and the ledgers, and touch no socket
//!   and no clock (`crates/net/tests/machines.rs` drives them in memory).
//!   The stale-epoch rule lives here too; the `Resume` handoff is the
//!   round engine's (`Server::resume_payload` / `Replica::resume`).
//! * [`frame`] — length-prefixed, checksummed, epoch-stamped frame
//!   protocol, the hello every connection opens with, byte counters, and
//!   the one link type both TCP drivers read and write frames through.
//! * [`coordinator`] — the coordinator's TCP driver: one accept-and-park
//!   path for formation and rejoins, the id-order blocking read schedule
//!   under each collection's deadline, encode-once fan-out, raw byte
//!   counters, JSONL telemetry.
//! * [`worker`] — the worker's TCP driver: connect with backoff, sessions,
//!   rejoin.
//! * [`harness`] — the thread-worker run driver, and the spawned-process
//!   driver with its spawn-and-reap type.

pub mod coordinator;
pub mod frame;
pub mod harness;
pub mod machine;
pub mod worker;

pub use coordinator::{run_event, Coordinator};
pub use frame::{FrameKind, Hello, NetError, PROTOCOL_VERSION};
pub use harness::{
    run_with_spawned_workers, run_with_thread_workers, run_with_thread_workers_telemetry,
    SpawnedWorkers,
};
pub use machine::{
    CoordinatorMachine, DropReason, Input, MemberEvent, MembershipEvent, NetReport, Output,
    RoundPolicy, To, WorkerMachine, MAX_STALE_FRAMES,
};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
