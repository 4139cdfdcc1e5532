//! # fda-comm
//!
//! The communication substrate for the FDA reproduction.
//!
//! The paper measures communication as "the total data (in bytes)
//! transmitted by all workers" (§4.1), explicitly agnostic to the cluster
//! fabric. This crate therefore provides:
//!
//! * [`sim::per_worker_bytes`] — the paper's per-worker-payload
//!   convention, which the round engine (`fda_core::round::Server`) charges
//!   every reduce by.
//! * [`sim::SimNetwork`] — an in-process AllReduce over worker buffers with
//!   exact byte accounting under that convention. No driver runs it any
//!   more: it is the arithmetic oracle of the round's tests and a
//!   benchmark stand-in.
//! * [`cost::Environment`] — wall-time models for the three deployment
//!   regimes of Figure 12 (FL at 0.5 Gbps, Balanced, ARIS-HPC InfiniBand),
//!   used to translate (bytes, steps) into time and pick Θ.

pub mod compress;
pub mod cost;
pub mod kernels;
pub mod sim;

pub use compress::{
    apply_delta_downlink_into, delta_downlink, delta_downlink_into, Codec, CodecError, CodecSpec,
    Dense32, DownlinkSpec, DriftMask, TopK, Uniform8Bit,
};
pub use cost::Environment;
pub use sim::SimNetwork;
