//! # fda-comm
//!
//! The communication substrate for the FDA reproduction.
//!
//! The paper measures communication as "the total data (in bytes)
//! transmitted by all workers" (§4.1), explicitly agnostic to the cluster
//! fabric. This crate therefore provides:
//!
//! * [`sim::SimNetwork`] — an in-process AllReduce over worker buffers with
//!   exact byte accounting under the paper's per-worker-payload convention
//!   ([`sim::per_worker_bytes`]).
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
