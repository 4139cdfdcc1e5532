//! Wire encoding of FDA local states, model vectors, and job configs.
//!
//! The simulator usually passes [`LocalState`] values in memory and only
//! *charges* their byte size; this module provides the actual byte-level
//! encoding so that (a) the charged sizes are demonstrably achievable, and
//! (b) the transport-based driver (the `fda_net` TCP runtime) can ship real
//! buffers. Hand-rolled little-endian framing —
//! the payloads are flat `f32` runs and a handful of scalars, serde would
//! be overkill.
//!
//! State layout (little endian):
//!
//! ```text
//! [ tag: u8 ] [ drift_sq_norm: f32 ]
//!   tag 0 (Linear): [ proj: f32 ]
//!   tag 1 (Sketch): [ rows: u16 ] [ cols: u16 ] [ rows·cols × f32 ]
//!   tag 2 (Exact):  [ len: u32 ]  [ len × f32 ]
//! ```
//!
//! A summary ([`encode_summary_coded_into`]) is the same layout without
//! `drift_sq_norm`: the half of a state a round sends after its scalar.
//!
//! Model/delta vectors are `[ len: u32 ][ len × f32 ]`. In both, the
//! `f32` run is a codec payload ([`Codec`]); under the identity codec
//! [`fda_comm::compress::Dense32`] it is the raw little-endian run shown.
//! Job configs ([`encode_job`]) are a versioned fixed-field frame (see
//! [`JobSpec`]).
//!
//! Each payload has one encoder and one decoder, and every `f32` payload
//! decodes into a slot the receiver already shaped (a state of its
//! monitor's layout, a vector of its model's length). The wire header is
//! only compared with that shape, and a mismatch is refused before
//! anything is written, so no decoder sizes memory from a length it read
//! off the wire. Every decoder is total: malformed, truncated or
//! wrong-shaped input returns a [`DecodeError`], never a panic.

use crate::cluster::ClusterConfig;
use crate::fda::{FdaConfig, FdaVariant};
use crate::monitor::{LocalState, StateSummary};
use fda_comm::compress::{Codec, CodecError, CodecSpec, DownlinkSpec};
use fda_data::synth::SynthSpec;
use fda_data::Partition;
use fda_nn::zoo::ModelId;
use fda_optim::OptimizerKind;
use fda_sketch::SketchConfig;

/// Version byte leading every encoded [`JobSpec`] frame.
///
/// v2: the job carries its payload codec ([`CodecSpec`]) so every process
/// of a run encodes and decodes sync payloads identically.
///
/// v3: the job carries its downlink spec ([`DownlinkSpec`]) so delta-coded
/// model broadcasts reconstruct identically on every process.
const JOB_WIRE_VERSION: u8 = 3;

/// Errors produced when decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the declared payload.
    Truncated,
    /// Unknown summary/enum tag byte.
    BadTag(u8),
    /// Job frame carries an unsupported version byte.
    BadVersion(u8),
    /// A field violates its invariant (bad bool byte, invalid UTF-8, …).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "wire buffer truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::Malformed(what) => write!(f, "malformed wire field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> DecodeError {
        match e {
            CodecError::Truncated => DecodeError::Truncated,
            CodecError::Malformed(what) => DecodeError::Malformed(what),
        }
    }
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn get_bytes<const N: usize>(buf: &[u8], off: &mut usize) -> Result<[u8; N], DecodeError> {
    let end = off.checked_add(N).ok_or(DecodeError::Truncated)?;
    let bytes: [u8; N] = buf
        .get(*off..end)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .expect("slice of length N");
    *off = end;
    Ok(bytes)
}

fn get_f32(buf: &[u8], off: &mut usize) -> Result<f32, DecodeError> {
    Ok(f32::from_le_bytes(get_bytes(buf, off)?))
}

fn get_u8(buf: &[u8], off: &mut usize) -> Result<u8, DecodeError> {
    Ok(u8::from_le_bytes(get_bytes(buf, off)?))
}

fn get_u16(buf: &[u8], off: &mut usize) -> Result<u16, DecodeError> {
    Ok(u16::from_le_bytes(get_bytes(buf, off)?))
}

fn get_u32(buf: &[u8], off: &mut usize) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(get_bytes(buf, off)?))
}

fn get_u64(buf: &[u8], off: &mut usize) -> Result<u64, DecodeError> {
    Ok(u64::from_le_bytes(get_bytes(buf, off)?))
}

fn get_bool(buf: &[u8], off: &mut usize) -> Result<bool, DecodeError> {
    match get_u8(buf, off)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::Malformed("bool byte must be 0 or 1")),
    }
}

/// Self-description bytes of a state frame (tag byte + shape dims) that
/// the paper's accounting convention does **not** charge; the frame's
/// remaining bytes — the drift scalar and the codec payload — are the
/// accounted state payload.
pub fn state_frame_overhead(state: &LocalState) -> u64 {
    1 + match &state.summary {
        StateSummary::Linear(_) => 0,
        StateSummary::Sketch(_) => 4,
        StateSummary::Exact(_) => 4,
    }
}

/// Encodes a local state: the header (tag, drift scalar, shape dims)
/// followed by `codec.encode(summary)`. Under
/// [`fda_comm::compress::Dense32`] the summary is its raw `f32` run.
pub fn encode_state_coded(state: &LocalState, codec: &dyn Codec) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_state_coded_into(state, codec, &mut out);
    out
}

/// [`encode_state_coded`] appending into a caller-owned buffer — the
/// round loops reuse one scratch buffer per direction, so steady-state
/// serialization allocates nothing. Append semantics (callers clear), so
/// payloads with a prefix (the avg-state sync byte) compose in place.
pub fn encode_state_coded_into(state: &LocalState, codec: &dyn Codec, out: &mut Vec<u8>) {
    encode_state_parts(state, Some(state.drift_sq_norm), codec, out);
}

/// The coded state without its drift scalar — `[tag][shape dims][codec
/// payload]`, the phase-B half of a deposit whose scalar went ahead (see
/// `crate::round`). The two halves carry the bytes of one
/// [`encode_state_coded_into`] payload, and the same
/// [`state_frame_overhead`].
pub fn encode_summary_coded_into(state: &LocalState, codec: &dyn Codec, out: &mut Vec<u8>) {
    encode_state_parts(state, None, codec, out);
}

fn encode_state_parts(
    state: &LocalState,
    scalar: Option<f32>,
    codec: &dyn Codec,
    out: &mut Vec<u8>,
) {
    out.push(match &state.summary {
        StateSummary::Linear(_) => 0,
        StateSummary::Sketch(_) => 1,
        StateSummary::Exact(_) => 2,
    });
    if let Some(x) = scalar {
        put_f32(out, x);
    }
    match &state.summary {
        StateSummary::Linear(_) => {}
        StateSummary::Sketch(sk) => {
            put_u16(out, sk.rows() as u16);
            put_u16(out, sk.cols() as u16);
        }
        StateSummary::Exact(v) => put_u32(out, v.len() as u32),
    }
    codec.encode_into(state.summary_slice(), out);
}

/// Decodes a coded state frame against an `expected` shape template
/// (receiver knowledge — the monitor's own state layout): a fresh state
/// through [`decode_state_coded_into`].
pub fn decode_state_coded(
    buf: &[u8],
    expected: &LocalState,
    codec: &dyn Codec,
) -> Result<LocalState, DecodeError> {
    let mut state = expected.clone();
    decode_state_coded_into(buf, &mut state, codec)?;
    Ok(state)
}

/// Decodes a coded state frame into `slot`, whose shape is the receiver's
/// expectation. The wire header's tag and dimensions must match the slot
/// **before** anything is written, so a well-framed state of another
/// shape changes nothing; the remainder of the buffer is the codec
/// payload, decoded totally. After an `Err` from the payload itself the
/// slot's values are unspecified (its shape is kept).
pub fn decode_state_coded_into(
    buf: &[u8],
    slot: &mut LocalState,
    codec: &dyn Codec,
) -> Result<(), DecodeError> {
    decode_state_parts(buf, slot, true, codec)
}

/// Decodes an [`encode_summary_coded_into`] payload into `slot`'s summary
/// under the rules of [`decode_state_coded_into`], leaving its drift
/// scalar alone.
pub fn decode_summary_coded_into(
    buf: &[u8],
    slot: &mut LocalState,
    codec: &dyn Codec,
) -> Result<(), DecodeError> {
    decode_state_parts(buf, slot, false, codec)
}

fn decode_state_parts(
    buf: &[u8],
    slot: &mut LocalState,
    with_scalar: bool,
    codec: &dyn Codec,
) -> Result<(), DecodeError> {
    let tag = *buf.first().ok_or(DecodeError::Truncated)?;
    let mut off = 1usize;
    let drift_sq_norm = match with_scalar {
        true => get_f32(buf, &mut off)?,
        false => slot.drift_sq_norm,
    };
    match (&slot.summary, tag) {
        (StateSummary::Linear(_), 0) => {}
        (StateSummary::Sketch(want), 1) => {
            let rows = get_u16(buf, &mut off)? as usize;
            let cols = get_u16(buf, &mut off)? as usize;
            if rows != want.rows() || cols != want.cols() {
                return Err(DecodeError::Malformed("sketch shape mismatch"));
            }
        }
        (StateSummary::Exact(want), 2) => {
            let len = get_u32(buf, &mut off)? as usize;
            if len != want.len() {
                return Err(DecodeError::Malformed("exact summary length mismatch"));
            }
        }
        (_, 0..=2) => return Err(DecodeError::Malformed("state tag mismatch")),
        (_, other) => return Err(DecodeError::BadTag(other)),
    }
    codec.decode_into(&buf[off..], slot.summary_slice_mut())?;
    slot.drift_sq_norm = drift_sq_norm;
    Ok(())
}

/// Encodes a vector with the run carried as a codec payload:
/// `[ len: u32 ][ codec payload ]`.
///
/// # Panics
/// Panics if `v.len()` exceeds `u32::MAX`.
pub fn encode_vector_coded(v: &[f32], codec: &dyn Codec) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + v.len() * 4);
    encode_vector_coded_into(v, codec, &mut out);
    out
}

/// [`encode_vector_coded`] appending into a caller-owned buffer (see
/// [`encode_state_coded_into`] for the reuse discipline).
///
/// # Panics
/// Panics if `v.len()` exceeds `u32::MAX`.
pub fn encode_vector_coded_into(v: &[f32], codec: &dyn Codec, out: &mut Vec<u8>) {
    assert!(v.len() <= u32::MAX as usize, "vector too long for the wire");
    put_u32(out, v.len() as u32);
    codec.encode_into(v, out);
}

/// Decodes a coded vector frame against the receiver's `expected_len`
/// (e.g. the model dimension): a fresh vector through
/// [`decode_vector_coded_into`]. The untrusted header never sizes memory.
pub fn decode_vector_coded(
    buf: &[u8],
    expected_len: usize,
    codec: &dyn Codec,
) -> Result<Vec<f32>, DecodeError> {
    let mut v = vec![0.0; expected_len];
    decode_vector_coded_into(buf, &mut v, codec)?;
    Ok(v)
}

/// Decodes a coded vector frame into `out`, whose length is the
/// receiver's expectation. The length header must match it before
/// anything is written; the rest of the buffer is the codec payload.
/// After an `Err` from the payload itself `out` holds unspecified values.
pub fn decode_vector_coded_into(
    buf: &[u8],
    out: &mut [f32],
    codec: &dyn Codec,
) -> Result<(), DecodeError> {
    let mut off = 0usize;
    if get_u32(buf, &mut off)? as usize != out.len() {
        return Err(DecodeError::Malformed("vector length mismatch"));
    }
    Ok(codec.decode_into(&buf[off..], out)?)
}

/// Upper bound on one transport frame's `len` field (kind byte + payload),
/// enforced by `fda_net`'s frame layer.
///
/// The largest legitimate frame is a full model vector; 256 MiB covers a
/// 67M-parameter model — far beyond the workspace zoo — while keeping a
/// corrupted length header from looking like a 4 GiB allocation request.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// Frame bytes of a dense sketch state besides its counters: the frame
/// kind, the state tag, the drift scalar and the two shape fields.
const SKETCH_STATE_HEADER: usize = 1 + 1 + 4 + 2 + 2;

/// Cap on a job's sketch rows `l`. Every process holding a monitor builds
/// a gather table of about `l·d` entries (`l·d·4` bytes, plus padding —
/// see `fda_sketch::ams`), so the row count a config frame may ask for is
/// bounded here, where the frame is decoded. The paper uses `l = 5`; 32
/// rows already push the estimator's failure probability δ far below
/// anything a run can observe.
pub const MAX_SKETCH_ROWS: usize = 32;

/// A complete, self-contained FDA job description — everything a remote
/// worker process needs to reconstruct its exact replica of a simulated
/// run: the cluster shape (model, shards, seeds, optimizer), the FDA
/// variant and Θ, the step horizon, and the synthetic task generator spec.
///
/// Workers regenerate the dataset locally from `synth`/`task_name` (data
/// staging is outside the paper's communication budget), so the config
/// frame stays a few dozen bytes regardless of task size.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Cluster shape: model, K, batch, optimizer, partition, master seed.
    pub cluster: ClusterConfig,
    /// FDA variant and variance threshold Θ.
    pub fda: FdaConfig,
    /// Payload codec for worker-uplink sync traffic (state deposits and
    /// model uploads).
    pub codec: CodecSpec,
    /// Downlink mode for the consensus-model broadcast: dense (the
    /// historical byte-exact `AvgModel`) or a delta against the previous
    /// broadcast through its own codec. Every receiver applies the same
    /// reconstruction, so the consensus stays bit-identical across
    /// workers and the simulator either way.
    pub downlink: DownlinkSpec,
    /// Steps every worker performs.
    pub steps: u32,
    /// Synthetic task generator.
    pub synth: SynthSpec,
    /// Task name (seeds the generator alongside `synth.seed`).
    pub task_name: String,
}

impl JobSpec {
    /// Range-checks the fields a driver would otherwise trip an `assert!`
    /// on: the one gate for jobs arriving from the CLI ([`decode_job`]
    /// applies it to jobs arriving as bytes). Θ = +∞ ("never synchronize")
    /// is legal.
    pub fn validate(&self) -> Result<(), DecodeError> {
        let c = &self.cluster;
        let bad = |why| Err(DecodeError::Malformed(why));
        if c.workers < 1 {
            return bad("job needs at least one worker");
        }
        if self.steps < 1 {
            return bad("job needs at least one step");
        }
        if c.batch_size < 1 {
            return bad("batch size must be positive");
        }
        if self.fda.theta.is_nan() || self.fda.theta < 0.0 {
            return bad("theta must be non-negative");
        }
        if let FdaVariant::Sketch(sk) = self.fda.variant {
            if sk.rows > MAX_SKETCH_ROWS {
                return bad("sketch rows above MAX_SKETCH_ROWS");
            }
            let state_bytes = sk.rows.checked_mul(sk.cols).and_then(|n| n.checked_mul(4));
            if state_bytes.is_none_or(|b| b > MAX_FRAME_BYTES as usize - SKETCH_STATE_HEADER) {
                return bad("sketch state does not fit one frame");
            }
        }
        self.codec.validate().map_err(DecodeError::Malformed)?;
        self.downlink.validate().map_err(DecodeError::Malformed)?;
        // The task must be one `SynthSpec::generate` builds and the model
        // can learn: its asserts, the cluster's input-width check and the
        // loss's label bound all sit behind these.
        let s = &self.synth;
        if s.classes < 2 || s.modes_per_class < 1 || s.n_test < 1 {
            return bad("synth task needs two classes, a mode per class and a test split");
        }
        if s.classes > c.model.classes() {
            return bad("synth task has more classes than the model has outputs");
        }
        if s.dim != c.model.input_shape().len() {
            return bad("synth task dim does not match the model's input");
        }
        if let Some((ch, h, w)) = s.spatial {
            if ch.checked_mul(h).and_then(|n| n.checked_mul(w)) != Some(s.dim) {
                return bad("synth spatial shape does not flatten to its dim");
            }
        }
        match c.partition {
            Partition::NonIidPercent(f) if f.is_nan() || f <= 0.0 || f > 1.0 => {
                return bad("partition fraction must be in (0, 1]");
            }
            Partition::NonIidLabel(y) if y >= self.synth.classes => {
                return bad("partition label out of range");
            }
            _ => {}
        }
        if min_shard_len(
            c.partition,
            self.synth.n_train,
            self.synth.classes,
            c.workers,
        ) < 1
        {
            return bad("n_train too small: a worker's shard would be empty");
        }
        Ok(())
    }
}

/// Size of the smallest shard [`Partition::shards`] deals to `k` workers
/// from `n` samples whose labels cycle `i % classes` (how
/// [`SynthSpec::generate`] assigns them). Mirrors the dealing rules there;
/// `min_shard_len_matches_the_partitioner` keeps the two in step.
fn min_shard_len(partition: Partition, n: usize, classes: usize, k: usize) -> usize {
    match partition {
        Partition::Iid => n / k,
        // A label-sorted block dealt contiguously plus an IID remainder
        // dealt round-robin: the last shard gets the floor of both.
        Partition::NonIidPercent(f) => {
            let sorted = ((n as f32 * f).round() as usize).min(n);
            sorted / k + (n - sorted) / k
        }
        // The label goes to the first max(1, K/10) shards only; the last
        // shard holds just its round-robin share of the other samples.
        Partition::NonIidLabel(_) if k == 1 => n,
        Partition::NonIidLabel(y) => (n - (n + classes - 1 - y) / classes) / k,
    }
}

fn put_model(out: &mut Vec<u8>, m: ModelId) {
    out.push(match m {
        ModelId::Lenet5 => 0,
        ModelId::Vgg16Star => 1,
        ModelId::DenseNet121 => 2,
        ModelId::DenseNet201 => 3,
        ModelId::TransferHead => 4,
    });
}

fn get_model(buf: &[u8], off: &mut usize) -> Result<ModelId, DecodeError> {
    Ok(match get_u8(buf, off)? {
        0 => ModelId::Lenet5,
        1 => ModelId::Vgg16Star,
        2 => ModelId::DenseNet121,
        3 => ModelId::DenseNet201,
        4 => ModelId::TransferHead,
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn put_optimizer(out: &mut Vec<u8>, o: OptimizerKind) {
    match o {
        OptimizerKind::Sgd { lr } => {
            out.push(0);
            put_f32(out, lr);
        }
        OptimizerKind::SgdMomentum {
            lr,
            momentum,
            nesterov,
            weight_decay,
        } => {
            out.push(1);
            put_f32(out, lr);
            put_f32(out, momentum);
            put_bool(out, nesterov);
            put_f32(out, weight_decay);
        }
        OptimizerKind::Adam { lr } => {
            out.push(2);
            put_f32(out, lr);
        }
        OptimizerKind::AdamW { lr, weight_decay } => {
            out.push(3);
            put_f32(out, lr);
            put_f32(out, weight_decay);
        }
    }
}

fn get_optimizer(buf: &[u8], off: &mut usize) -> Result<OptimizerKind, DecodeError> {
    Ok(match get_u8(buf, off)? {
        0 => OptimizerKind::Sgd {
            lr: get_f32(buf, off)?,
        },
        1 => OptimizerKind::SgdMomentum {
            lr: get_f32(buf, off)?,
            momentum: get_f32(buf, off)?,
            nesterov: get_bool(buf, off)?,
            weight_decay: get_f32(buf, off)?,
        },
        2 => OptimizerKind::Adam {
            lr: get_f32(buf, off)?,
        },
        3 => OptimizerKind::AdamW {
            lr: get_f32(buf, off)?,
            weight_decay: get_f32(buf, off)?,
        },
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn put_partition(out: &mut Vec<u8>, p: Partition) {
    match p {
        Partition::Iid => out.push(0),
        Partition::NonIidPercent(f) => {
            out.push(1);
            put_f32(out, f);
        }
        Partition::NonIidLabel(y) => {
            out.push(2);
            put_u32(out, y as u32);
        }
    }
}

fn get_partition(buf: &[u8], off: &mut usize) -> Result<Partition, DecodeError> {
    Ok(match get_u8(buf, off)? {
        0 => Partition::Iid,
        1 => Partition::NonIidPercent(get_f32(buf, off)?),
        2 => Partition::NonIidLabel(get_u32(buf, off)? as usize),
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn put_codec(out: &mut Vec<u8>, c: CodecSpec) {
    match c {
        CodecSpec::Dense => out.push(0),
        CodecSpec::Uniform8 { chunk } => {
            out.push(1);
            put_u32(out, chunk);
        }
        CodecSpec::TopK { k } => {
            out.push(2);
            put_u32(out, k);
        }
        CodecSpec::DriftMask { threshold } => {
            out.push(3);
            put_f32(out, threshold);
        }
    }
}

fn get_codec(buf: &[u8], off: &mut usize) -> Result<CodecSpec, DecodeError> {
    let spec = match get_u8(buf, off)? {
        0 => CodecSpec::Dense,
        1 => CodecSpec::Uniform8 {
            chunk: get_u32(buf, off)?,
        },
        2 => CodecSpec::TopK {
            k: get_u32(buf, off)?,
        },
        3 => CodecSpec::DriftMask {
            threshold: get_f32(buf, off)?,
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    spec.validate().map_err(DecodeError::Malformed)?;
    Ok(spec)
}

fn put_downlink(out: &mut Vec<u8>, d: DownlinkSpec) {
    match d {
        DownlinkSpec::Dense => out.push(0),
        DownlinkSpec::Delta { codec } => {
            out.push(1);
            put_codec(out, codec);
        }
    }
}

fn get_downlink(buf: &[u8], off: &mut usize) -> Result<DownlinkSpec, DecodeError> {
    let spec = match get_u8(buf, off)? {
        0 => DownlinkSpec::Dense,
        1 => DownlinkSpec::Delta {
            codec: get_codec(buf, off)?,
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    spec.validate().map_err(DecodeError::Malformed)?;
    Ok(spec)
}

fn put_variant(out: &mut Vec<u8>, v: FdaVariant) {
    match v {
        FdaVariant::Sketch(sk) => {
            out.push(0);
            put_u16(out, sk.rows as u16);
            put_u16(out, sk.cols as u16);
            put_u64(out, sk.seed);
        }
        FdaVariant::SketchAuto => out.push(1),
        FdaVariant::Linear => out.push(2),
        FdaVariant::Exact => out.push(3),
    }
}

fn get_variant(buf: &[u8], off: &mut usize) -> Result<FdaVariant, DecodeError> {
    Ok(match get_u8(buf, off)? {
        0 => {
            let rows = get_u16(buf, off)? as usize;
            let cols = get_u16(buf, off)? as usize;
            let seed = get_u64(buf, off)?;
            if rows == 0 || cols == 0 {
                return Err(DecodeError::Malformed("sketch dims must be positive"));
            }
            FdaVariant::Sketch(SketchConfig::new(rows, cols, seed))
        }
        1 => FdaVariant::SketchAuto,
        2 => FdaVariant::Linear,
        3 => FdaVariant::Exact,
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// Encodes a [`JobSpec`] config frame (versioned; fixed-size fields plus
/// the task-name string).
///
/// # Panics
/// Panics if the task name exceeds `u16::MAX` bytes or the sketch config
/// dimensions exceed `u16::MAX` (neither occurs for any workspace config).
pub fn encode_job(job: &JobSpec) -> Vec<u8> {
    assert!(
        job.task_name.len() <= u16::MAX as usize,
        "task name too long for the wire"
    );
    if let FdaVariant::Sketch(sk) = job.fda.variant {
        assert!(
            sk.rows <= u16::MAX as usize && sk.cols <= u16::MAX as usize,
            "sketch dims too large for the wire"
        );
    }
    let mut out = Vec::with_capacity(96 + job.task_name.len());
    out.push(JOB_WIRE_VERSION);
    let c = &job.cluster;
    put_model(&mut out, c.model);
    put_u32(&mut out, c.workers as u32);
    put_u32(&mut out, c.batch_size as u32);
    put_optimizer(&mut out, c.optimizer);
    put_partition(&mut out, c.partition);
    put_u64(&mut out, c.seed);
    put_bool(&mut out, c.parallel);
    put_variant(&mut out, job.fda.variant);
    put_f32(&mut out, job.fda.theta);
    put_codec(&mut out, job.codec);
    put_downlink(&mut out, job.downlink);
    put_u32(&mut out, job.steps);
    let s = &job.synth;
    put_u32(&mut out, s.classes as u32);
    put_u32(&mut out, s.modes_per_class as u32);
    put_u32(&mut out, s.dim as u32);
    match s.spatial {
        None => out.push(0),
        Some((c, h, w)) => {
            out.push(1);
            put_u32(&mut out, c as u32);
            put_u32(&mut out, h as u32);
            put_u32(&mut out, w as u32);
        }
    }
    put_u32(&mut out, s.smooth_passes as u32);
    put_f32(&mut out, s.noise_std);
    put_f32(&mut out, s.prototype_scale);
    put_f32(&mut out, s.amplitude_jitter);
    put_u32(&mut out, s.n_train as u32);
    put_u32(&mut out, s.n_test as u32);
    put_u64(&mut out, s.seed);
    put_u16(&mut out, job.task_name.len() as u16);
    out.extend_from_slice(job.task_name.as_bytes());
    out
}

/// Decodes a config frame produced by [`encode_job`]. Total: every
/// malformed input maps to a [`DecodeError`], and a job that decodes has
/// passed [`JobSpec::validate`].
pub fn decode_job(buf: &[u8]) -> Result<JobSpec, DecodeError> {
    let mut off = 0usize;
    let version = get_u8(buf, &mut off)?;
    if version != JOB_WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let cluster = ClusterConfig {
        model: get_model(buf, &mut off)?,
        workers: get_u32(buf, &mut off)? as usize,
        batch_size: get_u32(buf, &mut off)? as usize,
        optimizer: get_optimizer(buf, &mut off)?,
        partition: get_partition(buf, &mut off)?,
        seed: get_u64(buf, &mut off)?,
        parallel: get_bool(buf, &mut off)?,
    };
    let fda = FdaConfig {
        variant: get_variant(buf, &mut off)?,
        theta: get_f32(buf, &mut off)?,
    };
    let codec = get_codec(buf, &mut off)?;
    let downlink = get_downlink(buf, &mut off)?;
    let steps = get_u32(buf, &mut off)?;
    let classes = get_u32(buf, &mut off)? as usize;
    let modes_per_class = get_u32(buf, &mut off)? as usize;
    let dim = get_u32(buf, &mut off)? as usize;
    let spatial = match get_u8(buf, &mut off)? {
        0 => None,
        1 => Some((
            get_u32(buf, &mut off)? as usize,
            get_u32(buf, &mut off)? as usize,
            get_u32(buf, &mut off)? as usize,
        )),
        _ => return Err(DecodeError::Malformed("spatial flag must be 0 or 1")),
    };
    let synth = SynthSpec {
        classes,
        modes_per_class,
        dim,
        spatial,
        smooth_passes: get_u32(buf, &mut off)? as usize,
        noise_std: get_f32(buf, &mut off)?,
        prototype_scale: get_f32(buf, &mut off)?,
        amplitude_jitter: get_f32(buf, &mut off)?,
        n_train: get_u32(buf, &mut off)? as usize,
        n_test: get_u32(buf, &mut off)? as usize,
        seed: get_u64(buf, &mut off)?,
    };
    let name_len = get_u16(buf, &mut off)? as usize;
    let end = off.checked_add(name_len).ok_or(DecodeError::Truncated)?;
    let name_bytes = buf.get(off..end).ok_or(DecodeError::Truncated)?;
    let task_name = std::str::from_utf8(name_bytes)
        .map_err(|_| DecodeError::Malformed("task name must be UTF-8"))?
        .to_string();
    off = end;
    if off != buf.len() {
        return Err(DecodeError::Truncated);
    }
    let job = JobSpec {
        cluster,
        fda,
        codec,
        downlink,
        steps,
        synth,
        task_name,
    };
    job.validate()?;
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ExactMonitor, LinearMonitor, SketchMonitor, VarianceMonitor};
    use fda_comm::compress::Dense32;
    use fda_sketch::AmsSketch;

    fn drift(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    /// What a receiver holding a slot of `s`'s shape decodes from `s`'s
    /// dense frame; the slot starts out holding other values.
    fn dense_roundtrip(s: &LocalState) -> LocalState {
        let mut slot = s.clone();
        slot.summary_slice_mut().fill(-7.0);
        slot.drift_sq_norm = -7.0;
        decode_state_coded_into(&encode_state_coded(s, &Dense32), &mut slot, &Dense32).unwrap();
        slot
    }

    #[test]
    fn linear_state_roundtrip_and_size() {
        let m = LinearMonitor::new();
        let s = m.local_state(&drift(64));
        let bytes = encode_state_coded(&s, &Dense32);
        // 1 tag + 4 norm + 4 proj = 9 bytes on the wire; the monitor's
        // accounting (8) charges only the payload floats, which is the
        // paper's convention — framing overhead is sub-1% at model scale.
        assert_eq!(bytes.len(), 9);
        let back = dense_roundtrip(&s);
        assert_eq!(back.drift_sq_norm, s.drift_sq_norm);
        match (back.summary, s.summary) {
            (StateSummary::Linear(a), StateSummary::Linear(b)) => assert_eq!(a, b),
            _ => panic!("variant changed in roundtrip"),
        }
    }

    #[test]
    fn sketch_state_roundtrip() {
        let m = SketchMonitor::new(SketchConfig::new(3, 16, 9), 64);
        let s = m.local_state(&drift(64));
        let back = dense_roundtrip(&s);
        assert_eq!(back.drift_sq_norm, s.drift_sq_norm);
        match (&back.summary, &s.summary) {
            (StateSummary::Sketch(a), StateSummary::Sketch(b)) => {
                assert_eq!(a.as_slice(), b.as_slice());
                assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            }
            _ => panic!("variant changed in roundtrip"),
        }
    }

    #[test]
    fn exact_state_roundtrip() {
        let m = ExactMonitor::new(32);
        let s = m.local_state(&drift(32));
        let back = dense_roundtrip(&s);
        match (&back.summary, &s.summary) {
            (StateSummary::Exact(a), StateSummary::Exact(b)) => assert_eq!(a, b),
            _ => panic!("variant changed in roundtrip"),
        }
    }

    #[test]
    fn estimates_survive_the_wire() {
        // The decisive property: decoding K encoded states and averaging
        // them gives the same H as the in-memory path.
        let m = LinearMonitor::new();
        let states: Vec<LocalState> = (0..4).map(|i| m.local_state(&drift(32 + i))).collect();
        let wired: Vec<LocalState> = states.iter().map(dense_roundtrip).collect();
        let direct = m.estimate(&LocalState::average(&states));
        let via_wire = m.estimate(&LocalState::average(&wired));
        assert_eq!(direct, via_wire);
    }

    #[test]
    fn truncated_buffers_fail_cleanly() {
        let s = LinearMonitor::new().local_state(&drift(8));
        let bytes = encode_state_coded(&s, &Dense32);
        for cut in 0..bytes.len() {
            let mut slot = s.clone();
            assert!(
                decode_state_coded_into(&bytes[..cut], &mut slot, &Dense32).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = LinearMonitor::new().local_state(&drift(8));
        let mut bytes = encode_state_coded(&s, &Dense32);
        bytes.push(0xFF);
        assert!(matches!(
            decode_state_coded(&bytes, &s, &Dense32),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [9u8, 0, 0, 0, 0];
        let slot = LinearMonitor::new().local_state(&drift(8));
        assert_eq!(
            decode_state_coded(&buf, &slot, &Dense32),
            Err(DecodeError::BadTag(9))
        );
    }

    /// A hostile length header (u16::MAX × u16::MAX sketch, u32::MAX exact
    /// vector) is only compared with the receiver's shape, so it fails as
    /// `Malformed` there — no allocation is ever sized from it.
    #[test]
    fn hostile_length_headers_fail_without_allocating() {
        let sketch = SketchMonitor::new(SketchConfig::new(3, 16, 9), 64).local_state(&drift(64));
        let exact = ExactMonitor::new(32).local_state(&drift(32));
        // Sketch tag with maximal rows/cols and no payload behind them.
        let mut sketchy = vec![1u8];
        sketchy.extend_from_slice(&1.0f32.to_le_bytes());
        sketchy.extend_from_slice(&u16::MAX.to_le_bytes());
        sketchy.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_state_coded(&sketchy, &sketch, &Dense32),
            Err(DecodeError::Malformed(_))
        ));
        // Exact tag with a u32::MAX length.
        let mut exact_bomb = vec![2u8];
        exact_bomb.extend_from_slice(&1.0f32.to_le_bytes());
        exact_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_state_coded(&exact_bomb, &exact, &Dense32),
            Err(DecodeError::Malformed(_))
        ));
        // Vector frame with a u32::MAX length.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(
            decode_vector_coded(&huge, 3, &Dense32),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn vector_roundtrip_including_empty() {
        for v in [vec![], vec![1.5f32], drift(37)] {
            let bytes = encode_vector_coded(&v, &Dense32);
            assert_eq!(bytes.len(), 4 + v.len() * 4);
            let back = decode_vector_coded(&bytes, v.len(), &Dense32).unwrap();
            assert_eq!(back, v);
            assert_eq!(
                encode_vector_coded(&back, &Dense32),
                bytes,
                "re-encode must match"
            );
        }
        // Trailing garbage and truncation rejected.
        let mut bytes = encode_vector_coded(&drift(5), &Dense32);
        bytes.push(0);
        assert!(matches!(
            decode_vector_coded(&bytes, 5, &Dense32),
            Err(DecodeError::Malformed(_))
        ));
        bytes.pop();
        assert_eq!(
            decode_vector_coded(&bytes[..7], 5, &Dense32),
            Err(DecodeError::Truncated)
        );
    }

    fn sample_job() -> JobSpec {
        use fda_data::synth::SynthSpec;
        JobSpec {
            cluster: crate::cluster::ClusterConfig::small_test(4),
            fda: crate::fda::FdaConfig::sketch_auto(0.02),
            codec: CodecSpec::Dense,
            downlink: DownlinkSpec::Dense,
            steps: 12,
            synth: SynthSpec {
                n_train: 240,
                n_test: 80,
                ..SynthSpec::synth_mnist()
            },
            task_name: "tiny".to_string(),
        }
    }

    #[test]
    fn job_roundtrip_byte_equality() {
        use crate::fda::{FdaConfig, FdaVariant};
        use fda_data::synth::SynthSpec;
        let mut jobs = vec![sample_job()];
        // Cover every variant tag, optimizer tag and partition tag.
        let mut j = sample_job();
        j.fda = FdaConfig {
            variant: FdaVariant::Sketch(SketchConfig::new(3, 17, 99)),
            theta: 1.25,
        };
        j.cluster.optimizer = fda_optim::OptimizerKind::SgdMomentum {
            lr: 0.1,
            momentum: 0.9,
            nesterov: true,
            weight_decay: 1e-4,
        };
        j.cluster.partition = Partition::NonIidPercent(0.6);
        jobs.push(j);
        let mut j = sample_job();
        j.fda = FdaConfig::linear(0.0);
        j.cluster.optimizer = fda_optim::OptimizerKind::AdamW {
            lr: 2e-3,
            weight_decay: 0.01,
        };
        j.cluster.partition = Partition::NonIidLabel(3);
        j.cluster.model = ModelId::TransferHead;
        j.synth = SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_cifar100_features()
        };
        j.task_name = String::new();
        jobs.push(j);
        let mut j = sample_job();
        j.fda = FdaConfig {
            variant: FdaVariant::Exact,
            theta: 0.5,
        };
        j.cluster.optimizer = fda_optim::OptimizerKind::Sgd { lr: 0.05 };
        jobs.push(j);
        // Cover every codec tag.
        for codec in [
            CodecSpec::Uniform8 { chunk: 512 },
            CodecSpec::TopK { k: 100 },
            CodecSpec::DriftMask { threshold: 0.01 },
        ] {
            let mut j = sample_job();
            j.codec = codec;
            jobs.push(j);
        }
        for (i, job) in jobs.iter().enumerate() {
            let bytes = encode_job(job);
            let back = decode_job(&bytes).unwrap();
            assert_eq!(
                encode_job(&back),
                bytes,
                "job {i}: encode→decode→encode must be byte-identical"
            );
        }
    }

    #[test]
    fn job_decode_rejects_bad_version_and_garbage() {
        let mut bytes = encode_job(&sample_job());
        bytes[0] = 99;
        assert!(matches!(
            decode_job(&bytes),
            Err(DecodeError::BadVersion(99))
        ));
        bytes[0] = JOB_WIRE_VERSION;
        for cut in 0..bytes.len() {
            assert!(decode_job(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        bytes.push(0xAB);
        assert!(matches!(decode_job(&bytes), Err(DecodeError::Truncated)));
    }

    #[test]
    fn job_decode_rejects_invalid_codec_params() {
        // A wire-decoded codec spec is untrusted: zero chunk / zero k /
        // non-finite threshold must fail validation, not build a panicky
        // codec later.
        let mut j = sample_job();
        j.codec = CodecSpec::Uniform8 { chunk: 1 };
        let bytes = encode_job(&j);
        // The codec field sits right after variant tag (1) + theta (4);
        // locate it by re-encoding with a marker value instead of byte
        // surgery: encode specs that validate, then corrupt the param.
        let good = decode_job(&bytes).unwrap();
        assert_eq!(good.codec, CodecSpec::Uniform8 { chunk: 1 });
        let pos = bytes
            .windows(5)
            .position(|w| w == [1u8, 1, 0, 0, 0])
            .expect("codec tag + chunk=1 in frame");
        let mut bad = bytes.clone();
        bad[pos + 1..pos + 5].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_job(&bad), Err(DecodeError::Malformed(_))));
    }

    /// One case per field [`JobSpec::validate`] rejects; each of these
    /// jobs used to reach an `assert!` in the coordinator or the worker.
    #[test]
    fn validate_rejects_each_out_of_range_field() {
        assert_eq!(sample_job().validate(), Ok(()));
        let mut never_syncs = sample_job();
        never_syncs.fda.theta = f32::INFINITY;
        assert_eq!(never_syncs.validate(), Ok(()));

        type Mutation = fn(&mut JobSpec);
        let cases: [(&str, Mutation); 17] = [
            ("workers = 0", |j| j.cluster.workers = 0),
            ("steps = 0", |j| j.steps = 0),
            ("batch_size = 0", |j| j.cluster.batch_size = 0),
            ("theta < 0", |j| j.fda.theta = -0.5),
            ("theta NaN", |j| j.fda.theta = f32::NAN),
            ("codec", |j| j.codec = CodecSpec::TopK { k: 0 }),
            ("downlink", |j| {
                j.downlink = DownlinkSpec::Delta {
                    codec: CodecSpec::Uniform8 { chunk: 0 },
                }
            }),
            ("partition fraction", |j| {
                j.cluster.partition = Partition::NonIidPercent(f32::NAN)
            }),
            ("partition label", |j| {
                j.cluster.partition = Partition::NonIidLabel(10)
            }),
            ("n_train < workers", |j| j.synth.n_train = 3),
            ("one class", |j| j.synth.classes = 1),
            ("no modes", |j| j.synth.modes_per_class = 0),
            ("no test split", |j| j.synth.n_test = 0),
            ("more classes than outputs", |j| j.synth.classes = 11),
            ("task dim != model input", |j| {
                j.synth = fda_data::synth::SynthSpec {
                    n_train: 240,
                    n_test: 80,
                    ..fda_data::synth::SynthSpec::synth_cifar10()
                }
            }),
            ("spatial shape", |j| j.synth.spatial = Some((1, 12, 11))),
            ("label shard starved", |j| {
                // 10 samples, one per class: 9 carry another label, and 9
                // cannot cover 10 round-robin shards.
                j.cluster.workers = 10;
                j.cluster.partition = Partition::NonIidLabel(0);
                j.synth.n_train = 10;
            }),
        ];
        for (what, mutate) in cases {
            let mut job = sample_job();
            mutate(&mut job);
            assert!(
                matches!(job.validate(), Err(DecodeError::Malformed(_))),
                "{what}: validate must reject"
            );
            assert!(
                matches!(
                    decode_job(&encode_job(&job)),
                    Err(DecodeError::Malformed(_))
                ),
                "{what}: decode_job must reject"
            );
        }
    }

    /// A sketch whose plan table would swamp every process, or whose state
    /// could not travel in one frame, is refused by validation — from the
    /// wire and from the API alike.
    #[test]
    fn validate_bounds_the_sketch_a_job_may_ask_for() {
        use crate::fda::FdaVariant;
        let with_sketch = |rows, cols| {
            let mut job = sample_job();
            job.fda.variant = FdaVariant::Sketch(SketchConfig::new(rows, cols, 1));
            job
        };
        assert_eq!(with_sketch(MAX_SKETCH_ROWS, 65_535).validate(), Ok(()));
        for (rows, cols) in [(65_535, 65_535), (MAX_SKETCH_ROWS + 1, 250)] {
            let job = with_sketch(rows, cols);
            assert!(
                matches!(job.validate(), Err(DecodeError::Malformed(_))),
                "{rows}x{cols}"
            );
            assert!(
                matches!(
                    decode_job(&encode_job(&job)),
                    Err(DecodeError::Malformed(_))
                ),
                "{rows}x{cols} from the wire"
            );
        }
        // An API-built job is not limited to the wire's u16 dims, and its
        // state size must not overflow on the way to the check.
        for cols in [10_000_000, usize::MAX / 2] {
            assert_eq!(
                with_sketch(8, cols).validate(),
                Err(DecodeError::Malformed(
                    "sketch state does not fit one frame"
                ))
            );
        }
    }

    #[test]
    fn min_shard_len_matches_the_partitioner() {
        use fda_data::Dataset;
        use fda_tensor::Matrix;
        let classes = 4;
        for partition in [
            Partition::Iid,
            Partition::NonIidPercent(0.3),
            Partition::NonIidPercent(1.0),
            Partition::NonIidLabel(0),
            Partition::NonIidLabel(3),
        ] {
            for n in 1..=24usize {
                for k in [1usize, 2, 3, 5, 11, 20] {
                    let labels = (0..n).map(|i| i % classes).collect();
                    let data = Dataset::new(Matrix::zeros(n, 1), labels, classes);
                    let predicted = min_shard_len(partition, n, classes, k);
                    let case = format!("{partition:?} n={n} k={k}");
                    if predicted == 0 {
                        let dealt = std::panic::catch_unwind(|| partition.shards(&data, k, 7));
                        assert!(dealt.is_err(), "{case}: predicted an empty shard");
                    } else {
                        let shards = partition.shards(&data, k, 7);
                        let min = shards.iter().map(Vec::len).min().unwrap();
                        assert_eq!(min, predicted, "{case}");
                    }
                }
            }
        }
    }

    /// Known-answer bytes for every `f32` layout of the table in the
    /// module header, written out here rather than derived from another
    /// encoder: the dense frames a peer of any earlier protocol v5 build
    /// reads. Each must be what the encoder emits, and decode — into a slot
    /// of its shape — back to the same bits.
    #[test]
    fn dense_coded_frames_match_uncoded_layouts() {
        let mut sketch = AmsSketch::zeros(2, 3);
        sketch
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.5, -1.0]);
        let state = |drift_sq_norm, summary| LocalState {
            drift_sq_norm,
            summary,
        };
        #[rustfmt::skip]
        let states: [(LocalState, &[u8]); 3] = [
            (state(2.0, StateSummary::Linear(0.5)), &[
                0, 0x00, 0x00, 0x00, 0x40, // Linear, ‖u‖² = 2.0
                0x00, 0x00, 0x00, 0x3F, // proj 0.5
            ]),
            (state(1.0, StateSummary::Sketch(sketch)), &[
                1, 0x00, 0x00, 0x80, 0x3F, // Sketch, ‖u‖² = 1.0
                2, 0, 3, 0, // rows 2, cols 3
                0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x40, 0x40,
                0x00, 0x00, 0x80, 0x40, 0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x80, 0xBF,
            ]),
            (state(0.25, StateSummary::Exact(vec![1.5, -1.0])), &[
                2, 0x00, 0x00, 0x80, 0x3E, // Exact, ‖u‖² = 0.25
                2, 0, 0, 0, // len 2
                0x00, 0x00, 0xC0, 0x3F, 0x00, 0x00, 0x80, 0xBF,
            ]),
        ];
        for (s, want) in &states {
            assert_eq!(encode_state_coded(s, &Dense32), *want);
            assert_eq!(encode_state_coded(&dense_roundtrip(s), &Dense32), *want);
        }
        #[rustfmt::skip]
        let want: &[u8] = &[
            3, 0, 0, 0, // len 3
            0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x80, 0xBF, 0x00, 0x00, 0x00, 0x3F,
        ];
        let v = [1.0f32, -1.0, 0.5];
        assert_eq!(encode_vector_coded(&v, &Dense32), want);
        assert_eq!(decode_vector_coded(want, 3, &Dense32).unwrap(), v);
    }

    #[test]
    fn coded_state_roundtrips_and_validates_shape() {
        use fda_comm::compress::{TopK, Uniform8Bit};
        let m = ExactMonitor::new(64);
        let s = m.local_state(&drift(64));
        let codec = TopK::new(5);
        let bytes = encode_state_coded(&s, &codec);
        // Exact header (1 tag + 4 drift + 4 len) + 5 pairs.
        assert_eq!(bytes.len() as u64, state_frame_overhead(&s) + 4 + 5 * 8);
        let back = decode_state_coded(&bytes, &s, &codec).unwrap();
        assert_eq!(back.drift_sq_norm, s.drift_sq_norm);
        match &back.summary {
            StateSummary::Exact(v) => {
                assert_eq!(v.len(), 64);
                assert_eq!(v.iter().filter(|x| **x != 0.0).count(), 5);
            }
            _ => panic!("summary kind changed"),
        }
        // Re-encoding the reconstruction is byte-identical (the simulator
        // charges exactly what the socket carried).
        assert_eq!(encode_state_coded(&back, &codec), bytes);
        // A mismatched template is rejected before decoding values.
        let other = ExactMonitor::new(63).local_state(&drift(63));
        assert!(decode_state_coded(&bytes, &other, &codec).is_err());
        let linear = LinearMonitor::new().local_state(&drift(64));
        assert!(decode_state_coded(&bytes, &linear, &codec).is_err());
        // Sketch states quantize, too.
        let sm = SketchMonitor::new(SketchConfig::new(5, 50, 7), 64);
        let ss = sm.local_state(&drift(64));
        let q = Uniform8Bit::new(64);
        let qb = encode_state_coded(&ss, &q);
        let qback = decode_state_coded(&qb, &ss, &q).unwrap();
        assert!(ss.same_shape(&qback));
        assert_eq!(encode_state_coded(&qback, &q), qb);
    }

    #[test]
    fn coded_vector_rejects_length_mismatch_and_truncation() {
        use fda_comm::compress::Uniform8Bit;
        let codec = Uniform8Bit::new(32);
        let v = drift(100);
        let bytes = encode_vector_coded(&v, &codec);
        let back = decode_vector_coded(&bytes, 100, &codec).unwrap();
        assert_eq!(encode_vector_coded(&back, &codec), bytes);
        // Wrong expectation: rejected by the header check.
        assert!(matches!(
            decode_vector_coded(&bytes, 99, &codec),
            Err(DecodeError::Malformed(_))
        ));
        for cut in 0..bytes.len() {
            assert!(decode_vector_coded(&bytes[..cut], 100, &codec).is_err());
        }
    }

    /// The slot decoders leave a slot of another shape untouched and
    /// otherwise agree with the allocating decoders bit for bit, whatever
    /// the slot held before.
    #[test]
    fn into_decoders_check_the_slot_shape_before_writing() {
        use fda_comm::compress::Uniform8Bit;
        let codec = Uniform8Bit::new(32);
        // Each monitor beside a state of another shape: wider sketch rows,
        // a shorter exact drift, another summary kind.
        let wide = SketchMonitor::new(SketchConfig::new(5, 51, 7), 64);
        for (monitor, other) in [
            (
                Box::new(SketchMonitor::new(SketchConfig::new(5, 50, 7), 64))
                    as Box<dyn VarianceMonitor>,
                wide.local_state(&drift(64)),
            ),
            (
                Box::new(ExactMonitor::new(64)),
                ExactMonitor::new(63).local_state(&drift(63)),
            ),
            (
                Box::new(LinearMonitor::new()),
                ExactMonitor::new(64).local_state(&drift(64)),
            ),
        ] {
            let state = monitor.local_state(&drift(64));
            let bytes = encode_state_coded(&state, &codec);
            let mut slot = other.clone();
            assert!(decode_state_coded_into(&bytes, &mut slot, &codec).is_err());
            assert_eq!(slot, other, "{}", monitor.name());
            let mut slot = monitor.local_state(&[0.5; 64]);
            decode_state_coded_into(&bytes, &mut slot, &codec).unwrap();
            let fresh = decode_state_coded(&bytes, &state, &codec).unwrap();
            assert_eq!(
                encode_state_coded(&slot, &Dense32),
                encode_state_coded(&fresh, &Dense32),
                "{}",
                monitor.name()
            );
        }

        let v = drift(100);
        let bytes = encode_vector_coded(&v, &codec);
        let mut short = vec![1.5f32; 99];
        assert!(decode_vector_coded_into(&bytes, &mut short, &codec).is_err());
        assert_eq!(short, vec![1.5f32; 99]);
        let mut slot = vec![-2.0f32; 100];
        decode_vector_coded_into(&bytes, &mut slot, &codec).unwrap();
        assert_eq!(slot, decode_vector_coded(&bytes, 100, &codec).unwrap());
    }
}
