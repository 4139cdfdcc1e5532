//! Payload compression codecs with a real byte surface.
//!
//! The paper (§2, "Compression") emphasizes that FDA is *orthogonal* to
//! message-size reduction: FDA decides **when** to synchronize; codecs
//! shrink **what** is transmitted, and any technique effective under
//! BSP/Local-SGD transfers unchanged. This module provides the standard
//! families so that composition can be demonstrated, measured, and — since
//! these codecs are the actual `fda_net` wire payloads — deployed:
//!
//! * [`Dense32`] — the identity codec: a raw little-endian `f32` run, so a
//!   dense-coded payload is byte-identical to the uncoded layout;
//! * [`Uniform8Bit`] — linear quantization of each chunk to `u8` with a
//!   per-chunk `[lo, hi]` range (≈4× smaller payloads, bounded error);
//! * [`TopK`] — magnitude sparsification keeping the `k` largest entries
//!   as (index, value) pairs;
//! * [`DriftMask`] — selective masking à la Ji et al. 2020: transmit only
//!   coordinates whose drift magnitude exceeds a fixed threshold, the
//!   natural per-coordinate composition with FDA's drift monitor.
//!
//! Three contracts hold for every codec, and the property suite pins them:
//!
//! 1. **Charged = emitted bytes** — nothing computes a payload's size
//!    apart from encoding it: the simulator charges the length its
//!    [`Codec::encode_into`] emitted, and the socket measures the same
//!    bytes.
//! 2. **Total decoding** — [`Codec::decode_into`] never panics, whatever
//!    the byte buffer, and writes only the caller-shaped slice it is
//!    given (the `core::wire` convention: the element count is receiver
//!    knowledge, never read off the wire).
//! 3. **Byte idempotence** — `encode(decode(encode(v))) == encode(v)`:
//!    one encode reaches the codec's fixed point, so re-encoding a
//!    reconstruction charges the same bytes the socket carried.
//!
//! The simulator reconstructs an upload as `decode(encode(v))` through
//! the same two methods a receiver runs, so the simulator and the socket
//! transport share one lossy path by construction — bit-identical
//! reconstructions on both sides.
//!
//! Non-finite policy: values are never silently corrupted. `TopK` and
//! `DriftMask` carry raw bit patterns, and order magnitudes by
//! `f32::total_cmp` (NaN sorts above `+inf`, so a NaN coordinate is
//! always "largest" and survives selection bit-for-bit). `Uniform8Bit`
//! escapes any chunk containing a non-finite value (or whose range
//! degenerates) to a raw `f32` run, propagating every bit pattern
//! exactly.
//!
//! The per-element loops of [`Dense32`] and [`Uniform8Bit`] live in
//! [`crate::kernels`], which also states the rule they obey: codec bytes
//! are bit-identical on every host and kernel arm.

use crate::kernels::{extend_le_f32s, quant_kernels, read_le_f32s, QuantKernels};

/// Decode failure of a codec payload. Mirrors the shape of
/// `fda_core::wire::DecodeError` (comm sits below core, so the net layer
/// converts; see `From<CodecError>` there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared content.
    Truncated,
    /// Structurally invalid content (bad length multiple, out-of-range or
    /// unsorted indices, degenerate chunk header, trailing bytes).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "codec payload truncated"),
            CodecError::Malformed(what) => write!(f, "malformed codec payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A lossy vector codec over real byte buffers with hostile-input-safe
/// decoding: one encoder, [`Codec::encode_into`], and one decoder,
/// [`Codec::decode_into`], both over caller-owned buffers — what every
/// round loop (socket and simulator) uses, so steady-state rounds
/// allocate nothing payload-sized. [`Codec::encode`] and
/// [`Codec::decode`] are allocating wrappers around them.
pub trait Codec: Send {
    /// Codec name for reports.
    fn name(&self) -> &'static str;

    /// Appends the encoding of `v` to `out`.
    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>);

    /// Decodes a payload into a caller-owned slice whose length is the
    /// expected element count. Total: any byte buffer either decodes or
    /// returns an error. On error `out` holds unspecified (but
    /// initialized) values.
    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError>;

    /// The encoding of `v` in a fresh buffer.
    fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(v, &mut out);
        out
    }

    /// Decodes a payload into a fresh length-`n` vector. `n` is caller
    /// knowledge (the expected vector length), never taken from the
    /// untrusted buffer; codecs whose payload bounds `n` refuse a
    /// buffer too short for it before allocating.
    fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = vec![0.0; n];
        self.decode_into(buf, &mut out)?;
        Ok(out)
    }
}

/// The identity codec: full-precision `f32` payloads as a raw
/// little-endian run (no header), so dense-coded wire frames are
/// byte-identical to the pre-codec dense layouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dense32;

impl Dense32 {
    /// The buffer must be exactly `n` floats — checked before anything is
    /// sized from `n`.
    fn check_len(buf: &[u8], n: usize) -> Result<(), CodecError> {
        let want = n
            .checked_mul(4)
            .ok_or(CodecError::Malformed("length overflow"))?;
        match buf.len().cmp(&want) {
            std::cmp::Ordering::Less => Err(CodecError::Truncated),
            std::cmp::Ordering::Greater => {
                Err(CodecError::Malformed("trailing bytes after dense run"))
            }
            std::cmp::Ordering::Equal => Ok(()),
        }
    }
}

impl Codec for Dense32 {
    fn name(&self) -> &'static str {
        "dense-f32"
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        extend_le_f32s(out, v);
    }

    fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        Dense32::check_len(buf, n)?;
        let mut out = vec![0.0f32; n];
        read_le_f32s(buf, &mut out);
        Ok(out)
    }

    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        Dense32::check_len(buf, out.len())?;
        read_le_f32s(buf, out);
        Ok(())
    }
}

/// The `lo` sentinel marking a raw (escaped) chunk: a canonical quiet
/// NaN. A quantized chunk's `lo` is the minimum of finite values, so a
/// NaN header can never be emitted for one — the escape is unambiguous.
const ESCAPE_BITS: u32 = 0x7fc0_0000;

/// How one quantizer chunk is carried on the wire.
enum ChunkPlan {
    /// `[lo f32][hi f32]` + one `u8` level per element.
    Quantized { lo: f32, hi: f32, scale: f32 },
    /// `[NaN][NaN]` + raw `f32` bits per element — used when the chunk
    /// holds a non-finite value or its range cannot be quantized
    /// losslessly-idempotently (overflowed/degenerate scale, or levels
    /// that collapse below `f32` resolution near a huge `lo`).
    Raw,
}

/// Linear 8-bit quantization with per-chunk min/max scaling.
///
/// Wire format, per chunk of up to `chunk` values:
///
/// ```text
/// [ lo: f32 ] [ hi: f32 ] [ q: u8 × len ]        (quantized chunk)
/// [ NaN ] [ NaN ] [ raw f32 bits × len ]         (escaped chunk)
/// ```
///
/// Decoding maps level `q` to `lo + q·scale` with `scale = (hi−lo)/255`,
/// pinning `q = 0` to `lo` and `q = 255` to `hi` exactly and clamping to
/// `[lo, hi]`. A chunk escapes to raw `f32` when it contains a
/// non-finite value (bit-for-bit propagation — the non-finite policy) or
/// when quantization would not be byte-idempotent (the encoder certifies
/// all 256 levels re-quantize to themselves; a chunk spanning
/// `[−MAX, MAX]` or sitting on a huge offset fails and ships raw).
/// Maximum per-element error of a quantized chunk is `(hi − lo)/510`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform8Bit {
    chunk: usize,
}

impl Uniform8Bit {
    /// Creates the codec with the given chunk length.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn new(chunk: usize) -> Uniform8Bit {
        assert!(chunk >= 1, "quantizer: chunk must be positive");
        Uniform8Bit { chunk }
    }

    /// Chunk length.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Decides how a chunk travels. Quantized only when every value is
    /// finite, the scale is usable, and all 256 levels re-quantize to
    /// themselves (the byte-idempotence certificate — run through the same
    /// two kernels the encoder and decoder use, so they cannot drift).
    fn plan(k: &QuantKernels, chunk: &[f32]) -> ChunkPlan {
        let Some((lo, hi)) = (k.range)(chunk) else {
            return ChunkPlan::Raw;
        };
        if hi == lo {
            // Constant chunk: every level byte is 0 and decodes to `lo`
            // exactly. `hi` is normalized to `lo`'s bit pattern (they
            // differ on a chunk mixing ±0.0) so re-encoding the
            // reconstruction emits an identical header.
            return ChunkPlan::Quantized {
                lo,
                hi: lo,
                scale: 0.0,
            };
        }
        let scale = (hi - lo) / 255.0;
        if !scale.is_finite() || scale <= 0.0 {
            return ChunkPlan::Raw;
        }
        let mut levels = [0.0f32; 256];
        (k.dequantize)(lo, hi, scale, &ALL_LEVELS, &mut levels);
        let mut requantized = [0u8; 256];
        (k.quantize)(lo, scale, &levels, &mut requantized);
        if requantized != ALL_LEVELS {
            return ChunkPlan::Raw;
        }
        ChunkPlan::Quantized { lo, hi, scale }
    }

    /// [`Codec::encode_into`] on an explicit kernel arm — the dispatched
    /// one in production, each supported one in the differential tests.
    fn encode_with(&self, k: &QuantKernels, v: &[f32], out: &mut Vec<u8>) {
        out.reserve(v.len() + v.len().div_ceil(self.chunk) * 8);
        for chunk in v.chunks(self.chunk) {
            match Uniform8Bit::plan(k, chunk) {
                ChunkPlan::Quantized { lo, hi, scale } => {
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                    let start = out.len();
                    out.resize(start + chunk.len(), 0);
                    // A constant chunk (scale 0) is all level 0 already.
                    if scale > 0.0 {
                        (k.quantize)(lo, scale, chunk, &mut out[start..]);
                    }
                }
                ChunkPlan::Raw => {
                    out.extend_from_slice(&ESCAPE_BITS.to_le_bytes());
                    out.extend_from_slice(&ESCAPE_BITS.to_le_bytes());
                    extend_le_f32s(out, chunk);
                }
            }
        }
    }

    /// [`Codec::decode_into`] on an explicit kernel arm.
    fn decode_with(&self, k: &QuantKernels, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        self.check_floor(buf, out.len())?;
        let mut off = 0usize;
        for dst in out.chunks_mut(self.chunk) {
            if buf.len() - off < 8 {
                return Err(CodecError::Truncated);
            }
            let lo = f32::from_le_bytes(buf[off..off + 4].try_into().expect("len 4"));
            let hi = f32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("len 4"));
            off += 8;
            if lo.is_nan() {
                // Escaped chunk: raw f32 bit patterns.
                let want = dst.len() * 4;
                if buf.len() - off < want {
                    return Err(CodecError::Truncated);
                }
                read_le_f32s(&buf[off..off + want], dst);
                off += want;
            } else {
                if !lo.is_finite() || !hi.is_finite() || hi < lo {
                    return Err(CodecError::Malformed("degenerate quantizer chunk header"));
                }
                if buf.len() - off < dst.len() {
                    return Err(CodecError::Truncated);
                }
                let scale = (hi - lo) / 255.0;
                (k.dequantize)(lo, hi, scale, &buf[off..off + dst.len()], dst);
                off += dst.len();
            }
        }
        if off != buf.len() {
            return Err(CodecError::Malformed(
                "trailing bytes after quantizer chunks",
            ));
        }
        Ok(())
    }

    /// Every chunk costs an 8-byte header plus at least one byte per
    /// element, so any buffer below that floor cannot encode `n` elements.
    /// Rejecting here bounds every allocation sized from `n` by the buffer
    /// that claims to back it (saturating: a hostile `n` must not overflow
    /// its own guard).
    fn check_floor(&self, buf: &[u8], n: usize) -> Result<(), CodecError> {
        let floor = n.div_ceil(self.chunk).saturating_mul(8).saturating_add(n);
        if buf.len() < floor {
            return Err(CodecError::Truncated);
        }
        Ok(())
    }
}

/// The identity level run `0, 1, …, 255` the certificate pushes through
/// dequantize → quantize.
const ALL_LEVELS: [u8; 256] = {
    let mut levels = [0u8; 256];
    let mut q = 0usize;
    while q < 256 {
        levels[q] = q as u8;
        q += 1;
    }
    levels
};

impl Default for Uniform8Bit {
    fn default() -> Self {
        Uniform8Bit::new(1024)
    }
}

impl Codec for Uniform8Bit {
    fn name(&self) -> &'static str {
        "uniform-8bit"
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        self.encode_with(quant_kernels(), v, out);
    }

    fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        self.check_floor(buf, n)?;
        let mut out = vec![0.0f32; n];
        self.decode_with(quant_kernels(), buf, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        self.decode_with(quant_kernels(), buf, out)
    }
}

/// Appends a sparse selection as `[index u32][value f32]` pairs in
/// ascending index order — the shared wire format of [`TopK`] and
/// [`DriftMask`]. Values travel as raw bit patterns (NaN-safe).
fn encode_pairs_into(v: &[f32], keep: impl IntoIterator<Item = usize>, out: &mut Vec<u8>) {
    for i in keep {
        out.extend_from_slice(&(i as u32).to_le_bytes());
        out.extend_from_slice(&v[i].to_le_bytes());
    }
}

/// Decodes an `[index u32][value f32]` pair run into `out`, zeros
/// elsewhere. Indices must be strictly increasing and in range — the
/// canonical form `encode_pairs_into` emits — so decode→encode is
/// byte-identical and duplicates cannot double-write.
fn decode_pairs_into(buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let n = out.len();
    if !buf.len().is_multiple_of(8) {
        return Err(CodecError::Malformed("pair run not a multiple of 8 bytes"));
    }
    let count = buf.len() / 8;
    if count > n {
        return Err(CodecError::Malformed("more pairs than vector elements"));
    }
    out.fill(0.0);
    let mut prev: Option<u32> = None;
    for pair in buf.chunks_exact(8) {
        let idx = u32::from_le_bytes(pair[0..4].try_into().expect("len 4"));
        let val = f32::from_le_bytes(pair[4..8].try_into().expect("len 4"));
        if idx as usize >= n {
            return Err(CodecError::Malformed("pair index out of range"));
        }
        if prev.is_some_and(|p| idx <= p) {
            return Err(CodecError::Malformed(
                "pair indices not strictly increasing",
            ));
        }
        prev = Some(idx);
        out[idx as usize] = val;
    }
    Ok(())
}

/// Magnitude top-k sparsification: keeps up to `k` largest-|·| entries,
/// zeroing the rest. Wire cost is 8 bytes per *kept* entry — exactly the
/// emitted pair count, which is less than `k` when the input has fewer
/// than `k` nonzero coordinates (zeros are never transmitted; a `−0.0`
/// therefore reconstructs as `+0.0`).
///
/// Magnitudes are ordered by `f32::total_cmp`, which is total over NaN:
/// a NaN coordinate sorts above `+inf`, is always selected, and its bit
/// pattern survives the wire unchanged.
#[derive(Debug, Clone, Copy)]
pub struct TopK {
    k: usize,
}

impl TopK {
    /// Creates the codec keeping `k` entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> TopK {
        assert!(k >= 1, "top-k: k must be positive");
        TopK { k }
    }

    /// Entries kept.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The indices this codec transmits, ascending. Zeros (±0.0) are
    /// never kept; NaN magnitudes order above everything via `total_cmp`.
    fn keep(&self, v: &[f32]) -> Vec<usize> {
        let is_zero = |x: f32| x.abs().to_bits() == 0;
        if self.k >= v.len() {
            return (0..v.len()).filter(|&i| !is_zero(v[i])).collect();
        }
        // Select the k-th largest magnitude without a full sort.
        let mut mags: Vec<f32> = v.iter().map(|x| x.abs()).collect();
        let idx = mags.len() - self.k;
        mags.select_nth_unstable_by(idx, f32::total_cmp);
        let threshold = mags[idx];
        let mut keep = Vec::with_capacity(self.k);
        // Keep strictly-above first, then fill ties up to k in index order.
        for (i, &x) in v.iter().enumerate() {
            if x.abs().total_cmp(&threshold) == std::cmp::Ordering::Greater {
                keep.push(i);
            }
        }
        if keep.len() < self.k {
            let mut fill = Vec::with_capacity(self.k - keep.len());
            for (i, &x) in v.iter().enumerate() {
                if fill.len() + keep.len() == self.k {
                    break;
                }
                if x.abs().total_cmp(&threshold) == std::cmp::Ordering::Equal && !is_zero(x) {
                    fill.push(i);
                }
            }
            keep.extend(fill);
            keep.sort_unstable();
        }
        keep
    }
}

impl Codec for TopK {
    fn name(&self) -> &'static str {
        "top-k"
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        encode_pairs_into(v, self.keep(v), out);
    }

    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        decode_pairs_into(buf, out)
    }
}

/// Drift-threshold selective masking (Ji et al. 2020 composed with FDA):
/// transmit only coordinates whose magnitude strictly exceeds a fixed
/// per-coordinate threshold. Applied to FDA's drift payloads this sends
/// exactly the coordinates that moved since the last synchronization —
/// the per-coordinate refinement of the monitor's global drift decision.
///
/// Same `[index u32][value f32]` pair format as [`TopK`]; the emitted
/// count is data-dependent (possibly zero). Comparison is
/// `f32::total_cmp` on magnitudes, so NaN coordinates always transmit
/// (bit-for-bit) and ±0.0 never does.
#[derive(Debug, Clone, Copy)]
pub struct DriftMask {
    threshold: f32,
}

impl DriftMask {
    /// Creates the codec with the given magnitude threshold.
    ///
    /// # Panics
    /// Panics unless `threshold` is finite and non-negative.
    pub fn new(threshold: f32) -> DriftMask {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "drift-mask: threshold must be finite and non-negative"
        );
        DriftMask { threshold }
    }
}

impl Codec for DriftMask {
    fn name(&self) -> &'static str {
        "drift-mask"
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        let above = |&i: &usize| v[i].abs().total_cmp(&self.threshold).is_gt();
        encode_pairs_into(v, (0..v.len()).filter(above), out);
    }

    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        decode_pairs_into(buf, out)
    }
}

/// Telemetry decorator every [`CodecSpec::build`] result is wrapped in:
/// spans around encode/decode plus byte counters, delegating the codec
/// arithmetic untouched — reconstructions (and therefore trajectories)
/// are bit-identical with telemetry on or off.
struct Instrumented(Box<dyn Codec>);

impl Codec for Instrumented {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        let _span = fda_obs::histogram!("codec_encode_us").span();
        let before = out.len();
        self.0.encode_into(v, out);
        fda_obs::counter!("codec_encoded_bytes").add((out.len() - before) as u64);
    }

    fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let _span = fda_obs::histogram!("codec_decode_us").span();
        fda_obs::counter!("codec_decoded_bytes").add(buf.len() as u64);
        self.0.decode(buf, n)
    }

    fn decode_into(&self, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
        let _span = fda_obs::histogram!("codec_decode_us").span();
        fda_obs::counter!("codec_decoded_bytes").add(buf.len() as u64);
        self.0.decode_into(buf, out)
    }
}

/// Wire-encodable codec selection: which codec a job runs and its
/// parameters. Carried in the `JobSpec` config frame so every process of
/// a run builds the identical codec, and in the simulator so both sides
/// share one lossy path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodecSpec {
    /// [`Dense32`] — identity payloads (the default; byte-identical to
    /// the pre-codec wire layout).
    #[default]
    Dense,
    /// [`Uniform8Bit`] with the given chunk length.
    Uniform8 { chunk: u32 },
    /// [`TopK`] keeping `k` entries.
    TopK { k: u32 },
    /// [`DriftMask`] with the given magnitude threshold.
    DriftMask { threshold: f32 },
}

impl CodecSpec {
    /// Codec name, matching what [`Codec::name`] reports.
    pub fn name(&self) -> &'static str {
        match self {
            CodecSpec::Dense => "dense-f32",
            CodecSpec::Uniform8 { .. } => "uniform-8bit",
            CodecSpec::TopK { .. } => "top-k",
            CodecSpec::DriftMask { .. } => "drift-mask",
        }
    }

    /// Whether this is the identity codec (callers keep the uncoded fast
    /// paths — and their byte-for-byte accounting — when it is).
    pub fn is_dense(&self) -> bool {
        matches!(self, CodecSpec::Dense)
    }

    /// Validates the parameters (a wire-decoded spec is untrusted).
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            CodecSpec::Dense => Ok(()),
            CodecSpec::Uniform8 { chunk: 0 } => Err("uniform8 chunk must be positive"),
            CodecSpec::Uniform8 { .. } => Ok(()),
            CodecSpec::TopK { k: 0 } => Err("top-k k must be positive"),
            CodecSpec::TopK { .. } => Ok(()),
            CodecSpec::DriftMask { threshold } if !(threshold.is_finite() && threshold >= 0.0) => {
                Err("drift-mask threshold must be finite and non-negative")
            }
            CodecSpec::DriftMask { .. } => Ok(()),
        }
    }

    /// Builds the codec.
    ///
    /// # Panics
    /// Panics if the spec fails [`CodecSpec::validate`] — wire decoders
    /// validate before building, so this is a caller bug.
    pub fn build(&self) -> Box<dyn Codec> {
        self.validate().expect("valid codec spec");
        let codec: Box<dyn Codec> = match *self {
            CodecSpec::Dense => Box::new(Dense32),
            CodecSpec::Uniform8 { chunk } => Box::new(Uniform8Bit::new(chunk as usize)),
            CodecSpec::TopK { k } => Box::new(TopK::new(k as usize)),
            CodecSpec::DriftMask { threshold } => Box::new(DriftMask::new(threshold)),
        };
        Box::new(Instrumented(codec))
    }

    /// Parses a CLI spec: `dense`, `uniform8[:chunk]`, `topk:<k>`,
    /// `driftmask:<threshold>`.
    pub fn parse(s: &str) -> Result<CodecSpec, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let spec = match (name, arg) {
            ("dense", None) => CodecSpec::Dense,
            ("uniform8", None) => CodecSpec::Uniform8 { chunk: 1024 },
            ("uniform8", Some(a)) => CodecSpec::Uniform8 {
                chunk: a.parse().map_err(|_| format!("bad uniform8 chunk '{a}'"))?,
            },
            ("topk", Some(a)) => CodecSpec::TopK {
                k: a.parse().map_err(|_| format!("bad topk k '{a}'"))?,
            },
            ("driftmask", Some(a)) => CodecSpec::DriftMask {
                threshold: a
                    .parse()
                    .map_err(|_| format!("bad driftmask threshold '{a}'"))?,
            },
            _ => return Err(format!("unknown codec spec '{s}'")),
        };
        spec.validate().map_err(String::from)?;
        Ok(spec)
    }
}

/// Wire-encodable downlink selection: how the coordinator broadcasts the
/// post-AllReduce consensus model. Carried in the `JobSpec` config frame
/// (wire v3) so every process — and the simulator mirror — applies the
/// identical reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DownlinkSpec {
    /// Broadcast the dense AllReduce mean (the default; byte- and
    /// trajectory-identical to the pre-delta wire layout).
    #[default]
    Dense,
    /// Broadcast only the consensus *delta* against the previous
    /// broadcast, encoded with its own codec (independent of the uplink
    /// codec). The authoritative consensus becomes the receiver-side
    /// reconstruction `prev + decode(encode(mean − prev))` — see
    /// [`delta_downlink`] — so even `Delta { codec: Dense }` is a
    /// different (float-rounded) trajectory from [`DownlinkSpec::Dense`].
    Delta {
        /// Codec for the delta payload.
        codec: CodecSpec,
    },
}

impl DownlinkSpec {
    /// Downlink mode name for reports: `"dense"` or `"delta-<codec>"`.
    pub fn name(&self) -> String {
        match self {
            DownlinkSpec::Dense => "dense".to_string(),
            DownlinkSpec::Delta { codec } => format!("delta-{}", codec.name()),
        }
    }

    /// Whether this is the historical dense broadcast (callers keep the
    /// byte-identical `AvgModel` path when it is).
    pub fn is_dense(&self) -> bool {
        matches!(self, DownlinkSpec::Dense)
    }

    /// Validates the parameters (a wire-decoded spec is untrusted).
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            DownlinkSpec::Dense => Ok(()),
            DownlinkSpec::Delta { codec } => codec.validate(),
        }
    }

    /// Builds the delta codec, or `None` in dense mode.
    pub fn build(&self) -> Option<Box<dyn Codec>> {
        match self {
            DownlinkSpec::Dense => None,
            DownlinkSpec::Delta { codec } => Some(codec.build()),
        }
    }

    /// Parses a CLI spec: `dense` or `delta:<codec spec>` (e.g.
    /// `delta:uniform8:256`).
    pub fn parse(s: &str) -> Result<DownlinkSpec, String> {
        match s {
            "dense" => Ok(DownlinkSpec::Dense),
            _ => match s.strip_prefix("delta:") {
                Some(rest) => Ok(DownlinkSpec::Delta {
                    codec: CodecSpec::parse(rest)?,
                }),
                None => Err(format!("unknown downlink spec '{s}'")),
            },
        }
    }
}

/// Produces one delta downlink: the wire payload for the broadcast and the
/// authoritative reconstruction every receiver will hold afterwards.
///
/// The payload encodes `mean − prev` through `codec`; the returned model
/// is computed by running the payload through [`apply_delta_downlink_into`] —
/// the *receiver's* code path — so the sender's bookkeeping copy is
/// bit-identical to every worker's and the simulator mirror's by
/// construction (never by a parallel reimplementation of the float math).
///
/// # Panics
/// Panics only if the codec fails to decode its own encoding — an
/// internal bug, not an input condition.
pub fn delta_downlink(prev: &[f32], mean: &[f32], codec: &dyn Codec) -> (Vec<u8>, Vec<f32>) {
    let (mut payload, mut recon) = (Vec::new(), Vec::new());
    delta_downlink_into(prev, mean, codec, &mut payload, &mut recon);
    (payload, recon)
}

/// [`delta_downlink`] into caller-owned buffers, both overwritten: the
/// payload is *appended* to `payload` (so a caller may lead with its own
/// header) and `recon` is replaced by the reconstruction. A round loop that
/// keeps the two across syncs allocates nothing here in steady state.
/// `recon` doubles as the delta scratch, so the float path is still
/// `prev + decode(encode(mean − prev))` through
/// [`apply_delta_downlink_into`] — one code path with every receiver.
///
/// # Panics
/// As [`delta_downlink`].
pub fn delta_downlink_into(
    prev: &[f32],
    mean: &[f32],
    codec: &dyn Codec,
    payload: &mut Vec<u8>,
    recon: &mut Vec<f32>,
) {
    assert_eq!(prev.len(), mean.len(), "delta downlink length mismatch");
    recon.clear();
    recon.extend(prev.iter().zip(mean).map(|(p, m)| m - p));
    let start = payload.len();
    codec.encode_into(recon, payload);
    apply_delta_downlink_into(prev, &payload[start..], codec, recon)
        .expect("codec decodes its own encoding");
}

/// Reconstructs the consensus model from a delta-downlink payload into
/// `out`: `prev[i] + decode(payload)[i]`, decoding the delta in place and
/// adding `prev` over it. `out` is resized to `prev.len()` (unspecified
/// contents on error). Total over hostile payloads (the codec decoder
/// validates), and the single float path for the sender's bookkeeping and
/// every receiver.
pub fn apply_delta_downlink_into(
    prev: &[f32],
    payload: &[u8],
    codec: &dyn Codec,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    out.resize(prev.len(), 0.0);
    codec.decode_into(payload, out)?;
    for (slot, &p) in out.iter_mut().zip(prev) {
        let delta = *slot;
        *slot = p + delta;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = fda_tensor::Rng::new(seed);
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    /// What a receiver reconstructs from `v`'s encoding.
    fn roundtrip(codec: &dyn Codec, v: &[f32]) -> Vec<f32> {
        codec.decode(&codec.encode(v), v.len()).unwrap()
    }

    fn all_codecs() -> Vec<Box<dyn Codec>> {
        vec![
            Box::new(Dense32),
            Box::new(Uniform8Bit::new(64)),
            Box::new(TopK::new(17)),
            Box::new(DriftMask::new(0.5)),
        ]
    }

    #[test]
    fn dense_is_lossless_and_byte_exact() {
        let v = sample(100, 1);
        assert_eq!(roundtrip(&Dense32, &v), v);
        assert_eq!(Dense32.encode(&v).len(), 400);
        // The dense payload is the raw LE f32 run — no header.
        let enc = Dense32.encode(&v);
        assert_eq!(&enc[0..4], &v[0].to_le_bytes());
    }

    #[test]
    fn quantizer_error_bounded() {
        let v = sample(5_000, 2);
        let codec = Uniform8Bit::new(512);
        let r = roundtrip(&codec, &v);
        assert_eq!(r.len(), v.len());
        // Per-chunk bound: (hi − lo)/255/2; normal data stays within ~8σ,
        // so |err| ≤ 16/510 ≈ 0.032 with slack.
        for (a, b) in v.iter().zip(&r) {
            assert!(
                (a - b).abs() < 0.05,
                "quantization error too large: {a} vs {b}"
            );
        }
        // 4×-ish compression.
        assert!(codec.encode(&v).len() < Dense32.encode(&v).len() / 3);
    }

    #[test]
    fn quantizer_handles_constant_chunks() {
        let v = vec![3.25f32; 100];
        let r = roundtrip(&Uniform8Bit::new(32), &v);
        assert_eq!(r, v, "constant chunks must be exact");
    }

    /// Regression (pre-fix: a NaN element quantized to the chunk minimum,
    /// an all-NaN chunk reconstructed as `+inf`, and a chunk containing
    /// `±inf` reconstructed as all-zeros): non-finite values now propagate
    /// bit-for-bit through the raw-chunk escape.
    #[test]
    fn uniform8_propagates_non_finite_bit_for_bit() {
        let codec = Uniform8Bit::new(8);
        // One NaN (with a distinctive payload) among finite values.
        let weird_nan = f32::from_bits(0x7fc1_2345);
        let mut v = sample(24, 7);
        v[3] = weird_nan;
        v[10] = f32::INFINITY;
        v[17] = f32::NEG_INFINITY;
        let r = roundtrip(&codec, &v);
        assert_eq!(
            r[3].to_bits(),
            weird_nan.to_bits(),
            "NaN payload must survive"
        );
        assert_eq!(r[10], f32::INFINITY);
        assert_eq!(r[17], f32::NEG_INFINITY);
        // The whole escaped chunk is bit-exact, not just the non-finite
        // elements.
        for i in [0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 16, 18, 23] {
            assert_eq!(r[i].to_bits(), v[i].to_bits(), "raw chunk element {i}");
        }
        // All-NaN input reconstructs all-NaN (pre-fix: +inf).
        let nans = vec![f32::NAN; 16];
        for (a, b) in nans.iter().zip(roundtrip(&codec, &nans)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A chunk whose range overflows f32 (or collapses below resolution)
    /// escapes to raw and is therefore exact.
    #[test]
    fn uniform8_escapes_degenerate_ranges_exactly() {
        let codec = Uniform8Bit::new(4);
        let v = vec![f32::MAX, -f32::MAX, 1.0, -1.0];
        assert_eq!(roundtrip(&codec, &v), v, "overflowed range ships raw");
        // Huge offset, tiny range: levels collapse below ulp(lo) — the
        // idempotence certificate must reject quantization.
        let lo = 16_777_216.0f32; // 2^24, ulp = 2
        let w = vec![lo, lo + 2.0, lo, lo + 2.0];
        let r = roundtrip(&codec, &w);
        assert_eq!(r, w, "sub-resolution chunk ships raw");
    }

    /// Every kernel arm the host supports, by `FDA_FORCE_KERNEL` name.
    fn quant_arms() -> Vec<(&'static str, &'static QuantKernels)> {
        fda_tensor::simd::all_supported()
            .into_iter()
            .map(|k| (k.name(), crate::kernels::quant_kernels_for(k.isa)))
            .collect()
    }

    /// The vectors the differential suite sweeps: each stresses one way the
    /// wide kernels could part from the scalar reference.
    fn differential_inputs() -> Vec<(&'static str, Vec<f32>)> {
        let n = 2 * 1024 + 37; // ragged against every chunk length below
        let normal = sample(n, 31);
        let tiny = f32::MIN_POSITIVE; // smallest normal; fractions of it are denormal
        let mut zero_min = normal.iter().map(|x| x.abs()).collect::<Vec<_>>();
        let mut zero_max = normal.iter().map(|x| -x.abs()).collect::<Vec<_>>();
        for i in (0..n).step_by(5) {
            // Both zeros in every chunk, +0.0 first in some and −0.0 first
            // in others, so a scan-order-dependent tie rule would show.
            let (a, b) = if (i / 5) % 2 == 0 {
                (0.0, -0.0)
            } else {
                (-0.0, 0.0)
            };
            zero_min[i] = a;
            zero_max[i] = a;
            if i + 2 < n {
                zero_min[i + 2] = b;
                zero_max[i + 2] = b;
            }
        }
        let mut non_finite = normal.clone();
        non_finite[3] = f32::from_bits(0x7fc1_2345);
        non_finite[700] = f32::INFINITY;
        non_finite[1500] = f32::NEG_INFINITY;
        non_finite[n - 1] = f32::from_bits(0xffc0_0001);
        let mut overflow = normal.clone();
        for i in (0..n).step_by(3) {
            overflow[i] = if i % 2 == 0 { f32::MAX } else { -f32::MAX };
        }
        vec![
            ("normal", normal.clone()),
            ("denormal", normal.iter().map(|x| x * tiny / 64.0).collect()),
            ("zero-tied-min", zero_min),
            ("zero-tied-max", zero_max),
            ("constant", vec![3.25; n]),
            (
                "constant-mixed-zero",
                (0..n)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            ),
            ("non-finite", non_finite),
            ("all-nan", vec![f32::NAN; n]),
            ("overflowing-range", overflow),
            (
                "huge-offset",
                (0..n)
                    .map(|i| 16_777_216.0 + 2.0 * (i % 7) as f32)
                    .collect(),
            ),
            (
                "half-ties",
                (0..n).map(|i| (i % 511) as f32 * 0.5).collect(),
            ),
        ]
    }

    /// The wide kernels against the retained scalar reference: encode byte
    /// for byte, decode bit for bit — for every
    /// supported arm, chunk length and input class. This is what lets a
    /// coordinator and a worker on different arms share a wire.
    #[test]
    fn uniform8_arms_agree_with_the_scalar_reference() {
        let reference = crate::kernels::quant_kernels_for(fda_tensor::simd::Isa::Scalar);
        for chunk in [1usize, 7, 256, 1024] {
            let codec = Uniform8Bit::new(chunk);
            for (class, v) in differential_inputs() {
                let mut want = Vec::new();
                codec.encode_with(reference, &v, &mut want);
                let mut want_dec = vec![0.0f32; v.len()];
                codec.decode_with(reference, &want, &mut want_dec).unwrap();
                for (arm, k) in quant_arms() {
                    let ctx = format!("{class}, chunk {chunk}, arm {arm}");
                    let mut got = vec![0xAA]; // append semantics: prefix survives
                    codec.encode_with(k, &v, &mut got);
                    assert_eq!(&got[1..], &want[..], "encode bytes: {ctx}");
                    let mut dec = vec![f32::NAN; v.len()];
                    codec.decode_with(k, &want, &mut dec).unwrap();
                    for (i, (a, b)) in dec.iter().zip(&want_dec).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "decode element {i}: {ctx}");
                    }
                    // One encode reaches the fixed point on this arm too.
                    let mut again = Vec::new();
                    codec.encode_with(k, &dec, &mut again);
                    assert_eq!(again, want, "byte idempotence: {ctx}");
                }
            }
        }
    }

    /// The header tie rule, pinned by bit pattern: a chunk holding both
    /// zeros reports `lo = −0.0` when zero is its minimum and `hi = +0.0`
    /// when zero is its maximum, whatever order they were scanned in;
    /// non-finite and overflowing chunks escape.
    #[test]
    fn uniform8_headers_follow_the_total_order() {
        let header = |bytes: &[u8]| {
            (
                u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
                u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            )
        };
        let codec = Uniform8Bit::new(8);
        for (_, k) in quant_arms() {
            for zeros in [[0.0f32, -0.0], [-0.0, 0.0]] {
                let mut out = Vec::new();
                codec.encode_with(k, &[1.0, zeros[0], 2.0, zeros[1]], &mut out);
                assert_eq!(header(&out), ((-0.0f32).to_bits(), 2.0f32.to_bits()));
                out.clear();
                codec.encode_with(k, &[-1.0, zeros[0], -2.0, zeros[1]], &mut out);
                assert_eq!(header(&out), ((-2.0f32).to_bits(), 0.0f32.to_bits()));
                // Constant across ±0.0: `hi` takes `lo`'s bit pattern.
                out.clear();
                codec.encode_with(k, &zeros, &mut out);
                assert_eq!(header(&out), ((-0.0f32).to_bits(), (-0.0f32).to_bits()));
            }
            for raw in [
                vec![1.0, f32::NAN],
                vec![f32::INFINITY, 0.0],
                vec![f32::MAX, -f32::MAX],
            ] {
                let mut out = Vec::new();
                codec.encode_with(k, &raw, &mut out);
                assert_eq!(header(&out), (ESCAPE_BITS, ESCAPE_BITS));
                assert_eq!(out.len(), 8 + raw.len() * 4);
            }
        }
    }

    /// `decode_into` is `decode` without the allocation, for every codec:
    /// same bits on success, same error on hostile input.
    #[test]
    fn decode_into_matches_decode_for_every_codec() {
        let mut v = sample(700, 23);
        v[9] = f32::NAN;
        for codec in all_codecs() {
            let enc = codec.encode(&v);
            let want = codec.decode(&enc, v.len()).unwrap();
            let mut got = vec![7.0f32; v.len()]; // stale contents must not leak
            codec.decode_into(&enc, &mut got).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", codec.name());
            }
            for cut in [0, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                assert_eq!(
                    codec.decode_into(&enc[..cut], &mut got).err(),
                    codec.decode(&enc[..cut], v.len()).err(),
                    "{} cut at {cut}",
                    codec.name()
                );
            }
        }
    }

    /// Regression (pre-fix: `partial_cmp(..).expect("finite magnitudes")`
    /// panicked): a NaN gradient must not crash the codec; it orders above
    /// +inf via `total_cmp`, is always kept, and survives bit-for-bit.
    #[test]
    fn topk_roundtrip_survives_nan_gradients() {
        let weird_nan = f32::from_bits(0xffc0_0042);
        let mut v = sample(64, 9);
        v[5] = weird_nan;
        let codec = TopK::new(4);
        let r = roundtrip(&codec, &v); // pre-fix: panic
        assert_eq!(
            r[5].to_bits(),
            weird_nan.to_bits(),
            "NaN is kept, bit-exact"
        );
        assert_eq!(r.iter().filter(|x| x.to_bits() != 0).count(), 4);
    }

    /// Regression (pre-fix: the charge was `min(k, n)` pairs even when fewer
    /// were kept): only the nonzeros of a sparse input are emitted, and
    /// they reconstruct it exactly.
    #[test]
    fn topk_encoded_bytes_equals_emitted_on_sparse_input() {
        let codec = TopK::new(10);
        let mut v = vec![0.0f32; 100];
        v[4] = 1.0;
        v[40] = -2.0;
        v[44] = 3.0;
        let enc = codec.encode(&v);
        assert_eq!(enc.len(), 3 * 8, "only 3 nonzeros exist to transmit");
        assert_eq!(roundtrip(&codec, &v), v);
    }

    #[test]
    fn topk_keeps_exactly_k_nonzeros() {
        let v = sample(1_000, 3);
        let codec = TopK::new(50);
        let r = roundtrip(&codec, &v);
        let nonzero = r.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 50);
        assert_eq!(codec.encode(&v).len(), 50 * 8);
        // Every kept value is one of the originals.
        for (a, b) in v.iter().zip(&r) {
            assert!(*b == 0.0 || a == b);
        }
    }

    #[test]
    fn topk_keeps_the_largest() {
        let v = vec![0.1f32, -5.0, 0.2, 4.0, -0.3];
        let r = roundtrip(&TopK::new(2), &v);
        assert_eq!(r, vec![0.0, -5.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn topk_fraction_and_bytes() {
        let codec = TopK::new(10_000 / 100); // 1 % of the entries
        let v = sample(10_000, 11);
        assert_eq!(codec.encode(&v).len(), 100 * 8);
        let full = TopK::new(20);
        assert_eq!(
            roundtrip(&full, &[1.0, 2.0]),
            vec![1.0, 2.0],
            "k >= n is lossless"
        );
    }

    #[test]
    fn driftmask_transmits_only_above_threshold() {
        let codec = DriftMask::new(1.0);
        let v = vec![0.5f32, -3.0, 1.0, 2.0, -0.25, f32::NAN];
        let enc = codec.encode(&v);
        // |−3| and |2| exceed 1.0 strictly; |1.0| ties and stays home;
        // NaN orders above +inf and always transmits.
        assert_eq!(enc.len(), 3 * 8);
        let r = codec.decode(&enc, v.len()).unwrap();
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], -3.0);
        assert_eq!(r[2], 0.0);
        assert_eq!(r[3], 2.0);
        assert!(r[5].is_nan());
        // Empty mask is a legal zero-byte payload.
        let quiet = vec![0.1f32; 8];
        assert_eq!(codec.encode(&quiet).len(), 0);
        assert_eq!(codec.decode(&[], 8).unwrap(), vec![0.0; 8]);
    }

    /// The shared byte-idempotence contract: one encode reaches the fixed
    /// point, so `encode(decode(encode(v)))` is byte-identical.
    #[test]
    fn encode_decode_encode_is_byte_identical() {
        let mut v = sample(3_000, 13);
        v[7] = f32::NAN;
        v[100] = f32::INFINITY;
        v[2_000] = 0.0;
        for codec in all_codecs() {
            let e1 = codec.encode(&v);
            let d = codec.decode(&e1, v.len()).unwrap();
            let e2 = codec.encode(&d);
            assert_eq!(e1, e2, "{} is not byte-idempotent", codec.name());
        }
    }

    /// Decoders are total: truncations and mutations of valid payloads,
    /// and raw byte soup, never panic and never succeed with trailing
    /// bytes.
    #[test]
    fn decoders_are_total_on_hostile_input() {
        let v = sample(300, 17);
        for codec in all_codecs() {
            let enc = codec.encode(&v);
            for cut in 0..enc.len().min(64) {
                let _ = codec.decode(&enc[..cut], v.len());
                let _ = codec.decode(&enc[..enc.len() - cut], v.len());
            }
            let mut junk = enc.clone();
            junk.extend_from_slice(&[0xAB; 9]);
            assert!(codec.decode(&junk, v.len()).is_err(), "{}", codec.name());
        }
        // Pair runs: out-of-range and non-increasing indices are rejected.
        let mut bad = Vec::new();
        bad.extend_from_slice(&999u32.to_le_bytes());
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(TopK::new(4).decode(&bad, 10).is_err());
        let mut dup = Vec::new();
        for _ in 0..2 {
            dup.extend_from_slice(&3u32.to_le_bytes());
            dup.extend_from_slice(&1.0f32.to_le_bytes());
        }
        assert!(DriftMask::new(0.0).decode(&dup, 10).is_err());
    }

    #[test]
    fn codec_spec_builds_parses_and_validates() {
        for (s, name) in [
            ("dense", "dense-f32"),
            ("uniform8", "uniform-8bit"),
            ("uniform8:256", "uniform-8bit"),
            ("topk:32", "top-k"),
            ("driftmask:0.01", "drift-mask"),
        ] {
            let spec = CodecSpec::parse(s).unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.build().name(), name);
        }
        assert!(CodecSpec::parse("topk").is_err());
        assert!(CodecSpec::parse("topk:0").is_err());
        assert!(CodecSpec::parse("uniform8:0").is_err());
        assert!(CodecSpec::parse("driftmask:nan").is_err());
        assert!(CodecSpec::parse("driftmask:-1").is_err());
        assert!(CodecSpec::parse("gzip").is_err());
        assert!(CodecSpec::Dense.is_dense());
        assert!(!CodecSpec::TopK { k: 5 }.is_dense());
        assert_eq!(CodecSpec::default(), CodecSpec::Dense);
    }

    #[test]
    fn hostile_length_claims_fail_before_allocating() {
        // Regression: `Uniform8Bit::decode` used to reserve `n` output
        // slots before looking at the buffer at all, so a hostile length
        // claim aborted the process inside the allocator instead of
        // returning an error. Buffer-bounded codecs must reject an `n`
        // the buffer cannot possibly back *before* allocating for it.
        let tiny = [0u8; 16];
        for n in [usize::MAX, usize::MAX >> 8, 1 << 40] {
            // Dense rejects via its length-overflow/size check.
            assert!(Dense32.decode(&tiny, n).is_err());
            assert_eq!(
                Uniform8Bit::new(64).decode(&tiny, n),
                Err(CodecError::Truncated)
            );
            assert_eq!(
                Uniform8Bit::new(1).decode(&tiny, n),
                Err(CodecError::Truncated)
            );
        }
        // And an `n` that saturates its own floor arithmetic still errors.
        assert_eq!(
            Uniform8Bit::new(1).decode(&[], usize::MAX),
            Err(CodecError::Truncated)
        );
    }

    /// The delta-downlink contract: the sender's bookkeeping copy is the
    /// receiver's reconstruction, byte for byte, for every codec — because
    /// they are literally the same code path.
    #[test]
    fn delta_downlink_sender_copy_equals_receiver_reconstruction() {
        let prev = sample(300, 11);
        let mean = sample(300, 12);
        for codec in all_codecs() {
            let (payload, recon) = delta_downlink(&prev, &mean, codec.as_ref());
            let mut applied = Vec::new();
            apply_delta_downlink_into(&prev, &payload, codec.as_ref(), &mut applied)
                .expect("own payload decodes");
            for (i, (a, b)) in recon.iter().zip(&applied).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "element {i} diverged");
            }
        }
    }

    /// With a lossless delta codec the reconstruction equals the float sum
    /// `prev + (mean − prev)` — close to, but deliberately not defined as,
    /// `mean`.
    #[test]
    fn delta_downlink_dense_is_the_float_sum() {
        let prev = sample(64, 21);
        let mean = sample(64, 22);
        let (_, recon) = delta_downlink(&prev, &mean, &Dense32);
        for i in 0..64 {
            assert_eq!(
                recon[i].to_bits(),
                (prev[i] + (mean[i] - prev[i])).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "delta downlink length mismatch")]
    fn delta_downlink_rejects_mismatched_lengths() {
        delta_downlink(&[0.0; 3], &[0.0; 4], &Dense32);
    }

    #[test]
    fn apply_delta_downlink_rejects_hostile_payloads() {
        let (prev, out) = (vec![0.0f32; 16], &mut Vec::new());
        assert!(apply_delta_downlink_into(&prev, &[0u8; 7], &Dense32, out).is_err());
        assert!(apply_delta_downlink_into(&prev, &[0u8; 3], &Uniform8Bit::new(8), out).is_err());
    }

    #[test]
    fn downlink_spec_parses_names_and_validates() {
        assert_eq!(DownlinkSpec::parse("dense"), Ok(DownlinkSpec::Dense));
        assert_eq!(
            DownlinkSpec::parse("delta:uniform8:256"),
            Ok(DownlinkSpec::Delta {
                codec: CodecSpec::Uniform8 { chunk: 256 }
            })
        );
        assert_eq!(
            DownlinkSpec::parse("delta:dense"),
            Ok(DownlinkSpec::Delta {
                codec: CodecSpec::Dense
            })
        );
        assert!(DownlinkSpec::parse("delta:uniform8:0").is_err());
        assert!(DownlinkSpec::parse("zstd").is_err());
        assert_eq!(DownlinkSpec::default(), DownlinkSpec::Dense);
        assert!(DownlinkSpec::Dense.is_dense());
        assert!(DownlinkSpec::Dense.build().is_none());
        let delta = DownlinkSpec::parse("delta:topk:4").unwrap();
        assert_eq!(delta.name(), "delta-top-k");
        assert!(delta.build().is_some());
    }

    #[test]
    fn composition_with_averaging_preserves_mean_roughly() {
        // The FDA composition argument: quantize each worker's payload,
        // average the reconstructions — the result stays close to the true
        // average (error does not blow up across workers).
        let k = 8;
        let n = 2_000;
        let codec = Uniform8Bit::default();
        let workers: Vec<Vec<f32>> = (0..k).map(|i| sample(n, 100 + i as u64)).collect();
        let refs: Vec<&[f32]> = workers.iter().map(|w| w.as_slice()).collect();
        let true_mean = fda_tensor::vector::mean(&refs);
        let recon: Vec<Vec<f32>> = workers.iter().map(|w| roundtrip(&codec, w)).collect();
        let rrefs: Vec<&[f32]> = recon.iter().map(|w| w.as_slice()).collect();
        let approx_mean = fda_tensor::vector::mean(&rrefs);
        for (a, b) in true_mean.iter().zip(&approx_mean) {
            assert!(
                (a - b).abs() < 0.02,
                "averaged quantization error too large"
            );
        }
    }
}
