//! Byte-path kernels: the per-element loops between an `f32` vector and
//! its wire bytes, written so they run lane-parallel.
//!
//! Two families live here:
//!
//! * **Little-endian runs** — [`extend_le_f32s`] / [`read_le_f32s`], the
//!   dense payload and every raw `f32` run of `fda_core::wire`. Plain safe
//!   loops over pre-sized slices, which the compiler turns into wide
//!   copies; there is nothing to dispatch.
//! * **The uniform-8-bit quantizer** — range scan, quantize, dequantize —
//!   behind a `QuantKernels` table with two arms selected by the
//!   process-wide `fda_tensor::simd` dispatch (so `FDA_FORCE_KERNEL`
//!   governs this layer too): `scalar` is the retained per-element
//!   reference, every wider ISA runs the branch-free bodies compiled for
//!   AVX2 (the bodies are bound by `vdivps` throughput; AVX-512 lanes
//!   measured no faster, so both wide ISAs share one instantiation).
//!
//! # Cross-arm bit identity
//!
//! Codec bytes are protocol: a coordinator on one arm must emit exactly
//! the bytes a worker on another arm would. Every kernel here therefore
//! performs the *same IEEE operations per element* in every arm — no FMA
//! contraction (`lo + q·scale` is a rounded multiply then a rounded add
//! everywhere), no reassociation (there are no float reductions: the range
//! scan reduces order-preserving integer keys, which is associative), and
//! rounding via an exact identity rather than a different instruction:
//!
//! * `round(t)` (half away from zero) is computed as
//!   `trunc(t) + [t − trunc(t) ≥ 0.5]`. For the non-negative `t` a
//!   quantizer sees, `t − trunc(t)` is exact, so the two agree bit for
//!   bit; for negative, infinite and NaN `t` both forms land on the same
//!   side of the `[0, 255]` clamp.
//! * the clamped value `r ∈ {0, …, 255}` becomes a byte through
//!   `(r + 2²³).to_bits() as u8`: adding 2²³ to an integer below 2²³ is
//!   exact and leaves the integer in the low mantissa bits. (A float→int
//!   `as` cast saturates, which the vectorizer will not lower; the bit
//!   trick is a plain add and a truncation.)
//!
//! The differential suite in `compress::tests` pins arm equality over
//! ragged, denormal, ±0.0-tied, constant, non-finite and overflowing
//! chunks.

use fda_tensor::simd::Isa;

/// Appends `v` to `out` as a raw little-endian `f32` run.
pub fn extend_le_f32s(out: &mut Vec<u8>, v: &[f32]) {
    let start = out.len();
    out.resize(start + v.len() * 4, 0);
    for (dst, x) in out[start..].chunks_exact_mut(4).zip(v) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Reads a raw little-endian `f32` run into `out`, bit for bit.
///
/// # Panics
/// Panics unless `buf.len() == out.len() * 4` — callers validate wire
/// lengths first; this is the copy, not the check.
pub fn read_le_f32s(buf: &[u8], out: &mut [f32]) {
    assert_eq!(buf.len(), out.len() * 4, "le run length mismatch");
    for (x, src) in out.iter_mut().zip(buf.chunks_exact(4)) {
        *x = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
}

/// One arm of the quantizer kernels. All arms agree bit for bit on every
/// input (see the module docs).
pub(crate) struct QuantKernels {
    /// `(min, max)` of a non-empty chunk under the IEEE total order
    /// (`−0.0 < +0.0`, so the header bit patterns of a ±0.0-tied chunk do
    /// not depend on scan order), or `None` if any value is non-finite.
    pub range: fn(&[f32]) -> Option<(f32, f32)>,
    /// `dst[i] = clamp(round((src[i] − lo) / scale), 0, 255)`, rounding
    /// half away from zero; NaN quantizes to 0. Lengths must match.
    pub quantize: fn(lo: f32, scale: f32, src: &[f32], dst: &mut [u8]),
    /// `dst[i] = level(src[i])`: level 0 is `lo`, level 255 is `hi`, level
    /// `q` between is `lo + q·scale` clamped to `[lo, hi]`. Lengths must
    /// match.
    pub dequantize: fn(lo: f32, hi: f32, scale: f32, src: &[u8], dst: &mut [f32]),
}

/// The quantizer arm for `isa`. `isa` must be supported by the host —
/// callers pass the ISA of a `&'static Kernels` obtained from
/// `fda_tensor::simd`, which only hands out supported arms.
pub(crate) fn quant_kernels_for(isa: Isa) -> &'static QuantKernels {
    match isa {
        Isa::Scalar => &scalar::TABLE,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "quantizer: {isa} arm requested on a host without AVX2"
            );
            &x86::TABLE
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar ISA off x86_64"),
    }
}

/// The process-wide quantizer arm: whatever `fda_tensor::simd` dispatched
/// (detect-once, `FDA_FORCE_KERNEL` honored).
pub(crate) fn quant_kernels() -> &'static QuantKernels {
    quant_kernels_for(fda_tensor::simd::kernels().isa)
}

/// The per-element reference: what the codec computed before the wide
/// bodies existed, with the min/max tie rule made explicit. Runs under
/// `FDA_FORCE_KERNEL=scalar` and as the differential tests' oracle.
mod scalar {
    use super::QuantKernels;

    pub static TABLE: QuantKernels = QuantKernels {
        range,
        quantize,
        dequantize,
    };

    fn range(chunk: &[f32]) -> Option<(f32, f32)> {
        if chunk.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let (mut lo, mut hi) = (chunk[0], chunk[0]);
        for &x in chunk {
            if x.total_cmp(&lo).is_lt() {
                lo = x;
            }
            if x.total_cmp(&hi).is_gt() {
                hi = x;
            }
        }
        Some((lo, hi))
    }

    fn quantize(lo: f32, scale: f32, src: &[f32], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "quantize: length mismatch");
        for (q, &x) in dst.iter_mut().zip(src) {
            *q = ((x - lo) / scale).round().clamp(0.0, 255.0) as u8;
        }
    }

    fn dequantize(lo: f32, hi: f32, scale: f32, src: &[u8], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "dequantize: length mismatch");
        for (x, &q) in dst.iter_mut().zip(src) {
            *x = match q {
                0 => lo,
                255 => hi,
                q => (lo + q as f32 * scale).clamp(lo, hi),
            };
        }
    }
}

/// Branch-free bodies, `#[inline(always)]` so each `#[target_feature]`
/// leaf compiles its own vectorized copy.
mod wide {
    /// Maps `f32` bits to an `i32` whose integer order is the IEEE total
    /// order: non-negative floats keep their bits, negative floats flip
    /// their magnitude bits. An involution (see [`unkey`]).
    #[inline(always)]
    const fn key(bits: u32) -> i32 {
        (bits ^ ((((bits as i32) >> 31) as u32) >> 1)) as i32
    }

    #[inline(always)]
    fn unkey(k: i32) -> f32 {
        f32::from_bits(key(k as u32) as u32)
    }

    #[inline(always)]
    pub fn range(chunk: &[f32]) -> Option<(f32, f32)> {
        const NEG_INF: i32 = key(0xff80_0000);
        const POS_INF: i32 = key(0x7f80_0000);
        debug_assert!(!chunk.is_empty());
        let (mut lo, mut hi) = (i32::MAX, i32::MIN);
        for &x in chunk {
            let k = key(x.to_bits());
            lo = lo.min(k);
            hi = hi.max(k);
        }
        // Every non-finite value keys at or beyond an infinity.
        if lo <= NEG_INF || hi >= POS_INF {
            return None;
        }
        Some((unkey(lo), unkey(hi)))
    }

    #[inline(always)]
    pub fn quantize(lo: f32, scale: f32, src: &[f32], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "quantize: length mismatch");
        for (q, &x) in dst.iter_mut().zip(src) {
            let t = (x - lo) / scale;
            let r = t.trunc();
            let r = r + if t - r >= 0.5 { 1.0 } else { 0.0 };
            let r = if r > 255.0 { 255.0 } else { r };
            // Also sends NaN to 0, as the saturating cast does.
            let r = if r > 0.0 { r } else { 0.0 };
            *q = (r + 8_388_608.0).to_bits() as u8;
        }
    }

    #[inline(always)]
    pub fn dequantize(lo: f32, hi: f32, scale: f32, src: &[u8], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "dequantize: length mismatch");
        for (x, &q) in dst.iter_mut().zip(src) {
            let v = lo + q as f32 * scale;
            let v = if v < lo { lo } else { v };
            let v = if v > hi { hi } else { v };
            // The end levels are pinned, which also discards the NaN an
            // overflowed `scale` produces at level 0 (`0 · inf`).
            let v = if q == 0 { lo } else { v };
            *x = if q == 255 { hi } else { v };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{wide, QuantKernels};

    /// Reachable only through `quant_kernels_for`, which asserts
    /// `is_x86_feature_detected!("avx2")` before handing the table out. The
    /// leaves are safe Rust compiled with AVX2 enabled, so that check is
    /// their only requirement.
    pub static TABLE: QuantKernels = QuantKernels {
        // SAFETY: AVX2 was detected before this table became reachable.
        range: |chunk| unsafe { range_avx2(chunk) },
        // SAFETY: as above.
        quantize: |lo, scale, src, dst| unsafe { quantize_avx2(lo, scale, src, dst) },
        // SAFETY: as above.
        dequantize: |lo, hi, scale, src, dst| unsafe { dequantize_avx2(lo, hi, scale, src, dst) },
    };

    /// # Safety
    /// Host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn range_avx2(chunk: &[f32]) -> Option<(f32, f32)> {
        wide::range(chunk)
    }

    /// # Safety
    /// Host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_avx2(lo: f32, scale: f32, src: &[f32], dst: &mut [u8]) {
        wide::quantize(lo, scale, src, dst)
    }

    /// # Safety
    /// Host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn dequantize_avx2(lo: f32, hi: f32, scale: f32, src: &[u8], dst: &mut [f32]) {
        wide::dequantize(lo, hi, scale, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_runs_roundtrip_every_bit_pattern_class() {
        let v = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc1_2345),
        ];
        let mut bytes = vec![0xEE];
        extend_le_f32s(&mut bytes, &v);
        assert_eq!(bytes.len(), 1 + v.len() * 4, "appends, never overwrites");
        assert_eq!(&bytes[5..9], &(-0.0f32).to_le_bytes());
        let mut back = [0.0f32; 7];
        read_le_f32s(&bytes[1..], &mut back);
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "le run length mismatch")]
    fn read_le_rejects_a_mismatched_length() {
        read_le_f32s(&[0u8; 7], &mut [0.0f32; 2]);
    }
}
