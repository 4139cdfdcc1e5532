//! Flat-vector kernels.
//!
//! FDA manipulates models as flat `f32` vectors: local drifts
//! `u_t^(k) = w_t^(k) − w_t0`, their squared norms, dot products with the
//! heuristic direction ξ, and element-wise averages across workers
//! (AllReduce). These kernels are the hot loops of the whole system, so the
//! wide ones (`dot`, `sum`, `add_assign`, `scale` — and through them
//! `norm_sq`, `mean_into` and `mean_range_into`) delegate to the
//! process-wide [`crate::simd`] kernel table: AVX-512 FMA or AVX2+FMA when
//! the host has them, the original autovectorized scalar loops otherwise.
//! Dispatch happens once per process, so every call within a run takes the
//! same arithmetic path — the determinism arguments (copy-first
//! reductions, chunked means) are unaffected. The rest, `dist_sq` among
//! them, are plain loops that compute the same bits on every arm.

use crate::simd;

/// Dot product `⟨a, b⟩`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    (simd::kernels().dot)(a, b)
}

/// Sum of all elements, accumulated in wide lane blocks so the adds do not
/// form one serial dependency chain.
#[inline]
pub fn sum(a: &[f32]) -> f32 {
    (simd::kernels().sum)(a)
}

/// Squared Euclidean norm `‖a‖₂²`.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean norm `‖a‖₂`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖₂²` without allocating the
/// difference: one accumulator in index order, on every kernel arm. Its
/// one caller is [`variance_of`], a ground truth that no step computes.
///
/// # Panics
/// Panics if the slices have different lengths.
fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    let mut s = 0.0f32;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// `a ← a * alpha`. Element-wise, so every dispatch arm produces the same
/// bits.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    (simd::kernels().scale)(a, alpha)
}

/// `out ← a − b`, writing into a caller-provided buffer.
#[inline]
pub fn sub_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub_into: length mismatch");
    assert_eq!(a.len(), out.len(), "sub_into: output length mismatch");
    for i in 0..a.len() {
        out[i] = a[i] - b[i];
    }
}

/// `a ← a + b`. Element-wise, so every dispatch arm produces the same
/// bits — chunked parallel means built on this stay bit-identical to the
/// sequential whole-vector form under any kernel arm.
#[inline]
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    (simd::kernels().add_assign)(a, b)
}

/// `a ← a − b`.
#[inline]
pub fn sub_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "sub_assign: length mismatch");
    for i in 0..a.len() {
        a[i] -= b[i];
    }
}

/// Fills `a` with a constant.
#[inline]
pub fn fill(a: &mut [f32], value: f32) {
    for v in a.iter_mut() {
        *v = value;
    }
}

/// Element-wise mean of several equal-length vectors, written into `out`.
///
/// This is the arithmetic performed by AllReduce-average in the paper
/// (`w̄ = (1/K) Σ_k w^(k)`), in the association of [`mean_range_into`]:
/// input 0 copied, the others added in input order.
///
/// # Panics
/// Panics if `vs` is empty or lengths mismatch.
pub fn mean_into(vs: &[&[f32]], out: &mut [f32]) {
    assert!(!vs.is_empty(), "mean_into: need at least one vector");
    let n = vs[0].len();
    assert_eq!(out.len(), n, "mean_into: output length mismatch");
    assert!(vs.iter().all(|v| v.len() == n), "mean_into: ragged input");
    mean_range_into(vs, 0, n, out);
}

/// Element-wise mean of several equal-length vectors (allocating).
pub fn mean(vs: &[&[f32]]) -> Vec<f32> {
    let mut out = vec![0.0f32; vs[0].len()];
    mean_into(vs, &mut out);
    out
}

/// The `idx`-th of `parts` near-equal contiguous ranges covering `0..len`.
///
/// The first `len % parts` chunks are one element longer; chunks are
/// disjoint and cover the whole range, so `parts` workers can each reduce
/// their own chunk of a shared buffer without overlap. Empty ranges
/// (`lo == hi`) occur when `len < parts`.
///
/// # Panics
/// Panics if `parts == 0` or `idx >= parts`.
#[inline]
pub fn chunk_range(len: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts > 0, "chunk_range: need at least one part");
    assert!(idx < parts, "chunk_range: index {idx} out of {parts} parts");
    let base = len / parts;
    let rem = len % parts;
    let lo = idx * base + idx.min(rem);
    let hi = lo + base + usize::from(idx < rem);
    (lo, hi)
}

/// Element-wise mean of the sub-range `lo..hi` of several equal-length
/// vectors, written into `out` (`out.len() == hi − lo`).
///
/// The accumulation is *copy-first, then add in input order* — the
/// association of every cross-worker mean, [`mean`] and [`mean_into`]
/// included — so a chunked parallel reduction built from this helper is
/// bit-identical to the sequential whole-vector mean: per element, the
/// sum order is always input 0, 1, 2, … regardless of how the range is
/// chunked. The adds and the final scale run on the dispatched SIMD
/// kernels, which are element-wise and therefore preserve this property
/// under every arm.
///
/// # Panics
/// Panics if `vs` is empty, any input is shorter than `hi`, or `out` has
/// the wrong length.
pub fn mean_range_into(vs: &[&[f32]], lo: usize, hi: usize, out: &mut [f32]) {
    assert!(!vs.is_empty(), "mean_range_into: need at least one vector");
    assert_eq!(
        out.len(),
        hi - lo,
        "mean_range_into: output length mismatch"
    );
    if lo == hi {
        return;
    }
    out.copy_from_slice(&vs[0][lo..hi]);
    for v in &vs[1..] {
        add_assign(out, &v[lo..hi]);
    }
    scale(out, 1.0 / vs.len() as f32);
}

/// Normalizes `a` to unit L2 norm in place; returns the original norm.
///
/// If the norm is zero (or non-finite) the vector is left untouched and the
/// norm is returned — callers such as the LinearFDA ξ heuristic must handle
/// the degenerate "no previous drift" case explicitly.
pub fn normalize(a: &mut [f32]) -> f32 {
    let n = norm(a);
    if n > 0.0 && n.is_finite() {
        scale(a, 1.0 / n);
    }
    n
}

/// True iff every element is finite (guards against NaN/Inf divergence).
#[inline]
pub fn all_finite(a: &[f32]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// The model-variance identity of the paper (Eq. 2 / Eq. 4), computed
/// directly from local models: `Var(w) = (1/K) Σ_k ‖w^(k) − w̄‖²`.
///
/// This direct form is the ground truth that monitors over-estimate;
/// it is used by tests and by the oracle monitor.
pub fn variance_of(models: &[&[f32]]) -> f32 {
    let avg = mean(models);
    let mut s = 0.0f32;
    for m in models {
        s += dist_sq(m, &avg);
    }
    s / models.len() as f32
}

/// The drift form of the variance (Eq. 4):
/// `Var = (1/K) Σ_k ‖u^(k)‖² − ‖ū‖²` where `u^(k) = w^(k) − w0`.
pub fn variance_from_drifts(drifts: &[&[f32]]) -> f32 {
    let k = drifts.len() as f32;
    let mean_sq: f32 = drifts.iter().map(|u| norm_sq(u)).sum::<f32>() / k;
    let avg = mean(drifts);
    mean_sq - norm_sq(&avg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        let mut v = vec![0.0; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = Rng::new(1);
        for n in [0usize, 1, 3, 4, 7, 64, 129] {
            let a = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() <= 1e-3 * (1.0 + naive.abs()));
        }
    }

    #[test]
    fn mean_of_three() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let c = vec![5.0, 6.0];
        let m = mean(&[&a, &b, &c]);
        assert_eq!(m, vec![3.0, 4.0]);
    }

    /// Copy-first keeps the sign of an all-`−0.0` column, which a
    /// zero-filled accumulator would turn into `+0.0`.
    #[test]
    fn mean_of_negative_zeros_is_negative_zero() {
        let z = [-0.0f32; 3];
        let m = mean(&[&z, &z]);
        let mut out = [1.0f32; 3];
        mean_into(&[&z, &z, &z], &mut out);
        for v in m.iter().chain(&out) {
            assert_eq!(v.to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_untouched() {
        let mut v = vec![0.0, 0.0];
        let n = normalize(&mut v);
        assert_eq!(n, 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn variance_identity_eq4() {
        // Var computed around the average equals the drift identity for any
        // choice of reference point w0 (here w0 = first model).
        let mut rng = Rng::new(2);
        let models: Vec<Vec<f32>> = (0..5).map(|_| random_vec(&mut rng, 40)).collect();
        let refs: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
        let direct = variance_of(&refs);

        let w0 = models[0].clone();
        let drifts: Vec<Vec<f32>> = models
            .iter()
            .map(|m| {
                let mut d = m.clone();
                sub_assign(&mut d, &w0);
                d
            })
            .collect();
        let drefs: Vec<&[f32]> = drifts.iter().map(|d| d.as_slice()).collect();
        let via_drift = variance_from_drifts(&drefs);
        assert!(
            (direct - via_drift).abs() < 1e-2 * (1.0 + direct.abs()),
            "direct={direct} drift={via_drift}"
        );
    }

    #[test]
    fn variance_zero_when_identical() {
        let m = vec![1.0f32; 16];
        let refs: Vec<&[f32]> = vec![&m, &m, &m];
        assert!(variance_of(&refs).abs() < 1e-9);
    }

    #[test]
    fn all_finite_detects_nan() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn chunk_ranges_cover_and_are_disjoint() {
        for len in [0usize, 1, 3, 7, 8, 100, 1001] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut next = 0usize;
                let mut sizes = Vec::new();
                for idx in 0..parts {
                    let (lo, hi) = chunk_range(len, parts, idx);
                    assert_eq!(lo, next, "len {len} parts {parts} idx {idx}");
                    assert!(hi >= lo);
                    sizes.push(hi - lo);
                    next = hi;
                }
                assert_eq!(next, len, "chunks must cover 0..{len}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "chunks must be near-equal: {sizes:?}");
            }
        }
    }

    #[test]
    fn chunked_mean_is_bit_identical_to_whole_vector_mean() {
        let mut rng = Rng::new(17);
        let vs: Vec<Vec<f32>> = (0..5).map(|_| random_vec(&mut rng, 103)).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        // Sequential reference with the same copy-first association.
        let mut whole = vec![0.0f32; 103];
        mean_range_into(&refs, 0, 103, &mut whole);
        // Chunked assembly, any number of parts.
        for parts in [1usize, 2, 4, 7] {
            let mut assembled = vec![0.0f32; 103];
            for idx in 0..parts {
                let (lo, hi) = chunk_range(103, parts, idx);
                mean_range_into(&refs, lo, hi, &mut assembled[lo..hi]);
            }
            // Bit-identical, not approximately equal.
            for (a, b) in assembled.iter().zip(&whole) {
                assert_eq!(a.to_bits(), b.to_bits(), "parts = {parts}");
            }
        }
    }

    #[test]
    fn mean_range_matches_mean() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![5.0f32, 6.0, 7.0, 8.0];
        let mut out = vec![0.0f32; 2];
        mean_range_into(&[&a, &b], 1, 3, &mut out);
        assert_eq!(out, vec![4.0, 5.0]);
    }
}
