//! The AMS sketch: construction, linear combination, and L2 estimation.
//!
//! Construction is *plan-based*: a [`SketchConfig`] (shared by every worker,
//! like the paper's common hash functions) expands into a [`SketchPlan`]
//! that precomputes the sign and bucket of every coordinate for every row,
//! packed into one `u32` per coordinate (bucket in the low 31 bits, sign in
//! bit 31). Sketching a drift vector is then a table-driven scatter-add of
//! cost `O(l·d)` with no hashing in the hot loop — important because
//! SketchFDA sketches the local drift at **every** training step. The
//! accumulate inner loop dispatches through the kernel layer
//! ([`fda_tensor::simd`]); every arm shares the same single-pass scatter
//! (the dependent bucket adds are latency-bound, so a vectorized staging
//! pass measured slower — see the kernel tables), which makes every
//! dispatch arm bit-identical by construction. The packed entry itself is
//! the win: one 4-byte table stream and an XOR sign flip instead of a
//! sign table and a multiply.

use crate::hashing::FourWiseHash;
use fda_tensor::{simd, stats, Rng};

/// Shared sketch configuration: dimensions and the hash-family seed.
///
/// Workers must use identical configs; otherwise their sketches are not
/// linearly combinable (AllReduce over sketches would be meaningless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Number of independent estimator rows `l` (median dimension).
    pub rows: usize,
    /// Number of buckets per row `m` (averaging dimension).
    pub cols: usize,
    /// Seed of the shared hash family.
    pub seed: u64,
}

impl SketchConfig {
    /// The paper's recommended configuration (§3.3): `l = 5`, `m = 250`,
    /// i.e. a 5 kB sketch with measured ε ≈ 6% at ≈95% confidence.
    pub fn paper_default() -> SketchConfig {
        SketchConfig {
            rows: 5,
            cols: 250,
            seed: 0xFDA_2025,
        }
    }

    /// Creates a config with explicit dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, seed: u64) -> SketchConfig {
        assert!(rows >= 1 && cols >= 1, "sketch dims must be positive");
        SketchConfig { rows, cols, seed }
    }

    /// A sketch sized *relative to the model*: `m ≈ d/250` (clamped to
    /// `[32, 250]`), keeping `l = 5`.
    ///
    /// The paper pairs a fixed 5 kB sketch with models of 62 K–198 M
    /// parameters, i.e. the sketch is ≤ 2% of one model payload. Our zoo
    /// is ~3 orders of magnitude smaller, so a fixed 5 kB sketch would be
    /// up to a third of the model — a cost *structure* the paper never
    /// evaluates. Scaling `m` with `d` preserves the paper's
    /// sketch-to-model cost ratio at the price of a looser ε = 1/√m; the
    /// `1/(1+ε)` deflation in the estimator keeps the over-estimate
    /// guarantee, it just triggers somewhat earlier syncs.
    pub fn scaled_for(dim: usize) -> SketchConfig {
        let cols = (dim / 250).clamp(32, 250);
        SketchConfig {
            rows: 5,
            cols,
            seed: 0xFDA_2025,
        }
    }

    /// Empirical relative error of the median estimator, ε ≈ 1/√m.
    ///
    /// Matches the paper's measured ε ≈ 6% at `m = 250` (1/√250 ≈ 0.063).
    pub fn epsilon(&self) -> f64 {
        1.0 / (self.cols as f64).sqrt()
    }

    /// Sketch size in bytes (each counter is an `f32`), the per-step
    /// AllReduce payload SketchFDA adds on top of the two scalars.
    pub fn byte_size(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Expands the config into a plan for `dim`-dimensional inputs.
    pub fn build_plan(&self, dim: usize) -> SketchPlan {
        let mut rng = Rng::new(self.seed);
        let mut entries = vec![0u32; self.rows * dim];
        for r in 0..self.rows {
            let sign_hash = FourWiseHash::random(&mut rng);
            let bucket_hash = FourWiseHash::random(&mut rng);
            let e = &mut entries[r * dim..(r + 1) * dim];
            for (i, e) in e.iter_mut().enumerate() {
                let bucket = bucket_hash.bucket(i as u64, self.cols) as u32;
                debug_assert!(bucket < 1 << 31, "bucket overflows the packed entry");
                let sign = if sign_hash.sign(i as u64) > 0.0 {
                    0
                } else {
                    SketchPlan::SIGN_BIT
                };
                *e = bucket | sign;
            }
        }
        SketchPlan {
            config: *self,
            dim,
            entries,
        }
    }
}

/// Precomputed packed sign/bucket table for sketching `dim`-dimensional
/// vectors under a fixed [`SketchConfig`].
#[derive(Debug, Clone)]
pub struct SketchPlan {
    config: SketchConfig,
    dim: usize,
    // Row-major `rows × dim`; each entry packs `bucket | sign << 31`.
    // One table stream instead of separate sign/bucket arrays halves the
    // table bytes pulled through the scatter-add per coordinate.
    entries: Vec<u32>,
}

impl SketchPlan {
    /// Bit 31 of a packed entry holds the coordinate's sign (set = −1).
    const SIGN_BIT: u32 = 0x8000_0000;

    /// The underlying configuration.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// Input dimension this plan supports.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Sketches `v` into a fresh [`AmsSketch`].
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn sketch(&self, v: &[f32]) -> AmsSketch {
        let mut out = AmsSketch::zeros(self.config.rows, self.config.cols);
        self.sketch_into(v, &mut out);
        out
    }

    /// Sketches `v` into an existing sketch buffer (overwriting it) — the
    /// borrow-friendly hot-path entry: SketchFDA sketches every worker's
    /// drift at every step, and reusing each worker's sketch buffer keeps
    /// the monitor phase allocation-free (and safe to run on per-worker
    /// pool lanes, since `self` is only read). Runs on the process-wide
    /// dispatched kernel arm.
    pub fn sketch_into(&self, v: &[f32], out: &mut AmsSketch) {
        self.sketch_into_with_kernel(simd::kernels(), v, out);
    }

    /// [`SketchPlan::sketch_into`] on an explicit kernel table — test
    /// support for exercising every ISA arm in one process (obtain tables
    /// via [`simd::all_supported`]). All arms produce bit-identical
    /// sketches: the scatter-add order is ascending `i` in every arm, and
    /// the sign is applied as an exact sign-bit flip.
    pub fn sketch_into_with_kernel(&self, kn: &simd::Kernels, v: &[f32], out: &mut AmsSketch) {
        assert_eq!(v.len(), self.dim, "sketch: input dimension mismatch");
        assert_eq!(out.rows, self.config.rows, "sketch: row mismatch");
        assert_eq!(out.cols, self.config.cols, "sketch: col mismatch");
        out.data.iter_mut().for_each(|x| *x = 0.0);
        let cols = self.config.cols;
        for r in 0..self.config.rows {
            let entries = &self.entries[r * self.dim..(r + 1) * self.dim];
            let row = &mut out.data[r * cols..(r + 1) * cols];
            (kn.sketch_accumulate)(entries, v, row);
        }
    }
}

/// An `l × m` AMS sketch (dense `f32` counters).
#[derive(Debug, Clone, PartialEq)]
pub struct AmsSketch {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl AmsSketch {
    /// The all-zero sketch (sketch of the zero vector).
    pub fn zeros(rows: usize, cols: usize) -> AmsSketch {
        AmsSketch {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of estimator rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of buckets per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw counters (row-major), e.g. for transport.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw counters (row-major), e.g. for AllReduce in place.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Wire size in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * 4
    }

    /// The `M2` estimator: median over rows of the row's squared L2 norm.
    ///
    /// `M2(sk(v)) ≈ ‖v‖²` within `(1 ± ε)` w.p. `≥ 1 − δ` (§3.1). NaN if any
    /// counter is NaN.
    pub fn estimate_sq_norm(&self) -> f32 {
        let mut row_estimates = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            row_estimates.push(fda_tensor::vector::norm_sq(row));
        }
        // A NaN counter (the sketch of a diverged replica) leaves the
        // median undefined: say so, and let the caller's synchronization
        // predicate fail closed, instead of panicking in the sort.
        if row_estimates.iter().any(|e| e.is_nan()) {
            return f32::NAN;
        }
        stats::median_f32(&row_estimates)
    }

    /// `self ← self + α·other` — the linearity property (§3.1, property a).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &AmsSketch) {
        assert_eq!(self.rows, other.rows, "sketch axpy: row mismatch");
        assert_eq!(self.cols, other.cols, "sketch axpy: col mismatch");
        fda_tensor::vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// `self ← self · α`.
    pub fn scale(&mut self, alpha: f32) {
        fda_tensor::vector::scale(&mut self.data, alpha);
    }

    /// Copies another sketch's counters into this one, reusing the
    /// allocation.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &AmsSketch) {
        assert_eq!(self.rows, other.rows, "sketch copy: row mismatch");
        assert_eq!(self.cols, other.cols, "sketch copy: col mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Average of several sketches — what AllReduce produces from the
    /// workers' local-state sketches. Accumulates copy-first in input
    /// order, the same association every AllReduce path in the workspace
    /// uses, so sequential and chunk-parallel reductions agree bit-for-bit.
    pub fn average(sketches: &[&AmsSketch]) -> AmsSketch {
        assert!(!sketches.is_empty(), "sketch average: empty input");
        let mut out = sketches[0].clone();
        for s in &sketches[1..] {
            out.axpy(1.0, s);
        }
        out.scale(1.0 / sketches.len() as f32);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_vec(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let plan = SketchConfig::paper_default().build_plan(100);
        let sk = plan.sketch(&vec![0.0; 100]);
        assert_eq!(sk.estimate_sq_norm(), 0.0);
    }

    #[test]
    fn single_coordinate_is_exact() {
        // A 1-sparse vector collides with nothing: every row estimate is
        // exactly x² regardless of hashing.
        let plan = SketchConfig::new(5, 16, 7).build_plan(50);
        let mut v = vec![0.0f32; 50];
        v[13] = 3.0;
        let sk = plan.sketch(&v);
        assert!((sk.estimate_sq_norm() - 9.0).abs() < 1e-5);
    }

    #[test]
    fn estimate_within_epsilon_typically() {
        let config = SketchConfig::paper_default();
        let dim = 2_000;
        let plan = config.build_plan(dim);
        let mut within = 0;
        let trials = 40;
        for t in 0..trials {
            let v = random_vec(100 + t, dim);
            let truth = fda_tensor::vector::norm_sq(&v);
            let est = plan.sketch(&v).estimate_sq_norm();
            // Allow 3ε for the pass/fail line; count how many land in 2ε.
            let rel = ((est - truth) / truth).abs() as f64;
            if rel <= 2.0 * config.epsilon() {
                within += 1;
            }
            assert!(
                rel < 6.0 * config.epsilon(),
                "trial {t}: rel err {rel} hopeless (ε = {})",
                config.epsilon()
            );
        }
        assert!(
            within >= trials * 8 / 10,
            "only {within}/{trials} within 2ε"
        );
    }

    #[test]
    fn linearity_exact() {
        let plan = SketchConfig::new(3, 32, 5).build_plan(200);
        let a = random_vec(1, 200);
        let b = random_vec(2, 200);
        let alpha = 0.7f32;
        let beta = -1.3f32;
        // sk(αa + βb)
        let combo: Vec<f32> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| alpha * x + beta * y)
            .collect();
        let sk_combo = plan.sketch(&combo);
        // α·sk(a) + β·sk(b)
        let mut lin = AmsSketch::zeros(3, 32);
        lin.axpy(alpha, &plan.sketch(&a));
        lin.axpy(beta, &plan.sketch(&b));
        for (x, y) in sk_combo.as_slice().iter().zip(lin.as_slice()) {
            assert!((x - y).abs() < 1e-3, "linearity violated: {x} vs {y}");
        }
    }

    #[test]
    fn average_equals_sketch_of_average() {
        let plan = SketchConfig::new(4, 64, 9).build_plan(300);
        let vs: Vec<Vec<f32>> = (0..5).map(|i| random_vec(i + 10, 300)).collect();
        let sketches: Vec<AmsSketch> = vs.iter().map(|v| plan.sketch(v)).collect();
        let refs: Vec<&AmsSketch> = sketches.iter().collect();
        let avg_sketch = AmsSketch::average(&refs);
        let vrefs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let avg_vec = fda_tensor::vector::mean(&vrefs);
        let sketch_of_avg = plan.sketch(&avg_vec);
        for (x, y) in avg_sketch.as_slice().iter().zip(sketch_of_avg.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn byte_size_matches_paper() {
        // l·m·4 = 5·250·4 = 5000 bytes ("5 kB", §3.3).
        assert_eq!(SketchConfig::paper_default().byte_size(), 5_000);
    }

    #[test]
    fn different_seeds_different_plans() {
        let a = SketchConfig::new(2, 16, 1).build_plan(64);
        let b = SketchConfig::new(2, 16, 2).build_plan(64);
        let v = random_vec(3, 64);
        assert_ne!(a.sketch(&v).as_slice(), b.sketch(&v).as_slice());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let plan = SketchConfig::new(2, 8, 1).build_plan(10);
        let _ = plan.sketch(&[0.0; 11]);
    }

    /// Every kernel arm the host supports produces bit-identical sketches
    /// (the arms share one single-pass scatter loop; this pins that
    /// contract), including at dimensions that stress lane-boundary
    /// tails.
    #[test]
    fn sketch_bit_identical_across_kernel_arms() {
        use fda_tensor::simd;
        let scalar = simd::table_for(simd::Isa::Scalar).expect("scalar always supported");
        for dim in [1usize, 15, 16, 17, 127, 128, 129, 1000] {
            let plan = SketchConfig::new(3, 16, 11).build_plan(dim);
            let v = random_vec(dim as u64, dim);
            let mut want = AmsSketch::zeros(3, 16);
            plan.sketch_into_with_kernel(scalar, &v, &mut want);
            for kn in simd::all_supported() {
                let mut got = AmsSketch::zeros(3, 16);
                plan.sketch_into_with_kernel(kn, &v, &mut got);
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "arm {} diverged at dim {dim}",
                        kn.name()
                    );
                }
            }
        }
    }

    /// `sketch_into` reuse and `copy_from` are bit-identical to the
    /// allocating constructors.
    #[test]
    fn buffer_reuse_matches_fresh_sketch() {
        let plan = SketchConfig::new(3, 16, 4).build_plan(120);
        let a = random_vec(1, 120);
        let b = random_vec(2, 120);
        let mut reused = plan.sketch(&a);
        plan.sketch_into(&b, &mut reused);
        assert_eq!(reused, plan.sketch(&b), "sketch_into reuse diverged");
        let mut copy = AmsSketch::zeros(3, 16);
        copy.copy_from(&reused);
        assert_eq!(copy, reused);
    }
}
