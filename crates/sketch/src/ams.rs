//! The AMS sketch: construction and L2 estimation. Sketches combine
//! linearly through their raw counters ([`AmsSketch::as_slice`]): the
//! round engine averages them with the other local-state summaries, as
//! flat vectors, so this module has no arithmetic of its own for them.
//!
//! Construction is *plan-based*: a [`SketchConfig`] (shared by every worker,
//! like the paper's common hash functions) expands into a [`SketchPlan`]
//! that precomputes the sign and bucket of every coordinate for every row,
//! so sketching a drift vector costs `O(l·d)` with no hashing in the hot
//! loop — important because SketchFDA sketches the local drift at
//! **every** training step.
//!
//! The plan stores each row **bucket-major**: for every bucket, the
//! coordinates that hash to it, ascending, each packed as
//! `index | sign << 31`. Buckets are taken 16 at a time
//! ([`simd::SKETCH_LANES`]); a group's lists are interleaved step by step
//! (step `s` holds the `s`-th coordinate of each of the 16 buckets) and
//! padded with [`simd::SKETCH_PAD`] up to the group's longest list, and
//! the last group of a row is only as wide as the buckets left; the rows
//! follow each other in one table. Sketching
//! then advances 16 independent per-bucket chains in lock-step — one
//! masked gather and one masked add per step on AVX-512, two 8-lane
//! gathers on AVX2, the same walk in plain Rust on the scalar arm
//! ([`simd::Kernels::sketch_gather`]). A scatter-add `row[bucket(i)] +=
//! ±v[i]` would need conflict detection to vectorise; the gather has no
//! conflicts, and because every bucket starts at `+0.0` and adds its own
//! coordinates in ascending `i`, it performs exactly the floating-point
//! operations of the ascending-`i` scatter. Every arm is therefore
//! bit-identical to that scatter, and to each other.
//!
//! Padding costs ≈ 1.1–1.2× the `l·d` entries of a dense table at the
//! sizes [`SketchConfig::scaled_for`] picks (tens to hundreds of
//! coordinates per bucket), and grows toward 16× only when most buckets
//! are empty (`m` far above `d`).

use crate::hashing::FourWiseHash;
use fda_tensor::simd::{self, SKETCH_LANES, SKETCH_PAD};
use fda_tensor::{stats, Rng};

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
    ///
    /// A counting sort in two passes over the hash family: the first
    /// counts every bucket's coordinates, which sizes the groups and the
    /// one table exactly; the second places each coordinate at its
    /// bucket's next slot, in ascending `i`. `O(l·d)` time and no memory
    /// beyond the table and one cursor per bucket.
    ///
    /// # Panics
    /// Panics if `dim` or `cols` exceeds `0x7FFF_FFFF` (the packed index
    /// field).
    pub fn build_plan(&self, dim: usize) -> SketchPlan {
        // Every live index is below `dim ≤ 0x7FFF_FFFF`, so no entry is
        // truncated or equal to the pad entry: the gather's safety
        // contract rests on this assert.
        assert!(
            dim <= 0x7FFF_FFFF && self.cols <= 0x7FFF_FFFF,
            "sketch: dimension {dim} or {} buckets overflow the packed table",
            self.cols
        );
        let (rows, cols) = (self.rows, self.cols);
        let mut rng = Rng::new(self.seed);
        let hashes: Vec<(FourWiseHash, FourWiseHash)> = (0..rows)
            .map(|_| {
                (
                    FourWiseHash::random(&mut rng),
                    FourWiseHash::random(&mut rng),
                )
            })
            .collect();
        // Per (row, bucket): its count, then its next slot in the table.
        let mut cursor = vec![0usize; rows * cols];
        for ((_, bucket_hash), counts) in hashes.iter().zip(cursor.chunks_exact_mut(cols)) {
            for bucket in bucket_hash.consecutive_buckets(cols).take(dim) {
                counts[bucket] += 1;
            }
        }
        let mut steps = Vec::with_capacity(rows * cols.div_ceil(SKETCH_LANES));
        let mut row_starts = Vec::with_capacity(rows + 1);
        let mut len = 0;
        for counts in cursor.chunks_exact_mut(cols) {
            row_starts.push(len);
            for lanes in counts.chunks_mut(SKETCH_LANES) {
                let n = *lanes.iter().max().expect("groups are non-empty");
                let w = lanes.len();
                for (j, c) in lanes.iter_mut().enumerate() {
                    *c = len + j;
                }
                steps.push(n as u32);
                len += n * w;
            }
        }
        row_starts.push(len);
        let mut entries = vec![SKETCH_PAD; len];
        for ((sign_hash, bucket_hash), slots) in hashes.iter().zip(cursor.chunks_exact_mut(cols)) {
            // `sign(i)` and `bucket(i)` for consecutive `i`; a set low bit
            // of the sign hash is the −1 sign.
            let coords = sign_hash
                .consecutive()
                .zip(bucket_hash.consecutive_buckets(cols));
            for (i, (s, bucket)) in coords.take(dim).enumerate() {
                entries[slots[bucket]] = i as u32 | (s as u32 & 1) << 31;
                slots[bucket] += (cols - bucket / SKETCH_LANES * SKETCH_LANES).min(SKETCH_LANES);
            }
        }
        SketchPlan {
            config: *self,
            dim,
            steps: steps.into_boxed_slice(),
            row_starts: row_starts.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
        }
    }
}

/// Precomputed bucket-major gather table for sketching `dim`-dimensional
/// vectors under a fixed [`SketchConfig`] (layout in the module docs).
#[derive(Debug, Clone)]
pub struct SketchPlan {
    config: SketchConfig,
    dim: usize,
    /// Per row, per group of 16 buckets: its longest coordinate list.
    steps: Box<[u32]>,
    /// Where each row's groups start in `entries`, plus the end.
    row_starts: Box<[usize]>,
    /// Row by row, group by group, step-major: `index | sign << 31` or
    /// [`SKETCH_PAD`]. Written only by `build_plan`, every non-pad entry
    /// as some `i < dim`.
    entries: Box<[u32]>,
}

impl SketchPlan {
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
    /// sketches: every bucket sums its own coordinates in ascending `i`
    /// from `+0.0`, and the sign is applied as an exact sign-bit flip.
    pub fn sketch_into_with_kernel(&self, kn: &simd::Kernels, v: &[f32], out: &mut AmsSketch) {
        assert_eq!(v.len(), self.dim, "sketch: input dimension mismatch");
        assert_eq!(out.rows, self.config.rows, "sketch: row mismatch");
        assert_eq!(out.cols, self.config.cols, "sketch: col mismatch");
        let groups = self.config.cols.div_ceil(SKETCH_LANES);
        let rows = self
            .row_starts
            .windows(2)
            .zip(self.steps.chunks_exact(groups));
        for ((span, steps), counters) in rows.zip(out.data.chunks_exact_mut(out.cols)) {
            let table = &self.entries[span[0]..span[1]];
            // SAFETY: `build_plan` wrote every non-pad entry as an index
            // below `self.dim` (and asserted it fits the index field), and
            // `v.len() == self.dim` is asserted above.
            unsafe { (kn.sketch_gather)(table, steps, v, counters) };
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
        // α·sk(a) + β·sk(b), counter by counter
        let (sk_a, sk_b) = (plan.sketch(&a), plan.sketch(&b));
        let lin = sk_a.as_slice().iter().zip(sk_b.as_slice());
        let lin: Vec<f32> = lin.map(|(x, y)| alpha * x + beta * y).collect();
        for (x, y) in sk_combo.as_slice().iter().zip(&lin) {
            assert!((x - y).abs() < 1e-3, "linearity violated: {x} vs {y}");
        }
    }

    #[test]
    fn average_equals_sketch_of_average() {
        let plan = SketchConfig::new(4, 64, 9).build_plan(300);
        let vs: Vec<Vec<f32>> = (0..5).map(|i| random_vec(i + 10, 300)).collect();
        let sketches: Vec<AmsSketch> = vs.iter().map(|v| plan.sketch(v)).collect();
        let counters: Vec<&[f32]> = sketches.iter().map(|s| s.as_slice()).collect();
        let avg_sketch = fda_tensor::vector::mean(&counters);
        let vrefs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let avg_vec = fda_tensor::vector::mean(&vrefs);
        let sketch_of_avg = plan.sketch(&avg_vec);
        for (x, y) in avg_sketch.iter().zip(sketch_of_avg.as_slice()) {
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

    /// Each coordinate's `bucket | sign << 31` per row, row-major, straight
    /// from the config's hash family — the table the sketch used before
    /// it was stored bucket-major.
    fn hashed_coordinates(config: SketchConfig, dim: usize) -> Vec<u32> {
        let mut rng = Rng::new(config.seed);
        let mut packed = Vec::with_capacity(config.rows * dim);
        for _ in 0..config.rows {
            let sign_hash = FourWiseHash::random(&mut rng);
            let bucket_hash = FourWiseHash::random(&mut rng);
            packed.extend((0..dim as u64).map(|i| {
                let sign = if sign_hash.sign(i) > 0.0 { 0 } else { 1 << 31 };
                bucket_hash.bucket(i, config.cols) as u32 | sign
            }));
        }
        packed
    }

    /// The reference the gather must reproduce: per row, from `+0.0`,
    /// `row[bucket(i)] += ±v[i]` in ascending `i`.
    fn ascending_scatter(config: SketchConfig, packed: &[u32], v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; config.rows * config.cols];
        for (row, coords) in out
            .chunks_exact_mut(config.cols)
            .zip(packed.chunks_exact(v.len()))
        {
            for (&e, &x) in coords.iter().zip(v) {
                row[(e & 0x7FFF_FFFF) as usize] += f32::from_bits(x.to_bits() ^ (e & 1 << 31));
            }
        }
        out
    }

    /// Normal draws with signed zeros and subnormals mixed in, and — when
    /// `non_finite` — infinities and NaNs with distinct payloads.
    fn edge_vec(seed: u64, n: usize, non_finite: bool) -> Vec<f32> {
        let mut v = random_vec(seed, n);
        let mut specials = vec![0.0, -0.0, 1e-45, -1e-45, 1.5e-39, -3e-40];
        if non_finite {
            specials.extend([f32::INFINITY, f32::NEG_INFINITY]);
            specials.extend([0x7FC0_0001u32, 0xFFC0_0ABC, 0x7F80_0F00].map(f32::from_bits));
        }
        for (k, x) in specials.into_iter().enumerate() {
            let at = (k * 7919 + seed as usize) % n.max(1);
            if at < n {
                v[at] = x;
            }
        }
        v
    }

    /// Equal bits, except that two NaNs match whatever their payloads (see
    /// the NaN note on [`simd::Kernels::sketch_gather`]).
    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: counter {i}: {g} ({:#x}) vs {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Unit-vector sketches `sk(e_i)` are exact on every arm and reveal
    /// each coordinate's bucket and sign: exactly the hashed ones, with
    /// every other counter `+0.0`. This ties the scatter reference below to
    /// what the plan actually computes.
    #[test]
    fn differential_unit_vectors_reveal_the_hashed_buckets() {
        for (dim, cols, sample) in [
            (1usize, 250usize, 1usize),
            (17, 16, 17),
            (300, 17, 300),
            (44_068, 176, 97),
        ] {
            let config = SketchConfig::new(5, cols, 0xE1 + dim as u64);
            let plan = config.build_plan(dim);
            let packed = hashed_coordinates(config, dim);
            for kn in simd::all_supported() {
                let mut unit = vec![0.0f32; dim];
                let mut sk = AmsSketch::zeros(5, cols);
                for t in 0..sample {
                    let i = t * dim / sample;
                    unit[i] = 1.0;
                    plan.sketch_into_with_kernel(kn, &unit, &mut sk);
                    unit[i] = 0.0;
                    for (r, row) in sk.as_slice().chunks_exact(cols).enumerate() {
                        let e = packed[r * dim + i];
                        let one = if e >> 31 == 0 { 1.0f32 } else { -1.0 };
                        for (b, &x) in row.iter().enumerate() {
                            let want = if b == (e & 0x7FFF_FFFF) as usize {
                                one
                            } else {
                                0.0
                            };
                            assert_eq!(
                                x.to_bits(),
                                want.to_bits(),
                                "{} dim {dim} i {i} row {r}",
                                kn.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every arm against the ascending-`i` scatter, bit for bit, over
    /// lane-boundary and large dimensions, bucket counts that leave ragged
    /// groups and empty buckets (`cols > d`), and inputs with signed zeros,
    /// subnormals, infinities and NaN payloads.
    #[test]
    fn differential_every_arm_matches_the_ascending_scatter() {
        let dims = [1usize, 15, 16, 17, 33, 44_068, 249_999, 250_001];
        for (n, &dim) in dims.iter().enumerate() {
            for cols in [1usize, 16, 17, 32, 176, 250] {
                for rows in [1usize, 5] {
                    let config = SketchConfig::new(rows, cols, 0xD1F + n as u64);
                    let plan = config.build_plan(dim);
                    let packed = hashed_coordinates(config, dim);
                    for non_finite in [false, true] {
                        let v = edge_vec(dim as u64 + cols as u64, dim, non_finite);
                        let want = ascending_scatter(config, &packed, &v);
                        for kn in simd::all_supported() {
                            let mut got = AmsSketch::zeros(rows, cols);
                            plan.sketch_into_with_kernel(kn, &v, &mut got);
                            let what = format!(
                                "{} d={dim} {rows}x{cols} non_finite={non_finite}",
                                kn.name()
                            );
                            assert_bits_eq(got.as_slice(), &want, &what);
                        }
                    }
                }
            }
        }
    }

    /// The layout the gather's safety and exactness rest on: per row, every
    /// coordinate appears exactly once, in the bucket and with the sign
    /// the hash gives it; each lane lists its indices ascending with pads
    /// only after the last one; a group is as long as its longest lane;
    /// and at the sizes `scaled_for` picks, padding stays ≤ 1.25×.
    #[test]
    fn plan_tables_list_every_coordinate_once_in_ascending_order() {
        let mut shapes: Vec<(SketchConfig, usize)> = [3_700usize, 44_068, 250_000]
            .iter()
            .map(|&d| (SketchConfig::scaled_for(d), d))
            .collect();
        shapes.extend([
            (SketchConfig::new(3, 17, 5), 1_000),
            (SketchConfig::new(2, 250, 6), 40),
        ]);
        for (config, dim) in shapes {
            let plan = config.build_plan(dim);
            let packed = hashed_coordinates(config, dim);
            let groups = config.cols.div_ceil(SKETCH_LANES);
            assert_eq!(plan.row_starts.len(), config.rows + 1);
            assert_eq!(plan.row_starts[config.rows], plan.entries.len());
            let mut off = 0;
            for (r, steps) in plan.steps.chunks_exact(groups).enumerate() {
                assert_eq!(off, plan.row_starts[r], "row {r}: start");
                let mut seen = vec![false; dim];
                for (g, &n) in steps.iter().enumerate() {
                    let w = (config.cols - g * SKETCH_LANES).min(SKETCH_LANES);
                    let group = &plan.entries[off..off + n as usize * w];
                    let mut longest = 0;
                    for j in 0..w {
                        let lane: Vec<u32> = group.iter().skip(j).step_by(w).copied().collect();
                        let len = lane.iter().take_while(|&&e| e != SKETCH_PAD).count();
                        assert!(
                            lane[len..].iter().all(|&e| e == SKETCH_PAD),
                            "row {r} group {g}: pad mid-chain"
                        );
                        longest = longest.max(len);
                        for pair in lane[..len].windows(2) {
                            assert!(
                                pair[0] & 0x7FFF_FFFF < pair[1] & 0x7FFF_FFFF,
                                "row {r}: not ascending"
                            );
                        }
                        for &e in &lane[..len] {
                            let i = (e & 0x7FFF_FFFF) as usize;
                            assert!(i < dim, "row {r}: index {i} out of range");
                            assert!(
                                !std::mem::replace(&mut seen[i], true),
                                "row {r}: index {i} twice"
                            );
                            let hashed = packed[r * dim + i];
                            assert_eq!(
                                hashed & 0x7FFF_FFFF,
                                (g * SKETCH_LANES + j) as u32,
                                "row {r} i {i}: bucket"
                            );
                            assert_eq!(hashed >> 31, e >> 31, "row {r} i {i}: sign");
                        }
                    }
                    assert_eq!(longest, n as usize, "row {r} group {g}: steps");
                    off += group.len();
                }
                assert!(seen.iter().all(|&s| s), "row {r}: a coordinate is missing");
            }
            assert_eq!(off, plan.entries.len(), "trailing entries");
            let padding = off as f64 / (config.rows * dim) as f64;
            if config == SketchConfig::scaled_for(dim) {
                assert!(padding <= 1.25, "d={dim}: padding {padding:.3}x");
            }
        }
    }

    /// A host-independent known answer: an integer-generated input, integer
    /// hashing, and f32 adds only (no libm), hashed with FNV-1a over the
    /// counters' bits — equal on every arm and every host, unlike the
    /// trajectory goldens.
    #[test]
    fn known_answer_sketch_is_host_independent() {
        let fnv = |xs: &[f32]| {
            xs.iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0x811c_9dc5u32, |h, b| {
                    (h ^ b as u32).wrapping_mul(0x0100_0193)
                })
        };
        // Pinned from the row-major scatter this layout replaced.
        for (config, dim, want) in [
            (
                SketchConfig::scaled_for(44_068),
                44_068usize,
                0xfc6e_444fu32,
            ),
            (SketchConfig::paper_default(), 3_001, 0xd4c8_f1ca),
        ] {
            let v: Vec<f32> = (0..dim as u32)
                .map(|i| ((i.wrapping_mul(2_654_435_761) >> 8) as i32 - (1 << 23)) as f32 / 4096.0)
                .collect();
            let plan = config.build_plan(dim);
            for kn in simd::all_supported() {
                let mut sk = AmsSketch::zeros(config.rows, config.cols);
                plan.sketch_into_with_kernel(kn, &v, &mut sk);
                assert_eq!(fnv(sk.as_slice()), want, "{} d={dim}", kn.name());
            }
        }
    }

    /// `sketch_into` reuse is bit-identical to the allocating constructor.
    #[test]
    fn buffer_reuse_matches_fresh_sketch() {
        let plan = SketchConfig::new(3, 16, 4).build_plan(120);
        let a = random_vec(1, 120);
        let b = random_vec(2, 120);
        let mut reused = plan.sketch(&a);
        plan.sketch_into(&b, &mut reused);
        assert_eq!(reused, plan.sketch(&b), "sketch_into reuse diverged");
    }
}
