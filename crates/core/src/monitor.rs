//! Variance monitors: local states and the estimation functions `H(S̄)`.
//!
//! A monitor answers one question per step: *given only the averaged local
//! states, can the cluster certify that the model variance is still below
//! Θ?* The three implementations trade communication for estimation
//! fidelity exactly as §3.1–§3.2 of the paper describe:
//!
//! | Monitor           | Summary of drift `u`     | Bytes/worker/step | Guarantee          |
//! |-------------------|--------------------------|-------------------|--------------------|
//! | [`SketchMonitor`] | AMS sketch `sk(u)`       | `l·m·4 + 4`       | prob. ≥ 1 − δ      |
//! | [`LinearMonitor`] | scalar `⟨ξ, u⟩`          | `4 + 4`           | deterministic      |
//! | [`ExactMonitor`]  | the full drift (oracle)  | `d·4 + 4`         | exact (tests only) |
//!
//! The bytes ([`VarianceMonitor::state_bytes`]) are those of a round that
//! needs the summary. A round whose mean `‖u‖²` alone settles it
//! (`crate::round::certifies`) ships the 4-byte scalar and no summary,
//! whatever the monitor: every estimate is `mean‖u‖²` minus a
//! non-negative term.

use fda_sketch::{AmsSketch, SketchConfig, SketchPlan};
use fda_tensor::vector;

/// A worker's local state `S_t^(k)`: the scalar `‖u‖²` plus a
/// variant-specific low-dimensional summary of the drift.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalState {
    /// `‖u_t^(k)‖₂²` — always transmitted (4 bytes).
    pub drift_sq_norm: f32,
    /// The drift summary.
    pub summary: StateSummary,
}

/// The variant-specific part of a local state.
#[derive(Debug, Clone, PartialEq)]
pub enum StateSummary {
    /// AMS sketch of the drift (SketchFDA).
    Sketch(AmsSketch),
    /// `⟨ξ, u⟩` for the shared unit vector ξ (LinearFDA).
    Linear(f32),
    /// The full drift vector (oracle; for tests and ablations).
    Exact(Vec<f32>),
}

impl LocalState {
    /// The summary's flat `f32` payload — the exact numbers the state
    /// AllReduce would put on the wire. A `Linear` summary is a 1-element
    /// slice; averaging any variant is element-wise over this slice.
    pub fn summary_slice(&self) -> &[f32] {
        match &self.summary {
            StateSummary::Sketch(sk) => sk.as_slice(),
            StateSummary::Linear(v) => std::slice::from_ref(v),
            StateSummary::Exact(v) => v,
        }
    }

    /// Mutable view of the summary payload (for in-place reductions).
    pub fn summary_slice_mut(&mut self) -> &mut [f32] {
        match &mut self.summary {
            StateSummary::Sketch(sk) => sk.as_mut_slice(),
            StateSummary::Linear(v) => std::slice::from_mut(v),
            StateSummary::Exact(v) => v,
        }
    }

    /// Whether two states carry the same summary variant and payload
    /// length — what averaging them and a monitor's estimate of them
    /// require. The round checks states against the job's own shape with
    /// this, so a well-framed but wrong-shaped state from a broken peer
    /// becomes a protocol error instead of a process abort.
    pub fn same_shape(&self, other: &LocalState) -> bool {
        std::mem::discriminant(&self.summary) == std::mem::discriminant(&other.summary)
            && self.summary_slice().len() == other.summary_slice().len()
    }

    /// Averages `K` local states component-wise — the arithmetic the state
    /// AllReduce performs. All states must come from the same monitor.
    ///
    /// # Panics
    /// Panics on an empty slice or mixed summary variants.
    pub fn average(states: &[LocalState]) -> LocalState {
        let refs: Vec<&LocalState> = states.iter().collect();
        LocalState::average_refs(&refs)
    }

    /// [`LocalState::average`] over references: the summaries' sequential
    /// id-order mean ([`vector::mean_range_into`]), the reference the
    /// round's state mean is tested against.
    ///
    /// # Panics
    /// Panics on an empty slice or mixed summary variants.
    fn average_refs(states: &[&LocalState]) -> LocalState {
        assert!(!states.is_empty(), "state average: empty input");
        let k = states.len() as f32;
        let variant = std::mem::discriminant(&states[0].summary);
        assert!(
            states
                .iter()
                .all(|s| std::mem::discriminant(&s.summary) == variant),
            "state average: mixed summary variants"
        );
        let drift_sq_norm = states.iter().map(|s| s.drift_sq_norm).sum::<f32>() / k;
        let summaries: Vec<&[f32]> = states.iter().map(|s| s.summary_slice()).collect();
        let mut avg = (*states[0]).clone();
        let out = avg.summary_slice_mut();
        vector::mean_range_into(&summaries, 0, out.len(), out);
        avg.drift_sq_norm = drift_sq_norm;
        avg
    }
}

/// The monitor interface of the FDA protocol (Algorithm 1 lines 6–8).
///
/// `Sync` because the pooled runtime shares one monitor across all worker
/// lanes during the (read-only) state-construction phase; `on_sync` — the
/// only `&mut` method — runs on the dispatching thread between phases.
pub trait VarianceMonitor: Send + Sync {
    /// Monitor name for reports (`sketch` / `linear` / `exact`).
    fn name(&self) -> &'static str;

    /// Wire size of one worker's local state in bytes (charged per step).
    fn state_bytes(&self) -> u64;

    /// Computes a worker's local state from its current drift
    /// `u_t^(k) = w_t^(k) − w_t0`.
    fn local_state(&self, drift: &[f32]) -> LocalState;

    /// Writes a worker's local state into an existing, correctly-shaped
    /// slot — the borrow-friendly form the pooled runtime uses so the
    /// steady state constructs states without allocating: `‖u‖²`, then
    /// [`VarianceMonitor::summary_into`]. Bit-identical to
    /// [`VarianceMonitor::local_state`].
    fn local_state_into(&self, drift: &[f32], out: &mut LocalState) {
        out.drift_sq_norm = vector::norm_sq(drift);
        self.summary_into(drift, out);
    }

    /// Writes the summary of `drift` into `out`, leaving its `‖u‖²` alone:
    /// the half of a local state that only a round the drift scalars
    /// cannot settle needs (see `crate::round`). Falls back to an
    /// allocating build on shape mismatch; bit-identical either way.
    fn summary_into(&self, drift: &[f32], out: &mut LocalState);

    /// The estimation function `H(S̄_t)`: an over-estimate of `Var(w_t)`
    /// computed from the averaged state.
    fn estimate(&self, avg: &LocalState) -> f32;

    /// Hook invoked right after a synchronization with the new global
    /// model and the previous synchronization's model (used by
    /// [`LinearMonitor`] to refresh ξ; no-op otherwise).
    fn on_sync(&mut self, w_new: &[f32], w_prev: &[f32]) {
        let _ = (w_new, w_prev);
    }
}

/// SketchFDA's monitor (§3.1, Theorem 3.1).
///
/// `H(S̄) = mean‖u‖² − M2(mean sketch)/(1+ε)`: the `1/(1+ε)` deflation
/// turns the (1 ± ε) multiplicative sketch guarantee into a one-sided
/// over-estimate of the variance with probability ≥ 1 − δ.
pub struct SketchMonitor {
    plan: SketchPlan,
    epsilon: f32,
}

impl SketchMonitor {
    /// Creates the monitor for `dim`-parameter models.
    pub fn new(config: SketchConfig, dim: usize) -> SketchMonitor {
        SketchMonitor {
            epsilon: config.epsilon() as f32,
            plan: config.build_plan(dim),
        }
    }

    /// The sketch configuration in use.
    pub fn config(&self) -> SketchConfig {
        self.plan.config()
    }
}

impl VarianceMonitor for SketchMonitor {
    fn name(&self) -> &'static str {
        "sketch"
    }

    fn state_bytes(&self) -> u64 {
        self.plan.config().byte_size() as u64 + 4
    }

    fn local_state(&self, drift: &[f32]) -> LocalState {
        LocalState {
            drift_sq_norm: vector::norm_sq(drift),
            summary: StateSummary::Sketch(self.plan.sketch(drift)),
        }
    }

    fn summary_into(&self, drift: &[f32], out: &mut LocalState) {
        let _span = fda_obs::histogram!("fda_sketch_us").span();
        match &mut out.summary {
            StateSummary::Sketch(sk)
                if sk.rows() == self.plan.config().rows && sk.cols() == self.plan.config().cols =>
            {
                self.plan.sketch_into(drift, sk);
            }
            summary => *summary = StateSummary::Sketch(self.plan.sketch(drift)),
        }
    }

    fn estimate(&self, avg: &LocalState) -> f32 {
        let sketch = match &avg.summary {
            StateSummary::Sketch(sk) => sk,
            _ => panic!("sketch monitor: wrong summary variant"),
        };
        // By linearity, the average of sketches IS the sketch of ū.
        avg.drift_sq_norm - sketch.estimate_sq_norm() / (1.0 + self.epsilon)
    }
}

/// LinearFDA's monitor (§3.2, Theorem 3.2).
///
/// `H(S̄) = mean‖u‖² − ⟨ξ, ū⟩²` with `‖ξ‖ = 1`; Cauchy–Schwarz makes this a
/// *deterministic* over-estimate. ξ is the heuristic direction: the
/// normalized difference of the last two synchronized models
/// `(w_t0 − w_t−1)/‖·‖` — all workers compute it locally, no extra
/// communication. Before two syncs have happened ξ is undefined and the
/// monitor conservatively uses `⟨ξ, u⟩ = 0` (maximal over-estimate).
pub struct LinearMonitor {
    xi: Option<Vec<f32>>,
    /// Retired ξ storage, reused for the next candidate direction.
    spare: Vec<f32>,
}

impl LinearMonitor {
    /// Creates the monitor (ξ unset until the second synchronization).
    pub fn new() -> LinearMonitor {
        LinearMonitor {
            xi: None,
            spare: Vec::new(),
        }
    }
}

impl Default for LinearMonitor {
    fn default() -> Self {
        LinearMonitor::new()
    }
}

impl VarianceMonitor for LinearMonitor {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn state_bytes(&self) -> u64 {
        4 + 4
    }

    fn local_state(&self, drift: &[f32]) -> LocalState {
        let mut state = LocalState {
            drift_sq_norm: vector::norm_sq(drift),
            summary: StateSummary::Linear(0.0),
        };
        self.summary_into(drift, &mut state);
        state
    }

    fn summary_into(&self, drift: &[f32], out: &mut LocalState) {
        let proj = match &self.xi {
            Some(xi) => vector::dot(xi, drift),
            None => 0.0,
        };
        out.summary = StateSummary::Linear(proj);
    }

    fn estimate(&self, avg: &LocalState) -> f32 {
        let proj = match &avg.summary {
            StateSummary::Linear(v) => *v,
            _ => panic!("linear monitor: wrong summary variant"),
        };
        avg.drift_sq_norm - proj * proj
    }

    fn on_sync(&mut self, w_new: &[f32], w_prev: &[f32]) {
        // The candidate is built in the spare buffer — the storage of the
        // ξ before last — so steady-state syncs allocate nothing.
        let mut candidate = std::mem::take(&mut self.spare);
        candidate.resize(w_new.len(), 0.0);
        vector::sub_into(w_new, w_prev, &mut candidate);
        let norm = vector::normalize(&mut candidate);
        // A zero difference (identical consecutive syncs) gives no usable
        // direction; keep the previous ξ in that degenerate case.
        self.spare = if norm > 0.0 && norm.is_finite() {
            self.xi.replace(candidate).unwrap_or_default()
        } else {
            candidate
        };
    }
}

/// The oracle monitor: ships the entire drift, so `H(S̄) = Var(w_t)`
/// exactly (Eq. 4). Communication-wise this is as expensive as
/// synchronizing, so it exists only for tests and for quantifying the
/// estimation gap of the practical monitors (ablation benches).
pub struct ExactMonitor {
    dim: usize,
}

impl ExactMonitor {
    /// Creates the oracle for `dim`-parameter models.
    pub fn new(dim: usize) -> ExactMonitor {
        ExactMonitor { dim }
    }
}

impl VarianceMonitor for ExactMonitor {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn state_bytes(&self) -> u64 {
        self.dim as u64 * 4 + 4
    }

    fn local_state(&self, drift: &[f32]) -> LocalState {
        LocalState {
            drift_sq_norm: vector::norm_sq(drift),
            summary: StateSummary::Exact(drift.to_vec()),
        }
    }

    fn summary_into(&self, drift: &[f32], out: &mut LocalState) {
        match &mut out.summary {
            StateSummary::Exact(v) if v.len() == drift.len() => v.copy_from_slice(drift),
            summary => *summary = StateSummary::Exact(drift.to_vec()),
        }
    }

    fn estimate(&self, avg: &LocalState) -> f32 {
        let u_bar = match &avg.summary {
            StateSummary::Exact(v) => v,
            _ => panic!("exact monitor: wrong summary variant"),
        };
        avg.drift_sq_norm - vector::norm_sq(u_bar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_tensor::Rng;

    fn random_drifts(seed: u64, k: usize, d: usize, scale: f32) -> Vec<Vec<f32>> {
        let mut rng = Rng::new(seed);
        (0..k)
            .map(|_| {
                let mut v = vec![0.0f32; d];
                rng.fill_normal(&mut v, 0.0, scale);
                v
            })
            .collect()
    }

    fn true_variance(drifts: &[Vec<f32>]) -> f32 {
        let refs: Vec<&[f32]> = drifts.iter().map(|d| d.as_slice()).collect();
        vector::variance_from_drifts(&refs)
    }

    #[test]
    fn exact_monitor_equals_variance() {
        let drifts = random_drifts(1, 6, 200, 1.0);
        let m = ExactMonitor::new(200);
        let states: Vec<LocalState> = drifts.iter().map(|d| m.local_state(d)).collect();
        let avg = LocalState::average(&states);
        let est = m.estimate(&avg);
        let truth = true_variance(&drifts);
        assert!(
            (est - truth).abs() < 1e-2 * (1.0 + truth),
            "exact: {est} vs {truth}"
        );
    }

    #[test]
    fn linear_monitor_always_overestimates() {
        // Theorem 3.2: deterministic over-estimate, whatever ξ is.
        for seed in 0..20u64 {
            let drifts = random_drifts(seed, 5, 100, 0.5);
            let mut m = LinearMonitor::new();
            // Install an arbitrary ξ via the sync hook.
            let w_new = random_drifts(seed + 100, 1, 100, 1.0).pop().unwrap();
            let w_prev = random_drifts(seed + 200, 1, 100, 1.0).pop().unwrap();
            m.on_sync(&w_new, &w_prev);
            let states: Vec<LocalState> = drifts.iter().map(|d| m.local_state(d)).collect();
            let est = m.estimate(&LocalState::average(&states));
            let truth = true_variance(&drifts);
            assert!(
                est >= truth - 1e-3 * (1.0 + truth.abs()),
                "seed {seed}: H = {est} < Var = {truth}"
            );
        }
    }

    #[test]
    fn linear_monitor_without_xi_uses_full_norm() {
        let drifts = random_drifts(3, 4, 50, 1.0);
        let m = LinearMonitor::new();
        let states: Vec<LocalState> = drifts.iter().map(|d| m.local_state(d)).collect();
        let avg = LocalState::average(&states);
        let est = m.estimate(&avg);
        assert!(
            (est - avg.drift_sq_norm).abs() < 1e-6,
            "no ξ ⇒ H = mean‖u‖²"
        );
    }

    #[test]
    fn linear_xi_is_unit_and_ignores_degenerate_sync() {
        let mut m = LinearMonitor::new();
        let a = vec![1.0f32, 2.0, 2.0];
        let b = vec![1.0f32, 0.0, 0.0];
        m.on_sync(&a, &b);
        let xi = m.xi.clone().expect("xi set");
        assert!((vector::norm(&xi) - 1.0).abs() < 1e-6);
        // Degenerate sync (identical models) must not clobber ξ.
        m.on_sync(&a, &a);
        assert_eq!(m.xi.as_deref(), Some(xi.as_slice()));
    }

    #[test]
    fn linear_perfect_xi_gives_tight_estimate() {
        // If all drifts are parallel to ξ, ⟨ξ, ū⟩² = ‖ū‖² and H = Var.
        let dir = {
            let mut v = random_drifts(7, 1, 80, 1.0).pop().unwrap();
            vector::normalize(&mut v);
            v
        };
        let mut m = LinearMonitor::new();
        let origin = vec![0.0f32; 80];
        m.on_sync(&dir, &origin); // ξ = dir
        let drifts: Vec<Vec<f32>> = (1..=4)
            .map(|i| {
                let mut d = dir.clone();
                vector::scale(&mut d, i as f32);
                d
            })
            .collect();
        let states: Vec<LocalState> = drifts.iter().map(|d| m.local_state(d)).collect();
        let est = m.estimate(&LocalState::average(&states));
        let truth = true_variance(&drifts);
        assert!(
            (est - truth).abs() < 1e-2 * (1.0 + truth),
            "tight case: H = {est}, Var = {truth}"
        );
    }

    #[test]
    fn sketch_monitor_overestimates_with_high_probability() {
        // Theorem 3.1: H ≥ Var with probability ≥ 1 − δ. With the paper's
        // (l, m) the failure probability is ~5%; over 40 seeds allow a few.
        let d = 500;
        let mut failures = 0;
        for seed in 0..40u64 {
            let drifts = random_drifts(seed, 8, d, 1.0);
            let m = SketchMonitor::new(fda_sketch::SketchConfig::new(5, 250, seed + 1000), d);
            let states: Vec<LocalState> = drifts.iter().map(|u| m.local_state(u)).collect();
            let est = m.estimate(&LocalState::average(&states));
            let truth = true_variance(&drifts);
            if est < truth {
                failures += 1;
            }
        }
        assert!(
            failures <= 6,
            "sketch over-estimate failed {failures}/40 times"
        );
    }

    #[test]
    fn sketch_estimate_is_much_tighter_than_norm_bound() {
        // The whole point of the sketch: H should sit close to Var, far
        // below the trivial bound mean‖u‖² (which is what Linear-without-ξ
        // gives). Use drifts with a strong common component so
        // ‖ū‖² ≫ 0 and the bounds differ a lot.
        let d = 400;
        let mut rng = Rng::new(5);
        let mut common = vec![0.0f32; d];
        rng.fill_normal(&mut common, 0.0, 1.0);
        let drifts: Vec<Vec<f32>> = (0..6)
            .map(|_| {
                let mut v = common.clone();
                let mut noise = vec![0.0f32; d];
                rng.fill_normal(&mut noise, 0.0, 0.2);
                vector::add_assign(&mut v, &noise);
                v
            })
            .collect();
        let m = SketchMonitor::new(fda_sketch::SketchConfig::paper_default(), d);
        let states: Vec<LocalState> = drifts.iter().map(|u| m.local_state(u)).collect();
        let avg = LocalState::average(&states);
        let est = m.estimate(&avg);
        let truth = true_variance(&drifts);
        let trivial = avg.drift_sq_norm;
        assert!(est >= truth * 0.8, "est {est} vs truth {truth}");
        assert!(
            est < truth + 0.25 * (trivial - truth),
            "sketch bound {est} should be much closer to Var {truth} than the trivial bound {trivial}"
        );
    }

    #[test]
    fn state_bytes_match_paper() {
        let sketch = SketchMonitor::new(fda_sketch::SketchConfig::paper_default(), 100);
        assert_eq!(sketch.state_bytes(), 5_000 + 4); // "5 kB" + the scalar
        let linear = LinearMonitor::new();
        assert_eq!(linear.state_bytes(), 8); // two numbers
        let exact = ExactMonitor::new(100);
        assert_eq!(exact.state_bytes(), 404);
    }

    #[test]
    fn average_state_is_componentwise() {
        let m = LinearMonitor::new();
        let a = m.local_state(&[1.0, 0.0]);
        let b = m.local_state(&[0.0, 2.0]);
        let avg = LocalState::average(&[a, b]);
        assert!((avg.drift_sq_norm - (1.0 + 4.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "mixed summary variants")]
    fn mixed_variants_panic() {
        let lin = LinearMonitor::new().local_state(&[1.0]);
        let exa = ExactMonitor::new(1).local_state(&[1.0]);
        let _ = LocalState::average(&[lin, exa]);
    }

    /// The borrow-friendly `local_state_into` must be bit-identical to the
    /// allocating `local_state` for every monitor, including when reusing
    /// a slot populated by a previous (different) drift.
    #[test]
    fn local_state_into_matches_local_state() {
        let d = 300;
        let drifts = random_drifts(11, 2, d, 1.0);
        let monitors: Vec<Box<dyn VarianceMonitor>> = vec![
            Box::new(SketchMonitor::new(
                fda_sketch::SketchConfig::new(4, 64, 3),
                d,
            )),
            Box::new({
                let mut m = LinearMonitor::new();
                let w = random_drifts(40, 2, d, 1.0);
                m.on_sync(&w[0], &w[1]);
                m
            }),
            Box::new(ExactMonitor::new(d)),
        ];
        for m in &monitors {
            let mut slot = m.local_state(&vec![0.0; d]);
            for drift in &drifts {
                m.local_state_into(drift, &mut slot);
                let fresh = m.local_state(drift);
                assert_eq!(slot, fresh, "{} reuse diverged", m.name());
            }
        }
    }

    /// `average_refs` avoids clones and matches `average` bit-for-bit, and
    /// its summary slices round-trip through the flat payload view.
    #[test]
    fn average_refs_matches_average() {
        let drifts = random_drifts(5, 6, 128, 0.7);
        let m = SketchMonitor::new(fda_sketch::SketchConfig::new(3, 32, 9), 128);
        let states: Vec<LocalState> = drifts.iter().map(|u| m.local_state(u)).collect();
        let refs: Vec<&LocalState> = states.iter().collect();
        let a = LocalState::average(&states);
        let b = LocalState::average_refs(&refs);
        assert_eq!(a, b);
        assert_eq!(a.summary_slice().len(), 3 * 32);
        let lin = LinearMonitor::new().local_state(&[2.0, 0.0]);
        assert_eq!(lin.summary_slice(), &[0.0]);
    }
}
