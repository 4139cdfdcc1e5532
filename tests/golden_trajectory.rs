//! Golden-trajectory regression suite for the training stack.
//!
//! A short LeNet FDA run with every `f32` pinned: per-round FNV-1a hashes
//! over the bit patterns of the global model, the variance estimate and the
//! sync decision. Any change to the numeric path — GEMM kernel dispatch,
//! activation layout, reduction association, RNG streams — shows up as a
//! hash mismatch here *before* it silently shifts a paper figure.
//!
//! Two layers of defense, in order of strength:
//!
//! 1. **Pooled-vs-sequential bit-identity** (host-independent): for
//!    K ∈ {1, 2, 4} the persistent-pool runtime must reproduce the
//!    sequential trajectory bit-for-bit, per the repo's copy-first
//!    worker-order reduction convention.
//! 2. **Pinned hashes** (host-pinned): the sequential K = 4 trajectory must
//!    match the constants below exactly, in two layers: the models and
//!    decisions alone ([`GOLDEN_DECISION_HASHES`]), which no change to how
//!    the estimate is formed or reported may move, and the full digest
//!    with the estimate ([`GOLDEN_HASHES`]). The wide arithmetic runs on the
//!    dispatched SIMD kernel arm (`fda_tensor::simd`), so the bits are
//!    bound to the build host's best ISA (AVX-512 FMA on the perf host) —
//!    a host without that arm, or a run under `FDA_FORCE_KERNEL`, lands on
//!    different (equally deterministic) bits; the softmax `exp` comes from
//!    libm, so a different libm *could* shift them too. Within one host and
//!    arm the bits are stable across rebuilds and optimization levels. If
//!    a deliberate numeric change (or a new build host) moves the
//!    trajectory, re-pin once by running with `GOLDEN_PRINT=1` and pasting
//!    the printed list — after convincing yourself the change is
//!    intentional. (Pinned under the AVX-512 arm since the SIMD dispatch
//!    layer landed.)

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig};
use fda::core::strategy::Strategy;
use fda::data::synth::SynthSpec;
use fda::data::{Partition, TaskData};
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;

const ROUNDS: usize = 8;

/// The pinned per-round trajectory hashes for `golden_config(4, false)`
/// (sequential LeNet, linear monitor, Θ = 0.02, seed 0x601D). Re-pin with
/// `GOLDEN_PRINT=1 cargo test --test golden_trajectory -- --nocapture`.
const GOLDEN_HASHES: [u64; ROUNDS] = [
    0x223364979a77ed3e,
    0x7b047caaa230b67f,
    0x11a52cfa9b399f0a,
    0xcca6ef051b18db2c,
    0xa0850abfdcb277fc,
    0xcecccac1ee1c1d76,
    0x762016e14f0f9e0f,
    0x09fe89d36e8efcd8,
];

/// The same rounds digested without the variance estimate: every
/// worker's parameters and the sync decision only. Re-pinned together
/// with [`GOLDEN_HASHES`].
const GOLDEN_DECISION_HASHES: [u64; ROUNDS] = [
    0x78f52105b5e1a269,
    0x0969f65beefba974,
    0xa0b4d7c69c4c280c,
    0xeb3bf7e0806c2026,
    0x68f0b5954a464b5c,
    0xd8d6ba1028ab6799,
    0xb1b8c878580e67c6,
    0x53953f6a0261bed5,
];

fn task() -> TaskData {
    SynthSpec {
        n_train: 280,
        n_test: 80,
        ..SynthSpec::synth_mnist()
    }
    .generate("golden")
}

fn golden_config(k: usize, parallel: bool) -> ClusterConfig {
    ClusterConfig {
        model: ModelId::Lenet5,
        workers: k,
        batch_size: 16,
        optimizer: OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed: 0x601D,
        parallel,
    }
}

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn write_f32_bits(&mut self, vals: &[f32]) {
        for v in vals {
            self.write_u64(v.to_bits() as u64);
        }
    }
}

/// One round's digests, `(full, bare)`: every worker's full parameter
/// vector and the sync decision, all by bit pattern — then, for the full
/// digest only, the variance estimate.
fn round_hash(fda: &Fda, synced: bool, estimate: Option<f32>) -> (u64, u64) {
    let mut h = Fnv::new();
    for w in 0..fda.cluster().workers() {
        h.write_f32_bits(&fda.cluster().worker(w).params());
    }
    h.write_u64(synced as u64);
    let bare = h.0;
    h.write_u64(estimate.map_or(u64::MAX, |e| e.to_bits() as u64));
    (h.0, bare)
}

/// Runs `ROUNDS` FDA steps and returns the per-round `(full, bare)`
/// digests.
fn run_trajectory(k: usize, parallel: bool, task: &TaskData) -> Vec<(u64, u64)> {
    let mut fda = Fda::new(FdaConfig::linear(0.02), golden_config(k, parallel), task);
    (0..ROUNDS)
        .map(|_| {
            let r = fda.step();
            round_hash(&fda, r.synced, r.variance_estimate)
        })
        .collect()
}

/// The full and the bare digests of a run, as two lists.
fn layers(run: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    run.iter().copied().unzip()
}

/// Whether the pinned layers apply on this host; prints the constants
/// instead under `GOLDEN_PRINT`.
fn pinned_arm() -> bool {
    // The constants above are pinned under the AVX-512 kernel arm (the
    // build host's dispatch default). On a host — or CI runner — whose
    // dispatched arm differs, the trajectory lands on different (equally
    // deterministic) bits, so comparing against these constants would be
    // noise, not signal: skip with a note instead of failing. GitHub's
    // shared runner fleet mixes AVX-512 and non-AVX-512 CPUs, so this
    // gate is what keeps plain `cargo test` green there while the perf
    // build host still exercises the pinned layer via tier-1.
    let arm = fda::tensor::simd::kernels();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        // Re-pinning is valid on any arm (the constants then belong to
        // that arm — note it in the comment above), so the print path
        // runs before the arm gate.
        let (full, bare) = layers(&run_trajectory(4, false, &task()));
        println!("// pinned under the {} arm", arm.name());
        for (name, hashes) in [("GOLDEN_HASHES", full), ("GOLDEN_DECISION_HASHES", bare)] {
            println!("const {name}: [u64; ROUNDS] = [");
            for h in &hashes {
                println!("    {h:#018x},");
            }
            println!("];");
        }
        return false;
    }
    if arm.isa != fda::tensor::simd::Isa::Avx512 {
        eprintln!(
            "skipping pinned-hash layer: hashes are pinned under the avx512 \
             arm, dispatched arm here is {}",
            arm.name()
        );
        return false;
    }
    true
}

/// Layer 1 (host-independent): pooled K ∈ {1, 2, 4} reproduces the
/// sequential trajectory bit-for-bit at every round.
#[test]
fn pooled_k124_bit_identical_to_sequential() {
    let task = task();
    for k in [1usize, 2, 4] {
        let seq = run_trajectory(k, false, &task);
        let pooled = run_trajectory(k, true, &task);
        assert_eq!(
            seq, pooled,
            "K = {k}: pooled trajectory diverged from sequential"
        );
    }
}

/// Layer 2a (host-pinned): the sequential K = 4 models and decisions
/// match the golden hashes exactly, whatever estimate the rounds report.
#[test]
fn sequential_models_and_decisions_match_golden_hashes() {
    if !pinned_arm() {
        return;
    }
    let (_, got) = layers(&run_trajectory(4, false, &task()));
    assert_eq!(
        got, GOLDEN_DECISION_HASHES,
        "models or decisions moved; if intentional, re-pin with \
         GOLDEN_PRINT=1 (got {got:#018x?})"
    );
}

/// Layer 2b (host-pinned): the sequential K = 4 trajectory, estimates
/// included, matches the golden hashes exactly.
#[test]
fn sequential_trajectory_matches_golden_hashes() {
    if !pinned_arm() {
        return;
    }
    let (got, _) = layers(&run_trajectory(4, false, &task()));
    assert_eq!(
        got, GOLDEN_HASHES,
        "trajectory moved; if intentional, re-pin with GOLDEN_PRINT=1 \
         (got {got:#018x?})"
    );
}

/// The trajectory hash must actually depend on the numerics it digests —
/// a different seed must produce different hashes (guards against a
/// degenerate digest pinning all-zeros).
#[test]
fn golden_hash_is_sensitive() {
    let task = task();
    let (a, a_bare) = layers(&run_trajectory(2, false, &task));
    let mut other_cfg = golden_config(2, false);
    other_cfg.seed ^= 1;
    let mut fda = Fda::new(FdaConfig::linear(0.02), other_cfg, &task);
    let b: Vec<(u64, u64)> = (0..ROUNDS)
        .map(|_| {
            let r = fda.step();
            round_hash(&fda, r.synced, r.variance_estimate)
        })
        .collect();
    let (b, b_bare) = layers(&b);
    assert_ne!(a, b, "digest insensitive to the model trajectory");
    assert_ne!(a_bare, b_bare, "bare digest insensitive to the models");
}
