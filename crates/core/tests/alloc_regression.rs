//! Allocation fence for the simulator's coded step: with a uniform-8-bit
//! uplink and a delta downlink at Θ = 0 (a coded state reduce, a coded
//! model AllReduce and a delta reconstruction every step), `Fda::step` must
//! add only a small constant number of buffer allocations on top of local
//! training — independent of K — and none of them `d`-sized. Encoded
//! payloads, reconstructions, the AllReduce mean and the delta all live in
//! scratch owned by `Fda` / `Cluster`.
//!
//! Same method as `crates/net/tests/alloc_regression.rs`: a counting
//! global allocator, two run lengths, and the slope between them, so
//! construction and first-use growth of the scratch cancel. Local training
//! allocates too (batches, activations), proportionally to K, so its own
//! slope on an identical cluster is subtracted. Every allocation counts,
//! whatever its size. Lives in its own test binary so the allocator is
//! isolated from the other suites.

use fda_comm::{CodecSpec, DownlinkSpec};
use fda_core::cluster::{Cluster, ClusterConfig};
use fda_core::fda::{Fda, FdaConfig};
use fda_core::strategy::Strategy;
use fda_data::synth::SynthSpec;
use fda_data::TaskData;
use fda_obs::alloc_count::{allocs, large_allocs, set_large_bytes, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const UNIFORM8: CodecSpec = CodecSpec::Uniform8 { chunk: 256 };

fn task() -> TaskData {
    SynthSpec {
        n_train: 480,
        n_test: 80,
        ..SynthSpec::synth_mnist()
    }
    .generate("alloc-fence")
}

/// `(allocations, d-sized allocations)` of this thread across `steps`
/// calls of `step`, after `warm` unmeasured ones.
fn count(warm: usize, steps: usize, mut step: impl FnMut()) -> (u64, u64) {
    for _ in 0..warm {
        step();
    }
    let before = (allocs(), large_allocs());
    for _ in 0..steps {
        step();
    }
    (allocs() - before.0, large_allocs() - before.1)
}

/// Per-step slope of `(allocations, d-sized allocations)`.
fn slope(mut step: impl FnMut()) -> (f64, f64) {
    let (short, long) = (4usize, 20usize);
    let a = count(3, short, &mut step);
    let b = count(0, long, &mut step);
    let per = |long_n: u64, short_n: u64| (long_n as f64 - short_n as f64) / (long - short) as f64;
    (per(b.0, a.0), per(b.1, a.1))
}

#[test]
fn coded_step_allocations_are_flat_in_k_and_never_d_sized() {
    let task = task();
    // A step's own allocations beyond local training, measured 6.0 at
    // K = 2 and K = 4, each a few dozen bytes:
    // - the `&LocalState` list `Fda::step` hands to `Server::decide`;
    // - the summary slice list `Server::decide` averages;
    // - three in the sketch estimate: the per-row estimates, their f64
    //   copy in `median_f32` and the sorted copy in `quantile`;
    // - the model slice list `Cluster::upload_models` lends to the reduce.
    // A per-worker encode or decode buffer in either coded loop would add
    // 2K more.
    const BUDGET_PER_STEP: f64 = 6.0;
    let mut extras = Vec::new();
    for k in [2usize, 4] {
        let config = ClusterConfig::small_test(k);
        let mut fda = Fda::new(FdaConfig::sketch_auto(0.0), config.clone(), &task);
        fda.set_codec(UNIFORM8);
        fda.set_downlink(DownlinkSpec::Delta { codec: UNIFORM8 });
        let d = fda.cluster().dim();
        // An encoded model is about `d` bytes, a reconstruction `4d`.
        set_large_bytes(d);

        let mut training = Cluster::new(config, &task);
        let (local, local_big) = slope(|| {
            training.local_step();
        });
        let syncs_before = fda.syncs();
        let (coded, coded_big) = slope(|| {
            fda.step();
        });
        assert_eq!(fda.syncs() - syncs_before, 27, "Θ = 0 syncs every step");

        assert_eq!(
            coded_big, local_big,
            "K = {k}: a coded step allocates a d-sized buffer ({coded_big} vs \
             {local_big} per step in local training alone)"
        );
        let extra = coded - local;
        assert!(
            extra <= BUDGET_PER_STEP,
            "K = {k}: a coded step allocates {extra:.1} more than local training \
             ({coded:.1} vs {local:.1}); budget {BUDGET_PER_STEP} — did a per-worker \
             encode or decode buffer sneak back in?"
        );
        extras.push(extra);
    }
    assert_eq!(
        extras[0], extras[1],
        "the coded step's own allocations must not grow with K"
    );
}
