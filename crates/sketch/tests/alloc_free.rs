//! `SketchPlan::sketch_into` allocates nothing: SketchFDA sketches every
//! worker's drift at every step, into a buffer the worker keeps. Lives in
//! its own test binary so the counting global allocator sees only this
//! suite.

use fda_obs::alloc_count::{allocs, CountingAlloc};
use fda_sketch::{AmsSketch, SketchConfig};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn sketch_into_allocates_nothing_on_any_kernel_arm() {
    for (config, dim) in [
        (SketchConfig::scaled_for(44_068), 44_068),
        (SketchConfig::new(3, 17, 5), 1_000),
    ] {
        let plan = config.build_plan(dim);
        let v: Vec<f32> = (0..dim).map(|i| (i % 97) as f32 - 48.0).collect();
        let mut sk = AmsSketch::zeros(config.rows, config.cols);
        let arms = fda_tensor::simd::all_supported();
        // The first call picks the process-wide kernel arm, which reads
        // `FDA_FORCE_KERNEL` into a `String` when it is set: a one-time
        // cost, outside the measurement.
        plan.sketch_into(&v, &mut sk);
        let before = allocs();
        for _ in 0..20 {
            plan.sketch_into(&v, &mut sk);
            for kn in &arms {
                plan.sketch_into_with_kernel(kn, &v, &mut sk);
            }
        }
        assert_eq!(allocs() - before, 0, "sketch_into allocated (d = {dim})");
    }
}
