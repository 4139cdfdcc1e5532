//! Θ tuning demo (the paper's §4.3 "Dependence on Θ" and "Choice of Θ").
//!
//! ```sh
//! cargo run --release --example threshold_tuning
//! ```
//!
//! Calibrates the variance threshold under each of the paper's three
//! deployment regimes (FL / Balanced / HPC): sweeps Θ, prints the
//! communication/computation trade-off with the modelled wall-time, and
//! picks the regime's Θ* — showing why bandwidth-starved settings favour
//! larger Θ.

use fda::comm::Environment;
use fda::core::cluster::ClusterConfig;
use fda::core::fda::FdaVariant;
use fda::core::harness::RunConfig;
use fda::core::theta;
use fda::data::synth;
use fda::data::Partition;
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;
use fda::sketch::SketchConfig;

fn main() {
    let task = synth::synth_mnist();
    let thetas = [0.05f32, 0.15, 0.5, 1.5, 5.0];
    let cluster = ClusterConfig {
        model: ModelId::Lenet5,
        workers: 6,
        batch_size: 32,
        optimizer: OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed: 7,
        parallel: false,
    };
    let variant = FdaVariant::Sketch(SketchConfig::paper_default());
    let run_cfg = RunConfig::to_target(0.88, 4_000);
    let d = ModelId::Lenet5.build(0, 0).param_count();

    println!("SketchFDA, K = 6, target accuracy 0.88");
    for env in Environment::all() {
        println!(
            "\n{} (the paper's fitted guideline c·d at this d: Θ = {:.2})",
            env.name,
            theta::paper_theta(&env, d)
        );
        println!(
            "{:>7} {:>7} {:>7} {:>13} {:>11}",
            "Θ", "steps", "syncs", "comm (bytes)", "time (s)"
        );
        let points = theta::calibrate(variant, &thetas, &env, &cluster, &task, &run_cfg);
        for p in &points {
            if !p.result.reached {
                println!(
                    "{:>7} did not converge within the step cap — beyond the workable range",
                    p.theta
                );
                continue;
            }
            println!(
                "{:>7} {:>7} {:>7} {:>13} {:>11.2}",
                p.theta, p.result.steps, p.result.syncs, p.result.comm_bytes, p.wall_time
            );
        }
        match theta::best_theta(&points) {
            Some(best) => println!("Θ* = {best}"),
            None => println!("no Θ in the sweep reached the target"),
        }
    }
    println!(
        "\nExpected shape (paper Fig. 8-12): communication falls as Θ rises,\n\
         computation rises mildly; the FL regime's Θ* is never smaller\n\
         than the HPC regime's."
    );
}
