//! Quickstart: train one model with FDA and compare against Synchronous.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This is the five-minute tour of the public API: build a task, configure
//! a cluster, pick a strategy, run to an accuracy target, read the two
//! costs the paper reports (communication bytes, in-parallel steps).

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig};
use fda::core::harness::{run_to_target, RunConfig};
use fda::core::strategy::Strategy;
use fda::data::synth;
use fda::data::Partition;
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;

fn main() {
    // 1. A task: the MNIST stand-in (synthetic; see DESIGN.md §4).
    let task = synth::synth_mnist();

    // 2. A cluster: K = 6 workers, LeNet-5 analogue, IID shards, Adam.
    let cluster = ClusterConfig {
        model: ModelId::Lenet5,
        workers: 6,
        batch_size: 32,
        optimizer: OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed: 42,
        parallel: false,
    };

    // 3. The stopping rule: run until 90% test accuracy (or 3000 steps).
    let run = RunConfig::to_target(0.90, 3_000);

    // 4a. FDA (Linear variant) with a variance threshold Θ.
    let mut fda = Fda::new(FdaConfig::linear(0.5), cluster.clone(), &task);
    let fda_result = run_to_target(&mut fda, &task, &run);

    // 4b. The Synchronous baseline (sync after every step).
    let mut sync = Fda::synchronous(cluster, &task);
    let sync_result = run_to_target(&mut sync, &task, &run);

    // 5. Compare.
    println!("target test accuracy: 0.90 on {}", task.name);
    for r in [&fda_result, &sync_result] {
        println!(
            "  {:<12} reached={} steps={:>5} syncs={:>5} comm={:>12} bytes",
            r.strategy, r.reached, r.steps, r.syncs, r.comm_bytes
        );
    }
    let savings = sync_result.comm_bytes as f64 / fda_result.comm_bytes.max(1) as f64;
    println!(
        "\nFDA transmitted {savings:.1}x less data than Synchronous \
         (paper reports 1-2 orders of magnitude at scale)."
    );
    assert!(fda.syncs() <= sync.syncs());
}
