//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric and workload each one is expected to move. `BENCHMARK.json` at
//! the repo root repeats the first three columns; `tests/benchmark_contract.rs`
//! keeps the two in step.

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// baseline median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer (crate or module). `moves` names the end-to-end
/// metric a change to this number should show up in, `on` the workload
/// where it should — written down before measuring.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static str,
}

pub const WORKLOADS: [&str; 4] = [
    "sim-target-lenet",
    "tcp-sync-head",
    "tcp-fda-lenet",
    "sim-coded-head",
];

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One bound per metric, so each covers the noisiest workload and the
/// spread across seeds: three times the widest inter-quartile spread seen
/// over ten seeds, rounded up, at most the contract's 25 % (README, "Bounds").
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.15),
    e2e("time_to_target_s", "s", Lower, 0.25),
    e2e("bytes_to_target", "B", Lower, 0.25),
    e2e("steps_to_target", "steps", Lower, 0.25),
    e2e("bytes_vs_synchronous", "ratio", Lower, 0.20),
    e2e("charged_bytes_per_step", "B", Lower, 0.20),
    e2e("raw_over_charged", "ratio", Lower, 0.05),
    e2e("final_test_acc", "fraction", Higher, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const SIM: &str = "sim-target-lenet,sim-coded-head";
const TCP: &str = "tcp-sync-head,tcp-fda-lenet";
const ALL: &str = "all";

#[rustfmt::skip] // one metric per line
pub const PER_LAYER: [PerLayer; 72] = [
    // tensor
    layer("tensor.gemm_us", "us", Lower, "steps_per_s", "sim-target-lenet"),
    layer("tensor.gemm_gflops", "GF/s", Higher, "steps_per_s", "sim-target-lenet"),
    layer("tensor.vector_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    // nn
    layer("nn.forward_us", "us", Lower, "steps_per_s", "sim-target-lenet,tcp-fda-lenet"),
    layer("nn.backward_us", "us", Lower, "steps_per_s", "sim-target-lenet,tcp-fda-lenet"),
    layer("nn.eval_us", "us", Lower, "time_to_target_s", "sim-target-lenet"),
    // optim
    layer("optim.step_us", "us", Lower, "steps_per_s", "sim-target-lenet,sim-coded-head"),
    // data
    layer("data.sample_us", "us", Lower, "steps_per_s", ALL),
    layer("data.generate_ms", "ms", Lower, "setup_s", ALL),
    layer("data.partition_ms", "ms", Lower, "setup_s", ALL),
    // sketch
    layer("sketch.sketch_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("sketch.estimate_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("sketch.state_bytes", "B", Lower, "charged_bytes_per_step", "tcp-fda-lenet"),
    // core::monitor
    layer("core.monitor.local_state_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("core.monitor.estimate_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("core.monitor.overestimate_ratio", "ratio", Lower, "bytes_to_target", "sim-target-lenet"),
    layer("core.fda.sync_rate", "ratio", Lower, "bytes_to_target", "sim-target-lenet"),
    // core::cluster / core::fda
    layer("core.cluster.local_step_us", "us", Lower, "steps_per_s", SIM),
    layer("core.cluster.allreduce_us", "us", Lower, "steps_per_s", SIM),
    layer("core.cluster.allreduce_coded_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("core.fda.monitor_us", "us", Lower, "steps_per_s", SIM),
    layer("core.fda.allreduce_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("core.fda.step_us_p50", "us", Lower, "steps_per_s", SIM),
    layer("core.fda.step_us_p99", "us", Lower, "steps_per_s", SIM),
    layer("core.fda.step_samples", "count", Higher, "steps_per_s", SIM),
    layer("core.fda.attributed_frac", "fraction", Higher, "steps_per_s", SIM),
    layer("core.fda.unattributed_us", "us", Lower, "steps_per_s", SIM),
    // core::harness
    layer("core.harness.eval_us", "us", Lower, "time_to_target_s", "sim-target-lenet"),
    layer("core.harness.eval_share", "fraction", Lower, "time_to_target_s", "sim-target-lenet"),
    // core::pool (report only: no workload runs pooled)
    layer("core.pool.speedup_k2", "ratio", Higher, "none", "none"),
    // core::wire
    layer("core.wire.encode_state_us", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("core.wire.decode_state_us", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("core.wire.encode_vector_us", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("core.wire.decode_vector_us", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("core.wire.encode_job_us", "us", Lower, "setup_s", TCP),
    // comm
    layer("comm.codec.encode_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("comm.codec.decode_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("comm.codec.mb_per_s", "MB/s", Higher, "steps_per_s", "sim-coded-head"),
    layer("comm.codec.ratio", "ratio", Higher, "charged_bytes_per_step", "sim-coded-head,tcp-fda-lenet"),
    layer("comm.codec.decode_errors", "count", Lower, "final_test_acc", "sim-coded-head,tcp-fda-lenet"),
    layer("comm.delta_downlink_us", "us", Lower, "steps_per_s", "sim-coded-head"),
    layer("comm.sim.allreduce_mean_us", "us", Lower, "steps_per_s", SIM),
    // net::frame
    layer("net.frame.checksum_us.state", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.frame.checksum_us.model", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("net.frame.checksum_mb_per_s", "MB/s", Higher, "steps_per_s", "tcp-sync-head"),
    layer("net.frame.write_us.state", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.frame.write_us.model", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("net.frame.read_us.state", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.frame.read_us.model", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("net.frame.encode_us_per_round", "us", Lower, "steps_per_s", TCP),
    layer("net.frame.decode_us_per_round", "us", Lower, "steps_per_s", TCP),
    // net socket
    layer("net.socket.echo_us.state", "us", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.socket.echo_us.model", "us", Lower, "steps_per_s", "tcp-sync-head"),
    layer("net.socket.write_us_per_round", "us", Lower, "steps_per_s", TCP),
    layer("net.socket.read_wait_us_per_round", "us", Lower, "steps_per_s", TCP),
    // net::coordinator / net::worker
    layer("net.round_us", "us", Lower, "steps_per_s", TCP),
    layer("net.transport_us", "us", Lower, "steps_per_s", TCP),
    layer("net.transport_share", "fraction", Lower, "steps_per_s", TCP),
    layer("net.round.attributed_frac", "fraction", Higher, "steps_per_s", TCP),
    layer("net.round.unattributed_us", "us", Lower, "steps_per_s", TCP),
    layer("net.frames_per_round", "count", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.raw_bytes_per_round", "B", Lower, "raw_over_charged", TCP),
    layer("net.downlink_bytes_per_round", "B", Lower, "raw_over_charged", TCP),
    layer("net.coordinator.deposit_wait_us_p50", "us", Lower, "steps_per_s", TCP),
    layer("net.coordinator.deposit_wait_us_p99", "us", Lower, "steps_per_s", TCP),
    layer("net.coordinator.deposit_skew_us", "us", Lower, "steps_per_s", TCP),
    layer("net.coordinator.allocs_per_round", "count", Lower, "steps_per_s", "tcp-fda-lenet"),
    layer("net.coordinator.drops", "count", Lower, "final_test_acc", TCP),
    layer("net.worker.reconnects", "count", Lower, "final_test_acc", TCP),
    layer("net.setup.connect_ms", "ms", Lower, "setup_s", TCP),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower, "steps_per_s", ALL),
    layer("obs.jsonl_bytes_per_round", "B", Lower, "steps_per_s", ALL),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
