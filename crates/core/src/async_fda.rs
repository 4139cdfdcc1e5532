//! Asynchronous FDA (§3.3).
//!
//! The paper sketches an asynchronous mode: one node acts as *coordinator*,
//! workers push their small local states whenever they finish a step, and
//! the coordinator re-evaluates `H` over the **most recent state from each
//! worker** on every arrival. Synchronization is requested when the
//! estimate exceeds Θ. The benefit is straggler tolerance — fast workers
//! keep training while slow ones lag — not bandwidth (states are tiny
//! either way).
//!
//! This module reproduces that design as a virtual-time event simulation:
//! each worker has its own step duration; events are step completions; the
//! coordinator sees states in completion order. A synchronization is a
//! rendezvous: it happens at the moment the *last* worker finishes its
//! in-flight step (models cannot be averaged mid-step).

use crate::cluster::{Cluster, ClusterConfig};
use crate::fda::violates;
use crate::monitor::{LocalState, VarianceMonitor};
use fda_data::TaskData;
use fda_tensor::{vector, Rng};

/// Outcome of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncRunReport {
    /// Per-worker completed steps (heterogeneous by design).
    pub steps_per_worker: Vec<u64>,
    /// Number of synchronizations triggered by the coordinator.
    pub syncs: u64,
    /// Total bytes (states to coordinator + model AllReduces).
    pub comm_bytes: u64,
    /// Virtual time at the end of the run (seconds).
    pub virtual_time: f64,
    /// Final exact model variance (should be ≤ Θ-ish between syncs).
    pub final_variance: f32,
}

/// Coordinator-based asynchronous FDA.
pub struct AsyncFda {
    cluster: Cluster,
    monitor: Box<dyn VarianceMonitor>,
    theta: f32,
    /// Per-worker step durations in virtual seconds (stragglers = larger).
    step_times: Vec<f64>,
    w_sync: Vec<f32>,
    latest_states: Vec<Option<LocalState>>,
    /// The state of a zero drift, cached at construction: workers that have
    /// not reported since the last sync still hold `w_sync`, and their
    /// summary is the same for every monitor instant (a zero drift sketches
    /// to zeros and projects to zero), so the coordinator reuses this
    /// instead of allocating a `d`-sized zero vector per arrival.
    zero_state: LocalState,
    /// Reused drift scratch for the reporting worker.
    drift_buf: Vec<f32>,
    clock: Vec<f64>,
    steps: Vec<u64>,
    syncs: u64,
    state_bytes: u64,
    extra_bytes: u64,
}

impl AsyncFda {
    /// Builds the asynchronous runner.
    ///
    /// `straggler_spread` ≥ 0 scales the per-worker slowdowns: worker step
    /// times are `1 + spread·uᵢ` (virtual seconds) with `uᵢ ∈ [0, 1)`.
    pub fn new(
        monitor: Box<dyn VarianceMonitor>,
        theta: f32,
        straggler_spread: f64,
        cluster_config: ClusterConfig,
        task: &TaskData,
    ) -> AsyncFda {
        assert!(theta >= 0.0, "async fda: Θ must be non-negative");
        assert!(straggler_spread >= 0.0, "async fda: spread must be >= 0");
        let cluster = Cluster::new(cluster_config, task);
        let k = cluster.workers();
        let mut rng = Rng::new(cluster.config().seed ^ 0xA57C);
        let step_times: Vec<f64> = (0..k)
            .map(|_| 1.0 + straggler_spread * rng.uniform_f64())
            .collect();
        let w_sync = cluster.worker(0).params();
        let state_bytes = monitor.state_bytes();
        let zero_state = monitor.local_state(&vec![0.0; cluster.dim()]);
        let drift_buf = vec![0.0; cluster.dim()];
        AsyncFda {
            cluster,
            monitor,
            theta,
            step_times,
            w_sync,
            latest_states: vec![None; k],
            zero_state,
            drift_buf,
            clock: vec![0.0; k],
            steps: vec![0; k],
            syncs: 0,
            state_bytes,
            extra_bytes: 0,
        }
    }

    /// Runs until every worker has completed at least `min_steps` steps;
    /// returns the report.
    pub fn run(&mut self, min_steps: u64) -> AsyncRunReport {
        let k = self.cluster.workers();
        while self.steps.iter().any(|&s| s < min_steps) {
            // Next event: the worker whose in-flight step completes first.
            let worker = (0..k)
                .min_by(|&a, &b| {
                    let ta = self.clock[a] + self.step_times[a];
                    let tb = self.clock[b] + self.step_times[b];
                    ta.partial_cmp(&tb).expect("finite clocks")
                })
                .expect("k >= 1");
            self.complete_step(worker);
        }
        AsyncRunReport {
            steps_per_worker: self.steps.clone(),
            syncs: self.syncs,
            comm_bytes: self.comm_bytes(),
            virtual_time: self.clock.iter().cloned().fold(0.0f64, f64::max),
            final_variance: self.cluster.exact_variance(),
        }
    }

    /// Total communication: states pushed to the coordinator plus model
    /// synchronizations (tracked by the cluster fabric).
    pub fn comm_bytes(&self) -> u64 {
        self.cluster.comm_bytes() + self.extra_bytes
    }

    /// Synchronizations so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Per-worker completed steps (exposes straggler skew).
    pub fn steps_per_worker(&self) -> &[u64] {
        &self.steps
    }

    fn complete_step(&mut self, worker: usize) {
        // Advance only this worker: one gradient step on its own batch.
        self.step_one_worker(worker);
        self.clock[worker] += self.step_times[worker];
        self.steps[worker] += 1;

        // Push the local state to the coordinator (point-to-point, so the
        // cost is one state payload, not an AllReduce).
        self.cluster
            .worker(worker)
            .model()
            .copy_params_to(&mut self.drift_buf);
        vector::sub_assign(&mut self.drift_buf, &self.w_sync);
        let state = self.monitor.local_state(&self.drift_buf);
        self.latest_states[worker] = Some(state);
        self.extra_bytes += self.state_bytes;

        // Coordinator decision over the most recent states of all workers
        // (workers that have not reported yet count as zero drift — they
        // still hold w_sync, and the cached zero state stands in without
        // cloning or allocating).
        let k = self.cluster.workers();
        let states: Vec<&LocalState> = (0..k)
            .map(|i| self.latest_states[i].as_ref().unwrap_or(&self.zero_state))
            .collect();
        let estimate = self.monitor.estimate(&LocalState::average_refs(&states));
        if violates(estimate, self.theta) {
            // Rendezvous: everyone finishes the current in-flight step
            // (virtual clocks align to the latest worker), then AllReduce.
            let rendezvous = self.clock.iter().cloned().fold(0.0f64, f64::max);
            for c in &mut self.clock {
                *c = rendezvous;
            }
            let w_prev = std::mem::take(&mut self.w_sync);
            let w_new = self.cluster.allreduce_models();
            self.monitor.on_sync(&w_new, &w_prev);
            self.w_sync = w_new;
            self.latest_states.iter_mut().for_each(|s| *s = None);
            self.syncs += 1;
        }
    }

    /// One local training step for a single worker (the synchronous
    /// cluster steps all workers; here we need per-worker granularity).
    fn step_one_worker(&mut self, worker: usize) {
        self.cluster.single_worker_step(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::LinearMonitor;
    use fda_data::synth::SynthSpec;

    fn tiny_task() -> TaskData {
        SynthSpec {
            n_train: 200,
            n_test: 64,
            ..SynthSpec::synth_mnist()
        }
        .generate("tiny")
    }

    #[test]
    fn stragglers_produce_uneven_step_counts() {
        let task = tiny_task();
        let mut a = AsyncFda::new(
            Box::new(LinearMonitor::new()),
            1e9, // never sync: pure pacing test
            3.0, // heavy straggler spread
            ClusterConfig::small_test(4),
            &task,
        );
        let report = a.run(10);
        let min = *report.steps_per_worker.iter().min().unwrap();
        let max = *report.steps_per_worker.iter().max().unwrap();
        assert!(min >= 10);
        assert!(
            max > min,
            "fast workers should complete more steps: {:?}",
            report.steps_per_worker
        );
    }

    #[test]
    fn zero_spread_behaves_like_round_robin() {
        let task = tiny_task();
        let mut a = AsyncFda::new(
            Box::new(LinearMonitor::new()),
            1e9,
            0.0,
            ClusterConfig::small_test(3),
            &task,
        );
        let report = a.run(5);
        let min = *report.steps_per_worker.iter().min().unwrap();
        let max = *report.steps_per_worker.iter().max().unwrap();
        assert!(max - min <= 1, "equal speeds ⇒ near-equal progress");
    }

    #[test]
    fn syncs_happen_and_zero_variance_after() {
        let task = tiny_task();
        let mut a = AsyncFda::new(
            Box::new(LinearMonitor::new()),
            0.02,
            1.0,
            ClusterConfig::small_test(3),
            &task,
        );
        let report = a.run(15);
        assert!(report.syncs > 0, "tight Θ must trigger syncs");
        // comm = states + model payloads; must include both components.
        assert!(report.comm_bytes > report.syncs * 3);
    }
}
