//! Baseline DDL algorithms the paper compares against.
//!
//! * [`Synchronous`] — BSP: AllReduce the models after **every** step
//!   (§4.1 footnote: "a special case of the FDA Algorithm 1 where Θ is set
//!   to zero", minus the monitoring traffic).
//! * [`LocalSgd`] — fixed-period averaging every τ steps (the Local-SGD
//!   family of §2 that FDA's dynamic schedule replaces).
//! * [`FedOpt`] — the FedAvg/FedAvgM/FedAdam family: `E` local epochs per
//!   round, then the server applies its optimizer to the pseudo-gradient
//!   `−Δ̄` (Reddi et al., as configured in §4.1).
//!
//! All baselines drive the same [`Cluster`] primitives as FDA
//! (`local_step`, `allreduce_models`, `load_global`), so with
//! [`ClusterConfig::parallel`] they run on the same persistent worker pool
//! — one rendezvous per phase, no per-step thread spawning — and remain
//! bit-identical to their sequential runs.

use crate::cluster::{Cluster, ClusterConfig};
use crate::strategy::{StepOutcome, Strategy};
use fda_data::TaskData;
use fda_optim::{Optimizer, OptimizerKind};
use fda_tensor::vector;

/// Bulk-synchronous training: synchronize after every step.
pub struct Synchronous {
    cluster: Cluster,
    syncs: u64,
}

impl Synchronous {
    /// Builds the strategy over a fresh cluster.
    pub fn new(cluster_config: ClusterConfig, task: &TaskData) -> Synchronous {
        Synchronous {
            cluster: Cluster::new(cluster_config, task),
            syncs: 0,
        }
    }
}

impl Strategy for Synchronous {
    fn name(&self) -> String {
        "Synchronous".to_string()
    }

    fn step(&mut self) -> StepOutcome {
        let stats = self.cluster.local_step();
        self.cluster.allreduce_models();
        self.syncs += 1;
        StepOutcome {
            stats,
            synced: true,
            variance_estimate: None,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Local-SGD with a fixed synchronization period τ.
pub struct LocalSgd {
    cluster: Cluster,
    tau: u64,
    since_sync: u64,
    syncs: u64,
}

impl LocalSgd {
    /// Builds Local-SGD(τ) over a fresh cluster.
    ///
    /// # Panics
    /// Panics if `tau == 0`.
    pub fn new(tau: u64, cluster_config: ClusterConfig, task: &TaskData) -> LocalSgd {
        assert!(tau >= 1, "local-sgd: τ must be positive");
        LocalSgd {
            cluster: Cluster::new(cluster_config, task),
            tau,
            since_sync: 0,
            syncs: 0,
        }
    }
}

impl Strategy for LocalSgd {
    fn name(&self) -> String {
        format!("LocalSGD(tau={})", self.tau)
    }

    fn step(&mut self) -> StepOutcome {
        let stats = self.cluster.local_step();
        self.since_sync += 1;
        let mut synced = false;
        if self.since_sync >= self.tau {
            self.cluster.allreduce_models();
            self.syncs += 1;
            self.since_sync = 0;
            synced = true;
        }
        StepOutcome {
            stats,
            synced,
            variance_estimate: None,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// The FedOpt family: `E` local epochs per round, server optimizer on the
/// averaged pseudo-gradient.
///
/// With server SGD(lr = 1) this is exactly FedAvg; with server SGD-M it is
/// FedAvgM; with server Adam it is FedAdam.
pub struct FedOpt {
    cluster: Cluster,
    display_name: &'static str,
    server_opt: Box<dyn Optimizer>,
    /// Global (server) model `w`.
    w_global: Vec<f32>,
    /// Steps between rounds: `E ×` steps-per-epoch.
    steps_per_round: u64,
    since_round: u64,
    syncs: u64,
}

impl FedOpt {
    /// Builds a FedOpt strategy.
    ///
    /// `local_epochs` is the paper's `E` (they use `E = 1`).
    ///
    /// # Panics
    /// Panics if `local_epochs == 0`.
    pub fn new(
        display_name: &'static str,
        server: OptimizerKind,
        local_epochs: u32,
        cluster_config: ClusterConfig,
        task: &TaskData,
    ) -> FedOpt {
        assert!(local_epochs >= 1, "fedopt: E must be positive");
        let cluster = Cluster::new(cluster_config, task);
        let dim = cluster.dim();
        let steps_per_round = local_epochs as u64 * cluster.steps_per_epoch() as u64;
        let w_global = cluster.worker(0).params();
        FedOpt {
            cluster,
            display_name,
            server_opt: server.build(dim),
            w_global,
            steps_per_round,
            since_round: 0,
            syncs: 0,
        }
    }

    /// FedAvgM as configured in the paper (§4.1).
    pub fn fedavgm(local_epochs: u32, cluster_config: ClusterConfig, task: &TaskData) -> FedOpt {
        FedOpt::new(
            "FedAvgM",
            OptimizerKind::fedavgm_server(),
            local_epochs,
            cluster_config,
            task,
        )
    }

    /// FedAdam as configured in the paper (§4.1).
    pub fn fedadam(local_epochs: u32, cluster_config: ClusterConfig, task: &TaskData) -> FedOpt {
        FedOpt::new(
            "FedAdam",
            OptimizerKind::fedadam_server(),
            local_epochs,
            cluster_config,
            task,
        )
    }

    /// Steps between rounds (E × steps-per-epoch).
    pub fn steps_per_round(&self) -> u64 {
        self.steps_per_round
    }

    fn round(&mut self) {
        // Δ̄ = mean_k(w_k) − w_global, gathered with one model AllReduce.
        let w_mean = self.cluster.allreduce_models();
        let mut pseudo_grad = self.w_global.clone();
        vector::sub_assign(&mut pseudo_grad, &w_mean); // −Δ̄
        self.server_opt.step(&mut self.w_global, &pseudo_grad);
        // Broadcast the server model to every worker (pooled when the
        // cluster is). In a real fabric the server step is computable by
        // every node (it is deterministic in Δ̄), so no extra traffic is
        // charged beyond the AllReduce — the convention used by the
        // paper's synchronous framing.
        self.cluster.load_global(&self.w_global);
        self.syncs += 1;
    }
}

impl Strategy for FedOpt {
    fn name(&self) -> String {
        self.display_name.to_string()
    }

    fn step(&mut self) -> StepOutcome {
        let stats = self.cluster.local_step();
        self.since_round += 1;
        let mut synced = false;
        if self.since_round >= self.steps_per_round {
            self.round();
            self.since_round = 0;
            synced = true;
        }
        StepOutcome {
            stats,
            synced,
            variance_estimate: None,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }

    fn global_params(&self) -> Vec<f32> {
        self.w_global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn synchronous_syncs_every_step_and_charges_models() {
        let task = tiny_task();
        let mut s = Synchronous::new(ClusterConfig::small_test(3), &task);
        for _ in 0..4 {
            let out = s.step();
            assert!(out.synced);
            assert!(s.cluster().models_identical());
        }
        let d = s.cluster().dim() as u64;
        assert_eq!(s.comm_bytes(), 4 * 3 * d * 4);
        assert_eq!(s.syncs(), 4);
    }

    #[test]
    fn local_sgd_period() {
        let task = tiny_task();
        let mut s = LocalSgd::new(5, ClusterConfig::small_test(2), &task);
        let mut syncs = Vec::new();
        for i in 1..=15u64 {
            let out = s.step();
            if out.synced {
                syncs.push(i);
            }
        }
        assert_eq!(syncs, vec![5, 10, 15]);
        let d = s.cluster().dim() as u64;
        assert_eq!(s.comm_bytes(), 3 * 2 * d * 4);
    }

    /// FedAvg: server SGD with lr 1.
    fn fedavg(task: &TaskData) -> FedOpt {
        let server = OptimizerKind::Sgd { lr: 1.0 };
        FedOpt::new("FedAvg", server, 1, ClusterConfig::small_test(2), task)
    }

    #[test]
    fn fedavg_round_equals_plain_averaging() {
        let task = tiny_task();
        let (mut s, mut twin) = (fedavg(&task), fedavg(&task));
        let spr = s.steps_per_round();
        assert!(spr >= 1);
        // Drive both to just before the round: models differ, global
        // unchanged. The twin then takes the round's local step by hand.
        for _ in 0..spr - 1 {
            s.step();
            twin.step();
        }
        let w_prev = s.global_params();
        twin.cluster_mut().local_step();
        let ps: Vec<Vec<f32>> = (0..2).map(|k| twin.cluster().worker(k).params()).collect();
        let refs: Vec<&[f32]> = ps.iter().map(|p| p.as_slice()).collect();
        let mut w_bar = vec![0.0f32; refs[0].len()];
        vector::mean_range_into(&refs, 0, w_bar.len(), &mut w_bar);

        let out = s.step(); // triggers the round
        assert!(out.synced);
        assert!(s.cluster().models_identical());
        let global = s.global_params();
        assert_eq!(global, s.cluster().worker(0).params());

        // The server applies SGD(lr = 1) to the pseudo-gradient w − w̄.
        let mut pseudo_grad = w_prev.clone();
        vector::sub_assign(&mut pseudo_grad, &w_bar);
        let mut want = w_prev.clone();
        OptimizerKind::Sgd { lr: 1.0 }
            .build(want.len())
            .step(&mut want, &pseudo_grad);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&global), bits(&want));
        // w − (w − w̄) is only approximately w̄: both subtractions round,
        // each by at most half an ulp of its operands' scale.
        for ((g, m), w) in global.iter().zip(&w_bar).zip(&w_prev) {
            let tol = 4.0 * f32::EPSILON * w.abs().max(m.abs());
            assert!((g - m).abs() <= tol, "{g} vs w̄ = {m} (w = {w})");
        }
    }

    #[test]
    fn fedopt_communicates_once_per_round() {
        let task = tiny_task();
        let mut s = FedOpt::fedadam(1, ClusterConfig::small_test(3), &task);
        let spr = s.steps_per_round();
        for _ in 0..2 * spr {
            s.step();
        }
        assert_eq!(s.syncs(), 2);
        let d = s.cluster().dim() as u64;
        assert_eq!(s.comm_bytes(), 2 * 3 * d * 4);
    }

    #[test]
    fn fedavgm_momentum_moves_beyond_average() {
        // After two rounds with consistent drift direction, the momentum
        // server should have moved the global model differently from plain
        // FedAvg given identical clusters (same seed).
        let task = tiny_task();
        let mut avg = fedavg(&task);
        let mut avgm = FedOpt::fedavgm(1, ClusterConfig::small_test(2), &task);
        for _ in 0..2 * avg.steps_per_round() {
            avg.step();
            avgm.step();
        }
        assert_ne!(avg.global_params(), avgm.global_params());
    }

    #[test]
    fn strategies_share_identical_computation_metric() {
        let task = tiny_task();
        let mut a = Synchronous::new(ClusterConfig::small_test(2), &task);
        let mut b = LocalSgd::new(3, ClusterConfig::small_test(2), &task);
        for _ in 0..6 {
            a.step();
            b.step();
        }
        assert_eq!(a.steps(), b.steps());
    }
}
