//! Baseline DDL algorithms the paper compares against, as sync policies of
//! the one round engine ([`crate::round::Server`]) driven by [`Fda`]:
//!
//! * [`Fda::synchronous`] — BSP: AllReduce the models after **every** step
//!   (§4.1 footnote: "a special case of the FDA Algorithm 1 where Θ is set
//!   to zero", minus the monitoring traffic).
//! * [`Fda::local_sgd`] — fixed-period averaging every τ steps (the
//!   Local-SGD family of §2 that FDA's dynamic schedule replaces).
//! * [`Fda::fedopt`] — the FedAvg/FedAvgM/FedAdam family: `E` local epochs
//!   per round, then the server applies its optimizer to the
//!   pseudo-gradient `−Δ̄` (Reddi et al., as configured in §4.1).
//!
//! A baseline's rounds are FDA's without steps 2–3: no local states, no
//! state traffic, and the model AllReduce on a fixed schedule. They run on
//! the same [`Cluster`] primitives, so with [`ClusterConfig::parallel`]
//! they use the same persistent worker pool and remain bit-identical to
//! their sequential runs, and they write the same telemetry.

use crate::cluster::{Cluster, ClusterConfig};
use crate::fda::Fda;
use crate::round::Server;
use fda_data::TaskData;
use fda_optim::{Optimizer, OptimizerKind};

impl Fda {
    /// Bulk-synchronous training: synchronize after every step.
    pub fn synchronous(cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        let cluster = Cluster::new(cluster_config, task);
        periodic("Synchronous".to_string(), 1, None, cluster)
    }

    /// Local-SGD with a fixed synchronization period τ.
    ///
    /// # Panics
    /// Panics if `tau == 0`.
    pub fn local_sgd(tau: u64, cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        assert!(tau >= 1, "local-sgd: τ must be positive");
        let cluster = Cluster::new(cluster_config, task);
        periodic(format!("LocalSGD(tau={tau})"), tau, None, cluster)
    }

    /// The FedOpt family: `local_epochs` (the paper's `E`; they use
    /// `E = 1`) epochs of local steps per round, then the `server`
    /// optimizer on the averaged pseudo-gradient. With server SGD(lr = 1)
    /// this is exactly FedAvg; with server SGD-M it is FedAvgM; with
    /// server Adam it is FedAdam.
    ///
    /// A round is charged one model AllReduce. The server step is
    /// deterministic in `Δ̄`, so every node of a real fabric can compute
    /// it: no broadcast is charged, the convention of the paper's
    /// synchronous framing.
    ///
    /// # Panics
    /// Panics if `local_epochs == 0`.
    pub fn fedopt(
        display_name: &str,
        server: OptimizerKind,
        local_epochs: u32,
        cluster_config: ClusterConfig,
        task: &TaskData,
    ) -> Fda {
        assert!(local_epochs >= 1, "fedopt: E must be positive");
        let cluster = Cluster::new(cluster_config, task);
        let period = u64::from(local_epochs) * cluster.steps_per_epoch() as u64;
        let server = Some(server.build(cluster.dim()));
        periodic(display_name.to_string(), period, server, cluster)
    }

    /// FedAvgM as configured in the paper (§4.1).
    pub fn fedavgm(local_epochs: u32, cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        let server = OptimizerKind::fedavgm_server();
        Fda::fedopt("FedAvgM", server, local_epochs, cluster_config, task)
    }

    /// FedAdam as configured in the paper (§4.1).
    pub fn fedadam(local_epochs: u32, cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        let server = OptimizerKind::fedadam_server();
        Fda::fedopt("FedAdam", server, local_epochs, cluster_config, task)
    }
}

/// `name` over `cluster`, synchronizing every `period` steps.
fn periodic(
    name: String,
    period: u64,
    server_opt: Option<Box<dyn Optimizer>>,
    cluster: Cluster,
) -> Fda {
    let server = Server::periodic(period, server_opt, cluster.worker(0).params());
    Fda::with_server(name, cluster, server)
}

/// The name `fda_bench` builds the Synchronous baseline by.
pub struct Synchronous;

impl Synchronous {
    /// [`Fda::synchronous`].
    #[expect(clippy::new_ret_no_self, reason = "fda_bench links Synchronous::new")]
    pub fn new(cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        Fda::synchronous(cluster_config, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use fda_data::synth::SynthSpec;
    use fda_tensor::vector;

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
        let mut s = Fda::synchronous(ClusterConfig::small_test(3), &task);
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
        let mut s = Fda::local_sgd(5, ClusterConfig::small_test(2), &task);
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
    fn fedavg(task: &TaskData) -> Fda {
        let server = OptimizerKind::Sgd { lr: 1.0 };
        Fda::fedopt("FedAvg", server, 1, ClusterConfig::small_test(2), task)
    }

    /// Steps between FedOpt rounds at `E = 1`.
    fn steps_per_round(s: &Fda) -> u64 {
        s.cluster().steps_per_epoch() as u64
    }

    #[test]
    fn fedavg_round_equals_plain_averaging() {
        let task = tiny_task();
        let (mut s, mut twin) = (fedavg(&task), fedavg(&task));
        let spr = steps_per_round(&s);
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
        let mut s = Fda::fedadam(1, ClusterConfig::small_test(3), &task);
        let spr = steps_per_round(&s);
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
        let mut avgm = Fda::fedavgm(1, ClusterConfig::small_test(2), &task);
        for _ in 0..2 * steps_per_round(&avg) {
            avg.step();
            avgm.step();
        }
        assert_ne!(avg.global_params(), avgm.global_params());
    }

    /// The baselines as hand-written loops over the [`Cluster`] primitives:
    /// a local step, then every `period` steps a model AllReduce or, with a
    /// server optimizer, the pseudo-gradient `w − w̄`, one optimizer step on
    /// the server model `w` and `load_global(w)`.
    struct Reference {
        cluster: Cluster,
        period: u64,
        since: u64,
        syncs: u64,
        server: Option<(Box<dyn Optimizer>, Vec<f32>)>,
    }

    impl Reference {
        fn new(period: u64, server: Option<OptimizerKind>, cluster: Cluster) -> Reference {
            let server = server.map(|kind| (kind.build(cluster.dim()), cluster.worker(0).params()));
            Reference {
                cluster,
                period,
                since: 0,
                syncs: 0,
                server,
            }
        }

        fn step(&mut self) -> bool {
            self.cluster.local_step();
            self.since += 1;
            if self.since < self.period {
                return false;
            }
            self.since = 0;
            self.syncs += 1;
            let mean = self.cluster.allreduce_models();
            if let Some((opt, w)) = &mut self.server {
                let mut pseudo_grad = w.clone();
                vector::sub_assign(&mut pseudo_grad, &mean);
                opt.step(w, &pseudo_grad);
                self.cluster.load_global(w);
            }
            true
        }

        fn global_params(&self) -> Vec<f32> {
            match &self.server {
                Some((_, w)) => w.clone(),
                None => self.cluster.average_params(),
            }
        }
    }

    /// Every baseline against its [`Reference`], bit for bit at every step
    /// — each worker's parameters, the charged bytes, the sync count and
    /// flag, and the evaluated model — for K ∈ {1, 2, 4}, sequential and
    /// pooled, over two FedOpt rounds and a step into the third.
    #[test]
    fn baselines_match_the_cluster_reference_bit_for_bit() {
        let task = tiny_task();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let sgd1 = OptimizerKind::Sgd { lr: 1.0 };
        for k in [1, 2, 4] {
            for parallel in [false, true] {
                let cc = ClusterConfig {
                    parallel,
                    ..ClusterConfig::small_test(k)
                };
                let epoch = Cluster::new(cc.clone(), &task).steps_per_epoch() as u64;
                let cases = [
                    (Fda::synchronous(cc.clone(), &task), 1, None),
                    (Fda::local_sgd(3, cc.clone(), &task), 3, None),
                    (
                        Fda::fedopt("FedAvg", sgd1, 1, cc.clone(), &task),
                        epoch,
                        Some(sgd1),
                    ),
                    (
                        Fda::fedavgm(1, cc.clone(), &task),
                        epoch,
                        Some(OptimizerKind::fedavgm_server()),
                    ),
                    (
                        Fda::fedadam(1, cc.clone(), &task),
                        epoch,
                        Some(OptimizerKind::fedadam_server()),
                    ),
                ];
                for (mut subject, period, server) in cases {
                    let mut reference =
                        Reference::new(period, server, Cluster::new(cc.clone(), &task));
                    for step in 1..=2 * epoch + 1 {
                        let case = (subject.name(), k, parallel, step);
                        assert_eq!(subject.step().synced, reference.step(), "{case:?}");
                        for w in 0..k {
                            assert_eq!(
                                bits(&subject.cluster().worker(w).params()),
                                bits(&reference.cluster.worker(w).params()),
                                "{case:?}: worker {w}"
                            );
                        }
                        assert_eq!(
                            subject.comm_bytes(),
                            reference.cluster.comm_bytes(),
                            "{case:?}"
                        );
                        assert_eq!(subject.syncs(), reference.syncs, "{case:?}");
                        assert_eq!(
                            bits(&subject.global_params()),
                            bits(&reference.global_params()),
                            "{case:?}: global model"
                        );
                    }
                    assert!(reference.syncs >= 2, "{k}: two rounds at least");
                }
            }
        }
    }

    #[test]
    fn strategies_share_identical_computation_metric() {
        let task = tiny_task();
        let mut a = Fda::synchronous(ClusterConfig::small_test(2), &task);
        let mut b = Fda::local_sgd(3, ClusterConfig::small_test(2), &task);
        for _ in 0..6 {
            a.step();
            b.step();
        }
        assert_eq!(a.steps(), b.steps());
    }
}
