//! Choosing the variance threshold Θ (§4.3, Figure 12).
//!
//! The paper's guidance: workable Θ values live in a range proportional to
//! the model dimension `d`, and the best point in that range depends on the
//! deployment — bandwidth-starved federated settings favour larger Θ
//! (fewer syncs), bandwidth-rich HPC favours smaller Θ (faster
//! convergence). Their empirical fits:
//!
//! ```text
//! Θ_FL  = 4.91e-5 · d      (0.5 Gbps shared channel)
//! Θ_B   = 3.89e-5 · d      (balanced)
//! Θ_HPC = 2.74e-5 · d      (ARIS InfiniBand)
//! ```
//!
//! Our substrate is a scaled simulator, so the absolute constants differ;
//! [`calibrate`] recomputes them by sweeping Θ and minimizing modelled
//! wall-time under each [`Environment`]. The *ordering*
//! `c_FL > c_B > c_HPC` is the shape the reproduction must preserve.

use crate::cluster::ClusterConfig;
use crate::fda::{Fda, FdaConfig, FdaVariant};
use crate::harness::{run_to_target, RunConfig, RunResult};
use fda_comm::Environment;
use fda_data::TaskData;

/// The paper's fitted slope for an environment name (Figure 12).
///
/// # Panics
/// Panics on an unknown environment name.
fn paper_slope(env_name: &str) -> f64 {
    match env_name {
        "FL" => 4.91e-5,
        "Balanced" => 3.89e-5,
        "ARIS-HPC" => 2.74e-5,
        other => panic!("no paper slope for environment {other}"),
    }
}

/// The paper's Θ guideline for a model with `d` parameters.
pub fn paper_theta(env: &Environment, d: usize) -> f64 {
    paper_slope(env.name) * d as f64
}

/// Result of one Θ calibration point.
#[derive(Debug, Clone)]
pub struct ThetaPoint {
    /// The threshold swept.
    pub theta: f32,
    /// The training run at that threshold.
    pub result: RunResult,
    /// Modelled wall-time under the calibration environment (seconds).
    pub wall_time: f64,
}

/// Sweeps Θ for one FDA variant over fresh clusters built from `cluster`
/// and returns the per-Θ outcomes with modelled wall-times; the minimizer
/// is the environment's workable Θ*.
///
/// Runs that fail to reach the target get infinite wall-time (the paper
/// notes Θ beyond the workable range leads to non-convergence).
pub fn calibrate(
    variant: FdaVariant,
    thetas: &[f32],
    env: &Environment,
    cluster: &ClusterConfig,
    task: &TaskData,
    run_cfg: &RunConfig,
) -> Vec<ThetaPoint> {
    let k = cluster.workers as u64;
    let mut out = Vec::with_capacity(thetas.len());
    for &theta in thetas {
        let mut fda = Fda::new(FdaConfig { variant, theta }, cluster.clone(), task);
        let result = run_to_target(&mut fda, task, run_cfg);
        let per_worker_bytes = result.comm_bytes / k;
        let messages = result.steps + result.syncs; // state + model rounds
        let wall_time = if result.reached {
            env.wall_time(per_worker_bytes, result.steps, messages)
        } else {
            f64::INFINITY
        };
        out.push(ThetaPoint {
            theta,
            result,
            wall_time,
        });
    }
    out
}

/// The Θ with minimal modelled wall-time among reached runs, if any.
pub fn best_theta(points: &[ThetaPoint]) -> Option<f32> {
    points
        .iter()
        .filter(|p| p.wall_time.is_finite())
        .min_by(|a, b| a.wall_time.partial_cmp(&b.wall_time).expect("no NaN"))
        .map(|p| p.theta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slopes_ordered_fl_highest() {
        let fl = paper_slope("FL");
        let b = paper_slope("Balanced");
        let hpc = paper_slope("ARIS-HPC");
        assert!(fl > b && b > hpc, "paper ordering c_FL > c_B > c_HPC");
    }

    #[test]
    fn paper_theta_scales_linearly_in_d() {
        let env = Environment::fl();
        assert!((paper_theta(&env, 2_000_000) / paper_theta(&env, 1_000_000) - 2.0).abs() < 1e-9);
        // Spot value from the paper: Θ_FL for DenseNet201 (18M) ≈ 884.
        let theta = paper_theta(&env, 18_000_000);
        assert!((theta - 883.8).abs() < 1.0, "got {theta}");
    }

    #[test]
    #[should_panic(expected = "no paper slope")]
    fn unknown_environment_panics() {
        let _ = paper_slope("moon-base");
    }

    #[test]
    fn best_theta_ignores_unreached() {
        use crate::harness::RunResult;
        let mk = |theta: f32, reached: bool, wall: f64| ThetaPoint {
            theta,
            wall_time: if reached { wall } else { f64::INFINITY },
            result: RunResult {
                strategy: "t".into(),
                reached,
                steps: 0,
                comm_bytes: 0,
                syncs: 0,
                best_test_acc: 0.0,
                trace: vec![],
            },
        };
        let points = vec![
            mk(0.1, true, 10.0),
            mk(1.0, true, 5.0),
            mk(10.0, false, 0.0),
        ];
        assert_eq!(best_theta(&points), Some(1.0));
        assert_eq!(best_theta(&[mk(1.0, false, 0.0)]), None);
    }
}
