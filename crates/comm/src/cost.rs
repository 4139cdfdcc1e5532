//! Wall-time cost models. The byte side — what one AllReduce charges a
//! worker — is [`crate::sim::per_worker_bytes`].

/// A deployment environment translating (bytes, steps) into wall-time.
///
/// Figure 12 derives Θ guidelines for three regimes; the constants below
/// give the same *relative* cost structure: HPC is bandwidth-rich (compute
/// dominates), FL is bandwidth-starved (communication dominates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Regime name.
    pub name: &'static str,
    /// Usable per-worker bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-message overhead in seconds (connection setup, latency).
    pub latency: f64,
    /// Wall-time of one local training step in seconds.
    pub step_time: f64,
}

impl Environment {
    /// Federated regime: a shared 0.5 Gbps channel (§4.3), high latency.
    pub fn fl() -> Environment {
        Environment {
            name: "FL",
            bandwidth: 0.5e9 / 8.0,
            latency: 20e-3,
            step_time: 5e-3,
        }
    }

    /// Balanced regime: communication and computation comparable.
    pub fn balanced() -> Environment {
        Environment {
            name: "Balanced",
            bandwidth: 5e9 / 8.0,
            latency: 2e-3,
            step_time: 5e-3,
        }
    }

    /// The paper's ARIS-HPC regime: InfiniBand FDR14 (~56 Gbps), compute
    /// dominates.
    pub fn hpc() -> Environment {
        Environment {
            name: "ARIS-HPC",
            bandwidth: 56e9 / 8.0,
            latency: 0.2e-3,
            step_time: 5e-3,
        }
    }

    /// All three regimes in Figure 12 order.
    pub fn all() -> [Environment; 3] {
        [
            Environment::fl(),
            Environment::balanced(),
            Environment::hpc(),
        ]
    }

    /// Estimated wall-time of a training run for one worker.
    pub fn wall_time(&self, per_worker_bytes: u64, steps: u64, messages: u64) -> f64 {
        steps as f64 * self.step_time
            + per_worker_bytes as f64 / self.bandwidth
            + messages as f64 * self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The charging convention lives in `sim`; its unit checks stay here
    // beside the cost model that prices the bytes.
    use crate::sim::per_worker_bytes;

    #[test]
    fn per_worker_payload_is_identity_for_multiworker() {
        assert_eq!(per_worker_bytes(1000, 8), 1000);
        assert_eq!(per_worker_bytes(1000, 2), 1000);
    }

    #[test]
    fn single_worker_costs_nothing() {
        assert_eq!(per_worker_bytes(12345, 1), 0);
    }

    #[test]
    fn fl_pays_more_for_bytes_than_hpc() {
        let bytes = 100_000_000u64;
        let t_fl = Environment::fl().wall_time(bytes, 0, 0);
        let t_hpc = Environment::hpc().wall_time(bytes, 0, 0);
        assert!(
            t_fl > 50.0 * t_hpc,
            "FL should be ≥ 2 orders slower per byte: {t_fl} vs {t_hpc}"
        );
    }

    #[test]
    fn wall_time_components_add() {
        let env = Environment {
            name: "t",
            bandwidth: 100.0,
            latency: 1.0,
            step_time: 2.0,
        };
        assert_eq!(env.wall_time(200, 3, 4), 3.0 * 2.0 + 2.0 + 4.0);
    }
}
