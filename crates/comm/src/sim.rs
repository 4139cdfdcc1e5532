//! In-process simulated cluster network with exact byte accounting.
//!
//! `SimNetwork` performs the *arithmetic* of AllReduce (element-wise mean
//! across worker buffers, result visible to all workers — §3 Notation) and
//! *charges* each worker its payload under the paper's convention,
//! [`per_worker_bytes`]. The simulation executes the identical numerics a
//! real fabric would, so byte counts are exact and results are
//! deterministic.

/// Bytes charged to **one** worker for an AllReduce of `payload_bytes`
/// across `k` workers: the paper's convention (§4.1), under which each
/// worker transmits its payload once, so a synchronization costs
/// `K · payload`. A single-worker cluster moves nothing.
///
/// # Panics
/// Panics if `k == 0`.
pub fn per_worker_bytes(payload_bytes: u64, k: usize) -> u64 {
    assert!(k >= 1, "accounting: k must be >= 1");
    if k == 1 {
        0
    } else {
        payload_bytes
    }
}

/// A simulated `K`-worker collective-communication fabric.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    k: usize,
    bytes: u64,
}

impl SimNetwork {
    /// Creates a fabric for `k` workers.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> SimNetwork {
        assert!(k >= 1, "network: need at least one worker");
        SimNetwork { k, bytes: 0 }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.k
    }

    /// AllReduce-average over one equal-length `f32` buffer per worker:
    /// every buffer is replaced by the element-wise mean.
    ///
    /// # Panics
    /// Panics if the number of buffers differs from `K` or lengths are
    /// ragged.
    pub fn allreduce_mean(&mut self, buffers: &mut [Vec<f32>]) {
        assert_eq!(buffers.len(), self.k, "allreduce: buffer count != K");
        let payload = buffers[0].len() as u64 * 4;
        let payloads = vec![payload; self.k];
        self.allreduce_mean_with(buffers, &payloads);
    }

    /// [`SimNetwork::allreduce_mean`] with per-worker payload sizes: the
    /// identical arithmetic, but worker `i` is charged for `payloads[i]`
    /// bytes instead of the dense `n·4`. This is the accounting shape of a
    /// content-dependent codec (top-k / drift-mask emit different byte
    /// counts per worker); callers roundtrip the buffers through the codec
    /// *before* this call so the averaged values match what a receiver
    /// reconstructs.
    ///
    /// # Panics
    /// Panics if buffer or payload counts differ from `K`, or buffer
    /// lengths are ragged.
    pub fn allreduce_mean_with(&mut self, buffers: &mut [Vec<f32>], payloads: &[u64]) {
        assert_eq!(payloads.len(), self.k, "allreduce: payload count != K");
        assert_eq!(buffers.len(), self.k, "allreduce: buffer count != K");
        let n = buffers[0].len();
        assert!(
            buffers.iter().all(|b| b.len() == n),
            "allreduce: ragged buffers"
        );
        let inv_k = 1.0 / self.k as f32;
        let (first, rest) = buffers.split_first_mut().expect("k >= 1");
        for b in rest.iter() {
            fda_tensor::vector::add_assign(first, b);
        }
        fda_tensor::vector::scale(first, inv_k);
        for b in rest.iter_mut() {
            b.copy_from_slice(first);
        }
        self.charge_per_worker(payloads);
    }

    /// Charges every worker for an AllReduce with the given payload,
    /// without performing arithmetic (used when the caller fuses payloads —
    /// e.g. FDA's state = sketch ‖ scalar — into one charge).
    pub fn charge_allreduce(&mut self, payload_bytes: u64) {
        self.bytes += self.k as u64 * per_worker_bytes(payload_bytes, self.k);
    }

    /// Charges worker `i` for an AllReduce participation with its own
    /// payload size `payloads[i]` — the accounting entry point for codecs
    /// whose emitted byte count is content-dependent and therefore varies
    /// per worker.
    ///
    /// # Panics
    /// Panics if `payloads.len() != K`.
    pub fn charge_per_worker(&mut self, payloads: &[u64]) {
        assert_eq!(payloads.len(), self.k, "charge: payload count != K");
        for &payload in payloads {
            self.bytes += per_worker_bytes(payload, self.k);
        }
    }

    /// Total bytes transmitted by all workers — the paper's communication
    /// metric.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_mean_averages_and_broadcasts() {
        let mut net = SimNetwork::new(3);
        let mut bufs = vec![vec![1.0f32, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]];
        net.allreduce_mean(&mut bufs);
        for b in &bufs {
            assert_eq!(b, &vec![2.0, 5.0]);
        }
    }

    #[test]
    fn bytes_charged_per_worker_payload() {
        let mut net = SimNetwork::new(4);
        let mut bufs = vec![vec![0.0f32; 100]; 4];
        net.allreduce_mean(&mut bufs);
        // 100 f32 = 400 bytes per worker, 4 workers.
        assert_eq!(net.total_bytes(), 1_600);
    }

    #[test]
    fn single_worker_free() {
        let mut net = SimNetwork::new(1);
        let mut bufs = vec![vec![7.0f32; 10]];
        net.allreduce_mean(&mut bufs);
        assert_eq!(bufs[0], vec![7.0f32; 10]);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn per_worker_payload_charging() {
        let mut net = SimNetwork::new(3);
        net.charge_per_worker(&[100, 0, 50]);
        assert_eq!(net.total_bytes(), 150);
        // k == 1 charges nothing under the paper convention.
        let mut solo = SimNetwork::new(1);
        solo.charge_per_worker(&[100]);
        assert_eq!(solo.total_bytes(), 0);
        // allreduce_mean_with does the same arithmetic as allreduce_mean
        // while charging the supplied per-worker payloads.
        let mut bufs = vec![vec![1.0f32, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]];
        let mut net2 = SimNetwork::new(3);
        net2.allreduce_mean_with(&mut bufs, &[8, 16, 24]);
        for b in &bufs {
            assert_eq!(b, &vec![2.0, 5.0]);
        }
        assert_eq!(net2.total_bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_buffers_panic() {
        let mut net = SimNetwork::new(2);
        let mut bufs = vec![vec![0.0f32; 3], vec![0.0f32; 4]];
        net.allreduce_mean(&mut bufs);
    }
}
