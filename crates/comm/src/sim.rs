//! In-process simulated cluster network with exact byte accounting.
//!
//! `SimNetwork` performs the *arithmetic* of AllReduce (element-wise mean
//! across worker buffers, result visible to all workers — §3 Notation) and
//! *charges* each worker the bytes the chosen [`AccountingMode`] dictates.
//! The simulation executes the identical numerics a real fabric would, so
//! byte counts are exact and results are deterministic.

use crate::cost::AccountingMode;

/// Per-worker traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes transmitted by this worker.
    pub bytes: u64,
    /// AllReduce operations this worker participated in.
    pub messages: u64,
}

/// A simulated `K`-worker collective-communication fabric.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    k: usize,
    mode: AccountingMode,
    per_worker: Vec<TrafficStats>,
}

impl SimNetwork {
    /// Creates a fabric for `k` workers with the paper's per-worker-payload
    /// accounting.
    pub fn new(k: usize) -> SimNetwork {
        SimNetwork::with_mode(k, AccountingMode::PerWorkerPayload)
    }

    /// Creates a fabric with an explicit accounting mode.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_mode(k: usize, mode: AccountingMode) -> SimNetwork {
        assert!(k >= 1, "network: need at least one worker");
        SimNetwork {
            k,
            mode,
            per_worker: vec![TrafficStats::default(); k],
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.k
    }

    /// The configured accounting mode.
    pub fn mode(&self) -> AccountingMode {
        self.mode
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

    /// AllReduce-average over one scalar per worker; returns the mean and
    /// stores it back into every slot.
    pub fn allreduce_scalar(&mut self, values: &mut [f32]) -> f32 {
        assert_eq!(values.len(), self.k, "allreduce: scalar count != K");
        let mean = values.iter().sum::<f32>() / self.k as f32;
        values.iter_mut().for_each(|v| *v = mean);
        self.charge_all(4);
        mean
    }

    /// Charges every worker for an AllReduce with the given payload,
    /// without performing arithmetic (used when the caller fuses payloads —
    /// e.g. FDA's state = sketch ‖ scalar — but wants one traffic entry).
    pub fn charge_allreduce(&mut self, payload_bytes: u64) {
        self.charge_all(payload_bytes);
    }

    fn charge_all(&mut self, payload_bytes: u64) {
        let per = self.mode.per_worker_bytes(payload_bytes, self.k);
        for s in &mut self.per_worker {
            s.bytes += per;
            s.messages += 1;
        }
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
        for (s, &payload) in self.per_worker.iter_mut().zip(payloads) {
            s.bytes += self.mode.per_worker_bytes(payload, self.k);
            s.messages += 1;
        }
    }

    /// Total bytes transmitted by all workers — the paper's communication
    /// metric.
    pub fn total_bytes(&self) -> u64 {
        self.per_worker.iter().map(|s| s.bytes).sum()
    }

    /// Total AllReduce participations summed over workers.
    pub fn total_messages(&self) -> u64 {
        self.per_worker.iter().map(|s| s.messages).sum()
    }

    /// Traffic of a single worker.
    pub fn worker_stats(&self, k: usize) -> &TrafficStats {
        &self.per_worker[k]
    }

    /// Resets the counters.
    pub fn reset(&mut self) {
        self.per_worker = vec![TrafficStats::default(); self.k];
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
        assert_eq!(net.total_messages(), 4);
        assert_eq!(net.worker_stats(2).bytes, 400);
    }

    #[test]
    fn ring_mode_charges_less_per_worker() {
        let mut a = SimNetwork::with_mode(8, AccountingMode::PerWorkerPayload);
        let mut b = SimNetwork::with_mode(8, AccountingMode::RingAllReduce);
        let mut bufs_a = vec![vec![0.0f32; 1000]; 8];
        let mut bufs_b = bufs_a.clone();
        a.allreduce_mean(&mut bufs_a);
        b.allreduce_mean(&mut bufs_b);
        // Ring: 2·7/8 = 1.75× < 2× but per-worker-payload charges 1×...
        // actually ring charges MORE per worker here (1.75×·payload versus
        // 1×·payload): what matters is both are exact for their convention.
        assert_eq!(a.worker_stats(0).bytes, 4_000);
        assert_eq!(b.worker_stats(0).bytes, 7_000);
    }

    #[test]
    fn scalar_allreduce() {
        let mut net = SimNetwork::new(5);
        let mut vals = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let mean = net.allreduce_scalar(&mut vals);
        assert_eq!(mean, 3.0);
        assert!(vals.iter().all(|&v| v == 3.0));
        assert_eq!(net.total_bytes(), 5 * 4);
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
    fn reset_clears_counters() {
        let mut net = SimNetwork::new(2);
        net.charge_allreduce(1000);
        assert!(net.total_bytes() > 0);
        net.reset();
        assert_eq!(net.total_bytes(), 0);
        assert_eq!(net.total_messages(), 0);
    }

    #[test]
    fn per_worker_payload_charging() {
        let mut net = SimNetwork::new(3);
        net.charge_per_worker(&[100, 0, 50]);
        assert_eq!(net.worker_stats(0).bytes, 100);
        assert_eq!(net.worker_stats(1).bytes, 0);
        assert_eq!(net.worker_stats(2).bytes, 50);
        assert_eq!(net.total_messages(), 3);
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
