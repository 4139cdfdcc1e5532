//! The simulated worker cluster.
//!
//! A [`Cluster`] holds `K` workers — each with its own model replica,
//! optimizer state and data-shard sampler — plus the byte-accounted
//! network. Every strategy in this crate (FDA and all baselines) drives the
//! same cluster API, so their communication/computation costs are measured
//! on identical footing.

use crate::pool::{SendPtr, WorkerPool};
use fda_comm::SimNetwork;
use fda_data::batch::BatchSampler;
use fda_data::{Dataset, Partition, TaskData};
use fda_nn::zoo::ModelId;
use fda_nn::Sequential;
use fda_optim::{Optimizer, OptimizerKind};
use fda_tensor::Rng;
use std::sync::Arc;

/// Configuration of a cluster: who trains what, on which data, how split.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Which zoo model every worker replicates.
    pub model: ModelId,
    /// Number of workers `K`.
    pub workers: usize,
    /// Mini-batch size `b` (paper uses 32 everywhere).
    pub batch_size: usize,
    /// Local optimizer (the paper's `Optimize(w, B)`).
    pub optimizer: OptimizerKind,
    /// Data-heterogeneity scheme.
    pub partition: Partition,
    /// Master seed: controls init, shard split and batch order.
    pub seed: u64,
    /// Run the cluster phases on a persistent [`WorkerPool`].
    ///
    /// The pool is spawned **once** when the cluster is built (`K` lanes:
    /// `K − 1` long-lived OS threads plus the dispatching thread) and every
    /// step thereafter is a rendezvous — publish the phase job, run it on
    /// all lanes, block until the last lane finishes. No per-step thread
    /// spawning. The pool serves the local-step phase, the FDA drift/
    /// monitor-state phase, the chunked state reduction and the full-model
    /// AllReduce; the pool threads are joined when the cluster drops.
    ///
    /// Workers are independent between AllReduce points, every source of
    /// randomness is a per-worker stream, and all cross-worker reductions
    /// use a fixed worker-order association (chunk-parallel over the
    /// vector dimension, never over workers), so the pooled runtime is
    /// **bit-identical** to the sequential one — models, statistics, and
    /// therefore every synchronization decision. Keep `false` for the
    /// deterministic-by-construction single-thread path used as the
    /// bit-exactness reference, or on single-core hosts where the
    /// rendezvous adds (small, spawn-free) overhead.
    pub parallel: bool,
}

impl ClusterConfig {
    /// A small, fast configuration used by tests and examples.
    pub fn small_test(workers: usize) -> ClusterConfig {
        ClusterConfig {
            model: ModelId::Lenet5,
            workers,
            batch_size: 16,
            optimizer: OptimizerKind::paper_adam(),
            partition: Partition::Iid,
            seed: 7,
            parallel: false,
        }
    }

    /// Builds worker `k` of this configuration **standalone** — the exact
    /// replica (model init, `w_0`, dropout stream, shard, batch order,
    /// optimizer state) that [`Cluster::new`] would hold at index `k`.
    ///
    /// This is the construction a distributed driver uses: each OS process
    /// builds only its own worker from the shared config, and because
    /// every stream is derived deterministically from `self.seed` and `k`,
    /// a K-process deployment is bit-identical to the K-worker simulator.
    ///
    /// # Panics
    /// Panics if `k >= self.workers` or on model/dataset dimension
    /// mismatch.
    pub fn build_worker(&self, train: &Dataset, k: usize) -> Worker {
        assert!(
            k < self.workers,
            "build_worker: index {k} out of range for K = {}",
            self.workers
        );
        let shards = self
            .partition
            .shards(train, self.workers, self.seed ^ 0x5AAD);
        let template = self.model.build(self.seed, 0);
        assert_eq!(
            template.in_dim(),
            train.dim(),
            "cluster: model input ({}) != dataset dim ({})",
            template.in_dim(),
            train.dim()
        );
        let dim = template.param_count();
        let w0 = template.params_flat();
        make_worker(self, shards.into_iter().nth(k).expect("k < K"), k, &w0, dim)
    }
}

/// Builds one worker from its shard — shared by [`Cluster::new`] (which
/// maps it over all shards) and [`ClusterConfig::build_worker`] (which
/// builds a single worker for an out-of-process driver). All randomness is
/// a deterministic function of `(config.seed, k)`.
fn make_worker(
    config: &ClusterConfig,
    shard: Vec<usize>,
    k: usize,
    w0: &[f32],
    dim: usize,
) -> Worker {
    // Each worker gets its own dropout stream but the same w0.
    let mut model = config
        .model
        .build(config.seed, config.seed ^ (k as u64 + 1));
    model.load_params(w0);
    let sampler = BatchSampler::new(
        shard,
        config.batch_size,
        Rng::new(config.seed ^ 0xBA7C4).split(k as u64),
    );
    Worker {
        model,
        optimizer: config.optimizer.build(dim),
        sampler,
        params_buf: vec![0.0; dim],
        grads_buf: vec![0.0; dim],
    }
}

/// One worker: model replica + optimizer + shard sampler + scratch buffers.
pub struct Worker {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    sampler: BatchSampler,
    // Scratch to avoid per-step allocation of two d-sized vectors.
    params_buf: Vec<f32>,
    grads_buf: Vec<f32>,
}

impl Worker {
    /// The worker's model (mutable; used for evaluation plumbing).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Immutable model access.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mini-batch steps in one epoch of this worker's shard.
    pub fn batches_per_epoch(&self) -> usize {
        self.sampler.batches_per_epoch()
    }

    /// Flat parameters of this worker's model.
    pub fn params(&self) -> Vec<f32> {
        self.model.params_flat()
    }

    /// One local training step for this worker: sample, backprop, optimize.
    /// Returns `(batch loss, #correct, #samples)`.
    ///
    /// The batch is gathered directly in the model's native activation
    /// layout (channel-major for convolutional models) and handed over by
    /// value, so the hot path performs no layout conversion and no input
    /// clone. Sampling order and values are identical to the sample-major
    /// path, so this is trajectory-preserving.
    ///
    /// Public so out-of-process drivers (the `fda_net` worker loop) run
    /// the *same* training code path as the simulator — any divergence
    /// would break their bit-identity proofs.
    pub fn step_once(&mut self, dataset: &Dataset) -> (f32, usize, usize) {
        let channels = self.model.input_shape().map(|s| s.c);
        let (x, y) = self.sampler.sample_native(dataset, channels);
        let (loss, correct) = self.model.compute_gradients_native(x, &y);
        self.model.copy_params_to(&mut self.params_buf);
        self.model.copy_grads_to(&mut self.grads_buf);
        self.optimizer.step(&mut self.params_buf, &self.grads_buf);
        self.model.load_params(&self.params_buf);
        (loss, correct, y.len())
    }
}

/// Per-step training telemetry summed across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Mean (across workers) of the mini-batch training loss.
    pub mean_loss: f32,
    /// Mini-batch training accuracy pooled across workers.
    pub batch_accuracy: f32,
}

/// `K` workers and the fabric that connects them.
pub struct Cluster {
    config: ClusterConfig,
    dataset: Arc<Dataset>,
    workers: Vec<Worker>,
    net: SimNetwork,
    dim: usize,
    steps: u64,
    /// The persistent rendezvous pool (`Some` iff `config.parallel` and
    /// `K > 1`); spawned once here, joined on drop.
    pool: Option<WorkerPool>,
    /// Pool-owned per-worker `(loss, correct, samples)` results, reused
    /// every step (no per-step allocation).
    step_results: Vec<(f32, usize, usize)>,
    /// Round-persistent scratch of the sequential model AllReduce: one
    /// encoded upload at a time, the per-worker charged sizes, and the
    /// slots the workers' parameter buffers are lent to for the reduce.
    coded: CodedScratch,
}

/// Scratch of the sequential model reduces, kept across rounds so a sync
/// allocates nothing `d`-sized in steady state.
#[derive(Default)]
struct CodedScratch {
    enc: Vec<u8>,
    payloads: Vec<u64>,
    bufs: Vec<Vec<f32>>,
}

impl Cluster {
    /// Builds the cluster: replicate the model (`w_0` identical everywhere,
    /// Algorithm 1 line 1), partition the training set, seed per-worker
    /// batch streams.
    ///
    /// # Panics
    /// Panics on inconsistent configs (e.g. dataset/model dim mismatch).
    pub fn new(config: ClusterConfig, task: &TaskData) -> Cluster {
        let dataset = Arc::new(task.train.clone());
        let shards = config
            .partition
            .shards(&dataset, config.workers, config.seed ^ 0x5AAD);
        let template = config.model.build(config.seed, 0);
        assert_eq!(
            template.in_dim(),
            dataset.dim(),
            "cluster: model input ({}) != dataset dim ({})",
            template.in_dim(),
            dataset.dim()
        );
        let dim = template.param_count();
        let w0 = template.params_flat();
        let workers: Vec<Worker> = shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| make_worker(&config, shard, k, &w0, dim))
            .collect();
        let pool = (config.parallel && config.workers > 1).then(|| WorkerPool::new(config.workers));
        Cluster {
            net: SimNetwork::new(config.workers),
            step_results: vec![(0.0, 0, 0); config.workers],
            coded: CodedScratch::default(),
            pool,
            config,
            dataset,
            workers,
            dim,
            steps: 0,
        }
    }

    /// The persistent pool (if the cluster runs pooled) together with the
    /// worker slice — split borrows for strategies (FDA's monitor phase)
    /// that dispatch their own per-worker jobs.
    pub(crate) fn pool_and_workers(&mut self) -> (Option<&mut WorkerPool>, &mut [Worker]) {
        (self.pool.as_mut(), &mut self.workers)
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of workers `K`.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// In-parallel learning steps performed so far (the paper's
    /// computation metric: steps per worker, not multiplied by K).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total bytes transmitted by all workers (the paper's communication
    /// metric).
    pub fn comm_bytes(&self) -> u64 {
        self.net.total_bytes()
    }

    /// Mutable access to the fabric (strategies charge their traffic here).
    pub fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Worker accessor.
    pub fn worker(&self, k: usize) -> &Worker {
        &self.workers[k]
    }

    /// Mutable worker accessor.
    pub fn worker_mut(&mut self, k: usize) -> &mut Worker {
        &mut self.workers[k]
    }

    /// Mini-batch steps per epoch, defined (as in the paper's figures) by
    /// the shard size; workers have near-equal shards, so take the max.
    pub fn steps_per_epoch(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.batches_per_epoch())
            .max()
            .expect("cluster has workers")
    }

    /// One *in-parallel* local step: every worker samples a batch from its
    /// shard and applies its local optimizer (Algorithm 1 lines 4–5).
    ///
    /// With [`ClusterConfig::parallel`] set, workers run on the persistent
    /// [`WorkerPool`] lanes (one rendezvous, no thread spawning); each lane
    /// writes its `(loss, correct, samples)` into its own slot of a
    /// pool-owned results buffer, and the statistics are folded in worker
    /// order afterwards, so both modes produce bit-identical models,
    /// statistics and (therefore) synchronization decisions.
    pub fn local_step(&mut self) -> StepStats {
        let k = self.workers.len();
        let (loss_sum, correct_sum, sample_sum) = if let Some(pool) = &mut self.pool {
            let dataset: &Dataset = &self.dataset;
            let workers = SendPtr(self.workers.as_mut_ptr());
            let results = SendPtr(self.step_results.as_mut_ptr());
            pool.run(&|lane| {
                // SAFETY: each lane touches only its own worker and its
                // own results slot; the rendezvous orders these writes
                // before the fold below.
                let w = unsafe { &mut *workers.get().add(lane) };
                let slot = unsafe { &mut *results.get().add(lane) };
                *slot = w.step_once(dataset);
            });
            self.step_results
                .iter()
                .fold((0.0f32, 0usize, 0usize), |(l, c, s), &(wl, wc, ws)| {
                    (l + wl, c + wc, s + ws)
                })
        } else {
            let mut acc = (0.0f32, 0usize, 0usize);
            for w in &mut self.workers {
                let (loss, correct, samples) = w.step_once(&self.dataset);
                acc = (acc.0 + loss, acc.1 + correct, acc.2 + samples);
            }
            acc
        };
        self.steps += 1;
        StepStats {
            mean_loss: loss_sum / k as f32,
            batch_accuracy: correct_sum as f32 / sample_sum.max(1) as f32,
        }
    }

    /// Loads the same parameter vector into every worker — e.g. a
    /// pre-trained model for fine-tuning scenarios (Figure 13). This is a
    /// (re-)initialization, not training traffic: no bytes are charged,
    /// matching the paper's convention that dataset/base-model staging is
    /// outside the training communication budget.
    ///
    /// # Panics
    /// Panics if the vector length differs from the model dimension.
    pub fn load_global(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.dim, "load_global: dimension mismatch");
        if let Some(pool) = &mut self.pool {
            let workers = SendPtr(self.workers.as_mut_ptr());
            pool.run(&|lane| {
                // SAFETY: lane-private worker.
                let w = unsafe { &mut *workers.get().add(lane) };
                w.model.load_params(params);
            });
        } else {
            for w in &mut self.workers {
                w.model.load_params(params);
            }
        }
    }

    /// One local step for a **single** worker (used by the asynchronous
    /// variant, where workers progress at their own pace). Does not bump
    /// the in-parallel step counter — async progress is per-worker.
    pub fn single_worker_step(&mut self, k: usize) -> StepStats {
        let (loss, correct, samples) = self.workers[k].step_once(&self.dataset);
        StepStats {
            mean_loss: loss,
            batch_accuracy: correct as f32 / samples.max(1) as f32,
        }
    }

    /// Synchronizes all models to their average via AllReduce, charging
    /// `d·4` bytes per worker. Returns the new global model.
    ///
    /// Pooled mode performs the same arithmetic as
    /// [`SimNetwork::allreduce_mean`] — per element, contributions are
    /// summed in worker order (copy-first) and scaled by `1/K` — but
    /// parallelized in three rendezvous: every lane snapshots its worker's
    /// parameters, every lane averages its own contiguous chunk of the flat
    /// parameter vector, and every lane loads the shared average back. The
    /// chunking is over the *dimension*, never over workers, so the result
    /// is bit-identical to the sequential path.
    pub fn allreduce_models(&mut self) -> Vec<f32> {
        let mut mean = Vec::new();
        self.reduce_models_into(&mut mean);
        self.load_global(&mean);
        mean
    }

    /// The arithmetic and the charge of [`Cluster::allreduce_models`]
    /// without the broadcast: the worker-order mean lands in `mean` and no
    /// replica changes, so a caller that ends the round on a different
    /// consensus (FDA's delta downlink) loads each replica once. Sequential
    /// mode lends the workers' parameter scratch to the reduce, so it
    /// allocates nothing `d`-sized in steady state.
    pub(crate) fn reduce_models_into(&mut self, mean: &mut Vec<f32>) {
        let dim = self.dim;
        if let Some(pool) = &mut self.pool {
            // (1) Snapshot every worker's parameters into its own scratch.
            let workers = SendPtr(self.workers.as_mut_ptr());
            pool.run(&|lane| {
                // SAFETY: lane-private worker.
                let w = unsafe { &mut *workers.get().add(lane) };
                w.model.copy_params_to(&mut w.params_buf);
            });
            // (2) Chunk-parallel worker-order mean.
            mean.resize(dim, 0.0);
            let srcs: Vec<&[f32]> = self
                .workers
                .iter()
                .map(|w| w.params_buf.as_slice())
                .collect();
            pool.chunked_mean(&srcs, mean);
            // Same traffic entry as the sequential `allreduce_mean`.
            self.net.charge_allreduce(dim as u64 * 4);
        } else {
            let bufs = &mut self.coded.bufs;
            bufs.clear();
            for w in &mut self.workers {
                let mut params = std::mem::take(&mut w.params_buf);
                w.model.copy_params_to(&mut params);
                bufs.push(params);
            }
            self.net.allreduce_mean(bufs);
            self.return_params_bufs(mean);
        }
    }

    /// [`Cluster::allreduce_models`] with an uplink codec: each worker's
    /// parameters are encoded, charged at exactly the emitted byte count,
    /// and reconstructed (decoded) before the worker-order mean — the same
    /// arithmetic a coordinator receiving coded uploads performs. The
    /// consensus broadcast stays dense, mirroring the `fda_net` downlink.
    /// Runs sequentially even in pooled mode: the lossy reconstruction
    /// must follow the single code path the socket coordinator uses, or
    /// the bit-identity proofs break.
    ///
    /// # Panics
    /// Panics if the codec fails to decode its own output (a codec
    /// contract violation, not an input condition).
    pub fn allreduce_models_coded(&mut self, codec: &dyn fda_comm::Codec) -> Vec<f32> {
        let mut global = Vec::new();
        self.reduce_models_coded_into(codec, &mut global);
        self.load_global(&global);
        global
    }

    /// The arithmetic and the charge of [`Cluster::allreduce_models_coded`]
    /// without the broadcast (see [`Cluster::reduce_models_into`]). Each
    /// worker's parameter scratch is encoded, reconstructed in place, lent
    /// to the reduce and handed back, so a strategy that keeps `mean`
    /// across rounds syncs without allocating a `d`-sized buffer.
    pub(crate) fn reduce_models_coded_into(
        &mut self,
        codec: &dyn fda_comm::Codec,
        mean: &mut Vec<f32>,
    ) {
        let CodedScratch {
            enc,
            payloads,
            bufs,
        } = &mut self.coded;
        payloads.clear();
        bufs.clear();
        for w in &mut self.workers {
            let mut params = std::mem::take(&mut w.params_buf);
            w.model.copy_params_to(&mut params);
            enc.clear();
            codec.encode_into(&params, enc);
            payloads.push(enc.len() as u64);
            codec
                .decode_into(enc, &mut params)
                .expect("codec decodes own output");
            bufs.push(params);
        }
        self.net.allreduce_mean_with(bufs, payloads);
        self.return_params_bufs(mean);
    }

    /// Copies the reduced mean out of the lent parameter scratch and hands
    /// every buffer back to its worker.
    fn return_params_bufs(&mut self, mean: &mut Vec<f32>) {
        let bufs = &mut self.coded.bufs;
        mean.clear();
        mean.extend_from_slice(&bufs[0]);
        for (w, buf) in self.workers.iter_mut().zip(bufs.drain(..)) {
            w.params_buf = buf;
        }
    }

    /// The average of the current worker models **without** any
    /// communication charge — used only for evaluation, mirroring the
    /// paper's convention that accuracy is measured on the (conceptual)
    /// global model and is not part of the training traffic.
    pub fn average_params(&self) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        let mut scratch = vec![0.0f32; self.dim];
        for w in &self.workers {
            w.model.copy_params_to(&mut scratch);
            fda_tensor::vector::add_assign(&mut acc, &scratch);
        }
        fda_tensor::vector::scale(&mut acc, 1.0 / self.workers.len() as f32);
        acc
    }

    /// True iff every worker currently holds exactly the same parameters.
    pub fn models_identical(&self) -> bool {
        let first = self.workers[0].model.params_flat();
        self.workers
            .iter()
            .skip(1)
            .all(|w| w.model.params_flat() == first)
    }

    /// The exact model variance across workers (Eq. 2) — evaluation/test
    /// helper; a real cluster could not compute this cheaply.
    pub fn exact_variance(&self) -> f32 {
        let params: Vec<Vec<f32>> = self.workers.iter().map(|w| w.model.params_flat()).collect();
        let refs: Vec<&[f32]> = params.iter().map(|p| p.as_slice()).collect();
        fda_tensor::vector::variance_of(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_data::synth::SynthSpec;

    fn tiny_task() -> TaskData {
        SynthSpec {
            n_train: 300,
            n_test: 100,
            ..SynthSpec::synth_mnist()
        }
        .generate("tiny")
    }

    #[test]
    fn workers_start_from_common_model() {
        let task = tiny_task();
        let cluster = Cluster::new(ClusterConfig::small_test(4), &task);
        assert!(cluster.models_identical());
        assert!(cluster.exact_variance() < 1e-12);
    }

    #[test]
    fn local_steps_diverge_models() {
        let task = tiny_task();
        let mut cluster = Cluster::new(ClusterConfig::small_test(4), &task);
        for _ in 0..3 {
            cluster.local_step();
        }
        assert!(!cluster.models_identical());
        assert!(cluster.exact_variance() > 0.0);
        assert_eq!(cluster.steps(), 3);
        // Local training alone transmits nothing.
        assert_eq!(cluster.comm_bytes(), 0);
    }

    #[test]
    fn allreduce_restores_consensus_and_charges() {
        let task = tiny_task();
        let mut cluster = Cluster::new(ClusterConfig::small_test(3), &task);
        cluster.local_step();
        let d = cluster.dim() as u64;
        let global = cluster.allreduce_models();
        assert!(cluster.models_identical());
        assert!(cluster.exact_variance() < 1e-9);
        assert_eq!(cluster.comm_bytes(), 3 * d * 4);
        assert_eq!(global.len(), d as usize);
    }

    #[test]
    fn average_params_is_free_and_correct() {
        let task = tiny_task();
        let mut cluster = Cluster::new(ClusterConfig::small_test(3), &task);
        cluster.local_step();
        let before = cluster.comm_bytes();
        let avg = cluster.average_params();
        assert_eq!(cluster.comm_bytes(), before, "evaluation must be free");
        // Cross-check against an explicit mean.
        let expect = {
            let ps: Vec<Vec<f32>> = (0..3).map(|k| cluster.worker(k).params()).collect();
            let refs: Vec<&[f32]> = ps.iter().map(|p| p.as_slice()).collect();
            fda_tensor::vector::mean(&refs)
        };
        for (a, b) in avg.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let task = tiny_task();
        let mut a = Cluster::new(ClusterConfig::small_test(2), &task);
        let mut b = Cluster::new(ClusterConfig::small_test(2), &task);
        for _ in 0..3 {
            a.local_step();
            b.local_step();
        }
        assert_eq!(a.worker(0).params(), b.worker(0).params());
        assert_eq!(a.worker(1).params(), b.worker(1).params());
    }

    /// The scoped-thread local-step phase must be bit-identical to the
    /// sequential one: every worker's model, the step statistics, and
    /// therefore every downstream synchronization decision.
    #[test]
    fn parallel_mode_is_bit_identical_to_sequential() {
        let task = tiny_task();
        let mut seq = Cluster::new(ClusterConfig::small_test(4), &task);
        let par_cfg = ClusterConfig {
            parallel: true,
            ..ClusterConfig::small_test(4)
        };
        let mut par = Cluster::new(par_cfg, &task);
        for step in 0..5 {
            let s = seq.local_step();
            let p = par.local_step();
            assert_eq!(s.mean_loss, p.mean_loss, "loss diverged at step {step}");
            assert_eq!(
                s.batch_accuracy, p.batch_accuracy,
                "accuracy diverged at step {step}"
            );
            for k in 0..4 {
                assert_eq!(
                    seq.worker(k).params(),
                    par.worker(k).params(),
                    "worker {k} params diverged at step {step}"
                );
            }
        }
        assert_eq!(seq.exact_variance(), par.exact_variance());
    }

    /// The pooled chunk-parallel model AllReduce must be bit-identical to
    /// the sequential `SimNetwork::allreduce_mean` path — same consensus
    /// model, same replica states, same byte accounting.
    #[test]
    fn pooled_allreduce_is_bit_identical_to_sequential() {
        let task = tiny_task();
        let mut seq = Cluster::new(ClusterConfig::small_test(4), &task);
        let par_cfg = ClusterConfig {
            parallel: true,
            ..ClusterConfig::small_test(4)
        };
        let mut par = Cluster::new(par_cfg, &task);
        for _ in 0..3 {
            seq.local_step();
            par.local_step();
        }
        let g_seq = seq.allreduce_models();
        let g_par = par.allreduce_models();
        assert_eq!(g_seq, g_par, "consensus models diverged");
        assert!(par.models_identical());
        for k in 0..4 {
            assert_eq!(seq.worker(k).params(), par.worker(k).params());
        }
        assert_eq!(
            seq.comm_bytes(),
            par.comm_bytes(),
            "byte accounting diverged"
        );
        // Pooled broadcast-load (`load_global`) matches, too.
        let fresh = vec![0.25f32; seq.dim()];
        seq.load_global(&fresh);
        par.load_global(&fresh);
        for k in 0..4 {
            assert_eq!(seq.worker(k).params(), par.worker(k).params());
        }
    }

    /// Pooled stepping must not allocate a fresh results vector per step:
    /// the pool dispatches exactly the expected number of rendezvous.
    #[test]
    fn pool_rounds_track_phases() {
        let task = tiny_task();
        let cfg = ClusterConfig {
            parallel: true,
            ..ClusterConfig::small_test(3)
        };
        let mut cluster = Cluster::new(cfg, &task);
        let pool_rounds = |c: &Cluster| c.pool.as_ref().expect("pooled").rounds();
        assert_eq!(pool_rounds(&cluster), 0);
        cluster.local_step();
        assert_eq!(pool_rounds(&cluster), 1, "one rendezvous per local step");
        cluster.allreduce_models();
        assert_eq!(
            pool_rounds(&cluster),
            4,
            "snapshot + chunk-reduce + broadcast = three rendezvous"
        );
    }

    /// `ClusterConfig::build_worker` must reconstruct worker `k`
    /// standalone, bit-identical to the cluster-built one at every step —
    /// the property the multi-process TCP driver rests on.
    #[test]
    fn standalone_worker_matches_cluster_worker() {
        let task = tiny_task();
        let cfg = ClusterConfig::small_test(3);
        let mut cluster = Cluster::new(cfg.clone(), &task);
        let mut solo: Vec<Worker> = (0..3).map(|k| cfg.build_worker(&task.train, k)).collect();
        for step in 0..3 {
            cluster.local_step();
            for (k, w) in solo.iter_mut().enumerate() {
                w.step_once(&task.train);
                assert_eq!(
                    w.params(),
                    cluster.worker(k).params(),
                    "worker {k} diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn different_workers_see_different_batches() {
        let task = tiny_task();
        let mut cluster = Cluster::new(ClusterConfig::small_test(2), &task);
        cluster.local_step();
        // After one step from identical inits, models differ iff batches
        // (or dropout) differ.
        assert_ne!(cluster.worker(0).params(), cluster.worker(1).params());
    }
}
