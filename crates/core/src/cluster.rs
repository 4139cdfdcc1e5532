//! The simulated worker cluster.
//!
//! A [`Cluster`] holds `K` workers — each with its own model replica,
//! optimizer state and data-shard sampler. Every strategy in this crate
//! (FDA and all baselines) drives the same cluster API, so their
//! computation costs are measured on identical footing; what they
//! transmit is charged by the round's server ([`crate::round::Server`]).
//! A synchronization has one model-reduce path: each worker lends its
//! parameter arena, round-tripped through the uplink codec when there is
//! one, to the round's model mean ([`crate::round`]).

use crate::pool::{SendPtr, WorkerPool};
use crate::round;
use fda_comm::Codec;
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
        let (shards, template) = self.shards_and_template(train);
        let w0 = template.params_flat();
        make_worker(self, shards.into_iter().nth(k).expect("k < K"), k, &w0)
    }

    /// Every worker's shard of `train` and the model holding the common
    /// `w_0` (Algorithm 1 line 1).
    fn shards_and_template(&self, train: &Dataset) -> (Vec<Vec<usize>>, Sequential) {
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
        (shards, template)
    }
}

/// Builds one worker from its shard — shared by [`Cluster::new`] (which
/// maps it over all shards) and [`ClusterConfig::build_worker`] (which
/// builds a single worker for an out-of-process driver). All randomness is
/// a deterministic function of `(config.seed, k)`.
fn make_worker(config: &ClusterConfig, shard: Vec<usize>, k: usize, w0: &[f32]) -> Worker {
    let dim = w0.len();
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
    }
}

/// One worker: model replica + optimizer + shard sampler.
pub struct Worker {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    sampler: BatchSampler,
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

    /// Flat parameters of this worker's model (allocating; borrow them
    /// through [`Worker::model`] instead).
    pub fn params(&self) -> Vec<f32> {
        self.model.params_flat()
    }

    /// One local training step for this worker: sample, backprop, and one
    /// optimizer step in place on the model's parameter arena.
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
        let (params, grads) = self.model.arena_mut();
        self.optimizer.step(params, grads);
        (loss, correct, y.len())
    }
}

/// Runs `job` on every worker with its own slot of `slots` — one worker per
/// lane of `pool` when there is one, in worker order otherwise. A call
/// touches only its worker and its slot, so both modes do the same
/// per-worker arithmetic.
pub(crate) fn each_worker<T: Send, F: Fn(&mut Worker, &mut T) + Sync>(
    pool: Option<&mut WorkerPool>,
    workers: &mut [Worker],
    slots: &mut [T],
    job: F,
) {
    assert_eq!(
        workers.len(),
        slots.len(),
        "each_worker: one slot per worker"
    );
    match pool {
        Some(pool) => {
            assert_eq!(
                pool.lanes(),
                workers.len(),
                "each_worker: one lane per worker"
            );
            let (w, s) = (SendPtr(workers.as_mut_ptr()), SendPtr(slots.as_mut_ptr()));
            // SAFETY: lane `i < K` touches only worker `i` and slot `i`, and
            // the rendezvous orders every write before `run` returns.
            pool.run(&|lane| unsafe { job(&mut *w.get().add(lane), &mut *s.get().add(lane)) });
        }
        None => workers.iter_mut().zip(slots).for_each(|(w, s)| job(w, s)),
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

/// `K` workers.
pub struct Cluster {
    config: ClusterConfig,
    dataset: Arc<Dataset>,
    workers: Vec<Worker>,
    /// Bytes charged by [`Cluster::allreduce_models`] and
    /// [`Cluster::allreduce_models_coded`].
    bytes: u64,
    dim: usize,
    steps: u64,
    /// The persistent rendezvous pool (`Some` iff `config.parallel` and
    /// `K > 1`); spawned once here, joined on drop.
    pool: Option<WorkerPool>,
    /// Pool-owned per-worker `(loss, correct, samples)` results, reused
    /// every step (no per-step allocation).
    step_results: Vec<(f32, usize, usize)>,
    /// Round-persistent scratch of coded model uploads: one encoding at a
    /// time, and each worker's encoded size.
    enc: Vec<u8>,
    payloads: Vec<u64>,
}

/// The model uploads of one synchronization, lent by [`Cluster::upload_models`]
/// together with the pool that reduces them.
pub(crate) struct Uploads<'a> {
    pub pool: Option<&'a mut WorkerPool>,
    /// Each worker's parameter arena, in worker order.
    pub models: Vec<&'a [f32]>,
    /// Each worker's encoded upload size; empty on a dense uplink.
    pub payloads: &'a [u64],
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
        // The template lives until the workers are built: dropping it
        // earlier reorders the heap enough to re-fault the dataset clone on
        // every construction in a long-lived process.
        let (shards, template) = config.shards_and_template(&dataset);
        let w0 = template.params_flat();
        let dim = w0.len();
        let workers: Vec<Worker> = shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| make_worker(&config, shard, k, &w0))
            .collect();
        let pool = (config.parallel && config.workers > 1).then(|| WorkerPool::new(config.workers));
        Cluster {
            bytes: 0,
            step_results: vec![(0.0, 0, 0); config.workers],
            enc: Vec::new(),
            payloads: Vec::new(),
            pool,
            config,
            dataset,
            workers,
            dim,
            steps: 0,
        }
    }

    /// Split borrows of the pool (if pooled) and the workers, for a
    /// strategy that runs its own phases over them.
    pub(crate) fn parts(&mut self) -> (Option<&mut WorkerPool>, &mut [Worker]) {
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

    /// Bytes the workers transmitted in this cluster's own
    /// [`Cluster::allreduce_models`] and [`Cluster::allreduce_models_coded`]
    /// calls. A strategy's traffic is charged by its server instead
    /// ([`crate::strategy::Strategy::comm_bytes`]).
    pub fn comm_bytes(&self) -> u64 {
        self.bytes
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
        let dataset: &Dataset = &self.dataset;
        let (pool, workers) = (self.pool.as_mut(), &mut self.workers);
        each_worker(pool, workers, &mut self.step_results, |w, slot| {
            *slot = w.step_once(dataset);
        });
        let (loss_sum, correct_sum, sample_sum) = self
            .step_results
            .iter()
            .fold((0.0f32, 0usize, 0usize), |(l, c, s), &(wl, wc, ws)| {
                (l + wl, c + wc, s + ws)
            });
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
        let no_slots = &mut vec![(); self.workers.len()];
        each_worker(self.pool.as_mut(), &mut self.workers, no_slots, |w, _| {
            w.model.load_params(params);
        });
    }

    /// Synchronizes all models to their average via AllReduce, charging
    /// `d·4` bytes per worker. Returns the new global model.
    ///
    /// The mean is the round's model mean: per element, worker 0 copied,
    /// the others added in worker order, scaled by `1/K` — chunk-parallel
    /// over the parameter vector when pooled, which gives the same bits.
    pub fn allreduce_models(&mut self) -> Vec<f32> {
        self.allreduce(None)
    }

    /// [`Cluster::allreduce_models`] with an uplink codec: each worker's
    /// parameters are encoded, charged at exactly the emitted byte count,
    /// and reconstructed (decoded) before the worker-order mean — the same
    /// arithmetic a coordinator receiving coded uploads performs. The
    /// consensus broadcast stays dense.
    ///
    /// # Panics
    /// Panics if the codec fails to decode its own output (a codec
    /// contract violation, not an input condition).
    pub fn allreduce_models_coded(&mut self, codec: &dyn Codec) -> Vec<f32> {
        self.allreduce(Some(codec))
    }

    fn allreduce(&mut self, codec: Option<&dyn Codec>) -> Vec<f32> {
        let mut mean = Vec::new();
        let up = self.upload_models(codec);
        let coded = codec.map(|_| up.payloads);
        self.bytes += round::model_mean_into(up.pool, &up.models, coded, &mut mean);
        self.load_global(&mean);
        mean
    }

    /// Lends every worker's parameter arena to a model reduce. With a
    /// codec, each arena is first replaced in place by the reconstruction
    /// of its encoding, sequentially in worker order, recording each
    /// encoded size: that rewrites the replicas, so every caller loads the
    /// round's consensus into all of them right after the reduce. Nothing
    /// `d`-sized is allocated.
    pub(crate) fn upload_models(&mut self, codec: Option<&dyn Codec>) -> Uploads<'_> {
        self.payloads.clear();
        if let Some(codec) = codec {
            for w in &mut self.workers {
                let (params, _) = w.model.arena_mut();
                let bytes = round::roundtrip_in_place(codec, params, &mut self.enc);
                self.payloads.push(bytes);
            }
        }
        Uploads {
            pool: self.pool.as_mut(),
            models: self.workers.iter().map(|w| w.model.params()).collect(),
            payloads: &self.payloads,
        }
    }

    /// The average of the current worker models **without** any
    /// communication charge — used only for evaluation, mirroring the
    /// paper's convention that accuracy is measured on the (conceptual)
    /// global model and is not part of the training traffic.
    ///
    /// Worker 0 copied, the others added in id order, one scale by 1/K:
    /// the association of every cross-worker mean
    /// ([`fda_tensor::vector::mean`]).
    pub fn average_params(&self) -> Vec<f32> {
        let params: Vec<&[f32]> = self.workers.iter().map(|w| w.model.params()).collect();
        fda_tensor::vector::mean(&params)
    }

    /// True iff every worker currently holds exactly the same parameters,
    /// bit for bit: a NaN equals a NaN of the same payload, and +0.0 and
    /// −0.0 differ.
    pub fn models_identical(&self) -> bool {
        let first = self.workers[0].model.params();
        let bits = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
        self.workers
            .iter()
            .all(|w| w.model.params().iter().zip(first).all(bits))
    }

    /// The exact model variance across workers (Eq. 2) — evaluation/test
    /// helper; a real cluster could not compute this cheaply.
    pub fn exact_variance(&self) -> f32 {
        let params: Vec<&[f32]> = self.workers.iter().map(|w| w.model.params()).collect();
        fda_tensor::vector::variance_of(&params)
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
        // Bit for bit the explicit mean.
        let expect = {
            let ps: Vec<Vec<f32>> = (0..3).map(|k| cluster.worker(k).params()).collect();
            let refs: Vec<&[f32]> = ps.iter().map(|p| p.as_slice()).collect();
            fda_tensor::vector::mean(&refs)
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&avg), bits(&expect));
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
    /// the sequential mean — same consensus model, same replica states,
    /// same byte accounting.
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
            3,
            "chunk-reduce + broadcast = two rendezvous"
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

    /// Replicas compare by bit pattern: the same NaN everywhere is
    /// identical, +0.0 against −0.0 is not.
    #[test]
    fn models_identical_compares_bits() {
        let task = tiny_task();
        let mut cluster = Cluster::new(ClusterConfig::small_test(3), &task);
        let d = cluster.dim();
        cluster.load_global(&vec![f32::NAN; d]);
        assert!(cluster.models_identical(), "one NaN vector everywhere");
        cluster.load_global(&vec![0.0; d]);
        cluster
            .worker_mut(2)
            .model_mut()
            .load_params(&vec![-0.0; d]);
        assert!(!cluster.models_identical(), "+0.0 vs -0.0");
    }

    /// The in-place optimizer step on the arena against stepping copies of
    /// the parameters and gradients and loading the result back: the
    /// parameters stay bit-equal after every step, for each paper
    /// optimizer on a conv and a dense model.
    #[test]
    fn in_place_step_matches_copy_step() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let optimizers = [
            OptimizerKind::paper_adam(),
            OptimizerKind::paper_sgd_nm(0.01),
            OptimizerKind::paper_adamw(),
        ];
        for model in [ModelId::Lenet5, ModelId::TransferHead] {
            let spec = crate::experiments::spec_for(model).synth_spec();
            let task = SynthSpec {
                n_train: 200,
                n_test: 10,
                ..spec
            }
            .generate("in-place");
            for optimizer in optimizers {
                let config = ClusterConfig {
                    model,
                    optimizer,
                    ..ClusterConfig::small_test(1)
                };
                let mut subject = config.build_worker(&task.train, 0);
                let mut reference = config.build_worker(&task.train, 0);
                for step in 0..20 {
                    subject.step_once(&task.train);
                    let channels = reference.model.input_shape().map(|s| s.c);
                    let (x, y) = reference.sampler.sample_native(&task.train, channels);
                    let _ = reference.model.compute_gradients_native(x, &y);
                    let mut params = reference.model.params_flat();
                    reference
                        .optimizer
                        .step(&mut params, &reference.model.grads_flat());
                    reference.model.load_params(&params);
                    assert_eq!(
                        bits(subject.model.params()),
                        bits(reference.model.params()),
                        "{} {optimizer:?}: step {step}",
                        model.name()
                    );
                }
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
