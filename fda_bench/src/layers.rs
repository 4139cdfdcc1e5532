//! Layer replay: every layer's public entry points timed on their own at
//! the workload's shapes (model, dimension d, state size, batch, codec).
//! One span per timed batch of calls; the reported number is the median
//! per-call time over the spans.

use crate::spec;
use crate::trace::Tracer;
use fda_comm::Codec;
use fda_core::cluster::Cluster;
use fda_core::monitor::LocalState;
use fda_core::wire::{self, JobSpec};
use fda_data::batch::BatchSampler;
use fda_data::TaskData;
use fda_net::frame::{self, FrameKind};
use fda_nn::zoo::ModelId;
use fda_tensor::{matrix, vector, Matrix, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};

/// Per-layer metric values by name; only names of `spec::PER_LAYER` fit.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::per_layer(name).is_some(), "unknown metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
    }

    /// Every metric of `spec::PER_LAYER`, in that order.
    pub fn in_spec_order(&self) -> Vec<(&'static str, f64)> {
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

/// The forward-pass GEMMs `(m, k, n)` of one batch through `model`:
/// im2col shapes (out_c x in_c·3·3 x batch·out_h·out_w) for the conv
/// layers, (batch x in x out) for the dense ones.
fn gemm_shapes(model: ModelId, batch: usize) -> Vec<(usize, usize, usize)> {
    match model {
        ModelId::Lenet5 => vec![
            (6, 9, batch * 144),
            (12, 54, batch * 36),
            (batch, 108, 24),
            (batch, 24, 10),
        ],
        ModelId::TransferHead => vec![(batch, 128, 192), (batch, 192, 100)],
        other => panic!("no workload trains {}", other.name()),
    }
}

fn random_vector(n: usize, seed: u64, std_dev: f32) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    Rng::new(seed).fill_normal(&mut v, 0.0, std_dev);
    v
}

/// tensor, nn, optim, data, sketch, core::monitor, core::wire and comm.
pub fn replay_compute(
    tr: &mut Tracer,
    m: &mut Metrics,
    job: &JobSpec,
    task: &TaskData,
    reps: usize,
) {
    let cfg = &job.cluster;
    let k = cfg.workers;
    let mut model = cfg.model.build(cfg.seed, 0);
    let d = model.param_count();
    let params = model.params_flat();

    // data
    let generate_us = tr.bench("data.generate", reps.min(5), || {
        black_box(job.synth.generate(&job.task_name));
    });
    m.set("data.generate_ms", generate_us / 1e3);
    let partition_us = tr.bench("data.partition", reps, || {
        black_box(cfg.partition.shards(&task.train, k, cfg.seed));
    });
    m.set("data.partition_ms", partition_us / 1e3);
    let shard = cfg
        .partition
        .shards(&task.train, k, cfg.seed)
        .swap_remove(0);
    let mut sampler = BatchSampler::new(shard, cfg.batch_size, Rng::new(cfg.seed));
    let channels = model.input_shape().map(|s| s.c);
    let sample_us = tr.bench("data.sample", reps, || {
        black_box(sampler.sample_native(&task.train, channels));
    });
    m.set("data.sample_us", sample_us);

    // nn (the input is taken by value, so its clone is part of the call,
    // as it is part of `Worker::step_once`'s gather)
    let (x, y) = sampler.sample_native(&task.train, channels);
    let forward_us = tr.bench("nn.forward", reps, || {
        black_box(model.forward_native(x.clone(), true));
    });
    let gradients_us = tr.bench("nn.compute_gradients", reps, || {
        black_box(model.compute_gradients_native(x.clone(), &y));
    });
    m.set("nn.forward_us", forward_us);
    m.set("nn.backward_us", gradients_us - forward_us);
    let eval_us = tr.bench("nn.eval", reps.min(5), || {
        black_box(model.evaluate_batched(task.test.features(), task.test.labels(), 256));
    });
    m.set("nn.eval_us", eval_us);

    // tensor
    let shapes = gemm_shapes(cfg.model, cfg.batch_size);
    let mut rng = Rng::new(7);
    let mut gemms: Vec<(Matrix, Matrix, Matrix)> = shapes
        .iter()
        .map(|&(mm, kk, nn)| {
            (
                Matrix::random_normal(mm, kk, 0.0, 1.0, &mut rng),
                Matrix::random_normal(kk, nn, 0.0, 1.0, &mut rng),
                Matrix::zeros(mm, nn),
            )
        })
        .collect();
    let mut scratch = matrix::Scratch::new();
    let gemm_us = tr.bench("tensor.gemm", reps, || {
        for (a, b, out) in &mut gemms {
            matrix::gemm_into_with(a, b, out, &mut scratch);
        }
    });
    let flops: usize = shapes.iter().map(|&(mm, kk, nn)| 2 * mm * kk * nn).sum();
    m.set("tensor.gemm_us", gemm_us);
    m.set("tensor.gemm_gflops", flops as f64 / gemm_us / 1e3);
    let replicas: Vec<Vec<f32>> = (0..k as u64).map(|i| random_vector(d, i, 1.0)).collect();
    let mut acc = params.clone();
    let mut mean = vec![0.0f32; d];
    let vector_us = tr.bench("tensor.vector", reps, || {
        vector::sub_assign(&mut acc, &replicas[0]);
        let refs: Vec<&[f32]> = replicas.iter().map(Vec::as_slice).collect();
        vector::mean_into(&refs, &mut mean);
    });
    m.set("tensor.vector_us", vector_us);

    // optim
    let mut optimizer = cfg.optimizer.build(d);
    let grads = random_vector(d, 11, 0.01);
    let mut stepped = params.clone();
    let optim_us = tr.bench("optim.step", reps, || optimizer.step(&mut stepped, &grads));
    m.set("optim.step_us", optim_us);

    // sketch (the SketchAuto sizing every workload's monitor uses)
    let sketch_cfg = fda_sketch::SketchConfig::scaled_for(d);
    let plan = sketch_cfg.build_plan(d);
    let drift = random_vector(d, 13, 0.01);
    let mut sk = fda_sketch::AmsSketch::zeros(sketch_cfg.rows, sketch_cfg.cols);
    let sketch_us = tr.bench("sketch.sketch", reps, || plan.sketch_into(&drift, &mut sk));
    m.set("sketch.sketch_us", sketch_us);
    let estimate_us = tr.bench("sketch.estimate", reps, || {
        black_box(sk.estimate_sq_norm());
    });
    m.set("sketch.estimate_us", estimate_us);

    // core::monitor
    let monitor = job.fda.variant.build_monitor(d);
    m.set("sketch.state_bytes", monitor.state_bytes() as f64);
    let mut state = monitor.local_state(&drift);
    let local_state_us = tr.bench("core.monitor.local_state", reps, || {
        monitor.local_state_into(&drift, &mut state);
    });
    m.set("core.monitor.local_state_us", local_state_us);
    let avg = LocalState::average(&vec![state.clone(); k]);
    let monitor_estimate_us = tr.bench("core.monitor.estimate", reps, || {
        black_box(monitor.estimate(&avg));
    });
    m.set("core.monitor.estimate_us", monitor_estimate_us);

    // core::wire, at this job's uplink codec
    let codec = job.codec.build();
    let mut buf = Vec::new();
    let us = tr.bench("core.wire.encode_state", reps, || {
        buf.clear();
        wire::encode_state_coded_into(&state, codec.as_ref(), &mut buf);
    });
    m.set("core.wire.encode_state_us", us);
    let us = tr.bench("core.wire.decode_state", reps, || {
        black_box(wire::decode_state_coded(&buf, &state, codec.as_ref()).is_ok());
    });
    m.set("core.wire.decode_state_us", us);
    let us = tr.bench("core.wire.encode_vector", reps, || {
        buf.clear();
        wire::encode_vector_coded_into(&params, codec.as_ref(), &mut buf);
    });
    m.set("core.wire.encode_vector_us", us);
    let us = tr.bench("core.wire.decode_vector", reps, || {
        black_box(wire::decode_vector_coded(&buf, d, codec.as_ref()).is_ok());
    });
    m.set("core.wire.decode_vector_us", us);
    let us = tr.bench("core.wire.encode_job", reps, || {
        black_box(wire::encode_job(job));
    });
    m.set("core.wire.encode_job_us", us);

    // comm: the uplink codec over a d-vector, the delta downlink, and the
    // simulator's worker-order mean
    buf.clear();
    let encode_us = tr.bench("comm.codec.encode", reps, || {
        buf.clear();
        codec.encode_into(&params, &mut buf);
    });
    let mut decode_errors = 0u64;
    let decode_us = tr.bench("comm.codec.decode", reps, || {
        decode_errors += u64::from(codec.decode(&buf, d).is_err());
    });
    m.set("comm.codec.encode_us", encode_us);
    m.set("comm.codec.decode_us", decode_us);
    m.set("comm.codec.mb_per_s", (d * 4) as f64 / encode_us);
    m.set("comm.codec.ratio", (d * 4) as f64 / buf.len() as f64);
    m.set("comm.codec.decode_errors", decode_errors as f64);
    let downlink: Box<dyn Codec> = job.downlink.build().unwrap_or_else(|| job.codec.build());
    let us = tr.bench("comm.delta_downlink", reps, || {
        black_box(fda_comm::compress::delta_downlink(
            &params,
            &replicas[0],
            downlink.as_ref(),
        ));
    });
    m.set("comm.delta_downlink_us", us);
    let mut net = fda_comm::SimNetwork::new(k);
    let mut bufs = replicas.clone();
    let us = tr.bench("comm.sim.allreduce_mean", reps, || {
        net.allreduce_mean(&mut bufs)
    });
    m.set("comm.sim.allreduce_mean_us", us);

    // core::cluster, on a cluster of this job's shape
    let mut cluster = Cluster::new(cfg.clone(), task);
    let us = tr.bench("core.cluster.local_step", reps, || {
        black_box(cluster.local_step());
    });
    m.set("core.cluster.local_step_us", us);
    let us = tr.bench("core.cluster.allreduce", reps, || {
        black_box(cluster.allreduce_models());
    });
    m.set("core.cluster.allreduce_us", us);
    let us = tr.bench("core.cluster.allreduce_coded", reps, || {
        black_box(cluster.allreduce_models_coded(codec.as_ref()));
    });
    m.set("core.cluster.allreduce_coded_us", us);

    // core::pool: the same K = 2 local step, sequential over pooled
    let pair = |parallel| {
        Cluster::new(
            fda_core::cluster::ClusterConfig {
                workers: 2,
                parallel,
                ..cfg.clone()
            },
            task,
        )
    };
    let (mut sequential, mut pooled) = (pair(false), pair(true));
    let sequential_us = tr.bench("core.pool.sequential_step", reps, || {
        black_box(sequential.local_step());
    });
    let pooled_us = tr.bench("core.pool.pooled_step", reps, || {
        black_box(pooled.local_step());
    });
    m.set("core.pool.speedup_k2", sequential_us / pooled_us);
}

/// net::frame and the socket, at this job's state-frame and model-frame
/// sizes.
pub fn replay_transport(
    tr: &mut Tracer,
    m: &mut Metrics,
    job: &JobSpec,
    reps: usize,
) -> std::io::Result<()> {
    let model = job.cluster.model.build(job.cluster.seed, 0);
    let d = model.param_count();
    let codec = job.codec.build();
    let monitor = job.fda.variant.build_monitor(d);
    let state = monitor.local_state(&random_vector(d, 13, 0.01));
    let payloads = [
        (
            wire::encode_state_coded(&state, codec.as_ref()),
            FrameKind::State,
        ),
        (
            wire::encode_vector_coded(&model.params_flat(), codec.as_ref()),
            FrameKind::Model,
        ),
    ];

    // An echo peer on loopback: every frame comes straight back through
    // the same `read_frame_into` / `write_frame` pair; `Shutdown` ends it.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> Result<(), fda_net::NetError> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut rbuf = Vec::new();
        loop {
            let (kind, epoch) = frame::read_frame_into(&mut peer, &mut rbuf)?;
            if kind == FrameKind::Shutdown {
                return Ok(());
            }
            frame::write_frame(&mut peer, epoch, kind, &rbuf[1..])?;
        }
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;

    let names = [
        [
            ("net.frame.checksum.state", "net.frame.checksum_us.state"),
            ("net.frame.write.state", "net.frame.write_us.state"),
            ("net.frame.read.state", "net.frame.read_us.state"),
            ("net.socket.echo.state", "net.socket.echo_us.state"),
        ],
        [
            ("net.frame.checksum.model", "net.frame.checksum_us.model"),
            ("net.frame.write.model", "net.frame.write_us.model"),
            ("net.frame.read.model", "net.frame.read_us.model"),
            ("net.socket.echo.model", "net.socket.echo_us.model"),
        ],
    ];
    let mut rbuf = Vec::new();
    let mut echo_failed = false;
    for ((payload, kind), [checksum, write, read, echoed]) in payloads.iter().zip(names) {
        let us = tr.bench(checksum.0, reps, || {
            black_box(frame::fnv1a_32(&[black_box(payload.as_slice())]));
        });
        m.set(checksum.1, us);
        if *kind == FrameKind::Model {
            m.set("net.frame.checksum_mb_per_s", payload.len() as f64 / us);
        }
        let mut sink = Vec::with_capacity(payload.len() + 16);
        let us = tr.bench(write.0, reps, || {
            sink.clear();
            frame::write_frame(&mut sink, 1, *kind, payload).expect("write to memory");
        });
        m.set(write.1, us);
        let us = tr.bench(read.0, reps, || {
            let mut cursor = Cursor::new(sink.as_slice());
            frame::read_frame_into(&mut cursor, &mut rbuf).expect("read own frame");
        });
        m.set(read.1, us);
        let us = tr.bench(echoed.0, reps, || {
            let round_trip = frame::write_frame(&mut stream, 1, *kind, payload)
                .and_then(|()| frame::read_frame_into(&mut stream, &mut rbuf));
            echo_failed |= round_trip.is_err();
        });
        m.set(echoed.1, us);
    }
    let _ = frame::write_frame(&mut stream, 1, FrameKind::Shutdown, &[]);
    drop(stream);
    let echo_result = echo.join().expect("echo thread panicked");
    if echo_failed || echo_result.is_err() {
        return Err(std::io::Error::other("loopback echo failed"));
    }
    Ok(())
}
