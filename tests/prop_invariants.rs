//! Randomized property tests on the core mathematical invariants the FDA
//! protocol rests on.
//!
//! The workspace is intentionally dependency-free, so instead of `proptest`
//! these use a hand-rolled case generator over the workspace's
//! deterministic [`fda::tensor::Rng`]: every property is checked over many random shapes
//! and values, and every failure message carries the case seed so a
//! counterexample reproduces exactly.

use fda::core::monitor::{
    ExactMonitor, LinearMonitor, LocalState, SketchMonitor, StateSummary, VarianceMonitor,
};
use fda::core::wire;
use fda::data::{Dataset, Partition};
use fda::net::frame::FrameKind;
use fda::nn::conv::Conv2d;
use fda::nn::init::Init;
use fda::nn::layer::Shape3;
use fda::sketch::{AmsSketch, SketchConfig};
use fda::tensor::{vector, Matrix, Rng};

const CASES: u64 = 64;

/// A random (but valid) conv geometry: channels, spatial extents, kernel,
/// padding, output channels.
fn random_conv(rng: &mut Rng) -> (Shape3, usize, usize, usize) {
    loop {
        let c = 1 + (rng.next_u64() % 3) as usize;
        let h = 2 + (rng.next_u64() % 6) as usize;
        let w = 2 + (rng.next_u64() % 6) as usize;
        let k = 1 + (rng.next_u64() % 4) as usize;
        let pad = (rng.next_u64() % 3) as usize;
        let oc = 1 + (rng.next_u64() % 4) as usize;
        if k <= h + 2 * pad && k <= w + 2 * pad {
            return (Shape3::new(c, h, w), oc, k, pad);
        }
    }
}

/// K drift vectors of dimension d with entries in `[-10, 10)`.
fn random_drifts(rng: &mut Rng, max_k: usize, max_d: usize) -> Vec<Vec<f32>> {
    let k = 2 + (rng.next_u64() as usize) % (max_k - 1);
    let d = 2 + (rng.next_u64() as usize) % (max_d - 1);
    (0..k)
        .map(|_| {
            let mut u = vec![0.0f32; d];
            rng.fill_uniform(&mut u, -10.0, 10.0);
            u
        })
        .collect()
}

fn true_variance(drifts: &[Vec<f32>]) -> f32 {
    let refs: Vec<&[f32]> = drifts.iter().map(|d| d.as_slice()).collect();
    vector::variance_from_drifts(&refs)
}

/// Eq. (4): the drift identity equals the definitional variance around the
/// mean, for any offset w0.
#[test]
fn variance_identity_holds() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1D_0000 + case);
        let drifts = random_drifts(&mut rng, 6, 40);
        let offset = rng.uniform_f32() * 10.0 - 5.0;
        let d = drifts[0].len();
        let w0 = vec![offset; d];
        let models: Vec<Vec<f32>> = drifts
            .iter()
            .map(|u| {
                let mut m = w0.clone();
                vector::add_assign(&mut m, u);
                m
            })
            .collect();
        let mrefs: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
        let direct = vector::variance_of(&mrefs);
        let via_drift = true_variance(&drifts);
        let tol = 1e-3f32 * (1.0 + direct.abs().max(via_drift.abs()));
        assert!(
            (direct - via_drift).abs() <= tol,
            "case {case}: direct {direct} vs drift-form {via_drift}"
        );
    }
}

/// Variance is never negative (it is a mean of squared distances).
#[test]
fn variance_nonnegative() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2D_0000 + case);
        let drifts = random_drifts(&mut rng, 6, 30);
        let d = drifts[0].len();
        let m = ExactMonitor::new(d);
        let states: Vec<LocalState> = drifts.iter().map(|u| m.local_state(u)).collect();
        let est = m.estimate(&LocalState::average(&states));
        assert!(
            est >= -1e-2,
            "case {case}: exact variance estimate {est} < 0"
        );
    }
}

/// Theorem 3.2: LinearFDA's H is an over-estimate for ANY unit ξ.
#[test]
fn linear_h_dominates_variance() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3D_0000 + case);
        let drifts = random_drifts(&mut rng, 5, 30);
        let d = drifts[0].len();
        let mut monitor = LinearMonitor::new();
        // Build an arbitrary ξ via the sync hook.
        let mut w_new = vec![0.0f32; d];
        rng.fill_uniform(&mut w_new, -1.0, 1.0);
        let w_prev = vec![0.0f32; d];
        monitor.on_sync(&w_new, &w_prev);
        let states: Vec<LocalState> = drifts.iter().map(|u| monitor.local_state(u)).collect();
        let est = monitor.estimate(&LocalState::average(&states));
        let truth = true_variance(&drifts);
        assert!(
            est >= truth - 2e-3 * (1.0 + truth.abs()),
            "case {case}: H = {est} < Var = {truth}"
        );
    }
}

/// AMS sketch linearity: sk(αa + βb) = α·sk(a) + β·sk(b).
#[test]
fn sketch_linearity() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4D_0000 + case);
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        rng.fill_uniform(&mut a, -5.0, 5.0);
        rng.fill_uniform(&mut b, -5.0, 5.0);
        let alpha = rng.uniform_f32() * 4.0 - 2.0;
        let beta = rng.uniform_f32() * 4.0 - 2.0;
        let plan = SketchConfig::new(3, 16, 99).build_plan(64);
        let combo: Vec<f32> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| alpha * x + beta * y)
            .collect();
        let direct = plan.sketch(&combo);
        let (sk_a, sk_b) = (plan.sketch(&a), plan.sketch(&b));
        let lin = sk_a.as_slice().iter().zip(sk_b.as_slice());
        let lin: Vec<f32> = lin.map(|(x, y)| alpha * x + beta * y).collect();
        for (x, y) in direct.as_slice().iter().zip(&lin) {
            assert!(
                (x - y).abs() <= 1e-3 * (1.0 + x.abs()),
                "case {case}: {x} vs {y}"
            );
        }
    }
}

/// Partitioners produce an exact, disjoint cover for every scheme.
#[test]
fn partitions_exactly_cover() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5D_0000 + case);
        let n = 30 + (rng.next_u64() as usize) % 170;
        let k = 2 + (rng.next_u64() as usize) % 6;
        let scheme = (rng.next_u64() as usize) % 3;
        let seed = rng.next_u64() % 1000;
        let classes = 5;
        let x = Matrix::zeros(n, 2);
        let y: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let dataset = Dataset::new(x, y, classes);
        let partition = match scheme {
            0 => Partition::Iid,
            1 => Partition::NonIidPercent(0.6),
            _ => Partition::NonIidLabel(0),
        };
        let shards = partition.shards(&dataset, k, seed);
        assert_eq!(shards.len(), k, "case {case}");
        let mut all: Vec<usize> = shards.iter().flatten().cloned().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(all, expect, "case {case}: shards must cover 0..{n} exactly");
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "case {case}: empty shard"
        );
    }
}

/// Layout conversion round trip: `to_sample_major ∘ to_channel_major = id`
/// (and the inverse composition) over random batch/channel/spatial shapes —
/// the invariant the conv-stack layout boundary rests on.
#[test]
fn layout_conversion_round_trips() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x7D_0000 + case);
        let batch = 1 + (rng.next_u64() % 9) as usize;
        let c = 1 + (rng.next_u64() % 6) as usize;
        let spatial = 1 + (rng.next_u64() % 40) as usize;
        let sm = Matrix::random_normal(batch, c * spatial, 0.0, 1.0, &mut rng);
        let cm = sm.to_channel_major(c);
        assert_eq!(
            (cm.rows(), cm.cols()),
            (c, batch * spatial),
            "case {case}: channel-major shape"
        );
        assert_eq!(
            cm.to_sample_major(batch),
            sm,
            "case {case}: to_sample_major ∘ to_channel_major != id"
        );
        let cm2 = Matrix::random_normal(c, batch * spatial, 0.0, 1.0, &mut rng);
        assert_eq!(
            cm2.to_sample_major(batch).to_channel_major(c),
            cm2,
            "case {case}: to_channel_major ∘ to_sample_major != id"
        );
        // Spot-check the defining element mapping on one random entry.
        let (s, ch, p) = (
            (rng.next_u64() as usize) % batch,
            (rng.next_u64() as usize) % c,
            (rng.next_u64() as usize) % spatial,
        );
        assert_eq!(
            sm.get(s, ch * spatial + p).to_bits(),
            cm.get(ch, s * spatial + p).to_bits(),
            "case {case}: element mapping"
        );
    }
}

/// im2col/col2im round trip through the adjoint identity
/// `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩` over random conv geometries and batch
/// sizes — the property that makes the conv input-gradient exact under the
/// channel-major layout.
#[test]
fn im2col_col2im_adjoint_random_geometries() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8D_0000 + case);
        let (in_shape, oc, k, pad) = random_conv(&mut rng);
        let batch = 1 + (rng.next_u64() % 5) as usize;
        let mut conv = Conv2d::new(in_shape, oc, k, pad, Init::HeNormal, &mut rng);
        let mut x = Matrix::zeros(in_shape.c, batch * in_shape.spatial());
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let col = conv.im2col_batch(&x);
        let mut y = Matrix::zeros(col.rows(), col.cols());
        rng.fill_normal(y.as_mut_slice(), 0.0, 1.0);
        let forward_ip_f64: f64 = col
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let back = conv.col2im_batch(&y);
        let backward_ip_f64: f64 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let tol = 1e-4 * (1.0 + forward_ip_f64.abs());
        assert!(
            (forward_ip_f64 - backward_ip_f64).abs() < tol,
            "case {case} ({in_shape:?} k={k} pad={pad} batch={batch}): \
             ⟨im2col(x), y⟩ = {forward_ip_f64} vs ⟨x, col2im(y)⟩ = {backward_ip_f64}"
        );
    }
}

/// The precomputed copy-run plan covers **exactly** the in-bounds
/// (kernel-position × output-position) pairs, each exactly once
/// (disjointness in the column matrix, correct source offsets), and never
/// references a padded position — the invariant that lets `cols` keep its
/// padded zeros untouched across steps.
#[test]
fn im2col_plan_coverage_and_disjointness() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x9D_0000 + case);
        let (in_shape, oc, k, pad) = random_conv(&mut rng);
        let conv = Conv2d::new(in_shape, oc, k, pad, Init::HeNormal, &mut rng);
        let Shape3 { c, h, w } = in_shape;
        let out = conv.out_shape();
        let (oh, ow) = (out.h, out.w);
        // covered[row][out_pos] = Some(src) once a run writes it.
        let rows = c * k * k;
        let mut covered: Vec<Vec<Option<usize>>> = vec![vec![None; oh * ow]; rows];
        for (row, src_ch, dst, src, len) in conv.plan_runs() {
            assert!(row < rows, "case {case}: cols row {row} out of range");
            assert_eq!(
                src_ch,
                row / (k * k),
                "case {case}: run channel must match its cols row"
            );
            for off in 0..len {
                assert!(dst + off < oh * ow, "case {case}: dst overflow");
                assert!(src + off < h * w, "case {case}: src overflow");
                assert!(
                    covered[row][dst + off].replace(src + off).is_none(),
                    "case {case}: position ({row}, {}) written twice",
                    dst + off
                );
            }
        }
        // Every in-bounds pair covered with the right source; every
        // padded pair untouched.
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ch * k + ky) * k + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = oy as isize + ky as isize - pad as isize;
                            let ix = ox as isize + kx as isize - pad as isize;
                            let in_bounds =
                                iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            let got = covered[row][oy * ow + ox];
                            if in_bounds {
                                assert_eq!(
                                    got,
                                    Some(iy as usize * w + ix as usize),
                                    "case {case} ({in_shape:?} k={k} pad={pad}): \
                                     wrong source for row {row}, out ({oy},{ox})"
                                );
                            } else {
                                assert_eq!(
                                    got, None,
                                    "case {case}: padded position written \
                                     (row {row}, out ({oy},{ox}))"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A random local state covering all three summary tags, including the
/// degenerate shapes a generic transport must survive: empty sketches
/// (zero rows and/or zero cols) and length-0 exact drifts.
fn random_state(rng: &mut Rng) -> LocalState {
    let drift_sq_norm = rng.uniform_f32() * 100.0;
    let summary = match rng.next_u64() % 3 {
        0 => StateSummary::Linear(rng.uniform_f32() * 4.0 - 2.0),
        1 => {
            // 1-in-4 cases degenerate to an empty dimension.
            let rows = if rng.next_u64().is_multiple_of(4) {
                0
            } else {
                1 + (rng.next_u64() % 5) as usize
            };
            let cols = if rng.next_u64().is_multiple_of(4) {
                0
            } else {
                1 + (rng.next_u64() % 17) as usize
            };
            let mut sk = AmsSketch::zeros(rows, cols);
            rng.fill_uniform(sk.as_mut_slice(), -3.0, 3.0);
            StateSummary::Sketch(sk)
        }
        _ => {
            let len = (rng.next_u64() % 40) as usize; // includes 0
            let mut v = vec![0.0f32; len];
            rng.fill_uniform(&mut v, -3.0, 3.0);
            StateSummary::Exact(v)
        }
    };
    LocalState {
        drift_sq_norm,
        summary,
    }
}

/// Decode fuzz: random byte soup and random mutations of valid encodings
/// must always return `Ok`/`Err` — never panic, never size memory from
/// the buffer (a hostile length header claiming gigabytes dies at the
/// shape check as `Malformed`). Every buffer goes through the coded
/// decoders against the template of each base; the decoders are exercised
/// by *calling* them, so a panic or an OOM abort fails the test run
/// itself.
#[test]
fn wire_decoders_are_total_under_fuzz() {
    use fda::comm::Dense32;
    let mut rng = Rng::new(0xC1_0000);
    let job = wire::JobSpec {
        cluster: fda::core::cluster::ClusterConfig::small_test(3),
        fda: fda::core::fda::FdaConfig::sketch_auto(0.01),
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps: 9,
        synth: fda::data::synth::SynthSpec::synth_mnist(),
        task_name: "fuzz".to_string(),
    };
    let templates = [
        LinearMonitor::new().local_state(&[1.0, -2.0, 0.5]),
        SketchMonitor::new(SketchConfig::new(3, 8, 5), 16)
            .local_state(&(0..16).map(|i| i as f32).collect::<Vec<_>>()),
        ExactMonitor::new(10).local_state(&[0.25; 10]),
    ];
    let vector = [1.0, 2.0, 3.0];
    let mut valid: Vec<Vec<u8>> = templates
        .iter()
        .map(|t| wire::encode_state_coded(t, &Dense32))
        .collect();
    valid.push(wire::encode_vector_coded(&vector, &Dense32));
    valid.push(wire::encode_job(&job));
    let decode_all = |buf: &[u8]| {
        for template in &templates {
            let _ = wire::decode_state_coded(buf, template, &Dense32);
        }
        let _ = wire::decode_vector_coded(buf, vector.len(), &Dense32);
        let _ = wire::decode_job(buf);
    };
    // Pure byte soup.
    for _ in 0..4 * CASES {
        let len = (rng.next_u64() % 96) as usize;
        let buf: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        decode_all(&buf);
    }
    // Mutations of valid frames: single-byte flips, truncations, trailing
    // garbage, and hostile length headers spliced into real encodings.
    for base in &valid {
        for _ in 0..CASES {
            let mut buf = base.clone();
            match rng.next_u64() % 4 {
                0 => {
                    let i = (rng.next_u64() as usize) % buf.len();
                    buf[i] ^= 1 << (rng.next_u64() % 8);
                }
                1 => {
                    let cut = (rng.next_u64() as usize) % (buf.len() + 1);
                    buf.truncate(cut);
                }
                2 => buf.push((rng.next_u64() & 0xFF) as u8),
                _ => {
                    // Overwrite 4 bytes somewhere with u32::MAX — the
                    // hostile-length shape.
                    if buf.len() >= 4 {
                        let i = (rng.next_u64() as usize) % (buf.len() - 3);
                        buf[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    }
                }
            }
            decode_all(&buf);
        }
    }
    // The canonical hostile headers, explicitly: refused at the shape
    // check.
    let mut sketch_bomb = vec![1u8, 0, 0, 0, 0];
    sketch_bomb.extend_from_slice(&u16::MAX.to_le_bytes());
    sketch_bomb.extend_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(
        wire::decode_state_coded(&sketch_bomb, &templates[1], &Dense32),
        Err(wire::DecodeError::Malformed(_))
    ));
    let mut exact_bomb = vec![2u8, 0, 0, 0, 0];
    exact_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        wire::decode_state_coded(&exact_bomb, &templates[2], &Dense32),
        Err(wire::DecodeError::Malformed(_))
    ));
    assert!(matches!(
        wire::decode_vector_coded(&u32::MAX.to_le_bytes(), vector.len(), &Dense32),
        Err(wire::DecodeError::Malformed(_))
    ));
}

/// A degenerate job is refused at every entrance — bytes on the wire, the
/// coordinator API, the CLI — instead of reaching an `assert!` inside a
/// driver: overwriting the `workers` / `steps` / `batch_size` field of an
/// encoded job with an out-of-range value must decode to `Err`.
#[test]
fn degenerate_jobs_are_refused_at_every_entrance() {
    use fda::net::{Coordinator, NetError};
    let job = wire::JobSpec {
        cluster: fda::core::cluster::ClusterConfig::small_test(3),
        fda: fda::core::fda::FdaConfig::linear(0.01),
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps: 9,
        synth: fda::data::synth::SynthSpec {
            n_train: 240,
            n_test: 80,
            ..fda::data::synth::SynthSpec::synth_mnist()
        },
        task_name: "degenerate".to_string(),
    };
    let bytes = wire::encode_job(&job);
    assert!(wire::decode_job(&bytes).is_ok());
    // Where a u32 field sits in the frame: the first byte that moves when
    // every bit of the field is inverted.
    let offset_of = |invert: fn(&mut wire::JobSpec)| {
        let mut other = job.clone();
        invert(&mut other);
        let moved = wire::encode_job(&other);
        (0..bytes.len()).find(|&i| bytes[i] != moved[i]).unwrap()
    };
    let workers_at = offset_of(|j| j.cluster.workers ^= 0xFFFF_FFFF);
    let steps_at = offset_of(|j| j.steps ^= 0xFFFF_FFFF);
    let batch_at = offset_of(|j| j.cluster.batch_size ^= 0xFFFF_FFFF);
    let mut rng = Rng::new(0xDE6E_0000);
    let mut hostile: Vec<(usize, u32)> = vec![(workers_at, 0), (steps_at, 0), (batch_at, 0)];
    for _ in 0..CASES {
        // More workers than samples: some shard would be empty.
        hostile.push((workers_at, 241 + (rng.next_u64() % (1 << 31)) as u32));
    }
    for (at, value) in hostile {
        let mut buf = bytes.clone();
        buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
        assert!(
            matches!(wire::decode_job(&buf), Err(wire::DecodeError::Malformed(_))),
            "config frame with {value} at byte {at} must be refused"
        );
    }
    // A sketch no frame could carry, or with more rows than a plan table
    // may hold: the variant's u16 dims, overwritten in the frame.
    let mut sketch_job = job.clone();
    sketch_job.fda = fda::core::fda::FdaConfig {
        variant: fda::core::fda::FdaVariant::Sketch(SketchConfig::new(5, 250, 1)),
        theta: 0.01,
    };
    let sketch_bytes = wire::encode_job(&sketch_job);
    assert!(wire::decode_job(&sketch_bytes).is_ok());
    let dims_at = (0..sketch_bytes.len())
        .find(|&i| sketch_bytes[i..].starts_with(&[5, 0, 250, 0]))
        .unwrap();
    let too_many_rows = wire::MAX_SKETCH_ROWS as u16 + 1;
    for (rows, cols) in [(65_535u16, 65_535u16), (too_many_rows, 250), (65_535, 1)] {
        let mut buf = sketch_bytes.clone();
        buf[dims_at..dims_at + 2].copy_from_slice(&rows.to_le_bytes());
        buf[dims_at + 2..dims_at + 4].copy_from_slice(&cols.to_le_bytes());
        assert!(
            matches!(wire::decode_job(&buf), Err(wire::DecodeError::Malformed(_))),
            "config frame asking for a {rows}x{cols} sketch must be refused"
        );
    }
    // A task the model cannot take: one class, more classes than outputs,
    // a spatial shape that does not flatten to the width, another width.
    use fda::data::synth::SynthSpec;
    let transfer_task = SynthSpec {
        n_train: 240,
        ..SynthSpec::synth_cifar100_features()
    };
    let task = |f: fn(&mut SynthSpec)| {
        let mut synth = job.synth;
        f(&mut synth);
        synth
    };
    let mismatched = [
        task(|s| s.classes = 1),
        task(|s| s.classes = 11),
        task(|s| s.spatial = Some((1, 12, 13))),
        transfer_task,
    ];
    for synth in mismatched {
        let bytes = wire::encode_job(&wire::JobSpec {
            synth,
            ..job.clone()
        });
        assert!(
            matches!(
                wire::decode_job(&bytes),
                Err(wire::DecodeError::Malformed(_))
            ),
            "a LeNet job on {synth:?} must be refused"
        );
    }
    let mut transfer = job.clone();
    (transfer.cluster.model, transfer.synth) = (fda::nn::zoo::ModelId::TransferHead, transfer_task);
    assert!(wire::decode_job(&wire::encode_job(&transfer)).is_ok());

    // The coordinator API refuses before it waits for anyone.
    for degenerate in [
        wire::JobSpec {
            steps: 0,
            ..job.clone()
        },
        wire::JobSpec {
            cluster: fda::core::cluster::ClusterConfig {
                workers: 0,
                ..job.cluster.clone()
            },
            ..job.clone()
        },
    ] {
        let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
        assert!(matches!(
            coordinator.run(&degenerate),
            Err(NetError::Protocol(_))
        ));
    }

    // The CLI refuses before it binds: a usage error, exit code 2.
    for args in [
        &["coordinator", "--workers", "0"][..],
        &["demo", "--workers", "2", "--steps", "0"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fda_node"))
            .args(args)
            .output()
            .expect("spawn fda_node");
        assert_eq!(out.status.code(), Some(2), "fda_node {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("invalid job"));
    }
}

// ---------------------------------------------------------------------------
// Transport frames: checksummed, epoch-stamped, hostile-input-total
// ---------------------------------------------------------------------------

/// A random frame covering every frame kind the transport ships: the
/// control frames (extended hello, shutdown) and the raw payloads that
/// carry `f32` runs (a state deposit, the averaged state + decision, a
/// model upload, a dense consensus broadcast, the final model, the
/// versioned `Resume` handoff with and without a previous model).
fn random_frame(rng: &mut Rng) -> (FrameKind, Vec<u8>) {
    use fda::comm::Dense32;
    use fda::net::{Hello, PROTOCOL_VERSION};
    let vector = |rng: &mut Rng, len: usize, out: &mut Vec<u8>| {
        let mut v = vec![0.0f32; len];
        rng.fill_uniform(&mut v, -4.0, 4.0);
        wire::encode_vector_coded_into(&v, &Dense32, out);
    };
    let mut p = Vec::new();
    let len = (rng.next_u64() % 60) as usize;
    let kind = match rng.next_u64() % 8 {
        0 => {
            let hello = Hello {
                version: PROTOCOL_VERSION,
                worker_id: (rng.next_u64() % 64) as u32,
                last_epoch: (rng.next_u64() % 1000) as u32,
            };
            return (FrameKind::Hello, hello.encode().to_vec());
        }
        1 => {
            wire::encode_state_coded_into(&random_state(rng), &Dense32, &mut p);
            FrameKind::State
        }
        2 => {
            p.push((rng.next_u64() % 2) as u8);
            wire::encode_state_coded_into(&random_state(rng), &Dense32, &mut p);
            FrameKind::AvgState
        }
        3 => {
            vector(rng, len, &mut p);
            FrameKind::Model
        }
        4 => {
            vector(rng, len, &mut p);
            FrameKind::AvgModel
        }
        5 => {
            vector(rng, len, &mut p);
            FrameKind::FinalModel
        }
        6 => {
            let has_prev = rng.next_u64().is_multiple_of(2);
            p.extend_from_slice(&((rng.next_u64() % 500) as u32).to_le_bytes());
            p.push(has_prev as u8);
            for _ in 0..1 + has_prev as usize {
                vector(rng, len, &mut p);
            }
            FrameKind::Resume
        }
        _ => return (FrameKind::Shutdown, Vec::new()),
    };
    (kind, p)
}

/// One frame off `bytes` with an owned payload, through the one reader.
fn read_frame(bytes: &[u8]) -> Result<(FrameKind, u32, Vec<u8>), fda::net::NetError> {
    let mut buf = Vec::new();
    let (kind, epoch) =
        fda::net::frame::read_frame_into(&mut std::io::Cursor::new(bytes), &mut buf)?;
    Ok((kind, epoch, buf.split_off(1)))
}

/// Every frame — extended hello and `Resume` included — must survive
/// `write → read` with its kind, epoch stamp and payload intact; a hello
/// must re-encode to the exact same frame bytes (the transport's framing
/// invariant, over the epoch-stamped checksummed header), and every frame
/// goes through the hello and job decoders, which refuse all but a hello.
#[test]
fn frame_msg_roundtrip_preserves_epoch_and_bytes() {
    use fda::net::frame::write_frame;
    use fda::net::Hello;
    for case in 0..CASES {
        let mut rng = Rng::new(0xD1_0000 + case);
        let (kind, payload) = random_frame(&mut rng);
        let epoch = (rng.next_u64() % 10_000) as u32;
        let mut bytes: Vec<u8> = Vec::new();
        write_frame(&mut bytes, epoch, kind, &payload).expect("encode");
        let (back_kind, back_epoch, back) = read_frame(&bytes).expect("decode");
        assert_eq!(back_epoch, epoch, "case {case}: epoch stamp changed");
        assert_eq!(back_kind, kind, "case {case}: kind changed");
        assert_eq!(back, payload, "case {case}: payload changed");
        // A hello re-encodes to the same frame; no other frame is one,
        // and none is a job.
        match Hello::decode(back_kind, &back) {
            Ok(hello) => {
                let mut re: Vec<u8> = Vec::new();
                write_frame(&mut re, epoch, kind, &hello.encode()).expect("re-encode");
                assert_eq!(re, bytes, "case {case}: re-encode not byte-identical");
            }
            Err(_) => assert_ne!(
                kind,
                FrameKind::Hello,
                "case {case}: a hello did not decode"
            ),
        }
        assert!(
            wire::decode_job(&back).is_err(),
            "case {case}: a {kind:?} payload decoded as a job"
        );
        // Any strict truncation of the stream must fail cleanly, and a
        // truncation that cuts the payload (past the checksummed header's
        // length field) must look like a disconnect, never decode.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                read_frame(&bytes[..cut]).is_err(),
                "case {case}: cut at {cut} decoded"
            );
        }
    }
}

/// Frame-level decode totality: byte soup and random mutations of valid
/// frames through the frame reader must return `Ok`/`Err`, never panic,
/// and a mutated frame body must never pass the checksum silently.
#[test]
fn frame_reader_is_total_and_checksummed_under_fuzz() {
    use fda::net::frame::encode_frame;
    let mut rng = Rng::new(0xE1_0000);
    // Pure byte soup.
    for _ in 0..4 * CASES {
        let len = (rng.next_u64() % 80) as usize;
        let buf: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let _ = read_frame(&buf);
    }
    // Single-byte mutations of valid frames: any flip past the length
    // field must be rejected (checksum); flips inside the length field
    // must never decode to the original payload.
    for case in 0..CASES {
        let mut inner = Rng::new(0xE2_0000 + case);
        let (kind, payload) = random_frame(&mut inner);
        let frame = encode_frame((inner.next_u64() % 100) as u32, kind, &payload).unwrap();
        let i = (inner.next_u64() as usize) % frame.len();
        let mut corrupt = frame.clone();
        corrupt[i] ^= 1 << (inner.next_u64() % 8);
        match read_frame(&corrupt) {
            Err(_) => {}
            Ok((k, _, p)) => {
                assert!(
                    i < 4 && !(k == kind && p == payload),
                    "case {case}: flipped byte {i} decoded to the original frame"
                );
            }
        }
        // FrameKind bytes outside the enum must be rejected even with a
        // valid checksum (splice an unknown kind and re-checksum).
        let unknown = 200 + (inner.next_u64() % 50) as u8;
        let mut spliced = Vec::with_capacity(frame.len());
        let epoch_bytes = &frame[4..8];
        let crc = fda::net::frame::checksum(&[epoch_bytes, &[unknown], &payload]);
        spliced.extend_from_slice(&frame[0..4]);
        spliced.extend_from_slice(epoch_bytes);
        spliced.extend_from_slice(&crc.to_le_bytes());
        spliced.push(unknown);
        spliced.extend_from_slice(&payload);
        assert!(
            read_frame(&spliced).is_err(),
            "case {case}: unknown kind {unknown} decoded"
        );
    }
}

/// The zombie filter: frames spliced in from older epochs are skipped (up
/// to the flood bound), the current-epoch frame behind them is delivered
/// intact, and future-epoch frames are protocol violations.
#[test]
fn spliced_stale_epoch_frames_are_rejected() {
    use fda::comm::Dense32;
    use fda::net::frame::read_frame_into;
    use fda::net::frame::write_frame;
    use fda::net::machine::check_epoch;
    use fda::net::{NetError, MAX_STALE_FRAMES};
    // The coordinator machine's epoch rule over one stream: the first
    // frame it delivers.
    let recv = |stream: &[u8], epoch: u32| {
        let (mut r, mut buf, mut stale) = (std::io::Cursor::new(stream), Vec::new(), 0);
        loop {
            let (kind, frame_epoch) = read_frame_into(&mut r, &mut buf)?;
            if check_epoch(frame_epoch, epoch, &mut stale)? {
                return Ok::<_, NetError>((kind, buf.split_off(1)));
            }
        }
    };
    for case in 0..CASES {
        let mut rng = Rng::new(0xF1_0000 + case);
        let current = 2 + (rng.next_u64() % 1000) as u32;
        let stale_count = (rng.next_u64() % u64::from(MAX_STALE_FRAMES + 1)) as u32;
        let mut stream: Vec<u8> = Vec::new();
        // A zombie's leftovers: deposits stamped with earlier epochs.
        for _ in 0..stale_count {
            let stale_epoch = rng.next_u64() as u32 % current;
            let deposit = wire::encode_state_coded(&random_state(&mut rng), &Dense32);
            write_frame(&mut stream, stale_epoch, FrameKind::State, &deposit)
                .expect("encode stale");
        }
        let live = [1.5f32, -2.5, 3.5];
        let live_frame = wire::encode_vector_coded(&live, &Dense32);
        write_frame(&mut stream, current, FrameKind::FinalModel, &live_frame).expect("encode live");
        match recv(&stream, current) {
            Ok((FrameKind::FinalModel, p)) => assert_eq!(
                wire::decode_vector_coded(&p, live.len(), &Dense32),
                Ok(live.to_vec()),
                "case {case}: live frame mangled"
            ),
            other => panic!("case {case}: expected the live model, got {other:?}"),
        }

        // A future epoch is a protocol violation — only the coordinator
        // advances the epoch.
        let mut stream: Vec<u8> = Vec::new();
        let future = current + 1 + rng.next_u64() as u32 % 50;
        write_frame(&mut stream, future, FrameKind::FinalModel, &live_frame)
            .expect("encode future");
        assert!(
            matches!(recv(&stream, current), Err(NetError::Protocol(_))),
            "case {case}: future epoch accepted"
        );
    }
    // The flood bound: one more stale frame than the filter tolerates.
    let mut stream: Vec<u8> = Vec::new();
    for _ in 0..(MAX_STALE_FRAMES + 1) {
        write_frame(&mut stream, 1, FrameKind::Shutdown, &[]).expect("encode");
    }
    write_frame(&mut stream, 5, FrameKind::Shutdown, &[]).expect("encode");
    assert!(
        matches!(recv(&stream, 5), Err(NetError::Protocol(_))),
        "a stale flood must not be skipped forever"
    );
}

// ---------------------------------------------------------------------------
// SIMD kernel dispatch arms
// ---------------------------------------------------------------------------

/// `out += op(A)·op(B)` reference in f64 (the tolerance anchor: summing in
/// f64 removes the reference's own rounding from the error budget).
fn gemm_ref_f64(
    m: usize,
    n: usize,
    k: usize,
    a: &Matrix,
    b: &Matrix,
    at: bool,
    bt: bool,
) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f64;
            for p in 0..k {
                let av = if at { a.get(p, i) } else { a.get(i, p) };
                let bv = if bt { b.get(j, p) } else { b.get(p, j) };
                s += av as f64 * bv as f64;
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Every kernel arm the host supports drives all three GEMM entry points
/// to the naive/f64 reference over random geometries — including ragged
/// K/N tails not divisible by any arm's lane or tile width, the
/// small-GEMM fallback region, and the KC panel boundary.
#[test]
fn dispatched_gemm_matches_reference_under_every_kernel_arm() {
    use fda::tensor::matrix::{
        gemm_a_bt_accumulate_with_kernel, gemm_accumulate_with_kernel,
        gemm_at_b_accumulate_with_kernel, Scratch,
    };
    use fda::tensor::simd;
    let mut rng = Rng::new(0x51_3D00);
    // Fixed geometries straddling tile boundaries of every arm (mr ∈
    // {4, 6, 8}, nr ∈ {16, 32}, KC = 256), plus random fuzz.
    let mut shapes = vec![
        (1usize, 1usize, 1usize),
        (8, 32, 256),   // exact AVX-512 tiles, one full panel
        (6, 16, 64),    // exact AVX2 tile
        (9, 33, 257),   // +1 off every boundary
        (7, 31, 255),   // −1 off every boundary
        (65, 100, 300), // KC-spanning with ragged everything
        (16, 120, 432), // LeNet dense forward shape
        (130, 47, 260), // tall, blocked-driver path
    ];
    for _ in 0..24 {
        shapes.push((
            1 + (rng.next_u64() % 70) as usize,
            1 + (rng.next_u64() % 140) as usize,
            1 + (rng.next_u64() % 300) as usize,
        ));
    }
    for &(m, n, k) in &shapes {
        let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        let at = a.transposed();
        let bt = b.transposed();
        let want = gemm_ref_f64(m, n, k, &a, &b, false, false);
        let tol = 1e-5f64 * (1.0 + k as f64).sqrt();
        for kn in simd::all_supported() {
            let mut scratch = Scratch::new();
            let check = |got: &Matrix, label: &str| {
                for (i, (&g, &w)) in got.as_slice().iter().zip(&want).enumerate() {
                    assert!(
                        (g as f64 - w).abs() <= tol * (1.0 + w.abs()),
                        "{} {label} {m}x{k}x{n} elem {i}: {g} vs {w}",
                        kn.name()
                    );
                }
            };
            let mut out = Matrix::zeros(m, n);
            gemm_accumulate_with_kernel(kn, a.view(), b.view(), out.view_mut(), &mut scratch);
            check(&out, "a_b");
            let mut out = Matrix::zeros(m, n);
            gemm_at_b_accumulate_with_kernel(kn, at.view(), b.view(), out.view_mut(), &mut scratch);
            check(&out, "at_b");
            let mut out = Matrix::zeros(m, n);
            gemm_a_bt_accumulate_with_kernel(kn, a.view(), bt.view(), out.view_mut(), &mut scratch);
            check(&out, "a_bt");
        }
    }
}

/// Every kernel arm sketches bit-identically to an independent reference —
/// the f32 ascending-`i` scatter `row[bucket(i)] += ±v[i]`, with each
/// coordinate's bucket and sign read off its unit-vector sketch `sk(e_i)`
/// (exact on any arm: a 1-sparse input collides with nothing) — over
/// random dims with ragged lane tails.
#[test]
fn dispatched_sketch_matches_reference_under_every_kernel_arm() {
    use fda::sketch::AmsSketch;
    use fda::tensor::simd;
    for case in 0..CASES {
        let mut rng = Rng::new(0x5E_7C00 + case);
        // Dims biased onto lane boundaries ±1 (16/32/64 ±1) and odd sizes.
        let dim = match case % 4 {
            0 => 1 + (rng.next_u64() % 200) as usize,
            1 => 16 * (1 + (rng.next_u64() % 8) as usize),
            2 => 16 * (1 + (rng.next_u64() % 8) as usize) + 1,
            _ => 16 * (1 + (rng.next_u64() % 8) as usize) - 1,
        };
        let rows = 1 + (case as usize % 4);
        let cols = 8 + (rng.next_u64() % 60) as usize;
        let config = SketchConfig::new(rows, cols, 0xC0FE + case);
        let plan = config.build_plan(dim);
        let mut v = vec![0.0f32; dim];
        rng.fill_uniform(&mut v, -5.0, 5.0);
        let mut want = vec![0.0f32; rows * cols];
        let mut unit = vec![0.0f32; dim];
        for i in 0..dim {
            unit[i] = 1.0;
            let sk = plan.sketch(&unit);
            unit[i] = 0.0;
            for (r, row) in sk.as_slice().chunks_exact(cols).enumerate() {
                let hits: Vec<usize> = (0..cols).filter(|&b| row[b] != 0.0).collect();
                assert!(
                    hits.len() == 1 && row[hits[0]].abs() == 1.0,
                    "case {case}: sk(e_{i}) row {r} is not ±1 in one bucket"
                );
                let b = hits[0];
                want[r * cols + b] += if row[b] > 0.0 { v[i] } else { -v[i] };
            }
        }
        for kn in simd::all_supported() {
            let mut got = AmsSketch::zeros(rows, cols);
            plan.sketch_into_with_kernel(kn, &v, &mut got);
            for (i, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "case {case}: arm {} bucket {i} diverged from the scatter (dim {dim})",
                    kn.name()
                );
            }
        }
    }
}

/// The sketch monitor's H is within a controlled band of the exact
/// variance: never wildly below (soundness), never above the trivial bound
/// mean‖u‖² by more than sketch noise (usefulness).
#[test]
fn sketch_h_band() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x6D_0000 + case);
        let drifts = random_drifts(&mut rng, 5, 64);
        let d = drifts[0].len();
        let monitor = SketchMonitor::new(SketchConfig::new(5, 128, 7), d);
        let states: Vec<LocalState> = drifts.iter().map(|u| monitor.local_state(u)).collect();
        let avg = LocalState::average(&states);
        let est = monitor.estimate(&avg);
        let truth = true_variance(&drifts);
        let trivial = avg.drift_sq_norm;
        // Allow generous sketch noise: ε ≈ 1/√128 ≈ 0.09, use 4ε margins.
        let slack = 0.36f32 * trivial.abs().max(1e-3);
        assert!(
            est >= truth - slack,
            "case {case}: est {est} far below Var {truth}"
        );
        assert!(
            est <= trivial + slack,
            "case {case}: est {est} far above trivial bound {trivial}"
        );
    }
}

// ---------------------------------------------------------------------------
// Codec layer: the three contracts every `comm::compress` codec must hold
// (charged = emitted bytes, byte idempotence, total decoding), checked over random
// inputs including non-finite values, plus fuzz over the coded wire frames.
// ---------------------------------------------------------------------------

/// The codec matrix with randomized parameters, rebuilt per case.
fn random_codecs(rng: &mut Rng) -> Vec<Box<dyn fda::comm::Codec>> {
    vec![
        Box::new(fda::comm::Dense32),
        Box::new(fda::comm::Uniform8Bit::new(
            1 + (rng.next_u64() % 96) as usize,
        )),
        Box::new(fda::comm::TopK::new(1 + (rng.next_u64() % 24) as usize)),
        Box::new(fda::comm::DriftMask::new(rng.uniform_f32() * 2.0)),
    ]
}

/// A random payload vector; some cases carry NaN (varied bit patterns),
/// ±inf and −0.0 — a codec must survive all of them.
fn random_payload(rng: &mut Rng) -> Vec<f32> {
    let n = (rng.next_u64() % 160) as usize; // includes 0
    let mut v = vec![0.0f32; n];
    rng.fill_uniform(&mut v, -4.0, 4.0);
    if rng.next_u64().is_multiple_of(3) {
        for x in v.iter_mut() {
            match rng.next_u64() % 8 {
                0 => *x = f32::from_bits(0x7FC1_2345), // payload-carrying NaN
                1 => *x = f32::from_bits(0xFFC0_0042), // negative NaN
                2 => *x = f32::INFINITY,
                3 => *x = f32::NEG_INFINITY,
                4 => *x = -0.0,
                _ => {}
            }
        }
    }
    v
}

/// Contracts 2 + 3 for every codec: decode of own output succeeds, the
/// allocation-free pair the simulator runs (`encode_into` +
/// `decode_into`) gives the same bytes and bits as the allocating
/// wrappers, and `encode(decode(encode(v)))` is byte-identical to
/// `encode(v)` — the fixed-point property that makes sim charging equal
/// socket measurement.
#[test]
fn codec_encode_decode_encode_byte_identity() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xD2_0000 + case);
        let v = random_payload(&mut rng);
        for codec in random_codecs(&mut rng) {
            let name = codec.name();
            let enc = codec.encode(&v);
            let dec = codec
                .decode(&enc, v.len())
                .unwrap_or_else(|e| panic!("case {case} {name}: decode own output: {e}"));
            assert_eq!(dec.len(), v.len(), "case {case} {name}: length changed");
            let enc2 = codec.encode(&dec);
            assert_eq!(
                enc2, enc,
                "case {case} {name}: encode∘decode∘encode not byte-identical"
            );
            // The simulator's in-place round trip: same bytes, same bits.
            let mut scratch = vec![0xAB];
            codec.encode_into(&v, &mut scratch);
            assert_eq!(
                scratch[1..],
                enc,
                "case {case} {name}: encode_into != encode"
            );
            let mut rt = vec![7.0f32; v.len()];
            codec
                .decode_into(&enc, &mut rt)
                .unwrap_or_else(|e| panic!("case {case} {name}: decode_into own output: {e}"));
            assert_eq!(
                rt.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                dec.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "case {case} {name}: decode_into != decode"
            );
        }
    }
}

/// Contract 3: decoders are total. Byte soup, strict truncations of valid
/// encodings, and random single-byte mutations must return `Ok`/`Err` —
/// never panic, never allocate past what the claimed `n` backs.
#[test]
fn codec_decoders_are_total_under_fuzz() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xE2_0000 + case);
        let v = random_payload(&mut rng);
        for codec in random_codecs(&mut rng) {
            let enc = codec.encode(&v);
            // Strict truncations at every boundary.
            for cut in 0..enc.len() {
                let _ = codec.decode(&enc[..cut], v.len());
            }
            // Mutations: byte flips, trailing garbage, hostile n claims.
            for _ in 0..8 {
                let mut buf = enc.clone();
                match rng.next_u64() % 3 {
                    0 if !buf.is_empty() => {
                        let i = (rng.next_u64() as usize) % buf.len();
                        buf[i] ^= (rng.next_u64() % 255 + 1) as u8;
                    }
                    1 => buf.extend_from_slice(&[0xAB; 7]),
                    _ => {}
                }
                let _ = codec.decode(&buf, v.len());
                let _ = codec.decode(&buf, v.len().wrapping_add(1));
                // `n` is caller knowledge (trusted), but a wildly wrong
                // claim must still fail cleanly, never read out of bounds.
                let _ = codec.decode(&buf, 1 << 20);
            }
            // Pure soup.
            let len = (rng.next_u64() % 64) as usize;
            let soup: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            let _ = codec.decode(&soup, v.len());
        }
    }
}

/// The coded wire frames share the contracts: a coded state/vector frame
/// re-encodes byte-identically after decoding, rejects truncation as far
/// as the format can detect it (every strict cut for the self-delimiting
/// codecs; canonical-form idempotence on the cuts a sparse pair run
/// cannot distinguish from short valid runs), and the coded decoders are
/// total under mutation — with the expected-shape validation (`n` is
/// caller knowledge) doing the pre-allocation bounding.
#[test]
fn coded_wire_frames_roundtrip_and_are_total() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xF2_0000 + case);
        let state = random_state(&mut rng);
        let mut v = vec![0.0f32; (rng.next_u64() % 120) as usize];
        rng.fill_uniform(&mut v, -3.0, 3.0);
        for codec in random_codecs(&mut rng) {
            let name = codec.name();
            let sbytes = wire::encode_state_coded(&state, codec.as_ref());
            let sback = wire::decode_state_coded(&sbytes, &state, codec.as_ref())
                .unwrap_or_else(|e| panic!("case {case} {name}: state decode: {e}"));
            assert_eq!(
                wire::encode_state_coded(&sback, codec.as_ref()),
                sbytes,
                "case {case} {name}: coded state re-encode not byte-identical"
            );
            // Dense and uniform-8bit payloads are self-delimiting (their
            // byte length is a function of the vector length), so every
            // strict truncation must be rejected. The sparse pair format
            // is not: a run cut at a pair boundary is itself a valid,
            // shorter encoding. There the contract is weaker but still
            // sharp — any cut that decodes must be the canonical encoding
            // of what it decoded to (byte idempotence survives cutting).
            let self_delimiting = matches!(name, "dense-f32" | "uniform-8bit");
            for cut in 0..sbytes.len() {
                match wire::decode_state_coded(&sbytes[..cut], &state, codec.as_ref()) {
                    Err(_) => {}
                    Ok(_) if self_delimiting => {
                        panic!("case {case} {name}: state cut at {cut} decoded")
                    }
                    Ok(got) => assert_eq!(
                        wire::encode_state_coded(&got, codec.as_ref()),
                        sbytes[..cut].to_vec(),
                        "case {case} {name}: state cut at {cut} decoded non-canonically"
                    ),
                }
            }
            let vbytes = wire::encode_vector_coded(&v, codec.as_ref());
            let vback = wire::decode_vector_coded(&vbytes, v.len(), codec.as_ref())
                .unwrap_or_else(|e| panic!("case {case} {name}: vector decode: {e}"));
            assert_eq!(
                wire::encode_vector_coded(&vback, codec.as_ref()),
                vbytes,
                "case {case} {name}: coded vector re-encode not byte-identical"
            );
            for cut in 0..vbytes.len() {
                match wire::decode_vector_coded(&vbytes[..cut], v.len(), codec.as_ref()) {
                    Err(_) => {}
                    Ok(_) if self_delimiting => {
                        panic!("case {case} {name}: vector cut at {cut} decoded")
                    }
                    Ok(got) => assert_eq!(
                        wire::encode_vector_coded(&got, codec.as_ref()),
                        vbytes[..cut].to_vec(),
                        "case {case} {name}: vector cut at {cut} decoded non-canonically"
                    ),
                }
            }
            // Mutations stay total (Ok or Err, never panic or huge alloc).
            for _ in 0..6 {
                let mut buf = sbytes.clone();
                if !buf.is_empty() {
                    let i = (rng.next_u64() as usize) % buf.len();
                    buf[i] ^= 0x40;
                }
                let _ = wire::decode_state_coded(&buf, &state, codec.as_ref());
                let mut buf = vbytes.clone();
                if !buf.is_empty() {
                    let i = (rng.next_u64() as usize) % buf.len();
                    buf[i] ^= 0x40;
                }
                let _ = wire::decode_vector_coded(&buf, v.len(), codec.as_ref());
                let _ = wire::decode_vector_coded(&buf, v.len() + 1, codec.as_ref());
            }
        }
    }
}

/// One entry of a `d`-long drift drawn from integers, in the case's
/// `regime`: zeros and subnormals (either sign), moderate values, values
/// whose squares sum to just under `f32::MAX` (so a sketch counter that
/// adds a few of them overflows when squared), or any of those poisoned
/// by NaN and `±∞`.
fn certificate_entry(rng: &mut Rng, regime: u64, d: usize) -> f32 {
    let sign = if rng.next_u64().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    };
    let pick = rng.next_u64() % 8;
    let x = match (regime, pick) {
        (3, 0) => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(rng.next_u64() % 3) as usize],
        (0, 0..=3) | (1, 0) => 0.0,
        (0, _) => f32::from_bits(1 + (rng.next_u64() % 0x007F_FFFF) as u32),
        (2, _) => f32::MAX.sqrt() / (d as f32).sqrt() * (10 + rng.next_u64() % 5) as f32 / 16.0,
        _ => ((rng.next_u64() % 4001) as f32 - 2000.0) / 256.0,
    };
    sign * x
}

/// Phase A's certificate is sound: for every monitor variant (LinearFDA
/// with and without ξ, SketchFDA, the exact oracle), on a dense or coded
/// uplink, whenever the mean drift scalar certifies, `H(S̄)` does not
/// violate Θ. Inputs come from integers: ±0 and subnormals, Θ ∈ {0,
/// f32::MAX, +∞} or a power of two, NaN and ±∞ drifts (which must fall
/// through), and drifts large enough that the sketch term overflows to
/// `+∞` — where `m ≤ Θ` alone would be wrong, and the certificate must
/// refuse.
#[test]
fn certificate_never_hides_a_violation() {
    use fda::core::fda::violates;
    use fda::core::round::certifies;
    let (mut certified, mut refused_overflow) = (0, 0);
    for case in 0..4 * CASES {
        let mut rng = Rng::new(0xCE27_0000 + case);
        let (k, d) = (
            1 + (rng.next_u64() % 4) as usize,
            1 + (rng.next_u64() % 24) as usize,
        );
        let regime = rng.next_u64() % 4;
        let drifts: Vec<Vec<f32>> = (0..k)
            .map(|_| {
                (0..d)
                    .map(|_| certificate_entry(&mut rng, regime, d))
                    .collect()
            })
            .collect();
        let mut linear_xi = LinearMonitor::new();
        let w: Vec<Vec<f32>> = (0..2)
            .map(|_| (0..d).map(|_| certificate_entry(&mut rng, 1, d)).collect())
            .collect();
        linear_xi.on_sync(&w[0], &w[1]);
        let (rows, cols) = (1 + 2 * (rng.next_u64() % 2), 1 + rng.next_u64() % 4);
        let monitors: Vec<Box<dyn VarianceMonitor>> = vec![
            Box::new(LinearMonitor::new()),
            Box::new(linear_xi),
            Box::new(SketchMonitor::new(
                SketchConfig::new(rows as usize, cols as usize, case),
                d,
            )),
            Box::new(ExactMonitor::new(d)),
        ];
        let exponent = (rng.next_u64() % 260) as i32 - 130;
        let thetas = [0.0, f32::MAX, f32::INFINITY, 2f32.powi(exponent)];
        let codecs = random_codecs(&mut rng);
        for monitor in &monitors {
            for codec in &codecs {
                let states: Vec<LocalState> = drifts
                    .iter()
                    .map(|u| {
                        let mut s = monitor.local_state(u);
                        let mut enc = Vec::new();
                        codec.encode_into(s.summary_slice(), &mut enc);
                        let decoded = codec.decode_into(&enc, s.summary_slice_mut());
                        decoded.expect("a codec decodes its own output");
                        s
                    })
                    .collect();
                let avg = LocalState::average(&states);
                let (m, h) = (avg.drift_sq_norm, monitor.estimate(&avg));
                for theta in thetas {
                    let why = format!(
                        "case {case}: {} / {} K = {k} d = {d}, m = {m}, H = {h}, Θ = {theta}",
                        monitor.name(),
                        codec.name()
                    );
                    if !m.is_finite() {
                        assert!(!certifies(m, theta, &avg, d), "{why}: must fall through");
                    } else if certifies(m, theta, &avg, d) {
                        assert!(!violates(h, theta), "{why}: certified a violation");
                        certified += 1;
                    } else if m <= theta && violates(h, theta) {
                        refused_overflow += 1;
                    }
                }
            }
        }
    }
    for (m, theta) in [(f32::NAN, f32::INFINITY), (f32::INFINITY, f32::INFINITY)] {
        let shape = LinearMonitor::new().local_state(&[0.0]);
        assert!(!certifies(m, theta, &shape, 1), "{m} ≤ {theta}");
        assert!(!certifies(-m, theta, &shape, 1), "{} ≤ {theta}", -m);
    }
    assert!(certified > 0, "the sweep certifies rounds");
    assert!(
        refused_overflow > 0,
        "the sweep reaches a finite m ≤ Θ whose sketch term overflows"
    );
}
