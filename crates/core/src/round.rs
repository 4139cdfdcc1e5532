//! One FDA round (Algorithm 1, lines 6–9), written once: local state →
//! state AllReduce → `H(S̄) > Θ` → conditional model AllReduce, in the two
//! halves of the reference FedAvg's `client_update` / `server_update` cut.
//!
//! The state exchange runs in up to two phases. **Phase A**: every worker
//! deposits only its 4-byte drift scalar `‖u_k‖²`, and a finite id-order
//! mean `m ≤ Θ` settles the round quiet ([`certifies`]): every monitor's
//! estimate is `m − t` with `t ≥ 0`, so it cannot exceed Θ either. **Phase
//! B** runs when phase A cannot settle the round: the summaries, today's
//! `S̄` and `H(S̄) > Θ`. Every round of a monitor policy runs phase A.
//!
//! * [`Server`] reduces: [`Server::settle`] charges the drift scalars and
//!   settles a quiet round; [`Server::decide`] charges and averages the
//!   deposited states and decides; [`Server::commit`] averages and charges
//!   the models, forms the downlink and advances the consensus.
//!
//!   The server keeps the run's charged ledger
//!   ([`Server::charged_bytes`]): each reduce charges the paper's
//!   per-worker payload at K′ = the number of deposits it is given, so a
//!   driver hands over its survivors and counts nothing itself.
//!
//!   The server holds the round's *sync policy*: when a round
//!   synchronizes, and what the server makes of the model mean. Algorithm
//!   1 synchronizes when a monitor's `H(S̄) > Θ` ([`Server::new`]); the
//!   baselines synchronize on a fixed period (Synchronous every step,
//!   Local-SGD every τ, FedOpt every `E` epochs), and FedOpt then steps a
//!   server optimizer on the pseudo-gradient `w − w̄` — the reference's
//!   `server_update`. A periodic policy is crate-private: only the
//!   simulator runs it.
//! * [`Replica`] is one worker's side: its local state and coded upload,
//!   the check of the broadcast `S̄`, and adopting the consensus.
//!
//! The three payloads the server broadcasts are written and read here,
//! each by one pair: [`Server::avg_state_payload`] / [`Replica::check`] for
//! the decision `[flags u8][dense S̄]`, or `[flags u8][m f32]` on a quiet
//! round; [`Server::downlink_payload`] / [`Replica::adopt`] for the
//! consensus `[dim u32][body]`; and [`Server::resume_payload`] /
//! [`Replica::resume`] for the handoff that admits a worker,
//! `[round u32][has_prev u8][model][prev?]`.
//!
//! The simulator (`Fda::step`) and the socket coordinator run the server,
//! the socket worker runs the replica. There is no trait over the two: the
//! coordinator never runs the replica half nor the worker the server half,
//! so each side would have one implementer whose callers still know it
//! all. What does vary, whether a mean runs on the [`WorkerPool`], is a
//! parameter.
//!
//! Every mean copies worker 0, adds the other ids in ascending order and
//! scales by `1/K′` (per element, whether sequential or chunked over the
//! vector dimension on the pool), and `‖u‖²` is summed in id order, so
//! every driver holds the same `S̄`, decision, consensus and charged bytes,
//! bit for bit.

use crate::fda::{violates, FdaConfig};
use crate::monitor::{LocalState, VarianceMonitor};
use crate::pool::WorkerPool;
use crate::wire::{
    decode_state_coded_into, decode_vector_coded_into, encode_state_coded_into,
    encode_summary_coded_into, encode_vector_coded_into, JobSpec,
};
use fda_comm::sim::per_worker_bytes;
use fda_comm::{
    apply_delta_downlink_into, delta_downlink_into, Codec, CodecSpec, Dense32, DownlinkSpec,
};
use fda_obs::{DropRecord, MembershipRecord, RoundEvent, RunEvent};
use fda_optim::Optimizer;
use fda_tensor::vector;

/// Means shorter than this stay on the calling thread even with a pool at
/// hand: a rendezvous costs more than a few hundred adds (LinearFDA's
/// summary is one float). Both paths give the same bits.
const POOLED_MEAN_MIN: usize = 256;

/// The worker-order mean of `srcs` into `out`.
fn mean_into(pool: Option<&mut WorkerPool>, srcs: &[&[f32]], out: &mut [f32]) {
    assert!(
        srcs.iter().all(|s| s.len() == out.len()),
        "round: ragged inputs to a mean"
    );
    match pool {
        Some(pool) if out.len() >= POOLED_MEAN_MIN => pool.chunked_mean(srcs, out),
        _ => vector::mean_range_into(srcs, 0, out.len(), out),
    }
}

/// The bytes an AllReduce charges under the paper's convention (§4.1):
/// each of its K′ depositors transmits its own payload once, K′ being the
/// number of `payloads`, and a lone worker moves nothing.
fn charge(payloads: impl ExactSizeIterator<Item = u64>) -> u64 {
    let k = payloads.len();
    payloads.map(|p| per_worker_bytes(p, k)).sum()
}

/// The charge of `k` deposits of `bytes` each.
fn charge_dense(bytes: u64, k: usize) -> u64 {
    charge(std::iter::repeat_n(bytes, k))
}

/// The model AllReduce: the worker-order mean of `models` into `mean`, and
/// what it charges at K′ = `models.len()` — `d·4` bytes per worker, or
/// each worker's own encoded size when the uploads were `coded`.
pub(crate) fn model_mean_into(
    pool: Option<&mut WorkerPool>,
    models: &[&[f32]],
    coded: Option<&[u64]>,
    mean: &mut Vec<f32>,
) -> u64 {
    mean.resize(models[0].len(), 0.0);
    mean_into(pool, models, mean);
    match coded {
        None => charge_dense(mean.len() as u64 * 4, models.len()),
        Some(payloads) => {
            assert_eq!(payloads.len(), models.len(), "round: one payload per model");
            charge(payloads.iter().copied())
        }
    }
}

/// Overwrites `v` with what a receiver of its encoding reconstructs (the
/// simulator's stand-in for a coded upload) and returns the encoded size.
pub(crate) fn roundtrip_in_place(codec: &dyn Codec, v: &mut [f32], enc: &mut Vec<u8>) -> u64 {
    enc.clear();
    codec.encode_into(v, enc);
    codec
        .decode_into(enc, v)
        .expect("codec decodes its own output");
    enc.len() as u64
}

/// Algorithm 1 line 6 for one replica, up to its summary: the drift
/// `u = w − w_t0` and its scalar `‖u‖²`, written into `state`.
pub(crate) fn drift_into(w: &[f32], w_t0: &[f32], drift: &mut [f32], state: &mut LocalState) {
    vector::sub_into(w, w_t0, drift);
    state.drift_sq_norm = vector::norm_sq(drift);
}

/// The id-order mean of the drift scalars, `Σ‖u_k‖² / K′` — the same sum
/// and division as the `‖u‖²` of `S̄`, so phase A and phase B see the same
/// `m`, bit for bit.
fn scalar_mean(scalars: impl ExactSizeIterator<Item = f32>) -> f32 {
    let k = scalars.len() as f32;
    scalars.sum::<f32>() / k
}

/// Phase A's certificate: whether the mean drift scalar `m` decides "no
/// sync" for a job of `dim` parameters whose states have `shape`, without
/// the summaries.
///
/// Every monitor's `H(S̄)` is `m − t` with `t ≥ 0` or NaN (`‖ū‖²`,
/// `⟨ξ, ū⟩²`, or the deflated sketch estimate), and IEEE subtraction of a
/// non-negative number never rounds above the minuend; so a finite
/// `m ≤ Θ` gives `H ≤ Θ` — unless `t` overflows to `+∞` and `H = −∞`
/// fails closed. Each of the `s` summary entries (`s` = the summary
/// length) is at most `Σ|u_i| ≤ √(d·‖u‖²)` in magnitude on every uplink
/// codec (each reconstructs within its input's range), so `t ≤ d·s·m`
/// up to rounding; the certificate also asks `2·d·s·m` to be finite. NaN
/// and `±∞` never certify.
pub fn certifies(m: f32, theta: f32, shape: &LocalState, dim: usize) -> bool {
    let reach = 2.0 * dim as f32 * shape.summary_slice().len() as f32;
    m <= theta && (m * reach).is_finite()
}

/// Flags of the decision byte that opens every decision broadcast.
const SYNC: u8 = 1;
/// The round was settled by phase A: the body is `m`, not `S̄`.
const QUIET: u8 = 2;

/// When a round synchronizes.
enum Schedule {
    /// Algorithm 1: when the monitor's `H(S̄)` exceeds Θ. `avg` is `S̄` of
    /// the last decision; before the first, a zero state of the job's
    /// shape.
    Monitor {
        monitor: Box<dyn VarianceMonitor>,
        theta: f32,
        avg: LocalState,
    },
    /// Every `period`-th round, `since` rounds after the last sync.
    Period { period: u64, since: u64 },
}

impl Schedule {
    fn avg(&self) -> &LocalState {
        match self {
            Schedule::Monitor { avg, .. } => avg,
            Schedule::Period { .. } => panic!("round: a periodic policy averages no states"),
        }
    }
}

/// The reducing half of a round: the sync policy (the schedule and an
/// optional server optimizer), the codecs, the consensus `w_t0` and the
/// one before it (a rejoining worker's `Resume` handoff), and
/// round-persistent scratch.
pub struct Server {
    schedule: Schedule,
    /// FedOpt's server optimizer; the consensus is then its model.
    server_opt: Option<Box<dyn Optimizer>>,
    /// Decodes uploads; built for dense jobs too.
    uplink: Box<dyn Codec>,
    /// Whether uploads are coded: a dense job skips the simulator's round
    /// trip and is charged the flat dense sizes.
    coded: bool,
    /// `Some` under a delta downlink.
    downlink: Option<Box<dyn Codec>>,
    consensus: Vec<f32>,
    /// The consensus before `consensus`, once `syncs > 0`.
    prev: Vec<f32>,
    mean: Vec<f32>,
    recon: Vec<f32>,
    /// The downlink payload, `[dim u32][body]`.
    payload: Vec<u8>,
    /// The decision broadcast, `[flags u8][dense S̄ or m]`.
    decision: Vec<u8>,
    /// The last round's outcome, for its broadcast and round record.
    last: Outcome,
    /// Phase A charged this round's scalars and fell through: phase B
    /// charges the summaries only.
    scalars_charged: bool,
    syncs: u64,
    /// Bytes charged so far, each reduce at K′ = its deposit count.
    charged: u64,
}

/// What a round decided, for its broadcast and its record.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    /// `H(S̄)`, or `m` on a quiet round (an upper bound of it).
    estimate: f32,
    sync: bool,
    /// Settled by phase A.
    quiet: bool,
}

impl Server {
    /// The Algorithm 1 server of a job whose workers start from `w0`, with
    /// a dense uplink and downlink until set otherwise.
    pub fn new(config: FdaConfig, w0: Vec<f32>) -> Server {
        let monitor = config.variant.build_monitor(w0.len());
        let avg = monitor.local_state(&vec![0.0; w0.len()]);
        let schedule = Schedule::Monitor {
            monitor,
            theta: config.theta,
            avg,
        };
        Server::with_schedule(schedule, None, w0)
    }

    /// A server that synchronizes every `period`-th round and, with
    /// `server_opt`, steps it on the pseudo-gradient of each sync.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub(crate) fn periodic(
        period: u64,
        server_opt: Option<Box<dyn Optimizer>>,
        w0: Vec<f32>,
    ) -> Server {
        assert!(period >= 1, "round: the sync period must be positive");
        let schedule = Schedule::Period { period, since: 0 };
        Server::with_schedule(schedule, server_opt, w0)
    }

    fn with_schedule(
        schedule: Schedule,
        server_opt: Option<Box<dyn Optimizer>>,
        w0: Vec<f32>,
    ) -> Server {
        Server {
            schedule,
            server_opt,
            uplink: CodecSpec::Dense.build(),
            coded: false,
            downlink: None,
            consensus: w0,
            prev: Vec::new(),
            mean: Vec::new(),
            recon: Vec::new(),
            payload: Vec::new(),
            decision: Vec::new(),
            last: Outcome {
                estimate: f32::NAN,
                sync: false,
                quiet: false,
            },
            scalars_charged: false,
            syncs: 0,
            charged: 0,
        }
    }

    /// Selects the codec states and models are uploaded in.
    ///
    /// # Panics
    /// Panics if the spec fails [`CodecSpec::validate`].
    pub fn set_uplink(&mut self, spec: CodecSpec) {
        self.uplink = spec.build();
        self.coded = !spec.is_dense();
    }

    /// Selects the consensus downlink: dense, or a delta against the
    /// consensus whose shared reconstruction becomes the next consensus.
    ///
    /// # Panics
    /// Panics if the spec fails [`DownlinkSpec::validate`].
    pub fn set_downlink(&mut self, spec: DownlinkSpec) {
        self.downlink = spec.build();
    }

    /// The uplink codec (the identity codec for a dense job).
    pub fn uplink(&self) -> &dyn Codec {
        self.uplink.as_ref()
    }

    /// The uplink codec of a coded job; `None` for a dense one.
    pub fn coded_uplink(&self) -> Option<&dyn Codec> {
        self.coded.then_some(self.uplink.as_ref())
    }

    /// The variance threshold Θ; NaN under a periodic policy, which has
    /// none.
    pub fn theta(&self) -> f32 {
        match &self.schedule {
            Schedule::Monitor { theta, .. } => *theta,
            Schedule::Period { .. } => f32::NAN,
        }
    }

    /// The monitor evaluating `H`; `None` under a periodic policy.
    pub(crate) fn monitor(&self) -> Option<&dyn VarianceMonitor> {
        match &self.schedule {
            Schedule::Monitor { monitor, .. } => Some(monitor.as_ref()),
            Schedule::Period { .. } => None,
        }
    }

    /// `S̄` of the last [`Server::decide`], which has the shape every
    /// deposit must have.
    ///
    /// # Panics
    /// Panics under a periodic policy, which averages no states.
    pub fn avg_state(&self) -> &LocalState {
        self.schedule.avg()
    }

    /// The server optimizer's model, which is the consensus; `None`
    /// without a server optimizer.
    pub(crate) fn server_model(&self) -> Option<&[f32]> {
        self.server_opt
            .is_some()
            .then_some(self.consensus.as_slice())
    }

    /// `w_t0`, the current consensus.
    pub fn consensus(&self) -> &[f32] {
        &self.consensus
    }

    /// Synchronizations committed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Total bytes the workers transmitted so far, the paper's
    /// communication metric: every reduce charged at K′ = the number of
    /// deposits it was given, so a membership change needs no bookkeeping
    /// of its own.
    pub fn charged_bytes(&self) -> u64 {
        self.charged
    }

    /// Phase A, which opens every round of a monitor policy: charges the
    /// drift scalars `‖u_k‖²` (given in id order) at 4 bytes per depositor
    /// and, when their mean `m` [`certifies`], settles the round with no
    /// sync, counts it in `fda_certified_rounds` and returns `Some(m)` —
    /// the round's estimate, an upper bound on `H(S̄)`.
    /// `None` leaves the round to phase B: [`Server::decide`] over the
    /// full states, which then charges the summaries only.
    ///
    /// # Panics
    /// Panics under a periodic policy.
    pub fn settle(&mut self, scalars: impl ExactSizeIterator<Item = f32>) -> Option<f32> {
        let dim = self.consensus.len();
        let Schedule::Monitor { theta, avg, .. } = &self.schedule else {
            panic!("round: a periodic policy settles no round on drift scalars");
        };
        self.charged += charge_dense(4, scalars.len());
        let m = scalar_mean(scalars);
        if !certifies(m, *theta, avg, dim) {
            self.scalars_charged = true;
            return None;
        }
        self.last = Outcome {
            estimate: m,
            sync: false,
            quiet: true,
        };
        fda_obs::counter!("fda_certified_rounds").inc();
        Some(m)
    }

    /// The state AllReduce and the decision. Charges the monitor's state
    /// size per depositor on a dense job or `payloads[i]` (drift scalar
    /// plus encoded summary) per depositor on a coded one — after a phase A
    /// that fell through, the summary part alone: the state size less the
    /// 4-byte scalar, or `payloads[i]` as the encoded summary — averages
    /// `states` (given in id order) into `S̄`, and returns
    /// `(H(S̄), violates(H, Θ))`.
    ///
    /// A periodic policy charges nothing, reads no states and returns
    /// `(NaN, whether this is a period's last round)`.
    ///
    /// # Panics
    /// Panics if a monitor's `states` are empty or not all of its shape, or
    /// a coded job's `payloads` are not one per state; transports validate
    /// deposits first.
    pub fn decide(
        &mut self,
        pool: Option<&mut WorkerPool>,
        states: &[&LocalState],
        payloads: &[u64],
    ) -> (f32, bool) {
        let (estimate, sync) = self.reduce_states(pool, states, payloads);
        self.last = Outcome {
            estimate,
            sync,
            quiet: false,
        };
        (estimate, sync)
    }

    fn reduce_states(
        &mut self,
        pool: Option<&mut WorkerPool>,
        states: &[&LocalState],
        payloads: &[u64],
    ) -> (f32, bool) {
        let (monitor, theta, avg) = match &mut self.schedule {
            Schedule::Monitor {
                monitor,
                theta,
                avg,
            } => (&**monitor, *theta, avg),
            Schedule::Period { period, since } => {
                *since += 1;
                let sync = *since == *period;
                if sync {
                    *since = 0;
                }
                return (f32::NAN, sync);
            }
        };
        assert!(
            !states.is_empty() && states.iter().all(|s| s.same_shape(avg)),
            "round: deposits must have the monitor's state shape"
        );
        let scalars_charged = std::mem::take(&mut self.scalars_charged);
        self.charged += if self.coded {
            assert_eq!(payloads.len(), states.len(), "round: one payload per state");
            charge(payloads.iter().copied())
        } else {
            let bytes = monitor.state_bytes() - 4 * scalars_charged as u64;
            charge_dense(bytes, states.len())
        };
        let drift_sq_norm = scalar_mean(states.iter().map(|s| s.drift_sq_norm));
        let summaries: Vec<&[f32]> = states.iter().map(|s| s.summary_slice()).collect();
        mean_into(pool, &summaries, avg.summary_slice_mut());
        avg.drift_sq_norm = drift_sq_norm;
        let estimate = monitor.estimate(avg);
        (estimate, violates(estimate, theta))
    }

    /// The decision broadcast of the last round, which is what
    /// [`Replica::check`] reads: the flags byte — whether
    /// [`Server::decide`] synchronized — then `S̄` dense; after a quiet
    /// [`Server::settle`], the flags (`QUIET`, no sync) then `m`.
    ///
    /// # Panics
    /// Panics under a periodic policy.
    pub fn avg_state_payload(&mut self) -> &[u8] {
        self.decision.clear();
        if self.last.quiet {
            self.decision.push(QUIET);
            self.decision
                .extend_from_slice(&self.last.estimate.to_le_bytes());
        } else {
            self.decision.push(self.last.sync as u8);
            encode_state_coded_into(self.schedule.avg(), &Dense32, &mut self.decision);
        }
        &self.decision
    }

    /// The synchronization after a violation: averages and charges
    /// `models` (given in id order; `payloads` are their encoded sizes on
    /// a coded job); with a server optimizer, steps a copy of the
    /// consensus on the pseudo-gradient `consensus − mean`; forms the
    /// downlink of the result — under a delta downlink its reconstruction
    /// is the new consensus — makes the old consensus the previous one,
    /// and runs the monitor's `on_sync` once.
    pub fn commit(&mut self, pool: Option<&mut WorkerPool>, models: &[&[f32]], payloads: &[u64]) {
        let coded = self.coded.then_some(payloads);
        self.charged += model_mean_into(pool, models, coded, &mut self.mean);
        if let Some(opt) = &mut self.server_opt {
            // The downlink's reconstruction buffer holds the
            // pseudo-gradient until the step has read it.
            let (grad, w) = (&mut self.recon, &mut self.mean);
            grad.resize(w.len(), 0.0);
            vector::sub_into(&self.consensus, w, grad);
            w.copy_from_slice(&self.consensus);
            opt.step(w, grad);
        }
        let fresh = match &self.downlink {
            None => &mut self.mean,
            Some(codec) => {
                self.payload.clear();
                put_dim(&mut self.payload, self.mean.len());
                delta_downlink_into(
                    &self.consensus,
                    &self.mean,
                    codec.as_ref(),
                    &mut self.payload,
                    &mut self.recon,
                );
                &mut self.recon
            }
        };
        // prev ← consensus ← fresh; the old prev becomes scratch.
        std::mem::swap(&mut self.prev, &mut self.consensus);
        std::mem::swap(&mut self.consensus, fresh);
        if let Schedule::Monitor { monitor, .. } = &mut self.schedule {
            monitor.on_sync(&self.consensus, &self.prev);
        }
        self.syncs += 1;
    }

    /// Appends the handoff that admits a worker at `round`, which is what
    /// [`Replica::resume`] reads: `[round u32][has_prev u8]`, the
    /// consensus, then — once there was a sync — the consensus before it,
    /// each a dense vector `[dim u32][dim × f32]`. It is dense under every
    /// downlink, so a rejoined replica holds the consensus bit for bit.
    pub fn resume_payload(&self, round: u32, out: &mut Vec<u8>) {
        let synced = self.syncs > 0;
        out.extend_from_slice(&round.to_le_bytes());
        out.push(synced as u8);
        encode_vector_coded_into(&self.consensus, &Dense32, out);
        if synced {
            encode_vector_coded_into(&self.prev, &Dense32, out);
        }
    }

    /// The last commit's consensus broadcast, `[dim u32][body]`: the delta
    /// the commit coded or, on a dense downlink, the consensus as a raw
    /// `f32` run, encoded on demand (the simulator never asks).
    pub fn downlink_payload(&mut self) -> &[u8] {
        if self.downlink.is_none() {
            self.payload.clear();
            put_dim(&mut self.payload, self.consensus.len());
            Dense32.encode_into(&self.consensus, &mut self.payload);
        }
        &self.payload
    }

    /// The record of the round the last [`Server::settle`] or
    /// [`Server::decide`] decided: its decision, estimate and whether phase
    /// A settled it, Θ and the uplink codec come from here, the rest from
    /// the driver's `ledger`. The one place a round record is built, for
    /// the simulator and the socket alike.
    pub fn round_event(&self, round: u32, ledger: RoundLedger) -> RoundEvent {
        let Outcome {
            estimate,
            sync: decision,
            quiet: certified,
        } = self.last;
        RoundEvent {
            source: ledger.source.into(),
            round,
            epoch: ledger.epoch,
            alive: ledger.alive,
            decision,
            certified,
            estimate,
            theta: self.theta(),
            codec: self.uplink.name().into(),
            state_bytes: ledger.state_bytes,
            model_bytes: ledger.model_bytes,
            charged_bytes: ledger.charged_bytes,
            measured_bytes: ledger.measured_bytes,
            deposit_us: ledger.deposit_us,
            drops: ledger.drops,
        }
    }
}

/// A driver's share of one round record ([`Server::round_event`]): who
/// took part, and the bytes the round charged and measured.
#[derive(Debug, Clone)]
pub struct RoundLedger {
    /// `"sim"` or `"net"`.
    pub source: &'static str,
    /// The membership epoch after the round.
    pub epoch: u32,
    /// Workers in the round's reduce.
    pub alive: u32,
    /// This round's state payload bytes.
    pub state_bytes: u64,
    /// This round's model payload bytes.
    pub model_bytes: u64,
    /// Cumulative charged bytes after the round.
    pub charged_bytes: u64,
    /// Cumulative measured payload bytes after the round.
    pub measured_bytes: u64,
    /// `(worker, µs)` deposit latencies; empty without deposits.
    pub deposit_us: Vec<(u32, u64)>,
    /// Workers dropped during the round.
    pub drops: Vec<DropRecord>,
}

/// A driver's account of a finished run, for [`run_event`].
#[derive(Debug, Clone)]
pub struct RunLedger<'a> {
    /// `"sim"` or `"net"`.
    pub source: &'static str,
    /// Workers the run started with.
    pub workers: u32,
    /// The sync policy's name.
    pub variant: &'a str,
    /// Θ; NaN without a monitor.
    pub theta: f32,
    /// The uplink codec's name.
    pub codec: &'a str,
    /// Synchronizations committed.
    pub syncs: u64,
    /// Every round's decision, in order.
    pub decisions: &'a [bool],
    /// Bytes charged under the simulator's convention.
    pub charged_bytes: u64,
    /// Payload bytes measured on a fabric; the charged bytes without one.
    pub measured_payload_bytes: u64,
    /// Raw `(tx, rx)` socket bytes; zero without sockets.
    pub raw_bytes: (u64, u64),
    /// Workers that finished, ascending.
    pub survivors: Vec<u32>,
    /// Every membership change.
    pub membership: Vec<MembershipRecord>,
}

/// The end-of-run record of any driver: one round per decision, and the
/// decisions as a `'0'`/`'1'` string.
pub fn run_event(ledger: RunLedger) -> RunEvent {
    RunEvent {
        source: ledger.source.into(),
        workers: ledger.workers,
        variant: ledger.variant.into(),
        theta: ledger.theta,
        steps: ledger.decisions.len() as u32,
        syncs: ledger.syncs,
        decisions: ledger
            .decisions
            .iter()
            .map(|&d| if d { '1' } else { '0' })
            .collect(),
        codec: ledger.codec.into(),
        charged_bytes: ledger.charged_bytes,
        measured_payload_bytes: ledger.measured_payload_bytes,
        raw_tx_bytes: ledger.raw_bytes.0,
        raw_rx_bytes: ledger.raw_bytes.1,
        survivors: ledger.survivors,
        membership: ledger.membership,
    }
}

fn put_dim(out: &mut Vec<u8>, dim: usize) {
    out.extend_from_slice(&(dim as u32).to_le_bytes());
}

/// One worker's half of a round.
pub struct Replica {
    monitor: Box<dyn VarianceMonitor>,
    theta: f32,
    uplink: Box<dyn Codec>,
    downlink: Option<Box<dyn Codec>>,
    /// `w_t0`.
    consensus: Vec<f32>,
    drift: Vec<f32>,
    state: LocalState,
    /// The drift scalar went out and its summary has not.
    summary_due: bool,
    /// The broadcast `S̄`, decoded here; it keeps the job's state shape.
    avg: LocalState,
    /// The next consensus, decoded here before it is adopted.
    scratch: Vec<f32>,
}

impl Replica {
    /// Joins `spec`, whose model has `dim` parameters, through the handoff
    /// [`Server::resume_payload`] wrote, and returns the round it resumes
    /// at: the consensus becomes `w_t0` and, after a sync, `on_sync(model,
    /// prev)` is replayed so LinearFDA's ξ matches the workers that never
    /// left, bit for bit. Both models are decoded into the replica's own
    /// buffers. A cut or padded payload, a model of another dimension, a
    /// bad flag or a round past the job's end is an `Err`, refused before
    /// the monitor is built.
    pub fn resume(spec: &JobSpec, dim: usize, payload: &[u8]) -> Result<(u32, Replica), String> {
        let short = || format!("resume payload of {} bytes", payload.len());
        let Some((&[r0, r1, r2, r3, has_prev], models)) = payload.split_first_chunk::<5>() else {
            return Err(short());
        };
        let round = u32::from_le_bytes([r0, r1, r2, r3]);
        if round > spec.steps {
            return Err(format!(
                "resume at round {round} past the job's {} steps",
                spec.steps
            ));
        }
        let (model_bytes, prev_bytes) = match has_prev {
            0 => (models, None),
            1 => match models.split_at_checked(4 + dim * 4) {
                Some((m, p)) => (m, Some(p)),
                None => return Err(short()),
            },
            b => return Err(format!("bad resume prev flag {b}")),
        };
        let (mut consensus, mut scratch) = (vec![0.0; dim], Vec::new());
        let undecodable = |e| format!("undecodable resume model: {e}");
        decode_vector_coded_into(model_bytes, &mut consensus, &Dense32).map_err(undecodable)?;
        if let Some(prev_bytes) = prev_bytes {
            scratch.resize(dim, 0.0);
            decode_vector_coded_into(prev_bytes, &mut scratch, &Dense32).map_err(undecodable)?;
        }
        let mut monitor = spec.fda.variant.build_monitor(dim);
        if prev_bytes.is_some() {
            monitor.on_sync(&consensus, &scratch);
        }
        let drift = vec![0.0; dim];
        let state = monitor.local_state(&drift);
        let replica = Replica {
            avg: state.clone(),
            state,
            monitor,
            theta: spec.fda.theta,
            uplink: spec.codec.build(),
            downlink: spec.downlink.build(),
            consensus,
            drift,
            summary_due: false,
            scratch,
        };
        Ok((round, replica))
    }

    /// `w_t0`, the current consensus.
    pub fn consensus(&self) -> &[f32] {
        &self.consensus
    }

    /// A round's deposit: appends `‖u‖²` of the drift `u = w − w_t0` as 4
    /// raw bytes, and keeps the drift for [`Replica::summary_payload`].
    pub fn drift_payload(&mut self, w: &[f32], out: &mut Vec<u8>) {
        drift_into(w, &self.consensus, &mut self.drift, &mut self.state);
        out.extend_from_slice(&self.state.drift_sq_norm.to_le_bytes());
        self.summary_due = true;
    }

    /// Phase B: appends the coded summary of the kept drift — the full
    /// local state less its scalar. An `Err` unless a drift scalar awaits
    /// it: a second request in a round, or one before any deposit.
    pub fn summary_payload(&mut self, out: &mut Vec<u8>) -> Result<(), String> {
        if !std::mem::take(&mut self.summary_due) {
            return Err("summary request without a drift scalar awaiting it".to_string());
        }
        self.monitor.summary_into(&self.drift, &mut self.state);
        encode_summary_coded_into(&self.state, self.uplink.as_ref(), out);
        Ok(())
    }

    /// Appends the coded model upload of parameters `w` to `out`.
    pub fn model_payload(&self, w: &[f32], out: &mut Vec<u8>) {
        encode_vector_coded_into(w, self.uplink.as_ref(), out);
    }

    /// Checks a decision broadcast `[flags u8][body]` and returns its
    /// decision. A quiet body answers only a drift scalar whose summary was
    /// not asked for, a full body only a summary: the other way round, the
    /// coordinator and this replica disagree on the round's phase. A full
    /// body is `S̄`, decoded into this replica's slot, whose shape the
    /// header must match before anything is written, and `H(S̄) > Θ`
    /// evaluated here must agree with `sync`. A quiet body is `m`, which
    /// must [`certifies`] here.
    pub fn check(&mut self, payload: &[u8]) -> Result<bool, String> {
        let Some((&flags, body)) = payload.split_first() else {
            return Err("empty averaged-state payload".to_string());
        };
        let (sync, quiet) = (flags & SYNC != 0, flags & QUIET != 0);
        if flags & !(SYNC | QUIET) != 0 || (sync && quiet) {
            return Err(format!("bad decision byte {flags}"));
        }
        if quiet != self.summary_due {
            return Err(match quiet {
                true => "quiet decision after the summary was sent".to_string(),
                false => {
                    "full decision on a drift scalar whose summary was not asked for".to_string()
                }
            });
        }
        if quiet {
            let m = match <[u8; 4]>::try_from(body) {
                Ok(bytes) => f32::from_le_bytes(bytes),
                Err(_) => return Err(format!("quiet decision of {} bytes", payload.len())),
            };
            if !certifies(m, self.theta, &self.avg, self.consensus.len()) {
                return Err(format!("quiet decision on m = {m}, which does not certify"));
            }
        } else {
            decode_state_coded_into(body, &mut self.avg, &Dense32)
                .map_err(|e| format!("averaged state is not this job's state shape: {e}"))?;
            let local = violates(self.monitor.estimate(&self.avg), self.theta);
            if local != sync {
                return Err(format!(
                    "local H(S̄) decision ({local}) disagrees with coordinator broadcast ({sync})"
                ));
            }
        }
        self.summary_due = false;
        Ok(sync)
    }

    /// Adopts the consensus of a downlink payload `[dim u32][body]` — a
    /// raw `f32` run, or the delta against `w_t0` under a delta downlink —
    /// and returns it for the caller to load. A truncated, wrong-sized or
    /// undecodable payload is an `Err` and changes nothing.
    pub fn adopt(&mut self, payload: &[u8]) -> Result<&[f32], String> {
        let dim = self.consensus.len();
        let Some((head, body)) = payload.split_first_chunk::<4>() else {
            return Err(format!("consensus payload of {} bytes", payload.len()));
        };
        let sent = u32::from_le_bytes(*head) as usize;
        if sent != dim {
            return Err(format!("consensus has {sent} params, expected {dim}"));
        }
        let decoded = match &self.downlink {
            None => {
                self.scratch.resize(dim, 0.0);
                Dense32.decode_into(body, &mut self.scratch)
            }
            Some(codec) => {
                apply_delta_downlink_into(&self.consensus, body, codec.as_ref(), &mut self.scratch)
            }
        };
        decoded.map_err(|e| format!("undecodable consensus: {e}"))?;
        self.monitor.on_sync(&self.scratch, &self.consensus);
        std::mem::swap(&mut self.consensus, &mut self.scratch);
        Ok(&self.consensus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fda::FdaVariant;
    use fda_sketch::SketchConfig;
    use fda_tensor::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A job of `steps` rounds under `fda`, `downlink`.
    fn job(fda: FdaConfig, downlink: DownlinkSpec, steps: u32) -> JobSpec {
        JobSpec {
            cluster: crate::cluster::ClusterConfig::small_test(2),
            fda,
            codec: CodecSpec::Dense,
            downlink,
            steps,
            synth: fda_data::synth::SynthSpec::synth_mnist(),
            task_name: String::new(),
        }
    }

    /// A replica of `spec` admitted at round 0 through `server`'s handoff.
    fn joined(spec: &JobSpec, server: &Server) -> Replica {
        let mut handoff = Vec::new();
        server.resume_payload(0, &mut handoff);
        let dim = server.consensus().len();
        Replica::resume(spec, dim, &handoff).expect("own handoff").1
    }

    /// `S̄` is `LocalState::average` bit for bit for every summary kind,
    /// K′ = 1..4, pooled or not, on both sides of the pooled cutoff, and a
    /// dense state is charged the monitor's state size per depositor.
    #[test]
    fn round_state_mean_equals_local_state_average() {
        let (d, mut rng) = (600, Rng::new(0x5EA7));
        for variant in [
            FdaVariant::Linear,
            FdaVariant::Sketch(SketchConfig::new(3, 16, 5)),
            FdaVariant::Sketch(SketchConfig::new(5, 100, 5)),
            FdaVariant::Exact,
        ] {
            let monitor = variant.build_monitor(d);
            for k in 1..=4usize {
                let states: Vec<LocalState> = (0..k)
                    .map(|_| monitor.local_state(&random_vec(&mut rng, d)))
                    .collect();
                let want = LocalState::average(&states);
                let refs: Vec<&LocalState> = states.iter().collect();
                let charged = (k > 1) as u64 * k as u64 * monitor.state_bytes();
                for mut pool in [None, Some(WorkerPool::new(k))] {
                    let mut server = Server::new(
                        FdaConfig {
                            variant,
                            theta: 0.1,
                        },
                        vec![0.0; d],
                    );
                    let (estimate, _) = server.decide(pool.as_mut(), &refs, &[]);
                    let (got, case) = (server.avg_state(), (monitor.name(), k, pool.is_some()));
                    assert_eq!(
                        got.drift_sq_norm.to_bits(),
                        want.drift_sq_norm.to_bits(),
                        "{case:?}"
                    );
                    assert_eq!(
                        bits(got.summary_slice()),
                        bits(want.summary_slice()),
                        "{case:?}"
                    );
                    assert_eq!(
                        estimate.to_bits(),
                        monitor.estimate(&want).to_bits(),
                        "{case:?}"
                    );
                    assert_eq!(server.charged_bytes(), charged, "{case:?}");
                }
            }
        }
    }

    /// The model mean is `SimNetwork::allreduce_mean_with` bit for bit,
    /// charges included — with ±0, subnormal, ±inf and NaN lanes — and
    /// K′ = 1 charges nothing.
    #[test]
    fn round_model_mean_equals_sim_network_allreduce() {
        let (d, mut rng) = (700, Rng::new(0xA11));
        let specials = [
            0.0f32,
            -0.0,
            1e-40,
            -3e-39,
            f32::INFINITY,
            -f32::INFINITY,
            f32::NAN,
        ];
        for k in 1..=4usize {
            let models: Vec<Vec<f32>> = (0..k)
                .map(|w| {
                    let mut m = random_vec(&mut rng, d);
                    for (i, s) in specials.iter().enumerate() {
                        m[i * 7 + w * 3] = *s;
                    }
                    m
                })
                .collect();
            let refs: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
            let coded: Vec<u64> = (0..k as u64).map(|w| 100 + 13 * w).collect();
            for (payloads, charged) in [
                (None, vec![d as u64 * 4; k]),
                (Some(&coded[..]), coded.clone()),
            ] {
                let (mut want, mut reference) = (models.clone(), fda_comm::SimNetwork::new(k));
                reference.allreduce_mean_with(&mut want, &charged);
                for mut pool in [None, Some(WorkerPool::new(k))] {
                    let mut mean = Vec::new();
                    let bytes = model_mean_into(pool.as_mut(), &refs, payloads, &mut mean);
                    let case = (k, payloads.is_some(), pool.is_some());
                    assert_eq!(bits(&mean), bits(&want[0]), "{case:?}");
                    assert_eq!(bytes, reference.total_bytes(), "{case:?}");
                    assert!(k > 1 || bytes == 0, "{case:?}: K′ = 1 moves nothing");
                }
            }
        }
    }

    /// The server charges each reduce at K′ = the deposits it is given:
    /// nothing at K′ = 1; the 4-byte drift scalar, the summary less that
    /// scalar and the `d·4` model per depositor on a dense uplink, or each
    /// encoded payload on a coded one; and a worker dropped between phase
    /// A (K = 3) and phase B (K′ = 2) is charged its scalar, not its
    /// summary or model.
    #[test]
    fn round_server_charges_at_the_deposit_count() {
        let (d, mut rng) = (64, Rng::new(0x1ED6));
        let fda = FdaConfig {
            variant: FdaVariant::Sketch(SketchConfig::new(2, 8, 3)),
            theta: 0.0,
        };
        let monitor = fda.variant.build_monitor(d);
        let states: Vec<LocalState> = (0..3)
            .map(|_| monitor.local_state(&random_vec(&mut rng, d)))
            .collect();
        let models: Vec<Vec<f32>> = (0..3).map(|_| random_vec(&mut rng, d)).collect();
        let (summary, model, coded) = (monitor.state_bytes() - 4, d as u64 * 4, [40, 52, 47]);
        let uniform8 = CodecSpec::Uniform8 { chunk: 64 };
        // (uplink, phase A's K, phase B's and the sync's K′, the ledger
        // after each of the three reduces)
        let cases = [
            (CodecSpec::Dense, 1, 1, [0, 0, 0]),
            (
                CodecSpec::Dense,
                3,
                3,
                [12, 12 + 3 * summary, 12 + 3 * (summary + model)],
            ),
            (
                CodecSpec::Dense,
                3,
                2,
                [12, 12 + 2 * summary, 12 + 2 * (summary + model)],
            ),
            (uniform8, 1, 1, [0, 0, 0]),
            (uniform8, 3, 3, [12, 12 + 139, 12 + 2 * 139]),
            (uniform8, 3, 2, [12, 12 + 92, 12 + 2 * 92]),
        ];
        for (uplink, a, b, want) in cases {
            let case = (uplink.name(), a, b);
            let mut server = Server::new(fda, vec![0.0; d]);
            server.set_uplink(uplink);
            let scalars = states[..a].iter().map(|s| s.drift_sq_norm);
            assert_eq!(
                server.settle(scalars),
                None,
                "{case:?}: Θ = 0 never certifies"
            );
            assert_eq!(server.charged_bytes(), want[0], "{case:?}: scalars");
            let refs: Vec<&LocalState> = states[..b].iter().collect();
            server.decide(None, &refs, &coded[..b]);
            assert_eq!(server.charged_bytes(), want[1], "{case:?}: summaries");
            let refs: Vec<&[f32]> = models[..b].iter().map(Vec::as_slice).collect();
            server.commit(None, &refs, &coded[..b]);
            assert_eq!(server.charged_bytes(), want[2], "{case:?}: models");
        }
    }

    /// A periodic decide charges nothing and fires on each period's last
    /// round. A commit under a server optimizer steps a copy of the
    /// consensus on `consensus − mean`, and a delta downlink codes that
    /// result: the new consensus is its reconstruction against the old.
    #[test]
    fn round_periodic_server_steps_then_codes_the_downlink() {
        let (d, mut rng) = (300, Rng::new(0xFED));
        let codec = CodecSpec::Uniform8 { chunk: 64 };
        let kind = fda_optim::OptimizerKind::fedadam_server();
        let mut want = random_vec(&mut rng, d);
        let mut server = Server::periodic(2, Some(kind.build(d)), want.clone());
        server.set_downlink(DownlinkSpec::Delta { codec });
        assert!(server.monitor().is_none() && server.theta().is_nan());
        let (mut opt, mut charged) = (kind.build(d), 0);
        for round in 1..=5u64 {
            let (estimate, sync) = server.decide(None, &[], &[]);
            assert!(estimate.is_nan(), "round {round}");
            assert_eq!(sync, round % 2 == 0, "round {round}");
            assert_eq!(server.charged_bytes(), charged, "round {round}");
            if !sync {
                continue;
            }
            let models = [random_vec(&mut rng, d), random_vec(&mut rng, d)];
            let refs: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
            server.commit(None, &refs, &[]);
            charged += 2 * d as u64 * 4;

            let mut mean = vec![0.0; d];
            vector::mean_range_into(&refs, 0, d, &mut mean);
            let mut grad = want.clone();
            vector::sub_assign(&mut grad, &mean);
            let mut stepped = want.clone();
            opt.step(&mut stepped, &grad);
            want = fda_comm::compress::delta_downlink(&want, &stepped, codec.build().as_ref()).1;
            assert_eq!(bits(server.consensus()), bits(&want), "round {round}");
            assert_eq!(server.server_model(), Some(server.consensus()));
        }
        assert_eq!(server.syncs(), 2);
        assert_eq!(server.charged_bytes(), charged);
    }

    /// Known-answer bytes of the decision broadcast: the sync byte of the
    /// server's own decision, then `S̄` in the dense state layout of
    /// `wire` (here a Linear state, `H = 2 − 0.5² = 1.75`).
    #[test]
    fn round_avg_state_payload_known_answer() {
        let deposit = LocalState {
            drift_sq_norm: 2.0,
            summary: crate::monitor::StateSummary::Linear(0.5),
        };
        for (theta, sync) in [(1.0, 1), (2.0, 0)] {
            let mut server = Server::new(FdaConfig::linear(theta), vec![0.0; 4]);
            server.decide(None, &[&deposit], &[]);
            #[rustfmt::skip]
            let want = [
                sync,
                0, 0x00, 0x00, 0x00, 0x40, // Linear, ‖u‖² = 2.0
                0x00, 0x00, 0x00, 0x3F, // proj 0.5
            ];
            assert_eq!(server.avg_state_payload(), want, "Θ = {theta}");
        }
    }

    /// A replica reads the server's decision broadcast back as the server's
    /// decision, quiet or violating, for every monitor kind. A state of
    /// another kind or shape, a cut or padded payload, a sync byte other
    /// than 0 / 1 and a decision that disagrees with `H(S̄) > Θ` are each
    /// refused, and the replica's `S̄` slot keeps the job's shape; byte
    /// soup never panics.
    #[test]
    fn round_replica_checks_the_server_decision() {
        let (d, mut rng) = (40, Rng::new(0xC4EC));
        let kinds = [
            FdaVariant::Linear,
            FdaVariant::Sketch(SketchConfig::new(2, 8, 3)),
            FdaVariant::Exact,
        ];
        // One state of each kind and of each wrong size the header names.
        let others: Vec<LocalState> = [
            FdaVariant::Linear,
            FdaVariant::Sketch(SketchConfig::new(2, 8, 3)),
            FdaVariant::Sketch(SketchConfig::new(3, 8, 3)),
            FdaVariant::Sketch(SketchConfig::new(2, 9, 3)),
        ]
        .iter()
        .map(|v| v.build_monitor(d).local_state(&random_vec(&mut rng, d)))
        .chain([d, d + 1].map(|n| {
            FdaVariant::Exact
                .build_monitor(n)
                .local_state(&vec![1.0; n])
        }))
        .collect();
        for variant in kinds {
            let fda = FdaConfig {
                variant,
                theta: 0.5,
            };
            let spec = job(fda, DownlinkSpec::Dense, 1);
            let monitor = variant.build_monitor(d);
            let mut server = Server::new(spec.fda, vec![0.0; d]);
            let mut replica = joined(&spec, &server);
            let mut probe = joined(&spec, &server);
            let mut seen = Vec::new();
            for scale in [0.01f32, 10.0] {
                let states: Vec<LocalState> = (0..2)
                    .map(|_| {
                        let u: Vec<f32> =
                            random_vec(&mut rng, d).iter().map(|x| x * scale).collect();
                        monitor.local_state(&u)
                    })
                    .collect();
                let refs: Vec<&LocalState> = states.iter().collect();
                let (_, sync) = server.decide(None, &refs, &[]);
                let payload = server.avg_state_payload().to_vec();
                let case = (monitor.name(), scale);
                assert_eq!(replica.check(&payload), Ok(sync), "{case:?}");
                seen.push(sync);

                let with_byte = |b: u8| [&[b][..], &payload[1..]].concat();
                let mut bad = vec![
                    payload[..payload.len() - 1].to_vec(),
                    payload[..1].to_vec(),
                    Vec::new(),
                    [&payload[..], &[0]].concat(),
                    with_byte(2),
                    with_byte(!sync as u8),
                ];
                for other in others.iter().filter(|o| !o.same_shape(server.avg_state())) {
                    let mut p = vec![sync as u8];
                    encode_state_coded_into(other, &Dense32, &mut p);
                    bad.push(p);
                }
                for b in &bad {
                    assert!(replica.check(b).is_err(), "{case:?}: {b:?}");
                    assert!(replica.avg.same_shape(server.avg_state()), "{case:?}");
                }
                for len in [0, 1, 5, 9, payload.len(), payload.len() + 3] {
                    let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8 % 3).collect();
                    let _ = probe.check(&soup);
                    let _ = probe.check(&[&payload[..payload.len().min(len)], &soup].concat());
                }
            }
            assert_eq!(seen, [false, true], "{}", monitor.name());
        }
    }

    /// A replica adopting the server's downlink payload holds the server's
    /// consensus bits, dense and delta, over consecutive syncs; truncated,
    /// wrong-sized and trailing-garbage payloads are refused and change
    /// nothing, and byte soup never panics.
    #[test]
    fn round_replica_adopts_the_server_consensus() {
        let (d, mut rng) = (300, Rng::new(0xD0));
        let delta = DownlinkSpec::Delta {
            codec: CodecSpec::Uniform8 { chunk: 64 },
        };
        for downlink in [DownlinkSpec::Dense, delta] {
            let spec = job(FdaConfig::linear(0.0), downlink, 1);
            let mut server = Server::new(spec.fda, random_vec(&mut rng, d));
            server.set_downlink(downlink);
            let mut replica = joined(&spec, &server);
            let mut probe = joined(&spec, &server);
            for round in 0..3 {
                let models = [random_vec(&mut rng, d), random_vec(&mut rng, d)];
                let refs: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
                server.commit(None, &refs, &[]);
                let payload = server.downlink_payload().to_vec();
                let case = (downlink.name(), round);

                let before = bits(replica.consensus());
                let mut wrong_dim = payload.clone();
                wrong_dim[..4].copy_from_slice(&(d as u32 + 1).to_le_bytes());
                let trailing = [&payload[..], &[0xAB]].concat();
                let cuts = [&payload[..payload.len() - 1], &payload[..3]];
                for bad in cuts.into_iter().chain([&wrong_dim[..], &trailing[..]]) {
                    assert!(replica.adopt(bad).is_err(), "{case:?}: {} bytes", bad.len());
                    assert_eq!(bits(replica.consensus()), before, "{case:?}");
                }
                for len in [0, 1, 64, payload.len() - 4] {
                    let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    let _ = probe.adopt(&[&(d as u32).to_le_bytes()[..], &soup].concat());
                }

                let adopted = replica.adopt(&payload).expect("own payload").to_vec();
                assert_eq!(bits(&adopted), bits(server.consensus()), "{case:?}");
            }
        }
    }

    /// Known-answer bytes of the handoff with and without the previous
    /// consensus, and the handoff resumed at the replica's dimension —
    /// both models in the replica's own buffers. Another dimension, a cut,
    /// trailing bytes, a bad flag and a round past the job's end are
    /// refused.
    #[test]
    fn resume_roundtrip_with_and_without_prev() {
        let (model, prev) = ([1.0f32, 2.0], [0.5f32, -1.0]);
        #[rustfmt::skip]
        let want: &[u8] = &[
            6, 0, 0, 0, 1, // round 6, has prev
            2, 0, 0, 0, 0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x00, 0x40, // model
            2, 0, 0, 0, 0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x80, 0xBF, // prev
        ];
        let spec = job(FdaConfig::linear(0.0), DownlinkSpec::Dense, 6);
        let mut synced = Server::new(spec.fda, prev.to_vec());
        synced.commit(None, &[&model], &[]);
        let (mut with, mut without) = (Vec::new(), Vec::new());
        synced.resume_payload(6, &mut with);
        Server::new(spec.fda, model.to_vec()).resume_payload(6, &mut without);
        assert_eq!(with, want);
        assert_eq!(without, [&want[..4], &[0], &want[5..17]].concat());

        let (round, replica) = Replica::resume(&spec, 2, want).unwrap();
        assert_eq!(
            (round, replica.consensus(), &replica.scratch[..]),
            (6, &model[..], &prev[..])
        );
        let (round, replica) = Replica::resume(&spec, 2, &without).unwrap();
        assert_eq!(
            (round, replica.consensus(), replica.scratch.len()),
            (6, &model[..], 0)
        );

        let bad_flag = [&want[..4], &[2], &want[5..]].concat();
        let trailing = [want, &[0]].concat();
        let short_job = job(spec.fda, DownlinkSpec::Dense, 5);
        for (job, bytes, dim) in [
            (&spec, want, 3),
            (&spec, &without[..], 1),
            (&spec, &want[..want.len() - 1], 2),
            (&spec, &without[..4], 2),
            (&spec, &trailing[..], 2),
            (&spec, &bad_flag[..], 2),
            (&short_job, want, 2),
        ] {
            assert!(
                Replica::resume(job, dim, bytes).is_err(),
                "{} bytes at {dim}, {} steps",
                bytes.len(),
                job.steps
            );
        }
    }
}
