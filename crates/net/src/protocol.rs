//! Typed messages over the frame layer.
//!
//! A [`Msg`] is one control-plane or evaluation frame whose payload is a
//! `fda_core::wire` encoding. The data plane — coded state and model
//! uploads, the consensus downlink — never becomes a `Msg`: its bytes
//! depend on the job's codecs and expected shapes, so it is read and
//! written at the frame layer and interpreted by the round's halves
//! (`fda_core::round`).
//!
//! Every frame carries the coordinator's **membership epoch** in its
//! header. Senders stamp frames with the last epoch they were told;
//! receivers validate with [`recv_frame_at_epoch_into`], which *discards*
//! frames from an older epoch (a zombie connection's in-flight deposit
//! racing a drop/rejoin) instead of averaging them, and rejects frames
//! claiming a future epoch as protocol violations.

use crate::frame::{read_frame_into, write_frame, FrameKind, NetError, PROTOCOL_VERSION};
use fda_core::monitor::LocalState;
use fda_core::wire::{
    decode_job, decode_state, decode_vector, decode_vector_at, encode_job, encode_state,
    encode_vector, JobSpec,
};
use std::io::{Read, Write};

/// How many consecutive stale-epoch frames [`recv_frame_at_epoch_into`]
/// will discard on one connection before declaring the peer a protocol
/// violator. A legitimate zombie has at most a handful of in-flight
/// frames; an endless stale stream is a broken or hostile peer.
pub const MAX_STALE_FRAMES: u32 = 8;

/// One protocol message (see [`FrameKind`] for the direction of each).
#[derive(Debug)]
pub enum Msg {
    /// Worker → coordinator handshake.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// The worker's stable id in `0..K` — the reduction order key.
        worker_id: u32,
        /// The membership epoch the worker last observed — 0 on a fresh
        /// join, the last broadcast epoch on a reconnect (so the
        /// coordinator can tell a rejoin from a restart).
        last_epoch: u32,
    },
    /// Coordinator → worker: the job (boxed: a `JobSpec` dwarfs every
    /// other variant, and `Msg` values travel through `Result`s and
    /// matches where the large-variant footprint would tax all of them).
    Config(Box<JobSpec>),
    /// Coordinator → worker: the averaged state and the round's decision.
    AvgState {
        /// `S̄_t`, averaged in worker-id order over the round's survivors.
        state: LocalState,
        /// `H(S̄_t) > Θ` — whether a model AllReduce follows.
        sync: bool,
    },
    /// Worker → coordinator: final replica (uncharged evaluation traffic).
    FinalModel(Vec<f32>),
    /// Coordinator → worker: the versioned state handoff sent on every
    /// (re)join, right after [`Msg::Config`].
    Resume {
        /// The round the worker resumes at (0 at initial formation).
        round: u32,
        /// The consensus model — `w_0` before any sync, the last
        /// AllReduced model after.
        model: Vec<f32>,
        /// The consensus model of the *previous* synchronization, when one
        /// exists — what `LinearMonitor::on_sync` needs to reconstruct ξ
        /// bit-identically to the workers that never left.
        prev_model: Option<Vec<f32>>,
    },
    /// Coordinator → worker: run complete.
    Shutdown,
}

impl Msg {
    /// Builds the handshake message for this library's protocol version.
    pub fn hello(worker_id: u32, last_epoch: u32) -> Msg {
        Msg::Hello {
            version: PROTOCOL_VERSION,
            worker_id,
            last_epoch,
        }
    }

    /// Serializes this message's frame kind and payload.
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        match self {
            Msg::Hello {
                version,
                worker_id,
                last_epoch,
            } => {
                let mut p = Vec::with_capacity(10);
                p.extend_from_slice(&version.to_le_bytes());
                p.extend_from_slice(&worker_id.to_le_bytes());
                p.extend_from_slice(&last_epoch.to_le_bytes());
                (FrameKind::Hello, p)
            }
            Msg::Config(job) => (FrameKind::Config, encode_job(job)),
            Msg::AvgState { state, sync } => {
                let mut p = vec![*sync as u8];
                p.extend_from_slice(&encode_state(state));
                (FrameKind::AvgState, p)
            }
            Msg::FinalModel(v) => (FrameKind::FinalModel, encode_vector(v)),
            Msg::Resume {
                round,
                model,
                prev_model,
            } => (
                FrameKind::Resume,
                encode_resume(*round, model, prev_model.as_deref()),
            ),
            Msg::Shutdown => (FrameKind::Shutdown, Vec::new()),
        }
    }

    /// Writes this message as one frame stamped with `epoch`.
    pub fn send<W: Write>(&self, w: &mut W, epoch: u32) -> Result<(), NetError> {
        let (kind, payload) = self.encode();
        write_frame(w, epoch, kind, &payload)
    }

    /// Decodes a message from a frame's kind + payload.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Msg, NetError> {
        Ok(match kind {
            FrameKind::Hello => {
                if payload.len() != 10 {
                    return Err(NetError::Protocol(format!(
                        "hello payload must be 10 bytes, got {}",
                        payload.len()
                    )));
                }
                Msg::Hello {
                    version: u16::from_le_bytes(payload[0..2].try_into().expect("len 2")),
                    worker_id: u32::from_le_bytes(payload[2..6].try_into().expect("len 4")),
                    last_epoch: u32::from_le_bytes(payload[6..10].try_into().expect("len 4")),
                }
            }
            FrameKind::Config => Msg::Config(Box::new(decode_job(payload)?)),
            FrameKind::AvgState => {
                let (&sync_byte, state_bytes) = payload
                    .split_first()
                    .ok_or_else(|| NetError::Protocol("empty avg-state payload".to_string()))?;
                let sync = match sync_byte {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(NetError::Protocol(format!("bad sync byte {b}")));
                    }
                };
                Msg::AvgState {
                    state: decode_state(state_bytes)?,
                    sync,
                }
            }
            FrameKind::FinalModel => Msg::FinalModel(decode_vector(payload)?),
            FrameKind::Resume => {
                if payload.len() < 5 {
                    return Err(NetError::Protocol("resume payload too short".to_string()));
                }
                let round = u32::from_le_bytes(payload[0..4].try_into().expect("len 4"));
                let has_prev = match payload[4] {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(NetError::Protocol(format!("bad resume prev flag {b}")));
                    }
                };
                let mut off = 5usize;
                let model = decode_vector_at(payload, &mut off)?;
                let prev_model = if has_prev {
                    Some(decode_vector_at(payload, &mut off)?)
                } else {
                    None
                };
                if off != payload.len() {
                    return Err(NetError::Protocol(
                        "trailing bytes after resume payload".to_string(),
                    ));
                }
                Msg::Resume {
                    round,
                    model,
                    prev_model,
                }
            }
            FrameKind::Shutdown => {
                if !payload.is_empty() {
                    return Err(NetError::Protocol(
                        "shutdown carries no payload".to_string(),
                    ));
                }
                Msg::Shutdown
            }
            // Data-plane frames are only decodable with the job's codecs
            // and shapes in hand; their receivers read them at the frame
            // layer, so reaching here means a peer sent one out of phase.
            FrameKind::State
            | FrameKind::Model
            | FrameKind::AvgModel
            | FrameKind::AvgModelDelta => {
                return Err(NetError::Protocol(format!(
                    "{} frame outside its round phase",
                    kind.label()
                )));
            }
        })
    }

    /// Reads the next message off the stream, returning it with the epoch
    /// its frame was stamped with.
    pub fn recv<R: Read>(r: &mut R) -> Result<(Msg, u32), NetError> {
        let mut buf = Vec::new();
        let (kind, epoch) = read_frame_into(r, &mut buf)?;
        Ok((Msg::decode(kind, &buf[1..])?, epoch))
    }

    /// Short name for protocol-error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "hello",
            Msg::Config(_) => "config",
            Msg::AvgState { .. } => "avg-state",
            Msg::FinalModel(_) => "final-model",
            Msg::Resume { .. } => "resume",
            Msg::Shutdown => "shutdown",
        }
    }
}

/// The [`Msg::Resume`] payload, encoded from borrowed models.
pub(crate) fn encode_resume(round: u32, model: &[f32], prev: Option<&[f32]>) -> Vec<u8> {
    let mut p = Vec::with_capacity(9 + model.len() * 4);
    p.extend_from_slice(&round.to_le_bytes());
    p.push(prev.is_some() as u8);
    p.extend_from_slice(&encode_vector(model));
    if let Some(prev) = prev {
        p.extend_from_slice(&encode_vector(prev));
    }
    p
}

/// Receives the next frame stamped with exactly `epoch` into a
/// caller-owned buffer: on success `buf` holds the frame's body
/// uninterpreted (kind byte + payload, so the payload is `&buf[1..]`, as
/// with [`read_frame_into`]).
///
/// Frames from an **older** epoch are discarded (up to
/// [`MAX_STALE_FRAMES`]) on their headers alone: they are the in-flight
/// deposits of a connection that raced a membership change — a zombie's
/// state must be dropped, not averaged into `S̄`, and need not even be
/// decodable. A frame claiming a **future** epoch is a protocol violation
/// (the coordinator is the only epoch authority). The round loops hold one
/// buffer per connection and call this, so steady-state receives allocate
/// nothing.
pub fn recv_frame_at_epoch_into<R: Read>(
    r: &mut R,
    epoch: u32,
    buf: &mut Vec<u8>,
) -> Result<FrameKind, NetError> {
    let mut stale = 0u32;
    loop {
        let (kind, frame_epoch) = read_frame_into(r, buf)?;
        if frame_epoch == epoch {
            return Ok(kind);
        }
        if frame_epoch > epoch {
            return Err(NetError::Protocol(format!(
                "frame from future epoch {frame_epoch} (current {epoch})"
            )));
        }
        stale += 1;
        if stale > MAX_STALE_FRAMES {
            return Err(NetError::Protocol(format!(
                "more than {MAX_STALE_FRAMES} stale-epoch frames (last {frame_epoch}, \
                 current {epoch})"
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_core::monitor::{LinearMonitor, SketchMonitor, VarianceMonitor};
    use fda_sketch::SketchConfig;

    fn roundtrip(msg: &Msg) -> (Msg, u32) {
        let mut buf: Vec<u8> = Vec::new();
        msg.send(&mut buf, 11).unwrap();
        Msg::recv(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn hello_roundtrip() {
        match roundtrip(&Msg::hello(3, 42)) {
            (
                Msg::Hello {
                    version,
                    worker_id,
                    last_epoch,
                },
                epoch,
            ) => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(worker_id, 3);
                assert_eq!(last_epoch, 42);
                assert_eq!(epoch, 11);
            }
            (other, _) => panic!("wrong kind: {}", other.kind_name()),
        }
    }

    /// A config frame asking for a 65 535 × 65 535 sketch — a rows × d
    /// plan table on every worker, a 17 GB template state on the
    /// coordinator — is refused while it is decoded.
    #[test]
    fn config_frame_asking_for_a_huge_sketch_is_refused() {
        use fda_core::fda::{FdaConfig, FdaVariant};
        let job = fda_core::wire::JobSpec {
            cluster: fda_core::cluster::ClusterConfig::small_test(2),
            fda: FdaConfig {
                variant: FdaVariant::Sketch(SketchConfig::new(65_535, 65_535, 7)),
                theta: 0.1,
            },
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps: 4,
            synth: fda_data::synth::SynthSpec {
                n_train: 64,
                n_test: 16,
                ..fda_data::synth::SynthSpec::synth_mnist()
            },
            task_name: "huge-sketch".to_string(),
        };
        let bytes = fda_core::wire::encode_job(&job);
        assert!(matches!(
            Msg::decode(FrameKind::Config, &bytes),
            Err(NetError::Decode(fda_core::wire::DecodeError::Malformed(_)))
        ));
    }

    /// A local state survives the data-plane frame (through the epoch
    /// filter) and the averaged-state broadcast bit for bit.
    #[test]
    fn state_and_avg_state_roundtrip_bitwise() {
        let drift: Vec<f32> = (0..96).map(|i| (i as f32 * 0.11).sin()).collect();
        for state in [
            LinearMonitor::new().local_state(&drift),
            SketchMonitor::new(SketchConfig::new(3, 16, 5), drift.len()).local_state(&drift),
        ] {
            let mut wire: Vec<u8> = Vec::new();
            write_frame(&mut wire, 11, FrameKind::State, &encode_state(&state)).unwrap();
            let mut buf = Vec::new();
            let kind =
                recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 11, &mut buf).unwrap();
            assert_eq!(kind, FrameKind::State);
            assert_eq!(decode_state(&buf[1..]).unwrap(), state);
            match roundtrip(&Msg::AvgState {
                state: state.clone(),
                sync: true,
            }) {
                (Msg::AvgState { state: back, sync }, epoch) => {
                    assert_eq!(back, state);
                    assert!(sync);
                    assert_eq!(epoch, 11);
                }
                (other, _) => panic!("wrong kind: {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn resume_roundtrip_with_and_without_prev() {
        let model: Vec<f32> = (0..50).map(|i| i as f32 * 0.25).collect();
        let prev: Vec<f32> = (0..50).map(|i| i as f32 * -0.5).collect();
        for prev_model in [None, Some(prev.clone())] {
            let msg = Msg::Resume {
                round: 6,
                model: model.clone(),
                prev_model: prev_model.clone(),
            };
            match roundtrip(&msg) {
                (
                    Msg::Resume {
                        round,
                        model: m,
                        prev_model: p,
                    },
                    _,
                ) => {
                    assert_eq!(round, 6);
                    assert_eq!(m, model);
                    assert_eq!(p, prev_model);
                }
                (other, _) => panic!("wrong kind: {}", other.kind_name()),
            }
        }
    }

    /// A parameter vector round-trips as the final model, and as a dense
    /// model upload its accounted payload — the frame payload minus the
    /// 4-byte length header — is `d·4`.
    #[test]
    fn model_roundtrip_and_accounting() {
        let v: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        match roundtrip(&Msg::FinalModel(v.clone())) {
            (Msg::FinalModel(back), _) => assert_eq!(back, v),
            (other, _) => panic!("wrong kind: {}", other.kind_name()),
        }
        let upload = fda_core::wire::encode_vector_coded(&v, &fda_comm::Dense32);
        assert_eq!(upload.len() as u64 - 4, 4000);
    }

    /// A dense state frame's accounted payload — the frame payload minus
    /// its uncharged tag/shape header — is the monitor's `state_bytes`,
    /// the exact quantity the simulator charges per step.
    #[test]
    fn state_accounting_matches_monitor_convention() {
        use fda_core::wire::state_frame_overhead;
        let drift: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let lin = LinearMonitor::new();
        let sk = SketchMonitor::new(SketchConfig::new(5, 25, 1), 64);
        for (state, charged) in [
            (lin.local_state(&drift), lin.state_bytes()),
            (sk.local_state(&drift), sk.state_bytes()),
        ] {
            let accounted = encode_state(&state).len() as u64 - state_frame_overhead(&state);
            assert_eq!(accounted, charged);
        }
    }

    /// The zombie guard: stale-epoch frames are skipped, the current-epoch
    /// frame behind them is delivered, future epochs and stale floods are
    /// protocol errors.
    #[test]
    fn stale_epochs_skipped_future_rejected() {
        let state = encode_state(&LinearMonitor::new().local_state(&[1.0, 2.0, 3.0]));
        let recv = |wire: Vec<u8>, buf: &mut Vec<u8>| {
            recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 5, buf)
        };
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 3, FrameKind::State, &state).unwrap(); // stale
        write_frame(&mut wire, 4, FrameKind::State, &state).unwrap(); // stale
        Msg::FinalModel(vec![9.0]).send(&mut wire, 5).unwrap(); // current
        let mut buf = Vec::new();
        let kind = recv(wire, &mut buf).unwrap();
        match Msg::decode(kind, &buf[1..]).unwrap() {
            Msg::FinalModel(v) => assert_eq!(v, vec![9.0]),
            other => panic!("wrong kind: {}", other.kind_name()),
        }

        // Future epoch → protocol violation.
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 9, FrameKind::State, &state).unwrap();
        assert!(matches!(recv(wire, &mut buf), Err(NetError::Protocol(_))));

        // A flood of stale frames → protocol violation, not an endless
        // discard loop.
        let mut wire: Vec<u8> = Vec::new();
        for _ in 0..(MAX_STALE_FRAMES + 2) {
            write_frame(&mut wire, 1, FrameKind::State, &state).unwrap();
        }
        assert!(matches!(recv(wire, &mut buf), Err(NetError::Protocol(_))));
    }
}
