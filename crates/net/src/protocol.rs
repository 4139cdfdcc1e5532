//! Typed messages over the frame layer.
//!
//! A [`Msg`] is one control-plane frame — hello, config, shutdown — whose
//! payload describes itself. Every frame that carries an `f32` run is read
//! at the frame layer instead and decoded into buffers the receiver
//! already shaped: the coded state and model uploads and the consensus
//! downlink by the round's halves (`fda_core::round`), the decision
//! broadcast by `Replica::check`, the final model into the coordinator's
//! model slot, and the `Resume` handoff by `decode_resume` once the
//! worker knows its model's dimension.
//!
//! Every frame carries the coordinator's **membership epoch** in its
//! header. Senders stamp frames with the last epoch they were told; the
//! coordinator machine validates every frame with [`check_epoch`], which
//! *discards* frames from an older epoch (a zombie connection's in-flight
//! deposit racing a drop/rejoin) instead of averaging them, and rejects
//! frames claiming a future epoch as protocol violations.

use crate::frame::{read_frame_into, write_frame, FrameKind, NetError, PROTOCOL_VERSION};
use fda_comm::Dense32;
use fda_core::wire::{
    decode_job, decode_vector_coded, encode_job, encode_vector_coded_into, JobSpec,
};
use std::io::{Read, Write};

/// How many consecutive stale-epoch frames [`check_epoch`] will discard
/// on one connection before declaring the peer a protocol
/// violator. A legitimate zombie has at most a handful of in-flight
/// frames; an endless stale stream is a broken or hostile peer.
pub const MAX_STALE_FRAMES: u32 = 8;

/// One control-plane message (see [`FrameKind`] for the direction of
/// each).
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
            FrameKind::Shutdown => {
                if !payload.is_empty() {
                    return Err(NetError::Protocol(
                        "shutdown carries no payload".to_string(),
                    ));
                }
                Msg::Shutdown
            }
            // Round-phase frames (most carry `f32` runs, decoded only into
            // buffers their receiver shaped) are read at the frame layer;
            // reaching here means a peer sent one out of phase.
            FrameKind::State
            | FrameKind::Drift
            | FrameKind::SummaryRequest
            | FrameKind::Summary
            | FrameKind::AvgState
            | FrameKind::Model
            | FrameKind::AvgModel
            | FrameKind::AvgModelDelta
            | FrameKind::FinalModel
            | FrameKind::Resume => {
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
}

/// The `Resume` handoff payload, `[round u32][has_prev u8][model][prev?]`,
/// each model a dense vector frame `[dim u32][dim × f32]`.
pub(crate) fn encode_resume(round: u32, model: &[f32], prev: Option<&[f32]>) -> Vec<u8> {
    let mut p = Vec::with_capacity(9 + model.len() * 4);
    p.extend_from_slice(&round.to_le_bytes());
    p.push(prev.is_some() as u8);
    encode_vector_coded_into(model, &Dense32, &mut p);
    if let Some(prev) = prev {
        encode_vector_coded_into(prev, &Dense32, &mut p);
    }
    p
}

/// A decoded `Resume` handoff: the round to resume at, the consensus
/// model, and the previous consensus once a sync has happened.
pub(crate) type Resume = (u32, Vec<f32>, Option<Vec<f32>>);

/// Decodes a `Resume` payload for a replica of `dim` parameters: each
/// model is decoded into a fresh `dim`-sized buffer, and a header naming
/// another dimension is refused before anything is written.
pub(crate) fn decode_resume(payload: &[u8], dim: usize) -> Result<Resume, NetError> {
    let model = |bytes: &[u8]| decode_vector_coded(bytes, dim, &Dense32);
    let Some((&[r0, r1, r2, r3, has_prev], models)) = payload.split_first_chunk::<5>() else {
        return Err(NetError::Protocol("resume payload too short".to_string()));
    };
    let (model_bytes, prev_bytes) = match has_prev {
        0 => (models, None),
        1 => match models.split_at_checked(4 + dim * 4) {
            Some((m, p)) => (m, Some(p)),
            None => return Err(NetError::Protocol("resume payload too short".to_string())),
        },
        b => return Err(NetError::Protocol(format!("bad resume prev flag {b}"))),
    };
    Ok((
        u32::from_le_bytes([r0, r1, r2, r3]),
        model(model_bytes)?,
        prev_bytes.map(model).transpose()?,
    ))
}

/// The epoch rule for one frame on a link whose peer was last sent
/// `current`: `Ok(true)` delivers it, `Ok(false)` discards it.
///
/// A frame from an **older** epoch is discarded on its header alone (up to
/// [`MAX_STALE_FRAMES`] in a row, counted in `stale`): it is the in-flight
/// deposit of a connection that raced a membership change — a zombie's
/// state must be dropped, not averaged into `S̄`, and need not even be
/// decodable. A frame claiming a **future** epoch is a protocol violation
/// (the coordinator is the only epoch authority).
pub fn check_epoch(epoch: u32, current: u32, stale: &mut u32) -> Result<bool, NetError> {
    if epoch == current {
        *stale = 0;
        return Ok(true);
    }
    if epoch > current {
        return Err(NetError::Protocol(format!(
            "frame from future epoch {epoch} (current {current})"
        )));
    }
    *stale += 1;
    if *stale > MAX_STALE_FRAMES {
        return Err(NetError::Protocol(format!(
            "more than {MAX_STALE_FRAMES} stale-epoch frames (last {epoch}, current {current})"
        )));
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_core::fda::FdaConfig;
    use fda_core::monitor::{LinearMonitor, SketchMonitor, VarianceMonitor};
    use fda_core::round::{Replica, Server};
    use fda_core::wire::{decode_state_coded, decode_vector_coded_into, encode_state_coded};
    use fda_sketch::SketchConfig;

    fn job(fda: FdaConfig) -> JobSpec {
        JobSpec {
            cluster: fda_core::cluster::ClusterConfig::small_test(2),
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps: 4,
            synth: fda_data::synth::SynthSpec {
                n_train: 64,
                n_test: 16,
                ..fda_data::synth::SynthSpec::synth_mnist()
            },
            task_name: "protocol".to_string(),
        }
    }

    /// The first frame on `wire` that [`check_epoch`] delivers at `epoch`.
    fn recv_at(wire: Vec<u8>, epoch: u32, buf: &mut Vec<u8>) -> Result<FrameKind, NetError> {
        let (mut r, mut stale) = (std::io::Cursor::new(wire), 0);
        loop {
            let (kind, frame_epoch) = read_frame_into(&mut r, buf)?;
            if check_epoch(frame_epoch, epoch, &mut stale)? {
                return Ok(kind);
            }
        }
    }

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
            (other, _) => panic!("wrong kind: {other:?}"),
        }
    }

    /// A config frame asking for a 65 535 × 65 535 sketch — a rows × d
    /// plan table on every worker, a 17 GB template state on the
    /// coordinator — is refused while it is decoded.
    #[test]
    fn config_frame_asking_for_a_huge_sketch_is_refused() {
        let job = job(FdaConfig {
            variant: fda_core::fda::FdaVariant::Sketch(SketchConfig::new(65_535, 65_535, 7)),
            theta: 0.1,
        });
        let bytes = fda_core::wire::encode_job(&job);
        assert!(matches!(
            Msg::decode(FrameKind::Config, &bytes),
            Err(NetError::Decode(fda_core::wire::DecodeError::Malformed(_)))
        ));
    }

    /// A local state survives the data-plane frame (through the epoch
    /// filter) bit for bit, and the server's decision broadcast reaches a
    /// replica, which reads back the server's decision.
    #[test]
    fn state_and_avg_state_roundtrip_bitwise() {
        let drift: Vec<f32> = (0..96).map(|i| (i as f32 * 0.11).sin()).collect();
        let through_a_frame = |kind, payload: &[u8], buf: &mut Vec<u8>| {
            let mut wire: Vec<u8> = Vec::new();
            write_frame(&mut wire, 11, kind, payload).unwrap();
            let got = recv_at(wire, 11, buf).unwrap();
            assert_eq!(got, kind);
        };
        for fda in [
            FdaConfig::linear(0.01),
            FdaConfig {
                variant: fda_core::fda::FdaVariant::Sketch(SketchConfig::new(3, 16, 5)),
                theta: 0.01,
            },
        ] {
            let state = fda.variant.build_monitor(drift.len()).local_state(&drift);
            let mut buf = Vec::new();
            through_a_frame(
                FrameKind::State,
                &encode_state_coded(&state, &Dense32),
                &mut buf,
            );
            assert_eq!(
                decode_state_coded(&buf[1..], &state, &Dense32).unwrap(),
                state
            );

            let mut server = Server::new(fda, vec![0.0; drift.len()]);
            let mut net = fda_comm::SimNetwork::new(1);
            let (_, sync) = server.decide(&mut net, None, &[&state], &[]);
            through_a_frame(FrameKind::AvgState, server.avg_state_payload(), &mut buf);
            let mut replica = Replica::join(&job(fda), vec![0.0; drift.len()], None);
            assert_eq!(replica.check(&buf[1..]), Ok(sync));
            assert_eq!(
                decode_state_coded(&buf[2..], &state, &Dense32).unwrap(),
                state
            );
        }
    }

    /// Known-answer bytes of the `Resume` payload with and without the
    /// previous model, and the handoff decoded at the replica's dimension;
    /// another dimension, a cut, trailing bytes and a bad flag are refused.
    #[test]
    fn resume_roundtrip_with_and_without_prev() {
        let (model, prev) = ([1.0f32, 2.0], [0.5f32, -1.0]);
        #[rustfmt::skip]
        let want: &[u8] = &[
            6, 0, 0, 0, 1, // round 6, has prev
            2, 0, 0, 0, 0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x00, 0x40, // model
            2, 0, 0, 0, 0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x80, 0xBF, // prev
        ];
        assert_eq!(encode_resume(6, &model, Some(&prev)), want);
        let without = [&want[..4], &[0], &want[5..17]].concat();
        assert_eq!(encode_resume(6, &model, None), without);
        let decoded = decode_resume(want, 2).unwrap();
        assert_eq!(decoded, (6, model.to_vec(), Some(prev.to_vec())));
        assert_eq!(
            decode_resume(&without, 2).unwrap(),
            (6, model.to_vec(), None)
        );
        let bad_flag = [&want[..4], &[2], &want[5..]].concat();
        let trailing = [want, &[0]].concat();
        for (bytes, dim) in [
            (want, 3),
            (&without[..], 1),
            (&want[..want.len() - 1], 2),
            (&without[..4], 2),
            (&trailing[..], 2),
            (&bad_flag[..], 2),
        ] {
            assert!(
                decode_resume(bytes, dim).is_err(),
                "{} bytes at {dim}",
                bytes.len()
            );
        }
    }

    /// A parameter vector round-trips as the final model, decoded into a
    /// slot of the receiver's dimension, and as a dense model upload its
    /// accounted payload — the frame payload minus the 4-byte length
    /// header — is `d·4`.
    #[test]
    fn model_roundtrip_and_accounting() {
        let v: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let upload = fda_core::wire::encode_vector_coded(&v, &Dense32);
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 11, FrameKind::FinalModel, &upload).unwrap();
        let mut buf = Vec::new();
        let (kind, _) = read_frame_into(&mut std::io::Cursor::new(wire), &mut buf).unwrap();
        assert_eq!(kind, FrameKind::FinalModel);
        let mut slot = vec![0.0f32; 1000];
        decode_vector_coded_into(&buf[1..], &mut slot, &Dense32).unwrap();
        assert_eq!(slot, v);
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
            let accounted =
                encode_state_coded(&state, &Dense32).len() as u64 - state_frame_overhead(&state);
            assert_eq!(accounted, charged);
        }
    }

    /// The zombie guard: stale-epoch frames are skipped, the current-epoch
    /// frame behind them is delivered, future epochs and stale floods are
    /// protocol errors.
    #[test]
    fn stale_epochs_skipped_future_rejected() {
        let state = encode_state_coded(
            &LinearMonitor::new().local_state(&[1.0, 2.0, 3.0]),
            &Dense32,
        );
        let recv = |wire: Vec<u8>, buf: &mut Vec<u8>| recv_at(wire, 5, buf);
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 3, FrameKind::State, &state).unwrap(); // stale
        write_frame(&mut wire, 4, FrameKind::State, &state).unwrap(); // stale
        let live = fda_core::wire::encode_vector_coded(&[9.0], &Dense32);
        write_frame(&mut wire, 5, FrameKind::FinalModel, &live).unwrap(); // current
        let mut buf = Vec::new();
        assert_eq!(recv(wire, &mut buf).unwrap(), FrameKind::FinalModel);
        assert_eq!(decode_vector_coded(&buf[1..], 1, &Dense32).unwrap(), [9.0]);

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
