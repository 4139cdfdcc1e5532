//! Scripted faults for the socket transport: what only a real socket can
//! show.
//!
//! The machines' failure model is searched exhaustively in memory
//! (`crates/net/tests/machines.rs`); these faults exist for the paths a
//! socket adds — a process that dies, a read timeout, a checksum that
//! fails on a live link, a reconnect. A [`FaultPlan`] is a pure value
//! (which worker does what, at which step), so the same plan under the
//! same [`crate::RoundPolicy`] admission schedule replays the same
//! membership trajectory bit for bit.
//!
//! Faults are injected at the message layer, step-indexed: each
//! [`FaultAction`] fires when the worker is about to send a given step's
//! `Drift` deposit — the worker driver filters that send through
//! `send_state`. That keeps the schedule independent of TCP segmentation
//! and buffering, which a byte- or frame-counting stream wrapper would
//! couple it to.

use crate::frame::{encode_frame, FrameHead, FrameKind, Link, NetError};
use std::io::Write as _;
use std::time::Duration;

/// Exit code a spawned worker process uses when a scripted fault tells it
/// to die (distinguishable from a genuine crash in the harness reaper).
pub const FAULT_EXIT_CODE: i32 = 86;

/// One scripted fault, anchored to the step whose `Drift` deposit it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Shut the socket down instead of sending step `N`'s deposit: the
    /// coordinator sees a clean disconnect, and the worker run ends
    /// `Faulted` (`fda_node` exits with [`FAULT_EXIT_CODE`]).
    KillBeforeState(u32),
    /// Sleep for the given milliseconds before sending step `N`'s deposit —
    /// long stalls trip the coordinator's deposit deadline (timeout drop),
    /// short ones just add latency.
    StallState {
        /// Step whose upload is delayed.
        step: u32,
        /// Delay in milliseconds.
        ms: u32,
    },
    /// Flip one bit of step `N`'s encoded deposit frame (past the length
    /// field, so the coordinator reads a full frame and the checksum —
    /// not a short read — catches it).
    FlipStateBit {
        /// Step whose frame is corrupted.
        step: u32,
        /// Bit index into the frame bytes after the 4-byte length field.
        bit: u32,
    },
    /// Send only the first `keep` bytes of step `N`'s frame, then shut the
    /// socket down: the coordinator sees a mid-frame disconnect.
    TruncateState {
        /// Step whose frame is cut short.
        step: u32,
        /// Bytes of the frame actually written.
        keep: u32,
    },
}

impl FaultAction {
    /// The step this fault fires at.
    pub fn step(&self) -> u32 {
        match *self {
            FaultAction::KillBeforeState(s) => s,
            FaultAction::StallState { step, .. }
            | FaultAction::FlipStateBit { step, .. }
            | FaultAction::TruncateState { step, .. } => step,
        }
    }

    /// Whether the fault is terminal for the connection (the worker will
    /// not complete the run on this connection).
    pub(crate) fn is_terminal(&self) -> bool {
        !matches!(self, FaultAction::StallState { .. })
    }

    /// Compact CLI form, e.g. `kill@3`, `stall@3:5000` — what
    /// `fda_node worker --fault` parses.
    pub fn to_arg(&self) -> String {
        match *self {
            FaultAction::KillBeforeState(s) => format!("kill@{s}"),
            FaultAction::StallState { step, ms } => format!("stall@{step}:{ms}"),
            FaultAction::FlipStateBit { step, bit } => format!("flip@{step}:{bit}"),
            FaultAction::TruncateState { step, keep } => format!("trunc@{step}:{keep}"),
        }
    }

    /// Parses the [`FaultAction::to_arg`] form.
    pub fn parse_arg(s: &str) -> Result<FaultAction, String> {
        let (name, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("fault spec '{s}': expected <kind>@<step>[:<arg>]"))?;
        let parse_u32 = |v: &str| {
            v.parse::<u32>()
                .map_err(|_| format!("fault spec '{s}': bad number '{v}'"))
        };
        let (step_str, arg) = match rest.split_once(':') {
            Some((a, b)) => (a, Some(b)),
            None => (rest, None),
        };
        let step = parse_u32(step_str)?;
        match (name, arg) {
            ("kill", None) => Ok(FaultAction::KillBeforeState(step)),
            ("stall", Some(a)) => Ok(FaultAction::StallState {
                step,
                ms: parse_u32(a)?,
            }),
            ("flip", Some(a)) => Ok(FaultAction::FlipStateBit {
                step,
                bit: parse_u32(a)?,
            }),
            ("trunc", Some(a)) => Ok(FaultAction::TruncateState {
                step,
                keep: parse_u32(a)?,
            }),
            _ => Err(format!("fault spec '{s}': unknown kind or missing arg")),
        }
    }
}

/// Sends step `step`'s `Drift` deposit through every scripted fault
/// anchored to it: stalls first, then at most one terminal action in
/// place of (or around) the clean send. `payload` is the already encoded
/// drift scalar — faults mangle the exact bytes a clean send would have
/// produced.
/// Returns the terminal action that ended the session, if one did; a
/// truncation is the disconnect the coordinator also observes, so the
/// rejoin machinery takes over.
pub(crate) fn send_state(
    link: &mut Link,
    faults: &[FaultAction],
    step: u32,
    epoch: u32,
    payload: &[u8],
) -> Result<Option<FaultAction>, NetError> {
    let mut actions: Vec<FaultAction> = faults
        .iter()
        .filter(|a| a.step() == step)
        .copied()
        .collect();
    actions.sort_by_key(|a| a.is_terminal()); // stalls first, then at most one terminal
    for action in actions {
        match action {
            FaultAction::StallState { ms, .. } => {
                std::thread::sleep(Duration::from_millis(u64::from(ms)))
            }
            FaultAction::KillBeforeState(_) => return Ok(Some(action)),
            FaultAction::FlipStateBit { bit, .. } => {
                // Corrupt the frame past the length field so the coordinator
                // reads a complete frame and the checksum — not a short read
                // — must catch it.
                let mut frame = encode_frame(epoch, FrameKind::Drift, payload)?;
                let b = bit as usize % ((frame.len() - 4) * 8);
                frame[4 + b / 8] ^= 1 << (b % 8);
                link.stream.write_all(&frame)?;
                return Ok(None);
            }
            FaultAction::TruncateState { keep, .. } => {
                let frame = encode_frame(epoch, FrameKind::Drift, payload)?;
                link.stream
                    .write_all(&frame[..(keep as usize).min(frame.len() - 1)])?;
                let cut = std::io::ErrorKind::ConnectionAborted;
                return Err(NetError::Disconnect(std::io::Error::new(
                    cut,
                    "scripted mid-frame truncation",
                )));
            }
        }
    }
    link.write(&FrameHead::new(epoch, FrameKind::Drift, payload)?, payload)?;
    Ok(None)
}

/// A replayable fault schedule: `(worker_id, action)` pairs. When the
/// coordinator re-admits a faulted worker is the round policy's
/// ([`crate::RoundPolicy::admissions`]).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(worker_id, action)` pairs.
    pub faults: Vec<(u32, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault for `worker`.
    pub fn fault(mut self, worker: u32, action: FaultAction) -> FaultPlan {
        self.faults.push((worker, action));
        self
    }

    /// The faults scheduled for one worker, in step order.
    fn faults_for(&self, worker: u32) -> Vec<FaultAction> {
        let mut v: Vec<FaultAction> = self
            .faults
            .iter()
            .filter(|(w, _)| *w == worker)
            .map(|&(_, a)| a)
            .collect();
        v.sort_by_key(|a| a.step());
        v
    }

    /// Whether any fault targets `worker` (the harness reaper uses this to
    /// accept a scripted death's exit status).
    pub fn has_fault(&self, worker: u32) -> bool {
        self.faults.iter().any(|(w, _)| *w == worker)
    }

    /// The `--fault` CLI arguments for one spawned worker.
    pub fn worker_args(&self, worker: u32) -> Vec<String> {
        self.faults_for(worker)
            .iter()
            .flat_map(|a| ["--fault".to_string(), a.to_arg()])
            .collect()
    }
}

/// First reconnect backoff delay.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Reconnect backoff ceiling.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Exponential backoff with jitter: delay `i` is uniform in
/// `[base·2^i / 2, base·2^i)`, capped at `cap` — the standard
/// "decorrelated-ish" shape that avoids reconnect stampedes while keeping
/// the expected delay growing geometrically.
#[derive(Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// Creates a backoff sequence; `seed` only perturbs the jitter.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next delay in the sequence.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16); // 2^16 · base already ≫ any cap we use
        self.attempt += 1;
        let full = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .as_micros() as u64;
        let jittered = full / 2 + self.rng.next() % (full / 2 + 1);
        Duration::from_micros(jittered)
    }

    /// Resets the sequence to the first delay (after a successful connect).
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// SplitMix64 — tiny, dependency-free PRNG for backoff jitter.
/// Not used anywhere numerics-bearing.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[allow(clippy::should_implement_trait)] // not an Iterator; infinite stream
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_arg_roundtrip() {
        let actions = [
            FaultAction::KillBeforeState(3),
            FaultAction::KillBeforeState(0),
            FaultAction::StallState { step: 2, ms: 1500 },
            FaultAction::FlipStateBit { step: 4, bit: 17 },
            FaultAction::TruncateState { step: 1, keep: 9 },
        ];
        for a in actions {
            assert_eq!(FaultAction::parse_arg(&a.to_arg()).unwrap(), a);
        }
        assert!(FaultAction::parse_arg("kill").is_err());
        assert!(FaultAction::parse_arg("stall@2").is_err());
        assert!(FaultAction::parse_arg("blowup@2").is_err());
        assert!(FaultAction::parse_arg("exit@2").is_err());
        assert!(FaultAction::parse_arg("flip@x:1").is_err());
    }

    #[test]
    fn faults_for_sorts_by_step() {
        let plan = FaultPlan::new()
            .fault(2, FaultAction::StallState { step: 5, ms: 10 })
            .fault(2, FaultAction::StallState { step: 1, ms: 10 })
            .fault(3, FaultAction::KillBeforeState(2));
        let f = plan.faults_for(2);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].step(), 1);
        assert_eq!(f[1].step(), 5);
        assert_eq!(
            plan.worker_args(3),
            vec!["--fault".to_string(), "kill@2".to_string()]
        );
        assert!(plan.worker_args(0).is_empty());
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 7);
        let d0 = b.next_delay();
        assert!(
            d0 >= Duration::from_millis(5)
                && d0 < Duration::from_millis(10) + Duration::from_micros(1)
        );
        // After many attempts every delay sits in [cap/2, cap].
        for _ in 0..10 {
            b.next_delay();
        }
        for _ in 0..5 {
            let d = b.next_delay();
            assert!(d >= Duration::from_millis(50) && d <= Duration::from_millis(100));
        }
        b.reset();
        assert!(b.next_delay() < Duration::from_millis(11));
    }
}
