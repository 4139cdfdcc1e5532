//! Versioned telemetry event schema, emitted as JSONL.
//!
//! Two record kinds share one stream: a `"round"` event per FDA round and
//! one `"run"` summary event at the end. The simulator and the socket
//! transport emit the *same* schema (same keys, same JSON types, same
//! order) so downstream tooling never branches on the source; the `source`
//! field is the only difference. Bump [`SCHEMA_VERSION`] on any key
//! removal or type change, or on an addition a v1 reader could not skip;
//! an additive key that readers default when absent (the round event's
//! `certified`) keeps the version.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::json::{self, Json};

/// Version stamped into every event as `"v"`.
pub const SCHEMA_VERSION: u64 = 1;

/// A worker dropped from a round, with the coordinator's drop bucket
/// (`"timeout"`, `"disconnect"`, `"protocol"`).
#[derive(Debug, Clone, PartialEq)]
pub struct DropRecord {
    pub worker: u32,
    pub reason: String,
}

/// One FDA round as observed at the aggregation point.
///
/// Byte fields follow the accounting convention shared by the simulator
/// and the coordinator: `state_bytes`/`model_bytes` are this round's
/// charged-equivalent payload bytes by frame kind, while `charged_bytes`
/// and `measured_bytes` are cumulative run totals after the round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEvent {
    /// `"sim"` or `"net"`.
    pub source: String,
    pub round: u32,
    /// Membership epoch (constant 1 in the simulator).
    pub epoch: u32,
    /// Workers participating in this round's reduce.
    pub alive: u32,
    /// Whether `H(S̄) > Θ` triggered a model sync.
    pub decision: bool,
    /// Whether the drift scalars alone settled the round (no sync, and
    /// `estimate` is their mean, an upper bound on `H(S̄)`). Additive:
    /// `false` when a stream predates it.
    pub certified: bool,
    /// The variance estimate `H(S̄)` (serialized as `null` if non-finite).
    pub estimate: f32,
    pub theta: f32,
    pub codec: String,
    /// This round's state-frame payload bytes (accounting convention).
    pub state_bytes: u64,
    /// This round's model-frame payload bytes (0 on non-sync rounds).
    pub model_bytes: u64,
    /// Cumulative charged bytes after this round.
    pub charged_bytes: u64,
    /// Cumulative measured payload bytes after this round (the simulator
    /// reports its charged total here; net runs report socket-measured).
    pub measured_bytes: u64,
    /// `[worker, microseconds]` deposit latency pairs (empty in the
    /// simulator, which has no deposits).
    pub deposit_us: Vec<(u32, u64)>,
    /// Workers dropped during this round.
    pub drops: Vec<DropRecord>,
}

impl RoundEvent {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".into(), Json::u64(SCHEMA_VERSION)),
            ("kind".into(), Json::str("round")),
            ("source".into(), Json::str(&self.source)),
            ("round".into(), Json::u64(self.round as u64)),
            ("epoch".into(), Json::u64(self.epoch as u64)),
            ("alive".into(), Json::u64(self.alive as u64)),
            ("decision".into(), Json::Bool(self.decision)),
            ("estimate".into(), Json::f32(self.estimate)),
            ("theta".into(), Json::f32(self.theta)),
            ("codec".into(), Json::str(&self.codec)),
            ("state_bytes".into(), Json::u64(self.state_bytes)),
            ("model_bytes".into(), Json::u64(self.model_bytes)),
            ("charged_bytes".into(), Json::u64(self.charged_bytes)),
            ("measured_bytes".into(), Json::u64(self.measured_bytes)),
            (
                "deposit_us".into(),
                Json::Arr(
                    self.deposit_us
                        .iter()
                        .map(|(w, us)| Json::Arr(vec![Json::u64(*w as u64), Json::u64(*us)]))
                        .collect(),
                ),
            ),
            (
                "drops".into(),
                Json::Arr(
                    self.drops
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("worker".into(), Json::u64(d.worker as u64)),
                                ("reason".into(), Json::str(&d.reason)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("certified".into(), Json::Bool(self.certified)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RoundEvent, String> {
        expect_kind(v, "round")?;
        let deposit_us = req_arr(v, "deposit_us")?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().ok_or("deposit_us entry must be an array")?;
                if pair.len() != 2 {
                    return Err("deposit_us entry must be [worker, us]".to_string());
                }
                let w = pair[0]
                    .as_u64()
                    .ok_or("deposit_us worker must be a number")?;
                let us = pair[1]
                    .as_u64()
                    .ok_or("deposit_us value must be a number")?;
                Ok((w as u32, us))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let drops = req_arr(v, "drops")?
            .iter()
            .map(|d| {
                Ok(DropRecord {
                    worker: req_u64(d, "worker")? as u32,
                    reason: req_str(d, "reason")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RoundEvent {
            source: req_str(v, "source")?,
            round: req_u64(v, "round")? as u32,
            epoch: req_u64(v, "epoch")? as u32,
            alive: req_u64(v, "alive")? as u32,
            decision: req_bool(v, "decision")?,
            certified: match v.get("certified") {
                None => false,
                Some(c) => c.as_bool().ok_or("field \"certified\" must be a bool")?,
            },
            estimate: req_f32_or_null(v, "estimate")?,
            theta: req_f32_or_null(v, "theta")?,
            codec: req_str(v, "codec")?,
            state_bytes: req_u64(v, "state_bytes")?,
            model_bytes: req_u64(v, "model_bytes")?,
            charged_bytes: req_u64(v, "charged_bytes")?,
            measured_bytes: req_u64(v, "measured_bytes")?,
            deposit_us,
            drops,
        })
    }
}

/// A membership change over the run (`"join"`, `"rejoin"`,
/// `"drop-timeout"`, `"drop-disconnect"`, `"drop-protocol"`).
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipRecord {
    pub round: u32,
    pub worker: u32,
    pub event: String,
}

/// End-of-run summary — the schema'd replacement for `NetReport`'s
/// hand-rolled JSON printing, shared verbatim by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEvent {
    pub source: String,
    pub workers: u32,
    pub variant: String,
    pub theta: f32,
    pub steps: u32,
    pub syncs: u64,
    /// One `'0'`/`'1'` character per round.
    pub decisions: String,
    pub codec: String,
    pub charged_bytes: u64,
    pub measured_payload_bytes: u64,
    pub raw_tx_bytes: u64,
    pub raw_rx_bytes: u64,
    pub survivors: Vec<u32>,
    pub membership: Vec<MembershipRecord>,
}

impl RunEvent {
    pub fn measured_equals_charged(&self) -> bool {
        self.measured_payload_bytes == self.charged_bytes
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".into(), Json::u64(SCHEMA_VERSION)),
            ("kind".into(), Json::str("run")),
            ("source".into(), Json::str(&self.source)),
            ("workers".into(), Json::u64(self.workers as u64)),
            ("variant".into(), Json::str(&self.variant)),
            ("theta".into(), Json::f32(self.theta)),
            ("steps".into(), Json::u64(self.steps as u64)),
            ("syncs".into(), Json::u64(self.syncs)),
            ("decisions".into(), Json::str(&self.decisions)),
            ("codec".into(), Json::str(&self.codec)),
            ("charged_bytes".into(), Json::u64(self.charged_bytes)),
            (
                "measured_payload_bytes".into(),
                Json::u64(self.measured_payload_bytes),
            ),
            ("raw_tx_bytes".into(), Json::u64(self.raw_tx_bytes)),
            ("raw_rx_bytes".into(), Json::u64(self.raw_rx_bytes)),
            (
                "measured_equals_charged".into(),
                Json::Bool(self.measured_equals_charged()),
            ),
            (
                "survivors".into(),
                Json::Arr(
                    self.survivors
                        .iter()
                        .map(|w| Json::u64(*w as u64))
                        .collect(),
                ),
            ),
            (
                "membership".into(),
                Json::Arr(
                    self.membership
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("round".into(), Json::u64(m.round as u64)),
                                ("worker".into(), Json::u64(m.worker as u64)),
                                ("event".into(), Json::str(&m.event)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunEvent, String> {
        expect_kind(v, "run")?;
        let survivors = req_arr(v, "survivors")?
            .iter()
            .map(|w| {
                w.as_u64()
                    .map(|w| w as u32)
                    .ok_or("survivor must be a number")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let membership = req_arr(v, "membership")?
            .iter()
            .map(|m| {
                Ok(MembershipRecord {
                    round: req_u64(m, "round")? as u32,
                    worker: req_u64(m, "worker")? as u32,
                    event: req_str(m, "event")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunEvent {
            source: req_str(v, "source")?,
            workers: req_u64(v, "workers")? as u32,
            variant: req_str(v, "variant")?,
            theta: req_f32_or_null(v, "theta")?,
            steps: req_u64(v, "steps")? as u32,
            syncs: req_u64(v, "syncs")?,
            decisions: req_str(v, "decisions")?,
            codec: req_str(v, "codec")?,
            charged_bytes: req_u64(v, "charged_bytes")?,
            measured_payload_bytes: req_u64(v, "measured_payload_bytes")?,
            raw_tx_bytes: req_u64(v, "raw_tx_bytes")?,
            raw_rx_bytes: req_u64(v, "raw_rx_bytes")?,
            survivors,
            membership,
        })
    }
}

fn expect_kind(v: &Json, kind: &str) -> Result<(), String> {
    let got_v = req_u64(v, "v")?;
    if got_v != SCHEMA_VERSION {
        return Err(format!("unsupported schema version {got_v}"));
    }
    let got_kind = req_str(v, "kind")?;
    if got_kind != kind {
        return Err(format!("expected kind {kind:?}, got {got_kind:?}"));
    }
    Ok(())
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a u64"))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a bool"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    req(v, key)?
        .as_str()
        .map(|s| s.to_string())
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn req_f32_or_null(v: &Json, key: &str) -> Result<f32, String> {
    match req(v, key)? {
        Json::Null => Ok(f32::NAN),
        other => other
            .as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| format!("field {key:?} must be a number or null")),
    }
}

/// Buffered JSONL sink; flushes on drop.
pub struct JsonlWriter {
    out: BufWriter<File>,
}

impl JsonlWriter {
    pub fn create(path: &Path) -> io::Result<JsonlWriter> {
        Ok(JsonlWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    pub fn write(&mut self, event: &Json) -> io::Result<()> {
        self.out.write_all(event.to_string().as_bytes())?;
        self.out.write_all(b"\n")
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Read every line of a JSONL file as parsed JSON (for tests and CI
/// validation). Fails on the first malformed line.
pub fn read_jsonl(path: &Path) -> io::Result<Vec<Json>> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", i + 1))
        })?;
        out.push(v);
    }
    Ok(out)
}
