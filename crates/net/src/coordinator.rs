//! The TCP coordinator: the driver that runs a [`CoordinatorMachine`] over
//! sockets.
//!
//! One FDA round on the wire is the simulator's round with sockets in
//! place of the pool's lanes (protocol v6):
//!
//! 1. **phase A** — every live worker deposits its 4-byte drift scalar
//!    (`Drift`); the round's server half ([`fda_core::round::Server`], the
//!    one the simulator runs) reduces them **in worker-id order**, and if
//!    their mean certifies the round quiet it broadcasts that mean as the
//!    decision (`AvgState`);
//! 2. **phase B** — otherwise it asks for the summaries
//!    (`SummaryRequest`), reduces the `Summary` deposits in id order,
//!    evaluates `H(S̄_t)` and broadcasts `S̄` with the decision;
//! 3. **sync** — on a sync every live worker uploads its `Model`, and the
//!    consensus goes back as `AvgModel` or `AvgModelDelta`. The decision
//!    broadcast makes that AllReduce cluster-consistent without an extra
//!    round.
//!
//! The protocol — membership, epochs, the quorum, deposits, the reduce,
//! the ledgers, the trajectory — is the machine's ([`crate::machine`]).
//! What this driver owns is I/O: accepting workers and their hello
//! handshake, parking reconnects until the schedule admits them, the
//! blocking read schedule (the machine's [`CoordinatorMachine::wants`]: the lowest live id that
//! has not delivered, under the deposit deadline mapped onto the socket's
//! read timeout), the encode-once fan-out of each broadcast, the raw byte
//! counters, and writing the JSONL telemetry.
//!
//! # Failure model
//!
//! Each round has a deposit deadline and a `min_workers` quorum
//! ([`RoundPolicy`]). A worker that times out, disconnects, or sends a
//! malformed frame is **dropped from the round**: its deposit is
//! discarded, the id-order reduce runs over the survivor set, and the run
//! continues with K′ < K. Every membership change bumps the **epoch**;
//! frames are stamped with it, and a connection's deposits are validated
//! against the epoch last announced *to that connection* — a zombie's
//! stale frames are skipped, never averaged. Dropping below quorum aborts
//! the run with [`NetError::Quorum`] instead of hanging or half-finishing.
//! A dropped worker may be re-admitted at a scheduled round
//! ([`RoundPolicy::admissions`]) via the versioned `Resume` handoff. The
//! full argument lives in DESIGN.md § "Failure model".

use crate::frame::{FrameHead, FrameKind, Link, NetError, PROTOCOL_VERSION};
use crate::machine::{
    CoordinatorMachine, DropReason, Input, MemberEvent, NetReport, Output, RoundPolicy, To,
};
use crate::protocol::Msg;
use fda_core::round::{self, RunLedger};
use fda_core::wire::JobSpec;
use fda_obs::{JsonlWriter, MembershipRecord, RunEvent};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The rendezvous server side of the transport.
pub struct Coordinator {
    listener: TcpListener,
    accept_timeout: Duration,
    read_timeout: Duration,
    policy: RoundPolicy,
    telemetry: Option<PathBuf>,
}

/// The links of one run: one slot per worker id, `None` while the worker
/// is dropped; reconnects parked until their scheduled admission; the raw
/// bytes of closed links; and the failures the machine has yet to hear of.
struct Links {
    live: Vec<Option<Link>>,
    parked: Vec<(usize, Link)>,
    raw: (u64, u64),
    failed: Vec<(usize, NetError)>,
}

impl Links {
    fn retire(&mut self, link: Link) {
        let (tx, rx) = link.close();
        self.raw = (self.raw.0 + tx, self.raw.1 + rx);
    }

    /// Closes worker `id`'s link after `e`.
    fn fail(&mut self, id: usize, e: NetError) {
        if let Some(link) = self.live[id].take() {
            self.retire(link);
        }
        self.failed.push((id, e));
    }

    /// Sends one frame to `to`, its head composed once for a whole
    /// fan-out; a target whose write fails is closed.
    fn send(&mut self, to: To, head: &FrameHead, payload: &[u8]) {
        for id in 0..self.live.len() {
            let link = self.live[id].as_mut();
            let Some(link) = link.filter(|_| to == To::Live || to == To::One(id)) else {
                continue;
            };
            if let Err(e) = link.write(head, payload) {
                self.fail(id, e);
            }
        }
    }

    /// Raw `(tx, rx)` bytes of every link the run opened.
    fn raw_bytes(&self) -> (u64, u64) {
        let open = self
            .live
            .iter()
            .flatten()
            .chain(self.parked.iter().map(|(_, l)| l));
        open.fold(self.raw, |(tx, rx), l| {
            (tx + l.stream.tx_bytes(), rx + l.stream.rx_bytes())
        })
    }
}

impl Coordinator {
    /// Binds the rendezvous listener. `127.0.0.1:0` picks a free loopback
    /// port (read it back via [`Coordinator::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Coordinator, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Coordinator {
            listener,
            accept_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(60),
            policy: RoundPolicy::default(),
            telemetry: None,
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Replaces the hang guards: how long to wait for all `K` workers to
    /// connect (also the wait budget for a scheduled re-admission), and
    /// the per-read/per-write socket timeout outside the deposit phase. A
    /// worker that stalls past the I/O timeout — silent on a read, or not
    /// draining its receive buffer on a write — is dropped (or fails the
    /// run, during formation) instead of wedging the rendezvous forever.
    pub fn set_timeouts(&mut self, accept: Duration, io: Duration) {
        self.accept_timeout = accept;
        self.read_timeout = io;
    }

    /// Replaces the per-round liveness policy (quorum, deposit deadline,
    /// admission schedule).
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        self.policy = policy;
    }

    /// Streams the versioned round-event JSONL ([`fda_obs`] schema) to
    /// `path`: one `"round"` record per FDA round — decision, estimate,
    /// per-worker deposit latency, drops, and the byte ledger — and one
    /// `"run"` summary record at the end. The stream is schema-identical
    /// to the simulator's (`Strategy::set_telemetry` on `Fda`); only the
    /// `source` field differs.
    pub fn set_telemetry(&mut self, path: impl Into<PathBuf>) {
        self.telemetry = Some(path.into());
    }

    /// Accepts one connection and completes the hello handshake, returning
    /// the claimed worker id and the link.
    fn handshake(&self, stream: TcpStream, k: usize) -> Result<(usize, Link), NetError> {
        let mut link = Link::new(stream, self.read_timeout)?;
        let (kind, _) = link.read()?;
        let Msg::Hello {
            version, worker_id, ..
        } = Msg::decode(kind, link.payload())?
        else {
            return Err(NetError::Protocol(format!(
                "expected hello, got {}",
                kind.label()
            )));
        };
        let id = worker_id as usize;
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "worker {id} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
            )));
        }
        if id >= k {
            return Err(NetError::Protocol(format!(
                "worker id {id} out of range for K = {k}"
            )));
        }
        Ok((id, link))
    }

    /// Accepts `k` workers, handshakes, and indexes them by worker id.
    fn accept_workers(&self, k: usize) -> Result<Vec<Option<Link>>, NetError> {
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.accept_timeout;
        let mut slots: Vec<Option<Link>> = (0..k).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < k {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let (id, link) = self.handshake(stream, k)?;
                    if slots[id].is_some() {
                        return Err(NetError::Protocol(format!("duplicate worker id {id}")));
                    }
                    slots[id] = Some(link);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Protocol(format!(
                            "only {accepted}/{k} workers connected within {:?}",
                            self.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(slots)
    }

    /// Waits for the scheduled rejoin of worker `id` to reconnect, parking
    /// every other reconnect meanwhile. A hello claiming a currently-live
    /// id is a zombie and its connection is closed; a second reconnect of
    /// the same parked id replaces the first (the worker retried).
    fn await_rejoin(&self, id: usize, round: u32, links: &mut Links) -> Result<Link, NetError> {
        let deadline = Instant::now() + self.accept_timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    match self.handshake(stream, links.live.len()) {
                        Ok((pid, link)) if links.live[pid].is_some() => links.retire(link),
                        Ok((pid, link)) => {
                            if let Some(pos) = links.parked.iter().position(|(p, _)| *p == pid) {
                                let (_, old) = links.parked.swap_remove(pos);
                                links.retire(old);
                            }
                            links.parked.push((pid, link));
                        }
                        // A reconnect that fails its own handshake harms
                        // only itself; the run goes on.
                        Err(NetError::Io(e)) => return Err(NetError::Io(e)),
                        Err(_) => {}
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(NetError::Io(e)),
            }
            if let Some(pos) = links.parked.iter().position(|(pid, _)| *pid == id) {
                return Ok(links.parked.swap_remove(pos).1);
            }
            if Instant::now() >= deadline {
                return Err(NetError::Protocol(format!(
                    "scheduled rejoin of worker {id} at round {round} did not arrive \
                     within {:?}",
                    self.accept_timeout
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Runs the full FDA job across `spec.cluster.workers` TCP workers and
    /// returns the trajectory report. Blocks until the run completes, a
    /// membership drop takes it below quorum, or a formation failure. A
    /// spec that fails [`JobSpec::validate`] is a [`NetError::Protocol`].
    ///
    /// The loop feeds the machine: each link failure as `Closed`, then its
    /// outputs, then — when it has none — a tick and the frame (or the
    /// rejoin) it wants, read under the deposit deadline it maps onto
    /// the socket's read timeout.
    pub fn run(&self, spec: &JobSpec) -> Result<NetReport, NetError> {
        spec.validate()
            .map_err(|e| NetError::Protocol(format!("invalid job: {e}")))?;
        let mut tele = match &self.telemetry {
            Some(path) => Some(JsonlWriter::create(path)?),
            None => None,
        };
        // The machine (model, monitor, sketch plan) is built while the
        // workers connect, not after.
        let mut m = CoordinatorMachine::new(spec, &self.policy, tele.is_some());
        let live = self.accept_workers(spec.cluster.workers)?;
        let (parked, raw, failed) = (Vec::new(), (0, 0), Vec::new());
        let mut links = Links {
            live,
            parked,
            raw,
            failed,
        };
        (0..spec.cluster.workers).for_each(|id| m.handle(Input::hello(id)));
        let start = Instant::now();
        let mut deposit_us: Vec<(u32, u64)> = Vec::new();
        loop {
            for (from, e) in links.failed.drain(..) {
                let reason = DropReason::of(&e);
                m.handle(Input::Closed { from, reason });
            }
            match m.poll() {
                Some(Output::Send {
                    to,
                    epoch,
                    kind,
                    payload,
                }) => {
                    links.send(to, &FrameHead::new(epoch, kind, payload)?, payload);
                    // A join or shutdown that cannot be written fails the
                    // run; a broadcast that cannot is a drop.
                    let fatal = matches!(
                        kind,
                        FrameKind::Config | FrameKind::Resume | FrameKind::Shutdown
                    );
                    if fatal && !links.failed.is_empty() {
                        return Err(links.failed.swap_remove(0).1);
                    }
                }
                Some(Output::Close { to, .. }) => {
                    if let Some(link) = links.live[to].take() {
                        links.retire(link);
                    }
                }
                Some(Output::Round(mut record)) => {
                    record.deposit_us = std::mem::take(&mut deposit_us);
                    if let Some(w) = tele.as_mut() {
                        w.write(&record.to_json())?;
                    }
                }
                Some(Output::Done(report)) => {
                    let mut report = report?;
                    (report.raw_tx_bytes, report.raw_rx_bytes) = links.raw_bytes();
                    if let Some(mut w) = tele {
                        w.write(&run_event(&report, spec).to_json())?;
                        w.flush()?;
                    }
                    return Ok(report);
                }
                None => {
                    m.handle(Input::Tick(start.elapsed()));
                    match m.wants() {
                        Some((id, _)) if links.live[id].is_none() => {
                            links.live[id] = Some(self.await_rejoin(id, m.round(), &mut links)?);
                            m.handle(Input::hello(id));
                        }
                        Some((from, within)) => {
                            let link = links.live[from].as_mut().expect("a live worker has a link");
                            let t0 = (tele.is_some() && within.is_some()).then(Instant::now);
                            let read = match within {
                                Some(t) => link
                                    .set_read_timeout(t)
                                    .and_then(|()| link.read())
                                    .and_then(|r| {
                                        link.set_read_timeout(self.read_timeout).map(|()| r)
                                    }),
                                None => link.read(),
                            };
                            let (kind, epoch) = match read {
                                Ok(head) => head,
                                Err(e) => {
                                    links.fail(from, e);
                                    continue;
                                }
                            };
                            if let Some(t0) = t0.filter(|_| kind == FrameKind::Drift) {
                                deposit_us.push((from as u32, t0.elapsed().as_micros() as u64));
                            }
                            let payload = link.payload();
                            m.handle(Input::Frame {
                                from,
                                kind,
                                epoch,
                                payload,
                            });
                        }
                        None => return Err(NetError::Protocol("the coordinator stalled".into())),
                    }
                }
            }
        }
    }
}

/// Builds the schema'd end-of-run summary record from a finished run — the
/// record `fda_node` prints as its run report and every telemetry stream
/// ends with. Membership events serialize as `"join"`, `"rejoin"`, or
/// `"drop-<reason>"`.
pub fn run_event(report: &NetReport, spec: &JobSpec) -> RunEvent {
    let membership = report
        .events
        .iter()
        .map(|e| MembershipRecord {
            round: e.round,
            worker: e.worker,
            event: match e.event {
                MemberEvent::Joined { rejoin: false } => "join".to_string(),
                MemberEvent::Joined { rejoin: true } => "rejoin".to_string(),
                MemberEvent::Dropped(r) => format!("drop-{}", r.as_str()),
            },
        })
        .collect();
    round::run_event(RunLedger {
        source: "net",
        workers: spec.cluster.workers as u32,
        variant: spec.fda.variant.name(),
        theta: spec.fda.theta,
        codec: spec.codec.name(),
        syncs: report.syncs,
        decisions: &report.decisions,
        charged_bytes: report.charged_bytes,
        measured_payload_bytes: report.measured_payload_bytes,
        raw_bytes: (report.raw_tx_bytes, report.raw_rx_bytes),
        survivors: report.survivors.clone(),
        membership,
    })
}
