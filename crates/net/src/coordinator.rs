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
//! What this driver owns is I/O: one accept path for formation's K
//! workers and each scheduled rejoin (hellos read as they arrive, every
//! other worker parked until its turn), the blocking read schedule (the
//! machine's [`CoordinatorMachine::wants`]: the lowest live id that has
//! not delivered, under the collection's deadline mapped onto the
//! socket's read timeout), the encode-once fan-out of each broadcast, the
//! raw byte counters, and writing the JSONL telemetry.
//!
//! # Failure model
//!
//! Each collection — drift scalars, summaries, models, final replicas —
//! has a deadline and each round a `min_workers` quorum
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

use crate::frame::{FrameHead, FrameKind, Hello, Link, NetError, PROTOCOL_VERSION};
use crate::machine::{
    CoordinatorMachine, DropReason, Input, MemberEvent, NetReport, Output, RoundPolicy, To,
};
use fda_core::round::{self, RunLedger};
use fda_core::wire::JobSpec;
use fda_obs::{JsonlWriter, MembershipRecord, RunEvent};
use std::net::{TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long formation waits for all K workers to connect, and a scheduled
/// re-admission for its worker.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest a new connection may take to send its hello before it is
/// closed. Hellos are read as they arrive, beside the accept loop, so a
/// connection that sends nothing holds up no other; a worker sends its
/// hello as soon as it connects.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// The rendezvous server side of the transport.
pub struct Coordinator {
    listener: TcpListener,
    policy: RoundPolicy,
    telemetry: Option<PathBuf>,
}

/// The links of one run: one slot per worker id, `None` while the worker
/// is dropped; new connections whose hello has not all arrived, with when
/// each was accepted; reconnects parked until their scheduled admission;
/// the raw bytes of closed links; and the failures the machine has yet to
/// hear of.
struct Links {
    live: Vec<Option<Link>>,
    pending: Vec<(Link, Instant)>,
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

    /// Reads what has arrived of each pending hello, without blocking, and
    /// parks each whole one. A stray — no hello within [`HELLO_TIMEOUT`],
    /// or a frame that is no hello — is closed and harms only itself.
    fn poll_hellos(&mut self) -> Result<(), NetError> {
        let mut i = 0;
        while i < self.pending.len() {
            let (link, since) = &mut self.pending[i];
            match link.poll_hello() {
                Ok(None) if since.elapsed() < HELLO_TIMEOUT => i += 1,
                Ok(Some(hello)) => {
                    let (link, _) = self.pending.swap_remove(i);
                    self.park(hello, link)?;
                }
                _ => drop(self.pending.swap_remove(i)),
            }
        }
        Ok(())
    }

    /// Parks `link` under the id its hello claims: a second connection of
    /// a parked id replaces the first (the worker retried), and a hello
    /// claiming a live id (a zombie, or a duplicate) or an id outside
    /// `0..k` has its connection closed. A peer that speaks another
    /// protocol version fails the run: that is a deployment error, not a
    /// stray.
    fn park(&mut self, hello: Hello, link: Link) -> Result<(), NetError> {
        let (version, id) = (hello.version, hello.worker_id as usize);
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "worker {id} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
            )));
        }
        if id >= self.live.len() {
            return Ok(());
        }
        link.stream.get_ref().set_nonblocking(false)?;
        if self.live[id].is_some() {
            self.retire(link);
            return Ok(());
        }
        if let Some(pos) = self.parked.iter().position(|(p, _)| *p == id) {
            let (_, old) = self.parked.swap_remove(pos);
            self.retire(old);
        }
        self.parked.push((id, link));
        Ok(())
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
            policy: RoundPolicy::default(),
            telemetry: None,
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
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

    /// Waits until worker `id` connects: formation's K workers and each
    /// scheduled rejoin all come in through here. Every new connection
    /// waits among the pending hellos, which are read as they arrive
    /// ([`Links::poll_hellos`]) — a new one at once — so no connection
    /// holds up another, and every other worker's is parked until its
    /// turn.
    fn admit(
        &self,
        id: usize,
        round: u32,
        deadline: Instant,
        links: &mut Links,
    ) -> Result<Link, NetError> {
        loop {
            let accepted = match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let link = Link::new(stream)?;
                    link.stream.get_ref().set_nonblocking(true)?;
                    links.pending.push((link, Instant::now()));
                    true
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(e) => return Err(NetError::Io(e)),
            };
            links.poll_hellos()?;
            if let Some(pos) = links.parked.iter().position(|(pid, _)| *pid == id) {
                return Ok(links.parked.swap_remove(pos).1);
            }
            if Instant::now() >= deadline {
                return Err(NetError::Protocol(format!(
                    "worker {id}, due at round {round}, did not connect within {:?}",
                    ACCEPT_TIMEOUT
                )));
            }
            if !accepted {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Runs the full FDA job across `spec.cluster.workers` TCP workers and
    /// returns the trajectory report. Blocks until the run completes, a
    /// membership drop takes it below quorum, or a formation failure. A
    /// spec that fails [`JobSpec::validate`] is a [`NetError::Protocol`].
    ///
    /// The loop feeds the machine: each link failure as `Closed`, then its
    /// outputs, then — when it has none — a tick and the frame (or the
    /// rejoin) it wants, read under the collection's deadline it maps onto
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
        let mut links = Links {
            live: (0..spec.cluster.workers).map(|_| None).collect(),
            pending: Vec::new(),
            parked: Vec::new(),
            raw: (0, 0),
            failed: Vec::new(),
        };
        // Formation: all K workers under one accept deadline.
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        for id in 0..spec.cluster.workers {
            links.live[id] = Some(self.admit(id, 0, deadline, &mut links)?);
            m.handle(Input::hello(id));
        }
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
                            let deadline = Instant::now() + ACCEPT_TIMEOUT;
                            let link = self.admit(id, m.round(), deadline, &mut links)?;
                            links.live[id] = Some(link);
                            m.handle(Input::hello(id));
                        }
                        Some((from, within)) => {
                            let link = links.live[from].as_mut().expect("a live worker has a link");
                            let within = within.expect("every collection runs under a deadline");
                            let t0 = tele.is_some().then(Instant::now);
                            let read = link.set_read_timeout(within).and_then(|()| link.read());
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
