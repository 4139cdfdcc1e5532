//! Length-prefixed, checksummed, epoch-stamped frame protocol.
//!
//! Every message on an `fda_net` connection is one frame:
//!
//! ```text
//! [ len: u32 ] [ epoch: u32 ] [ crc: u32 ] [ kind: u8 ] [ payload: (len − 1) bytes ]
//! ```
//!
//! `len` counts the kind byte plus the payload (little endian, like all of
//! `fda_core::wire`), so a reader always knows exactly how many bytes to
//! pull off the socket before touching a decoder. Frame payloads are the
//! `fda_core::wire` encodings — the frame layer adds transport concerns
//! only:
//!
//! * **typing and length** — plus a size cap so a corrupt or hostile
//!   length header cannot make the receiver allocate unboundedly;
//! * **integrity** — `crc` is the CRC-32C ([`checksum`]) of
//!   `[epoch][kind][payload]`, so a bit-flipped frame becomes a clean
//!   per-connection protocol error instead of a silently-wrong decode.
//!   CRC-32C detects every burst error up to 32 bits and every 1-, 2- and
//!   3-bit error at any frame size this protocol allows; it runs on the
//!   SSE4.2 `crc32` instruction where the host has it (three interleaved
//!   chains of 8-byte folds over a buffer of 4 KiB or more, joined into
//!   the one-chain value) and on a slicing-by-8 table elsewhere — one
//!   polynomial and one value for every input, so the arms agree by
//!   definition and peers on different hosts interoperate. The `len`
//!   field is the only unchecksummed region: the receiver needs it to
//!   know how many bytes the checksum covers, and a corrupted length
//!   desynchronizes the stream into a checksum or I/O error anyway;
//! * **membership versioning** — `epoch` is the coordinator's membership
//!   epoch (bumped on every worker drop or rejoin), so a stale deposit
//!   from a zombie connection is rejected instead of averaged (see
//!   [`crate::machine::check_epoch`] and the coordinator's failure
//!   model).
//!
//! Every connection opens with a [`Hello`] from the worker, the frame
//! that gates the protocol version.
//!
//! A frame's 13-byte head depends on the payload only through the
//! checksum, and not on the recipient at all, so a broadcast composes it
//! **once** (`FrameHead::new`) and writes the same head and the same
//! borrowed payload to every target (`write_frame_with`).

use fda_core::wire::DecodeError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Protocol version exchanged in the hello handshake. Bump on any frame
/// or payload layout change.
///
/// v2: checksummed + epoch-stamped frame headers, extended hello
/// (`last_epoch`), and the `Resume` handoff frame.
///
/// v3: the config frame carries the uplink payload codec (`JobSpec` wire
/// v2), and `State`/`Model` uplink payloads are codec-encoded — dense
/// runs stay byte-identical to v2, but a v2 peer cannot decode a
/// non-dense upload, so the version gates the pairing.
///
/// v4: the config frame carries the downlink spec (`JobSpec` wire v3)
/// and delta-mode jobs broadcast `AvgModelDelta` frames instead of
/// `AvgModel`. Dense-downlink runs stay byte-identical to v3, but a v3
/// peer cannot decode a delta downlink, so the version gates the pairing.
///
/// v5: the frame checksum is CRC-32C instead of FNV-1a. The head layout is
/// unchanged (still a `u32` at the same offset), but no frame of a v4 peer
/// verifies any more — starting with its hello, so a real v4 peer is
/// turned away by the checksum, and a peer that frames correctly but
/// announces another version by the handshake's version check.
///
/// v6: a round's state exchange runs in up to two phases. Every round
/// opens with `Drift` deposits (the 4-byte `‖u‖²`); the coordinator
/// settles it quiet — an `AvgState` of `[flags][m]` — or sends
/// `SummaryRequest` and collects each worker's `Summary` (the old `State`
/// payload less its scalar) before today's decision. The `AvgState`
/// decision byte became a flags byte (sync, quiet), and no peer sends
/// `State` any more. The job wire stays v3.
pub const PROTOCOL_VERSION: u16 = 6;

/// Upper bound on one frame's `len` field (kind byte + payload), defined
/// beside the job validation that sizes sketch states against it.
pub use fda_core::wire::MAX_FRAME_BYTES;

/// The socket timeout of every write on either end, and of every read
/// that runs under no deadline of its own: a peer that stops draining or
/// sending is dropped instead of wedging the rendezvous.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The handshake every connection opens with, worker → coordinator:
/// `[version u16][worker_id u32][last_epoch u32]`. The layout is the one
/// every peer since v2 speaks, so a peer of any version can be told
/// apart by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u16,
    /// The worker's stable id in `0..K` — the reduction order key.
    pub worker_id: u32,
    /// The membership epoch the worker last observed: 0 on a fresh join,
    /// the last epoch it was sent on a reconnect.
    pub last_epoch: u32,
}

/// Bytes of a hello frame on the wire: the 13-byte head and the payload.
const HELLO_FRAME_BYTES: usize = 13 + 10;

impl Hello {
    /// The hello's payload.
    pub fn encode(&self) -> [u8; 10] {
        let mut p = [0u8; 10];
        p[0..2].copy_from_slice(&self.version.to_le_bytes());
        p[2..6].copy_from_slice(&self.worker_id.to_le_bytes());
        p[6..10].copy_from_slice(&self.last_epoch.to_le_bytes());
        p
    }

    /// Decodes a frame as a hello: a frame of another kind, or a payload
    /// of another length, is a protocol error.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Hello, NetError> {
        let (FrameKind::Hello, &[v0, v1, i0, i1, i2, i3, e0, e1, e2, e3]) = (kind, payload) else {
            let (kind, len) = (kind.label(), payload.len());
            return Err(NetError::Protocol(format!(
                "{kind} frame of {len} bytes where a hello was due"
            )));
        };
        Ok(Hello {
            version: u16::from_le_bytes([v0, v1]),
            worker_id: u32::from_le_bytes([i0, i1, i2, i3]),
            last_epoch: u32::from_le_bytes([e0, e1, e2, e3]),
        })
    }
}

/// FNV-1a 32-bit hash — the frame checksum of protocol v2–v4, one
/// dependent multiply per byte. No transport path computes it any more
/// ([`checksum`] replaced it in v5); it stays exported, unchanged, because
/// the benchmark's `net.frame.checksum_us.*` lines replay it by name.
pub fn fnv1a_32(chunks: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// The frame checksum: CRC-32C (Castagnoli; reflected polynomial
/// `0x82F63B78`, initial value and final XOR `0xFFFF_FFFF` — the iSCSI /
/// ext4 / SSE4.2 CRC) over the concatenation of `chunks`, so a head and a
/// borrowed payload are checksummed without being joined. An integrity
/// check against faults, not an authenticator against adversaries.
pub fn checksum(chunks: &[&[u8]]) -> u32 {
    let update = crc32c::update();
    let mut crc = !0u32;
    for chunk in chunks {
        crc = update(crc, chunk);
    }
    !crc
}

/// CRC-32C state updates: the SSE4.2 instruction and the portable table,
/// and the once-per-process choice between them.
///
/// The SSE4.2 arm runs three `crc32` chains side by side on buffers of at
/// least [`INTERLEAVE_MIN`] bytes. One chain is bound by the instruction's
/// three-cycle latency; three independent ones fill its one-per-cycle
/// throughput. The chains are joined by the zero-append identity
/// `crc(a‖b) = shift(crc(a), |b|) ⊕ crc₀(b)` (`crc₀` starts from the zero
/// state), which holds because a CRC is linear in its state and its bytes.
/// So the result is the one-chain value for every input and carried-in
/// state, not merely a checksum as good as it.
mod crc32c {
    use std::sync::OnceLock;

    /// Folds `bytes` into a raw (un-inverted) CRC state.
    pub(crate) type Update = fn(u32, &[u8]) -> u32;

    /// The Castagnoli polynomial, reflected: bit 31 holds x⁰, bit 0 x³¹.
    const POLY: u32 = 0x82F6_3B78;

    /// Buffers shorter than this take one chain: below it, the combine
    /// (≈ 0.1 µs, most of it [`x8n`]) costs about what the second and
    /// third chains save.
    pub(super) const INTERLEAVE_MIN: usize = 4096;

    /// `a·b mod P` in the reflected representation — zlib's `multmodp`,
    /// without its data-dependent branches.
    const fn multmodp(a: u32, mut b: u32) -> u32 {
        let mut p = 0u32;
        let mut i = 0;
        while i < 32 {
            p ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
            b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
            i += 1;
        }
        p
    }

    /// `X2N[k]` = x^(2^k) mod P, by repeated squaring from x¹. The
    /// sequence has period 31 for this polynomial (x^(2^31) ≡ x, asserted
    /// below), so exponent bit `k` reads entry `k % 31`. zlib's `k & 31`
    /// relies on period 32, which its polynomial has and this one lacks.
    const X2N: [u32; 31] = {
        let mut t = [0u32; 31];
        let mut p = 1u32 << 30;
        let mut k = 0;
        while k < 31 {
            t[k] = p;
            p = multmodp(p, p);
            k += 1;
        }
        t
    };
    const _: () = assert!(multmodp(X2N[30], X2N[30]) == X2N[0]);

    /// x^(8·n) mod P: the factor that appends `n` zero bytes.
    fn x8n(n: usize) -> u32 {
        let (mut p, mut n, mut k) = (1u32 << 31, n, 3usize);
        while n != 0 {
            if n & 1 != 0 {
                p = multmodp(X2N[k % 31], p);
            }
            n >>= 1;
            k += 1;
        }
        p
    }

    /// The raw state of a message in state `crc` once `n` zero bytes are
    /// appended to it — the operator the SSE4.2 arm's combine applies.
    #[cfg(test)]
    pub fn shift(crc: u32, n: usize) -> u32 {
        multmodp(x8n(n), crc)
    }

    /// Slicing-by-8 tables (8 KiB, built at compile time): `TABLES[0]` is
    /// the classic byte-at-a-time table, `TABLES[j][b]` the CRC of byte
    /// `b` followed by `j` zero bytes.
    static TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut b = 0usize;
        while b < 256 {
            let mut crc = b as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
                bit += 1;
            }
            t[0][b] = crc;
            b += 1;
        }
        let mut j = 1usize;
        while j < 8 {
            let mut b = 0usize;
            while b < 256 {
                let prev = t[j - 1][b];
                t[j][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
                b += 1;
            }
            j += 1;
        }
        t
    };

    /// Portable arm: eight table lookups per 8-byte word, independent of
    /// each other, instead of eight dependent steps.
    pub fn table(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][w[4] as usize]
                ^ TABLES[2][w[5] as usize]
                ^ TABLES[1][w[6] as usize]
                ^ TABLES[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        crc
    }

    /// The SSE4.2 arm, or `None` on a host without the instruction.
    pub(crate) fn hardware() -> Option<Update> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was detected on the line above, which is the
            // leaf's only requirement.
            return Some(|crc, bytes| unsafe { sse42(crc, bytes) });
        }
        None
    }

    /// Three chains over the buffer's 8-byte-aligned thirds, joined by one
    /// combine, when it holds at least [`INTERLEAVE_MIN`] bytes; then one
    /// chain over what is left (all of a short buffer, < 24 bytes of a
    /// long one).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.2")]
    fn sse42(crc: u32, bytes: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let le = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        let mut crc = crc as u64;
        let mut rest = bytes;
        if bytes.len() >= INTERLEAVE_MIN {
            let third = bytes.len() / 24 * 8;
            let (lanes, tail) = bytes.split_at(3 * third);
            let (l0, l12) = lanes.split_at(third);
            let (l1, l2) = l12.split_at(third);
            let (mut c0, mut c1, mut c2) = (crc, 0u64, 0u64);
            let words = l0.chunks_exact(8).zip(l1.chunks_exact(8));
            for ((w0, w1), w2) in words.zip(l2.chunks_exact(8)) {
                c0 = _mm_crc32_u64(c0, le(w0));
                c1 = _mm_crc32_u64(c1, le(w1));
                c2 = _mm_crc32_u64(c2, le(w2));
            }
            // crc(l0‖l1‖l2) = shift(shift(c0, |l1|) ⊕ c1, |l2|) ⊕ c2.
            let x = x8n(third);
            crc = (multmodp(x, multmodp(x, c0 as u32) ^ c1 as u32) ^ c2 as u32) as u64;
            rest = tail;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            crc = _mm_crc32_u64(crc, le(w));
        }
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// The process-wide arm, chosen once: the table when the process runs
    /// the scalar kernel arm — which `FDA_FORCE_KERNEL=scalar`, the
    /// workspace's one kernel switch (see `fda_tensor::simd`), makes
    /// happen on any host, so CI can exercise the portable arm on runners
    /// that always have SSE4.2 — otherwise the instruction when present.
    pub fn update() -> Update {
        static UPDATE: OnceLock<Update> = OnceLock::new();
        *UPDATE.get_or_init(|| {
            let scalar_arm = fda_tensor::simd::kernels().isa == fda_tensor::simd::Isa::Scalar;
            hardware().filter(|_| !scalar_arm).unwrap_or(table)
        })
    }
}

/// Declares [`FrameKind`] from one table — variant, wire byte, label — so
/// the label, the wire byte and the per-kind byte counter names
/// (`net_{tx,rx}_bytes_<label>`) cannot drift apart.
macro_rules! frame_kinds {
    ($($(#[$doc:meta])* $kind:ident = $byte:literal, $label:literal;)*) => {
        /// Frame types of the coordinator/worker protocol, in handshake order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FrameKind {
            $($(#[$doc])* $kind = $byte,)*
        }

        impl FrameKind {
            /// Lowercase label for metrics and event records.
            pub fn label(&self) -> &'static str {
                match self { $(FrameKind::$kind => $label,)* }
            }

            /// Per-kind transmit byte counter name (frame image bytes,
            /// framing included) — fed by [`write_frame`].
            fn tx_counter(&self) -> &'static str {
                match self { $(FrameKind::$kind => concat!("net_tx_bytes_", $label),)* }
            }

            /// Per-kind receive byte counter name — fed by [`read_frame_into`].
            fn rx_counter(&self) -> &'static str {
                match self { $(FrameKind::$kind => concat!("net_rx_bytes_", $label),)* }
            }

            fn from_u8(b: u8) -> Option<FrameKind> {
                match b { $($byte => Some(FrameKind::$kind),)* _ => None }
            }
        }
    };
}

frame_kinds! {
    /// Worker → coordinator: protocol version + worker id + last-seen
    /// membership epoch (0 on a fresh join).
    Hello = 1, "hello";
    /// Coordinator → worker: the job config (`wire::encode_job`).
    Config = 2, "config";
    /// Worker → coordinator: one round's local state
    /// (`wire::encode_state_coded` in the job's codec). Not sent since v6,
    /// which splits it into `Drift` and `Summary`: out of phase everywhere.
    State = 3, "state";
    /// Coordinator → worker: the decision, `[flags u8]` then the dense
    /// averaged state — or, on a round the drift scalars settled, their
    /// mean `m` (`round::Server::avg_state_payload`).
    AvgState = 4, "avg_state";
    /// Worker → coordinator: full model parameters for a synchronization
    /// (`wire::encode_vector_coded` in the job's codec).
    Model = 5, "model";
    /// Coordinator → worker: the AllReduced consensus model.
    AvgModel = 6, "avg_model";
    /// Worker → coordinator: final replica parameters after the last step,
    /// a dense vector (evaluation traffic — uncharged, like
    /// `Cluster::average_params`).
    FinalModel = 7, "final_model";
    /// Coordinator → worker: run complete, close the connection.
    Shutdown = 8, "shutdown";
    /// Coordinator → worker: versioned state handoff on (re)join — the
    /// round to resume from, the consensus model, and (when a sync has
    /// happened) the previous consensus for monitor reconstruction.
    Resume = 9, "resume";
    /// Coordinator → worker: the downlink-codec-encoded delta between the
    /// previous consensus model and the round's AllReduce mean. Only sent
    /// when the job's `DownlinkSpec` is delta mode; rejoins still receive
    /// a dense `Resume`, so the handoff stays bitwise-exact.
    AvgModelDelta = 10, "avg_model_delta";
    /// Worker → coordinator: a round's deposit, the 4-byte drift scalar
    /// `‖u‖²` (`round::Replica::drift_payload`).
    Drift = 11, "drift";
    /// Coordinator → worker: the drift scalars could not settle the
    /// round; send the summary. Empty payload.
    SummaryRequest = 12, "summary_request";
    /// Worker → coordinator: the coded drift summary,
    /// `wire::encode_summary_coded_into` in the job's codec — the local
    /// state less its scalar.
    Summary = 13, "summary";
}

/// Errors of the socket transport, split by what the retry policy and the
/// coordinator's drop accounting need to distinguish.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error that is neither a timeout nor a peer
    /// disappearance (address in use, permission, …).
    Io(std::io::Error),
    /// A read or write exceeded its liveness deadline — the peer is slow
    /// or stalled, not (yet) known dead. Retryable.
    Timeout(std::io::Error),
    /// The peer went away: EOF, connection reset, broken pipe. Retryable
    /// via the reconnect path.
    Disconnect(std::io::Error),
    /// A frame payload failed to decode.
    Decode(DecodeError),
    /// The peer violated the protocol (wrong frame kind, bad handshake,
    /// oversized frame, checksum mismatch, epoch from the future, …).
    /// Not retryable on the same connection.
    Protocol(String),
    /// The coordinator's live membership fell below the configured
    /// quorum — the typed abort of an unsurvivable run.
    Quorum {
        /// Round at which the quorum was lost.
        round: u32,
        /// Workers still alive.
        alive: usize,
        /// The configured `min_workers` floor.
        min_workers: usize,
    },
}

impl NetError {
    /// Classifies a raw I/O error into [`NetError::Timeout`],
    /// [`NetError::Disconnect`], or [`NetError::Io`].
    pub fn from_io(e: std::io::Error) -> NetError {
        use std::io::ErrorKind as K;
        match e.kind() {
            K::TimedOut | K::WouldBlock => NetError::Timeout(e),
            K::UnexpectedEof
            | K::ConnectionReset
            | K::ConnectionAborted
            | K::BrokenPipe
            | K::NotConnected => NetError::Disconnect(e),
            _ => NetError::Io(e),
        }
    }

    /// Whether a worker's rejoin policy may retry after this error
    /// (timeouts and disconnects — a protocol violation or decode failure
    /// on our own stream would just repeat).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Timeout(_) | NetError::Disconnect(_) | NetError::Io(_)
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net io error: {e}"),
            NetError::Timeout(e) => write!(f, "net timeout: {e}"),
            NetError::Disconnect(e) => write!(f, "net disconnect: {e}"),
            NetError::Decode(e) => write!(f, "net decode error: {e}"),
            NetError::Protocol(what) => write!(f, "net protocol error: {what}"),
            NetError::Quorum {
                round,
                alive,
                min_workers,
            } => write!(
                f,
                "quorum lost at round {round}: {alive} workers alive, need {min_workers}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::from_io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> NetError {
        NetError::Decode(e)
    }
}

/// A byte stream with transmit/receive byte counters — the probe that
/// turns "charged" traffic accounting into *measured* accounting. Counts
/// every byte that crosses the wrapped stream, framing included.
pub(crate) struct CountingStream<S> {
    inner: S,
    tx: u64,
    rx: u64,
}

impl<S> CountingStream<S> {
    /// Wraps a stream with zeroed counters.
    pub fn new(inner: S) -> CountingStream<S> {
        CountingStream {
            inner,
            tx: 0,
            rx: 0,
        }
    }

    /// Bytes written to the stream so far.
    pub fn tx_bytes(&self) -> u64 {
        self.tx
    }

    /// Bytes read from the stream so far.
    pub fn rx_bytes(&self) -> u64 {
        self.rx
    }

    /// The wrapped stream.
    pub(crate) fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tx += n as u64;
        Ok(n)
    }

    // Must delegate explicitly: the `Write` default forwards only the
    // first non-empty buffer, which would silently split every vectored
    // frame write into two syscalls.
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.tx += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One TCP connection of either side: the counted stream and a
/// round-persistent receive buffer. Every frame is read with
/// [`read_frame_into`] into the buffer — the payload of the last frame is
/// [`Link::payload`], and steady-state reads never allocate, the buffer only
/// growing to the largest frame the peer ever sends — and written with
/// [`write_frame_with`].
pub(crate) struct Link {
    pub(crate) stream: CountingStream<TcpStream>,
    rbuf: Vec<u8>,
}

impl Link {
    /// Wraps a connected stream: blocking, `TCP_NODELAY`, and
    /// [`IO_TIMEOUT`] as the read and write timeout (the hang guard).
    pub(crate) fn new(stream: TcpStream) -> Result<Link, NetError> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Link {
            stream: CountingStream::new(stream),
            rbuf: Vec::new(),
        })
    }

    /// Reads what has arrived of the hello that opens a new connection,
    /// without waiting for the rest: `Ok(None)` until the whole frame is
    /// in, then its hello. Reads the frame's fixed length and no further,
    /// so the link is left at the frame boundary. The socket must be
    /// nonblocking.
    pub(crate) fn poll_hello(&mut self) -> Result<Option<Hello>, NetError> {
        let mut chunk = [0u8; HELLO_FRAME_BYTES];
        let want = HELLO_FRAME_BYTES - self.rbuf.len();
        match self.stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
            Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e.into()),
        }
        if self.rbuf.len() < HELLO_FRAME_BYTES {
            return Ok(None);
        }
        let frame = std::mem::take(&mut self.rbuf);
        let (kind, _) = read_frame_into(&mut &frame[..], &mut self.rbuf)?;
        Hello::decode(kind, self.payload()).map(Some)
    }

    /// Reads the next frame, returning its kind and epoch stamp.
    pub(crate) fn read(&mut self) -> Result<(FrameKind, u32), NetError> {
        read_frame_into(&mut self.stream, &mut self.rbuf)
    }

    /// The payload of the last frame read.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.rbuf[1..]
    }

    /// Writes one frame whose head was composed for `payload`.
    pub(crate) fn write(&mut self, head: &FrameHead, payload: &[u8]) -> Result<(), NetError> {
        write_frame_with(&mut self.stream, head, payload)
    }

    pub(crate) fn set_read_timeout(&self, t: Duration) -> Result<(), NetError> {
        Ok(self.stream.get_ref().set_read_timeout(Some(t))?)
    }

    /// Shuts the connection down and returns its raw `(tx, rx)` bytes.
    pub(crate) fn close(&self) -> (u64, u64) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
        (self.stream.tx_bytes(), self.stream.rx_bytes())
    }
}

/// Validates a payload length against [`MAX_FRAME_BYTES`] and returns the
/// frame's `len` field (kind byte + payload).
fn frame_len(payload_len: usize) -> Result<u32, NetError> {
    payload_len
        .checked_add(1)
        .filter(|&l| l <= MAX_FRAME_BYTES as usize)
        .map(|l| l as u32)
        .ok_or_else(|| {
            NetError::Protocol(format!(
                "frame payload of {payload_len} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
            ))
        })
}

/// One frame's 13-byte head — `[len][epoch][crc][kind]` — composed on the
/// stack. The checksum covers the payload in place (chunked CRC), so the
/// payload bytes are never copied; and since nothing in the head depends
/// on the recipient, a broadcast builds one `FrameHead` and reuses it for
/// every target via [`write_frame_with`].
///
/// The fields are private: a head only exists for the payload it was
/// computed over, and pairing it with any other payload fails the
/// receiver's checksum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHead {
    bytes: [u8; 13],
    kind: FrameKind,
}

impl FrameHead {
    /// Composes the head for `payload`, checksumming it once. Fails with
    /// [`NetError::Protocol`] if the payload exceeds [`MAX_FRAME_BYTES`].
    pub(crate) fn new(epoch: u32, kind: FrameKind, payload: &[u8]) -> Result<FrameHead, NetError> {
        let _span = fda_obs::histogram!("net_frame_encode_us").span();
        let len = frame_len(payload.len())?;
        let epoch_bytes = epoch.to_le_bytes();
        let crc = checksum(&[&epoch_bytes, &[kind as u8], payload]);
        let mut bytes = [0u8; 13];
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        bytes[4..8].copy_from_slice(&epoch_bytes);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        bytes[12] = kind as u8;
        Ok(FrameHead { bytes, kind })
    }
}

/// Composes one frame's full byte image — head and payload in one owned
/// buffer. The reference encoder [`write_frame`] is pinned against, and
/// the image the TCP smoke tests' fault relay cuts short or bit-flips, so
/// a fault mangles a *realistic* frame.
pub fn encode_frame(epoch: u32, kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    let head = FrameHead::new(epoch, kind, payload)?;
    let mut buf = Vec::with_capacity(13 + payload.len());
    buf.extend_from_slice(&head.bytes);
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Writes one frame zero-copy: the 13-byte head lives on the stack and the
/// payload is handed to the socket as a borrowed [`IoSlice`], so the write
/// path allocates nothing and still lands in one syscall on streams with
/// real scatter-gather support. Byte-for-byte identical on the wire to
/// [`encode_frame`] (pinned by the equivalence test below). An oversize
/// payload is a [`NetError::Protocol`], never a panic.
///
/// [`IoSlice`]: std::io::IoSlice
pub fn write_frame<W: Write>(
    w: &mut W,
    epoch: u32,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), NetError> {
    write_frame_with(w, &FrameHead::new(epoch, kind, payload)?, payload)
}

/// [`write_frame`] with a head composed earlier — the fan-out half of an
/// encode-once broadcast: the payload was checksummed once, by
/// [`FrameHead::new`], however many peers receive it. `payload` must be
/// the slice `head` was computed over.
pub(crate) fn write_frame_with<W: Write>(
    w: &mut W,
    head: &FrameHead,
    payload: &[u8],
) -> Result<(), NetError> {
    debug_assert_eq!(
        head.bytes[0..4],
        (payload.len() as u32 + 1).to_le_bytes(),
        "frame head paired with a different payload"
    );
    {
        let _span = fda_obs::histogram!("net_socket_write_us").span();
        let head = &head.bytes;
        // Manual gather loop: `write_vectored` has no `write_all`
        // counterpart, so advance through partial writes by hand. While
        // any head bytes remain, offer both slices; after that, finish
        // the payload with plain writes.
        let total = head.len() + payload.len();
        let mut pos = 0usize;
        while pos < total {
            let n = if pos < head.len() {
                w.write_vectored(&[
                    std::io::IoSlice::new(&head[pos..]),
                    std::io::IoSlice::new(payload),
                ])?
            } else {
                w.write(&payload[pos - head.len()..])?
            };
            if n == 0 {
                return Err(NetError::from_io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote 0 bytes mid-frame",
                )));
            }
            pos += n;
        }
        w.flush()?;
    }
    if fda_obs::enabled() {
        let reg = fda_obs::registry();
        let bytes = 13 + payload.len() as u64;
        reg.counter(head.kind.tx_counter()).add(bytes);
        reg.counter("net_tx_vectored_bytes").add(bytes);
    }
    Ok(())
}

/// How far [`read_frame_into`] grows a buffer ahead of the bytes received.
const GROW_STEP: usize = 1 << 20;

/// Reads one frame into a caller-owned buffer, validating the length
/// header against [`MAX_FRAME_BYTES`] before growing the buffer and
/// verifying the checksum before handing the payload to any decoder.
///
/// On success `buf` holds the frame body — the kind byte followed by the
/// payload, i.e. the payload is `&buf[1..]` — and the frame's kind and
/// membership epoch stamp are returned. Reusing one buffer per connection
/// turns the read path's per-frame allocation into an amortized no-op
/// (the buffer only grows to the largest frame seen). A buffer grows with
/// the bytes that arrive, at most 1 MiB ahead of them, so a header
/// that merely claims a huge frame costs the receiver one step, not the
/// claimed length.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> Result<(FrameKind, u32), NetError> {
    let mut header = [0u8; 12];
    {
        let _span = fda_obs::histogram!("net_socket_read_us").span();
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("len 4"));
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(NetError::Protocol(format!(
                "frame length {len} outside (0, {MAX_FRAME_BYTES}]"
            )));
        }
        let len = len as usize;
        if len <= buf.capacity() {
            // No `clear()` first: `read_exact` overwrites every byte, so
            // only growth past the previous frame needs zero-filling.
            buf.resize(len, 0);
            r.read_exact(buf)?;
        } else {
            buf.clear();
            while buf.len() < len {
                let start = buf.len();
                buf.resize(len.min(start + GROW_STEP), 0);
                r.read_exact(&mut buf[start..])?;
            }
        }
    }
    let _span = fda_obs::histogram!("net_frame_decode_us").span();
    let epoch_bytes: [u8; 4] = header[4..8].try_into().expect("len 4");
    let epoch = u32::from_le_bytes(epoch_bytes);
    let crc = u32::from_le_bytes(header[8..12].try_into().expect("len 4"));
    let (kind_byte, payload) = buf.split_first().expect("len >= 1");
    let actual = checksum(&[&epoch_bytes, &[*kind_byte], payload]);
    if actual != crc {
        return Err(NetError::Protocol(format!(
            "frame checksum mismatch (declared {crc:#010x}, computed {actual:#010x})"
        )));
    }
    let kind = FrameKind::from_u8(*kind_byte)
        .ok_or_else(|| NetError::Protocol(format!("unknown frame kind {kind_byte}")))?;
    if fda_obs::enabled() {
        fda_obs::registry()
            .counter(kind.rx_counter())
            .add(12 + buf.len() as u64);
    }
    Ok((kind, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame off `r` with an owned payload.
    fn read_frame<R: Read>(r: &mut R) -> Result<(FrameKind, u32, Vec<u8>), NetError> {
        let mut buf = Vec::new();
        let (kind, epoch) = read_frame_into(r, &mut buf)?;
        Ok((kind, epoch, buf.split_off(1)))
    }

    #[test]
    fn frame_roundtrip_through_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, 3, FrameKind::State, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, 7, FrameKind::Shutdown, &[]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (k1, e1, p1) = read_frame(&mut cursor).unwrap();
        assert_eq!(
            (k1, e1, p1.as_slice()),
            (FrameKind::State, 3, &[1u8, 2, 3][..])
        );
        let (k2, e2, p2) = read_frame(&mut cursor).unwrap();
        assert_eq!((k2, e2, p2.len()), (FrameKind::Shutdown, 7, 0));
    }

    #[test]
    fn oversized_and_zero_length_headers_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        buf.push(1);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
        let mut zero = 0u32.to_le_bytes().to_vec();
        zero.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(zero)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        // Compose a frame with a valid checksum but an unassigned kind
        // byte: the checksum passes, the kind dispatch must still reject.
        let epoch = 5u32.to_le_bytes();
        let crc = checksum(&[&epoch, &[250u8]]);
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&epoch);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.push(250);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_stream_is_disconnect() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, 1, FrameKind::Model, &[0u8; 64]).unwrap();
        buf.truncate(20);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(NetError::Disconnect(_))
        ));
    }

    /// The bit-flip regression: every single-bit corruption of the frame
    /// image past the length field must surface as a clean error (checksum
    /// mismatch or unknown kind), never as a silently different decode.
    #[test]
    fn every_bit_flip_past_len_is_detected() {
        let frame = encode_frame(42, FrameKind::State, &[9, 8, 7, 6, 5]).unwrap();
        for byte in 4..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                let res = read_frame(&mut std::io::Cursor::new(corrupt));
                assert!(
                    matches!(res, Err(NetError::Protocol(_))),
                    "flip of byte {byte} bit {bit} was not detected"
                );
            }
        }
    }

    /// Length-field corruption desynchronizes the stream: it must fail
    /// (checksum, bounds, or I/O) — the property is totality, not which
    /// error.
    #[test]
    fn len_field_bit_flips_never_decode() {
        let frame = encode_frame(1, FrameKind::AvgState, &[1; 40]).unwrap();
        for byte in 0..4 {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_frame(&mut std::io::Cursor::new(corrupt)).is_err(),
                    "len flip byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn io_error_classification() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::TimedOut, "t")),
            NetError::Timeout(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::WouldBlock, "t")),
            NetError::Timeout(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::ConnectionReset, "r")),
            NetError::Disconnect(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::UnexpectedEof, "e")),
            NetError::Disconnect(_)
        ));
        assert!(matches!(
            NetError::from_io(Error::new(ErrorKind::AddrInUse, "a")),
            NetError::Io(_)
        ));
        assert!(NetError::from_io(Error::new(ErrorKind::TimedOut, "t")).is_retryable());
        assert!(!NetError::Protocol("x".into()).is_retryable());
    }

    #[test]
    fn counting_stream_counts_both_directions() {
        let mut inner = std::io::Cursor::new(vec![0u8; 32]);
        let mut cs = CountingStream::new(&mut inner);
        cs.write_all(&[1, 2, 3]).unwrap();
        let mut sink = [0u8; 5];
        cs.read_exact(&mut sink).unwrap();
        assert_eq!(cs.tx_bytes(), 3);
        assert_eq!(cs.rx_bytes(), 5);
    }

    /// The zero-copy invariant: the vectored write path must emit the
    /// exact octets of [`encode_frame`] for every kind, from the empty
    /// payload up through a model-sized one ("max-size" here means the
    /// largest CI-tractable image — 1 MiB; the 256 MiB cap itself is
    /// exercised on the length check alone, see
    /// `oversized_payload_is_a_protocol_error_not_a_panic`).
    #[test]
    fn vectored_write_matches_encode_frame_for_every_kind() {
        let kinds = [
            FrameKind::Hello,
            FrameKind::Config,
            FrameKind::State,
            FrameKind::AvgState,
            FrameKind::Model,
            FrameKind::AvgModel,
            FrameKind::FinalModel,
            FrameKind::Shutdown,
            FrameKind::Resume,
            FrameKind::AvgModelDelta,
            FrameKind::Drift,
            FrameKind::SummaryRequest,
            FrameKind::Summary,
        ];
        for kind in kinds {
            for len in [0usize, 1, 12, 13, 4096, 1 << 20] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + kind as usize) as u8).collect();
                let reference = encode_frame(9_000 + len as u32, kind, &payload).unwrap();
                // `Vec<u8>`'s `write_vectored` appends every buffer.
                let mut vectored: Vec<u8> = Vec::new();
                write_frame(&mut vectored, 9_000 + len as u32, kind, &payload).unwrap();
                assert_eq!(
                    vectored, reference,
                    "vectored bytes diverge for {kind:?} len {len}"
                );
            }
        }
    }

    /// A sink that accepts one byte per call and only implements `write`
    /// (so `write_vectored` falls back to the first-buffer default):
    /// drives the gather loop through every partial-write offset, inside
    /// the head and inside the payload.
    struct Trickle(Vec<u8>);
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let payload: Vec<u8> = (0..257).map(|i| i as u8).collect();
        let mut sink = Trickle(Vec::new());
        write_frame(&mut sink, 77, FrameKind::Model, &payload).unwrap();
        assert_eq!(
            sink.0,
            encode_frame(77, FrameKind::Model, &payload).unwrap()
        );
    }

    /// An oversize payload is a typed error, not a panic. Checked on the
    /// length alone — the step every encoder runs first — so the test
    /// needs no 256 MiB buffer to stand in for the payload.
    #[test]
    fn oversized_payload_is_a_protocol_error_not_a_panic() {
        let max_payload = MAX_FRAME_BYTES as usize - 1;
        assert_eq!(frame_len(0).unwrap(), 1);
        assert_eq!(frame_len(max_payload).unwrap(), MAX_FRAME_BYTES);
        for too_long in [max_payload + 1, u32::MAX as usize, usize::MAX] {
            match frame_len(too_long) {
                Err(NetError::Protocol(what)) => {
                    assert!(what.contains("exceeds MAX_FRAME_BYTES"), "{what}")
                }
                other => panic!("length {too_long} accepted: {other:?}"),
            }
        }
    }

    /// The encode-once path: one head, many writes, each byte-identical to
    /// a frame encoded on its own.
    #[test]
    fn one_head_serves_every_target_of_a_broadcast() {
        let payload: Vec<u8> = (0..1000).map(|i| (i * 7) as u8).collect();
        let head = FrameHead::new(12, FrameKind::AvgModel, &payload).unwrap();
        assert_eq!(head.bytes[4..8], 12u32.to_le_bytes());
        let reference = encode_frame(12, FrameKind::AvgModel, &payload).unwrap();
        for _ in 0..3 {
            let mut wire = Vec::new();
            write_frame_with(&mut wire, &head, &payload).unwrap();
            assert_eq!(wire, reference);
        }
    }

    /// A shorter frame after a longer one must not expose the longer one's
    /// tail: the buffer is resized, not cleared, so its length is the
    /// contract.
    #[test]
    fn read_frame_into_shrinks_to_the_frame() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 1, FrameKind::Model, &[0xFF; 64]).unwrap();
        write_frame(&mut wire, 1, FrameKind::State, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, 1, FrameKind::Model, &[7; 32]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        read_frame_into(&mut cursor, &mut buf).unwrap();
        read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!(buf, [FrameKind::State as u8, 1, 2, 3]);
        read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!(&buf[1..], &[7u8; 32][..]);
    }

    /// A header claiming the largest legal frame, then 1 KB and a hang-up:
    /// a disconnect, after growing the buffer by one step — not by the
    /// claimed 256 MiB.
    #[test]
    fn a_claimed_length_grows_the_buffer_only_with_the_bytes_that_arrive() {
        let mut wire = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        wire.extend_from_slice(&[7u8; 1024]);
        let mut buf = Vec::new();
        let res = read_frame_into(&mut std::io::Cursor::new(wire), &mut buf);
        assert!(matches!(res, Err(NetError::Disconnect(_))), "{res:?}");
        assert!(buf.capacity() < 2 << 20, "capacity {}", buf.capacity());
    }

    /// A frame several growth steps long arrives whole into an empty
    /// buffer, and the grown buffer then takes frames of any size up to it
    /// without reallocating.
    #[test]
    fn read_frame_into_grows_in_steps_to_a_large_frame() {
        let big: Vec<u8> = (0..(5 << 19) + 3).map(|i| (i * 13) as u8).collect();
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 4, FrameKind::Model, &big).unwrap();
        write_frame(&mut wire, 4, FrameKind::Model, &big[..(3 << 19)]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, &mut buf).unwrap(),
            (FrameKind::Model, 4)
        );
        assert!(buf[1..] == big[..]);
        let cap = buf.capacity();
        read_frame_into(&mut cursor, &mut buf).unwrap();
        assert!(buf[1..] == big[..(3 << 19)]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn read_frame_into_reuses_the_buffer() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 2, FrameKind::Model, &[5u8; 128]).unwrap();
        write_frame(&mut wire, 2, FrameKind::State, &[9u8; 16]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let (k1, e1) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!((k1, e1), (FrameKind::Model, 2));
        assert_eq!(&buf[1..], &[5u8; 128][..]);
        let cap = buf.capacity();
        let (k2, _) = read_frame_into(&mut cursor, &mut buf).unwrap();
        assert_eq!(k2, FrameKind::State);
        assert_eq!(&buf[1..], &[9u8; 16][..]);
        assert_eq!(buf.capacity(), cap, "smaller frame must not reallocate");
    }

    #[test]
    fn counting_stream_counts_vectored_writes() {
        let mut inner: Vec<u8> = Vec::new();
        let mut cs = CountingStream::new(&mut inner);
        let n = cs
            .write_vectored(&[
                std::io::IoSlice::new(&[1, 2, 3]),
                std::io::IoSlice::new(&[4, 5]),
            ])
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(cs.tx_bytes(), 5);
        assert_eq!(inner, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn hello_roundtrip() {
        let hello = Hello {
            version: PROTOCOL_VERSION,
            worker_id: 3,
            last_epoch: 42,
        };
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 11, FrameKind::Hello, &hello.encode()).unwrap();
        let (kind, epoch, payload) = read_frame(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(epoch, 11);
        assert_eq!(Hello::decode(kind, &payload).unwrap(), hello);
        for (kind, len) in [
            (FrameKind::Hello, 9),
            (FrameKind::Hello, 11),
            (FrameKind::Shutdown, 10),
        ] {
            assert!(matches!(
                Hello::decode(kind, &vec![0; len]),
                Err(NetError::Protocol(_))
            ));
        }
    }

    /// The whole hello frame of worker 3, last epoch 42, stamped with
    /// epoch 11, byte for byte as protocol v6 has always written it: the
    /// version gate's layout must not move.
    #[test]
    fn hello_frame_known_answer() {
        #[rustfmt::skip]
        const WANT: [u8; HELLO_FRAME_BYTES] = [
            0x0B, 0x00, 0x00, 0x00, // len 11
            0x0B, 0x00, 0x00, 0x00, // epoch 11
            0x70, 0x70, 0xC0, 0xAB, // CRC-32C
            0x01, // Hello
            0x06, 0x00, // version 6
            0x03, 0x00, 0x00, 0x00, // worker 3
            0x2A, 0x00, 0x00, 0x00, // last epoch 42
        ];
        let hello = Hello {
            version: 6,
            worker_id: 3,
            last_epoch: 42,
        };
        assert_eq!(PROTOCOL_VERSION, 6);
        assert_eq!(
            encode_frame(11, FrameKind::Hello, &hello.encode()).unwrap(),
            WANT
        );
    }

    /// The retained FNV export keeps its historical values (the
    /// benchmark replays it by name).
    #[test]
    fn fnv1a_chunking_is_concatenation() {
        let whole = fnv1a_32(&[b"abcdef"]);
        let chunked = fnv1a_32(&[b"ab", b"cd", b"ef"]);
        assert_eq!(whole, chunked);
        assert_ne!(fnv1a_32(&[b"abcdef"]), fnv1a_32(&[b"abcdeg"]));
        assert_eq!(fnv1a_32(&[]), 0x811c_9dc5);
        assert_eq!(fnv1a_32(&[b"a"]), 0xe40c_292c);
    }

    /// CRC-32C known answers: the check value of the catalogue entry
    /// (iSCSI, RFC 3720 appendix B.4 vectors) and the empty string.
    #[test]
    fn checksum_known_answers() {
        assert_eq!(checksum(&[b"123456789"]), 0xE306_9283);
        // The portable arm by name, whichever arm `checksum` dispatched.
        assert_eq!(!crc32c::table(!0, b"123456789"), 0xE306_9283);
        assert_eq!(checksum(&[]), 0);
        assert_eq!(checksum(&[&[0u8; 32]]), 0x8A91_36AA);
        assert_eq!(checksum(&[&[0xFFu8; 32]]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(checksum(&[&ascending]), 0x46DD_794E);
    }

    #[test]
    fn checksum_chunking_is_concatenation() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = checksum(&[&data]);
        for split in [0, 1, 7, 8, 9, 64, 199, 200] {
            let (a, b) = data.split_at(split);
            assert_eq!(checksum(&[a, b]), whole, "split at {split}");
        }
        assert_eq!(
            checksum(&[&data[..3], &[], &data[3..50], &data[50..]]),
            whole
        );

        // A 64 KiB buffer splits into thirds of 21 840 bytes and a 16-byte
        // tail; chunks that end on, just before or just past a third's
        // edge (or the tail's) carry a state into the next chunk's lanes.
        let data: Vec<u8> = (0..65_536u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = checksum(&[&data]);
        let third = 65_536 / 24 * 8;
        for edge in [third, 2 * third, 3 * third] {
            for split in [edge - 8, edge - 1, edge, edge + 1, edge + 8] {
                let (a, b) = data.split_at(split);
                assert_eq!(checksum(&[a, b]), whole, "split at {split}");
            }
        }
        let (a, rest) = data.split_at(third - 1);
        let (b, c) = rest.split_at(third + 2);
        assert_eq!(checksum(&[a, b, c]), whole);
    }

    /// The zero-append operator the interleaved arm joins its chains with:
    /// shifting a state by `n` is folding in `n` zero bytes.
    #[test]
    fn shift_is_appending_zero_bytes() {
        let zeros = vec![0u8; 58_760];
        for n in [0usize, 1, 7, 8, 4096, 58_760] {
            for crc in [0u32, 1, !0, 0x8000_0000, 0xE306_9283] {
                assert_eq!(
                    crc32c::shift(crc, n),
                    crc32c::table(crc, &zeros[..n]),
                    "n {n} crc {crc:#010x}"
                );
            }
        }
    }

    /// A host-independent known answer past the interleave threshold: an
    /// integer-generated buffer the size of a `tcp-sync-head` model frame,
    /// pinned from the table arm, is the same under every arm.
    #[test]
    fn checksum_known_answer_of_a_model_sized_buffer() {
        const WANT: u32 = 0xAFBF_C430;
        let bytes: Vec<u8> = (0..176_281u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        assert_eq!(!crc32c::table(!0, &bytes), WANT);
        assert_eq!(checksum(&[&bytes]), WANT);
        if let Some(hardware) = crc32c::hardware() {
            assert_eq!(!hardware(!0, &bytes), WANT);
        }
    }

    /// The two arms are one function: every length 0..=4096 at every
    /// 8-byte alignment, then every length within 24 bytes of the
    /// interleave threshold, buffers whose thirds are 3k − 1, 3k and
    /// 3k + 1 words (and a byte either side), and a model frame, each at
    /// every alignment — all with carried-in states (the chunked use).
    /// Skips the comparison (not the table's known answers above) on a
    /// host without SSE4.2.
    #[test]
    fn hardware_crc_equals_table_crc() {
        let Some(hardware) = crc32c::hardware() else {
            return;
        };
        let mut rng = fda_tensor::Rng::new(0xC4C);
        let backing: Vec<u8> = (0..180_000).map(|_| rng.next_u64() as u8).collect();
        let check = |len: usize, align: usize, seed: u32| {
            let bytes = &backing[align..align + len];
            assert_eq!(
                hardware(seed, bytes),
                crc32c::table(seed, bytes),
                "len {len} align {align} seed {seed:#010x}"
            );
        };
        for len in 0..=4096usize {
            check(len, len % 8, (len as u32).wrapping_mul(0x9E37_79B9));
        }
        let min = crc32c::INTERLEAVE_MIN;
        let words = [200usize, 683, 2048, 7345].into_iter().flat_map(|k| {
            let n = 24 * k;
            [n - 8, n - 1, n, n + 1, n + 8]
        });
        for len in (min - 24..=min + 24).chain(words).chain([176_281]) {
            for align in 0..8 {
                check(len, align, rng.next_u64() as u32);
            }
        }
        for align in 0..8 {
            check(1021, align, !0);
        }
    }
}
