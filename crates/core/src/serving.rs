//! Serving: the federated round loop over real sockets.
//!
//! The server side ([`BoundServer`]) binds a TCP or Unix-domain listener,
//! admits clients until every data-holding worker index is claimed, then
//! drives the exact same orchestration loop as an in-process run — uploads
//! just arrive as `dpbfl-transport` frames instead of function returns. The
//! client side ([`run_client`]) connects, claims its worker indices,
//! receives the full run configuration in the server's `Welcome`, hosts its
//! workers through the same member host as the in-process transport
//! (bit-identical by construction), and answers every `RoundBegin` with one
//! `Upload` per claimed cohort member.
//!
//! ## Addresses
//!
//! Both endpoints accept two address forms:
//!
//! * `tcp://HOST:PORT` — e.g. `tcp://127.0.0.1:7171`; `PORT` 0 binds an
//!   ephemeral port (query it with [`BoundServer::local_addr`]).
//! * `unix://PATH` — a Unix-domain socket at `PATH` (removed and re-created
//!   on bind).
//!
//! ## Reconnects
//!
//! The acceptor thread stays alive for the whole run, so a dead connection
//! no longer strands its members: a fresh `ClientHello` re-claiming workers
//! whose previous connection's reader thread has terminated **re-binds**
//! those members to the new connection. The hello carries the client's
//! watermark, the first round it has not stepped (0 for a fresh process).
//! Admission replays every retained closed round from the watermark on as
//! `RoundReplay` (the historical members ∩ the claim, with that round's
//! parameters) so a stateful pooled client can bring its worker
//! RNG/momentum streams up to date without uploading, then re-sends the
//! currently open round's `RoundBegin` — a fast reconnect loses zero
//! uploads. A claim overlapping a **live** connection is refused with a
//! structured `HelloReject` (and a `client_rejected` telemetry event);
//! [`run_client`] treats that as transient (the previous connection may not
//! have been reaped yet) and retries under its backoff policy.
//!
//! The server retains only a replay window: the open round plus the last
//! `REPLAY_ROUNDS` (8) closed rounds. A **pooled** claim that would need an
//! evicted round — one of its workers was a member of a round at or after
//! the watermark that has left the window — cannot be brought up to date, so
//! it is refused with a `HelloReject` naming the watermark, the window's
//! first round and that evicted round. Rounds without the claim's members
//! need no replay, so under client sampling a worker may sit out any number
//! of rounds. A client process that reconnects keeps its watermark and is
//! admitted at any round; a *fresh* pooled process (watermark 0) is admitted
//! only while every round its workers were members of is retained.
//! On-demand claims are never refused: their members carry no state, and
//! replays build nothing for them.
//!
//! ## Writes
//!
//! Every connection has a writer thread, and every frame the server sends is
//! queued to it. A frame must be taken by its deadline — the round
//! deadline for a `RoundBegin` — however the peer paces its reads: each
//! write call gets only the time left. So a client that stops reading, or
//! reads too slowly, costs only its own members: its connection is shut
//! down and they miss their rounds as `dead-connection`. No write happens
//! under the server's lock, so neither admission nor the round loop waits on
//! a slow peer.
//!
//! ## Determinism
//!
//! The wire carries raw little-endian `f32` words, so the bytes a client
//! computes are the bytes the server folds. The fold is a pure function of
//! the upload bits, applied in arrival order but *placed* by member index,
//! so a zero-dropout serving run produces a `RunSummary` byte-identical to
//! [`crate::simulation::run`] for the same master seed. A member
//! missing the round deadline ([`RoundPolicy`]) — or sending an upload of
//! the wrong length — yields [`Collected::Dropped`], which the orchestrator
//! treats exactly like a first-stage rejection — the accepted set alone
//! determines the result.
//! Fault injection keeps the same contract: a [`FaultSpec`] carried on
//! [`SimulationConfig::serving`] withholds uploads as a pure function of
//! `(fault seed, worker, round)`, clients adopt the plan from the `Welcome`
//! config, and [`crate::round::InProcessTransport`] models the identical
//! schedule — so a served run under faults stays byte-identical to its
//! in-process reference.

use crate::config::{FaultSpec, ServingSpec};
use crate::round::{init_model, Collected, Hosted, Transport, UploadFold};
use crate::simulation::{
    calibrated_dp, data_members, deal, prepare, run_with_transport_telemetry, Provisioning,
    RunResult, RunSummary, SimulationConfig,
};
use dpbfl_telemetry::Telemetry;
use dpbfl_transport::frame::{read_handshake, write_frame, write_handshake, DEFAULT_MAX_FRAME_LEN};
use dpbfl_transport::{write_round_begin, write_round_replay, Frame, Message, ParamsBlock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-round serving policy: how long the server waits for uploads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundPolicy {
    /// Upload deadline per round, in milliseconds from the `RoundBegin`
    /// broadcast. Members whose uploads miss it are dropped for the round
    /// (treated as first-stage rejections); stragglers' late uploads are
    /// discarded on arrival. `0` means "collect only the uploads already
    /// queued when the round opens, never wait" — over the wire nothing can
    /// be queued before the broadcast, so every member drops, and clients
    /// seeing a zero deadline withhold their sends (the upload cannot
    /// count) so the outcome is deterministic rather than a race.
    pub deadline_ms: u64,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        // Generous relative to any loopback round; real deployments tune it.
        RoundPolicy { deadline_ms: 30_000 }
    }
}

/// Wall-clock metrics of one serving run (the `BENCH_serving.json` payload).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServingReport {
    /// Rounds driven.
    pub rounds: usize,
    /// Client connections admitted over the run's lifetime (a reconnect
    /// counts its replacement connection too).
    pub clients: usize,
    /// Median round latency (broadcast → last upload folded), milliseconds.
    pub p50_round_ms: f64,
    /// 99th-percentile round latency, milliseconds.
    pub p99_round_ms: f64,
    /// Round throughput over the whole run, rounds per second.
    pub rounds_per_sec: f64,
    /// Uploads that missed their round deadline (dropped members). Always
    /// `dropped_deadline + dropped_dead_connection`; kept as the stable
    /// headline counter consumers already read from `BENCH_serving.json`.
    pub dropped_uploads: u64,
    /// Dropped uploads whose client connection was still alive when the
    /// round closed — the member was merely late (a straggler).
    pub dropped_deadline: u64,
    /// Dropped uploads whose client connection's reader thread had already
    /// terminated (EOF or decode error) when the round closed.
    pub dropped_dead_connection: u64,
    /// Uploads that arrived tagged with an already-closed round and were
    /// discarded on arrival. Not counted in `dropped_uploads`: the member
    /// was already dropped when its round's deadline passed.
    pub discarded_stale: u64,
    /// Mid-run reconnects accepted: fresh connections that re-claimed
    /// workers previously bound to a dead connection.
    pub reconnects: u64,
    /// Peak bytes of round parameters held for reconnect replay: at most the
    /// open round's and `REPLAY_ROUNDS` (8) closed rounds' params blocks,
    /// whatever the run's length.
    pub history_bytes: u64,
}

/// A parsed serving address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// `tcp://HOST:PORT`.
    Tcp(String),
    /// `unix://PATH`.
    Unix(PathBuf),
}

impl ServeAddr {
    /// Parses `tcp://HOST:PORT` or `unix://PATH`.
    pub fn parse(s: &str) -> Result<ServeAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err("tcp:// address needs HOST:PORT".into());
            }
            Ok(ServeAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix://") {
            if rest.is_empty() {
                return Err("unix:// address needs a path".into());
            }
            Ok(ServeAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(format!("unrecognized address {s:?} (want tcp://HOST:PORT or unix://PATH)"))
        }
    }
}

/// One bidirectional client connection (TCP or Unix-domain).
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// Shuts both directions down, for every handle of the connection.
    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection, returning the stream and a printable peer
    /// address (TCP `IP:PORT`; Unix peers are usually unnamed). The
    /// accepted stream is always blocking, even when the listener polls
    /// non-blocking.
    fn accept(&self) -> std::io::Result<(Stream, String)> {
        match self {
            Listener::Tcp(l) => {
                let (s, peer) = l.accept()?;
                s.set_nodelay(true).ok();
                s.set_nonblocking(false).ok();
                Ok((Stream::Tcp(s), peer.to_string()))
            }
            Listener::Unix(l) => {
                let (s, addr) = l.accept()?;
                s.set_nonblocking(false).ok();
                let peer = addr
                    .as_pathname()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "unix:unnamed".to_string());
                Ok((Stream::Unix(s), peer))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }
}

/// How long admission gives a connection to send its handshake and hello,
/// and to take its `Welcome` and replayed rounds (a stalled connection must
/// not block the acceptor).
const ADMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The least time a queued frame is given to reach its peer however near its
/// deadline, so a round with a zero deadline still reaches the clients that
/// are reading.
const MIN_WRITE_WINDOW: Duration = Duration::from_millis(100);

/// The most bytes one write call passes to a connection's socket: a Unix
/// socket waits out its write timeout once per buffer it fills, and a
/// buffer holds 32 KiB, so a call this size waits at most once.
const WRITE_CHUNK: usize = 32 << 10;

/// Closed rounds the server retains for reconnect replay, besides the open
/// round.
///
/// A reconnecting client process replays from its own watermark, so the
/// window has to cover only the rounds that closed while it was away. Every
/// round that needs its members waits out the round deadline for them: at
/// full participation eight rounds are eight deadlines of absence, far
/// longer than [`run_client`]'s default retries take (50 + 100 + 200 ms of
/// backoff) at any deadline above 50 ms. Rounds without a client's members
/// do not count against the window, and a fresh pooled process is admitted
/// while its workers' first rounds are retained — at full participation,
/// during the run's first eight rounds. The server then holds at most nine
/// params blocks, whatever the run's length.
const REPLAY_ROUNDS: usize = 8;

/// Acceptor poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One upload as a connection's reader thread hands it to the round loop:
/// `(worker, round, data)`.
type Arrival = (u32, u32, Vec<f32>);

/// One admitted client connection.
struct ClientConn {
    workers: Vec<u32>,
    /// True while the connection's reader thread is running and its writer
    /// has not failed.
    alive: Arc<AtomicBool>,
    /// The writer thread's queue: every frame this connection is sent.
    outbox: Sender<Queued>,
    writer: JoinHandle<()>,
}

/// A frame queued for a connection's writer, with the instant by which the
/// peer must have taken it.
type Queued = (Instant, Outgoing);

/// One frame a connection's writer thread sends.
enum Outgoing {
    /// An encoded message (the `Welcome`, `RunComplete`), shared by every
    /// connection it goes to.
    Message(Arc<Frame>),
    /// A round naming the members the connection serves: `RoundBegin` with
    /// the round deadline in milliseconds, or `RoundReplay` (`None`) once it
    /// has closed.
    Round { round: u32, deadline_ms: Option<u64>, members: Vec<u32>, params: Arc<ParamsBlock> },
}

impl Outgoing {
    fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        match self {
            Outgoing::Message(frame) => write_frame(stream, frame.kind, &frame.payload),
            Outgoing::Round { round, deadline_ms: Some(ms), members, params } => {
                write_round_begin(stream, *round, *ms, members, params)
            }
            Outgoing::Round { round, deadline_ms: None, members, params } => {
                write_round_replay(stream, *round, members, params)
            }
        }
    }
}

/// One round the run has broadcast, kept for reconnect catch-up.
struct RoundRecord {
    round: u32,
    members: Vec<u32>,
    /// The round's parameters as broadcast: encoded once, shared by every
    /// `RoundBegin` and by every later replay.
    params: Arc<ParamsBlock>,
    /// When the round stops collecting uploads.
    deadline: Instant,
    /// True while the round is still collecting uploads.
    open: bool,
}

impl RoundRecord {
    /// This round as a connection serving `workers` is sent it —
    /// `RoundBegin` while the round is open, `RoundReplay` once it has
    /// closed — naming only the members that connection serves; `None` if it
    /// serves none.
    fn frame_for(&self, workers: &[u32], deadline_ms: u64) -> Option<Outgoing> {
        let mine: Vec<u32> = self.members.iter().copied().filter(|m| workers.contains(m)).collect();
        (!mine.is_empty()).then(|| Outgoing::Round {
            round: self.round,
            deadline_ms: self.open.then_some(deadline_ms),
            members: mine,
            params: Arc::clone(&self.params),
        })
    }
}

/// Server state shared between the round loop and the acceptor thread.
/// Every frame a connection is sent is queued to its writer under this lock,
/// so admission replays and round broadcasts reach it in round order, each
/// exactly once; no write happens under the lock.
#[derive(Default)]
struct Shared {
    conns: Vec<ClientConn>,
    /// Worker index → owning connection (latest binding wins on reconnect).
    claimed: BTreeMap<u32, usize>,
    /// The replay window: the open round and the last [`REPLAY_ROUNDS`]
    /// closed rounds, oldest first.
    history: VecDeque<RoundRecord>,
    /// Worker index → the last round it was a member of that has left the
    /// window. A pooled claim is refused only if one of its workers stepped
    /// an evicted round at or after the claim's watermark.
    last_evicted: BTreeMap<u32, u32>,
    /// Mid-run re-claims of dead connections' workers.
    reconnects: u64,
    /// Set by the acceptor on a fatal listener error, so the coverage wait
    /// fails instead of blocking forever.
    failed: Option<String>,
}

/// Everything one served run's acceptor, admission and round loop share,
/// built once by [`BoundServer::serve_telemetry`].
struct Server<'a> {
    /// The data-holding worker indices clients must claim.
    required: Vec<u32>,
    /// Payload caps for the frames a client sends, so no connection can make
    /// the server allocate more than one legitimate frame's worth: the hello
    /// is at most a claim of every required worker, and after the `Welcome`
    /// a client sends nothing larger than an `Upload` of `d` values.
    hello_cap: u32,
    upload_cap: u32,
    /// The `Welcome` every admitted connection receives (the run's config),
    /// encoded once.
    welcome: Arc<Frame>,
    /// The run's round deadline: a `deadline_ms` carried on `cfg.serving`
    /// wins over the caller's [`RoundPolicy`].
    deadline_ms: u64,
    /// Pooled members carry state from round to round, so a pooled claim is
    /// admitted only while the window holds every round from its watermark
    /// on that one of its workers was a member of.
    pooled: bool,
    shared: Mutex<Shared>,
    /// Signalled whenever a claim is registered or the acceptor fails.
    coverage: Condvar,
    /// Set once the run is over; the acceptor stops polling.
    done: AtomicBool,
    tel: &'a Telemetry,
}

/// A bound, not-yet-serving listener. Splitting bind from serve lets
/// callers (tests, the CI smoke job) learn the ephemeral port before any
/// client connects.
pub struct BoundServer {
    listener: Listener,
    local: String,
}

impl BoundServer {
    /// Binds the listener. For `tcp://HOST:0` an ephemeral port is chosen;
    /// for `unix://PATH` a stale socket file at `PATH` is removed first.
    pub fn bind(addr: &str) -> Result<BoundServer, String> {
        match ServeAddr::parse(addr)? {
            ServeAddr::Tcp(hostport) => {
                let l = TcpListener::bind(&hostport)
                    .map_err(|e| format!("bind tcp://{hostport}: {e}"))?;
                let local = l
                    .local_addr()
                    .map(|a| format!("tcp://{a}"))
                    .unwrap_or_else(|_| format!("tcp://{hostport}"));
                Ok(BoundServer { listener: Listener::Tcp(l), local })
            }
            ServeAddr::Unix(path) => {
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)
                    .map_err(|e| format!("bind unix://{}: {e}", path.display()))?;
                Ok(BoundServer {
                    listener: Listener::Unix(l),
                    local: format!("unix://{}", path.display()),
                })
            }
        }
    }

    /// The bound address in serveable form (`tcp://IP:PORT` with the real
    /// port, or `unix://PATH`).
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// Admits clients until every data-holding worker index is claimed,
    /// then drives the full run over the wire and returns the result plus
    /// the serving metrics. The acceptor keeps running for the whole run,
    /// so clients may reconnect mid-run (see the module docs).
    ///
    /// Client admission: each connection handshakes, sends `ClientHello`
    /// with the global worker indices it serves, and receives `Welcome`
    /// carrying `cfg` as canonical JSON. Claims must be in range and must
    /// not overlap a *live* connection; a claim overlapping only dead
    /// connections re-binds those workers.
    ///
    /// When `cfg.serving` carries a `deadline_ms`, it overrides `policy` —
    /// the grid cell's config determines behavior, the caller's policy is
    /// the fallback.
    ///
    /// `tel` records structured `client_rejected`/`client_reconnected`/
    /// `upload_dropped`/`upload_stale`/`upload_malformed` events, a
    /// `serving_round` latency span per round, and the orchestrator's
    /// per-round defense metrics; pass [`Telemetry::null`] to record nothing.
    pub fn serve_telemetry(
        self,
        cfg: &SimulationConfig,
        policy: &RoundPolicy,
        tel: &Telemetry,
    ) -> Result<(RunResult, ServingReport), String> {
        let required = data_member_indices(cfg);
        let full_claim =
            Message::ClientHello { workers: required.clone(), watermark: 0 }.encode().payload.len();
        let server = Server {
            required,
            hello_cap: u32::try_from(full_claim).unwrap_or(u32::MAX),
            upload_cap: Message::upload_payload_len(init_model(cfg).param_len()),
            welcome: Arc::new(
                Message::Welcome {
                    config_json: serde_json::to_string(cfg).map_err(|e| e.to_string())?,
                }
                .encode(),
            ),
            deadline_ms: cfg
                .serving
                .as_ref()
                .and_then(|s| s.deadline_ms)
                .unwrap_or(policy.deadline_ms),
            pooled: cfg.provisioning == Provisioning::Pooled,
            shared: Mutex::default(),
            coverage: Condvar::new(),
            done: AtomicBool::new(false),
            tel,
        };
        let (tx, rx) = channel();
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking on {}: {e}", self.local))?;

        std::thread::scope(|scope| {
            let acceptor_tx = tx.clone();
            let acceptor = scope.spawn(|| server.accept_until_done(&self, acceptor_tx));

            // Wait until every required worker is claimed (or the acceptor
            // hits a fatal listener error).
            {
                let mut guard = server.lock();
                while guard.claimed.len() < server.required.len() {
                    if let Some(e) = guard.failed.take() {
                        server.done.store(true, Ordering::Release);
                        drop(guard);
                        let _ = acceptor.join();
                        server.close_writers();
                        return Err(e);
                    }
                    guard = server.coverage.wait(guard).expect("serving state lock");
                }
            }

            let prep = prepare(cfg);
            let mut transport = WireTransport {
                server: &server,
                rx,
                scratch: crate::first_stage::KsScratch::new(),
                round_ms: Vec::new(),
                report: ServingReport::default(),
            };
            let started = Instant::now();
            let result = run_with_transport_telemetry(cfg, &prep, &mut transport, tel);
            server.done.store(true, Ordering::Release);
            let wall = started.elapsed().as_secs_f64();
            let WireTransport { round_ms, mut report, .. } = transport;
            let _ = acceptor.join();
            report.reconnects = server.lock().reconnects;
            report.clients = server.close_writers();
            report.rounds = round_ms.len();
            report.p50_round_ms = percentile(&round_ms, 50.0);
            report.p99_round_ms = percentile(&round_ms, 99.0);
            report.rounds_per_sec = if wall > 0.0 { round_ms.len() as f64 / wall } else { 0.0 };
            report.dropped_uploads = report.dropped_deadline + report.dropped_dead_connection;
            Ok((result, report))
        })
    }
}

/// The data-holding worker indices clients must claim: the honest workers,
/// plus the Byzantine ones when the attack trains on poisoned local data.
/// (Server-side crafted attacks — Gaussian and the omniscient family — never
/// touch the wire.)
pub fn data_member_indices(cfg: &SimulationConfig) -> Vec<u32> {
    (0..data_members(cfg) as u32).collect()
}

impl Server<'_> {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("serving state lock")
    }

    /// Closes every connection's queue and waits for its writer, which ends
    /// once the queue (`RunComplete` last) is written or a write has timed
    /// out. Returns how many connections were admitted.
    fn close_writers(&self) -> usize {
        let conns = std::mem::take(&mut self.lock().conns);
        let admitted = conns.len();
        for ClientConn { outbox, writer, .. } in conns {
            drop(outbox);
            writer.join().expect("connection writer thread");
        }
        admitted
    }

    /// The acceptor: polls the listener until the run completes, admitting
    /// initial claims and mid-run reconnects alike.
    fn accept_until_done(&self, bound: &BoundServer, tx: Sender<Arrival>) {
        while !self.done.load(Ordering::Acquire) {
            match bound.listener.accept() {
                Ok((stream, peer)) => self.admit(stream, &peer, tx.clone()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    let mut guard = self.lock();
                    guard.failed = Some(format!("accept on {}: {e}", bound.local));
                    self.coverage.notify_all();
                    break;
                }
            }
        }
    }

    /// Handshakes, validates, and (if accepted) registers one inbound
    /// connection, replaying the window from its watermark on.
    fn admit(&self, mut stream: Stream, peer: &str, tx: Sender<Arrival>) {
        // Handshake and hello are read before taking the lock, under a timeout,
        // so a stalled connection cannot block admission of others for long.
        stream.set_read_timeout(Some(ADMIT_TIMEOUT)).ok();
        stream.set_write_timeout(Some(ADMIT_TIMEOUT)).ok();
        let (workers, watermark) = match read_claim(&mut stream, &self.required, self.hello_cap) {
            Ok(claim) => claim,
            Err(reason) => return self.reject(stream, peer, &reason),
        };
        stream.set_read_timeout(None).ok();

        let mut guard = self.lock();
        // A claim may overlap previous bindings only if every overlapped
        // connection is dead — then this is a reconnect and the workers re-bind.
        let mut reclaim = false;
        for &w in &workers {
            if let Some(&c) = guard.claimed.get(&w) {
                if guard.conns[c].alive.load(Ordering::Acquire) {
                    drop(guard);
                    return self.reject(
                        stream,
                        peer,
                        &format!("worker {w} is claimed by a live connection"),
                    );
                }
                reclaim = true;
            }
        }
        // A pooled member must step every round it was a member of: a claim
        // whose worker was in an evicted round at or after the watermark
        // cannot be brought up to date. Rounds without its members it needs
        // nothing from, however many have left the window.
        let missed = workers
            .iter()
            .filter_map(|w| guard.last_evicted.get(w).map(|&r| (*w, r)))
            .filter(|&(_, r)| r >= watermark)
            .max_by_key(|&(_, r)| r);
        if let Some((w, r)) = missed.filter(|_| self.pooled) {
            let first = guard.history.front().map_or(0, |rec| rec.round);
            drop(guard);
            return self.reject(
                stream,
                peer,
                &format!(
                    "watermark {watermark} predates the replay window, which starts at round \
                     {first}: worker {w} was a member of evicted round {r}"
                ),
            );
        }

        // Welcome + catch-up replay are queued and the connection registered
        // under the lock, so no round can open or close between the replayed
        // rounds and the first live broadcast this connection sees.
        let alive = Arc::new(AtomicBool::new(true));
        if let Err(e) =
            spawn_reader(&stream, workers.clone(), self.upload_cap, tx, Arc::clone(&alive))
        {
            drop(guard);
            eprintln!("lost client {peer} during admission: {e}");
            return;
        }
        let (outbox, writer) = spawn_writer(stream, Arc::clone(&alive));
        let admit_by = Instant::now() + ADMIT_TIMEOUT;
        let _ = outbox.send((admit_by, Outgoing::Message(Arc::clone(&self.welcome))));
        for rec in guard.history.iter().filter(|r| r.open || r.round >= watermark) {
            if let Some(frame) = rec.frame_for(&workers, self.deadline_ms) {
                let _ = outbox.send((if rec.open { rec.deadline } else { admit_by }, frame));
            }
        }
        let idx = guard.conns.len();
        for &w in &workers {
            guard.claimed.insert(w, idx);
        }
        if reclaim {
            guard.reconnects += 1;
            if self.tel.enabled() {
                let open_round =
                    guard.history.back().filter(|r| r.open).map(|r| u64::from(r.round));
                self.tel.event(
                    "client_reconnected",
                    open_round,
                    format!("{peer} re-claimed workers {workers:?}"),
                );
            }
        }
        guard.conns.push(ClientConn { workers, alive, outbox, writer });
        self.coverage.notify_all();
    }

    /// Refuses a connection with a structured `HelloReject` frame
    /// (best-effort) and a `client_rejected` telemetry event.
    fn reject(&self, mut stream: Stream, peer: &str, reason: &str) {
        eprintln!("rejected client {peer}: {reason}");
        if self.tel.enabled() {
            self.tel.event("client_rejected", None, format!("{peer}: {reason}"));
        }
        let _ = Message::HelloReject { reason: reason.to_string() }.write_to(&mut stream);
        let _ = stream.flush();
    }
}

/// Reads the handshake + `ClientHello` (a frame of at most `max_len` payload
/// bytes), validates the claim's range, and returns it with the client's
/// watermark.
fn read_claim(
    stream: &mut Stream,
    required: &[u32],
    max_len: u32,
) -> Result<(Vec<u32>, u32), String> {
    write_handshake(stream).map_err(|e| format!("handshake write: {e}"))?;
    read_handshake(stream).map_err(|e| format!("handshake read: {e}"))?;
    let hello = Message::read_from(stream, max_len).map_err(|e| format!("client hello: {e}"))?;
    let Message::ClientHello { workers, watermark } = hello else {
        return Err("first client message was not ClientHello".into());
    };
    if workers.is_empty() {
        return Err("client claimed no workers".into());
    }
    for &w in &workers {
        if !required.contains(&w) {
            return Err(format!("worker {w} is not a data-holding index of this run"));
        }
    }
    Ok((workers, watermark))
}

/// Spawns the connection's reader thread: every decoded `Upload` for a
/// worker in the connection's `claim` goes to the collector channel; any
/// decode error, EOF, frame declaring more than `max_len` payload bytes
/// (refused before it is allocated), or upload naming a worker outside the
/// claim (an impersonation attempt — a protocol violation like any other)
/// ends the thread, and the member stops delivering until a reconnect re-binds it.
/// The `alive` flag is cleared when the thread exits, so the transport can
/// tell a dead connection from a straggler, and admission can tell a
/// reconnect from a duplicate claim.
fn spawn_reader(
    stream: &Stream,
    claim: Vec<u32>,
    max_len: u32,
    tx: Sender<Arrival>,
    alive: Arc<AtomicBool>,
) -> Result<(), String> {
    let mut read_half = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    std::thread::spawn(move || {
        loop {
            match Message::read_from(&mut read_half, max_len) {
                Ok(Message::Upload { worker, .. }) if !claim.contains(&worker) => break,
                Ok(Message::Upload { round, worker, data }) => {
                    if tx.send((worker, round, data)).is_err() {
                        break;
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        alive.store(false, Ordering::Release);
    });
    Ok(())
}

/// Spawns the connection's writer thread: it writes the queued frames in
/// order, each by its deadline (given at least [`MIN_WRITE_WINDOW`]). A peer
/// that cannot take a frame in time has its connection shut down and marked
/// dead, and the rest of its queue is dropped: its members then miss their
/// rounds as `dead-connection`.
fn spawn_writer(mut stream: Stream, alive: Arc<AtomicBool>) -> (Sender<Queued>, JoinHandle<()>) {
    let (outbox, queue) = channel::<Queued>();
    let writer = std::thread::spawn(move || {
        for (deadline, frame) in queue {
            let by = deadline.max(Instant::now() + MIN_WRITE_WINDOW);
            if frame.write_to(&mut DeadlineWriter { stream: &mut stream, by }).is_err() {
                alive.store(false, Ordering::Release);
                stream.shutdown();
                return;
            }
        }
    });
    (outbox, writer)
}

/// A connection's write half bounded by one frame's deadline. A socket's
/// write timeout limits each wait for buffer space, not the frame: a peer
/// that keeps reading slowly frees space before every wait times out. So
/// each write call passes at most [`WRITE_CHUNK`] bytes (one wait) under a
/// timeout of the time left until `by`, and none is made once it has passed.
struct DeadlineWriter<'a> {
    stream: &'a mut Stream,
    by: Instant,
}

impl Write for DeadlineWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.by.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(&buf[..buf.len().min(WRITE_CHUNK)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// The wire transport (TCP or Unix-domain): broadcasts `RoundBegin` to
/// every connection serving a cohort member, folds uploads in arrival order
/// (placing results by member index), and drops members that miss the
/// round deadline. It accumulates the report's drop and stale counters.
struct WireTransport<'a> {
    server: &'a Server<'a>,
    rx: Receiver<Arrival>,
    scratch: crate::first_stage::KsScratch,
    round_ms: Vec<f64>,
    report: ServingReport,
}

impl Transport for WireTransport<'_> {
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected> {
        let (tel, deadline_ms) = (self.server.tel, self.server.deadline_ms);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(deadline_ms);
        let record = RoundRecord {
            round: round as u32,
            members: members.iter().map(|&m| m as u32).collect(),
            params: Arc::new(ParamsBlock::encode(params)),
            deadline,
            open: true,
        };
        {
            // The broadcast is queued and the round recorded in one critical
            // section, so an admission replays the round or is sent it live,
            // never both or neither. The writers write outside the lock.
            let mut guard = self.server.lock();
            for conn in guard.conns.iter().filter(|c| c.alive.load(Ordering::Acquire)) {
                if let Some(frame) = record.frame_for(&conn.workers, deadline_ms) {
                    // A failed writer has dropped its queue; its members
                    // just miss the deadline.
                    let _ = conn.outbox.send((deadline, frame));
                }
            }
            guard.history.push_back(record);
            let held: usize = guard.history.iter().map(|r| r.params.byte_len()).sum();
            self.report.history_bytes = self.report.history_bytes.max(held as u64);
        }

        let d = params.len();
        let mut slots: Vec<Option<Collected>> = members.iter().map(|_| None).collect();
        // Places one received upload and reports whether it filled a slot:
        // folds a current-round upload into its member's slot (first arrival
        // wins; duplicates from reconnect resends are ignored), discards
        // stale rounds.
        //
        // This is the one point every wire upload crosses, so it is where the
        // length is checked against the model dimension `d`: the fold (and the
        // first stage behind it) takes only `d`-vectors. A malformed upload
        // still occupies its member's slot — as [`Collected::Dropped`], so the
        // member folds like any other that delivered nothing.
        let mut place = |(worker, r, data): Arrival| -> bool {
            if r as usize != round {
                self.report.discarded_stale += 1;
                if tel.enabled() {
                    tel.event(
                        "upload_stale",
                        Some(round as u64),
                        format!("worker {worker}: upload for closed round {r} discarded"),
                    );
                }
                return false;
            }
            let Ok(pos) = members.binary_search(&(worker as usize)) else { return false };
            if slots[pos].is_some() {
                return false;
            }
            slots[pos] = Some(if data.len() == d {
                fold(data, &mut self.scratch)
            } else {
                if tel.enabled() {
                    tel.event(
                        "upload_malformed",
                        Some(round as u64),
                        format!("worker {worker}: {} values, model has {d}", data.len()),
                    );
                }
                Collected::Dropped
            });
            true
        };
        let mut got = 0usize;
        // Drain whatever is already queued — with a zero deadline this is
        // the only collection pass the policy permits.
        while let Ok(m) = self.rx.try_recv() {
            got += usize::from(place(m));
        }
        while got < members.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(m) => got += usize::from(place(m)),
                Err(RecvTimeoutError::Timeout) => break,
                // Every reader thread is gone; nothing more will arrive
                // until a reconnect — which the deadline bounds.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Close the round and classify every member it ended without: a
        // dead reader thread means the connection is gone; otherwise the
        // member was merely late (a straggler past the deadline).
        {
            let mut guard = self.server.lock();
            if let Some(rec) = guard.history.back_mut() {
                rec.open = false;
            }
            let evicted = guard.history.len().saturating_sub(REPLAY_ROUNDS);
            let shared = &mut *guard;
            for rec in shared.history.drain(..evicted) {
                for &w in &rec.members {
                    shared.last_evicted.insert(w, rec.round);
                }
            }
            for (pos, slot) in slots.iter().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let w = members[pos] as u32;
                let conn_alive = guard
                    .claimed
                    .get(&w)
                    .map(|&c| guard.conns[c].alive.load(Ordering::Acquire))
                    .unwrap_or(false);
                let reason = if conn_alive {
                    self.report.dropped_deadline += 1;
                    "deadline"
                } else {
                    self.report.dropped_dead_connection += 1;
                    "dead-connection"
                };
                if tel.enabled() {
                    tel.event(
                        "upload_dropped",
                        Some(round as u64),
                        format!("worker {w}: {reason}"),
                    );
                }
            }
        }
        let elapsed = start.elapsed();
        self.round_ms.push(elapsed.as_secs_f64() * 1e3);
        tel.span("serving_round", Some(round as u64), elapsed.as_micros() as u64);
        slots.into_iter().map(|s| s.unwrap_or(Collected::Dropped)).collect()
    }

    fn publish_summary(&mut self, summary: &RunSummary) {
        let Ok(summary_json) = serde_json::to_string(summary) else { return };
        // Encoded once; every connection is sent the same bytes, under the
        // round deadline's write timeout.
        let frame = Arc::new(Message::RunComplete { summary_json }.encode());
        let deadline = Instant::now() + Duration::from_millis(self.server.deadline_ms);
        for conn in &self.server.lock().conns {
            let _ = conn.outbox.send((deadline, Outgoing::Message(Arc::clone(&frame))));
        }
    }
}

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0.0 when empty.
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Options for one client process.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// This client's fault-injection plan. When it injects nothing
    /// ([`FaultSpec::is_noop`]), the client adopts the plan the server
    /// carries on `cfg.serving` — the grid-swept path, which keeps served
    /// runs byte-identical to the in-process model. A non-noop plan here
    /// overrides the server's for this client only (test/CLI injection).
    pub fault: FaultSpec,
    /// Reconnect attempts after a connect, handshake, or mid-run stream
    /// error (a rejected claim counts too: the server may simply not have
    /// reaped the previous connection yet). `0` disables retry.
    pub max_retries: u32,
    /// Base backoff before the first retry, milliseconds; doubled per
    /// subsequent attempt and capped at 5 s.
    pub backoff_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions { fault: FaultSpec::default(), max_retries: 3, backoff_ms: 50 }
    }
}

/// One round's uploads to send, `(worker, data)` in member order.
type Uploads = Vec<(u32, Vec<f32>)>;

/// Client-side run state that must survive reconnects: the hosted members
/// (a pooled worker's RNG + momentum streams evolve across rounds), the
/// round watermark, and the last stepped round's uploads (so a reconnect
/// that re-receives the open round can resend without re-stepping).
#[derive(Default)]
struct ClientState {
    /// The claim, hosted on the first `Welcome`.
    hosted: Option<Hosted>,
    /// First round this client has not stepped yet.
    next_round: usize,
    /// The most recently stepped round, with the uploads it sends.
    cached: Option<(u32, Uploads)>,
    /// `FaultSpec::drop_at_round` fires once per [`run_client`] call.
    dropped_once: bool,
}

/// Runs one serving client to completion: connect, claim `workers`, host
/// them from the `Welcome` config, answer every `RoundBegin`, and return the
/// server's final `RunSummary` JSON.
///
/// The client hosts its claim exactly as the in-process transport hosts
/// every member — a pooled client deals the partition as [`prepare`] does
/// and builds only its claimed workers' shards — so the upload bytes it
/// sends are exactly the bytes an in-process run would fold.
///
/// Connect, handshake, claim-rejection, and mid-run stream errors retry
/// under [`ClientOptions`]' capped exponential backoff. Hosted state
/// and the round watermark persist across retries; the server's admission
/// replay (`RoundReplay` frames from the watermark on, then the open round's
/// `RoundBegin`) brings a reconnecting client back in sync, so a mid-run
/// reconnect loses no uploads.
pub fn run_client(addr: &str, workers: &[usize], opts: &ClientOptions) -> Result<String, String> {
    let mut state = ClientState::default();
    let mut attempt = 0u32;
    loop {
        match run_session(addr, workers, opts, &mut state) {
            Ok(summary) => return Ok(summary),
            Err(e) => {
                if attempt >= opts.max_retries {
                    return Err(e);
                }
                let backoff = opts.backoff_ms.saturating_mul(1 << attempt.min(16)).min(5_000);
                std::thread::sleep(Duration::from_millis(backoff));
                attempt += 1;
            }
        }
    }
}

/// One connection's lifetime: connect, claim, catch up, serve rounds until
/// `RunComplete` or a stream error (which the caller's retry loop handles).
fn run_session(
    addr: &str,
    workers: &[usize],
    opts: &ClientOptions,
    state: &mut ClientState,
) -> Result<String, String> {
    let mut stream = connect(addr)?;
    write_handshake(&mut stream).map_err(|e| format!("handshake write: {e}"))?;
    read_handshake(&mut stream).map_err(|e| format!("handshake read: {e}"))?;
    let watermark = state.next_round as u32;
    Message::ClientHello { workers: workers.iter().map(|&w| w as u32).collect(), watermark }
        .write_to(&mut stream)
        .map_err(|e| format!("hello: {e}"))?;
    stream.flush().ok();
    let welcome = Message::read_from(&mut stream, DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| format!("welcome: {e}"))?;
    let config_json = match welcome {
        Message::Welcome { config_json } => config_json,
        Message::HelloReject { reason } => {
            return Err(format!("server rejected claim: {reason}"));
        }
        other => return Err(format!("server's first message was not Welcome: {other:?}")),
    };
    let cfg: SimulationConfig =
        serde_json::from_str(&config_json).map_err(|e| format!("config: {e}"))?;
    // A non-noop local plan overrides the server's; otherwise adopt the
    // config-carried plan so every participant injects the same schedule.
    let fault: FaultSpec = if opts.fault.is_noop() {
        cfg.serving.as_ref().map(|s: &ServingSpec| s.fault.clone()).unwrap_or_default()
    } else {
        opts.fault.clone()
    };

    if state.hosted.is_none() {
        let (parts, _) = deal(&cfg);
        let claim: BTreeSet<usize> = workers.iter().copied().collect();
        let hosted = Hosted::new(&cfg, &calibrated_dp(&cfg).0, &parts, &claim)
            .map_err(|w| format!("worker {w} is not a data-holding index of this config"))?;
        state.hosted = Some(hosted);
    }
    let hosted = state.hosted.as_mut().expect("hosted above");
    let unclaimed = |m| format!("server sent unclaimed worker {m}");

    loop {
        let msg = Message::read_from(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("round read: {e}"))?;
        match msg {
            Message::RoundReplay { round, members, params } => {
                // Catch-up for a closed round: step the members exactly as a
                // live round would have, every upload withheld — the round
                // is over.
                let r = round as usize;
                if r < state.next_round {
                    continue; // stepped before the previous disconnect
                }
                let members: Vec<usize> = members.iter().map(|&m| m as usize).collect();
                for mut member in hosted.round(&members).map_err(unclaimed)? {
                    member.upload(r, &params, true);
                }
                state.next_round = r + 1;
                state.cached = None;
            }
            Message::RoundBegin { round, deadline_ms, members, params } => {
                let r = round as usize;
                if let Some(t) = fault.drop_at_round {
                    if t == r && !state.dropped_once {
                        state.dropped_once = true;
                        return Err(format!("fault injection: dropped connection at round {r}"));
                    }
                }
                if let Some((_, uploads)) = state.cached.as_ref().filter(|(c, _)| *c == round) {
                    // A reconnect re-delivered the round we already stepped:
                    // resend from cache (the server deduplicates), never
                    // re-step — worker state must advance exactly once per
                    // round.
                    send_uploads(&mut stream, round, uploads, &fault)?;
                    continue;
                }
                if r < state.next_round {
                    return Err(format!(
                        "server re-opened stepped round {r} (client is at round {})",
                        state.next_round
                    ));
                }
                // A zero deadline withholds everything: the upload cannot
                // count, and sending would only race the server's drain.
                let members: Vec<usize> = members.iter().map(|&m| m as usize).collect();
                let mut uploads: Uploads = Vec::with_capacity(members.len());
                for mut member in hosted.round(&members).map_err(unclaimed)? {
                    let m = member.index;
                    let withheld = deadline_ms == 0 || fault.withholds(m, r);
                    uploads.extend(member.upload(r, &params, withheld).map(|u| (m as u32, u)));
                }
                state.next_round = r + 1;
                let (_, uploads) = state.cached.insert((round, uploads));
                send_uploads(&mut stream, round, uploads, &fault)?;
            }
            Message::RunComplete { summary_json } => return Ok(summary_json),
            other => return Err(format!("unexpected server message: {other:?}")),
        }
    }
}

/// Sends one round's uploads, sleeping each member's fault-plan delay draw
/// before its send.
fn send_uploads(
    stream: &mut Stream,
    round: u32,
    uploads: &[(u32, Vec<f32>)],
    fault: &FaultSpec,
) -> Result<(), String> {
    for (m, data) in uploads {
        let delay = fault.delay_ms(*m as usize, round as usize);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        Message::Upload { round, worker: *m, data: data.clone() }
            .write_to(stream)
            .map_err(|e| format!("upload: {e}"))?;
    }
    stream.flush().ok();
    Ok(())
}

/// Connects to a serving address.
fn connect(addr: &str) -> Result<Stream, String> {
    match ServeAddr::parse(addr)? {
        ServeAddr::Tcp(hostport) => {
            let s = TcpStream::connect(&hostport)
                .map_err(|e| format!("connect tcp://{hostport}: {e}"))?;
            s.set_nodelay(true).ok();
            Ok(Stream::Tcp(s))
        }
        ServeAddr::Unix(path) => Ok(Stream::Unix(
            UnixStream::connect(&path)
                .map_err(|e| format!("connect unix://{}: {e}", path.display()))?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackSpec;
    use crate::simulation::{round_cohort, run, DefenseKind, ModelKind, Provisioning};
    use dpbfl_data::SyntheticSpec;

    fn serving_cfg() -> SimulationConfig {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 128;
        cfg.test_count = 200;
        cfg.n_honest = 4;
        cfg.n_byzantine = 2;
        cfg.epochs = 1.0;
        cfg.epsilon = None;
        cfg.dp.noise_multiplier = 0.5;
        cfg.attack = AttackSpec::LabelFlip;
        cfg.defense = DefenseKind::TwoStage;
        cfg
    }

    /// Binds, spawns one client thread per worker set, serves, and joins.
    fn serve_loopback(
        cfg: &SimulationConfig,
        addr: &str,
        policy: &RoundPolicy,
        client_workers: Vec<Vec<usize>>,
        opts_per_client: Vec<ClientOptions>,
    ) -> (RunResult, ServingReport, Vec<String>) {
        let server = BoundServer::bind(addr).expect("bind");
        let local = server.local_addr().to_string();
        let handles: Vec<_> = client_workers
            .into_iter()
            .zip(opts_per_client)
            .map(|(ws, opts)| {
                let local = local.clone();
                std::thread::spawn(move || run_client(&local, &ws, &opts))
            })
            .collect();
        let (result, report) =
            server.serve_telemetry(cfg, policy, &Telemetry::null()).expect("serve");
        let summaries = handles
            .into_iter()
            .map(|h| h.join().expect("client thread").expect("client"))
            .collect();
        (result, report, summaries)
    }

    fn summary_json(r: &RunResult) -> String {
        serde_json::to_string(&r.summary()).expect("summary serializes")
    }

    #[test]
    fn tcp_loopback_run_is_byte_identical_to_in_process() {
        // The tentpole acceptance criterion: zero dropouts + generous
        // deadline over TCP produces a RunSummary byte-identical to the
        // in-process transport for the same master seed.
        let cfg = serving_cfg();
        let expected = summary_json(&run(&cfg));
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "tcp serving ≠ in-process");
        assert_eq!(report.dropped_uploads, 0);
        assert_eq!(report.dropped_deadline, 0);
        assert_eq!(report.dropped_dead_connection, 0);
        assert_eq!(report.discarded_stale, 0);
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.rounds, cfg.iterations());
        assert_eq!(report.clients, 2);
        assert!(report.p50_round_ms <= report.p99_round_ms);
        // Every client received the same summary the server computed.
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn non_iid_tcp_loopback_run_is_byte_identical_to_in_process() {
        // Algorithm 4's uneven class mixes: each client deals the partition
        // for itself and builds only its claim's shards — interleaved
        // claims, the flipped Byzantine workers split across both — against
        // the in-process pool.
        let mut cfg = serving_cfg();
        cfg.iid = false;
        let expected = summary_json(&run(&cfg));
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 2, 4], vec![1, 3, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "non-iid tcp serving ≠ in-process");
        assert_eq!(report.dropped_uploads, 0);
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn on_demand_tcp_loopback_run_is_byte_identical_to_in_process() {
        // Sampled clients rebuilt per round from their own synthesized
        // shards — the flipped Byzantine ones included — on the client side
        // of the wire, against the in-process transport's rebuild.
        let mut cfg = serving_cfg();
        cfg.provisioning = Provisioning::OnDemand;
        cfg.sampling = 0.6;
        let expected = summary_json(&run(&cfg));
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "on-demand tcp serving ≠ in-process");
        assert_eq!(report.dropped_uploads, 0);
        assert_eq!(report.rounds, cfg.iterations());
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn unix_socket_run_is_byte_identical_to_in_process() {
        let cfg = serving_cfg();
        let expected = summary_json(&run(&cfg));
        let path = std::env::temp_dir().join(format!("dpbfl-uds-test-{}.sock", std::process::id()));
        let addr = format!("unix://{}", path.display());
        let (result, report, _) = serve_loopback(
            &cfg,
            &addr,
            &RoundPolicy::default(),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            vec![ClientOptions::default(); 3],
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(summary_json(&result), expected, "uds serving ≠ in-process");
        assert_eq!(report.dropped_uploads, 0);
        assert_eq!(report.clients, 3);
    }

    #[test]
    fn materialized_pipeline_serves_identically() {
        // NoDefense + no attack exercises the raw round_trip
        // (Collected::Upload) over the wire.
        let mut cfg = serving_cfg();
        cfg.n_byzantine = 0;
        cfg.attack = AttackSpec::None;
        cfg.defense = DefenseKind::NoDefense;
        let expected = summary_json(&run(&cfg));
        let (result, report, _) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2, 3]],
            vec![ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "materialized serving ≠ in-process");
        assert_eq!(report.dropped_uploads, 0);
    }

    #[test]
    fn withheld_uploads_drop_deterministically() {
        // A client that withholds round 2's uploads: the affected members
        // are treated as first-stage rejections, the run completes, and two
        // such runs are byte-identical (the accepted set, not arrival
        // timing, determines the result).
        let cfg = serving_cfg();
        let policy = RoundPolicy { deadline_ms: 2_000 };
        let skip = ClientOptions {
            fault: FaultSpec { skip_rounds: vec![2], ..FaultSpec::default() },
            ..ClientOptions::default()
        };
        let workers = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let opts = vec![ClientOptions::default(), skip];
        let (a, report_a, _) =
            serve_loopback(&cfg, "tcp://127.0.0.1:0", &policy, workers.clone(), opts.clone());
        let (b, _, _) = serve_loopback(&cfg, "tcp://127.0.0.1:0", &policy, workers, opts);
        assert_eq!(summary_json(&a), summary_json(&b), "dropout run not deterministic");
        // Round 2 lost workers 3 (honest) and 4, 5 (byzantine). The client
        // stayed connected, so every drop classifies as a deadline miss.
        assert_eq!(report_a.dropped_uploads, 3);
        assert_eq!(report_a.dropped_deadline, 3);
        assert_eq!(report_a.dropped_dead_connection, 0);
        let full = run(&cfg);
        assert!(
            a.defense_stats.first_stage_rejected_honest
                >= full.defense_stats.first_stage_rejected_honest,
            "dropped honest upload must join the rejected set"
        );
        assert_ne!(summary_json(&a), summary_json(&full), "drops must change the accepted set");
    }

    /// The in-process transport with one worker's upload replaced: never
    /// delivered, or — with `sent` — `d` copies of that value in its place.
    struct Withholding<'a> {
        inner: crate::round::InProcessTransport<'a>,
        worker: usize,
        sent: Option<f32>,
    }

    impl Transport for Withholding<'_> {
        fn round_trip(
            &mut self,
            round: usize,
            members: &[usize],
            params: &[f32],
            fold: &UploadFold<'_>,
        ) -> Vec<Collected> {
            let mut out = self.inner.round_trip(round, members, params, fold);
            if let Ok(pos) = members.binary_search(&self.worker) {
                out[pos] = match self.sent {
                    None => Collected::Dropped,
                    Some(x) => {
                        fold(vec![x; params.len()], &mut crate::first_stage::KsScratch::new())
                    }
                };
            }
            out
        }
    }

    /// A raw-socket Byzantine client: speaks the handshake, claims `worker`,
    /// and answers every `RoundBegin` with `answer(round, d)` until the run
    /// completes.
    fn spawn_rogue(
        addr: String,
        worker: u32,
        answer: fn(u32, usize) -> Message,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = connect(&addr).expect("connect");
            write_handshake(&mut stream).expect("handshake out");
            read_handshake(&mut stream).expect("handshake in");
            Message::ClientHello { workers: vec![worker], watermark: 0 }
                .write_to(&mut stream)
                .expect("hello");
            loop {
                match Message::read_from(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("server frame")
                {
                    Message::RoundBegin { round, params, .. } => {
                        answer(round, params.len()).write_to(&mut stream).expect("upload");
                        stream.flush().expect("flush");
                    }
                    Message::RunComplete { .. } => return,
                    _ => {}
                }
            }
        })
    }

    /// Summary of the in-process run of `cfg` in which `worker`'s upload is
    /// never delivered.
    fn withheld_summary(cfg: &SimulationConfig, worker: usize) -> String {
        replaced_summary(cfg, worker, None)
    }

    /// Summary of the in-process run of `cfg` in which `worker`'s upload is
    /// replaced as [`Withholding`] replaces it.
    fn replaced_summary(cfg: &SimulationConfig, worker: usize, sent: Option<f32>) -> String {
        let prep = prepare(cfg);
        let inner = crate::round::InProcessTransport::new(cfg, &prep, &cfg.dp); // ε off: σ as is
        let mut withheld = Withholding { inner, worker, sent };
        summary_json(&run_with_transport_telemetry(cfg, &prep, &mut withheld, &Telemetry::null()))
    }

    #[test]
    fn wrong_length_upload_drops_its_member_instead_of_panicking() {
        // A Byzantine client that speaks the protocol but answers every
        // round with d − 1 floats used to reach the first stage's dimension
        // assert and panic the serve thread. It must instead cost only its
        // own member: the run completes, byte-identical to the in-process
        // run in which that worker's upload is never delivered.
        const ROGUE: usize = 3; // an honest-indexed slot, folded at arrival
        let cfg = serving_cfg();
        let expected = withheld_summary(&cfg, ROGUE);

        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let addr = local.clone();
        let honest = std::thread::spawn(move || {
            run_client(&addr, &[0, 1, 2, 4, 5], &ClientOptions::default())
        });
        let rogue = spawn_rogue(local, ROGUE as u32, |round, d| Message::Upload {
            round,
            worker: ROGUE as u32,
            data: vec![0.0f32; d - 1],
        });
        let sink = Arc::new(Mutex::new(dpbfl_telemetry::MemorySink::default()));
        let tel = Telemetry::new(Box::new(Arc::clone(&sink)));
        let (result, report) =
            server.serve_telemetry(&cfg, &RoundPolicy::default(), &tel).expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        rogue.join().expect("rogue session");
        assert_eq!(summary_json(&result), expected, "malformed upload ≠ withheld upload");
        // The slot was filled, not timed out: no drop counted against the
        // connection, one event per round instead.
        assert_eq!(report.dropped_uploads, 0);
        let events = &sink.lock().unwrap().events;
        let malformed = events.iter().filter(|e| e.name == "upload_malformed").count();
        assert_eq!(malformed, cfg.iterations());
    }

    #[test]
    fn nan_upload_reaches_a_robust_rule_without_panicking_the_round() {
        // A client that claims worker 3 and answers every round with d NaNs.
        // The upload is well-formed, so it folds raw and reaches the
        // coordinate median, whose sort used to panic the round thread on
        // it. The run must instead complete, byte-identical to the
        // in-process run in which worker 3 uploads the same NaNs.
        const ROGUE: usize = 3;
        let mut cfg = serving_cfg();
        cfg.defense =
            DefenseKind::Robust { rule: crate::aggregator::AggregatorKind::CoordinateMedian };
        let expected = replaced_summary(&cfg, ROGUE, Some(f32::NAN));

        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let addr = local.clone();
        let honest = std::thread::spawn(move || {
            run_client(&addr, &[0, 1, 2, 4, 5], &ClientOptions::default())
        });
        let rogue = spawn_rogue(local, ROGUE as u32, |round, d| Message::Upload {
            round,
            worker: ROGUE as u32,
            data: vec![f32::NAN; d],
        });
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        rogue.join().expect("rogue session");
        assert_eq!(summary_json(&result), expected, "NaN upload ≠ in-process NaN upload");
        assert_eq!(report.dropped_uploads, 0);
    }

    #[test]
    fn upload_forged_for_another_connections_worker_costs_only_the_forger() {
        // A Byzantine client that claims worker 0 and answers every round
        // with a well-formed upload tagged worker 1 — while the honest
        // client serving worker 1 is slowed by the config's fault delay, so
        // the forgery always arrives first — used to win worker 1's
        // first-arrival slot. It must instead be a protocol violation that
        // ends the forger's own reader: worker 1's real upload folds, and
        // the run is byte-identical to the in-process run in which the
        // forger's worker 0 never delivers.
        const ROGUE: usize = 0;
        const VICTIM: u32 = 1;
        let mut cfg = serving_cfg();
        cfg.epochs = 0.5; // 4 rounds: every one waits out the deadline for worker 0
        cfg.serving = Some(ServingSpec {
            deadline_ms: Some(1_500),
            fault: FaultSpec { delay_ms_lo: 20, delay_ms_hi: 20, ..FaultSpec::default() },
        });
        let expected = withheld_summary(&cfg, ROGUE);

        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let addr = local.clone();
        let honest = std::thread::spawn(move || {
            run_client(&addr, &[1, 2, 3, 4, 5], &ClientOptions::default())
        });
        let rogue = spawn_rogue(local, ROGUE as u32, |round, d| Message::Upload {
            round,
            worker: VICTIM,
            data: vec![0.0f32; d],
        });
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        rogue.join().expect("rogue session");
        assert_eq!(summary_json(&result), expected, "forged upload displaced the victim's");
        // The forger's connection died on its first forgery; its own worker
        // is the only one that ever missed a round.
        assert_eq!(report.dropped_dead_connection, cfg.iterations() as u64);
        assert_eq!(report.dropped_deadline, 0);
    }

    #[test]
    fn frame_over_the_upload_cap_ends_only_its_own_reader() {
        // A Byzantine client that answers every round with a well-formed
        // frame declaring one payload byte more than an Upload of d values —
        // of a kind the reader skips, so its size is the only thing wrong
        // with it. Were it read and skipped (as any frame up to 64 MiB once
        // was), the member would be a straggler on a live connection. The
        // declaration must instead end that reader before anything is
        // allocated: the member classifies dead-connection from round 0 on,
        // and the run is byte-identical to the in-process run in which that
        // worker never delivers.
        const ROGUE: usize = 3;
        let mut cfg = serving_cfg();
        cfg.epochs = 0.5; // 4 rounds: every one waits out the deadline for the rogue
        cfg.serving = Some(ServingSpec { deadline_ms: Some(1_000), fault: FaultSpec::default() });
        let expected = withheld_summary(&cfg, ROGUE);

        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let addr = local.clone();
        let honest = std::thread::spawn(move || {
            run_client(&addr, &[0, 1, 2, 4, 5], &ClientOptions::default())
        });
        let rogue = spawn_rogue(local, ROGUE as u32, |_, d| {
            // A string payload is its u32 length plus the bytes.
            let over_cap = Message::upload_payload_len(d) as usize + 1;
            Message::HelloReject { reason: "x".repeat(over_cap - 4) }
        });
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        rogue.join().expect("rogue session");
        assert_eq!(summary_json(&result), expected, "oversized frame ≠ withheld upload");
        assert_eq!(report.dropped_dead_connection, cfg.iterations() as u64);
        assert_eq!(report.dropped_deadline, 0);
    }

    #[test]
    fn uploads_tagged_with_another_round_are_discarded_as_stale() {
        // A client that claims worker 3 and answers every round with a
        // well-formed upload tagged for the next round. Each one arrives
        // while its true round is still open, so it never fills a slot: it
        // is discarded on arrival with an `upload_stale` event, the member
        // misses the deadline on a live connection, and the run is
        // byte-identical to the in-process run in which worker 3 never
        // delivers.
        const ROGUE: usize = 3;
        let mut cfg = serving_cfg();
        cfg.epochs = 0.5; // 4 rounds: every one waits out the deadline for the rogue
        cfg.serving = Some(ServingSpec { deadline_ms: Some(1_000), fault: FaultSpec::default() });
        let expected = withheld_summary(&cfg, ROGUE);

        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let addr = local.clone();
        let honest = std::thread::spawn(move || {
            run_client(&addr, &[0, 1, 2, 4, 5], &ClientOptions::default())
        });
        let rogue = spawn_rogue(local, ROGUE as u32, |round, d| Message::Upload {
            round: round + 1,
            worker: ROGUE as u32,
            data: vec![0.0f32; d],
        });
        let sink = Arc::new(Mutex::new(dpbfl_telemetry::MemorySink::default()));
        let tel = Telemetry::new(Box::new(Arc::clone(&sink)));
        let (result, report) =
            server.serve_telemetry(&cfg, &RoundPolicy::default(), &tel).expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        rogue.join().expect("rogue session");
        assert_eq!(summary_json(&result), expected, "stale upload ≠ withheld upload");
        let rounds = cfg.iterations() as u64;
        assert_eq!(report.discarded_stale, rounds);
        assert_eq!(report.dropped_deadline, rounds);
        assert_eq!(report.dropped_dead_connection, 0);
        let events = &sink.lock().unwrap().events;
        let stale = events.iter().filter(|e| e.name == "upload_stale").count();
        assert_eq!(stale, cfg.iterations());
    }

    #[test]
    fn client_retry_reconnects_mid_run_byte_identical() {
        // A client that drops its connection on round 1's broadcast and
        // reconnects under its own retry policy: the server replays round 0,
        // re-sends the open round, and the run loses nothing — the summary
        // is byte-identical to the uninterrupted in-process reference.
        let cfg = serving_cfg();
        let expected = summary_json(&run(&cfg));
        let churn = ClientOptions {
            fault: FaultSpec { drop_at_round: Some(1), ..FaultSpec::default() },
            max_retries: 5,
            ..ClientOptions::default()
        };
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), churn],
        );
        assert_eq!(summary_json(&result), expected, "reconnect run ≠ in-process");
        assert_eq!(report.reconnects, 1, "exactly one reconnect was injected");
        assert_eq!(report.dropped_uploads, 0, "a fast reconnect loses no uploads");
        assert_eq!(report.clients, 3, "replacement connection is admitted alongside 2 originals");
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn fresh_client_reconnect_replays_history_byte_identical() {
        // The satellite scenario: a client process is killed after round 1
        // and a *fresh* process re-claims its workers before round 3. The
        // replacement rebuilds its pool from the Welcome config, steps the
        // replayed closed rounds without uploading, answers the re-sent
        // open round, and the final summary is byte-identical to an
        // uninterrupted run with the same accepted set.
        let cfg = serving_cfg();
        let expected = summary_json(&run(&cfg));
        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let stable = {
            let local = local.clone();
            std::thread::spawn(move || run_client(&local, &[0, 1, 2], &ClientOptions::default()))
        };
        let churn = {
            let local = local.clone();
            std::thread::spawn(move || {
                // First process: dies on round 1's broadcast, no retries —
                // the connection closes with rounds still to run.
                let doomed = ClientOptions {
                    fault: FaultSpec { drop_at_round: Some(1), ..FaultSpec::default() },
                    max_retries: 0,
                    ..ClientOptions::default()
                };
                let err = run_client(&local, &[3, 4, 5], &doomed);
                assert!(err.is_err(), "doomed client must die at round 1");
                // Replacement process: fresh state, same claim. Its first
                // hello may race the dead connection's reaping and be
                // rejected; the default retry policy absorbs that.
                run_client(&local, &[3, 4, 5], &ClientOptions::default())
            })
        };
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        let stable_summary = stable.join().expect("stable thread").expect("stable client");
        let churn_summary = churn.join().expect("churn thread").expect("replacement client");
        assert_eq!(summary_json(&result), expected, "fresh-reconnect run ≠ in-process");
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.dropped_uploads, 0, "replay + open-round resend loses no uploads");
        assert_eq!(stable_summary, expected);
        assert_eq!(churn_summary, expected);
    }

    #[test]
    fn replay_window_holds_the_same_bytes_at_t_and_4t_rounds() {
        // The server retains the open round and the last REPLAY_ROUNDS
        // closed rounds: a run four times as long holds no more parameters.
        let held = |epochs: f64| {
            let mut cfg = serving_cfg();
            cfg.epochs = epochs;
            let (_, report, _) = serve_loopback(
                &cfg,
                "tcp://127.0.0.1:0",
                &RoundPolicy::default(),
                vec![vec![0, 1, 2], vec![3, 4, 5]],
                vec![ClientOptions::default(), ClientOptions::default()],
            );
            assert_eq!(report.rounds, cfg.iterations());
            report.history_bytes
        };
        let (t, four_t) = (held(1.25), held(5.0)); // 10 and 40 rounds
        let d = init_model(&serving_cfg()).param_len();
        let block = ParamsBlock::encode(&vec![0.0; d]).byte_len();
        assert_eq!(t, ((REPLAY_ROUNDS + 1) * block) as u64);
        assert_eq!(four_t, t);
    }

    #[test]
    fn fresh_pooled_client_behind_the_window_is_refused_with_reason() {
        // Worker 5's first process dies on round 1's broadcast. A fresh
        // process (watermark 0) re-claims it only once round REPLAY_ROUNDS
        // has closed, when round 0 has left the window: the pooled worker
        // cannot be brought up to date, so the claim is refused with a
        // reasoned HelloReject and a `client_rejected` event, and the run
        // finishes without worker 5.
        let mut cfg = serving_cfg();
        cfg.epochs = 2.0; // 16 rounds: 7 are left when the fresh claim comes
        cfg.serving = Some(ServingSpec { deadline_ms: Some(200), fault: FaultSpec::default() });
        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let sink = Arc::new(Mutex::new(dpbfl_telemetry::MemorySink::default()));
        let tel = Telemetry::new(Box::new(Arc::clone(&sink)));
        let stable = {
            let local = local.clone();
            std::thread::spawn(move || {
                run_client(&local, &[0, 1, 2, 3, 4], &ClientOptions::default())
            })
        };
        let churn = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let once = ClientOptions { max_retries: 0, ..ClientOptions::default() };
                let doomed = ClientOptions {
                    fault: FaultSpec { drop_at_round: Some(1), ..FaultSpec::default() },
                    ..once.clone()
                };
                assert!(run_client(&local, &[5], &doomed).is_err(), "doomed client must die");
                let closed = || {
                    let sink = sink.lock().unwrap();
                    sink.spans.iter().filter(|s| s.name == "serving_round").count()
                };
                while closed() <= REPLAY_ROUNDS {
                    std::thread::sleep(Duration::from_millis(10));
                }
                run_client(&local, &[5], &once)
            })
        };
        let (_, report) =
            server.serve_telemetry(&cfg, &RoundPolicy::default(), &tel).expect("serve");
        stable.join().expect("stable thread").expect("stable client");
        let err = churn.join().expect("churn thread").expect_err("a stale claim is refused");
        assert!(
            err.contains("watermark 0 predates the replay window, which starts at round"),
            "unexpected reason: {err}"
        );
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.dropped_dead_connection, cfg.iterations() as u64 - 1);
        let events = &sink.lock().unwrap().events;
        let rejected: Vec<_> = events.iter().filter(|e| e.name == "client_rejected").collect();
        assert_eq!(rejected.len(), 1, "{rejected:?}");
        assert!(rejected[0].detail.contains("watermark 0 predates"), "{rejected:?}");
    }

    #[test]
    fn same_process_reconnect_late_in_a_run_resumes_from_its_watermark() {
        // A client that drops its connection on round 13's broadcast, long
        // after round 0 has left the window, and reconnects under its own
        // retry policy: its hello carries watermark 13, admission re-sends
        // the open round, and the run is byte-identical to the
        // uninterrupted in-process reference.
        let mut cfg = serving_cfg();
        cfg.epochs = 2.0; // 16 rounds
        let expected = summary_json(&run(&cfg));
        let churn = ClientOptions {
            fault: FaultSpec { drop_at_round: Some(13), ..FaultSpec::default() },
            max_retries: 5,
            ..ClientOptions::default()
        };
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), churn],
        );
        assert_eq!(summary_json(&result), expected, "late reconnect run ≠ in-process");
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.dropped_uploads, 0);
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn pooled_client_that_sat_out_the_window_reconnects_byte_identical() {
        // Under client sampling a pooled worker steps only the rounds it is
        // a member of. Worker `w` sits out more than REPLAY_ROUNDS rounds,
        // and its client drops the connection on the broadcast of the round
        // that next names it. The reconnect's watermark, the round after
        // `w`'s previous one, has left the window, but no evicted round
        // named `w`: the claim is admitted, re-sent the open round, and the
        // run is byte-identical to the in-process run.
        let mut cfg = serving_cfg();
        cfg.sampling = 0.2; // 2 of 6 workers a round
        cfg.epochs = 4.0; // 32 rounds
        let cohorts: Vec<Vec<usize>> =
            (0..cfg.iterations()).map(|t| round_cohort(&cfg, t)).collect();
        let (w, back) = (0..cfg.n_total())
            .find_map(|w| {
                let named: Vec<usize> =
                    (0..cohorts.len()).filter(|&t| cohorts[t].contains(&w)).collect();
                named.windows(2).find(|p| p[1] - p[0] - 1 > REPLAY_ROUNDS).map(|p| (w, p[1]))
            })
            .expect("a worker sits out more than REPLAY_ROUNDS rounds between two of its rounds");
        let expected = summary_json(&run(&cfg));
        let churn = ClientOptions {
            fault: FaultSpec { drop_at_round: Some(back), ..FaultSpec::default() },
            max_retries: 5,
            ..ClientOptions::default()
        };
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![(0..cfg.n_total()).filter(|&o| o != w).collect(), vec![w]],
            vec![ClientOptions::default(), churn],
        );
        assert_eq!(summary_json(&result), expected, "sat-out reconnect run ≠ in-process");
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.dropped_uploads, 0);
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn a_frame_write_ends_at_its_deadline_however_the_peer_paces_its_reads() {
        // A peer that keeps reading, a little at a time, lets every write
        // call make progress within any per-call timeout: only the frame's
        // deadline ends the write.
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while matches!(theirs.read(&mut buf), Ok(n) if n > 0) {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut stream = Stream::Unix(ours);
        let frame = vec![0u8; 8 << 20]; // seconds at the reader's pace
        let start = Instant::now();
        let by = start + Duration::from_millis(200);
        let sent = DeadlineWriter { stream: &mut stream, by }.write_all(&frame);
        let took = start.elapsed();
        stream.shutdown();
        reader.join().expect("reader thread");
        assert!(sent.is_err(), "an 8 MiB frame cannot reach this reader in 200 ms");
        assert!(took < Duration::from_secs(2), "the write ran {took:?} against a 200 ms deadline");
    }

    #[test]
    fn a_client_that_never_reads_costs_only_its_own_members() {
        // A raw-socket client claims worker 5 and then never reads. Each
        // round's frame (≈ 400 KB) is larger than a Unix socket's send
        // buffer, so the server's first write to it blocks until the round
        // deadline. Meanwhile the honest client drops its connection on
        // round 0's broadcast and reconnects: that admission, and the rest
        // of the round, must not wait for the blocked write. The run is
        // byte-identical to the in-process run in which worker 5 never
        // delivers, and worker 5's rounds are the only ones dropped.
        const STALLED: u32 = 5;
        let mut cfg = serving_cfg();
        cfg.model = ModelKind::SmallMlp { hidden: 128 };
        cfg.epochs = 0.5; // 4 rounds: every one waits out the deadline for worker 5
        cfg.serving = Some(ServingSpec { deadline_ms: Some(1_000), fault: FaultSpec::default() });
        let expected = withheld_summary(&cfg, STALLED as usize);

        let path =
            std::env::temp_dir().join(format!("dpbfl-stall-test-{}.sock", std::process::id()));
        let server = BoundServer::bind(&format!("unix://{}", path.display())).expect("bind");
        let local = server.local_addr().to_string();
        let (release, hold) = channel::<()>();
        let stalled = {
            let local = local.clone();
            std::thread::spawn(move || {
                let mut stream = connect(&local).expect("connect");
                write_handshake(&mut stream).expect("handshake out");
                read_handshake(&mut stream).expect("handshake in");
                Message::ClientHello { workers: vec![STALLED], watermark: 0 }
                    .write_to(&mut stream)
                    .expect("hello");
                let _ = hold.recv();
            })
        };
        let churn = ClientOptions {
            fault: FaultSpec { drop_at_round: Some(0), ..FaultSpec::default() },
            max_retries: 5,
            ..ClientOptions::default()
        };
        let honest = std::thread::spawn(move || run_client(&local, &[0, 1, 2, 3, 4], &churn));
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        honest.join().expect("honest thread").expect("honest client");
        release.send(()).expect("stalled client waits");
        stalled.join().expect("stalled thread");
        let _ = std::fs::remove_file(&path);
        assert_eq!(summary_json(&result), expected, "stalled reader ≠ withheld upload");
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.dropped_uploads, cfg.iterations() as u64, "only worker 5 drops");
    }

    #[test]
    fn live_claim_overlap_is_rejected_with_structured_reason() {
        // Two clients cover the run; a third claiming a live worker gets a
        // structured HelloReject, and the run is unperturbed.
        let cfg = serving_cfg();
        let expected = summary_json(&run(&cfg));
        let server = BoundServer::bind("tcp://127.0.0.1:0").expect("bind");
        let local = server.local_addr().to_string();
        let c1 = {
            let local = local.clone();
            std::thread::spawn(move || run_client(&local, &[0, 1, 2], &ClientOptions::default()))
        };
        // Admission only runs inside `serve`, and the run cannot start until
        // workers 3..=5 are claimed — so one helper thread first mounts the
        // duplicate claim (while c1 is live and the server is still waiting
        // for coverage), then claims the remaining workers to release the
        // run. The ordering is structural, not timing-based: the rejection
        // strictly precedes round 0.
        let rest = {
            let local = local.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(500)); // let c1 be admitted
                let dup = run_client(
                    &local,
                    &[0],
                    &ClientOptions { max_retries: 0, ..ClientOptions::default() },
                );
                let c2 = run_client(&local, &[3, 4, 5], &ClientOptions::default());
                (dup, c2)
            })
        };
        let (result, report) = server
            .serve_telemetry(&cfg, &RoundPolicy::default(), &Telemetry::null())
            .expect("serve");
        c1.join().expect("c1 thread").expect("c1");
        let (dup, c2) = rest.join().expect("helper thread");
        c2.expect("c2");
        let err = dup.expect_err("duplicate live claim must be refused");
        assert!(err.contains("claimed by a live connection"), "unexpected reason: {err}");
        assert_eq!(summary_json(&result), expected, "rejected claim perturbed the run");
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.clients, 2, "the rejected connection is not admitted");
    }

    #[test]
    fn zero_deadline_collects_only_queued_uploads() {
        // RoundPolicy { deadline_ms: 0 } is "no waiting beyond
        // already-queued uploads": the server drains its queue once and
        // closes the round. Clients seeing the zero deadline withhold their
        // sends, and the in-process model withholds every upload to match —
        // so the all-dropped wire run is byte-identical to its reference,
        // completes promptly, and never panics or busy-loops.
        let mut cfg = serving_cfg();
        cfg.serving = Some(ServingSpec { deadline_ms: Some(0), fault: FaultSpec::default() });
        let expected = summary_json(&run(&cfg));
        // The caller's generous policy is overridden by the config's 0.
        let (result, report, _) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "zero-deadline serving ≠ in-process");
        let members_per_round = 6u64;
        assert_eq!(report.dropped_uploads, members_per_round * cfg.iterations() as u64);
        assert_eq!(report.dropped_dead_connection, 0, "clients stay connected throughout");
        assert_eq!(report.discarded_stale, 0, "withheld sends leave nothing to go stale");
        // And the all-dropped run differs from the no-fault reference.
        let mut plain = cfg.clone();
        plain.serving = None;
        assert_ne!(expected, summary_json(&run(&plain)));
    }

    #[test]
    fn config_carried_fault_plan_reaches_every_client() {
        // A flaky plan on cfg.serving: clients adopt it from the Welcome,
        // the in-process transport models it, and the served summary is
        // byte-identical to the in-process reference under the same
        // schedule.
        let mut cfg = serving_cfg();
        cfg.serving = Some(ServingSpec {
            deadline_ms: Some(1_500),
            fault: FaultSpec { flaky_pct: 20.0, seed: 11, ..FaultSpec::default() },
        });
        let expected = summary_json(&run(&cfg));
        let (result, report, _) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "flaky serving ≠ in-process model");
        // The withheld set is the fault plan's, exactly.
        let fault = cfg.serving.as_ref().unwrap().fault.clone();
        let planned: u64 = (0..cfg.iterations())
            .flat_map(|r| (0..6usize).map(move |w| (w, r)))
            .filter(|&(w, r)| fault.withholds(w, r))
            .count() as u64;
        assert!(planned > 0, "a 20% plan over 48 uploads should withhold some");
        assert_eq!(report.dropped_uploads, planned, "drops ≠ injected schedule");
        assert_eq!(report.dropped_deadline, planned, "withheld ≠ straggler classification");
        assert_eq!(report.dropped_dead_connection, 0);
    }

    #[test]
    fn on_demand_config_carried_fault_plan_matches_in_process() {
        // The flaky plan of `config_carried_fault_plan_reaches_every_client`
        // over members rebuilt per round: a withheld on-demand member folds
        // as dropped on both sides of the wire.
        let mut cfg = serving_cfg();
        cfg.provisioning = Provisioning::OnDemand;
        cfg.serving = Some(ServingSpec {
            deadline_ms: Some(1_500),
            fault: FaultSpec { flaky_pct: 20.0, seed: 11, ..FaultSpec::default() },
        });
        let expected = summary_json(&run(&cfg));
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), ClientOptions::default()],
        );
        assert_eq!(summary_json(&result), expected, "on-demand flaky serving ≠ in-process");
        let fault = cfg.serving.as_ref().unwrap().fault.clone();
        let planned: u64 = (0..cfg.iterations())
            .flat_map(|r| (0..6usize).map(move |w| (w, r)))
            .filter(|&(w, r)| fault.withholds(w, r))
            .count() as u64;
        assert!(planned > 0, "a 20% plan over 48 uploads should withhold some");
        assert_eq!(report.dropped_uploads, planned, "drops ≠ injected schedule");
        assert_eq!(report.dropped_dead_connection, 0);
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn on_demand_client_reconnect_mid_run_byte_identical() {
        // An on-demand client that drops its connection on round 1's
        // broadcast and reconnects: it has no state to replay, answers the
        // re-sent open round, and the run loses nothing.
        let mut cfg = serving_cfg();
        cfg.provisioning = Provisioning::OnDemand;
        let expected = summary_json(&run(&cfg));
        let churn = ClientOptions {
            fault: FaultSpec { drop_at_round: Some(1), ..FaultSpec::default() },
            max_retries: 5,
            ..ClientOptions::default()
        };
        let (result, report, client_summaries) = serve_loopback(
            &cfg,
            "tcp://127.0.0.1:0",
            &RoundPolicy::default(),
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![ClientOptions::default(), churn],
        );
        assert_eq!(summary_json(&result), expected, "on-demand reconnect run ≠ in-process");
        assert_eq!(report.reconnects, 1, "exactly one reconnect was injected");
        assert_eq!(report.dropped_uploads, 0, "a fast reconnect loses no uploads");
        for s in client_summaries {
            assert_eq!(s, expected, "published summary differs");
        }
    }

    #[test]
    fn addresses_parse_and_reject() {
        assert_eq!(
            ServeAddr::parse("tcp://127.0.0.1:7171").unwrap(),
            ServeAddr::Tcp("127.0.0.1:7171".into())
        );
        assert_eq!(
            ServeAddr::parse("unix:///tmp/x.sock").unwrap(),
            ServeAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(ServeAddr::parse("http://x").is_err());
        assert!(ServeAddr::parse("tcp://").is_err());
        assert!(ServeAddr::parse("unix://").is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
    }
}
