//! Server orchestration: listeners, supervised worker shards that accept
//! their own connections, the store writer, the stats/observability
//! aggregator that also serves the HTTP plane, and graceful drain.
//!
//! # Shards
//!
//! Each shard owns a [`crate::reactor::Poller`] (epoll on Linux,
//! poll(2) on other unixes) plus a timer wheel, and registers every
//! listening socket in it beside its own connections. On Linux the
//! listener registrations are exclusive, so one waiting shard wakes per
//! incoming connection. That shard accepts, admits and first-pumps the
//! connection on its own thread: no intake queue, no cross-thread
//! wakeup. Connections are pumped only when their socket is ready or
//! their deadline fires. Without a readiness API (non-unix hosts)
//! [`Server::start`] refuses to serve.
//!
//! Connections no shard has accepted yet wait in the kernel backlog,
//! which is re-armed `max_connections` deep.
//!
//! # Durable capture
//!
//! A shard sends each finished session's record, by move, to the one
//! `store-writer` thread ([`crate::writer`]) and goes back to its
//! sockets: no clone, no lock, no disk call. The writer owns the
//! collector and the store. It gathers records for one drain tick
//! (10 ms), appends the batch, commits it once (one WAL sync under
//! `--fsync-every 1`) and only then moves the stored records, with their
//! ids, on to the aggregator.
//!
//! # Crash containment
//!
//! Failures are contained at three radii. A single connection's pump
//! runs under `catch_unwind`: a poisoned session is recorded as a failed
//! session, its gate slot is released by the permit's `Drop`, and
//! `panics_caught` is bumped — the shard keeps serving its other
//! connections. If a shard thread dies anyway (a panic outside the
//! per-connection guard), the connections it owned are lost and the
//! supervisor respawns it; the replacement re-registers the listeners
//! and picks up whatever waits in the backlog, so the server keeps
//! accepting at full width. The supervisor blocks on a channel every
//! shard signals as it exits (on return and on unwind alike), so it
//! wakes only to respawn or to close the listeners at shutdown. The
//! panic message is reported through [`ServeReport::shard_panics`].
//! Supervisor, store-writer and aggregator threads have no respawn
//! layer — a panic there surfaces as [`ServeError::ThreadPanicked`] from
//! [`ServerHandle::join`]. A store writer that dies leaves its WAL for
//! recovery and raises the shutdown flag as it goes, so the server
//! drains and stops on its own instead of accepting sessions it can no
//! longer store; so does a writer whose commits keep failing, which
//! `join` reports as [`ServeError::Store`].
//!
//! # Drain
//!
//! On shutdown every shard deregisters the listeners and drops its
//! handle on them, as does the supervisor, so the listening sockets
//! close within one wait tick and new connects are refused. In-flight
//! sessions keep being pumped for up to `drain_timeout`, then the
//! stragglers are force-closed and recorded as timed out. Once the last
//! shard is gone, the store writer stores, commits and forwards what
//! remains and hands the collector back for sealing; the aggregator
//! publishes last.

use crate::conn::{now_unix, Conn, SensorIdentity, SharedStore};
use crate::reactor::{conn_interest, sock_fd, Event, Interest, Poller, TimerWheel};
use crate::stats::{spawn_aggregator, AggEvent, AggregatorHandle, ApiSnapshot};
use crate::writer::{spawn_store_writer, DiscardSink, WriterExit};
use crate::{Admission, ChaosConfig, Gate, ServeConfig, ServeError, ServeStats, StatsSnapshot};
use honeypot::shell::{NullStore, RemoteStore};
use honeypot::wire::WireHandler;
use honeypot::{
    panic_message, AuthPolicy, Collector, CollectorError, IngestStats, SessionRecord, SessionSink,
};
use netsim::faults::FailureInjector;
use sessiondb::{RecoveryReport, StoreOptions, StoreWriter};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which protocol a listener serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Ssh,
    Telnet,
}

/// A bound, nonblocking listening socket. Every shard accepts from every
/// listener; the set is shared behind an `Arc` that shards and the
/// supervisor drop on shutdown, which closes the sockets.
struct Listener {
    socket: TcpListener,
    proto: Proto,
}

/// An accepted, admitted connection on its way into a shard's table.
/// Carries its gate permit, so dropping it on any path releases the slot.
struct Admitted {
    stream: TcpStream,
    permit: crate::GatePermit,
    client_port: u16,
    proto: Proto,
    start_unix: i64,
    seq: u64,
}

/// Maps a peer address into the record schema's IPv4 space. Real v4
/// addresses pass through. IPv6 peers are folded into the reserved
/// 240.0.0.0/8 block by FNV-1a hashing the full 16-byte address, so
/// distinct v6 clients keep distinct per-IP gate slots (and cannot
/// collide with any routable v4 peer — 240/8 is class E, never assigned).
pub fn fold_peer_ip(ip: IpAddr) -> netsim::Ipv4Addr {
    match ip {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            netsim::Ipv4Addr::from_octets(o[0], o[1], o[2], o[3])
        }
        IpAddr::V6(v6) => {
            let mut h: u32 = 0x811c_9dc5;
            for b in v6.octets() {
                h ^= u32::from(b);
                h = h.wrapping_mul(0x0100_0193);
            }
            netsim::Ipv4Addr(0xF000_0000 | (h & 0x00FF_FFFF))
        }
    }
}

/// Everything a shard thread needs, cloneable so the supervisor can
/// hand a fresh copy to a respawned thread.
#[derive(Clone)]
struct ShardCtx {
    remote: SharedStore,
    /// The store writer's intake.
    store_tx: Sender<SessionRecord>,
    stats: Arc<ServeStats>,
    gate: Arc<Gate>,
    /// Global connection sequence (each SSH connection's cookie/nonce).
    seq: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    sensor: SensorIdentity,
    idle_timeout: Duration,
    session_timeout: Duration,
    drain_timeout: Duration,
    chaos: ChaosConfig,
}

impl ShardCtx {
    /// Records a cleanly finished connection: convert, and move the
    /// record to the store writer (no lock, no blocking). A writer that
    /// died has already raised the shutdown flag, so a failed send
    /// needs no handling here; it surfaces at join.
    fn record_finished(&self, conn: Conn<'_>) {
        let _ = self.store_tx.send(conn.finish(self.sensor, &self.stats));
    }

    /// Records a connection whose pump panicked: plain fields only (the
    /// machine may be poisoned), same path to the store writer.
    fn record_failed(&self, conn: Conn<'_>) {
        self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
        let _ = self.store_tx.send(conn.into_failed(self.sensor));
    }
}

/// The live serving layer. See the crate docs for the architecture.
pub struct Server;

impl Server {
    /// Checks the config ([`ServeConfig::validate`], failing with
    /// [`ServeError::Config`] before anything is bound), binds
    /// listeners, spawns the shard/stats threads, and returns a handle.
    /// Downloads resolve against [`NullStore`] (every fetch 404s), which
    /// is what a production honeypot wants.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        Self::start_with_store(cfg, Arc::new(NullStore))
    }

    /// Like [`Server::start`] with an explicit download store (tests use
    /// this to serve known payloads).
    pub fn start_with_store(
        cfg: ServeConfig,
        remote: SharedStore,
    ) -> Result<ServerHandle, ServeError> {
        cfg.validate().map_err(ServeError::Config)?;
        // The aggregator's poller, made first: a host without a
        // readiness API has nothing to serve with.
        let poller = Poller::new().map_err(|source| ServeError::Poller { source })?;

        let mut recovery = None;
        let sink: Box<dyn SessionSink> = match &cfg.store_dir {
            Some(dir) => {
                let opts = StoreOptions {
                    rows_per_segment: cfg.rows_per_segment,
                    wal: Some(cfg.fsync),
                };
                let (writer, report) =
                    StoreWriter::with_options(dir, opts).map_err(|e| ServeError::Store {
                        message: e.to_string(),
                    })?;
                recovery = Some(report);
                Box::new(writer)
            }
            None => Box::new(DiscardSink),
        };
        Self::launch(cfg, remote, poller, sink, recovery)
    }

    /// Binds the listeners and spawns the server's threads over an open
    /// session sink.
    fn launch(
        cfg: ServeConfig,
        remote: SharedStore,
        poller: Poller,
        sink: Box<dyn SessionSink>,
        recovery: Option<RecoveryReport>,
    ) -> Result<ServerHandle, ServeError> {
        let collector = Collector::with_sink(cfg.collector.clone(), sink);

        let mut listeners = Vec::new();
        let mut addrs = ListenAddrs::default();
        for (port, proto) in [(cfg.ssh_port, Proto::Ssh), (cfg.telnet_port, Proto::Telnet)] {
            let Some(port) = port else { continue };
            let (socket, local) = bind(SocketAddr::new(cfg.bind, port))?;
            deepen_backlog(&socket, cfg.max_connections);
            match proto {
                Proto::Ssh => addrs.ssh = Some(local),
                Proto::Telnet => addrs.telnet = Some(local),
            }
            listeners.push(Listener { socket, proto });
        }
        let listeners: Arc<[Listener]> = listeners.into();
        let http = match cfg.http_port {
            Some(port) => {
                let (socket, local) = bind(SocketAddr::new(cfg.bind, port))?;
                addrs.http = Some(local);
                Some(socket)
            }
            None => None,
        };

        let stats = Arc::new(ServeStats::default());
        let gate = Arc::new(Gate::new(cfg.max_connections, cfg.per_ip_limit));
        let shutdown = Arc::new(AtomicBool::new(false));

        // The aggregator owns the periodic stderr line, publishes the
        // lock-free snapshots, and serves the HTTP plane from its
        // poller. The store writer feeds it stored records over its
        // channel, which it drains in batches.
        let aggregator = spawn_aggregator(
            Arc::clone(&stats),
            Arc::clone(&shutdown),
            cfg.recent_tail,
            cfg.stats_interval,
            poller,
            http,
        );
        if let Some(report) = &recovery {
            let _ = aggregator.tx.send(AggEvent::Recovery(report.clone()));
        }
        let (store_tx, writer) =
            spawn_store_writer(collector, aggregator.tx.clone(), Arc::clone(&shutdown));

        let ctx = ShardCtx {
            remote,
            store_tx,
            stats: Arc::clone(&stats),
            gate: Arc::clone(&gate),
            seq: Arc::new(AtomicU64::new(0)),
            shutdown: Arc::clone(&shutdown),
            sensor: SensorIdentity {
                honeypot_id: cfg.honeypot_id,
                honeypot_ip: cfg.honeypot_ip,
            },
            idle_timeout: cfg.idle_timeout,
            session_timeout: cfg.session_timeout,
            drain_timeout: cfg.drain_timeout,
            chaos: cfg.chaos,
        };
        let shard_panics: Arc<parking_lot::Mutex<Vec<String>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let supervisor = {
            let panics = Arc::clone(&shard_panics);
            std::thread::Builder::new()
                .name("shard-supervisor".into())
                .spawn(move || supervisor_loop(ctx, cfg.workers, listeners, &panics))
                .expect("spawn shard supervisor")
        };

        Ok(ServerHandle {
            addrs,
            stats,
            gate,
            shutdown,
            recovery,
            writer,
            supervisor: Some(supervisor),
            shard_panics,
            aggregator: Some(aggregator),
        })
    }
}

/// Binds a nonblocking listener; returns it with its resolved address.
fn bind(addr: SocketAddr) -> Result<(TcpListener, SocketAddr), ServeError> {
    let bind_err = |source| ServeError::Bind {
        addr: addr.to_string(),
        source,
    };
    let socket = TcpListener::bind(addr).map_err(bind_err)?;
    socket.set_nonblocking(true).map_err(bind_err)?;
    let local = socket.local_addr().map_err(bind_err)?;
    Ok((socket, local))
}

/// Bound listener addresses (with ephemeral ports resolved).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListenAddrs {
    /// SSH listener, if enabled.
    pub ssh: Option<SocketAddr>,
    /// Telnet listener, if enabled.
    pub telnet: Option<SocketAddr>,
    /// Observability HTTP listener, if enabled.
    pub http: Option<SocketAddr>,
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Serving counters at the end of the run.
    pub snapshot: StatsSnapshot,
    /// Collector fate counters (accepted/retried/dropped/quarantined).
    pub ingest: IngestStats,
    /// Records that failed validation, with no store to hold them.
    pub quarantined: usize,
    /// Panic messages from shard threads that died and were respawned.
    pub shard_panics: Vec<String>,
}

impl ServeReport {
    /// The shared text rendering: the CLI's shutdown summary. One
    /// renderer for every consumer (no format forks between `serve`
    /// exit paths).
    pub fn render(&self) -> String {
        let mut out = format!(
            "final: {}\ncollector: {} accepted, {} dropped, {} quarantined",
            self.snapshot.render(),
            self.ingest.accepted,
            self.ingest.dropped,
            self.quarantined,
        );
        for p in &self.shard_panics {
            out.push_str("\nshard panic: ");
            out.push_str(p);
        }
        out
    }

    /// The v1 document (envelope kind `"serve_report"`), built from the
    /// same [`StatsSnapshot::api_json`] emitter `/api/stats` uses.
    pub fn api_json(&self) -> hutil::Json {
        use hutil::Json;
        hutil::api_envelope(
            "serve_report",
            Json::obj([
                ("counters", self.snapshot.api_json()),
                (
                    "ingest",
                    Json::obj([
                        ("accepted", Json::u64(self.ingest.accepted)),
                        ("retried", Json::u64(self.ingest.retried)),
                        ("dropped", Json::u64(self.ingest.dropped)),
                        ("quarantined", Json::u64(self.ingest.quarantined)),
                    ]),
                ),
                ("quarantined_rows", Json::u64(self.quarantined as u64)),
                (
                    "shard_panics",
                    Json::arr(self.shard_panics.iter().map(Json::str)),
                ),
            ]),
        )
    }

    /// Deterministic sample document for the `docs/api_v1` goldens.
    pub fn sample() -> Self {
        ServeReport {
            snapshot: StatsSnapshot {
                accepted: 202,
                shed_capacity: 0,
                shed_per_ip: 0,
                active: 0,
                completed: 200,
                timed_out: 1,
                wire_errors: 0,
                bytes_in: 123_456,
                bytes_out: 654_321,
                accept_errors: 0,
                panics_caught: 0,
                shards_respawned: 0,
            },
            ingest: IngestStats {
                accepted: 200,
                retried: 3,
                dropped: 0,
                quarantined: 0,
            },
            quarantined: 0,
            shard_panics: Vec::new(),
        }
    }
}

/// A running server: addresses, live stats, and the shutdown lever.
pub struct ServerHandle {
    addrs: ListenAddrs,
    stats: Arc<ServeStats>,
    gate: Arc<Gate>,
    shutdown: Arc<AtomicBool>,
    recovery: Option<RecoveryReport>,
    writer: JoinHandle<WriterExit>,
    supervisor: Option<JoinHandle<()>>,
    shard_panics: Arc<parking_lot::Mutex<Vec<String>>>,
    aggregator: Option<AggregatorHandle>,
}

impl ServerHandle {
    /// Bound listener addresses.
    pub fn addrs(&self) -> ListenAddrs {
        self.addrs
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Connections currently admitted.
    pub fn active(&self) -> usize {
        self.gate.active()
    }

    /// What crash recovery found (and did) in the spill store when this
    /// server opened it; `None` without a store.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The most recently published observability snapshot (same
    /// lock-free read path the HTTP endpoints use).
    pub fn api_snapshot(&self) -> Option<Arc<ApiSnapshot>> {
        self.aggregator.as_ref().map(|a| a.cell.load())
    }

    /// Starts graceful shutdown: the listeners close, shards drain.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been triggered.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Triggers shutdown (idempotent), waits for every thread, seals the
    /// store, and returns the final accounting. A panic in the
    /// supervisor, store-writer or aggregator thread surfaces as
    /// [`ServeError::ThreadPanicked`] — after the store is sealed (or,
    /// when the writer itself died, with its WAL left for recovery), so
    /// a sick run still keeps its data.
    pub fn join(mut self) -> Result<ServeReport, ServeError> {
        self.trigger_shutdown();
        let mut thread_panic: Option<(String, String)> = None;
        let mut note_panic = |name: &str, payload: Box<dyn std::any::Any + Send>| {
            if thread_panic.is_none() {
                thread_panic = Some((name.to_string(), panic_message(payload.as_ref())));
            }
        };
        if let Some(Err(payload)) = self.supervisor.take().map(JoinHandle::join) {
            note_panic("shard-supervisor", payload);
        }
        // Every shard sender is gone once the supervisor returns, so the
        // store writer stores, commits and forwards what remains, then
        // hands the collector back for sealing.
        let sealed = match self.writer.join() {
            Ok(exit) => Some((exit.collector.into_sink_parts(), exit.gave_up)),
            Err(payload) => {
                note_panic("store-writer", payload);
                None
            }
        };
        // With the writer's sender gone, dropping the handle's sender
        // disconnects the aggregator; it publishes a final snapshot
        // covering every stored session, closes the dashboard sockets
        // left open, and exits.
        if let Some(Err(payload)) = self.aggregator.take().map(AggregatorHandle::join) {
            note_panic("serve-aggregator", payload);
        }
        if let Some((thread, message)) = thread_panic {
            return Err(ServeError::ThreadPanicked { thread, message });
        }
        let (sealed, gave_up) = sealed.expect("only a panicked writer keeps its collector");
        if let Some(message) = gave_up {
            return Err(ServeError::Store { message });
        }
        let (ingest, quarantine) = sealed.map_err(|e| map_collector_error(&e))?;
        Ok(ServeReport {
            snapshot: self.stats.snapshot(),
            ingest,
            quarantined: quarantine.len(),
            shard_panics: self.shard_panics.lock().clone(),
        })
    }
}

fn map_collector_error(e: &CollectorError) -> ServeError {
    match e {
        CollectorError::Sink { message } => ServeError::Store {
            message: message.clone(),
        },
        other => ServeError::Collector {
            message: other.to_string(),
        },
    }
}

/// Re-arms the listener with a backlog sized to the connection cap.
/// `TcpListener::bind` hardcodes a backlog of 128; under a paper-scale
/// connect burst the accept queue overflows and every further SYN waits
/// a full kernel retransmit cycle (~1s on loopback), capping accept
/// throughput regardless of how fast the shards drain. Calling
/// `listen(2)` again on a listening socket just updates the backlog
/// (the kernel additionally clamps to `net.core.somaxconn`), so failure
/// here is harmless and ignored.
#[cfg(unix)]
fn deepen_backlog(listener: &TcpListener, max_connections: usize) {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    let backlog = max_connections.clamp(128, 65_535) as i32;
    unsafe {
        let _ = listen(sock_fd(listener), backlog);
    }
}

#[cfg(not(unix))]
fn deepen_backlog(_listener: &TcpListener, _max_connections: usize) {}

/// Most connections one readiness event accepts from a listener before
/// the shard (or the HTTP plane) goes back to its own sockets; the rest
/// stay in the backlog, and the listener stays readable.
pub(crate) const ACCEPT_BATCH: usize = 64;

/// Longest accept pause after descriptor exhaustion.
const MAX_ACCEPT_PAUSE: Duration = Duration::from_millis(200);

/// Longest a shard or the supervisor waits before it looks at the
/// shutdown flag again.
const WAIT_CEILING: Duration = Duration::from_millis(50);

/// Listener `k` registers under `LISTENER_TOKEN + k`; slot indices count
/// up from 0 and never get near it.
const LISTENER_TOKEN: u64 = u64::MAX - 16;

/// One shard's side of accepting: its handle on the shared listeners,
/// the intake-time chaos die, and the pause after accept errors.
struct Acceptor {
    /// `None` once shutdown is observed.
    listeners: Option<Arc<[Listener]>>,
    shard_chaos: FailureInjector,
    /// Set while accepting is paused after an accept error.
    paused_until: Option<Instant>,
    backoff: Duration,
}

impl Acceptor {
    fn new(listeners: Arc<[Listener]>, shard_chaos: FailureInjector) -> Self {
        Acceptor {
            listeners: Some(listeners),
            shard_chaos,
            paused_until: None,
            backoff: Duration::from_millis(1),
        }
    }

    /// The listeners this shard still accepts from (none after shutdown).
    fn listeners(&self) -> &[Listener] {
        self.listeners.as_deref().unwrap_or(&[])
    }

    /// Ends an expired pause; returns `true` when it did, so the reactor
    /// can re-register the listeners.
    fn resume(&mut self, now: Instant) -> bool {
        let expired = self.paused_until.is_some_and(|t| t <= now);
        if expired {
            self.paused_until = None;
        }
        expired
    }

    /// Accepts up to [`ACCEPT_BATCH`] connections from listener `k` and
    /// hands each to `intake` — counted, admitted, stamped — one at a
    /// time, with nothing queued in between. Shutdown is checked before
    /// the batch and after every `accept()`, so a connect that lands once
    /// shutdown is triggered is closed uncounted. Returns `true` when an
    /// accept error just paused accepting.
    fn accept(&mut self, k: usize, ctx: &ShardCtx, mut intake: impl FnMut(Admitted)) -> bool {
        if self.paused_until.is_some() || ctx.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let Some(listener) = self.listeners.as_deref().and_then(|l| l.get(k)) else {
            return false;
        };
        for _ in 0..ACCEPT_BATCH {
            let (stream, peer) = match listener.socket.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    match e.kind() {
                        // Per-connection failures (peer vanished between
                        // SYN and accept): the backlog may hold more.
                        std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset => continue,
                        // Resource exhaustion (EMFILE/ENFILE lands here
                        // as Other/Uncategorized) or anything unexpected:
                        // hot-spinning accept() cannot help. Pause with a
                        // capped exponential backoff while in-flight
                        // connections finish and free fds — without ever
                        // sleeping the shard, which still has them to pump.
                        _ => {
                            self.paused_until = Some(Instant::now() + self.backoff);
                            self.backoff = (self.backoff * 2).min(MAX_ACCEPT_PAUSE);
                            return true;
                        }
                    }
                }
            };
            self.backoff = Duration::from_millis(1);
            if ctx.shutdown.load(Ordering::Relaxed) {
                // Shutdown landed mid-batch: close the socket before it
                // is counted or takes a slot.
                return false;
            }
            ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let permit = match ctx.gate.admit(fold_peer_ip(peer.ip()), &ctx.stats) {
                Ok(p) => p,
                // Shed: dropping the stream closes it before any
                // protocol state exists.
                Err(Admission::OverCapacity) => {
                    ctx.stats.shed_capacity.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(_) => {
                    ctx.stats.shed_per_ip.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue; // dropping the permit releases the slot
            }
            let _ = stream.set_nodelay(true);
            let admitted = Admitted {
                seq: ctx.seq.fetch_add(1, Ordering::Relaxed),
                start_unix: now_unix(),
                stream,
                permit,
                client_port: peer.port(),
                proto: listener.proto,
            };
            if self.shard_chaos.fires() {
                // Outside the per-connection guard: kills the whole
                // shard thread. `admitted` (and its permit) and every
                // owned connection release on unwind.
                panic!("chaos: injected shard panic");
            }
            intake(admitted);
        }
        false
    }
}

/// Sends its shard's index to the supervisor when dropped, which a
/// shard thread does on return and on unwind alike.
struct ExitSignal {
    index: usize,
    tx: Sender<usize>,
}

impl Drop for ExitSignal {
    fn drop(&mut self) {
        let _ = self.tx.send(self.index);
    }
}

/// Runs the shard pool, respawning any shard thread that panics; the
/// replacement re-registers the listeners and takes over from the
/// backlog. Blocks on the shards' exit signals, waking at least every
/// [`WAIT_CEILING`] to drop its own handle on the listeners once
/// shutdown is triggered; returns once every shard has drained and
/// exited.
fn supervisor_loop(
    ctx: ShardCtx,
    workers: usize,
    listeners: Arc<[Listener]>,
    shard_panics: &parking_lot::Mutex<Vec<String>>,
) {
    let (exit_tx, exits) = mpsc::channel();
    let spawn_shard = |index: usize, generation: u64, listeners: Arc<[Listener]>| {
        let ctx = ctx.clone();
        let exit = ExitSignal {
            index,
            tx: exit_tx.clone(),
        };
        std::thread::Builder::new()
            .name(format!("shard-{index}"))
            .spawn(move || {
                let _exit = exit;
                shard_loop(index, generation, listeners, &ctx);
            })
            .expect("spawn shard")
    };
    let mut generation = 0u64;
    let mut handles: Vec<Option<JoinHandle<()>>> = (0..workers)
        .map(|i| Some(spawn_shard(i, 0, Arc::clone(&listeners))))
        .collect();
    let mut alive = workers;
    let mut listeners = Some(listeners);
    while alive > 0 {
        let exited = exits.recv_timeout(WAIT_CEILING);
        if ctx.shutdown.load(Ordering::Relaxed) {
            listeners = None;
        }
        let Ok(index) = exited else { continue };
        let handle = handles[index].take().expect("a shard exits once");
        alive -= 1;
        // A clean exit is final: it means shutdown drained the shard.
        let Err(payload) = handle.join() else {
            continue;
        };
        let message = panic_message(payload.as_ref());
        shard_panics
            .lock()
            .push(format!("shard-{index}: {message}"));
        if let Some(listeners) = &listeners {
            // Respawn with a bumped generation (the chaos injectors are
            // reseeded, so a deterministic injected panic does not
            // immediately re-fire).
            ctx.stats.shards_respawned.fetch_add(1, Ordering::Relaxed);
            generation += 1;
            handles[index] = Some(spawn_shard(index, generation, Arc::clone(listeners)));
            alive += 1;
        }
    }
}

/// Per-shard chaos injectors, seeded per shard *and* per generation so
/// chaos runs are reproducible but a respawned shard rolls fresh dice.
fn chaos_injectors(
    ctx: &ShardCtx,
    index: usize,
    generation: u64,
) -> (FailureInjector, FailureInjector) {
    let salt = (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(generation.wrapping_mul(0x517C_C1B7_2722_0A95));
    let conn_chaos = FailureInjector::new(ctx.chaos.conn_panic_rate, ctx.chaos.seed ^ salt);
    let shard_chaos = FailureInjector::new(
        ctx.chaos.shard_panic_rate,
        ctx.chaos.seed ^ salt ^ 0x5D5D_5D5D_5D5D_5D5D,
    );
    (conn_chaos, shard_chaos)
}

fn build_conn<'s>(a: Admitted, remote_ref: &'s dyn RemoteStore) -> Conn<'s> {
    let handler = WireHandler::new(AuthPolicy::default(), remote_ref);
    match a.proto {
        Proto::Ssh => Conn::ssh(
            a.stream,
            a.permit,
            a.client_port,
            handler,
            a.start_unix,
            a.seq,
        ),
        Proto::Telnet => Conn::telnet(a.stream, a.permit, a.client_port, handler, a.start_unix),
    }
}

/// A connection slot in a reactor shard. `generation` invalidates
/// stale timer-wheel entries after the slot is reused.
struct ShardSlot<'s> {
    conn: Conn<'s>,
    doomed: bool,
    generation: u64,
    armed: Interest,
}

/// Most reclaimed output buffers a reactor shard keeps for reuse.
const POOL_CAP: usize = 256;
/// Largest output buffer worth keeping in the pool.
const POOL_BUF_MAX: usize = 64 * 1024;

/// A reactor shard's connection table and the resources its pumps
/// share.
struct Reactor<'s> {
    poller: Poller,
    slots: Vec<Option<ShardSlot<'s>>>,
    free: Vec<usize>,
    live: usize,
    slot_gen: u64,
    wheel: TimerWheel,
    /// One read buffer for every connection on the shard, plus a pool
    /// of reclaimed output buffers: per-connection allocation churn
    /// drops to (at most) one pool miss per intake.
    read_buf: Vec<u8>,
    out_pool: Vec<Vec<u8>>,
}

impl<'s> Reactor<'s> {
    /// An empty shard table on a fresh poller that watches `listeners`.
    fn new(listeners: &[Listener]) -> std::io::Result<Self> {
        let mut r = Reactor {
            poller: Poller::new()?,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            slot_gen: 0,
            wheel: TimerWheel::new(256, Duration::from_millis(100), Instant::now()),
            read_buf: vec![0u8; 16 * 1024],
            out_pool: Vec::new(),
        };
        r.arm(listeners)?;
        Ok(r)
    }

    /// Registers every listener for exclusive read interest.
    fn arm(&mut self, listeners: &[Listener]) -> std::io::Result<()> {
        for (k, l) in listeners.iter().enumerate() {
            self.poller
                .register_exclusive(sock_fd(&l.socket), LISTENER_TOKEN + k as u64)?;
        }
        Ok(())
    }

    /// Stops watching the listeners.
    fn disarm(&mut self, listeners: &[Listener]) {
        for l in listeners {
            let _ = self.poller.deregister(sock_fd(&l.socket));
        }
    }

    /// Places an admitted connection in a slot, registers it with the
    /// poller and the timer wheel, and gives it its first pump (the SSH
    /// banner goes out here; a scanner that connects and hangs up may
    /// finish on this very pump).
    fn intake(&mut self, mut conn: Conn<'s>, doomed: bool, force_close: bool, ctx: &ShardCtx) {
        if let Some(buf) = self.out_pool.pop() {
            conn.adopt_out_buffer(buf);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        // Register before the first pump so no readiness edge is lost
        // between pump and registration.
        if self
            .poller
            .register(conn.raw_fd(), i as u64, Interest::READ)
            .is_err()
        {
            // Cannot watch this socket: fail the session rather than
            // strand it unpumped forever.
            conn.abort();
            ctx.record_finished(conn);
            self.free.push(i);
            return;
        }
        self.slot_gen += 1;
        self.slots[i] = Some(ShardSlot {
            conn,
            doomed,
            generation: self.slot_gen,
            armed: Interest::READ,
        });
        self.live += 1;
        self.pump(i, force_close, Instant::now(), ctx);
        self.schedule(i, ctx);
    }

    /// Puts slot `i`'s next deadline on the timer wheel, if it is live.
    fn schedule(&mut self, i: usize, ctx: &ShardCtx) {
        if let Some(slot) = self.slots.get(i).and_then(Option::as_ref) {
            let deadline = slot.conn.deadline(ctx.idle_timeout, ctx.session_timeout);
            self.wheel.insert(i as u64, slot.generation, deadline);
        }
    }

    /// Pumps slot `i` under the per-connection guard; records and frees
    /// the slot if the connection finished (or its pump panicked).
    fn pump(&mut self, i: usize, force_close: bool, now: Instant, ctx: &ShardCtx) {
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return; // already finished this tick (e.g. event + timer)
        };
        if force_close {
            slot.conn.abort();
        }
        let doomed = slot.doomed;
        let read_buf = &mut self.read_buf;
        let pumped = catch_unwind(AssertUnwindSafe(|| {
            if doomed {
                panic!("chaos: injected connection panic");
            }
            force_close
                || slot.conn.pump_buf(
                    read_buf,
                    now,
                    ctx.idle_timeout,
                    ctx.session_timeout,
                    &ctx.stats,
                )
        }));
        if let Ok(false) = pumped {
            // Re-arm write interest only when it changed — kernel
            // round-trips on interest are not free.
            let want = conn_interest(slot.conn.wants_write());
            if want != slot.armed {
                let _ = self.poller.reregister(slot.conn.raw_fd(), i as u64, want);
                slot.armed = want;
            }
            return;
        }
        let mut slot = self.slots[i].take().expect("slot checked above");
        let _ = self.poller.deregister(slot.conn.raw_fd());
        let buf = slot.conn.reclaim_out_buffer();
        if self.out_pool.len() < POOL_CAP && buf.capacity() > 0 && buf.capacity() <= POOL_BUF_MAX {
            self.out_pool.push(buf);
        }
        match pumped {
            Err(_payload) => ctx.record_failed(slot.conn),
            _ => ctx.record_finished(slot.conn),
        }
        self.free.push(i);
        self.live -= 1;
        // Any timer-wheel entries for this slot die via the slot
        // generation check when they fire.
    }
}

/// One worker shard: readiness-driven. The listeners and the shard's
/// own connections share one poller; connections are pumped when their
/// socket is ready or their timer-wheel deadline fires — never scanned.
/// Crash containment: per-connection `catch_unwind`, shard-level chaos
/// at intake.
fn shard_loop(index: usize, generation: u64, listeners: Arc<[Listener]>, ctx: &ShardCtx) {
    // Descriptor exhaustion can refuse the poller or a registration.
    // The shard owns no connection yet, so waiting blocks nobody: back
    // off like the acceptor and try again, unless shutdown comes first.
    let mut pause = Duration::from_millis(1);
    let mut r = loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match Reactor::new(&listeners) {
            Ok(r) => break r,
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(MAX_ACCEPT_PAUSE);
            }
        }
    };
    let remote_ref: &dyn RemoteStore = &*ctx.remote;
    let (mut conn_chaos, shard_chaos) = chaos_injectors(ctx, index, generation);
    let mut acceptor = Acceptor::new(listeners, shard_chaos);
    let mut events: Vec<Event> = Vec::new();
    let mut expired: Vec<(u64, u64)> = Vec::new();
    let mut drain_started: Option<Instant> = None;

    loop {
        // Drain policy: once shutdown is triggered, stop accepting and
        // keep pumping in-flight sessions for at most `drain_timeout`,
        // then force-close the rest. Letting go of the listeners here is
        // what closes them once every shard and the supervisor have done
        // the same.
        if ctx.shutdown.load(Ordering::Relaxed) && drain_started.is_none() {
            drain_started = Some(Instant::now());
            if let Some(listeners) = acceptor.listeners.take() {
                r.disarm(&listeners);
            }
        }
        let force_close = matches!(drain_started, Some(t0) if t0.elapsed() >= ctx.drain_timeout);
        if force_close && r.live > 0 {
            // Sweep every in-flight connection closed (recorded as
            // timed out).
            let now = Instant::now();
            for i in 0..r.slots.len() {
                r.pump(i, true, now, ctx);
            }
        }
        if r.live == 0 && drain_started.is_some() {
            return; // drained, and no longer accepting
        }

        let now = Instant::now();
        if acceptor.resume(now) {
            let _ = r.arm(acceptor.listeners());
        }
        // Park until something is ready. The ceiling bounds how late we
        // observe shutdown, drain expiry, timer-wheel deadlines and the
        // end of an accept pause.
        let mut timeout = if drain_started.is_some() {
            Duration::from_millis(10)
        } else {
            WAIT_CEILING
        };
        if let Some(until) = acceptor.paused_until {
            timeout = timeout.min(until.saturating_duration_since(now));
        }
        if r.poller.wait(timeout, &mut events).is_err() {
            events.clear();
        }
        let now = Instant::now();
        for ev in &events {
            if ev.token < LISTENER_TOKEN {
                r.pump(ev.token as usize, force_close, now, ctx);
                continue;
            }
            let k = (ev.token - LISTENER_TOKEN) as usize;
            let paused = acceptor.accept(k, ctx, |a| {
                let doomed = conn_chaos.fires();
                r.intake(build_conn(a, remote_ref), doomed, force_close, ctx);
            });
            if paused {
                r.disarm(acceptor.listeners());
            }
        }

        // Timer wheel: fire expired deadlines. Entries carry the slot
        // generation, so a reused slot ignores its predecessor's
        // timers; a deadline pushed forward by activity re-inserts.
        r.wheel.advance(now, &mut expired);
        for (token, gen) in expired.drain(..) {
            let i = token as usize;
            let Some(slot) = r.slots.get(i).and_then(Option::as_ref) else {
                continue;
            };
            if slot.generation != gen {
                continue;
            }
            let deadline = slot.conn.deadline(ctx.idle_timeout, ctx.session_timeout);
            if deadline <= now {
                // Really expired: the pump's own deadline check marks
                // it timed out and finishes it; a survivor (activity
                // raced the deadline) is rescheduled.
                r.pump(i, force_close, now, ctx);
                r.schedule(i, ctx);
            } else {
                r.wheel.insert(token, gen, deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeypot::SinkError;
    use std::net::Ipv6Addr;

    #[test]
    fn serve_report_render_and_api_json_agree() {
        let report = ServeReport::sample();
        let text = report.render();
        assert!(text.starts_with("final: accepted=202"));
        assert!(text.contains("collector: 200 accepted, 0 dropped, 0 quarantined"));
        let doc = report.api_json();
        assert_eq!(
            doc.get("kind").and_then(hutil::Json::as_str),
            Some("serve_report")
        );
        let data = doc.get("data").unwrap();
        assert_eq!(
            data.get("counters")
                .and_then(|c| c.get("accepted"))
                .and_then(hutil::Json::as_i64),
            Some(202)
        );
        assert_eq!(
            data.get("ingest")
                .and_then(|c| c.get("accepted"))
                .and_then(hutil::Json::as_i64),
            Some(200)
        );
    }

    /// A sink whose appends panic, or else whose commits all fail.
    struct BrokenSink {
        panic_on_append: bool,
    }

    impl SessionSink for BrokenSink {
        fn append(&mut self, _rec: &SessionRecord) -> Result<(), SinkError> {
            if self.panic_on_append {
                panic!("injected sink panic");
            }
            Ok(())
        }

        fn commit(&mut self) -> Result<(), SinkError> {
            Err("injected sync failure".into())
        }
    }

    /// Starts a one-shard server over `sink`, opens and closes one SSH
    /// connection every 20 ms (a writer batch each) until the server
    /// stops by itself, and returns what `join` reports.
    fn serve_until_it_stops(sink: BrokenSink) -> Result<ServeReport, ServeError> {
        let cfg = ServeConfig {
            workers: 1,
            stats_interval: None,
            ..ServeConfig::default()
        };
        let poller = Poller::new().expect("poller");
        let handle =
            Server::launch(cfg, Arc::new(NullStore), poller, Box::new(sink), None).expect("start");
        let ssh = handle.addrs().ssh.expect("ssh addr");
        let deadline = Instant::now() + Duration::from_secs(20);
        while !handle.shutting_down() {
            assert!(Instant::now() < deadline, "the server kept running");
            drop(TcpStream::connect(ssh));
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.join()
    }

    #[test]
    fn a_store_writer_panic_stops_the_server() {
        match serve_until_it_stops(BrokenSink {
            panic_on_append: true,
        }) {
            Err(ServeError::ThreadPanicked { thread, message }) => {
                assert_eq!(thread, "store-writer");
                assert!(message.contains("injected sink panic"), "{message}");
            }
            other => panic!("expected the writer's panic, got {other:?}"),
        }
    }

    #[test]
    fn commits_that_keep_failing_stop_the_server() {
        match serve_until_it_stops(BrokenSink {
            panic_on_append: false,
        }) {
            Err(ServeError::Store { message }) => {
                assert!(message.contains("injected sync failure"), "{message}");
            }
            other => panic!("expected a store error, got {other:?}"),
        }
    }

    #[test]
    fn fold_preserves_v4_addresses() {
        let ip = IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, 9));
        assert_eq!(
            fold_peer_ip(ip),
            netsim::Ipv4Addr::from_octets(203, 0, 113, 9)
        );
    }

    #[test]
    fn fold_gives_distinct_v6_peers_distinct_reserved_slots() {
        let a = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)));
        let b = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)));
        let loopback = fold_peer_ip(IpAddr::V6(Ipv6Addr::LOCALHOST));
        assert_ne!(a, b, "distinct v6 peers must not share a per-IP slot");
        for ip in [a, b, loopback] {
            assert_eq!(ip.0 >> 24, 240, "v6 folds into reserved 240/8: {}", ip.0);
        }
        // Stable: the same peer always folds to the same slot.
        assert_eq!(
            a,
            fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)))
        );
    }
}
