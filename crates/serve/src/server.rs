//! Server orchestration: listeners, supervised worker shards that accept
//! their own connections, the store writer, the stats/observability
//! aggregator that also serves the HTTP plane, and graceful drain.
//!
//! # Shards
//!
//! Each shard owns a [`crate::reactor::Poller`] (epoll on Linux,
//! poll(2) on other unixes) and registers every listening socket in it
//! beside its own connections. On Linux the listener registrations are
//! exclusive, so one waiting shard wakes per incoming connection. That
//! shard accepts one connection per listener readiness, admits it and
//! sends its banner on its own thread: no intake queue, no cross-thread
//! wakeup. Connections are pumped only when their socket is ready or
//! their deadline passes. Without a readiness API (non-unix hosts)
//! [`Server::start`] refuses to serve.
//!
//! Connections no shard has accepted yet wait in the kernel backlog,
//! which is re-armed `max_connections` deep. Readiness is
//! level-triggered, so a backlog of several connections keeps its
//! listener reported until it is empty.
//!
//! # Deadlines
//!
//! A shard keeps one deadline per connection slot, beside its connection
//! table: set from `Conn::deadline` at intake, cleared when the slot is
//! freed, so timer memory is bounded by the peak of open connections. An
//! entry is only a lower bound, since activity moves a deadline later and
//! leaves the entry alone. The shard's wait ends at the earliest entry;
//! then one sweep times out the connections whose real deadline has
//! passed and refreshes the entries of the rest.
//!
//! # Durable capture
//!
//! A shard sends each finished session's record, by move, to the one
//! `store-writer` thread (the `writer` module) and goes back to its
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
use crate::reactor::{self, sock_fd, Event, Interest, Poller};
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
use std::io::ErrorKind;
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
        // snapshots, and serves the HTTP plane from its poller. The
        // store writer feeds it stored records over its channel, which
        // it drains in batches.
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

/// Binds a listener readied for [`reactor::accept`]; returns it with its
/// resolved address.
fn bind(addr: SocketAddr) -> Result<(TcpListener, SocketAddr), ServeError> {
    let bind_err = |source| ServeError::Bind {
        addr: addr.to_string(),
        source,
    };
    let socket = TcpListener::bind(addr).map_err(bind_err)?;
    reactor::prepare_listener(&socket).map_err(bind_err)?;
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

    /// The most recently published observability snapshot: the one the
    /// HTTP endpoints render from, read from the copy the aggregator
    /// leaves behind a mutex at each publish (4 times a second).
    pub fn api_snapshot(&self) -> Option<Arc<ApiSnapshot>> {
        self.aggregator
            .as_ref()
            .map(|a| Arc::clone(&a.latest.lock()))
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

/// Longest accept pause after descriptor exhaustion.
const MAX_ACCEPT_PAUSE: Duration = Duration::from_millis(200);

/// Longest a shard or the supervisor waits before it looks at the
/// shutdown flag again.
const WAIT_CEILING: Duration = Duration::from_millis(50);

/// Soonest a shard sweeps its deadlines again after a sweep, however
/// early its next entry: a crowd of connections timing out one after
/// another costs one pass over the deadlines per this interval, not one
/// per timeout.
const SWEEP_FLOOR: Duration = Duration::from_millis(100);

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

    /// Accepts one connection from listener `k` and hands it to `intake`:
    /// counted, admitted, stamped. One per readiness event: the poller is
    /// level-triggered, so a backlog that holds more reports the listener
    /// again on the next wait, with the shard's own ready sockets served
    /// in between, and no `accept` is spent finding the backlog empty.
    /// Shutdown is checked before and after the `accept`, so a connect
    /// that lands once shutdown is triggered is closed uncounted. Returns
    /// `true` when an accept error just paused accepting.
    fn accept(&mut self, k: usize, ctx: &ShardCtx, intake: impl FnOnce(Admitted)) -> bool {
        if self.paused_until.is_some() || ctx.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let Some(listener) = self.listeners.as_deref().and_then(|l| l.get(k)) else {
            return false;
        };
        let (stream, peer) = match reactor::accept(&listener.socket) {
            Ok(conn) => conn,
            // Another shard took it, or a signal landed: a backlog that
            // still holds a connection is reported again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return false
            }
            Err(e) => {
                ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                match e.kind() {
                    // Per-connection failures (peer vanished between SYN
                    // and accept): the backlog may hold more.
                    ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset => return false,
                    // Resource exhaustion (EMFILE/ENFILE lands here as
                    // Other/Uncategorized) or anything unexpected:
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
            // Shutdown landed during the accept: close the socket before
            // it is counted or takes a slot.
            return false;
        }
        ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let permit = match ctx.gate.admit(fold_peer_ip(peer.ip()), &ctx.stats) {
            Ok(p) => p,
            // Shed: dropping the stream closes it before any protocol
            // state exists.
            Err(Admission::OverCapacity) => {
                ctx.stats.shed_capacity.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Err(_) => {
                ctx.stats.shed_per_ip.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        };
        let admitted = Admitted {
            seq: ctx.seq.fetch_add(1, Ordering::Relaxed),
            start_unix: now_unix(),
            stream,
            permit,
            client_port: peer.port(),
            proto: listener.proto,
        };
        if self.shard_chaos.fires() {
            // Outside the per-connection guard: kills the whole shard
            // thread. `admitted` (and its permit) and every owned
            // connection release on unwind.
            panic!("chaos: injected shard panic");
        }
        intake(admitted);
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

/// A connection slot in a reactor shard.
struct ShardSlot<'s> {
    conn: Conn<'s>,
    doomed: bool,
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
    events: Vec<Event>,
    slots: Vec<Option<ShardSlot<'s>>>,
    /// A lower bound on each slot's deadline, `None` while the slot is
    /// free. Kept apart from `slots` so a sweep reads 16 bytes per slot,
    /// not a connection.
    due: Vec<Option<Instant>>,
    /// When the deadlines are swept next: the earliest entry in `due`,
    /// or no sooner than [`SWEEP_FLOOR`] after the last sweep; `None`
    /// with no entry.
    next_sweep: Option<Instant>,
    free: Vec<usize>,
    live: usize,
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
            events: Vec::new(),
            slots: Vec::new(),
            due: Vec::new(),
            next_sweep: None,
            free: Vec::new(),
            live: 0,
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

    /// Waits up to `timeout` for readiness, accepts from each ready
    /// listener, pumps each ready connection, and sweeps the deadlines
    /// once the next sweep is due.
    fn turn(
        &mut self,
        timeout: Duration,
        acceptor: &mut Acceptor,
        conn_chaos: &mut FailureInjector,
        force_close: bool,
        remote: &'s dyn RemoteStore,
        ctx: &ShardCtx,
    ) {
        if self.poller.wait(timeout, &mut self.events).is_err() {
            self.events.clear();
        }
        let now = Instant::now();
        for e in 0..self.events.len() {
            let ev = self.events[e];
            if ev.token < LISTENER_TOKEN {
                self.pump(ev.token as usize, ev.readable, force_close, now, ctx);
                continue;
            }
            let k = (ev.token - LISTENER_TOKEN) as usize;
            let paused = acceptor.accept(k, ctx, |a| {
                let doomed = conn_chaos.fires();
                self.intake(build_conn(a, remote), doomed, force_close, ctx);
            });
            if paused {
                self.disarm(acceptor.listeners());
            }
        }
        if self.next_sweep.is_some_and(|t| t <= now) {
            self.sweep(now, force_close, ctx);
        }
    }

    /// Places an admitted connection in a slot, registers it with the
    /// poller, enters its deadline, and gives it its first pump, which
    /// writes the banner and reads nothing: bytes the peer has already
    /// sent, or its hangup, are reported on the next wait.
    fn intake(&mut self, mut conn: Conn<'s>, doomed: bool, force_close: bool, ctx: &ShardCtx) {
        if let Some(buf) = self.out_pool.pop() {
            conn.adopt_out_buffer(buf);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.due.push(None);
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
        let deadline = conn.deadline(ctx.idle_timeout, ctx.session_timeout);
        self.due[i] = Some(deadline);
        self.next_sweep = Some(self.next_sweep.map_or(deadline, |t| t.min(deadline)));
        self.slots[i] = Some(ShardSlot {
            conn,
            doomed,
            armed: Interest::READ,
        });
        self.live += 1;
        self.pump(i, false, force_close, Instant::now(), ctx);
    }

    /// Pumps slot `i` under the per-connection guard, reading only when
    /// the poller reported it `readable`; records and frees the slot if
    /// the connection finished (or its pump panicked).
    fn pump(&mut self, i: usize, readable: bool, force_close: bool, now: Instant, ctx: &ShardCtx) {
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return; // already finished this tick (e.g. event + sweep)
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
                || slot.conn.pump(
                    read_buf,
                    readable,
                    now,
                    ctx.idle_timeout,
                    ctx.session_timeout,
                    &ctx.stats,
                )
        }));
        if let Ok(false) = pumped {
            // Re-arm interest only when it changed — kernel round-trips
            // on interest are not free.
            let want = slot.conn.interest();
            if want != slot.armed {
                let _ = self.poller.reregister(slot.conn.raw_fd(), i as u64, want);
                slot.armed = want;
            }
            return;
        }
        let mut slot = self.slots[i].take().expect("slot checked above");
        self.due[i] = None;
        // Recording the connection closes its socket, which is what takes
        // it out of an epoll set.
        self.poller.forget(slot.conn.raw_fd());
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
    }

    /// One pass over the deadlines at `now`. Each connection whose entry
    /// and real deadline have both passed is pumped, and the pump's own
    /// check times it out; a survivor's entry is refreshed. The next
    /// sweep is at the earliest entry left, but no sooner than
    /// [`SWEEP_FLOOR`] from now.
    fn sweep(&mut self, now: Instant, force_close: bool, ctx: &ShardCtx) {
        let deadline_of = |slot: &Option<ShardSlot<'_>>| {
            slot.as_ref()
                .map(|s| s.conn.deadline(ctx.idle_timeout, ctx.session_timeout))
        };
        let mut earliest: Option<Instant> = None;
        for i in 0..self.due.len() {
            let Some(mut bound) = self.due[i] else {
                continue;
            };
            if bound <= now {
                if deadline_of(&self.slots[i]).is_some_and(|d| d <= now) {
                    self.pump(i, false, force_close, now, ctx);
                }
                let Some(deadline) = deadline_of(&self.slots[i]) else {
                    continue;
                };
                bound = deadline;
                self.due[i] = Some(bound);
            }
            earliest = Some(earliest.map_or(bound, |t| t.min(bound)));
        }
        self.next_sweep = earliest.map(|t| t.max(now + SWEEP_FLOOR));
    }
}

/// How long a shard waits, at `now`, for a wait that ends at `until`,
/// rounded up to the poller's whole milliseconds: cut down, the last
/// fraction of one before a deadline would spin the poller.
fn wait_until(until: Instant, now: Instant) -> Duration {
    let ms = until
        .saturating_duration_since(now)
        .as_nanos()
        .div_ceil(1_000_000);
    Duration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX))
}

/// One worker shard: readiness-driven. The listeners and the shard's
/// own connections share one poller; connections are pumped when their
/// socket is ready or, in a sweep, when their deadline has passed.
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
                r.pump(i, false, true, now, ctx);
            }
        }
        if r.live == 0 && drain_started.is_some() {
            return; // drained, and no longer accepting
        }

        let now = Instant::now();
        if acceptor.resume(now) {
            let _ = r.arm(acceptor.listeners());
        }
        // Park until something is ready, the next sweep is due or an
        // accept pause ends. The ceiling bounds how late shutdown (and,
        // while draining, the drain's expiry) is seen.
        let mut until = now
            + if drain_started.is_some() {
                Duration::from_millis(10)
            } else {
                WAIT_CEILING
            };
        for t in [acceptor.paused_until, r.next_sweep].into_iter().flatten() {
            until = until.min(t);
        }
        r.turn(
            wait_until(until, now),
            &mut acceptor,
            &mut conn_chaos,
            force_close,
            remote_ref,
            ctx,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeypot::{SessionEndReason, SinkError};
    use std::collections::VecDeque;
    use std::io::Write;
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

    /// A shard context over `NullStore`, whose finished records arrive
    /// on the returned receiver.
    fn test_ctx() -> (ShardCtx, mpsc::Receiver<SessionRecord>) {
        let (store_tx, records) = mpsc::channel();
        let stats = Arc::new(ServeStats::default());
        let ctx = ShardCtx {
            remote: Arc::new(NullStore),
            store_tx,
            stats,
            gate: Arc::new(Gate::new(1024, 1024)),
            seq: Arc::new(AtomicU64::new(0)),
            shutdown: Arc::new(AtomicBool::new(false)),
            sensor: SensorIdentity {
                honeypot_id: 0,
                honeypot_ip: netsim::Ipv4Addr(1),
            },
            idle_timeout: Duration::from_secs(30),
            session_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            chaos: ChaosConfig::default(),
        };
        (ctx, records)
    }

    /// A loopback listener for `proto`, and its address.
    fn listener(proto: Proto) -> (Arc<[Listener]>, SocketAddr) {
        let (socket, addr) = bind("127.0.0.1:0".parse().unwrap()).expect("bind");
        (vec![Listener { socket, proto }].into(), addr)
    }

    /// An SSH listener with `n` connections queued in its backlog, each
    /// handshake complete, and the clients that made them.
    fn queued_listener(n: usize) -> (Arc<[Listener]>, Vec<TcpStream>) {
        let (listeners, addr) = listener(Proto::Ssh);
        let clients: Vec<TcpStream> = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // The kernel finishes loopback handshakes on its own time: wait
        // until a poller sees the backlog.
        let mut poller = Poller::new().unwrap();
        poller
            .register(sock_fd(&listeners[0].socket), 0, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(!events.is_empty(), "the backlog never became readable");
        (listeners, clients)
    }

    #[test]
    fn a_listener_readiness_accepts_one_connection() {
        const N: usize = 8;
        let (ctx, _records) = test_ctx();
        let (listeners, _clients) = queued_listener(N);
        let mut acceptor = Acceptor::new(Arc::clone(&listeners), FailureInjector::new(0.0, 0));
        let mut taken = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while taken < N {
            assert!(Instant::now() < deadline, "{taken} of {N} accepted");
            assert!(!acceptor.accept(0, &ctx, |_| taken += 1));
        }
        assert!(!acceptor.accept(0, &ctx, |_| panic!("the backlog is empty")));
        assert_eq!(ctx.stats.accepted.load(Ordering::Relaxed), N as u64);
        assert_eq!(ctx.stats.accept_errors.load(Ordering::Relaxed), 0);
    }

    /// Connections queued before the shard's first wait are all served,
    /// although each listener readiness accepts only one of them: the
    /// level-triggered listener keeps being reported until the backlog
    /// is empty.
    #[test]
    fn a_backlog_queued_before_the_first_wait_is_served_in_full() {
        use std::io::Read;
        const N: usize = 48;
        let (ctx, records) = test_ctx();
        let (listeners, clients) = queued_listener(N);
        let shard = {
            let ctx = ctx.clone();
            std::thread::spawn(move || shard_loop(0, 0, listeners, &ctx))
        };
        for mut client in clients {
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut banner = [0u8; 8];
            client.read_exact(&mut banner).expect("a banner");
            assert_eq!(&banner, b"SSH-2.0-");
        }
        for i in 0..N {
            records
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("only {i} of {N} sessions were recorded"));
        }
        ctx.shutdown.store(true, Ordering::Relaxed);
        shard.join().expect("the shard exits cleanly");
        assert_eq!(ctx.stats.accepted.load(Ordering::Relaxed), N as u64);
        assert_eq!(ctx.stats.completed.load(Ordering::Relaxed), N as u64);
    }

    /// A Telnet shard turned by hand, so a test can read its timer state
    /// and pump its connections on a clock ahead of the real one.
    struct TestShard<'s> {
        r: Reactor<'s>,
        acceptor: Acceptor,
        chaos: FailureInjector,
        addr: SocketAddr,
        ctx: &'s ShardCtx,
    }

    impl<'s> TestShard<'s> {
        fn new(ctx: &'s ShardCtx) -> Self {
            let (listeners, addr) = listener(Proto::Telnet);
            TestShard {
                r: Reactor::new(&listeners).unwrap(),
                acceptor: Acceptor::new(listeners, FailureInjector::new(0.0, 0)),
                chaos: FailureInjector::new(0.0, 0),
                addr,
                ctx,
            }
        }

        /// One turn of the shard on the real clock.
        fn turn(&mut self) {
            let remote: &'s dyn RemoteStore = &*self.ctx.remote;
            let (acceptor, chaos) = (&mut self.acceptor, &mut self.chaos);
            let timeout = Duration::from_millis(100);
            self.r
                .turn(timeout, acceptor, chaos, false, remote, self.ctx);
        }

        /// Connects a client and turns the shard until it has taken the
        /// connection in; returns the client and the connection's slot.
        fn open(&mut self) -> (TcpStream, usize) {
            let client = TcpStream::connect(self.addr).unwrap();
            let accepted = self.ctx.stats.accepted.load(Ordering::Relaxed) + 1;
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut slot = self.r.free.last().copied().unwrap_or(self.r.slots.len());
            while self.ctx.stats.accepted.load(Ordering::Relaxed) < accepted {
                assert!(
                    Instant::now() < deadline,
                    "the connection was never accepted"
                );
                slot = self.r.free.last().copied().unwrap_or(self.r.slots.len());
                self.turn();
            }
            (client, slot)
        }

        /// Has each client send `line`, and pumps what arrives at `now`,
        /// which becomes those connections' last activity.
        fn send(&mut self, clients: &mut [TcpStream], line: &[u8], now: Instant) {
            let stats = &self.ctx.stats;
            let want = stats.bytes_in.load(Ordering::Relaxed) + (clients.len() * line.len()) as u64;
            for client in clients {
                client.write_all(line).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while stats.bytes_in.load(Ordering::Relaxed) < want {
                assert!(Instant::now() < deadline, "the lines never arrived");
                let r = &mut self.r;
                r.poller
                    .wait(Duration::from_millis(100), &mut r.events)
                    .unwrap();
                for e in 0..r.events.len() {
                    let ev = r.events[e];
                    assert!(ev.token < LISTENER_TOKEN, "no connect is pending");
                    r.pump(ev.token as usize, ev.readable, false, now, self.ctx);
                }
            }
        }

        /// The real deadline of the connection in slot `i`, if any.
        fn deadline(&self, i: usize) -> Option<Instant> {
            let (idle, session) = (self.ctx.idle_timeout, self.ctx.session_timeout);
            let slot = self.r.slots[i].as_ref()?;
            Some(slot.conn.deadline(idle, session))
        }
    }

    /// A connection kept busy past its first idle deadline survives the
    /// sweep that times out the silent connection opened with it: the
    /// sweep ends a connection by its real deadline, not by its entry.
    #[test]
    fn a_busy_connection_survives_the_sweep_that_times_out_its_silent_sibling() {
        let (ctx, records) = test_ctx();
        let mut shard = TestShard::new(&ctx);
        let (busy, b) = shard.open();
        let (_silent, s) = shard.open();
        // Both entries are due before `t0` + idle timeout (30 s).
        let t0 = Instant::now();
        shard.send(&mut [busy], b"root\r\n", t0 + Duration::from_secs(20));

        shard.r.sweep(t0 + Duration::from_secs(31), false, &ctx);
        assert!(shard.r.slots[b].is_some(), "the busy connection survives");
        assert!(shard.r.slots[s].is_none(), "the silent one timed out");
        assert_eq!(ctx.stats.timed_out.load(Ordering::Relaxed), 1);
        let rec = records.try_recv().expect("the silent session is recorded");
        assert_eq!(rec.end_reason, SessionEndReason::Timeout);
        assert_eq!(shard.r.due[b], shard.deadline(b), "the entry is refreshed");
        assert_eq!(shard.r.due[s], None, "a freed slot keeps no entry");
    }

    /// `session_timeout` ends a connection that never goes idle.
    #[test]
    fn the_session_timeout_ends_a_connection_that_stays_busy() {
        let (ctx, records) = test_ctx();
        let mut shard = TestShard::new(&ctx);
        let (client, i) = shard.open();
        let mut client = [client];
        let t0 = Instant::now();
        let at = |secs| t0 + Duration::from_secs(secs);
        // Busy every 25 s: the idle deadline (30 s) never passes.
        shard.send(&mut client, b"root\r\n", at(25));
        shard.send(&mut client, b"hunter2\r\n", at(50));
        shard.r.sweep(at(59), false, &ctx);
        assert!(shard.r.slots[i].is_some(), "inside its 60 s session");
        assert_eq!(ctx.stats.timed_out.load(Ordering::Relaxed), 0);

        shard.r.sweep(at(61), false, &ctx);
        assert!(shard.r.slots[i].is_none(), "the session timeout ended it");
        assert_eq!(ctx.stats.timed_out.load(Ordering::Relaxed), 1);
        let rec = records.try_recv().expect("the session is recorded");
        assert_eq!(rec.end_reason, SessionEndReason::Timeout);
        assert_eq!(rec.logins.len(), 1, "it was served until the end");
    }

    /// Timer state is bounded by the open connections, not by how many
    /// came and went: after 10,000 connections through one shard, at
    /// most 64 open at once, a slot holds an entry exactly while it holds
    /// a connection. A sweep refreshes the entries of the connections
    /// that survive it, so the next sweep is no earlier than the earliest
    /// live deadline (or `SWEEP_FLOOR` from now, if that is later).
    #[test]
    fn timer_entries_are_bounded_by_the_open_connections() {
        const TOTAL: usize = 10_000;
        const OPEN: usize = 64;
        let (ctx, records) = test_ctx();
        let mut shard = TestShard::new(&ctx);
        let mut open = VecDeque::new();
        for _ in 0..TOTAL {
            if open.len() == OPEN {
                drop(open.pop_front());
            }
            open.push_back(shard.open().0);
            while records.try_recv().is_ok() {}
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while shard.r.live > OPEN {
            assert!(Instant::now() < deadline, "closed clients were never seen");
            shard.turn();
        }
        let r = &shard.r;
        assert_eq!(r.live, OPEN);
        let completed = ctx.stats.completed.load(Ordering::Relaxed);
        assert_eq!(
            completed,
            (TOTAL - OPEN) as u64,
            "every closed client is recorded"
        );
        assert_eq!(r.due.len(), r.slots.len());
        assert!(r.slots.len() < 2 * OPEN, "{} slots", r.slots.len());
        for (entry, slot) in r.due.iter().zip(&r.slots) {
            assert_eq!(entry.is_some(), slot.is_some(), "an entry per open slot");
        }

        // Every entry is due before `t0` + idle timeout (30 s); activity
        // at `t0` + 20 s moves every real deadline to `t0` + 50 s.
        let t0 = Instant::now();
        let mut clients: Vec<TcpStream> = open.into();
        shard.send(&mut clients, b"root\r\n", t0 + Duration::from_secs(20));
        let now = t0 + Duration::from_secs(31);
        shard.r.sweep(now, false, &ctx);
        assert_eq!(shard.r.live, OPEN, "busy connections survive the sweep");
        let live: Vec<usize> = (0..shard.r.slots.len())
            .filter(|&i| shard.r.slots[i].is_some())
            .collect();
        for &i in &live {
            assert_eq!(shard.r.due[i], shard.deadline(i), "slot {i} is refreshed");
        }
        let earliest = live.iter().filter_map(|&i| shard.deadline(i)).min();
        let floor = earliest.expect("live connections").max(now + SWEEP_FLOOR);
        assert!(
            shard.r.next_sweep >= Some(floor),
            "the next sweep is too early"
        );
    }

    #[test]
    fn a_wait_that_ends_at_a_deadline_rounds_up_to_whole_milliseconds() {
        let now = Instant::now();
        let wait = |micros| wait_until(now + Duration::from_micros(micros), now);
        assert_eq!(wait(0), Duration::ZERO);
        assert_eq!(wait(1), Duration::from_millis(1), "not a zero timeout");
        assert_eq!(wait(999), Duration::from_millis(1));
        assert_eq!(wait(50_000), Duration::from_millis(50));
        assert_eq!(wait(50_001), Duration::from_millis(51));
        assert_eq!(
            wait_until(now, now + Duration::from_secs(1)),
            Duration::ZERO
        );
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
