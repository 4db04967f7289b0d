//! `serve` — the honeypot's live TCP front-end.
//!
//! Everything else in this workspace drives the sans-IO `sshwire` /
//! `telwire` state machines from a synthetic generator; this crate binds
//! real sockets and drives the *same* state machines from real bytes, so a
//! running `honeylab serve` is an actual medium-interaction honeypot whose
//! output is immediately analyzable.
//!
//! # Architecture
//!
//! ```text
//!   ssh listener ────┐   ┌── shard 0 ── accept + admit + pump its own conns
//!   telnet listener ─┴───┼── shard 1 ── …
//!   (kernel backlog)     └── shard N-1
//!                                 │ completed sessions
//!                                 ├──────────────► honeypot::Collector ── sessiondb store
//!                                 ▼
//!   http listener ──────► aggregator (one poller, 10 ms drain tick) ── /api/*, SSE, stats line
//! ```
//!
//! * **Shards accept their own sockets** — every worker *shard* watches
//!   every listener in its own poller and accepts, admits and pumps its
//!   connections on one thread. Each shard owns its connections outright
//!   (no cross-thread locking or handoff on the hot path) and drives
//!   them with non-blocking reads/writes, so one slow client never
//!   stalls the rest.
//! * **Admission control** — a connection is shed *at accept time* when
//!   the global concurrent-connection cap or the per-IP limit is reached:
//!   the socket is dropped before any protocol state is allocated, which
//!   is the only backpressure that actually protects the process from an
//!   accept storm.
//! * **Timeouts** — every connection carries an idle deadline (no bytes in
//!   either direction) and a total-session deadline; expiry closes the
//!   connection and records the session with
//!   [`honeypot::SessionEndReason::Timeout`], exactly like Cowrie's
//!   3-minute timer.
//! * **Durable spill** — completed sessions convert to
//!   [`honeypot::SessionRecord`]s and stream through the hardened
//!   [`honeypot::Collector`] (retry/backoff/quarantine) into a live
//!   [`sessiondb`] store, so a server that has been up for a year has a
//!   store on disk that `honeylab analyze` reads directly.
//! * **Graceful shutdown** — trigger → shards stop accepting and the
//!   listeners close → shards drain in-flight sessions (bounded by a
//!   drain timeout) → collector retries flush → the final partial
//!   segment is sealed.

pub mod barrage;
pub mod broadcast;
pub mod conn;
pub mod http;
pub mod reactor;
pub mod server;
pub mod signal;
pub mod sse;
pub mod stats;

pub use conn::{LiveHandler, SharedStore};
pub use server::{fold_peer_ip, ServeReport, Server, ServerHandle};

use honeypot::CollectorConfig;
use sessiondb::FsyncPolicy;
use std::net::{IpAddr, Ipv4Addr as StdIpv4Addr};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything that can go wrong starting or stopping a server.
#[derive(Debug)]
pub enum ServeError {
    /// The config broke an invariant ([`ServeConfig::validate`]).
    Config(ConfigError),
    /// Binding a listener failed.
    Bind {
        /// Address we tried to bind.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// Creating or sealing the sessiondb spill store failed.
    Store {
        /// Backend error message.
        message: String,
    },
    /// Draining the collector failed.
    Collector {
        /// Collector error message.
        message: String,
    },
    /// No readiness poller could be created: the host has no readiness
    /// API (non-unix), or no descriptor was left for one.
    Poller {
        /// The OS error.
        source: std::io::Error,
    },
    /// A server thread (supervisor or aggregator) panicked; the run's
    /// data was still sealed, but the process was unhealthy.
    ThreadPanicked {
        /// Thread that died.
        thread: String,
        /// Extracted panic message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid serve configuration: {e}"),
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Poller { source } => {
                write!(f, "cannot create a readiness poller: {source}")
            }
            ServeError::Store { message } => write!(f, "session store failed: {message}"),
            ServeError::Collector { message } => write!(f, "collector failed: {message}"),
            ServeError::ThreadPanicked { thread, message } => {
                write!(f, "server thread '{thread}' panicked: {message}")
            }
        }
    }
}

/// Fault-injection knobs for the serving layer itself. Sink flush
/// failures are injected separately through
/// [`ServeConfig::collector`]'s `flush_failure_rate`; these rates cover
/// the two failure domains above the collector: a single connection's
/// pump panicking (caught per-connection) and a whole shard thread
/// panicking (respawned by the supervisor). Rates are probabilities in
/// `[0, 1]`; the seed makes a chaos run reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Probability that an admitted connection's pump panics.
    pub conn_panic_rate: f64,
    /// Probability that taking a connection into a shard panics the
    /// shard thread itself.
    pub shard_panic_rate: f64,
    /// Seed for the deterministic injectors.
    pub seed: u64,
}

impl ChaosConfig {
    /// Whether any chaos injection is active.
    pub fn enabled(&self) -> bool {
        self.conn_panic_rate > 0.0 || self.shard_panic_rate > 0.0
    }
}

impl std::error::Error for ServeError {}

/// Tuning knobs for a live server. The defaults are sized for the
/// loopback smoke tests; a production deployment raises the cap and the
/// worker count.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind listeners on.
    pub bind: IpAddr,
    /// SSH listener port (`Some(0)` picks an ephemeral port), `None`
    /// disables the SSH listener.
    pub ssh_port: Option<u16>,
    /// Telnet listener port, same conventions.
    pub telnet_port: Option<u16>,
    /// Spill store directory; `None` only counts completed sessions
    /// (they appear in [`ServerHandle::join`]'s report as counters and
    /// are not kept).
    pub store_dir: Option<PathBuf>,
    /// Number of worker shards.
    pub workers: usize,
    /// Global concurrent-connection cap; connections beyond it are shed
    /// at accept time.
    pub max_connections: usize,
    /// Concurrent-connection limit per client IP.
    pub per_ip_limit: usize,
    /// Close a connection after this long with no bytes in either
    /// direction (Cowrie's idle timer).
    pub idle_timeout: Duration,
    /// Hard ceiling on total session duration.
    pub session_timeout: Duration,
    /// How long shards keep pumping in-flight sessions after shutdown is
    /// triggered before force-closing them.
    pub drain_timeout: Duration,
    /// Interval between stats log lines; `None` disables the stats thread.
    pub stats_interval: Option<Duration>,
    /// Sensor id stamped into every record.
    pub honeypot_id: u16,
    /// Sensor address stamped into every record.
    pub honeypot_ip: netsim::Ipv4Addr,
    /// Fault-injection / retry config for the collector.
    pub collector: CollectorConfig,
    /// Rows per sealed store segment.
    pub rows_per_segment: usize,
    /// WAL durability policy for the spill store: how often the log
    /// fsyncs. Only meaningful with a `store_dir`.
    pub fsync: FsyncPolicy,
    /// Serving-layer fault injection (off by default).
    pub chaos: ChaosConfig,
    /// Observability HTTP listener port (`Some(0)` picks an ephemeral
    /// port); `None` disables the HTTP plane.
    pub http_port: Option<u16>,
    /// How many completed sessions `/api/sessions/recent` retains.
    pub recent_tail: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            bind: IpAddr::V4(StdIpv4Addr::LOCALHOST),
            ssh_port: Some(0),
            telnet_port: None,
            store_dir: None,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_connections: 1024,
            per_ip_limit: 1024,
            idle_timeout: Duration::from_secs(180),
            session_timeout: Duration::from_secs(600),
            drain_timeout: Duration::from_secs(10),
            stats_interval: Some(Duration::from_secs(10)),
            honeypot_id: 0,
            honeypot_ip: netsim::Ipv4Addr::from_octets(100, 64, 0, 1),
            collector: CollectorConfig::default(),
            rows_per_segment: sessiondb::DEFAULT_ROWS_PER_SEGMENT,
            fsync: FsyncPolicy::default(),
            chaos: ChaosConfig::default(),
            http_port: None,
            recent_tail: 64,
        }
    }
}

impl ServeConfig {
    /// Checks the invariants a server relies on; [`Server::start`] runs
    /// it before binding anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ssh_port.is_none() && self.telnet_port.is_none() {
            return Err(ConfigError::NoListeners);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers { plane: "serve" });
        }
        if self.drain_timeout > self.session_timeout {
            return Err(ConfigError::DrainExceedsSessionTimeout {
                drain: self.drain_timeout,
                session: self.session_timeout,
            });
        }
        // Ephemeral (0) ports never collide; fixed ports must differ.
        let mut fixed: Vec<u16> = [self.ssh_port, self.telnet_port, self.http_port]
            .into_iter()
            .flatten()
            .filter(|&p| p != 0)
            .collect();
        fixed.sort_unstable();
        if let Some(w) = fixed.windows(2).find(|w| w[0] == w[1]) {
            return Err(ConfigError::DuplicatePort { port: w[0] });
        }
        Ok(())
    }
}

/// A config rejected by [`ServeConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Neither an SSH nor a Telnet port was configured.
    NoListeners,
    /// A worker pool was sized to zero threads.
    ZeroWorkers {
        /// Which pool (`"serve"`).
        plane: &'static str,
    },
    /// The drain window cannot exceed the session ceiling — a drain
    /// longer than the longest possible session only delays shutdown.
    DrainExceedsSessionTimeout {
        /// Configured drain timeout.
        drain: Duration,
        /// Configured session timeout.
        session: Duration,
    },
    /// Two listeners were given the same fixed port.
    DuplicatePort {
        /// The colliding port.
        port: u16,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoListeners => write!(f, "no ports configured: nothing to serve"),
            ConfigError::ZeroWorkers { plane } => {
                write!(f, "{plane} worker pool cannot be sized to zero threads")
            }
            ConfigError::DrainExceedsSessionTimeout { drain, session } => write!(
                f,
                "drain timeout ({drain:?}) exceeds session timeout ({session:?})"
            ),
            ConfigError::DuplicatePort { port } => {
                write!(f, "port {port} is assigned to more than one listener")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Live counters, updated lock-free by every thread in the server.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted by the OS (before admission control).
    pub accepted: AtomicU64,
    /// Connections shed because the global cap was reached.
    pub shed_capacity: AtomicU64,
    /// Connections shed because the source IP hit its limit.
    pub shed_per_ip: AtomicU64,
    /// Connections currently being served (gauge).
    pub active: AtomicUsize,
    /// Sessions completed and handed to the collector.
    pub completed: AtomicU64,
    /// Sessions ended by idle/total timeout (subset of `completed`).
    pub timed_out: AtomicU64,
    /// Connections that died on a protocol error (still recorded).
    pub wire_errors: AtomicU64,
    /// Bytes read from clients.
    pub bytes_in: AtomicU64,
    /// Bytes written to clients.
    pub bytes_out: AtomicU64,
    /// Unexpected `accept(2)` errors (fd exhaustion and friends).
    pub accept_errors: AtomicU64,
    /// Connection pumps that panicked and were contained per-connection.
    pub panics_caught: AtomicU64,
    /// Shard threads that died and were respawned by the supervisor.
    pub shards_respawned: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted by the OS.
    pub accepted: u64,
    /// Shed on the global cap.
    pub shed_capacity: u64,
    /// Shed on the per-IP limit.
    pub shed_per_ip: u64,
    /// Currently active connections.
    pub active: usize,
    /// Sessions completed.
    pub completed: u64,
    /// Sessions ended by timeout.
    pub timed_out: u64,
    /// Protocol-error connections.
    pub wire_errors: u64,
    /// Bytes in.
    pub bytes_in: u64,
    /// Bytes out.
    pub bytes_out: u64,
    /// Unexpected accept errors.
    pub accept_errors: u64,
    /// Contained connection panics.
    pub panics_caught: u64,
    /// Shard respawns.
    pub shards_respawned: u64,
}

impl ServeStats {
    /// Copies every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed_capacity: self.shed_capacity.load(Ordering::Relaxed),
            shed_per_ip: self.shed_per_ip.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            // Pairs with the `Release` bump in `Conn::finish`, which
            // comes after the session's slot is released: a reader that
            // sees a session completed also sees its slot free.
            completed: self.completed.load(Ordering::Acquire),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            shards_respawned: self.shards_respawned.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// One-line rendering for the periodic stats log.
    pub fn render(&self) -> String {
        format!(
            "accepted={} active={} completed={} timed_out={} shed={}+{} wire_errors={} in={}B out={}B accept_errors={} panics={} respawns={}",
            self.accepted,
            self.active,
            self.completed,
            self.timed_out,
            self.shed_capacity,
            self.shed_per_ip,
            self.wire_errors,
            self.bytes_in,
            self.bytes_out,
            self.accept_errors,
            self.panics_caught,
            self.shards_respawned,
        )
    }

    /// The counters as a v1 object body. This is the single emitter for
    /// serving counters everywhere they appear — `/api/stats`, the final
    /// [`ServeReport`] document, and the goldens — so the wire shape
    /// cannot fork.
    pub fn api_json(&self) -> hutil::Json {
        use hutil::Json;
        Json::obj([
            ("accepted", Json::u64(self.accepted)),
            ("active", Json::u64(self.active as u64)),
            ("completed", Json::u64(self.completed)),
            ("timed_out", Json::u64(self.timed_out)),
            ("shed_capacity", Json::u64(self.shed_capacity)),
            ("shed_per_ip", Json::u64(self.shed_per_ip)),
            ("wire_errors", Json::u64(self.wire_errors)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
            ("accept_errors", Json::u64(self.accept_errors)),
            ("panics_caught", Json::u64(self.panics_caught)),
            ("shards_respawned", Json::u64(self.shards_respawned)),
        ])
    }
}

/// Admission decision for one accepted socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Connection admitted; a slot and a per-IP token are held.
    Admitted,
    /// Global cap reached.
    OverCapacity,
    /// This IP already holds `per_ip_limit` connections.
    OverPerIpLimit,
}

/// Concurrent-connection accounting shared by every shard.
#[derive(Debug)]
pub struct Gate {
    max_connections: usize,
    per_ip_limit: usize,
    active: AtomicUsize,
    per_ip: parking_lot::Mutex<std::collections::HashMap<u32, usize>>,
}

impl Gate {
    /// A gate enforcing the given limits.
    pub fn new(max_connections: usize, per_ip_limit: usize) -> Self {
        Self {
            max_connections,
            per_ip_limit,
            active: AtomicUsize::new(0),
            per_ip: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Tries to admit a connection from `ip`; on success the caller must
    /// eventually call [`Gate::release`].
    pub fn try_admit(&self, ip: netsim::Ipv4Addr) -> Admission {
        let mut per_ip = self.per_ip.lock();
        if self.active.load(Ordering::Relaxed) >= self.max_connections {
            return Admission::OverCapacity;
        }
        let slot = per_ip.entry(ip.0).or_insert(0);
        if *slot >= self.per_ip_limit {
            return Admission::OverPerIpLimit;
        }
        *slot += 1;
        self.active.fetch_add(1, Ordering::Relaxed);
        Admission::Admitted
    }

    /// Returns the slot taken by [`Gate::try_admit`].
    pub fn release(&self, ip: netsim::Ipv4Addr) {
        let mut per_ip = self.per_ip.lock();
        if let Some(slot) = per_ip.get_mut(&ip.0) {
            *slot = slot.saturating_sub(1);
            if *slot == 0 {
                per_ip.remove(&ip.0);
            }
        }
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently admitted.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// How many distinct IPs currently hold at least one slot. The
    /// per-IP table must not grow with *historical* clients — an entry
    /// whose count hits zero is removed — or eight years of honeypot
    /// uptime leaks one map entry per scanner on the internet.
    pub fn tracked_ips(&self) -> usize {
        self.per_ip.lock().len()
    }

    /// RAII form of [`Gate::try_admit`]: on success the returned permit
    /// releases the slot (and the `active` stats gauge) when dropped —
    /// on *any* path, including a panicking connection pump or a dying
    /// shard thread, so crash containment can never leak gate slots.
    pub fn admit(
        self: &Arc<Self>,
        ip: netsim::Ipv4Addr,
        stats: &Arc<ServeStats>,
    ) -> Result<GatePermit, Admission> {
        match self.try_admit(ip) {
            Admission::Admitted => {
                stats.active.fetch_add(1, Ordering::Relaxed);
                Ok(GatePermit {
                    gate: Arc::clone(self),
                    stats: Arc::clone(stats),
                    ip,
                })
            }
            other => Err(other),
        }
    }
}

/// A held admission slot; dropping it releases the slot exactly once.
#[derive(Debug)]
pub struct GatePermit {
    gate: Arc<Gate>,
    stats: Arc<ServeStats>,
    ip: netsim::Ipv4Addr,
}

impl GatePermit {
    /// The (folded) client IP the slot was granted to.
    pub fn ip(&self) -> netsim::Ipv4Addr {
        self.ip
    }
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        self.gate.release(self.ip);
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_enforces_global_cap() {
        let g = Gate::new(2, 10);
        let ip = netsim::Ipv4Addr(1);
        assert_eq!(g.try_admit(ip), Admission::Admitted);
        assert_eq!(g.try_admit(ip), Admission::Admitted);
        assert_eq!(g.try_admit(ip), Admission::OverCapacity);
        g.release(ip);
        assert_eq!(g.try_admit(ip), Admission::Admitted);
    }

    #[test]
    fn gate_enforces_per_ip_limit() {
        let g = Gate::new(10, 1);
        let a = netsim::Ipv4Addr(1);
        let b = netsim::Ipv4Addr(2);
        assert_eq!(g.try_admit(a), Admission::Admitted);
        assert_eq!(g.try_admit(a), Admission::OverPerIpLimit);
        assert_eq!(g.try_admit(b), Admission::Admitted);
        g.release(a);
        assert_eq!(g.try_admit(a), Admission::Admitted);
        assert_eq!(g.active(), 2);
    }

    #[test]
    fn gate_per_ip_slot_churn_never_leaks_or_wedges() {
        // Rapid connect/disconnect from one IP — the botnet pattern —
        // must neither leak per-IP table entries nor let the count
        // drift (a drift in either direction eventually wedges the IP
        // out permanently or disables its limit).
        let g = Arc::new(Gate::new(64, 4));
        let stats = Arc::new(ServeStats::default());
        let ip = netsim::Ipv4Addr(0x7F00_0001);
        for _ in 0..1_000 {
            let a = g.admit(ip, &stats).expect("slot 1");
            let b = g.admit(ip, &stats).expect("slot 2");
            drop(a);
            let c = g.admit(ip, &stats).expect("slot 2 again");
            drop(c);
            drop(b);
        }
        assert_eq!(g.active(), 0);
        assert_eq!(g.tracked_ips(), 0, "drained IP must leave the table");
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);

        // Same property under cross-thread churn: 8 threads hammering
        // connect/disconnect on two IPs against the per-IP limit.
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let g = Arc::clone(&g);
            let stats = Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                let ip = netsim::Ipv4Addr(0x0A00_0000 | (t % 2));
                let mut admitted = 0u32;
                while admitted < 500 {
                    match g.admit(ip, &stats) {
                        Ok(permit) => {
                            admitted += 1;
                            drop(permit);
                        }
                        Err(Admission::OverPerIpLimit) => std::thread::yield_now(),
                        Err(other) => panic!("unexpected admission failure: {other:?}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.active(), 0);
        assert_eq!(g.tracked_ips(), 0, "churned IPs must leave the table");
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn gate_permit_releases_on_drop_even_across_a_panic() {
        let g = Arc::new(Gate::new(2, 2));
        let stats = Arc::new(ServeStats::default());
        let ip = netsim::Ipv4Addr(7);
        let permit = g.admit(ip, &stats).expect("admitted");
        assert_eq!(g.active(), 1);
        assert_eq!(stats.active.load(Ordering::Relaxed), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = permit;
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(g.active(), 0, "unwinding released the slot");
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);
        // The per-IP slot is free again too.
        assert!(g.admit(ip, &stats).is_ok());
    }

    #[test]
    fn validate_accepts_a_valid_config() {
        let cfg = ServeConfig {
            ssh_port: Some(2222),
            telnet_port: Some(2323),
            http_port: Some(8080),
            workers: 4,
            recent_tail: 32,
            drain_timeout: Duration::from_secs(5),
            session_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_invalid_configs() {
        let invalid = |cfg: ServeConfig| cfg.validate().unwrap_err();
        assert_eq!(
            invalid(ServeConfig {
                ssh_port: None,
                ..ServeConfig::default()
            }),
            ConfigError::NoListeners
        );
        assert_eq!(
            invalid(ServeConfig {
                drain_timeout: Duration::from_secs(700),
                session_timeout: Duration::from_secs(600),
                ..ServeConfig::default()
            }),
            ConfigError::DrainExceedsSessionTimeout {
                drain: Duration::from_secs(700),
                session: Duration::from_secs(600),
            }
        );
        assert_eq!(
            invalid(ServeConfig {
                ssh_port: Some(2222),
                http_port: Some(2222),
                ..ServeConfig::default()
            }),
            ConfigError::DuplicatePort { port: 2222 }
        );
        assert_eq!(
            invalid(ServeConfig {
                ssh_port: Some(2222),
                workers: 0,
                ..ServeConfig::default()
            }),
            ConfigError::ZeroWorkers { plane: "serve" }
        );
        // Ephemeral ports never collide.
        let ephemeral = ServeConfig {
            ssh_port: Some(0),
            telnet_port: Some(0),
            http_port: Some(0),
            ..ServeConfig::default()
        };
        assert_eq!(ephemeral.validate(), Ok(()));
    }

    #[test]
    fn start_rejects_an_invalid_config_before_serving() {
        let cfg = ServeConfig {
            workers: 0,
            stats_interval: None,
            ..ServeConfig::default()
        };
        match Server::start(cfg) {
            Err(ServeError::Config(ConfigError::ZeroWorkers { plane: "serve" })) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(handle) => {
                handle.join().expect("join");
                panic!("a zero-worker server started");
            }
        }
    }

    #[test]
    fn stats_snapshot_api_json_carries_every_counter() {
        let s = ServeStats::default();
        s.accepted.store(9, Ordering::Relaxed);
        s.shards_respawned.store(2, Ordering::Relaxed);
        let doc = s.snapshot().api_json();
        assert_eq!(doc.get("accepted").and_then(hutil::Json::as_i64), Some(9));
        assert_eq!(
            doc.get("shards_respawned").and_then(hutil::Json::as_i64),
            Some(2)
        );
        for key in [
            "active",
            "completed",
            "timed_out",
            "shed_capacity",
            "shed_per_ip",
            "wire_errors",
            "bytes_in",
            "bytes_out",
            "accept_errors",
            "panics_caught",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn stats_snapshot_renders_counters() {
        let s = ServeStats::default();
        s.accepted.store(7, Ordering::Relaxed);
        s.completed.store(5, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 7);
        assert!(snap.render().contains("accepted=7"));
        assert!(snap.render().contains("completed=5"));
    }
}
