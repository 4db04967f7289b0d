//! The live aggregator behind the observability plane.
//!
//! One dedicated thread consumes the sessions the store writer has
//! stored (batches of [`SessionRecord`]s moved over an `mpsc` channel
//! with their dense ids, drained every 10 ms so no send ever has to wake
//! the receiver), folds them into the *same* `honeylab-core`
//! accumulators the post-hoc `analyze` pipeline runs, and periodically
//! publishes an immutable [`ApiSnapshot`] through
//! a [`crate::broadcast::SnapshotCell`]. The same thread serves the
//! HTTP plane (`http::HttpPlane`): it waits on the plane's poller between
//! drains, and endpoints render from whatever snapshot is current —
//! never from the accumulators, a lock, or any serving thread's state.
//!
//! Because the taxonomy and credential accumulators are the identical
//! types `core::AnalysisBuilder` composes, and only stored records reach
//! them, `/api/stats` totals at every publish are *equal by
//! construction* to `honeylab analyze` over the rows stored so far — the
//! acceptance bar for the live plane.
//!
//! Windowed rates (1m / 5m / 1h) come from ring buffers of per-bucket
//! counters: session closes are bucketed by wall-clock second at ingest;
//! admissions and sheds are sampled as deltas of the [`ServeStats`]
//! atomics on each tick, so the accept path needs no modification (and
//! takes no new writes) to be observable.

use crate::broadcast::{EventBus, SnapshotCell, SnapshotPublisher};
use crate::conn::now_unix;
use crate::http::HttpPlane;
use crate::reactor::Poller;
use crate::{ServeStats, StatsSnapshot};
use honeylab_core::logins::{TopPasswords, TopPasswordsAccumulator};
use honeylab_core::taxonomy::{SessionClass, TaxonomyAccumulator, TaxonomyStats};
use honeypot::{Protocol, SessionEndReason, SessionRecord};
use hutil::{api_envelope, Json};
use sessiondb::RecoveryReport;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many passwords `/api/credentials/top` ranks.
pub const TOP_CREDENTIALS: usize = 10;

/// Publish cadence of the snapshot cell.
pub const PUBLISH_TICK: Duration = Duration::from_millis(250);

/// Longest the aggregator waits on its poller between passes over its
/// channel, and the store writer's batching window.
pub(crate) const DRAIN_TICK: Duration = Duration::from_millis(10);

/// Events the serving layer feeds the aggregator. Senders are cheap
/// clones of one `mpsc::Sender`; a dead aggregator (channel closed) is
/// invisible to the store writer — sends just fail silently.
pub enum AggEvent {
    /// Sessions the store writer stored with one commit (synced first
    /// when the fsync policy asks), moved here with their dense ids.
    Sessions(Vec<SessionRecord>),
    /// Crash recovery ran while opening the spill store.
    Recovery(RecoveryReport),
}

// --- windowed rings ------------------------------------------------------

/// Per-bucket counters for one ring slot.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    sessions: u64,
    ssh: u64,
    telnet: u64,
    class: [u64; 4],
    admitted: u64,
    shed: u64,
}

impl Bucket {
    fn clear(&mut self) {
        *self = Bucket::default();
    }
}

/// A fixed-width ring of second-aligned buckets. `head` is the absolute
/// bucket index (`now / bucket_secs`) of the newest slot; advancing past
/// stale slots zeroes them, so a quiet window decays to zero without any
/// timer.
#[derive(Debug)]
struct Ring {
    label: &'static str,
    bucket_secs: i64,
    buckets: Vec<Bucket>,
    head: i64,
}

impl Ring {
    fn new(label: &'static str, bucket_secs: i64, slots: usize, now: i64) -> Self {
        Self {
            label,
            bucket_secs,
            buckets: vec![Bucket::default(); slots],
            head: now.div_euclid(bucket_secs),
        }
    }

    fn window_secs(&self) -> i64 {
        self.bucket_secs * self.buckets.len() as i64
    }

    /// Rotates the ring up to `now`, zeroing every skipped slot.
    fn advance(&mut self, now: i64) {
        let target = now.div_euclid(self.bucket_secs);
        let len = self.buckets.len() as i64;
        if target - self.head >= len {
            // Skipped the whole window: cheaper to clear outright.
            self.buckets.iter_mut().for_each(Bucket::clear);
            self.head = target;
            return;
        }
        while self.head < target {
            self.head += 1;
            let slot = (self.head.rem_euclid(len)) as usize;
            self.buckets[slot].clear();
        }
    }

    fn current(&mut self, now: i64) -> &mut Bucket {
        self.advance(now);
        let len = self.buckets.len() as i64;
        let slot = (self.head.rem_euclid(len)) as usize;
        &mut self.buckets[slot]
    }

    /// Aggregates the window as of `now`. `elapsed_secs` is how long the
    /// server has actually been up: a server 10 seconds old with 20
    /// sessions must report 2.0/s in the 1h window, not 20/3600 — the
    /// rate denominator is the *covered* span, capped at the window.
    fn stats(&mut self, now: i64, elapsed_secs: i64) -> WindowStats {
        self.advance(now);
        let mut w = WindowStats {
            label: self.label,
            seconds: self.window_secs() as u64,
            ..WindowStats::default()
        };
        for b in &self.buckets {
            w.sessions += b.sessions;
            w.ssh += b.ssh;
            w.telnet += b.telnet;
            w.scanning += b.class[0];
            w.scouting += b.class[1];
            w.intrusion += b.class[2];
            w.command_execution += b.class[3];
            w.admitted += b.admitted;
            w.shed += b.shed;
        }
        let covered = (self.window_secs().min(elapsed_secs)).max(1);
        w.sessions_per_sec = w.sessions as f64 / covered as f64;
        w
    }
}

fn class_index(class: SessionClass) -> usize {
    match class {
        SessionClass::Scanning => 0,
        SessionClass::Scouting => 1,
        SessionClass::Intrusion => 2,
        SessionClass::CommandExecution => 3,
    }
}

/// Aggregated counters over one ring window, as published in a
/// snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Window label (`"1m"`, `"5m"`, `"1h"`).
    pub label: &'static str,
    /// Window width in seconds.
    pub seconds: u64,
    /// Sessions closed inside the window.
    pub sessions: u64,
    /// SSH subset of `sessions`.
    pub ssh: u64,
    /// Telnet subset of `sessions`.
    pub telnet: u64,
    /// §3.3 class counts (SSH sessions only, like the paper's taxonomy).
    pub scanning: u64,
    /// Scouting count.
    pub scouting: u64,
    /// Intrusion count.
    pub intrusion: u64,
    /// Command-execution count.
    pub command_execution: u64,
    /// Connections admitted inside the window (sampled counter delta).
    pub admitted: u64,
    /// Connections shed (capacity + per-IP) inside the window.
    pub shed: u64,
    /// `sessions / seconds`.
    pub sessions_per_sec: f64,
}

impl WindowStats {
    /// v1 object body for one window.
    pub fn api_json(&self) -> Json {
        Json::obj([
            ("window", Json::str(self.label)),
            ("seconds", Json::u64(self.seconds)),
            ("sessions", Json::u64(self.sessions)),
            ("sessions_per_sec", Json::Num(self.sessions_per_sec)),
            ("ssh", Json::u64(self.ssh)),
            ("telnet", Json::u64(self.telnet)),
            ("scanning", Json::u64(self.scanning)),
            ("scouting", Json::u64(self.scouting)),
            ("intrusion", Json::u64(self.intrusion)),
            ("command_execution", Json::u64(self.command_execution)),
            ("admitted", Json::u64(self.admitted)),
            ("shed", Json::u64(self.shed)),
        ])
    }
}

// --- session summaries ---------------------------------------------------

/// A bounded, dashboard-sized view of one completed session; what
/// `/api/sessions/recent` lists and what an SSE `session` event carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Record id.
    pub session_id: u64,
    /// `"ssh"` or `"telnet"`.
    pub protocol: &'static str,
    /// §3.3 class label.
    pub class: &'static str,
    /// Dotted-quad client address.
    pub client_ip: String,
    /// Client source port.
    pub client_port: u16,
    /// Session open (unix seconds).
    pub start_unix: i64,
    /// Session close (unix seconds).
    pub end_unix: i64,
    /// `"client_close"` or `"timeout"`.
    pub end_reason: &'static str,
    /// Client version banner, if one was read.
    pub client_version: Option<String>,
    /// Credential attempts.
    pub login_attempts: u64,
    /// Whether any attempt succeeded.
    pub login_succeeded: bool,
    /// Commands executed.
    pub commands: u64,
    /// Download URIs referenced.
    pub uris: u64,
}

impl SessionSummary {
    /// Summarises one record.
    pub fn of(rec: &SessionRecord) -> Self {
        Self {
            session_id: rec.session_id,
            protocol: match rec.protocol {
                Protocol::Ssh => "ssh",
                Protocol::Telnet => "telnet",
            },
            class: SessionClass::of(rec).label(),
            client_ip: rec.client_ip.to_string(),
            client_port: rec.client_port,
            start_unix: rec.start.unix(),
            end_unix: rec.end.unix(),
            end_reason: match rec.end_reason {
                SessionEndReason::ClientClose => "client_close",
                SessionEndReason::Timeout => "timeout",
            },
            client_version: rec.client_version.clone(),
            login_attempts: rec.logins.len() as u64,
            login_succeeded: rec.login_succeeded(),
            commands: rec.commands.len() as u64,
            uris: rec.uris.len() as u64,
        }
    }

    /// v1 object body for one session.
    pub fn api_json(&self) -> Json {
        Json::obj([
            ("session_id", Json::u64(self.session_id)),
            ("protocol", Json::str(self.protocol)),
            ("class", Json::str(self.class)),
            ("client_ip", Json::str(&self.client_ip)),
            ("client_port", Json::u64(u64::from(self.client_port))),
            ("start_unix", Json::i64(self.start_unix)),
            ("end_unix", Json::i64(self.end_unix)),
            ("end_reason", Json::str(self.end_reason)),
            (
                "client_version",
                match &self.client_version {
                    Some(v) => Json::str(v),
                    None => Json::Null,
                },
            ),
            ("login_attempts", Json::u64(self.login_attempts)),
            ("login_succeeded", Json::Bool(self.login_succeeded)),
            ("commands", Json::u64(self.commands)),
            ("uris", Json::u64(self.uris)),
        ])
    }
}

// --- the published snapshot ----------------------------------------------

/// SSE fan-out health, as carried in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SseStats {
    /// Live `/events` subscribers.
    pub subscribers: u64,
    /// Frames lost to slow subscribers since startup.
    pub dropped_frames: u64,
}

/// The immutable document the aggregator publishes and every HTTP
/// endpoint renders from. Readers acquire it as an `Arc` through the
/// lock-free snapshot cell; a reader holding an old generation sees a
/// consistent (if slightly stale) view.
#[derive(Debug, Clone)]
pub struct ApiSnapshot {
    /// When this snapshot was published (unix seconds).
    pub now_unix: i64,
    /// When the server started (unix seconds).
    pub started_unix: i64,
    /// Serving counters at publish time.
    pub counters: StatsSnapshot,
    /// Cumulative §3.3 taxonomy over every session closed so far —
    /// byte-identical to post-hoc `analyze --report taxonomy`.
    pub taxonomy: TaxonomyStats,
    /// Top intrusion credentials so far (Fig. 10 accumulator).
    pub credentials: TopPasswords,
    /// 1m / 5m / 1h windows.
    pub windows: [WindowStats; 3],
    /// Most recent completed sessions, newest first (bounded tail).
    pub recent: Vec<SessionSummary>,
    /// SSE fan-out health.
    pub sse: SseStats,
    /// What crash recovery did to the spill store at startup; `None`
    /// without a store.
    pub recovery: Option<RecoveryReport>,
    /// Whether graceful shutdown has been triggered.
    pub shutting_down: bool,
}

impl ApiSnapshot {
    /// An empty snapshot for server start, before the first publish.
    pub fn empty(now: i64) -> Self {
        Self {
            now_unix: now,
            started_unix: now,
            counters: StatsSnapshot::default(),
            taxonomy: TaxonomyStats::default(),
            credentials: TopPasswords {
                passwords: Vec::new(),
                by_month: Default::default(),
            },
            windows: [
                WindowStats {
                    label: "1m",
                    seconds: 60,
                    ..Default::default()
                },
                WindowStats {
                    label: "5m",
                    seconds: 300,
                    ..Default::default()
                },
                WindowStats {
                    label: "1h",
                    seconds: 3600,
                    ..Default::default()
                },
            ],
            recent: Vec::new(),
            sse: SseStats::default(),
            recovery: None,
            shutting_down: false,
        }
    }

    /// Uptime at publish time.
    pub fn uptime_secs(&self) -> i64 {
        (self.now_unix - self.started_unix).max(0)
    }

    /// `GET /api/stats` document (envelope kind `"stats"`).
    pub fn stats_json(&self) -> Json {
        let body = Json::obj([
            ("now_unix", Json::i64(self.now_unix)),
            ("started_unix", Json::i64(self.started_unix)),
            ("uptime_secs", Json::i64(self.uptime_secs())),
            ("counters", self.counters.api_json()),
            (
                "taxonomy",
                honeylab_core::api::taxonomy_json(&self.taxonomy),
            ),
            (
                "windows",
                Json::arr(self.windows.iter().map(WindowStats::api_json)),
            ),
        ]);
        api_envelope("stats", body)
    }

    /// `GET /api/sessions/recent` document (kind `"sessions_recent"`).
    pub fn recent_json(&self) -> Json {
        let body = Json::obj([
            ("count", Json::u64(self.recent.len() as u64)),
            (
                "sessions",
                Json::arr(self.recent.iter().map(SessionSummary::api_json)),
            ),
        ]);
        api_envelope("sessions_recent", body)
    }

    /// `GET /api/credentials/top` document (kind `"credentials_top"`).
    pub fn credentials_json(&self) -> Json {
        api_envelope(
            "credentials_top",
            honeylab_core::api::passwords_json(&self.credentials),
        )
    }

    /// `GET /api/health` document (kind `"health"`).
    pub fn health_json(&self) -> Json {
        let c = &self.counters;
        let status = if self.shutting_down {
            "draining"
        } else if c.accept_errors > 0 || c.shards_respawned > 0 {
            "degraded"
        } else {
            "ok"
        };
        let wal = match &self.recovery {
            None => Json::Null,
            Some(r) => Json::obj([
                ("clean", Json::Bool(r.is_clean())),
                ("wal_found", Json::Bool(r.wal_found)),
                ("wal_frames", Json::u64(r.wal_frames)),
                ("wal_bytes_lost", Json::u64(r.wal_bytes_lost)),
                ("recovered_rows", Json::u64(r.recovered_rows)),
                ("tmp_removed", Json::u64(r.tmp_removed as u64)),
            ]),
        };
        let body = Json::obj([
            ("status", Json::str(status)),
            ("uptime_secs", Json::i64(self.uptime_secs())),
            ("active_connections", Json::u64(c.active as u64)),
            ("accept_errors", Json::u64(c.accept_errors)),
            ("panics_caught", Json::u64(c.panics_caught)),
            ("shards_respawned", Json::u64(c.shards_respawned)),
            (
                "sse",
                Json::obj([
                    ("subscribers", Json::u64(self.sse.subscribers)),
                    ("dropped_frames", Json::u64(self.sse.dropped_frames)),
                ]),
            ),
            ("recovery", wal),
        ]);
        api_envelope("health", body)
    }

    /// Deterministic sample snapshot backing the `docs/api_v1` goldens
    /// for the live endpoints (see `core::api::samples` for the analyze
    /// document). Fixed values only — no clocks.
    pub fn sample() -> Self {
        let mut state = AggregatorState::new(1_700_000_000, 3);
        let mut rec = sample_record(1, 1_700_000_100);
        state.push_session(&rec);
        rec.session_id = 2;
        rec.logins.clear();
        rec.commands.clear();
        rec.end = hutil::DateTime::from_unix(1_700_000_130);
        state.push_session(&rec);
        let counters = StatsSnapshot {
            accepted: 2,
            completed: 2,
            bytes_in: 4096,
            bytes_out: 16384,
            ..StatsSnapshot::default()
        };
        state.absorb_counter_deltas(1_700_000_130, &counters);
        let mut snap = state.snapshot(1_700_000_131, counters, SseStats::default());
        snap.sse = SseStats {
            subscribers: 1,
            dropped_frames: 0,
        };
        snap.recovery = Some(RecoveryReport::default());
        snap
    }
}

/// The fixed record behind [`ApiSnapshot::sample`] and the SSE golden.
pub fn sample_record(id: u64, end_unix: i64) -> SessionRecord {
    SessionRecord {
        session_id: id,
        honeypot_id: 1,
        honeypot_ip: netsim::Ipv4Addr::from_octets(100, 64, 0, 1),
        client_ip: netsim::Ipv4Addr::from_octets(203, 0, 113, 9),
        client_port: 53811,
        protocol: Protocol::Ssh,
        start: hutil::DateTime::from_unix(end_unix - 20),
        end: hutil::DateTime::from_unix(end_unix),
        end_reason: SessionEndReason::ClientClose,
        client_version: Some("SSH-2.0-libssh2_1.10.0".into()),
        logins: vec![honeypot::LoginAttempt {
            username: "root".into(),
            password: "123456".into(),
            success: true,
        }],
        commands: vec![honeypot::CommandRecord {
            input: "uname -a".into(),
            known: true,
        }],
        uris: Vec::new(),
        file_events: Vec::new(),
    }
}

/// The SSE `session` event document for one closed session.
pub fn session_event_json(summary: &SessionSummary) -> Json {
    api_envelope("session", summary.api_json())
}

/// The SSE `recovery` event document.
pub fn recovery_event_json(r: &RecoveryReport) -> Json {
    api_envelope(
        "recovery",
        Json::obj([
            ("clean", Json::Bool(r.is_clean())),
            ("wal_found", Json::Bool(r.wal_found)),
            ("wal_frames", Json::u64(r.wal_frames)),
            ("wal_bytes_lost", Json::u64(r.wal_bytes_lost)),
            ("recovered_rows", Json::u64(r.recovered_rows)),
            ("tmp_removed", Json::u64(r.tmp_removed as u64)),
        ]),
    )
}

// --- the aggregator ------------------------------------------------------

/// Pure aggregation state; the thread around it is just a channel pump.
/// Kept separate so tests can drive it with explicit clocks.
pub struct AggregatorState {
    started_unix: i64,
    taxonomy: TaxonomyAccumulator,
    credentials: TopPasswordsAccumulator,
    rings: [Ring; 3],
    recent: VecDeque<SessionSummary>,
    recent_cap: usize,
    last_admitted: u64,
    last_shed: u64,
    recovery: Option<RecoveryReport>,
    shutting_down: bool,
}

impl AggregatorState {
    /// Fresh state as of `now`, keeping a `recent_cap`-deep tail.
    pub fn new(now: i64, recent_cap: usize) -> Self {
        Self {
            started_unix: now,
            taxonomy: TaxonomyAccumulator::new(),
            credentials: TopPasswordsAccumulator::new(TOP_CREDENTIALS),
            rings: [
                Ring::new("1m", 1, 60, now),
                Ring::new("5m", 5, 60, now),
                Ring::new("1h", 60, 60, now),
            ],
            recent: VecDeque::with_capacity(recent_cap),
            recent_cap,
            last_admitted: 0,
            last_shed: 0,
            recovery: None,
            shutting_down: false,
        }
    }

    /// Folds one closed session in (accumulators, rings, recent tail)
    /// and returns its summary for SSE fan-out.
    pub fn push_session(&mut self, rec: &SessionRecord) -> SessionSummary {
        self.taxonomy.push(rec);
        self.credentials.push(rec);
        let summary = SessionSummary::of(rec);
        let now = summary.end_unix;
        let ssh = matches!(rec.protocol, Protocol::Ssh);
        let ci = class_index(SessionClass::of(rec));
        for ring in &mut self.rings {
            let b = ring.current(now);
            b.sessions += 1;
            if ssh {
                b.ssh += 1;
                b.class[ci] += 1;
            } else {
                b.telnet += 1;
            }
        }
        if self.recent.len() == self.recent_cap {
            self.recent.pop_back();
        }
        self.recent.push_front(summary.clone());
        summary
    }

    /// Records what startup recovery found.
    pub fn set_recovery(&mut self, report: RecoveryReport) {
        self.recovery = Some(report);
    }

    /// Marks the snapshot as draining.
    pub fn set_shutting_down(&mut self) {
        self.shutting_down = true;
    }

    /// Samples admission/shed counter deltas into the current buckets.
    /// Called on every tick; the accept path itself is never touched.
    pub fn absorb_counter_deltas(&mut self, now: i64, counters: &StatsSnapshot) {
        let admitted_total = counters.accepted - counters.shed_capacity - counters.shed_per_ip;
        let shed_total = counters.shed_capacity + counters.shed_per_ip;
        let d_admitted = admitted_total.saturating_sub(self.last_admitted);
        let d_shed = shed_total.saturating_sub(self.last_shed);
        self.last_admitted = admitted_total;
        self.last_shed = shed_total;
        if d_admitted == 0 && d_shed == 0 {
            // Still rotate the rings so quiet periods decay.
            for ring in &mut self.rings {
                ring.advance(now);
            }
            return;
        }
        for ring in &mut self.rings {
            let b = ring.current(now);
            b.admitted += d_admitted;
            b.shed += d_shed;
        }
    }

    /// Builds the publishable snapshot as of `now`.
    pub fn snapshot(&mut self, now: i64, counters: StatsSnapshot, sse: SseStats) -> ApiSnapshot {
        let elapsed = (now - self.started_unix).max(1);
        ApiSnapshot {
            now_unix: now,
            started_unix: self.started_unix,
            counters,
            taxonomy: self.taxonomy.snapshot(),
            credentials: self.credentials.snapshot(),
            windows: [
                self.rings[0].stats(now, elapsed),
                self.rings[1].stats(now, elapsed),
                self.rings[2].stats(now, elapsed),
            ],
            recent: self.recent.iter().cloned().collect(),
            sse,
            recovery: self.recovery.clone(),
            shutting_down: self.shutting_down,
        }
    }
}

/// Handle to a running aggregator thread.
pub struct AggregatorHandle {
    /// Event intake; the store writer holds a clone. Dropping every
    /// sender stops the thread (after a final publish).
    pub tx: Sender<AggEvent>,
    /// The snapshot cell the HTTP plane renders from.
    pub cell: Arc<SnapshotCell<ApiSnapshot>>,
    /// The SSE fan-out bus.
    pub bus: Arc<EventBus>,
    thread: JoinHandle<()>,
}

impl AggregatorHandle {
    /// Waits for the aggregator thread to exit (all senders dropped).
    pub fn join(self) -> std::thread::Result<()> {
        drop(self.tx);
        self.thread.join()
    }
}

/// Spawns the aggregator thread, which waits on `poller` and serves the
/// HTTP plane on `http` (a bound, nonblocking listener), if any.
///
/// `stats_interval` preserves the legacy periodic stderr stats line
/// (the aggregator replaces the old dedicated stats thread); `None`
/// disables the line but not the snapshot publishing.
pub fn spawn_aggregator(
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    recent_cap: usize,
    stats_interval: Option<Duration>,
    poller: Poller,
    http: Option<TcpListener>,
) -> AggregatorHandle {
    let (tx, rx) = std::sync::mpsc::channel::<AggEvent>();
    let now = now_unix();
    let (cell, publisher) = SnapshotCell::new(Arc::new(ApiSnapshot::empty(now)));
    let bus = Arc::new(EventBus::new());
    let thread = {
        let plane = HttpPlane::new(poller, http, Arc::clone(&cell), Arc::clone(&bus));
        let bus = Arc::clone(&bus);
        std::thread::Builder::new()
            .name("serve-aggregator".into())
            .spawn(move || {
                aggregator_loop(
                    &rx,
                    publisher,
                    plane,
                    &bus,
                    &stats,
                    &shutdown,
                    recent_cap,
                    stats_interval,
                )
            })
            .expect("spawn aggregator thread")
    };
    AggregatorHandle {
        tx,
        cell,
        bus,
        thread,
    }
}

#[allow(clippy::too_many_arguments)]
fn aggregator_loop(
    rx: &Receiver<AggEvent>,
    mut publisher: SnapshotPublisher<ApiSnapshot>,
    mut plane: HttpPlane,
    bus: &EventBus,
    stats: &ServeStats,
    shutdown: &AtomicBool,
    recent_cap: usize,
    stats_interval: Option<Duration>,
) {
    // The wall clock is read exactly once, to anchor the epoch; every
    // subsequent "now" is the anchor plus a monotonic delta. An NTP step
    // (or a VM pause resuming with a jumped wall clock) can therefore
    // never rewind the rings or inflate uptime — window rates stay
    // correct because the deltas come from `Instant`, which the OS
    // guarantees only moves forward.
    let started_wall = now_unix();
    let started_mono = Instant::now();
    let mono_now = move || started_wall + started_mono.elapsed().as_secs() as i64;
    let mut state = AggregatorState::new(started_wall, recent_cap);
    let mut last_publish = Instant::now();
    let mut last_line = Instant::now();
    loop {
        // Block until a dashboard socket is ready or the drain tick
        // passes (without an HTTP listener the poller is empty and this
        // is a plain sleep), then answer the ready sockets.
        plane.wait(DRAIN_TICK);
        plane.serve_ready();
        // Drain whatever the store writer queued since the last pass.
        // The receiver never blocks, so a send never has to wake it.
        let mut framed = false;
        let disconnected = loop {
            match rx.try_recv() {
                Ok(AggEvent::Sessions(recs)) => {
                    for rec in &recs {
                        let summary = state.push_session(rec);
                        // Frames go to subscribers registered when the
                        // session is folded; with none, skip rendering.
                        if bus.subscribers() > 0 {
                            bus.publish(crate::sse::frame(
                                "session",
                                &session_event_json(&summary).render(),
                            ));
                            framed = true;
                        }
                    }
                }
                Ok(AggEvent::Recovery(report)) => {
                    bus.publish(crate::sse::frame(
                        "recovery",
                        &recovery_event_json(&report).render(),
                    ));
                    state.set_recovery(report);
                    framed = true;
                }
                Err(TryRecvError::Empty) => break false,
                Err(TryRecvError::Disconnected) => break true,
            }
        };
        if shutdown.load(Ordering::Relaxed) {
            state.set_shutting_down();
            plane.drain();
        }
        if disconnected || last_publish.elapsed() >= PUBLISH_TICK {
            last_publish = Instant::now();
            let now = mono_now();
            let counters = stats.snapshot();
            state.absorb_counter_deltas(now, &counters);
            let sse = SseStats {
                subscribers: bus.subscribers() as u64,
                dropped_frames: bus.dropped_frames(),
            };
            publisher.publish(Arc::new(state.snapshot(now, counters, sse)));
            plane.sweep(last_publish);
        }
        // Frames rendered in this pass leave in this pass.
        if framed {
            plane.pump_streams();
        }
        if let Some(interval) = stats_interval {
            if last_line.elapsed() >= interval {
                last_line = Instant::now();
                eprintln!("[serve] {}", stats.snapshot().render());
            }
        }
        if disconnected {
            // The final snapshot above covers every ingested session;
            // dropping the plane closes whatever dashboard sockets remain.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_at(id: u64, end: i64, proto: Protocol, logins: usize, commands: usize) -> SessionRecord {
        let mut r = sample_record(id, end);
        r.protocol = proto;
        r.logins.truncate(logins);
        r.commands.truncate(commands);
        r
    }

    #[test]
    fn rings_window_and_decay() {
        let mut state = AggregatorState::new(1000, 8);
        // Two sessions at t=1000, one at t=1030.
        state.push_session(&rec_at(1, 1000, Protocol::Ssh, 1, 1));
        state.push_session(&rec_at(2, 1000, Protocol::Telnet, 0, 0));
        state.push_session(&rec_at(3, 1030, Protocol::Ssh, 0, 0));
        let snap = state.snapshot(1030, StatsSnapshot::default(), SseStats::default());
        let w1m = snap.windows[0];
        assert_eq!(w1m.sessions, 3);
        assert_eq!(w1m.ssh, 2);
        assert_eq!(w1m.telnet, 1);
        assert_eq!(w1m.command_execution, 1);
        assert_eq!(w1m.scanning, 1);
        // 65 seconds later the t=1000 pair fell out of the 1m window but
        // not the 5m window.
        let snap = state.snapshot(1065, StatsSnapshot::default(), SseStats::default());
        assert_eq!(snap.windows[0].sessions, 1);
        assert_eq!(snap.windows[1].sessions, 3);
        // An hour later everything decayed.
        let snap = state.snapshot(1000 + 3700, StatsSnapshot::default(), SseStats::default());
        assert_eq!(snap.windows[2].sessions, 0);
    }

    #[test]
    fn young_server_rates_use_elapsed_not_window() {
        // 20 sessions in the first 10 seconds of uptime: every window
        // must report 2.0/s, not sessions/window_secs (which would make
        // the 1h window claim 20/3600 ≈ 0.005/s).
        let mut state = AggregatorState::new(1000, 8);
        for id in 0..20 {
            state.push_session(&rec_at(id, 1005, Protocol::Ssh, 1, 1));
        }
        let snap = state.snapshot(1010, StatsSnapshot::default(), SseStats::default());
        for w in &snap.windows {
            assert_eq!(w.sessions, 20);
            assert!(
                (w.sessions_per_sec - 2.0).abs() < 1e-9,
                "{} window rate {} != 2.0",
                w.label,
                w.sessions_per_sec
            );
        }
        // Once uptime exceeds the window, the denominator is the window.
        let snap = state.snapshot(1000 + 7200, StatsSnapshot::default(), SseStats::default());
        assert_eq!(snap.windows[2].sessions, 0, "1h window decayed");
        assert_eq!(snap.windows[2].sessions_per_sec, 0.0);
    }

    #[test]
    fn snapshot_at_start_instant_never_divides_by_zero() {
        let mut state = AggregatorState::new(1000, 8);
        state.push_session(&rec_at(1, 1000, Protocol::Ssh, 1, 1));
        let snap = state.snapshot(1000, StatsSnapshot::default(), SseStats::default());
        assert!(snap.windows[0].sessions_per_sec.is_finite());
        assert!((snap.windows[0].sessions_per_sec - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_taxonomy_matches_core_accumulator() {
        let recs = [
            rec_at(1, 1000, Protocol::Ssh, 1, 1),
            rec_at(2, 1001, Protocol::Ssh, 1, 0),
            rec_at(3, 1002, Protocol::Ssh, 0, 0),
            rec_at(4, 1003, Protocol::Telnet, 0, 0),
        ];
        let mut state = AggregatorState::new(1000, 8);
        let mut oracle = TaxonomyAccumulator::new();
        for r in &recs {
            state.push_session(r);
            oracle.push(r);
        }
        let snap = state.snapshot(1004, StatsSnapshot::default(), SseStats::default());
        assert_eq!(snap.taxonomy, oracle.finish());
    }

    #[test]
    fn counter_deltas_land_in_windows() {
        let mut state = AggregatorState::new(1000, 8);
        let mut counters = StatsSnapshot {
            accepted: 10,
            shed_capacity: 2,
            ..StatsSnapshot::default()
        };
        state.absorb_counter_deltas(1001, &counters);
        counters.accepted = 15;
        counters.shed_per_ip = 3;
        state.absorb_counter_deltas(1002, &counters);
        let snap = state.snapshot(1002, counters, SseStats::default());
        assert_eq!(snap.windows[0].admitted, 10); // 15 accepted - 5 shed
        assert_eq!(snap.windows[0].shed, 5);
        // Deltas are exactly-once: re-absorbing the same totals adds 0.
        state.absorb_counter_deltas(1003, &counters);
        let snap = state.snapshot(1003, counters, SseStats::default());
        assert_eq!(snap.windows[0].admitted, 10);
    }

    #[test]
    fn recent_tail_is_bounded_and_newest_first() {
        let mut state = AggregatorState::new(1000, 3);
        for id in 1..=5 {
            state.push_session(&rec_at(id, 1000 + id as i64, Protocol::Ssh, 1, 1));
        }
        let snap = state.snapshot(1010, StatsSnapshot::default(), SseStats::default());
        let ids: Vec<u64> = snap.recent.iter().map(|s| s.session_id).collect();
        assert_eq!(ids, vec![5, 4, 3]);
    }

    #[test]
    fn sample_snapshot_documents_are_valid_v1() {
        let snap = ApiSnapshot::sample();
        for doc in [
            snap.stats_json(),
            snap.recent_json(),
            snap.credentials_json(),
            snap.health_json(),
        ] {
            assert_eq!(
                doc.get("honeylab_api").and_then(Json::as_str),
                Some(hutil::API_VERSION)
            );
            assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        }
        let stats = snap.stats_json();
        let data = stats.get("data").unwrap();
        assert_eq!(
            data.get("taxonomy")
                .and_then(|t| t.get("total_sessions"))
                .and_then(Json::as_i64),
            Some(2)
        );
        let health = snap.health_json();
        assert_eq!(
            health
                .get("data")
                .and_then(|d| d.get("status"))
                .and_then(Json::as_str),
            Some("ok")
        );
    }

    #[test]
    fn aggregator_thread_publishes_and_exits() {
        let stats = Arc::new(ServeStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = spawn_aggregator(
            Arc::clone(&stats),
            shutdown,
            8,
            None,
            Poller::new().unwrap(),
            None,
        );
        let sub = handle.bus.subscribe();
        handle
            .tx
            .send(AggEvent::Sessions(vec![sample_record(7, now_unix())]))
            .unwrap();
        // The final publish on disconnect folds the session in.
        let cell = Arc::clone(&handle.cell);
        handle.join().unwrap();
        let snap = cell.load();
        assert_eq!(snap.taxonomy.total_sessions, 1);
        assert_eq!(snap.recent[0].session_id, 7);
        let frame = sub.try_next().expect("session frame fanned out");
        assert!(frame.starts_with("event: session\n"));
    }

    #[test]
    fn sessions_folded_without_subscribers_count_and_later_ones_stream() {
        let stats = Arc::new(ServeStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = spawn_aggregator(
            Arc::clone(&stats),
            shutdown,
            8,
            None,
            Poller::new().unwrap(),
            None,
        );
        let send = |id: u64| {
            handle
                .tx
                .send(AggEvent::Sessions(vec![sample_record(id, now_unix())]))
                .unwrap();
        };
        for id in 1..=3 {
            send(id);
        }
        // Folded with nobody listening: the taxonomy still counts them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.cell.load().taxonomy.total_sessions < 3 {
            assert!(
                Instant::now() < deadline,
                "unsubscribed sessions never published"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let sub = handle.bus.subscribe();
        for id in 4..=5 {
            send(id);
        }
        let cell = Arc::clone(&handle.cell);
        handle.join().unwrap();
        assert_eq!(cell.load().taxonomy.total_sessions, 5);
        let mut streamed = Vec::new();
        while let Some(frame) = sub.try_next() {
            assert!(frame.starts_with("event: session\n"));
            let data: Vec<&str> = frame
                .lines()
                .filter_map(|l| l.strip_prefix("data: "))
                .collect();
            let doc = Json::parse(&data.join("\n")).unwrap();
            let id = doc.get("data").and_then(|d| d.get("session_id"));
            streamed.push(id.and_then(Json::as_i64).unwrap());
        }
        assert_eq!(streamed, vec![4, 5], "exactly the later sessions, in order");
    }
}
