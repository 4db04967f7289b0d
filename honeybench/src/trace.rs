//! Spans and the traced in-memory replay.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the layers themselves carry no instrumentation). Each span keeps its
//! name, start, end, parent span, session id and the allocations made
//! while it was open; a layer's self time is its span's duration minus
//! the time its child spans cover, and likewise for allocations.
//!
//! [`replay_live`] pushes a live workload's session plans through the
//! chain a reactor shard runs per session — `sshwire` server machine
//! (with `honeypot::shell` under it), record conversion, the aggregator
//! handoff, `honeypot::collector` — plus the dashboard render, the WAL
//! and the segment seal, all in memory on one thread.

use crate::{median, quantile, Outcome};
use honeypot::shell::{NullStore, RemoteStore, Shell};
use honeypot::{
    AuthPolicy, Collector, CollectorConfig, CommandRecord, LoginAttempt, Protocol,
    SessionEndReason, SessionRecord,
};
use hutil::DateTime;
use serve::barrage::SessionPlan;
use serve::stats::{session_event_json, AggregatorState, SseStats};
use serve::StatsSnapshot;
use sessiondb::{FsyncPolicy, SegmentWriter, StoreOptions, StoreWriter, WalWriter};
use sshwire::{AuthOutcome, ClientScript, ServerHandler, SshClient, SshServer};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Session the span belongs to.
    pub session: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    session: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        session: 0,
    });
}

/// Starts recording on this thread, with room for `capacity` spans
/// reserved up front so recording itself allocates nothing.
pub fn start(capacity: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.epoch = Instant::now();
        t.spans = Vec::with_capacity(capacity);
        t.stack = Vec::with_capacity(64);
    });
}

/// Stops recording and returns the spans.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = false;
        t.stack.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Tags subsequent spans with a session id.
pub fn set_session(id: u64) {
    TRACER.with(|t| t.borrow_mut().session = id);
}

/// Runs `f` inside a span named `name` (a no-op wrapper when not
/// recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let idx = t.spans.len() as u32;
        let span = Span {
            name,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.stack.last().copied(),
            session: t.session,
            allocs: crate::allocs(),
        };
        t.spans.push(span);
        t.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            let allocs = crate::allocs();
            let s = &mut t.spans[idx as usize];
            s.end_ns = end;
            s.allocs = allocs - s.allocs;
            t.stack.pop();
        });
    }
    out
}

/// Self time and allocations of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct Stat {
    /// Spans recorded.
    pub count: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Σ self allocations.
    pub self_allocs: u64,
    /// Each span's self time, ns (for percentiles).
    pub each_ns: Vec<f64>,
}

impl Stat {
    /// Mean self time per span, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Self-time quantile, µs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.each_ns, q) / 1e3
    }
}

/// Per-name self statistics over a span list.
pub fn self_stats(spans: &[Span]) -> HashMap<&'static str, Stat> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: HashMap<&'static str, Stat> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.self_ns += own;
        st.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        st.each_ns.push(own as f64);
    }
    out
}

/// Appends spans to `path` as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{},\"allocs\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.session, s.allocs
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

// --- the live chain --------------------------------------------------------

/// `serve::LiveHandler`'s policy and shell, with a span around `exec`.
/// Mirrored rather than wrapped because the shell's observations (URIs,
/// file events) must be read back to build the session record, and
/// `LiveHandler` keeps its shell private.
struct TracedHandler<'s> {
    policy: AuthPolicy,
    shell: Shell<'s>,
    commands: Vec<CommandRecord>,
}

impl ServerHandler for TracedHandler<'_> {
    fn auth(&mut self, username: &str, password: Option<&str>) -> AuthOutcome {
        match password {
            Some(pw) if self.policy.accept(username, pw) => AuthOutcome::Accept,
            _ => AuthOutcome::Reject,
        }
    }

    fn exec(&mut self, command: &str) -> (Vec<u8>, u32) {
        span("shell.exec", || {
            let outcome = self.shell.exec_line(command);
            self.commands.push(CommandRecord {
                input: command.to_string(),
                known: outcome.known,
            });
            let status = if outcome.known { 0 } else { 127 };
            (outcome.output.into_bytes(), status)
        })
    }
}

/// Runs one planned session in memory; returns the server machine and
/// the bytes it moved in both directions.
fn run_session<'s>(
    plan: &SessionPlan,
    seq: u64,
    remote: &'s dyn RemoteStore,
) -> Result<(SshServer<TracedHandler<'s>>, u64), String> {
    let mut cookie = [0u8; 16];
    cookie[..8].copy_from_slice(&seq.to_le_bytes());
    cookie[8..].copy_from_slice(&(!seq).to_le_bytes());
    let mut server = span("sshwire", || {
        SshServer::new(
            TracedHandler {
                policy: AuthPolicy::default(),
                shell: Shell::new(remote),
                commands: Vec::new(),
            },
            sshwire::SERVER_VERSION_DEFAULT,
            cookie,
            seq.to_le_bytes().to_vec(),
        )
    });
    let banner = span("sshwire", || server.take_output());
    let mut bytes = banner.len() as u64;
    if plan.banner_only {
        // A scanner reads the banner and hangs up.
        return Ok((server, bytes));
    }
    let mut client = span("client", || {
        let pws: Vec<&str> = plan.passwords.iter().map(String::as_str).collect();
        let cmds: Vec<&str> = plan.commands.iter().map(String::as_str).collect();
        let mut script = ClientScript::new(&plan.username, &pws, &cmds);
        script.hangup_after_auth = plan.hangup_after_auth;
        SshClient::new(script, seq.to_le_bytes().to_vec())
    });
    span("client", || client.input(&banner)).map_err(|e| format!("client: {e}"))?;
    for _ in 0..100_000 {
        let to_server = span("client", || client.take_output());
        let to_client = span("sshwire", || server.take_output());
        if to_server.is_empty() && to_client.is_empty() {
            break;
        }
        if !to_server.is_empty() {
            bytes += to_server.len() as u64;
            span("sshwire", || server.input(&to_server)).map_err(|e| format!("server: {e}"))?;
        }
        if !to_client.is_empty() {
            bytes += to_client.len() as u64;
            span("client", || client.input(&to_client)).map_err(|e| format!("client: {e}"))?;
        }
    }
    if !client.is_closed() {
        return Err(format!("session {seq} did not complete its dialogue"));
    }
    Ok((server, bytes))
}

/// The record `serve::conn::Conn::finish` builds for a finished SSH
/// connection.
fn finish_record(server: SshServer<TracedHandler<'_>>, seq: u64, start_unix: i64) -> SessionRecord {
    let client_version = server.peer_version().map(str::to_string);
    let logins = server
        .auth_log()
        .iter()
        .map(|(user, pass, ok)| LoginAttempt {
            username: user.clone(),
            password: pass.clone().unwrap_or_default(),
            success: *ok,
        })
        .collect();
    let mut handler = server.into_handler();
    let (uris, file_events) = handler.shell.take_observations();
    SessionRecord {
        session_id: 0,
        honeypot_id: 0,
        honeypot_ip: netsim::Ipv4Addr::from_octets(100, 64, 0, 1),
        client_ip: netsim::Ipv4Addr::from_octets(127, 0, 0, 1),
        client_port: (seq % 64_512 + 1024) as u16,
        protocol: Protocol::Ssh,
        start: DateTime::from_unix(start_unix),
        end: DateTime::from_unix(start_unix),
        end_reason: SessionEndReason::ClientClose,
        client_version,
        logins,
        commands: std::mem::take(&mut handler.commands),
        uris,
        file_events,
    }
}

struct ChainOut {
    wall_secs: f64,
    bytes: u64,
    records: Vec<SessionRecord>,
}

/// The per-session chain a reactor shard and the aggregator run, in
/// pipeline order, with an in-memory collector.
fn chain(plans: &[SessionPlan], render_every: usize) -> Result<ChainOut, String> {
    let remote = NullStore;
    let collector = Collector::new();
    let start_unix = serve::conn::now_unix();
    let mut agg = AggregatorState::new(start_unix, 64);
    let bus = serve::broadcast::EventBus::new();
    let mut records = Vec::with_capacity(plans.len());
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for (i, plan) in plans.iter().enumerate() {
        let seq = i as u64;
        set_session(seq);
        span("session", || -> Result<(), String> {
            let (server, b) = run_session(plan, seq, &remote)?;
            bytes += b;
            let rec = span("record.build", || finish_record(server, seq, start_unix));
            let boxed = span("aggregator.record_clone", || Box::new(rec.clone()));
            span("aggregator.push", || {
                let summary = agg.push_session(&boxed);
                bus.publish(serve::sse::frame(
                    "session",
                    &session_event_json(&summary).render(),
                ));
            });
            records.push(rec.clone());
            span("collector.ingest", || collector.ingest(rec));
            if (i + 1) % render_every == 0 {
                let counters = StatsSnapshot {
                    accepted: seq + 1,
                    completed: seq + 1,
                    ..StatsSnapshot::default()
                };
                let snap = span("aggregator.snapshot", || {
                    agg.snapshot(start_unix, counters, SseStats::default())
                });
                span("api.stats_json", || {
                    serve::http::json_response(200, &snap.stats_json(), true)
                });
            }
            Ok(())
        })?;
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let stats = collector.stats();
    if stats.accepted != plans.len() as u64 {
        return Err(format!(
            "replay collector stored {} of {} sessions",
            stats.accepted,
            plans.len()
        ));
    }
    Ok(ChainOut {
        wall_secs,
        bytes,
        records,
    })
}

/// How a live workload's server is configured, for the replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// `--store` with the default WAL policy.
    pub durable: bool,
    /// Offered sessions per second: the aggregator's snapshots (four a
    /// second) are shared by this many sessions.
    pub rate: f64,
    /// With a dashboard: sessions per `/api/stats` render (offered
    /// session rate ÷ poll rate).
    pub render_every: Option<usize>,
}

/// Render cadence of the replay when the workload has no dashboard: the
/// render is still measured, but not attributed to the workload.
const DEFAULT_RENDER_EVERY: usize = 30;

/// Records the durable-ingest, WAL and seal steps go through.
const DURABLE_RECORDS: usize = 4_000;
const WAL_RECORDS: usize = 2_000;
const SEAL_REPEATS: usize = 3;

/// Replays `plans` and records the per-layer metrics into `out`.
/// The chain runs twice, without and with spans, for the tracing
/// overhead; the traced pass's spans go to `trace_out` if given.
pub fn replay_live(
    plans: &[SessionPlan],
    cfg: ReplayConfig,
    work: &Path,
    out: &mut Outcome,
    trace_out: Option<&Path>,
) -> Result<(), String> {
    let n = plans.len().max(1) as f64;
    crate::set_alloc_counting(true);
    let render_every = cfg.render_every.unwrap_or(DEFAULT_RENDER_EVERY).max(1);
    // Host speed is probed around both passes, so the overhead compares
    // times at reference speed (see `calib`).
    let speed0 = crate::calib::slowdown();
    let plain = chain(plans, render_every)?;
    let speed1 = crate::calib::slowdown();
    start(plans.len() * 24 + 16 * (DURABLE_RECORDS + WAL_RECORDS));
    let traced = chain(plans, render_every);
    let speed2 = crate::calib::slowdown();
    let micro = traced
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|c| durable_steps(&c.records, work));
    let spans = finish();
    crate::set_alloc_counting(false);
    let traced = traced?;
    let (wal_bytes, seal_ms, seal_bytes) = micro?;
    if let Some(path) = trace_out {
        write_spans(path, &spans)?;
    }
    let st = self_stats(&spans);
    let get = |name: &str| st.get(name).cloned().unwrap_or_default();

    let (sshwire, shell) = (get("sshwire"), get("shell.exec"));
    out.set("sshwire.us_per_session", sshwire.self_ns as f64 / 1e3 / n);
    out.set("sshwire.allocs_per_session", sshwire.self_allocs as f64 / n);
    out.set("sshwire.bytes_per_session", traced.bytes as f64 / n);
    out.set("shell.us_per_command", shell.mean_us());
    out.set(
        "shell.allocs_per_command",
        shell.self_allocs as f64 / shell.count.max(1) as f64,
    );
    let ingest = get("collector.ingest");
    out.set("collector.ingest_us", ingest.mean_us());
    let durable = get("collector.ingest_durable");
    out.set("collector.ingest_durable_us_p50", durable.quantile_us(0.5));
    out.set("collector.ingest_durable_us_p99", durable.quantile_us(0.99));
    let (append, fsync) = (get("wal.append"), get("wal.fsync"));
    out.set("wal.append_us", append.mean_us());
    out.set("wal.fsync_us_p50", fsync.quantile_us(0.5));
    out.set("wal.fsync_us_p99", fsync.quantile_us(0.99));
    out.set("wal.bytes_per_session", wal_bytes);
    out.set("segment.seal_ms", seal_ms);
    out.set("store.bytes_per_session", seal_bytes);
    let (clone, push) = (get("aggregator.record_clone"), get("aggregator.push"));
    out.set("aggregator.record_clone_us", clone.mean_us());
    out.set("aggregator.push_us", push.mean_us());
    out.set(
        "aggregator.allocs_per_session",
        (clone.self_allocs + push.self_allocs) as f64 / n,
    );
    let (snapshot, render) = (get("aggregator.snapshot"), get("api.stats_json"));
    out.set("aggregator.snapshot_us", snapshot.mean_us());
    out.set("api.stats_json_us", render.mean_us());

    // CPU the server spends per session on this configuration's chain.
    // The durable path counts the WAL append and the amortized seal,
    // not the fsync wait, which is time off the CPU.
    let build = get("record.build");
    let mut per_session_ns = (sshwire.self_ns
        + shell.self_ns
        + build.self_ns
        + clone.self_ns
        + push.self_ns
        + ingest.self_ns) as f64
        / n;
    if cfg.durable {
        per_session_ns +=
            append.mean_us() * 1e3 + seal_ms * 1e6 / sessiondb::DEFAULT_ROWS_PER_SEGMENT as f64;
    }
    let publishes_per_s = 1.0 / serve::stats::PUBLISH_TICK.as_secs_f64();
    per_session_ns += snapshot.mean_us() * 1e3 * publishes_per_s / cfg.rate.max(1.0);
    if cfg.render_every.is_some() {
        per_session_ns += render.self_ns as f64 / n;
    }
    out.set("attribution.replay_us_per_session", per_session_ns / 1e3);
    let plain_ref = plain.wall_secs / ((speed0 + speed1) / 2.0);
    let traced_ref = traced.wall_secs / ((speed1 + speed2) / 2.0);
    out.set(
        "trace.overhead_pct",
        (traced_ref - plain_ref) / plain_ref.max(1e-9) * 100.0,
    );
    out.detail.push((
        "replay".into(),
        hutil::Json::obj([
            ("sessions", hutil::Json::u64(plans.len() as u64)),
            ("spans", hutil::Json::u64(spans.len() as u64)),
            ("plain_wall_s", hutil::Json::Num(plain.wall_secs)),
            ("traced_wall_s", hutil::Json::Num(traced.wall_secs)),
            ("shell_commands", hutil::Json::u64(shell.count)),
        ]),
    ));
    Ok(())
}

/// The durable steps over replayed records: collector ingest into a WAL
/// store fsyncing every record, WAL append and fsync on their own, and
/// a full segment seal. Returns (WAL bytes per record, seal ms, sealed
/// bytes per row).
fn durable_steps(records: &[SessionRecord], work: &Path) -> Result<(f64, f64, f64), String> {
    if records.is_empty() {
        return Err("no records to replay".into());
    }
    let dir = work.join("replay-store");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        rows_per_segment: sessiondb::DEFAULT_ROWS_PER_SEGMENT,
        wal: Some(FsyncPolicy::default()),
    };
    let (writer, _) = StoreWriter::with_options(&dir, opts).map_err(|e| e.to_string())?;
    let collector = Collector::with_sink(CollectorConfig::default(), Box::new(writer));
    for rec in records.iter().cycle().take(DURABLE_RECORDS) {
        span("collector.ingest_durable", || collector.ingest(rec.clone()));
    }
    collector.into_sink_parts().map_err(|e| e.to_string())?;

    let wal_path = work.join("replay.hswal");
    let mut wal = WalWriter::create(&wal_path, FsyncPolicy::Never, 0).map_err(|e| e.to_string())?;
    let header = std::fs::metadata(&wal_path)
        .map_err(|e| e.to_string())?
        .len();
    for rec in records.iter().cycle().take(WAL_RECORDS) {
        span("wal.append", || wal.append(rec)).map_err(|e| e.to_string())?;
        span("wal.fsync", || wal.sync()).map_err(|e| e.to_string())?;
    }
    let wal_len = std::fs::metadata(&wal_path)
        .map_err(|e| e.to_string())?
        .len();
    wal.remove().map_err(|e| e.to_string())?;

    let rows = sessiondb::DEFAULT_ROWS_PER_SEGMENT;
    let mut seal_ms = Vec::new();
    let mut seal_len = 0;
    for r in 0..SEAL_REPEATS {
        let path = work.join(format!("replay-seg-{r}.hsdb"));
        let mut seg = SegmentWriter::create(&path);
        for (i, rec) in records.iter().cycle().take(rows).enumerate() {
            let mut rec = rec.clone();
            rec.session_id = i as u64;
            seg.push(&rec);
        }
        let t = Instant::now();
        span("segment.seal", || seg.finish()).map_err(|e| e.to_string())?;
        seal_ms.push(t.elapsed().as_secs_f64() * 1e3);
        seal_len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        (wal_len - header) as f64 / WAL_RECORDS as f64,
        median(&seal_ms),
        seal_len as f64 / rows as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                session: 0,
                allocs: 5,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                session: 0,
                allocs: 2,
            },
        ];
        let st = self_stats(&spans);
        assert_eq!(st["outer"].self_ns, 70);
        assert_eq!(st["outer"].self_allocs, 3);
        assert_eq!(st["inner"].self_ns, 30);
    }

    #[test]
    fn spans_nest_and_record_nothing_when_off() {
        assert_eq!(span("off", || 7), 7);
        start(16);
        span("a", || span("b", || ()));
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(finish().is_empty());
    }
}
