//! The live workloads: the real `honeylab serve` as a child process,
//! driven from this process by `serve::barrage` (one worker, open-loop
//! Poisson arrivals), an idle-connection pool and a dashboard poller.
//!
//! Load budget on a 2-core host: the server runs one shard, pinned to
//! one CPU; the generator, pinned to the other, keeps at most two busy
//! threads (the barrage worker and, with a dashboard, the poller). The
//! parked pool sends 12 bytes per connection and then nothing, so it
//! adds held state, not scheduler work.

use crate::affinity::{self, CpuSet};
use crate::calib::{undisturbed, HostSpeed, MAX_STOLEN};
use crate::procfs::{self, Delta, Role};
use crate::server::{FinalReport, ServerArgs, ServerProc};
use crate::trace::{self, ReplayConfig};
use crate::{median, Outcome};
use hutil::Json;
use serve::barrage::{self, BarrageConfig, BarrageReport, LoadMode};
use sessiondb::{FsyncPolicy, StoreOptions, StoreWriter};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One live workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Half-open SSH connections parked before the load starts.
    pub parked: usize,
    /// `--store` with the default `--fsync-every 1`.
    pub store: bool,
    /// HTTP plane plus a dashboard poller.
    pub dashboard: bool,
    /// Offered load: Poisson arrivals, sessions per second.
    pub rate: f64,
}

/// Dashboard requests per second, on one keep-alive connection.
const POLL_HZ: u32 = 50;
/// Untimed sessions before the measured window.
const WARMUP: usize = 5_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Quiet window for the reactor's idle cost (traced runs).
const QUIET: Duration = Duration::from_secs(3);
/// Plans the traced replay pushes through the in-memory chain.
const REPLAY_PLANS: usize = 20_000;
/// Sessions a durable workload's store holds in its WAL, unsealed, when
/// the server starts: recovering them is part of set-up.
const RECOVERED_ROWS: usize = 8_000;
/// Each barrage run in the window offers this much schedule; per-run
/// numbers become the samples whose medians are reported.
const CHUNK: Duration = Duration::from_secs(1);

/// The live workload named `name`. Attackers are independent of each
/// other, so every live workload is open loop: arrivals keep coming on
/// schedule whether or not the server keeps up.
pub fn spec(name: &str) -> Option<LiveSpec> {
    Some(match name {
        "parked_trickle" => LiveSpec {
            parked: 9_000,
            store: false,
            dashboard: false,
            rate: 3_000.0,
        },
        "durable_capture" => LiveSpec {
            parked: 0,
            store: true,
            dashboard: false,
            rate: 2_000.0,
        },
        "open_dashboard" => LiveSpec {
            parked: 0,
            store: true,
            dashboard: true,
            rate: 1_500.0,
        },
        _ => return None,
    })
}

/// Seed of barrage run `k` of a workload run (0 is the warm-up).
fn chunk_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

fn barrage_cfg(addr: SocketAddr, spec: &LiveSpec, sessions: usize, seed: u64) -> BarrageConfig {
    BarrageConfig {
        addr,
        sessions,
        mode: LoadMode::Open { rate: spec.rate },
        seed,
        workers: 1,
        session_deadline: Duration::from_secs(30),
        max_in_flight: 512,
    }
}

/// Opens `n` connections that send a partial SSH banner and go silent,
/// and waits until the server has admitted each one (its banner
/// arrived).
fn open_pool(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    const BATCH: usize = 256;
    let mut pool: Vec<TcpStream> = Vec::with_capacity(n);
    let mut buf = [0u8; 512];
    while pool.len() < n {
        let first = pool.len();
        for _ in first..(first + BATCH).min(n) {
            let mut s = TcpStream::connect(addr).map_err(|e| format!("pool connect: {e}"))?;
            s.write_all(b"SSH-2.0-idle")
                .map_err(|e| format!("pool write: {e}"))?;
            pool.push(s);
        }
        for s in &mut pool[first..] {
            s.set_read_timeout(Some(Duration::from_secs(20)))
                .map_err(|e| format!("pool socket: {e}"))?;
            match s.read(&mut buf) {
                Ok(0) => return Err("server closed a parked connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("parked connection got no banner: {e}")),
            }
        }
    }
    Ok(pool)
}

/// Reads one HTTP/1.1 response with a `Content-Length` body.
fn read_response(s: &mut TcpStream, buf: &mut Vec<u8>) -> Result<Vec<u8>, String> {
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| e.to_string())?;
            if !head.starts_with("HTTP/1.1 200") {
                return Err(format!(
                    "dashboard got {}",
                    head.lines().next().unwrap_or("")
                ));
            }
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .ok_or("response without Content-Length")?;
            let body_start = head_end + 4;
            while buf.len() < body_start + len {
                let n = s.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
                if n == 0 {
                    return Err("connection closed mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            return Ok(buf[body_start..body_start + len].to_vec());
        }
        let n = s.read(&mut chunk).map_err(|e| format!("read head: {e}"))?;
        if n == 0 {
            return Err("connection closed before a response".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn connect_http(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("http socket: {e}"))?;
    Ok(s)
}

const STATS_REQUEST: &[u8] = b"GET /api/stats HTTP/1.1\r\nHost: honeybench\r\n\r\n";

/// `GET /api/stats`, parsed.
fn fetch_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut s = connect_http(addr)?;
    s.write_all(STATS_REQUEST)
        .map_err(|e| format!("http write: {e}"))?;
    let body = read_response(&mut s, &mut Vec::new())?;
    Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("stats json: {e}"))
}

/// The dashboard poller: `POLL_HZ` requests per second on one
/// keep-alive connection, each timed from when it was due, so a stall
/// also counts against the requests queued behind it.
struct Dashboard {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<Vec<f64>, String>>,
}

impl Dashboard {
    fn start(addr: SocketAddr) -> Result<Dashboard, String> {
        let mut s = connect_http(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dashboard".into())
            .spawn(move || {
                let period = Duration::from_secs(1) / POLL_HZ;
                let t0 = Instant::now();
                let mut latencies_ms = Vec::new();
                let mut buf = Vec::new();
                for i in 0u32.. {
                    let due = t0 + period * i;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    s.write_all(STATS_REQUEST)
                        .map_err(|e| format!("dashboard write: {e}"))?;
                    read_response(&mut s, &mut buf)?;
                    latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                Ok(latencies_ms)
            })
            .map_err(|e| format!("spawn dashboard: {e}"))?;
        Ok(Dashboard { stop, thread })
    }

    fn stop(self) -> Result<Vec<f64>, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "dashboard thread panicked".to_string())?
    }
}

fn report_json(r: &BarrageReport) -> Json {
    Json::obj([
        ("planned", Json::u64(r.planned)),
        ("completed", Json::u64(r.completed)),
        ("failed", Json::u64(r.shed + r.errors + r.timeouts)),
        ("late_starts", Json::u64(r.late_starts)),
        ("duration_s", Json::Num(r.duration_secs)),
        ("p50_ms", Json::Num(r.p50_ms)),
        ("p99_ms", Json::Num(r.p99_ms)),
        ("p999_ms", Json::Num(r.p999_ms)),
    ])
}

/// Sizes for `--smoke` (a few seconds per workload).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divides the parked pool.
    pub pool_div: usize,
    /// Warm-up sessions.
    pub warmup: usize,
    /// Set-ups per run.
    pub setups: usize,
    /// Replayed plans in a traced run.
    pub replay: usize,
}

/// Full size.
pub const FULL: Scale = Scale {
    pool_div: 1,
    warmup: WARMUP,
    setups: SETUPS,
    replay: REPLAY_PLANS,
};

/// `--smoke` size.
pub const SMOKE: Scale = Scale {
    pool_div: 9,
    warmup: 500,
    setups: 1,
    replay: 500,
};

/// One barrage run of the measured window, with what the server and
/// the host did during it.
struct Chunk {
    report: BarrageReport,
    /// Server CPU (Σ threads) per completed session, µs.
    server_cpu_us: f64,
    /// Host speed over the run: the mean of the probes just before
    /// and just after it.
    speed: HostSpeed,
    /// Share of the CPUs' time the hypervisor stole during the run.
    stolen: f64,
}

/// Runs one live workload for `seconds` of measured load.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &LiveSpec,
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    work: &Path,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    // The server on one CPU, this process (barrage, dashboard, pool) on
    // the others; restored when the run ends.
    let allowed = affinity::current()?;
    let split = affinity::split(&allowed);
    if let Some((_, generator)) = &split {
        affinity::pin(generator).map_err(|e| format!("pin generator: {e}"))?;
    }
    let result = run_pinned(
        spec,
        bin,
        seed,
        seconds,
        traced,
        scale,
        work,
        trace_out,
        split.as_ref(),
    );
    affinity::pin(&allowed).map_err(|e| format!("unpin: {e}"))?;
    result
}

#[allow(clippy::too_many_arguments)]
fn run_pinned(
    spec: &LiveSpec,
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    work: &Path,
    trace_out: Option<&Path>,
    split: Option<&(CpuSet, CpuSet)>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let parked = spec.parked / scale.pool_div;
    let chunk_sessions = (spec.rate * CHUNK.as_secs_f64()) as usize;
    let mut setups = Vec::new();
    let mut setups_norm = Vec::new();

    // Set-up: server start (and store recovery), then pool admission.
    // All but the last set-up are torn down again.
    let (srv, pool, store_dir, rss_per_parked_kb) = {
        let mut kept = None;
        for i in 0..scale.setups {
            let store_dir = spec.store.then(|| work.join(format!("live-{i}.hsdb")));
            let args = ServerArgs {
                store: store_dir.clone(),
                http: spec.dashboard,
                cpus: split.map(|s| s.0),
            };
            if let Some(dir) = &store_dir {
                crashed_store(dir)?;
            }
            let before = HostSpeed::measure(split)?;
            let steal0 = procfs::steal_ticks()?;
            let t = Instant::now();
            let srv = ServerProc::start(bin, &args)?;
            let pid = srv.pid.to_string();
            let rss0 = procfs::status_kb(&pid, "VmRSS")?;
            let pool = open_pool(srv.ssh, parked)?;
            let secs = t.elapsed().as_secs_f64();
            let stolen = procfs::stolen_share(steal0, procfs::steal_ticks()?, secs);
            let speed = HostSpeed::between(before, HostSpeed::measure(split)?);
            setups.push(secs);
            setups_norm.push((secs / speed.mean(), stolen));
            let rss1 = procfs::status_kb(&pid, "VmRSS")?;
            let per_parked = (rss1 as f64 - rss0 as f64) / parked.max(1) as f64;
            if i + 1 < scale.setups {
                drop(pool);
                let fin = srv.stop()?;
                out.gate(fin.completed == parked as u64 && fin.panics == 0, || {
                    format!("set-up {i}: server recorded {fin:?} for {parked} parked")
                });
                if let Some(d) = &store_dir {
                    std::fs::remove_dir_all(d).map_err(|e| format!("remove store: {e}"))?;
                }
            } else {
                kept = Some((srv, pool, store_dir, per_parked));
            }
        }
        kept.ok_or("no set-up ran")?
    };
    let (pid, ssh) = (srv.pid, srv.ssh);

    let mut reports = vec![barrage::run(&barrage_cfg(
        ssh,
        spec,
        scale.warmup,
        chunk_seed(seed, 0),
    ))?];

    let idle_cpu_pct = if traced {
        let a = procfs::sample(pid)?;
        std::thread::sleep(QUIET);
        let d = Delta::between(&a, &procfs::sample(pid)?);
        Some(d.process_cpu_secs / d.secs * 100.0)
    } else {
        None
    };

    // The measured window: one-second barrage runs until `seconds` have
    // passed, each followed by a server counter sample and a host-speed
    // probe (about 1% of the window).
    let dashboard = match (spec.dashboard, srv.http) {
        (true, Some(addr)) => Some(Dashboard::start(addr)?),
        _ => None,
    };
    let client0 = procfs::process_ticks("self")?;
    let s0 = procfs::sample(pid)?;
    let t0 = Instant::now();
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut last = s0.clone();
    let mut probe = HostSpeed::measure(split)?;
    // Runs disturbed by steal are set aside; the window stretches (by at
    // most half) until two thirds of its planned runs are undisturbed.
    let planned = (seconds / CHUNK.as_secs_f64()).round().max(1.0) as usize;
    let want_clean = (planned as f64 * 2.0 / 3.0).ceil() as usize;
    // Server memory grows with the sessions it has seen (the collector
    // keeps records without a store, the aggregator's accumulators grow
    // with distinct credentials), so the high-water mark is read after
    // the planned runs, before any stretch.
    let mut hwm_kb = None;
    loop {
        let t = t0.elapsed().as_secs_f64();
        let clean = chunks.iter().filter(|c| c.stolen <= MAX_STOLEN).count();
        if !chunks.is_empty() && t >= seconds && (clean >= want_clean || t >= seconds * 1.5) {
            break;
        }
        let k = chunks.len() as u64 + 1;
        let steal0 = procfs::steal_ticks()?;
        let t_chunk = Instant::now();
        let report = barrage::run(&barrage_cfg(ssh, spec, chunk_sessions, chunk_seed(seed, k)))?;
        let stolen = procfs::stolen_share(
            steal0,
            procfs::steal_ticks()?,
            t_chunk.elapsed().as_secs_f64(),
        );
        let now = procfs::sample(pid)?;
        let server_cpu_us =
            Delta::between(&last, &now).thread_cpu_secs() * 1e6 / report.completed.max(1) as f64;
        last = now;
        let after = HostSpeed::measure(split)?;
        chunks.push(Chunk {
            report,
            server_cpu_us,
            speed: HostSpeed::between(probe, after),
            stolen,
        });
        probe = after;
        if chunks.len() == planned {
            hwm_kb = Some(procfs::status_kb(&pid.to_string(), "VmHWM")?);
        }
    }
    let s1 = last;
    let client_secs = (procfs::process_ticks("self")? - client0) as f64 / procfs::TICKS_PER_SEC;
    let api_ms = match dashboard {
        Some(d) => Some(d.stop()?),
        None => None,
    };
    let hwm_kb = match hwm_kb {
        Some(kb) => kb,
        None => procfs::status_kb(&pid.to_string(), "VmHWM")?,
    };
    let delta = Delta::between(&s0, &s1);
    reports.extend(chunks.iter().map(|c| c.report.clone()));

    let client_completed: u64 = reports.iter().map(|r| r.completed).sum();
    // The dashboard must converge on every session the server closed.
    let api_total = match srv.http {
        Some(addr) => Some(wait_for_total(addr, client_completed)?),
        None => None,
    };

    drop(pool);
    let fin = srv.stop()?;

    // --- gates -----------------------------------------------------------
    for r in &reports {
        out.gate(
            r.completed + r.shed + r.errors + r.timeouts == r.planned,
            || {
                format!(
                    "barrage accounting: {} completed + {} shed + {} errors + {} timeouts != {} planned",
                    r.completed, r.shed, r.errors, r.timeouts, r.planned
                )
            },
        );
        // barrage times a session from its launch, not from when it was
        // due, so a late generator would hide queueing: reject the run.
        out.gate(r.late_starts == 0, || {
            format!("generator started {} sessions >100 ms late", r.late_starts)
        });
    }
    gate_final(&mut out, &fin, client_completed + parked as u64);
    // 1 ± 0.01, widened by the process counter's resolution (one tick at
    // each end of the window), which matters only for short windows.
    let ratio = delta.thread_sum_ratio();
    let slack = 0.01 + 2.0 / procfs::TICKS_PER_SEC / delta.process_cpu_secs.max(1e-9);
    out.gate((ratio - 1.0).abs() <= slack, || {
        format!("per-thread CPU sums to {ratio:.4} of process CPU (allowed ±{slack:.4})")
    });
    let mut scan_us = None;
    if let Some(dir) = &store_dir {
        let t = Instant::now();
        let rows = count_rows(dir)?;
        scan_us = Some(t.elapsed().as_secs_f64() * 1e6 / rows.max(1) as f64);
        let live_rows = rows.saturating_sub(RECOVERED_ROWS as u64);
        out.gate(rows == client_completed + RECOVERED_ROWS as u64, || {
            format!(
                "store holds {rows} rows; expected {RECOVERED_ROWS} recovered + {client_completed} completed"
            )
        });
        if let Some(total) = api_total {
            out.gate(total == live_rows, || {
                format!("/api/stats total_sessions {total} != {live_rows} live store rows")
            });
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove store: {e}"))?;
    }

    // --- metrics ---------------------------------------------------------
    let completed: u64 = chunks.iter().map(|c| c.report.completed).sum();
    let per = |secs: f64| secs * 1e6 / completed.max(1) as f64;
    out.attempted = reports.iter().map(|r| r.planned).sum();
    out.failed = reports
        .iter()
        .map(|r| r.shed + r.errors + r.timeouts)
        .sum::<u64>()
        + out.gate_failures.len() as u64;
    let each = |f: &dyn Fn(&Chunk) -> f64| chunks.iter().map(f).collect::<Vec<f64>>();
    let calm = |f: &dyn Fn(&Chunk) -> f64| {
        undisturbed(&chunks.iter().map(|c| (f(c), c.stolen)).collect::<Vec<_>>())
    };
    // Σ per-thread CPU at ns resolution; the ratio gate above holds it
    // to the process's utime + stime within 1%.
    let cpu_us = per(delta.thread_cpu_secs());
    if traced {
        let shard = delta.role(Role::Shard);
        let http = delta.role(Role::Http);
        let n = completed.max(1) as f64;
        out.set(
            "accept.cpu_us_per_session",
            per(delta.role(Role::Accept).cpu_secs),
        );
        out.set("shard.cpu_us_per_session", per(shard.cpu_secs));
        out.set(
            "shard.offcpu_pct",
            100.0 * (1.0 - shard.cpu_secs / (delta.secs * shard.threads.max(1) as f64)),
        );
        out.set("shard.read_syscalls_per_session", shard.syscr as f64 / n);
        out.set("shard.write_syscalls_per_session", shard.syscw as f64 / n);
        out.set(
            "shard.voluntary_switches_per_session",
            shard.voluntary_switches as f64 / n,
        );
        out.set(
            "aggregator.cpu_us_per_session",
            per(delta.role(Role::Aggregator).cpu_secs),
        );
        out.set(
            "server.other_cpu_us_per_session",
            per(delta.role(Role::Other).cpu_secs),
        );
        if let Some(ms) = &api_ms {
            out.set(
                "http.cpu_us_per_request",
                http.cpu_secs * 1e6 / ms.len().max(1) as f64,
            );
            out.set("http.api_p50_ms", median(ms));
            out.set("http.api_p99_ms", crate::quantile(ms, 0.99));
        }
        if let Some(pct) = idle_cpu_pct {
            out.set("reactor.idle_cpu_pct", pct);
        }
        if parked > 0 {
            out.set("reactor.rss_kb_per_parked_conn", rss_per_parked_kb);
        }
        out.set("collector.dropped", fin.collector_dropped as f64);
        out.set("collector.quarantined", fin.collector_quarantined as f64);
        out.set("client.cpu_us_per_session", per(client_secs));
        out.set(
            "client.late_starts",
            reports.iter().map(|r| r.late_starts).sum::<u64>() as f64,
        );
        out.set("client.session_p99_ms", median(&calm(&|c| c.report.p99_ms)));
        let stolen = each(&|c| c.stolen);
        out.set(
            "host.stolen_pct",
            stolen.iter().sum::<f64>() / stolen.len() as f64 * 100.0,
        );
        out.set(
            "host.server_cpu_slowdown",
            median(&each(&|c| c.speed.server)),
        );
        out.set(
            "host.generator_cpu_slowdown",
            median(&each(&|c| c.speed.generator)),
        );
        out.set("attribution.thread_sum_ratio", ratio);
        if let Some(us) = scan_us {
            out.set("scan.us_per_session", us);
        }
        let plans =
            barrage::build_schedule(&barrage_cfg(ssh, spec, scale.replay, chunk_seed(seed, 1)));
        let cfg = ReplayConfig {
            durable: spec.store,
            rate: spec.rate,
            render_every: spec
                .dashboard
                .then(|| (spec.rate / f64::from(POLL_HZ)).round() as usize),
        };
        trace::replay_live(&plans, cfg, work, &mut out, trace_out)?;
        let replay = out.values["attribution.replay_us_per_session"];
        out.set("attribution.unattributed_us_per_session", cpu_us - replay);
    } else {
        // Times at reference host speed (see `calib`): server CPU scaled
        // by the server CPU's slowdown, latency (both sides' work) by
        // the mean of both.
        out.set("sessions_per_s", completed as f64 / delta.secs);
        out.set(
            "p50_ms",
            median(&calm(&|c| c.report.p50_ms / c.speed.mean())),
        );
        out.set(
            "cpu_us_per_session",
            median(&calm(&|c| c.server_cpu_us / c.speed.server)),
        );
        out.set("rss_mb", hwm_kb as f64 / 1024.0);
        out.set("setup_s", median(&undisturbed(&setups_norm)));
    }

    let list = |v: &[f64]| Json::arr(v.iter().map(|&x| Json::Num(x)));
    out.detail.push((
        "live".into(),
        Json::obj([
            ("parked", Json::u64(parked as u64)),
            ("rate", Json::Num(spec.rate)),
            (
                "server_cpus",
                match split {
                    Some((s, _)) => Json::arr(s.cpus().into_iter().map(|c| Json::u64(c as u64))),
                    None => Json::Null,
                },
            ),
            ("window_s", Json::Num(delta.secs)),
            ("window_completed", Json::u64(completed)),
            ("server_cpu_s", Json::Num(delta.process_cpu_secs)),
            ("server_cpu_us_per_session_raw", Json::Num(cpu_us)),
            ("client_cpu_s", Json::Num(client_secs)),
            ("server_vmhwm_kb", Json::u64(hwm_kb)),
            ("setup_runs_s", list(&setups)),
            ("warmup", report_json(&reports[0])),
            (
                "chunks",
                Json::arr(chunks.iter().map(|c| report_json(&c.report))),
            ),
            ("chunk_server_cpu_us", list(&each(&|c| c.server_cpu_us))),
            ("chunk_server_slowdown", list(&each(&|c| c.speed.server))),
            (
                "chunk_generator_slowdown",
                list(&each(&|c| c.speed.generator)),
            ),
            ("chunk_stolen", list(&each(&|c| c.stolen))),
            (
                "api_latency_ms",
                match &api_ms {
                    Some(ms) => Json::obj([
                        ("samples", Json::u64(ms.len() as u64)),
                        ("p50", Json::Num(median(ms))),
                        ("p99", Json::Num(crate::quantile(ms, 0.99))),
                    ]),
                    None => Json::Null,
                },
            ),
        ]),
    ));
    Ok(out)
}

/// Leaves `dir` as a server killed mid-segment leaves it: a WAL holding
/// [`RECOVERED_ROWS`] sessions that no sealed segment covers.
fn crashed_store(dir: &Path) -> Result<(), String> {
    let opts = StoreOptions {
        rows_per_segment: sessiondb::DEFAULT_ROWS_PER_SEGMENT,
        wal: Some(FsyncPolicy::Never),
    };
    let (mut writer, _) =
        StoreWriter::with_options(dir, opts).map_err(|e| format!("create store: {e}"))?;
    for i in 0..RECOVERED_ROWS as u64 {
        let mut rec = serve::stats::sample_record(i, 1_700_000_000 + i as i64);
        rec.client_port = (i % 60_000) as u16 + 1024;
        writer
            .append(&rec)
            .map_err(|e| format!("prefill WAL: {e}"))?;
    }
    // Dropped without `finish`: nothing is sealed and the WAL stays.
    drop(writer);
    Ok(())
}

/// Gates on the server's own shutdown summary.
fn gate_final(out: &mut Outcome, fin: &FinalReport, expected: u64) {
    out.gate(fin.completed == expected, || {
        format!(
            "server completed {} sessions, expected {expected}",
            fin.completed
        )
    });
    out.gate(fin.collector_accepted == fin.completed, || {
        format!(
            "collector accepted {} of {}",
            fin.collector_accepted, fin.completed
        )
    });
    out.gate(
        fin.panics == 0 && fin.shed == 0 && fin.wire_errors == 0,
        || format!("server reported {fin:?}"),
    );
}

/// Polls `/api/stats` until its taxonomy covers `expected` sessions (the
/// aggregator publishes every 250 ms) and returns that total.
fn wait_for_total(addr: SocketAddr, expected: u64) -> Result<u64, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = fetch_stats(addr)?;
        let total = doc
            .get("data")
            .and_then(|d| d.get("taxonomy"))
            .and_then(|t| t.get("total_sessions"))
            .and_then(Json::as_i64)
            .ok_or("no taxonomy.total_sessions in /api/stats")? as u64;
        if total >= expected || Instant::now() >= deadline {
            return Ok(total);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Opens the store and decodes every row with its CRC checked.
fn count_rows(dir: &Path) -> Result<u64, String> {
    let store = sessiondb::Store::open(dir).map_err(|e| format!("open store: {e}"))?;
    let mut rows = 0;
    for rec in store.scan().records() {
        rec.map_err(|e| format!("store scan: {e}"))?;
        rows += 1;
    }
    Ok(rows)
}
