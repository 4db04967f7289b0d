//! The honeylab command-line tool.
//!
//! ```text
//! honeylab generate --scale 4000 --seed 42 --out honeynet.json
//!     Generate a synthetic honeynet dataset and write it as a
//!     Cowrie-format JSON-lines event log.
//!
//! honeylab generate --scale 500 --out store.hsdb --out-format sessiondb
//!     Same dataset, spilled straight into a sharded columnar sessiondb
//!     store — sessions stream to disk during generation, so memory stays
//!     bounded at any scale.
//!
//! honeylab analyze honeynet.json
//! honeylab analyze store.hsdb --report taxonomy --report passwords
//!     Run the paper's analysis pipeline. The input format is
//!     auto-detected (sessiondb by magic bytes / store manifest, anything
//!     else parses as a Cowrie JSON log); every selected report is
//!     computed in one streaming pass, so sessiondb input is analysed
//!     without materializing the dataset. `--report` is repeatable;
//!     omitting it runs every report.
//!
//! honeylab serve --ssh-port 2222 --telnet-port 2323 --store live.hsdb
//!     Serve the honeypot over real TCP sockets: worker shards accept
//!     their own connections and drive the sans-IO SSH/telnet machines.
//!     Completed sessions go to one store writer, which streams them
//!     through the collector into a sessiondb store. Ctrl-C (or closing
//!     stdin) drains in-flight sessions and seals the store.
//!
//! honeylab classify
//!     Read command lines from stdin, print the Table 1 category of each.
//!
//! honeylab table1
//!     Print the classifier's rule set (label + pattern).
//! ```

use honeylab::botnet::{generate_dataset_into, FaultProfile};
use honeylab::core::{report, AnalysisBuilder, AnalysisReport, ReportKind, SessionSource};
use honeylab::honeypot::to_cowrie_log;
use honeylab::prelude::*;
use honeylab::serve::barrage::{self, BarrageConfig, BarrageReport, LoadMode};
use honeylab::serve::{signal, ServeConfig, ServeError, Server};
use honeylab::sessiondb::{
    is_sessiondb_path, needs_recovery, recover, recovery_preview, FsyncPolicy, Store, StoreWriter,
};
use honeylab::sshwire::{ClientScript, SshClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("barrage") => cmd_barrage(&args[1..]),
        Some("classify") => cmd_classify(),
        Some("table1") => cmd_table1(),
        Some("api-sample") => cmd_api_sample(&args[1..]),
        _ => {
            eprintln!(
                "usage: honeylab <generate|analyze|serve|recover|probe|barrage|classify|table1> [options]\n\
                 \n\
                 generate --scale N --seed S --out FILE   synthesize a honeynet dataset\n\
                 \x20        [--out-format cowrie|sessiondb] cowrie: JSON-lines log (default);\n\
                 \x20                                        sessiondb: sharded columnar store, bounded memory\n\
                 \x20        [--downtime F]                  inject sensor outages (fraction of sensor-time)\n\
                 \x20        [--flush-fail F]                inject collector flush failures (per-write rate)\n\
                 \x20        [--corrupt F]                   corrupt the emitted log (per-line byte-flip rate; cowrie only)\n\
                 analyze PATH                             run the paper's analysis on a Cowrie log\n\
                 \x20                                        or sessiondb store (format auto-detected)\n\
                 \x20        [--report NAME]...              run only the named reports (repeatable; default all):\n\
                 \x20                                        taxonomy categories passwords probes downloads mdrfckr\n\
                 \x20        [--format text|json]            output format (json = honeylab-api v1 document\n\
                 \x20                                        on stdout; text is the default)\n\
                 \x20        [--analysis-threads N]          analysis worker threads (default: CPU count;\n\
                 \x20                                        1 = serial; output identical at any N)\n\
                 serve                                    serve the honeypot over live TCP sockets\n\
                 \x20        [--ssh-port N] [--telnet-port N] listeners (0 = ephemeral; default ssh 2222)\n\
                 \x20        [--http-port N]                 observability HTTP plane: /api/stats,\n\
                 \x20                                        /api/sessions/recent, /api/credentials/top,\n\
                 \x20                                        /api/health, /events (SSE); off by default\n\
                 \x20        [--recent-tail N]               sessions kept for /api/sessions/recent (default 64)\n\
                 \x20        [--bind ADDR] [--store DIR]     bind address; spill sessions to a sessiondb store\n\
                 \x20        [--max-conns N] [--per-ip N]    admission limits (shed at accept time)\n\
                 \x20        [--workers N]                   worker shards (default: CPU count)\n\
                 \x20        [--idle-secs N] [--session-secs N] [--drain-secs N] [--stats-secs N]\n\
                 \x20        [--fsync-every N]               WAL fsync cadence: 1 = each 10 ms batch before it counts\n\
                 \x20                                        (default), N>1 = once N rows are unsynced, 0 = never\n\
                 \x20        [--rows-per-segment N]          sessions per sealed store segment\n\
                 \x20        [--chaos-conn-panic F] [--chaos-shard-panic F] [--chaos-flush-fail F] [--chaos-seed N]\n\
                 \x20                                        seeded fault injection (testing only)\n\
                 recover STORE [--dry-run]                replay a crashed store's WAL into a sealed\n\
                 \x20                                        segment and verify every CRC; --dry-run only\n\
                 \x20                                        reports what recovery would do\n\
                 probe ADDR [--count N]                   drive N scripted SSH sessions against a\n\
                 \x20                                        honeylab serve instance (smoke-test client)\n\
                 barrage ADDR                             replay a botnet-archetype session mix against\n\
                 \x20                                        a live serve instance and report throughput,\n\
                 \x20                                        latency quantiles, and shed rate\n\
                 \x20        [--sessions N] [--seed S]       schedule size and seed (deterministic replay)\n\
                 \x20        [--rate R]                      open loop: target sessions/sec, Poisson arrivals\n\
                 \x20        [--concurrency N] [--think-ms M] closed loop (default): N concurrent clients\n\
                 \x20        [--workers N] [--deadline-secs N] [--max-in-flight N]\n\
                 \x20        [--format text|json]            json = honeylab-api v1 barrage_report on stdout\n\
                 classify                                 classify stdin command lines (Table 1)\n\
                 table1                                   print the classifier rule set\n\
                 api-sample [KIND]                        print the canonical honeylab-api v1 sample\n\
                 \x20                                        document for KIND (no KIND: list kinds);\n\
                 \x20                                        these back the docs/api_v1 golden set"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_generate(args: &[String]) -> i32 {
    let scale: u64 = flag(args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let format = flag(args, "--out-format").unwrap_or_else(|| "cowrie".to_string());
    let out = flag(args, "--out").unwrap_or_else(|| match format.as_str() {
        "sessiondb" => "honeynet.hsdb".to_string(),
        _ => "honeynet.json".to_string(),
    });
    let downtime: f64 = flag(args, "--downtime")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let flush_fail: f64 = flag(args, "--flush-fail")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let corrupt: f64 = flag(args, "--corrupt")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let mut cfg = DriverConfig::default_scale(seed);
    cfg.session_scale = scale;
    if downtime > 0.0 {
        let mut f = FaultProfile::degraded();
        f.sensor_downtime = downtime;
        f.flush_failure_rate = 0.0;
        cfg.faults = f;
    }
    if flush_fail > 0.0 {
        cfg.faults.flush_failure_rate = flush_fail;
        cfg.faults.queue_capacity = Some(64);
    }
    eprintln!("generating 33 months at 1:{scale} (seed {seed})…");
    match format.as_str() {
        "cowrie" => {
            let ds = generate_dataset(&cfg);
            report_degraded(&ds.faults, ds.sessions.len() as u64);
            eprintln!(
                "{} sessions; writing Cowrie-format log to {out}…",
                ds.sessions.len()
            );
            let mut log = to_cowrie_log(&ds.sessions);
            if corrupt > 0.0 {
                let (l, n) = corrupt_log(&log, corrupt, seed);
                eprintln!(
                    "corrupted {n} of {} lines (--corrupt {corrupt})",
                    l.lines().count()
                );
                log = l;
            }
            match std::fs::File::create(&out).and_then(|mut f| f.write_all(log.as_bytes())) {
                Ok(()) => {
                    eprintln!("wrote {} bytes ({} lines)", log.len(), log.lines().count());
                    0
                }
                Err(e) => {
                    eprintln!("error writing {out}: {e}");
                    1
                }
            }
        }
        "sessiondb" => {
            if corrupt > 0.0 {
                eprintln!("warning: --corrupt applies to the cowrie format only, ignoring");
            }
            // Sessions spill to the store through the collector as they
            // are generated; nothing is ever materialized in memory.
            let writer = match StoreWriter::create(&out) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error creating store {out}: {e}");
                    return 1;
                }
            };
            let ds = match generate_dataset_into(&cfg, Box::new(writer)) {
                Ok(ds) => ds,
                Err(e) => {
                    eprintln!("error generating into {out}: {e}");
                    return 1;
                }
            };
            report_degraded(&ds.faults, ds.faults.ingest.accepted);
            match Store::open(&out) {
                Ok(store) => {
                    let s = store.summary();
                    eprintln!(
                        "wrote sessiondb store {out}: {} sessions in {} segments",
                        s.rows, s.segments
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error reopening store {out}: {e}");
                    1
                }
            }
        }
        other => {
            eprintln!("unknown --out-format '{other}' (expected cowrie or sessiondb)");
            2
        }
    }
}

fn report_degraded(f: &honeylab::botnet::FaultReport, recorded: u64) {
    if f.connection_failures + f.ingest.dropped + f.ingest.quarantined > 0 {
        eprintln!(
            "degraded run: {} attempted = {} recorded + {} connection failures + {} dropped + {} quarantined",
            f.attempted, recorded, f.connection_failures, f.ingest.dropped, f.ingest.quarantined
        );
    }
}

/// Seeded per-line corruption: with probability `rate` a line gets one
/// byte overwritten at a random position — the kind of damage a crashed
/// logger or a torn sector leaves behind.
fn corrupt_log(log: &str, rate: f64, seed: u64) -> (String, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_44_u64);
    let mut corrupted = 0usize;
    let lines: Vec<String> = log
        .lines()
        .map(|line| {
            if !line.is_empty() && rng.random::<f64>() < rate {
                corrupted += 1;
                let mut bytes = line.as_bytes().to_vec();
                let i = rng.random_range(0..bytes.len());
                bytes[i] = b'#';
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                line.to_string()
            }
        })
        .collect();
    (lines.join("\n") + "\n", corrupted)
}

fn report_names() -> String {
    let names: Vec<&str> = ReportKind::ALL.iter().map(|k| k.name()).collect();
    names.join(", ")
}

/// How `analyze` prints its result.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

fn cmd_analyze(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut format = OutputFormat::Text;
    let mut reports: Vec<ReportKind> = Vec::new();
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--report" {
            i += 1;
            let Some(name) = args.get(i) else {
                eprintln!("--report needs a value (one of: {})", report_names());
                return 2;
            };
            match ReportKind::parse(name) {
                Some(k) if reports.contains(&k) => {}
                Some(k) => reports.push(k),
                None => {
                    eprintln!(
                        "unknown report '{name}' (expected one of: {})",
                        report_names()
                    );
                    return 2;
                }
            }
        } else if arg == "--analysis-threads" {
            i += 1;
            match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("--analysis-threads needs a positive integer");
                    return 2;
                }
            }
        } else if arg == "--format" {
            i += 1;
            match args.get(i).map(String::as_str) {
                Some("text") => format = OutputFormat::Text,
                Some("json") => format = OutputFormat::Json,
                other => {
                    eprintln!(
                        "--format needs 'text' or 'json' (got {})",
                        other.unwrap_or("nothing")
                    );
                    return 2;
                }
            }
        } else if !arg.starts_with("--") && path.is_none() {
            path = Some(arg);
        } else {
            eprintln!("unknown analyze option '{arg}'");
            return 2;
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: honeylab analyze <cowrie-log.json | store.hsdb> [--report NAME]...");
        return 2;
    };
    if is_sessiondb_path(path) {
        analyze_sessiondb(path, &reports, threads, format)
    } else {
        analyze_cowrie(path, &reports, threads, format)
    }
}

fn analyze_sessiondb(
    path: &str,
    reports: &[ReportKind],
    threads: usize,
    format: OutputFormat,
) -> i32 {
    // Read-only preview: `analyze` may run against a store a live
    // `serve` is still writing, so it never mutates — it only points at
    // `honeylab recover` when sealed segments don't tell the whole story.
    if needs_recovery(path) {
        match recovery_preview(path) {
            Ok(preview) => {
                for line in preview.render().lines() {
                    eprintln!("note: {line}");
                }
                eprintln!(
                    "note: store has unrecovered crash state (analysis below covers sealed \
                     segments only); run `honeylab recover {path}` if no server is writing to it"
                );
            }
            Err(e) => eprintln!("warning: could not preview crash state: {e}"),
        }
    }
    let store = match Store::open(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error opening store {path}: {e}");
            return 1;
        }
    };
    let summary = store.summary();
    eprintln!(
        "sessiondb store: {} sessions in {} segments",
        summary.rows, summary.segments
    );
    // One parallel pass CRC-checks and decodes every block up front, so
    // the streaming analysis pass below can trust the store.
    match store.par_scan_map(threads, |_| 0u64, |rows, _| *rows += 1) {
        Ok(per_segment) => eprintln!("validated {} sessions", per_segment.iter().sum::<u64>()),
        Err(e) => {
            eprintln!("error scanning {path}: {e}");
            return 1;
        }
    }
    // Every selected report shares one out-of-core scan; memory stays
    // bounded by one decoded segment regardless of store size.
    let result = AnalysisBuilder::new(SessionSource::Store(&store))
        .reports(reports.iter().copied())
        .threads(threads)
        .run();
    match result {
        Ok(r) => {
            emit_analysis(&r, format);
            0
        }
        Err(e) => {
            eprintln!("error scanning {path}: {e}");
            1
        }
    }
}

fn analyze_cowrie(path: &str, reports: &[ReportKind], threads: usize, format: OutputFormat) -> i32 {
    let log = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return 1;
        }
    };
    // Lossy import: a real multi-year Cowrie deployment accumulates torn
    // writes and crash-truncated files; the builder recovers every
    // parseable session and reports what was skipped rather than aborting
    // on line one.
    let result = AnalysisBuilder::new(SessionSource::CowrieLog(&log))
        .reports(reports.iter().copied())
        .threads(threads)
        .run();
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error parsing {path}: {e}");
            return 1;
        }
    };
    if let Some(import) = &r.import {
        for err in import.errors.iter().take(5) {
            eprintln!(
                "warning: line {}: {} ({})",
                err.line, err.message, err.snippet
            );
        }
        if import.errors.len() > 5 {
            eprintln!(
                "warning: … {} more unparseable lines",
                import.errors.len() - 5
            );
        }
        if !import.errors.is_empty() {
            eprintln!(
                "recovered {} sessions from {} lines ({} unparseable)",
                import.recovered,
                import.lines_total,
                import.errors.len()
            );
        }
    }
    eprintln!("parsed {} sessions", r.sessions);
    emit_analysis(&r, format);
    0
}

/// Prints the analysis result in the selected format. JSON goes to
/// stdout as one honeylab-api v1 document (diagnostics stay on stderr),
/// so `analyze --format json | jq .data.taxonomy` just works.
fn emit_analysis(r: &AnalysisReport, format: OutputFormat) {
    match format {
        OutputFormat::Text => render_analysis(r),
        OutputFormat::Json => print!("{}", honeylab::core::api::analysis_json(r).pretty()),
    }
}

/// Prints whichever reports the builder computed; unselected sections are
/// `None` and skipped.
fn render_analysis(r: &AnalysisReport) {
    // §3.3 taxonomy.
    if let Some(stats) = &r.taxonomy {
        print!("{}", report::render_dataset_stats(stats, 1));
    }

    // Table 1 classification.
    if let (Some(coverage), Some(cats)) = (r.coverage, &r.categories) {
        println!(
            "\nTable 1 coverage: {:.2}% of command sessions classified",
            coverage * 100.0
        );
        if r.budget_exhaustions > 0 {
            eprintln!(
                "warning: {} regex step-budget exhaustion(s) during classification — \
                 some pathological command texts were not fully matched",
                r.budget_exhaustions
            );
        }
        println!("\ntop command categories:");
        for (label, n) in cats.iter().take(15) {
            println!("  {label:<26} {n}");
        }
    }

    // Passwords.
    if let Some(top) = &r.passwords {
        println!("\ntop accepted passwords:");
        for (i, pw) in top.passwords.iter().enumerate() {
            let total: u64 = top.by_month.values().map(|v| v[i]).sum();
            println!("  #{:<2} {pw:<24} {total}", i + 1);
        }
    }

    // Cowrie-default fingerprinting.
    if let Some(probes) = &r.probes {
        let phil: u64 = probes.phil_success.values().sum();
        if phil > 0 {
            println!(
                "\nhoneypot fingerprinting: {phil} 'phil' logins from {} IPs ({:.0}% commandless) — \
                 attackers are probing for Cowrie defaults",
                probes.phil_unique_ips,
                probes.phil_no_command_frac * 100.0
            );
        }
    }

    // Downloads.
    if let (Some(events), Some(st)) = (&r.downloads, &r.storage) {
        if !events.is_empty() {
            println!(
                "\ndownloads: {} sessions, {} client IPs, {} storage hosts ({:.0}% host != client)",
                st.download_sessions,
                st.unique_download_clients,
                st.unique_storage_ips,
                st.different_ip_frac * 100.0
            );
        }
    }

    // mdrfckr check.
    if let Some(tl) = &r.mdrfckr {
        let total: u64 = tl.daily.values().map(|(n, _)| n).sum();
        if total > 0 {
            println!(
                "\nmdrfckr activity: {total} sessions over {} days — see the paper's §9 for the actor profile",
                tl.daily.len()
            );
        }
    }
}

/// Parses an optional numeric flag; a malformed value is a usage error.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, i32> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            eprintln!("invalid value for {name}: '{v}'");
            2
        }),
    }
}

fn serve_config(args: &[String]) -> Result<ServeConfig, i32> {
    let ssh_port: Option<u16> = parse_flag(args, "--ssh-port")?;
    let telnet_port: Option<u16> = parse_flag(args, "--telnet-port")?;
    let mut cfg = ServeConfig {
        // With no listener flags at all, default to SSH on the
        // conventional unprivileged honeypot port.
        ssh_port: ssh_port.or_else(|| telnet_port.is_none().then_some(2222)),
        telnet_port,
        store_dir: flag(args, "--store").map(PathBuf::from),
        ..ServeConfig::default()
    };
    if let Some(bind) = flag(args, "--bind") {
        cfg.bind = bind.parse().map_err(|_| {
            eprintln!("invalid --bind address '{bind}'");
            2
        })?;
    }
    if let Some(n) = parse_flag(args, "--max-conns")? {
        cfg.max_connections = n;
    }
    if let Some(n) = parse_flag(args, "--per-ip")? {
        cfg.per_ip_limit = n;
    }
    if let Some(n) = parse_flag(args, "--workers")? {
        cfg.workers = n;
    }
    cfg.http_port = parse_flag(args, "--http-port")?;
    if let Some(n) = parse_flag(args, "--recent-tail")? {
        cfg.recent_tail = n;
    }
    if let Some(s) = parse_flag::<u64>(args, "--idle-secs")? {
        cfg.idle_timeout = Duration::from_secs(s);
    }
    if let Some(s) = parse_flag::<u64>(args, "--session-secs")? {
        cfg.session_timeout = Duration::from_secs(s);
    }
    if let Some(s) = parse_flag::<u64>(args, "--drain-secs")? {
        cfg.drain_timeout = Duration::from_secs(s);
    }
    if let Some(s) = parse_flag::<u64>(args, "--stats-secs")? {
        // 0 disables the stats thread entirely.
        cfg.stats_interval = (s > 0).then(|| Duration::from_secs(s));
    }
    if let Some(n) = parse_flag::<u32>(args, "--fsync-every")? {
        // 0 = never fsync: bounded loss (the OS page-cache window) in
        // exchange for zero fsync stalls on the store writer.
        cfg.fsync = FsyncPolicy::every(n);
    }
    if let Some(n) = parse_flag::<usize>(args, "--rows-per-segment")? {
        cfg.rows_per_segment = n;
    }
    if let Some(f) = parse_flag::<f64>(args, "--chaos-conn-panic")? {
        cfg.chaos.conn_panic_rate = f;
    }
    if let Some(f) = parse_flag::<f64>(args, "--chaos-shard-panic")? {
        cfg.chaos.shard_panic_rate = f;
    }
    if let Some(f) = parse_flag::<f64>(args, "--chaos-flush-fail")? {
        cfg.collector.flush_failure_rate = f;
    }
    if let Some(s) = parse_flag::<u64>(args, "--chaos-seed")? {
        cfg.chaos.seed = s;
    }
    if cfg.chaos.enabled() || cfg.collector.flush_failure_rate > 0.0 {
        eprintln!(
            "chaos mode: conn-panic {} shard-panic {} flush-fail {} seed {}",
            cfg.chaos.conn_panic_rate,
            cfg.chaos.shard_panic_rate,
            cfg.collector.flush_failure_rate,
            cfg.chaos.seed
        );
    }
    Ok(cfg)
}

fn cmd_serve(args: &[String]) -> i32 {
    let cfg = match serve_config(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let store_dir = cfg.store_dir.clone();
    signal::install();
    let handle = match Server::start(cfg) {
        Ok(h) => h,
        // Bad flag combinations die here, before any socket is bound.
        Err(e @ ServeError::Config(_)) => {
            eprintln!("{e}");
            return 2;
        }
        Err(e) => {
            eprintln!("error starting server: {e}");
            return 1;
        }
    };
    // Opening the store runs crash recovery; say what it found before
    // the first session lands on top of it.
    if let Some(report) = handle.recovery() {
        if !report.is_clean() {
            for line in report.render().lines() {
                eprintln!("recovery: {line}");
            }
        }
    }
    let addrs = handle.addrs();
    if let Some(a) = addrs.ssh {
        eprintln!("listening ssh on {a}");
    }
    if let Some(a) = addrs.telnet {
        eprintln!("listening telnet on {a}");
    }
    if let Some(a) = addrs.http {
        eprintln!("listening http on {a} (/api/stats, /api/health, /events …)");
    }
    eprintln!("press Ctrl-C (or close stdin) to stop");

    // A second shutdown path besides SIGINT: supervising processes (and
    // the concurrency smoke test) close our stdin to request a drain.
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let stdin_closed = Arc::clone(&stdin_closed);
        std::thread::Builder::new()
            .name("stdin-watch".into())
            .spawn(move || {
                let mut buf = [0u8; 256];
                let mut stdin = std::io::stdin();
                loop {
                    match stdin.read(&mut buf) {
                        Ok(0) => break,
                        Ok(_) => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                stdin_closed.store(true, Ordering::Relaxed);
            })
            .expect("spawn stdin watcher");
    }

    // The server also stops by itself when its store writer fails.
    while !signal::interrupted() && !stdin_closed.load(Ordering::Relaxed) && !handle.shutting_down()
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutting down: draining in-flight sessions…");
    match handle.join() {
        Ok(report) => {
            // One shared renderer (ServeReport::render) — the same
            // counters the HTTP plane served as honeylab-api v1.
            for line in report.render().lines() {
                eprintln!("{line}");
            }
            if let Some(dir) = store_dir {
                eprintln!("sealed sessiondb store {}", dir.display());
            }
            0
        }
        Err(e) => {
            eprintln!("error during shutdown: {e}");
            1
        }
    }
}

/// `honeylab recover <store> [--dry-run]`: replay a crashed store's WAL
/// into a sealed segment (or report what a replay would do), then verify
/// the whole store's CRCs.
fn cmd_recover(args: &[String]) -> i32 {
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: honeylab recover <store.hsdb> [--dry-run]");
        return 2;
    };
    if !is_sessiondb_path(path) {
        eprintln!("error: {path} is not a sessiondb store");
        return 1;
    }
    let report = if dry_run {
        recovery_preview(path)
    } else {
        recover(path)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error recovering {path}: {e}");
            return 1;
        }
    };
    if report.is_clean() {
        eprintln!("store is clean: no WAL, no orphaned temp files");
    } else {
        let verb = if dry_run {
            "would recover"
        } else {
            "recovered"
        };
        eprintln!("{verb}:");
        for line in report.render().lines() {
            eprintln!("  {line}");
        }
    }
    // Full CRC-checked read-back: recovery must never hand analysis a
    // store it cannot trust.
    let store = match Store::open(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error opening {path}: {e}");
            return 1;
        }
    };
    let summary = store.summary();
    match store.scan().records().collect::<Result<Vec<_>, _>>() {
        Ok(recs) => {
            eprintln!(
                "store: {} sessions in {} segments, CRCs intact",
                recs.len(),
                summary.segments
            );
            0
        }
        Err(e) => {
            eprintln!("error: store fails CRC verification after recovery: {e}");
            1
        }
    }
}

/// `honeylab probe <addr> [--count N]`: a scripted SSH client for smoke
/// tests — drives N sequential sessions and reports how many completed
/// the full dialogue.
fn cmd_probe(args: &[String]) -> i32 {
    let Some(addr) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: honeylab probe <host:port> [--count N]");
        return 2;
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("invalid address '{addr}' (expected host:port)");
            return 2;
        }
    };
    let count: u64 = match parse_flag(args, "--count") {
        Ok(n) => n.unwrap_or(1),
        Err(code) => return code,
    };
    let mut completed = 0u64;
    for i in 0..count {
        let script = ClientScript::new(
            "root",
            &["root", "admin"],
            &[&format!("echo probe-{i}"), "uname -a"],
        );
        match probe_once(addr, script) {
            Ok(()) => completed += 1,
            Err(e) => eprintln!("probe {i}: {e}"),
        }
    }
    eprintln!("probe: {completed}/{count} sessions completed");
    if completed == count {
        0
    } else {
        1
    }
}

fn probe_once(addr: std::net::SocketAddr, script: ClientScript) -> Result<(), String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| format!("socket: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut client = SshClient::new(script, b"honeylab-probe-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !client.is_closed() {
        if std::time::Instant::now() >= deadline {
            return Err("dialogue stalled".into());
        }
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).map_err(|e| format!("write: {e}"))?;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => client
                .input(&buf[..n])
                .map_err(|e| format!("protocol: {e}"))?,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let out = client.take_output();
    if !out.is_empty() {
        let _ = stream.write_all(&out);
    }
    Ok(())
}

/// `honeylab barrage <addr> [...]`: the load harness — replays a
/// deterministic botnet-archetype session mix against a live serve
/// instance over real sockets and reports throughput, latency
/// quantiles, and shed rate.
fn cmd_barrage(args: &[String]) -> i32 {
    let Some(addr) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: honeylab barrage <host:port> [--sessions N] [--rate R | --concurrency N] …"
        );
        return 2;
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("invalid address '{addr}' (expected host:port)");
            return 2;
        }
    };
    let mut cfg = BarrageConfig {
        addr,
        ..BarrageConfig::default()
    };
    macro_rules! take {
        ($name:literal, $field:expr) => {
            match parse_flag(args, $name) {
                Ok(Some(v)) => $field = v,
                Ok(None) => {}
                Err(code) => return code,
            }
        };
    }
    take!("--sessions", cfg.sessions);
    take!("--seed", cfg.seed);
    take!("--workers", cfg.workers);
    take!("--max-in-flight", cfg.max_in_flight);
    if let Some(s) = match parse_flag::<u64>(args, "--deadline-secs") {
        Ok(v) => v,
        Err(code) => return code,
    } {
        cfg.session_deadline = Duration::from_secs(s);
    }
    let rate = match parse_flag::<f64>(args, "--rate") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let concurrency = match parse_flag::<usize>(args, "--concurrency") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let think_ms = match parse_flag::<u64>(args, "--think-ms") {
        Ok(v) => v,
        Err(code) => return code,
    };
    cfg.mode = match (rate, concurrency) {
        (Some(_), Some(_)) => {
            eprintln!("--rate (open loop) and --concurrency (closed loop) are exclusive");
            return 2;
        }
        (Some(r), None) if r <= 0.0 => {
            eprintln!("--rate must be positive");
            return 2;
        }
        (Some(r), None) => LoadMode::Open { rate: r },
        (None, c) => LoadMode::Closed {
            concurrency: c.unwrap_or(64).max(1),
            think: Duration::from_millis(think_ms.unwrap_or(0)),
        },
    };
    let json = match flag(args, "--format").as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            eprintln!("--format needs 'text' or 'json' (got '{other}')");
            return 2;
        }
    };
    match barrage::run(&cfg) {
        Ok(report) => {
            if json {
                print!("{}", report.api_json().pretty());
            } else {
                for line in report.render().lines() {
                    eprintln!("{line}");
                }
            }
            // Exit status mirrors the smoke-test contract: every planned
            // session must have finished one way or the other, and none
            // may have died to a client-side error.
            if report.completed + report.shed == report.planned && report.errors == 0 {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("barrage failed: {e}");
            1
        }
    }
}

fn cmd_classify() -> i32 {
    let cl = Classifier::table1();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        println!("{:<26} {line}", cl.classify(&line));
    }
    0
}

fn cmd_table1() -> i32 {
    println!("{:<26} pattern", "label");
    for (label, pattern) in honeylab::core::classify::TABLE1_RULES {
        println!("{label:<26} {pattern}");
    }
    println!("{:<26} (fallback)", honeylab::core::UNKNOWN_LABEL);
    0
}

/// Every envelope kind `api-sample` can emit, with its sample document.
/// These are the exact bytes committed under `docs/api_v1/`;
/// `scripts/check_api_schema.sh` re-emits and diffs them in CI, so any
/// schema drift must come with a golden update in the same change.
fn api_sample_kinds() -> Vec<(&'static str, hutil::Json)> {
    use honeylab::core::api;
    use honeylab::serve::http::{error_json, index_json};
    use honeylab::serve::stats::{
        recovery_event_json, sample_record, session_event_json, ApiSnapshot, SessionSummary,
    };
    use honeylab::serve::ServeReport;
    let snap = ApiSnapshot::sample();
    let recovery = honeylab::sessiondb::RecoveryReport {
        wal_found: true,
        wal_stale: false,
        wal_frames: 12,
        wal_bytes_lost: 17,
        recovered_rows: 12,
        recovered_segment: None,
        tmp_removed: 1,
    };
    vec![
        (
            "analysis",
            api::analysis_json(&api::samples::analysis_report()),
        ),
        ("stats", snap.stats_json()),
        ("sessions_recent", snap.recent_json()),
        ("credentials_top", snap.credentials_json()),
        ("health", snap.health_json()),
        ("serve_report", ServeReport::sample().api_json()),
        ("barrage_report", BarrageReport::sample().api_json()),
        (
            "session_event",
            session_event_json(&SessionSummary::of(&sample_record(1, 1_700_000_100))),
        ),
        ("recovery_event", recovery_event_json(&recovery)),
        ("index", index_json()),
        ("error", error_json(404, "unknown endpoint")),
    ]
}

/// `honeylab api-sample [KIND]`: print the canonical honeylab-api v1
/// sample document for KIND; with no KIND, list the kinds.
fn cmd_api_sample(args: &[String]) -> i32 {
    let kinds = api_sample_kinds();
    match args.iter().find(|a| !a.starts_with("--")) {
        None => {
            for (kind, _) in &kinds {
                println!("{kind}");
            }
            0
        }
        Some(kind) => match kinds.into_iter().find(|(k, _)| k == kind) {
            Some((_, doc)) => {
                print!("{}", doc.pretty());
                0
            }
            None => {
                eprintln!(
                    "unknown api-sample kind '{kind}' (run `honeylab api-sample` for the list)"
                );
                2
            }
        },
    }
}
