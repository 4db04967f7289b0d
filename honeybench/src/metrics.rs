//! Every metric the benchmark reports, and the one result line.
//!
//! `BENCHMARK.json` lists the same names, units and directions; the
//! smoke test fails if the two drift apart in either direction.

use crate::Outcome;
use hutil::Json;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics: what a capture operator or an analyst sees.
/// Measured with tracing off. On live workloads the unit of work is one
/// SSH session; on `offline_analysis` it is one analyst pass (six
/// reports plus the §6 clustering) over the whole store.
pub const END_TO_END: &[Spec] = &[
    m("sessions_per_s", "1/s", "higher"),
    m("p50_ms", "ms", "lower"),
    m("cpu_us_per_session", "us", "lower"),
    m("rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics from the traced run. A metric whose layer is not
/// on a workload's path reads 0 on that workload.
pub const PER_LAYER: &[Spec] = &[
    // serve::server, serve::reactor, serve::stats, serve::http — the
    // server's own threads, read from /proc over the measured window.
    m("accept.cpu_us_per_session", "us", "lower"),
    m("shard.cpu_us_per_session", "us", "lower"),
    m("shard.offcpu_pct", "%", "lower"),
    m("shard.read_syscalls_per_session", "count", "lower"),
    m("shard.write_syscalls_per_session", "count", "lower"),
    m("shard.voluntary_switches_per_session", "count", "lower"),
    m("reactor.idle_cpu_pct", "%", "lower"),
    m("reactor.rss_kb_per_parked_conn", "kB", "lower"),
    m("aggregator.cpu_us_per_session", "us", "lower"),
    m("http.cpu_us_per_request", "us", "lower"),
    m("http.api_p50_ms", "ms", "lower"),
    m("http.api_p99_ms", "ms", "lower"),
    m("server.other_cpu_us_per_session", "us", "lower"),
    m("collector.dropped", "count", "lower"),
    m("collector.quarantined", "count", "lower"),
    // The load generator, to show it is not the limit.
    m("client.cpu_us_per_session", "us", "lower"),
    m("client.late_starts", "count", "lower"),
    m("client.session_p99_ms", "ms", "lower"),
    // In-memory replay of the workload's session plans.
    m("sshwire.us_per_session", "us", "lower"),
    m("sshwire.allocs_per_session", "count", "lower"),
    m("sshwire.bytes_per_session", "B", "lower"),
    m("shell.us_per_command", "us", "lower"),
    m("shell.allocs_per_command", "count", "lower"),
    m("collector.ingest_us", "us", "lower"),
    m("collector.ingest_durable_us_p50", "us", "lower"),
    m("collector.ingest_durable_us_p99", "us", "lower"),
    m("wal.append_us", "us", "lower"),
    m("wal.fsync_us_p50", "us", "lower"),
    m("wal.fsync_us_p99", "us", "lower"),
    m("wal.bytes_per_session", "B", "lower"),
    m("segment.seal_ms", "ms", "lower"),
    m("store.bytes_per_session", "B", "lower"),
    m("aggregator.record_clone_us", "us", "lower"),
    m("aggregator.push_us", "us", "lower"),
    m("aggregator.allocs_per_session", "count", "lower"),
    m("aggregator.snapshot_us", "us", "lower"),
    m("api.stats_json_us", "us", "lower"),
    // The analyst's layers.
    m("scan.us_per_session", "us", "lower"),
    m("classify.us_per_text", "us", "lower"),
    m("analysis.taxonomy_s", "s", "lower"),
    m("analysis.categories_s", "s", "lower"),
    m("analysis.passwords_s", "s", "lower"),
    m("analysis.probes_s", "s", "lower"),
    m("analysis.downloads_s", "s", "lower"),
    m("analysis.mdrfckr_s", "s", "lower"),
    m("cluster.build_s", "s", "lower"),
    m("cluster.sweep_s", "s", "lower"),
    m("cluster.signatures", "count", "higher"),
    m("generate.sessions_per_s", "1/s", "higher"),
    // Host speed during the run (1.0 = reference speed), which
    // end-to-end times are divided by, and hypervisor steal.
    m("host.server_cpu_slowdown", "ratio", "lower"),
    m("host.generator_cpu_slowdown", "ratio", "lower"),
    m("host.stolen_pct", "%", "lower"),
    // How much of the measured server CPU the replay accounts for.
    m("attribution.thread_sum_ratio", "ratio", "higher"),
    m("attribution.replay_us_per_session", "us", "lower"),
    m("attribution.unattributed_us_per_session", "us", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// The metric set for a run: end-to-end untraced, per-layer traced.
pub fn specs(traced: bool) -> &'static [Spec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Prints one human-readable line per metric (`n/a` where the
/// workload's path does not reach the layer).
pub fn print_human(workload: &str, out: &Outcome, traced: bool) {
    for s in specs(traced) {
        match out.values.get(s.name) {
            Some(v) => println!("{workload} {:<42} {v:>14.4} {}", s.name, s.unit),
            None => println!("{workload} {:<42} {:>14} {}", s.name, "n/a", s.unit),
        }
    }
    for g in &out.gate_failures {
        println!("{workload} GATE FAILED: {g}");
    }
}

/// A finite number as JSON (a NaN or infinity would not parse).
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric of the run's kind with its unit. Unexercised layers read 0.
pub fn result_json(out: &Outcome, traced: bool) -> Json {
    let metrics = specs(traced)
        .iter()
        .map(|s| {
            let value = out.values.get(s.name).copied().unwrap_or(0.0);
            (
                s.name.to_string(),
                Json::obj([("value", num(value)), ("unit", Json::str(s.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(out.gate_failures.is_empty())),
        ("attempted", Json::u64(out.attempted.max(1))),
        ("failed", Json::u64(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The `--out` document: the result plus the run's detail.
pub fn out_json(workload: &str, seed: u64, out: &Outcome, traced: bool) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::u64(seed)),
        ("traced", Json::Bool(traced)),
        ("result", result_json(out, traced)),
        ("detail", Json::Obj(out.detail.clone())),
        (
            "gate_failures",
            Json::arr(out.gate_failures.iter().map(Json::str)),
        ),
    ])
}
