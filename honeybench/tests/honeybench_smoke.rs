//! Tiny-size runs of the traced replay and `offline_analysis`, plus the
//! drift guard: the metrics the benchmark emits are exactly the ones
//! `BENCHMARK.json` declares, in both directions.

use honeybench::metrics::{self, Spec, END_TO_END, PER_LAYER};
use honeybench::trace::{self, ReplayConfig};
use honeybench::{offline, Outcome, WORKLOADS};
use hutil::Json;
use serve::barrage::{build_schedule, BarrageConfig, LoadMode};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

/// Small enough for an unoptimized build, large enough to hold
/// file-dropping sessions for the clustering gate.
const TINY_SCALE: u64 = 100_000;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn specs(list: &[Spec]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|s| (s.name.to_string(), s.unit.to_string(), s.better.to_string()))
        .collect()
}

/// Metric names on a result line.
fn emitted(out: &Outcome, traced: bool) -> BTreeSet<String> {
    let line = metrics::result_json(out, traced);
    let Some(Json::Obj(pairs)) = line.get("metrics") else {
        panic!("result line has no metrics object");
    };
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

fn names(list: &[Spec]) -> BTreeSet<String> {
    list.iter().map(|s| s.name.to_string()).collect()
}

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), specs(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), specs(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(END_TO_END.iter().any(|s| s.name == "setup_s"));
}

#[test]
fn offline_analysis_emits_exactly_the_declared_metrics() {
    let work = work_dir("offline");
    let out = offline::run(7, 0.01, false, TINY_SCALE, &work, None).expect("untraced run");
    assert!(out.gate_failures.is_empty(), "{:?}", out.gate_failures);
    assert_eq!(emitted(&out, false), names(END_TO_END));
    for s in END_TO_END {
        let v = out.values.get(s.name).copied().unwrap_or(0.0);
        assert!(v > 0.0 && v.is_finite(), "{} = {v}", s.name);
    }

    let traced = offline::run(7, 0.01, true, TINY_SCALE, &work, None).expect("traced run");
    assert!(
        traced.gate_failures.is_empty(),
        "{:?}",
        traced.gate_failures
    );
    assert_eq!(emitted(&traced, true), names(PER_LAYER));
    for key in traced.values.keys() {
        assert!(names(PER_LAYER).contains(*key), "undeclared metric {key}");
    }
    assert!(traced.values["cluster.signatures"] > 0.0);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn traced_replay_covers_the_live_layers() {
    let work = work_dir("replay");
    let plans = build_schedule(&BarrageConfig {
        sessions: 300,
        mode: LoadMode::Closed {
            concurrency: 2,
            think: Duration::ZERO,
        },
        seed: 11,
        ..BarrageConfig::default()
    });
    let spans_path = work.join("spans.jsonl");
    let mut out = Outcome::default();
    let cfg = ReplayConfig {
        durable: true,
        rate: 1_500.0,
        render_every: Some(30),
    };
    trace::replay_live(&plans, cfg, &work, &mut out, Some(&spans_path)).expect("replay");
    for key in out.values.keys() {
        assert!(names(PER_LAYER).contains(*key), "undeclared metric {key}");
    }
    for key in [
        "sshwire.us_per_session",
        "sshwire.allocs_per_session",
        "shell.us_per_command",
        "collector.ingest_us",
        "wal.fsync_us_p50",
        "segment.seal_ms",
        "aggregator.push_us",
        "api.stats_json_us",
        "attribution.replay_us_per_session",
    ] {
        let v = out.values[key];
        assert!(v > 0.0 && v.is_finite(), "{key} = {v}");
    }
    let spans = std::fs::read_to_string(&spans_path).expect("spans written");
    let first = Json::parse(spans.lines().next().expect("one span")).expect("span line");
    for k in ["name", "start_ns", "end_ns", "parent", "session", "allocs"] {
        assert!(first.get(k).is_some(), "span line lacks {k}");
    }

    // Allocation counts repeat exactly.
    let mut again = Outcome::default();
    trace::replay_live(&plans, cfg, &work, &mut again, None).expect("replay");
    assert_eq!(
        out.values["sshwire.allocs_per_session"],
        again.values["sshwire.allocs_per_session"]
    );
    let _ = std::fs::remove_dir_all(&work);
}
