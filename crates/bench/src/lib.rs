//! The honeylab benchmark harness: the shared dataset and one timing loop.
//!
//! Every target in `benches/` is a `harness = false` binary that builds a
//! [`Bench`] from its arguments, times each id through [`Bench::time`],
//! and ends with [`Bench::finish`]. Two flags mean the same in every
//! target:
//!
//! * `--json PATH` — [`Bench::finish`] writes the snapshot
//!   `{"bench": name, <fields>, "rows": [...]}` to `PATH`;
//! * `--smoke` — the dataset shrinks to `DriverConfig::test_scale(42)`,
//!   each [`Bench::time`] makes one call, and nothing is written, so
//!   `cargo bench -p honeylab-bench -- --smoke` runs every target's
//!   asserts in seconds.
//!
//! ```text
//! cargo bench -p honeylab-bench --bench figures -- --json BENCH_figures.json
//! ```

use botnet::{generate_dataset, Dataset, DriverConfig};
use hutil::Json;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The scale used by the benchmark harness (paper sessions per generated
/// session). 1:2000 keeps a full `cargo bench` run in minutes while
/// preserving every qualitative shape; EXPERIMENTS.md records a 1:1000 run.
pub const BENCH_SCALE: u64 = 2_000;

/// How long [`Bench::time`] calls its routine before sampling; the number
/// of calls that fit is the number each sample times.
const WARMUP: Duration = Duration::from_millis(20);

/// Whether this process was started with `--smoke` (read once).
pub fn smoke() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| std::env::args().any(|a| a == "--smoke"))
}

/// The shared benchmark dataset (generated on first use).
pub fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| generate_dataset(&bench_config()))
}

/// The benchmark generator configuration: 1:[`BENCH_SCALE`], or
/// `test_scale(42)` under `--smoke`.
pub fn bench_config() -> DriverConfig {
    if smoke() {
        return DriverConfig::test_scale(42);
    }
    let mut cfg = DriverConfig::default_scale(42);
    cfg.session_scale = BENCH_SCALE;
    cfg.ip_scale = 60;
    cfg
}

/// The configuration `generate/dataset_1_to_20000` actually times:
/// 1:20 000, ten times lighter than [`BENCH_SCALE`], so its timed
/// generations stay short. Kept here (not patched inline in the bench) so
/// the scale divergence from [`bench_config`] is explicit.
pub fn generate_bench_config() -> DriverConfig {
    let mut cfg = bench_config();
    if !smoke() {
        cfg.session_scale = BENCH_SCALE * 10;
    }
    cfg
}

/// Per-call wall time of one id over its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// The fastest sample.
    pub min: Duration,
    /// The middle sample (the upper one of an even count).
    pub median: Duration,
    /// The slowest sample.
    pub max: Duration,
}

/// One bench target's timings and snapshot fields.
#[derive(Debug)]
pub struct Bench {
    name: String,
    json: Option<PathBuf>,
    fields: Vec<(String, Json)>,
    rows: Vec<Json>,
}

impl Bench {
    /// A harness for the target `name`, reading `--json PATH` from the
    /// process arguments.
    pub fn from_args(name: &str) -> Bench {
        let args: Vec<String> = std::env::args().collect();
        let json = args
            .iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        Bench {
            name: name.to_string(),
            json,
            fields: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Times `f`: calls it until 20 ms have passed (at least once), which
    /// fixes the calls per sample, then takes `samples` samples and
    /// divides each by its calls. Prints the median and the best, and
    /// records one snapshot row. Under `--smoke`, one call, no warm-up.
    pub fn time<T>(
        &mut self,
        id: impl Into<String>,
        samples: usize,
        mut f: impl FnMut() -> T,
    ) -> Timing {
        assert!(samples > 0, "a timing needs at least one sample");
        let id = id.into();
        let (calls, mut times) = if smoke() {
            let t0 = Instant::now();
            black_box(f());
            (1, vec![t0.elapsed()])
        } else {
            let start = Instant::now();
            let mut calls: u32 = 0;
            loop {
                black_box(f());
                calls += 1;
                if start.elapsed() >= WARMUP {
                    break;
                }
            }
            let times = (0..samples)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..calls {
                        black_box(f());
                    }
                    t0.elapsed() / calls
                })
                .collect();
            (calls, times)
        };
        times.sort_unstable();
        let timing = Timing {
            min: times[0],
            median: times[times.len() / 2],
            max: times[times.len() - 1],
        };
        println!(
            "bench: {id:<48} {:>12.2?}/iter  best {:>12.2?}",
            timing.median, timing.min
        );
        let ns = |d: Duration| Json::u64(d.as_nanos() as u64);
        self.rows.push(Json::obj([
            ("id", Json::str(id)),
            ("samples", Json::u64(times.len() as u64)),
            ("iters_per_sample", Json::u64(u64::from(calls))),
            ("min_ns", ns(timing.min)),
            ("median_ns", ns(timing.median)),
            ("max_ns", ns(timing.max)),
        ]));
        timing
    }

    /// Adds a top-level snapshot field; fields keep insertion order.
    pub fn field(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_string(), value));
    }

    /// Writes the snapshot to the `--json` path, if one was given (never
    /// under `--smoke`).
    pub fn finish(self) {
        let Some(path) = self.json.filter(|_| !smoke()) else {
            return;
        };
        let mut doc = vec![("bench".to_string(), Json::str(self.name))];
        doc.extend(self.fields);
        doc.push(("rows".to_string(), Json::Arr(self.rows)));
        std::fs::write(&path, Json::Obj(doc).pretty()).expect("write json snapshot");
        eprintln!("wrote {}", path.display());
    }
}

/// `x` rounded to `places` decimals, as the snapshot number a
/// `{x:.places$}` format would print.
pub fn decimal(x: f64, places: usize) -> Json {
    Json::Num(
        format!("{x:.places$}")
            .parse()
            .expect("a formatted f64 parses back"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(json: Option<PathBuf>) -> Bench {
        Bench {
            name: "harness".to_string(),
            json,
            fields: Vec::new(),
            rows: Vec::new(),
        }
    }

    #[test]
    fn time_orders_its_statistics_and_records_one_row_per_call() {
        let mut b = bench(None);
        for (id, samples) in [("sum", 3), ("sum_again", 5)] {
            let t = b.time(id, samples, || (0u64..1_000).map(black_box).sum::<u64>());
            assert!(t.min <= t.median && t.median <= t.max, "{t:?}");
            let row = b.rows.last().expect("one row per call");
            assert_eq!(row.get("id").and_then(Json::as_str), Some(id));
            assert_eq!(
                row.get("samples").and_then(Json::as_i64),
                Some(samples as i64)
            );
            assert!(row.get("iters_per_sample").and_then(Json::as_i64) >= Some(1));
            assert_eq!(
                row.get("min_ns").and_then(Json::as_i64),
                Some(t.min.as_nanos() as i64)
            );
        }
        assert_eq!(b.rows.len(), 2);
    }

    #[test]
    fn a_call_longer_than_the_warmup_is_sampled_once_per_sample() {
        let mut b = bench(None);
        let mut calls = 0;
        b.time("slow", 2, || {
            calls += 1;
            std::thread::sleep(WARMUP + Duration::from_millis(5));
        });
        assert_eq!(calls, 3, "one warm-up call plus one call per sample");
        let row = &b.rows[0];
        assert_eq!(row.get("iters_per_sample").and_then(Json::as_i64), Some(1));
        assert!(row.get("min_ns").and_then(Json::as_i64) >= Some(WARMUP.as_nanos() as i64));
    }

    #[test]
    fn finish_writes_name_fields_in_order_and_rows() {
        let path = std::env::temp_dir().join(format!(
            "honeylab-bench-harness-{}.json",
            std::process::id()
        ));
        let mut b = bench(Some(path.clone()));
        b.field("zeta", Json::u64(1));
        b.field("alpha", decimal(0.1234567, 6));
        b.field("ks", Json::arr([Json::u64(10), Json::u64(30)]));
        b.time("noop", 1, || 1u64);
        b.finish();
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        std::fs::remove_file(&path).ok();
        let doc = Json::parse(&text).expect("snapshot is JSON");
        let Json::Obj(pairs) = &doc else {
            panic!("snapshot is an object: {text}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "zeta", "alpha", "ks", "rows"]);
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("harness"));
        assert_eq!(doc.get("alpha").and_then(Json::as_f64), Some(0.123457));
        let rows = doc.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("id").and_then(Json::as_str), Some("noop"));
    }
}
