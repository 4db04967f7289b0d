//! sessiondb storage benches: write throughput, cold out-of-core scans
//! (owned records, and rows folded in place on one worker and on all
//! CPUs), and the zone-map win — a one-month window scan against the
//! obvious baseline of re-parsing the whole Cowrie JSON log and filtering.
//!
//! The store is built once per bench binary from the shared dataset; the
//! cold-scan benches reopen it every iteration so segment metadata loading
//! is included in the measured cost.

use honeylab_bench::{dataset, Bench};
use honeypot::{from_cowrie_log_lossy, to_cowrie_log};
use hutil::Date;
use sessiondb::{Store, StoreWriter};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The shared on-disk store (written once per bench binary).
fn store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("honeylab-bench.hsdb");
        std::fs::remove_dir_all(&dir).ok();
        let mut w = StoreWriter::create(&dir).expect("create store");
        for r in &dataset().sessions {
            w.append(r).expect("append");
        }
        let segs = w.finish().expect("finish").len();
        println!(
            "sessiondb bench store: {} sessions in {segs} segments",
            dataset().sessions.len()
        );
        dir
    })
}

/// The same dataset as a Cowrie JSON-lines log (the baseline format).
fn cowrie_log() -> &'static String {
    static LOG: OnceLock<String> = OnceLock::new();
    LOG.get_or_init(|| to_cowrie_log(&dataset().sessions))
}

fn bench_write(bench: &mut Bench) {
    let ds = dataset();
    let dir = std::env::temp_dir().join("honeylab-bench-write.hsdb");
    bench.time("sessiondb_write", 12, || {
        std::fs::remove_dir_all(&dir).ok();
        let mut w = StoreWriter::create(&dir).expect("create store");
        for r in &ds.sessions {
            w.append(r).expect("append");
        }
        w.finish().expect("finish").len()
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_cold_scan(bench: &mut Bench) {
    let dir = store_dir();
    bench.time("sessiondb_cold_scan", 12, || {
        let store = Store::open(dir).expect("open store");
        store
            .scan()
            .records()
            .inspect(|r| assert!(r.is_ok()))
            .count()
    });
    // The same rows folded in place: no record per row. One worker, then
    // all CPUs.
    bench.time("sessiondb_fold_scan", 12, || {
        let store = Store::open(dir).expect("open store");
        store
            .par_fold(1, || 0u64, |rows, _| *rows += 1, |a, b| *a += b)
            .expect("clean store")
    });
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    bench.time("sessiondb_cold_par_scan", 12, || {
        let store = Store::open(dir).expect("open store");
        store
            .par_fold(workers, || 0u64, |rows, _| *rows += 1, |a, b| *a += b)
            .expect("clean store")
    });
    // The baseline an analyst without the store pays: re-parse the whole
    // JSON-lines log. The acceptance bar is cold scan beating this.
    let log = cowrie_log();
    bench.time("json_reparse_baseline", 12, || {
        from_cowrie_log_lossy(log).sessions.len()
    });
}

fn bench_month_scan(bench: &mut Bench) {
    let dir = store_dir();
    let lo = Date::new(2023, 6, 1).at_midnight();
    let hi = Date::new(2023, 7, 1).at_midnight(); // half-open: July 1 excluded
    {
        let store = Store::open(dir).expect("open store");
        let total = store.summary().segments;
        let live = store.segments().filter(|m| m.overlaps(lo, hi)).count();
        println!("zone map: {live}/{total} segments survive the June 2023 window");
        assert!(live < total, "pruning must discard out-of-window segments");
    }
    bench.time("sessiondb_month_scan", 12, || {
        let store = Store::open(dir).expect("open store");
        store
            .scan_window(lo, hi)
            .records()
            .inspect(|r| assert!(r.is_ok()))
            .count()
    });
    let log = cowrie_log();
    bench.time("json_reparse_month_baseline", 12, || {
        from_cowrie_log_lossy(log)
            .sessions
            .iter()
            .filter(|s| s.start >= lo && s.start < hi)
            .count()
    });
}

fn main() {
    let mut bench = Bench::from_args("sessiondb");
    bench_write(&mut bench);
    bench_cold_scan(&mut bench);
    bench_month_scan(&mut bench);
    bench.finish();
}
