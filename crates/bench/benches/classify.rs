//! Prefiltered vs naive multi-pattern classification throughput.
//!
//! Both paths classify the same corpus — every command text in the shared
//! benchmark dataset — and the naive path is the pre-prefilter
//! implementation (`Classifier::classify_naive`), so the ratio is exactly
//! what the prefilter bought. Each path's time is the best of five
//! sweeps; `scripts/bench_snapshot.sh` checks the result in as
//! `BENCH_classify.json`.
//!
//! ```text
//! cargo bench --bench classify                    # print the numbers
//! cargo bench --bench classify -- --json OUT.json # also write the snapshot
//! ```

use honeylab_bench::{dataset, decimal, Bench};
use honeylab_core::classify::Classifier;
use hutil::Json;

/// One command text per command session in the benchmark dataset (the
/// same `join("\n")` the analysis pipeline classifies).
fn corpus() -> Vec<String> {
    dataset()
        .sessions
        .iter()
        .filter(|s| !s.commands.is_empty())
        .map(|s| {
            s.commands
                .iter()
                .map(|c| c.input.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect()
}

fn main() {
    let mut bench = Bench::from_args("classify");
    let texts = corpus();
    let bytes: usize = texts.iter().map(String::len).sum();
    let cl = Classifier::table1();
    eprintln!(
        "classify bench: {} texts, {} bytes, {} rules ({} prefiltered, {} fallback)",
        texts.len(),
        bytes,
        cl.len(),
        cl.prefiltered_rules(),
        cl.fallback_rules()
    );
    bench.field("corpus_texts", Json::u64(texts.len() as u64));
    bench.field("corpus_bytes", Json::u64(bytes as u64));
    bench.field("rules", Json::u64(cl.len() as u64));
    bench.field(
        "prefiltered_rules",
        Json::u64(cl.prefiltered_rules() as u64),
    );
    bench.field("fallback_rules", Json::u64(cl.fallback_rules() as u64));

    // Each sweep returns a checksum so the labels cannot be optimized away.
    let sweep_naive = || -> u64 {
        texts
            .iter()
            .map(|t| cl.classify_naive(t).len() as u64)
            .sum()
    };
    let sweep_pref = || -> u64 { texts.iter().map(|t| cl.classify(t).len() as u64).sum() };

    // The two sweeps must agree before their times mean anything.
    assert_eq!(sweep_naive(), sweep_pref(), "prefilter changed results");

    let naive = bench.time("naive", 5, sweep_naive).min.as_secs_f64();
    let pref = bench.time("prefiltered", 5, sweep_pref).min.as_secs_f64();
    let speedup = naive / pref;
    let naive_tps = texts.len() as f64 / naive;
    let pref_tps = texts.len() as f64 / pref;

    println!("naive       {naive:>9.4} s   {naive_tps:>12.0} texts/s");
    println!("prefiltered {pref:>9.4} s   {pref_tps:>12.0} texts/s");
    println!("speedup     {speedup:>9.2}x");

    bench.field("naive_secs", decimal(naive, 6));
    bench.field("prefiltered_secs", decimal(pref, 6));
    bench.field("naive_texts_per_sec", decimal(naive_tps, 0));
    bench.field("prefiltered_texts_per_sec", decimal(pref_tps, 0));
    bench.field("speedup", decimal(speedup, 2));
    bench.finish();
}
