//! Interned/triangular vs naive §6 clustering throughput.
//!
//! Both paths run the same end-to-end pipeline — distance-matrix build
//! plus the k-selection sweep — over the same signature corpus extracted
//! from the shared benchmark dataset, best of three runs each
//! (`BENCH_cluster.json` via `scripts/bench_snapshot.sh`):
//!
//! * **naive** — the pre-optimisation path kept verbatim in
//!   `cluster::naive`: dense `n × n` matrix over heap `String` tokens,
//!   fresh DP rows per pair, per-cluster member re-filtering.
//! * **interned** — the rebuilt hot path: `u32`-interned tokens, packed
//!   upper triangle filled by the tile scheduler with per-worker scratch,
//!   FastPAM-style cached k-medoids.
//!
//! The two pipelines are asserted byte-identical (every matrix cell, every
//! medoid/assignment, every sweep tuple) *before* any timing, so the ratio
//! measures representation and scheduling only — never a different answer.
//!
//! ```text
//! cargo bench --bench cluster                    # print the numbers
//! cargo bench --bench cluster -- --json OUT.json # also write the snapshot
//! cargo bench --bench cluster -- --smoke         # tier-1: tiny corpus, 1 run
//! cargo bench --bench cluster -- --scaling       # EXPERIMENTS.md prefix table
//! ```

use honeylab_bench::{dataset, decimal, smoke, Bench};
use honeylab_core::cluster::{self, naive, DistanceMatrix};
use honeylab_core::{report, tokens};
use hutil::Json;

/// The k-selection sweep the experiments binary runs (Figs. 5/6).
const KS: &[usize] = &[10, 30, 60, 90, 120];

/// Unique signatures + session weights of the file-dropping sessions, the
/// exact dedup the §6 pipeline performs in `report::cluster_analysis`.
fn corpus(sessions: &[honeypot::SessionRecord]) -> (Vec<Vec<String>>, Vec<u64>) {
    let mut ix = std::collections::HashMap::new();
    let mut signatures: Vec<Vec<String>> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for s in report::command_sessions(sessions) {
        if s.dropped_hashes().next().is_none() || s.uris.is_empty() {
            continue;
        }
        let sig = tokens::signature(&s.command_text());
        match ix.get(&sig) {
            Some(&i) => weights[i] += 1,
            None => {
                ix.insert(sig.clone(), signatures.len());
                signatures.push(sig);
                weights.push(1);
            }
        }
    }
    (signatures, weights)
}

/// Checksum over a sweep result (k, wcss, silhouette) — bit-exact, so both
/// paths must produce identical floats to produce identical sums.
fn sweep_checksum(sweep: &[(usize, f64, f64)]) -> u64 {
    sweep.iter().fold(0u64, |acc, &(k, w, s)| {
        acc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64)
            .wrapping_add(w.to_bits())
            .wrapping_add(s.to_bits())
    })
}

/// Times both pipelines (best of two) over growing prefixes of the corpus
/// and prints the EXPERIMENTS.md cluster-scaling markdown table.
fn scaling_table(bench: &mut Bench, signatures: &[Vec<String>], weights: &[u64], ks: &[usize]) {
    let mut table = Vec::new();
    for &n in &[250usize, 500, 1000, signatures.len()] {
        if n > signatures.len() {
            continue;
        }
        let (sigs, ws) = (&signatures[..n], &weights[..n]);
        let ks: Vec<usize> = ks.iter().copied().filter(|&k| k <= n).collect();
        let run_naive = || {
            let m = naive::DenseMatrix::build(sigs);
            sweep_checksum(&naive::sweep_k(&m, ws, &ks, 42))
        };
        let run_fast = || {
            let m = DistanceMatrix::build(sigs);
            sweep_checksum(&cluster::sweep_k(&m, ws, &ks, 42))
        };
        assert_eq!(run_naive(), run_fast(), "checksums diverged at n={n}");
        let naive_secs = bench.time(format!("scaling/naive_{n}"), 2, run_naive).min;
        let fast_secs = bench.time(format!("scaling/interned_{n}"), 2, run_fast).min;
        table.push(format!(
            "| {n} | {:.3} s | {:.3} s | {:.1}× |",
            naive_secs.as_secs_f64(),
            fast_secs.as_secs_f64(),
            naive_secs.as_secs_f64() / fast_secs.as_secs_f64()
        ));
    }
    println!("| signatures | naive build + sweep | interned build + sweep | speedup |");
    println!("|---|---|---|---|");
    for row in table {
        println!("{row}");
    }
}

fn main() {
    let mut bench = Bench::from_args("cluster");
    let scaling = std::env::args().any(|a| a == "--scaling");

    let (signatures, weights) = corpus(&dataset().sessions);
    let n = signatures.len();
    let ks: Vec<usize> = KS.iter().copied().filter(|&k| k <= n.max(1)).collect();
    let ks = if ks.is_empty() { vec![1] } else { ks };
    eprintln!(
        "cluster bench: {} signatures ({} sessions), ks {:?}{}",
        n,
        weights.iter().sum::<u64>(),
        ks,
        if smoke() { " [smoke]" } else { "" }
    );
    if scaling {
        scaling_table(&mut bench, &signatures, &weights, KS);
        return;
    }

    // ------------------------------------------------- equivalence gate
    // Every cell, every clustering, every sweep tuple must match before
    // the timings mean anything.
    let dense = naive::DenseMatrix::build(&signatures);
    let packed = DistanceMatrix::build(&signatures);
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                packed.get(i, j),
                dense.get(i, j),
                "matrix cell ({i}, {j}) diverged"
            );
        }
    }
    for &k in &ks {
        let fast = cluster::k_medoids(&packed, &weights, k, 42);
        let slow = naive::k_medoids(&dense, &weights, k, 42);
        assert_eq!(fast.medoids, slow.medoids, "medoids diverged at k={k}");
        assert_eq!(
            fast.assignment, slow.assignment,
            "assignment diverged at k={k}"
        );
    }
    let sweep_fast = cluster::sweep_k(&packed, &weights, &ks, 42);
    let sweep_slow = naive::sweep_k(&dense, &weights, &ks, 42);
    assert_eq!(sweep_fast, sweep_slow, "k-sweep diverged");
    eprintln!("equivalence: all cells, clusterings, and sweeps identical");
    drop((dense, packed));

    // ---------------------------------------------------------- timing
    // End-to-end: matrix build + full k-selection sweep.
    let run_naive = || {
        let m = naive::DenseMatrix::build(&signatures);
        sweep_checksum(&naive::sweep_k(&m, &weights, &ks, 42))
    };
    let run_fast = || {
        let m = DistanceMatrix::build(&signatures);
        sweep_checksum(&cluster::sweep_k(&m, &weights, &ks, 42))
    };
    assert_eq!(run_naive(), run_fast(), "checksums diverged");

    const RUNS: usize = 3;
    let secs = |t: honeylab_bench::Timing| t.min.as_secs_f64();
    let naive_secs = secs(bench.time("naive_end_to_end", RUNS, run_naive));
    let fast_secs = secs(bench.time("interned_end_to_end", RUNS, run_fast));
    let speedup = naive_secs / fast_secs;

    // Matrix build alone, to show where the time went.
    let naive_build = secs(bench.time("naive_build", RUNS, || {
        naive::DenseMatrix::build(&signatures).len()
    }));
    let fast_build = secs(bench.time("interned_build", RUNS, || {
        DistanceMatrix::build(&signatures).len()
    }));
    let build_speedup = naive_build / fast_build;

    println!("naive    end-to-end {naive_secs:>9.4} s   build {naive_build:>9.4} s");
    println!("interned end-to-end {fast_secs:>9.4} s   build {fast_build:>9.4} s");
    println!("speedup  end-to-end {speedup:>9.2}x   build {build_speedup:>9.2}x");

    bench.field("signatures", Json::u64(n as u64));
    bench.field("sessions", Json::u64(weights.iter().sum()));
    bench.field("ks", Json::arr(ks.iter().map(|&k| Json::u64(k as u64))));
    bench.field("naive_secs", decimal(naive_secs, 6));
    bench.field("interned_secs", decimal(fast_secs, 6));
    bench.field("naive_build_secs", decimal(naive_build, 6));
    bench.field("interned_build_secs", decimal(fast_build, 6));
    bench.field("speedup", decimal(speedup, 2));
    bench.field("build_speedup", decimal(build_speedup, 2));
    bench.finish();
}
