//! One timing per paper artefact: each id regenerates a table or figure's
//! data from the shared dataset (ids as in DESIGN.md §4). The artefacts
//! themselves are printed against the paper's numbers by the
//! `experiments` binary and their shapes asserted by `tests/figures.rs`.

use honeylab_bench::{dataset, generate_bench_config, Bench};
use honeylab_core::classify::Classifier;
use honeylab_core::taxonomy::TaxonomyStats;
use honeylab_core::{cluster, logins, mdrfckr, report, storage_analysis as sa};

fn main() {
    let mut bench = Bench::from_args("figures");
    // Dataset generation itself (the honeynet + attacker ecosystem).
    let cfg = generate_bench_config();
    bench.time("generate/dataset_1_to_20000", 10, || {
        botnet::generate_dataset(&cfg).sessions.len()
    });

    let ds = dataset();
    let s = &ds.sessions;
    let cl = Classifier::table1();
    let registry = &ds.world.registry;
    bench.time("table_dataset_stats", 12, || TaxonomyStats::compute(s));
    bench.time("fig01_state_split", 12, || report::fig1(s));
    bench.time("fig02_scout_categories", 12, || report::fig2(s, &cl));
    bench.time("fig03_state_change_categories", 12, || {
        (report::fig3a(s, &cl), report::fig3b(s, &cl))
    });
    bench.time("fig04_file_exists_missing", 12, || report::fig4(s, &cl));
    bench.time("fig05_06/clustering_k90", 10, || {
        report::cluster_analysis(s, &ds.abuse, 90, 42)
    });

    let events = sa::download_events(s);
    bench.time("fig07_sankey", 12, || sa::sankey_flows(&events, registry));
    bench.time("fig08_as_age_size", 12, || {
        (
            sa::as_age_by_month(&events, registry),
            sa::as_size_by_month(&events, registry),
        )
    });
    let ok_events = sa::successful_download_events(s);
    let (start, end) = (ds.config.window_start, ds.config.window_end);
    bench.time("fig09_ip_reuse", 12, || {
        sa::reuse_buckets_by_week(&ok_events, 7, start, end)
    });

    bench.time("fig10_top_passwords", 12, || logins::top_passwords(s, 5));
    bench.time("fig11_cowrie_defaults", 12, || {
        logins::cowrie_default_probes(s)
    });
    bench.time("fig12_13_mdrfckr", 12, || {
        let tl = mdrfckr::timeline(s);
        (mdrfckr::detect_dips(&tl, 0.12), mdrfckr::variant_series(s))
    });
    bench.time("fig14_intercategory_dld", 12, || report::fig14(s, &cl, 8));
    bench.time("fig15_16_17_appendices", 12, || {
        (report::fig16(s), sa::as_type_by_month(&events, registry))
    });

    let texts: Vec<String> = report::command_sessions(s)
        .iter()
        .take(2_000)
        .map(|s| s.command_text())
        .collect();
    bench.time("table1_classify_2k_sessions", 12, || {
        texts
            .iter()
            .filter(|t| cl.classify(t) != honeylab_core::UNKNOWN_LABEL)
            .count()
    });

    // The §6 k-choice: `experiments` prints the sweep and its elbow pick.
    let ca = report::cluster_analysis(s, &ds.abuse, 2, 42);
    let m = cluster::DistanceMatrix::build(&ca.signatures);
    bench.time("cluster_selection/k_sweep", 10, || {
        cluster::sweep_k(&m, &ca.weights, &[30, 90], 42)
    });
    bench.finish();
}
