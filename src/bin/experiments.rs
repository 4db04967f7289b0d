//! Generates EXPERIMENTS.md: runs the full pipeline at the requested scale
//! and emits a paper-vs-measured markdown table for every table and figure.
//!
//! ```sh
//! cargo run --release --bin experiments -- 1000 > EXPERIMENTS.md
//! ```

use honeylab::core::{cluster, logins, mdrfckr, report, storage_analysis as sa};
use honeylab::prelude::*;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);
    let mut cfg = DriverConfig::default_scale(42);
    cfg.session_scale = scale;
    eprintln!("generating at 1:{scale}…");
    let t0 = std::time::Instant::now();
    let ds = generate_dataset(&cfg);
    let gen_time = t0.elapsed();
    eprintln!("{} sessions in {gen_time:?}; analysing…", ds.sessions.len());

    let cl = Classifier::table1();
    let stats = TaxonomyStats::compute(&ds.sessions);
    let events = sa::download_events(&ds.sessions);
    let ok_events = sa::successful_download_events(&ds.sessions);
    let st = sa::storage_stats(&events, &ds.abuse);

    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!("Generated by `cargo run --release --bin experiments -- {scale}`.");
    println!();
    println!(
        "Dataset: **{} sessions** generated in {:.1?} at session scale **1:{scale}**, \
         IP scale 1:{} (seed {}). Paper-scale equivalents in parentheses where \
         counts scale linearly. The reproduction target is *shape* (who wins, \
         when waves start/stop, where crossovers fall), not absolute counts — \
         the substrate is a simulator calibrated from the paper's published \
         aggregates (see DESIGN.md).",
        ds.sessions.len(),
        gen_time,
        cfg.ip_scale,
        cfg.seed
    );
    println!();

    // ------------------------------------------------------------ §3.3
    println!("## Dataset statistics (§3.3)");
    println!();
    println!("| metric | paper | measured (scaled) | paper-scale equiv. |");
    println!("|---|---|---|---|");
    let row = |name: &str, paper: &str, v: u64| {
        println!(
            "| {name} | {paper} | {v} | {} |",
            (v as u128 * scale as u128)
        );
    };
    row("total sessions", "635M", stats.total_sessions);
    row("SSH sessions", "546M", stats.ssh_sessions);
    row("scanning", "45M", stats.scanning);
    row("scouting", "258M", stats.scouting);
    row("intrusion", "80M", stats.intrusion);
    row("command execution", "163M", stats.command_execution);
    println!(
        "| unique SSH clients | >850k | {} | (IP scale 1:{}) |",
        stats.unique_ssh_clients, cfg.ip_scale
    );
    println!(
        "| ordering scout>cmd>intr>scan | holds | {} | — |",
        stats.ordering_matches_paper()
    );
    println!();

    // ------------------------------------------------------------ Fig 1
    let f1 = report::fig1(&ds.sessions);
    let med = |v: &Option<hutil::stats::BoxplotSummary>| v.as_ref().map_or(0.0, |s| s.median);
    let ix = |y: i32, m: u8| {
        f1.months
            .iter()
            .position(|x| *x == Month::new(y, m))
            .expect("month in range")
    };
    println!("## Fig. 1 — state-changing vs. non-state-changing command sessions");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| early-2022 spike in state-changing | yes | median {} (2021-12) → {} (2022-02) |",
        med(&f1.changing[ix(2021, 12)]),
        med(&f1.changing[ix(2022, 2)])
    );
    println!(
        "| 2023 shift toward exploration | yes | non-changing median {} (2022-06) → {} (2023-06) |",
        med(&f1.not_changing[ix(2022, 6)]),
        med(&f1.not_changing[ix(2023, 6)])
    );
    println!(
        "| non-changing dominates 2023+ | yes | {} vs {} (2023-06 medians) |",
        med(&f1.not_changing[ix(2023, 6)]),
        med(&f1.changing[ix(2023, 6)])
    );
    println!();

    // ------------------------------------------------------------ Fig 2
    let f2 = report::fig2(&ds.sessions, &cl);
    let t2 = f2.totals();
    let all2: u64 = t2.iter().map(|(_, c)| c).sum();
    println!("## Fig. 2 — non-state-changing bot categories");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| top bot | echo_OK >80% | {} {:.0}% |",
        t2[0].0,
        100.0 * t2[0].1 as f64 / all2 as f64
    );
    println!(
        "| top-3 share | >95% | {:.0}% ({}) |",
        100.0 * t2.iter().take(3).map(|(_, c)| c).sum::<u64>() as f64 / all2 as f64,
        t2.iter()
            .take(3)
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    // ------------------------------------------------------------ Fig 3
    let f3a = report::fig3a(&ds.sessions, &cl);
    let t3a = f3a.totals();
    let all3a: u64 = t3a.iter().map(|(_, c)| c).sum();
    let f3b = report::fig3b(&ds.sessions, &cl);
    println!("## Fig. 3 — state-changing sessions");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| 3a top bot | mdrfckr >90% | {} {:.0}% |",
        t3a[0].0,
        100.0 * t3a[0].1 as f64 / all3a as f64
    );
    let ex_ix = |y: i32, m: u8| {
        f3b.months
            .iter()
            .position(|x| *x == Month::new(y, m))
            .unwrap()
    };
    let h1_22: u64 = (0..6).map(|i| f3b.month_total(ex_ix(2022, 1) + i)).sum();
    let h1_24: u64 = (0..6).map(|i| f3b.month_total(ex_ix(2024, 1) + i)).sum();
    println!("| 3b exec sessions decline | clear decline from late 2022 | H1-2022 {h1_22} → H1-2024 {h1_24} |");
    let t3b = f3b.totals();
    println!(
        "| 3b top bots busybox-based | bb_5_diff_char_v2, bbox_unlabelled | {}, {} |",
        t3b[0].0, t3b[1].0
    );
    println!();

    // ------------------------------------------------------------ Fig 4
    let (f4e, f4m) = report::fig4(&ds.sessions, &cl);
    let year = |mc: &report::MonthlyCategories, y: i32| -> u64 {
        mc.months
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year == y)
            .map(|(i, _)| mc.month_total(i))
            .sum()
    };
    let (e_all, m_all): (u64, u64) = (
        (0..f4e.months.len()).map(|i| f4e.month_total(i)).sum(),
        (0..f4m.months.len()).map(|i| f4m.month_total(i)).sum(),
    );
    println!("## Fig. 4 — exec sessions: file exists vs. missing");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| exists vs missing totals | 3M vs 12M (1:4) | {e_all} vs {m_all} (1:{:.1}) |",
        m_all as f64 / e_all.max(1) as f64
    );
    println!(
        "| 'file exists' collapse | >100k/mo (2022) → ~5k/mo (2023) | {} (2022) → {} (2023) per year |",
        year(&f4e, 2022),
        year(&f4e, 2023)
    );
    println!();

    // --------------------------------------------------------- Fig 5/6
    let ca = report::cluster_analysis(&ds.sessions, &ds.abuse, 90, 42);
    let ks = [10usize, 30, 60, 90, 120];
    let t_cluster = std::time::Instant::now();
    let m = cluster::DistanceMatrix::build(&ca.signatures);
    let build_time = t_cluster.elapsed();
    let sweep = cluster::sweep_k(&m, &ca.weights, &ks, 42);
    let cluster_time = t_cluster.elapsed();
    println!("## Figs. 5/6 — token-DLD clustering (k = 90)");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| clustering input | 3M file sessions, 16,257 hashes | {} sessions, {} signatures, {} hashes |",
        ca.weights.iter().sum::<u64>(),
        ca.signatures.len(),
        ds.ground_truth.len()
    );
    let labelled_hashes = ds
        .ground_truth
        .keys()
        .filter(|h| ds.abuse.lookup(h).is_some())
        .count();
    println!(
        "| abuse-DB hash coverage | <5% | {:.1}% |",
        100.0 * labelled_hashes as f64 / ds.ground_truth.len().max(1) as f64
    );
    let top5 = ca.top_clusters(5);
    let top5_share: u64 = top5.iter().map(|(_, n)| n).sum();
    println!(
        "| top-5 labelled clusters | >90% of file sessions | {:.0}% |",
        100.0 * top5_share as f64 / ca.weights.iter().sum::<u64>() as f64
    );
    for (c, n) in &top5 {
        println!(
            "| Fig 6 cluster | C-1..C-6 incl. Mirai/Gafgyt/XorDDoS/CoinMiner | C-{} ({}) — {} sessions |",
            ca.display_rank(*c),
            ca.labels[*c],
            n
        );
    }
    for (k, w, s) in &sweep {
        println!("| k-sweep k={k} | elbow+silhouette → k=90 | WCSS {w:.1}, silhouette {s:.3} |");
    }
    let wcss: Vec<(usize, f64)> = sweep.iter().map(|&(k, w, _)| (k, w)).collect();
    println!(
        "| k-sweep elbow pick | k=90 | k={} |",
        cluster::select_k_elbow(&wcss)
    );
    println!();

    // ------------------------------------------- cluster engine scaling
    let n_sigs = ca.signatures.len();
    println!("## Cluster engine scaling (§6 hot path)");
    println!();
    println!(
        "Interned, packed-triangular engine over {n_sigs} signatures \
         ({} matrix cells): build {:.2?}, k-sweep {:.2?} (ks {:?}).",
        n_sigs * (n_sigs + 1) / 2,
        build_time,
        cluster_time - build_time,
        ks
    );
    if n_sigs <= 4_000 {
        // Small enough to afford the pre-optimisation dense/String path;
        // re-run it and pin the outputs identical while we're here.
        let t_naive = std::time::Instant::now();
        let dm = cluster::naive::DenseMatrix::build(&ca.signatures);
        let naive_build = t_naive.elapsed();
        let naive_sweep = cluster::naive::sweep_k(&dm, &ca.weights, &ks, 42);
        let naive_time = t_naive.elapsed();
        assert_eq!(sweep, naive_sweep, "optimised sweep diverged from naive");
        println!();
        println!(
            "Naive (dense `String` matrix) path: build {naive_build:.2?}, \
             end-to-end {naive_time:.2?} — **{:.1}× end-to-end speedup**, \
             sweep results bit-identical (asserted).",
            naive_time.as_secs_f64() / cluster_time.as_secs_f64()
        );
    }
    println!();

    // ------------------------------------------------------------ §7
    println!("## §7 / Figs. 7, 8, 9, 17 — malware storage locations");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| storage IP ≠ client IP | 80% | {:.0}% |",
        100.0 * st.different_ip_frac
    );
    println!(
        "| download clients vs storage IPs | 32k vs ~3k | {} vs {} |",
        st.unique_download_clients, st.unique_storage_ips
    );
    println!(
        "| storage IPs in abuse feeds | 56% | {:.0}% |",
        100.0 * st.storage_ip_reported_frac
    );
    let flows = sa::sankey_flows(&events, &ds.world.registry);
    let tot_fl: u64 = flows.iter().map(|f| f.events).sum();
    let c_isp: u64 = flows
        .iter()
        .filter(|f| f.client_type == asdb::AsType::IspNsp)
        .map(|f| f.events)
        .sum();
    let s_host: u64 = flows
        .iter()
        .filter(|f| f.storage_type == asdb::AsType::Hosting)
        .map(|f| f.events)
        .sum();
    println!(
        "| Fig 7 clients mostly ISP/NSP | yes | {:.0}% |",
        100.0 * c_isp as f64 / tot_fl as f64
    );
    println!(
        "| Fig 7 storage mostly Hosting/CDN | yes | {:.0}% hosting |",
        100.0 * s_host as f64 / tot_fl as f64
    );
    let census = sa::storage_as_census(&events, &ds.world.registry, cfg.window_end);
    println!(
        "| storage-AS census | 388 (358 hosting, 30 ISP, 36 down) | {} ({} hosting, {} ISP, {} down) |",
        census.total, census.hosting, census.isp, census.down
    );
    let age = sa::as_age_by_month(&events, &ds.world.registry);
    let (mut y1, mut y5, mut old) = (0u64, 0u64, 0u64);
    for v in age.values() {
        y1 += v[0];
        y5 += v[1];
        old += v[2];
    }
    let atot = (y1 + y5 + old).max(1) as f64;
    println!(
        "| Fig 8a AS age (cases) | >35% <1y, >70% <5y | {:.0}% <1y, {:.0}% <5y |",
        100.0 * y1 as f64 / atot,
        100.0 * (y1 + y5) as f64 / atot
    );
    let size = sa::as_size_by_month(&events, &ds.world.registry);
    let (mut one, mut small, mut big) = (0u64, 0u64, 0u64);
    for v in size.values() {
        one += v[0];
        small += v[1];
        big += v[2];
    }
    let stot = (one + small + big).max(1) as f64;
    println!(
        "| Fig 8b AS size | ~20% one /24, ~50% <50 | {:.0}% one /24, {:.0}% <50 |",
        100.0 * one as f64 / stot,
        100.0 * (one + small) as f64 / stot
    );
    let rows = sa::reuse_buckets_by_week(&ok_events, 7, cfg.window_start, cfg.window_end);
    let mut agg = vec![0u64; sa::FIG9_BUCKETS.len()];
    for (_, counts) in &rows {
        for (i, v) in counts.iter().enumerate() {
            agg[i] += v;
        }
    }
    let rtot: u64 = agg.iter().sum::<u64>().max(1);
    println!(
        "| Fig 9 1-week recall | ~50% 1-day, ~20% ≤4d, ~30% full week | {:.0}% / {:.0}% / {:.0}% |",
        100.0 * agg[0] as f64 / rtot as f64,
        100.0 * agg[1] as f64 / rtot as f64,
        100.0 * agg[2..].iter().sum::<u64>() as f64 / rtot as f64
    );
    println!(
        "| Fig 9 ≥6-month reappearance | ~25% | {:.0}% |",
        100.0 * sa::long_reappearance_frac(&ok_events)
    );
    let f17 = sa::as_type_by_month(&events, &ds.world.registry);
    let mut tt = [0u64; 4];
    for v in f17.values() {
        for i in 0..4 {
            tt[i] += v[i];
        }
    }
    println!(
        "| Fig 17 storage AS types | hosting-dominated | CDN {} / Hosting {} / ISP {} / Other {} |",
        tt[0], tt[1], tt[2], tt[3]
    );
    println!();

    // ------------------------------------------------------------ §8
    let top = logins::top_passwords(&ds.sessions, 5);
    let p3245 = logins::password_profile(&ds.sessions, "3245gs5662d34");
    let probes = logins::cowrie_default_probes(&ds.sessions);
    println!("## §8 / Figs. 10, 11 — login analysis");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| top-5 passwords | 3245gs5662d34, admin, 1234, dreambox, vertex25ektks123 | {} |",
        top.passwords.join(", ")
    );
    println!(
        "| 3245gs5662d34 onset | 2022-12-08 18:00 UTC | {} |",
        p3245.first_seen.map(|t| t.label()).unwrap_or_default()
    );
    println!(
        "| 3245gs5662d34 volume | 24M sessions / 125k IPs / 0 commands | {} / {} / {:.1}% commandless |",
        p3245.sessions,
        p3245.unique_ips,
        100.0 * p3245.no_command_frac
    );
    let dream = logins::password_profile(&ds.sessions, "dreambox");
    let vertex = logins::password_profile(&ds.sessions, "vertex25ektks123");
    println!(
        "| dreambox/vertex synchronised | yes | {} vs {} sessions |",
        dream.sessions, vertex.sessions
    );
    println!(
        "| Fig 11 phil probes | ~30k sessions, >10k IPs, >90% commandless | {} sessions, {} IPs, {:.0}% commandless |",
        probes.phil_success.values().sum::<u64>(),
        probes.phil_unique_ips,
        100.0 * probes.phil_no_command_frac
    );
    println!(
        "| richard never succeeds | deployment accepts phil only | richard tries {} , successes 0 |",
        probes.richard_tries.values().sum::<u64>()
    );
    println!();

    // ------------------------------------------------------------ §9
    let tl = mdrfckr::timeline(&ds.sessions);
    let dips = mdrfckr::detect_dips(&tl, 0.12);
    let documented = botnet::mdrfckr_dip_windows();
    let hits = documented
        .iter()
        .filter(|w| dips.iter().any(|(s, e)| *s <= w.end && *e >= w.start))
        .count();
    let b64 = mdrfckr::b64_analysis(
        &ds.sessions,
        &documented
            .iter()
            .map(|w| (w.start, w.end))
            .collect::<Vec<_>>(),
    );
    let vs = mdrfckr::variant_series(&ds.sessions);
    let first_variant = vs
        .monthly
        .iter()
        .find(|(_, v)| v[1] > 0)
        .map(|(m, _)| m.label());
    let (init_tot, var_tot) = vs
        .monthly
        .values()
        .fold((0u64, 0u64), |a, v| (a.0 + v[0], a.1 + v[1]));
    println!("## §9 / Figs. 12, 13 — mdrfckr case study");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| total mdrfckr sessions | 46M | {} ({} paper-scale) |",
        tl.daily.values().map(|(n, _)| n).sum::<u64>(),
        tl.daily.values().map(|(n, _)| n).sum::<u64>() as u128 * scale as u128
    );
    println!(
        "| dip windows rediscovered | 8 documented | {hits}/8 via threshold detector ({} raw dips) |",
        dips.len()
    );
    println!(
        "| variant onset | 2022-12 (with 3245gs5662d34) | {} |",
        first_variant.unwrap_or_default()
    );
    println!(
        "| variant scale | ~1 order of magnitude below initial | {init_tot} vs {var_tot} ({:.1}x) |",
        init_tot as f64 / var_tot.max(1) as f64
    );
    println!(
        "| IP overlap with 3245gs5662d34 | 99.4% | {:.1}% |",
        100.0 * mdrfckr::cred_overlap_frac(&ds.sessions)
    );
    println!(
        "| base64 uploads | dips only; 1,624 IPs; miner/shellbot/cleanup | {} uploads, {} IPs, kinds {:?}, reuse-free {} |",
        b64.sessions,
        b64.unique_uploader_ips,
        b64.by_payload.values().sum::<u64>(),
        b64.no_ip_reuse_across_dips
    );
    println!(
        "| cleanup script C2 IPs | 8, matching C2 feed | {} found, {} in feed |",
        b64.c2_ips.len(),
        b64.c2_ips
            .iter()
            .filter(|ip| ds.c2_list.contains(**ip))
            .count()
    );
    println!(
        "| Killnet overlap | 988 IPs | {} (IP scale 1:{}) |",
        mdrfckr::killnet_overlap(&ds.sessions, &ds.killnet),
        cfg.ip_scale
    );
    println!(
        "| compromised-key spread | >13k servers (Shadowserver) | {}/{} sensors carry the key |",
        mdrfckr::compromised_sensor_count(&ds.sessions),
        ds.fleet.len()
    );
    println!();

    // ----------------------------------------------------- Table 1 / App
    let coverage = report::classification_coverage(&ds.sessions, &cl);
    let f16 = report::fig16(&ds.sessions);
    let (u_e, u_m): (u64, u64) = f16
        .values()
        .fold((0, 0), |acc, (a, b)| (acc.0 + a, acc.1 + b));
    println!("## Table 1 and appendices");
    println!();
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| regex categories | 58 + unknown | {} + unknown |",
        cl.len()
    );
    println!(
        "| classification coverage | >99% | {:.2}% |",
        100.0 * coverage
    );
    let curl_sessions: Vec<_> = ds
        .sessions
        .iter()
        .filter(|s| s.command_text().contains("--max-redirs"))
        .collect();
    let curl_clients: std::collections::HashSet<_> =
        curl_sessions.iter().map(|s| s.client_ip).collect();
    let curls: usize = curl_sessions.iter().map(|s| s.commands.len()).sum();
    println!(
        "| App C curl abuse | 200k sessions / 4 IPs / 180 sensors / 20M curls | {} / {} / {} / {} |",
        curl_sessions.len(),
        curl_clients.len(),
        curl_sessions.iter().map(|s| s.honeypot_id).collect::<std::collections::HashSet<_>>().len(),
        curls
    );
    println!(
        "| App D unique exec commands | missing > exists variability | {u_m} unique missing vs {u_e} unique exists |"
    );
    println!();
    println!("---");
    println!();
    println!(
        "*Regenerate with `cargo run --release --bin experiments -- {scale}`; \
         figure-by-figure data prints via \
         `cargo run --release --example full_reproduction`, and \
         `cargo bench --bench figures` times each artefact.*"
    );
}
