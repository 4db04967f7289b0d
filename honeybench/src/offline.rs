//! `offline_analysis`: the analyst's path. A `botnet`-generated
//! sessiondb store is the set-up; the measured unit is one analyst pass
//! over the whole store — the six reports (`AnalysisBuilder`, all cores)
//! plus the §6 clustering (`DistanceMatrix::build` and `sweep_k`) over
//! the store's file-dropping signatures. No live layer runs, and
//! `sessiondb` is read here where the live workloads write it.

use crate::affinity::CpuSet;
use crate::calib::{self, undisturbed, HostSpeed, MAX_STOLEN};
use crate::procfs;
use crate::trace::{self, span};
use crate::{median, nproc, Outcome};
use honeylab_core::cluster::{self, naive, DistanceMatrix};
use honeylab_core::{api, report, tokens, AnalysisBuilder, Classifier, ReportKind, SessionSource};
use honeypot::{SessionRecord, SessionSink, SinkError};
use hutil::Json;
use sessiondb::{Store, StoreWriter};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Paper sessions per generated session: 1:4000 keeps three timed
/// generations plus the measured passes inside one run's time budget.
pub const SCALE: u64 = 4_000;
/// The `--smoke` scale.
pub const SMOKE_SCALE: u64 = 40_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The §6 k-selection sweep (Figs. 5/6).
const KS: [usize; 5] = [10, 30, 60, 90, 120];
/// Signatures clustered per pass: the first this many unique ones in
/// store order. The number a store holds varies with the seed (about
/// 600 to 1,000 at 1:4000) and the matrix costs O(n²), so an uncapped
/// corpus would make the pass time depend on the seed.
const CLUSTER_SIGNATURES: usize = 500;
/// Signatures compared against `cluster::naive`.
const ORACLE_PREFIX: usize = 200;
/// Timed runs per traced layer.
const LAYER_REPEATS: usize = 3;

/// The clustering input: unique signatures of the file-dropping command
/// sessions, with session weights — the dedup `report::cluster_analysis`
/// performs.
struct Corpus {
    signatures: Vec<Vec<String>>,
    weights: Vec<u64>,
    /// Command texts of every command-execution session (classify input).
    texts: Vec<String>,
}

fn corpus(store: &Store) -> Result<Corpus, String> {
    let mut ix: HashMap<Vec<String>, usize> = HashMap::new();
    let mut c = Corpus {
        signatures: Vec::new(),
        weights: Vec::new(),
        texts: Vec::new(),
    };
    for rec in store.scan().records() {
        let rec = rec.map_err(|e| format!("scan: {e}"))?;
        if !report::is_command_session(&rec) {
            continue;
        }
        let text = rec.command_text();
        if rec.dropped_hashes().next().is_some() && !rec.uris.is_empty() {
            let sig = tokens::signature(&text);
            match ix.get(&sig) {
                Some(&i) => c.weights[i] += 1,
                None if c.signatures.len() >= CLUSTER_SIGNATURES => {}
                None => {
                    ix.insert(sig.clone(), c.signatures.len());
                    c.signatures.push(sig);
                    c.weights.push(1);
                }
            }
        }
        c.texts.push(text);
    }
    Ok(c)
}

fn ks_for(n: usize) -> Vec<usize> {
    let ks: Vec<usize> = KS.iter().copied().filter(|&k| k <= n).collect();
    if ks.is_empty() && n > 0 {
        vec![n]
    } else {
        ks
    }
}

/// Times seals inside a generation: an append that fills a segment
/// includes its seal.
struct SealTimer {
    inner: StoreWriter,
    rows_per_segment: u64,
    seals_ms: Arc<Mutex<Vec<f64>>>,
}

impl SessionSink for SealTimer {
    fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
        let t = Instant::now();
        let sealing = (self.inner.rows() + 1).is_multiple_of(self.rows_per_segment);
        SessionSink::append(&mut self.inner, rec)?;
        if sealing {
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.seals_ms.lock().expect("seal list lock").push(ms);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        SessionSink::finish(&mut self.inner)
    }
}

/// Generates the store at `dir`; returns the wall time.
fn generate(
    seed: u64,
    scale: u64,
    dir: &Path,
    seals: Option<&Arc<Mutex<Vec<f64>>>>,
) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = botnet::DriverConfig::default_scale(seed);
    cfg.session_scale = scale;
    let t = Instant::now();
    let writer = StoreWriter::create(dir).map_err(|e| format!("create store: {e}"))?;
    let sink: Box<dyn SessionSink> = match seals {
        Some(seals) => Box::new(SealTimer {
            inner: writer,
            rows_per_segment: sessiondb::DEFAULT_ROWS_PER_SEGMENT as u64,
            seals_ms: Arc::clone(seals),
        }),
        None => Box::new(writer),
    };
    let ds = botnet::generate_dataset_into(&cfg, sink).map_err(|e| format!("generate: {e}"))?;
    let f = &ds.faults;
    if f.ingest.dropped + f.ingest.quarantined > 0 {
        return Err(format!("generation lost records: {f:?}"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// [`generate`] (single-threaded) on a thread pinned to the split's
/// first CPU set, so its time can be scaled by that CPU's speed.
fn generate_on(
    split: Option<&(CpuSet, CpuSet)>,
    seed: u64,
    scale: u64,
    dir: &Path,
    seals: Option<&Arc<Mutex<Vec<f64>>>>,
) -> Result<f64, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some((cpus, _)) = split {
                crate::affinity::pin(cpus).map_err(|e| format!("pin generator: {e}"))?;
            }
            generate(seed, scale, dir, seals)
        })
        .join()
        .map_err(|_| "generation thread panicked".to_string())?
    })
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for e in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        total += e.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

fn analyze(
    store: &Store,
    kinds: &[ReportKind],
    threads: usize,
) -> Result<honeylab_core::AnalysisReport, String> {
    AnalysisBuilder::new(SessionSource::Store(store))
        .reports(kinds.iter().copied())
        .threads(threads)
        .run()
        .map_err(|e| format!("analysis: {e}"))
}

/// Builds the matrix and sweeps k; returns (build s, sweep s).
fn cluster_pass(c: &Corpus) -> (f64, f64) {
    let ks = ks_for(c.signatures.len());
    let t = Instant::now();
    let m = span("cluster.build", || DistanceMatrix::build(&c.signatures));
    let build = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sweep = span("cluster.sweep", || {
        cluster::sweep_k(&m, &c.weights, &ks, 42)
    });
    std::hint::black_box(sweep);
    (build, t.elapsed().as_secs_f64())
}

fn kind_span(k: ReportKind) -> &'static str {
    match k {
        ReportKind::Taxonomy => "analysis.taxonomy",
        ReportKind::Categories => "analysis.categories",
        ReportKind::Passwords => "analysis.passwords",
        ReportKind::Probes => "analysis.probes",
        ReportKind::Downloads => "analysis.downloads",
        ReportKind::Mdrfckr => "analysis.mdrfckr",
    }
}

fn kind_metric(k: ReportKind) -> &'static str {
    match k {
        ReportKind::Taxonomy => "analysis.taxonomy_s",
        ReportKind::Categories => "analysis.categories_s",
        ReportKind::Passwords => "analysis.passwords_s",
        ReportKind::Probes => "analysis.probes_s",
        ReportKind::Downloads => "analysis.downloads_s",
        ReportKind::Mdrfckr => "analysis.mdrfckr_s",
    }
}

/// Runs the workload. `seconds` bounds the measured passes (at least
/// three run); `traced` swaps them for the per-layer measurements.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: u64,
    work: &Path,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = work.join("offline.hsdb");
    let seals = Arc::new(Mutex::new(Vec::new()));
    let split = crate::affinity::split(&crate::affinity::current()?);
    let (mut setups, mut setups_norm) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        let timed_seals = (traced && i + 1 == SETUPS).then_some(&seals);
        let before = HostSpeed::measure(split.as_ref())?;
        let steal0 = procfs::steal_ticks()?;
        let secs = generate_on(split.as_ref(), seed, scale, &dir, timed_seals)?;
        let stolen = procfs::stolen_share(steal0, procfs::steal_ticks()?, secs);
        let speed = HostSpeed::between(before, HostSpeed::measure(split.as_ref())?);
        setups.push(secs);
        setups_norm.push((secs / speed.server, stolen));
    }
    let store = Store::open(&dir).map_err(|e| format!("open store: {e}"))?;
    let summary = store.summary();
    let rows = summary.rows;
    out.gate(rows > 0, || "generated store is empty".into());
    let c = corpus(&store)?;
    out.detail.push((
        "store".into(),
        Json::obj([
            ("scale", Json::u64(scale)),
            ("rows", Json::u64(rows)),
            ("segments", Json::u64(summary.segments as u64)),
            ("signatures", Json::u64(c.signatures.len() as u64)),
            (
                "setup_runs_s",
                Json::arr(setups.iter().map(|&s| Json::Num(s))),
            ),
        ]),
    ));

    if traced {
        let speed = HostSpeed::measure(split.as_ref())?;
        out.set("host.server_cpu_slowdown", speed.server);
        out.set("host.generator_cpu_slowdown", speed.generator);
        let (steal0, t) = (procfs::steal_ticks()?, Instant::now());
        trace_layers(&store, &c, rows, &dir, &seals, &setups, &mut out, trace_out)?;
        let stolen =
            procfs::stolen_share(steal0, procfs::steal_ticks()?, t.elapsed().as_secs_f64());
        out.set("host.stolen_pct", stolen * 100.0);
    } else {
        out.set("setup_s", median(&undisturbed(&setups_norm)));
        measure_passes(&store, &c, rows, seconds, split.as_ref(), &mut out)?;
    }
    gates(&store, &c, rows, &mut out)?;
    out.failed = out.gate_failures.len() as u64;
    Ok(out)
}

/// The untraced analyst passes: end-to-end metrics, in time at
/// reference host speed (see `calib`; the passes use every CPU, so each
/// is scaled by the mean slowdown of the probes just before and after).
/// Passes disturbed by steal are set aside, and the loop runs on (by at
/// most half of `seconds`) until at least ten passes are undisturbed.
fn measure_passes(
    store: &Store,
    c: &Corpus,
    rows: u64,
    seconds: f64,
    split: Option<&(CpuSet, CpuSet)>,
    out: &mut Outcome,
) -> Result<(), String> {
    const WANT_CLEAN: usize = 10;
    let threads = nproc();
    // Warm-up: page cache, allocator, classifier compile paths.
    analyze(store, &ReportKind::ALL, threads)?;
    cluster_pass(c);
    let t0 = Instant::now();
    let mut probe = HostSpeed::measure(split)?;
    let (mut passes, mut analyze_s, mut cluster_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut norm, mut cpu_norm, mut stolen) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let t = t0.elapsed().as_secs_f64();
        let clean = stolen.iter().filter(|&&s| s <= MAX_STOLEN).count();
        if passes.len() >= 3 && t >= seconds && (clean >= WANT_CLEAN || t >= seconds * 1.5) {
            break;
        }
        let steal0 = procfs::steal_ticks()?;
        let cpu0 = procfs::process_ticks("self")?;
        let t = Instant::now();
        let r = analyze(store, &ReportKind::ALL, threads)?;
        let a = t.elapsed().as_secs_f64();
        out.gate(r.sessions == rows, || {
            format!("analysis saw {} of {rows} sessions", r.sessions)
        });
        let (build, sweep) = cluster_pass(c);
        let pass = t.elapsed().as_secs_f64();
        let cpu = (procfs::process_ticks("self")? - cpu0) as f64 / procfs::TICKS_PER_SEC;
        let s = procfs::stolen_share(steal0, procfs::steal_ticks()?, pass);
        let after = HostSpeed::measure(split)?;
        let speed = HostSpeed::between(probe, after).mean();
        probe = after;
        passes.push(pass);
        analyze_s.push(a);
        cluster_s.push(build + sweep);
        norm.push((pass / speed, s));
        cpu_norm.push((cpu / speed * 1e6 / rows as f64, s));
        stolen.push(s);
    }
    let pass = median(&undisturbed(&norm));
    out.attempted = passes.len() as u64;
    out.set("sessions_per_s", rows as f64 / pass);
    out.set("p50_ms", pass * 1e3);
    out.set("cpu_us_per_session", median(&undisturbed(&cpu_norm)));
    out.set(
        "rss_mb",
        procfs::status_kb("self", "VmHWM")? as f64 / 1024.0,
    );
    let list = |v: &[f64]| Json::arr(v.iter().map(|&s| Json::Num(s)));
    out.detail.push((
        "passes".into(),
        Json::obj([
            ("count", Json::u64(passes.len() as u64)),
            ("threads", Json::u64(threads as u64)),
            ("pass_s", list(&passes)),
            (
                "pass_at_reference_s",
                list(&norm.iter().map(|n| n.0).collect::<Vec<_>>()),
            ),
            ("stolen", list(&stolen)),
            ("analyze_s", list(&analyze_s)),
            ("cluster_s", list(&cluster_s)),
            ("analyze_median_s", Json::Num(median(&analyze_s))),
            ("cluster_median_s", Json::Num(median(&cluster_s))),
            ("pass_p90_s", Json::Num(crate::quantile(&passes, 0.9))),
        ]),
    ));
    Ok(())
}

/// The traced run: one number per analyst layer.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    store: &Store,
    c: &Corpus,
    rows: u64,
    dir: &Path,
    seals: &Arc<Mutex<Vec<f64>>>,
    setups: &[f64],
    out: &mut Outcome,
    trace_out: Option<&Path>,
) -> Result<(), String> {
    let threads = nproc();
    let n = rows as f64;
    out.attempted = 1;
    out.set("generate.sessions_per_s", n / median(setups));
    out.set("store.bytes_per_session", dir_bytes(dir)? as f64 / n);
    out.set(
        "segment.seal_ms",
        median(&seals.lock().expect("seal list lock")),
    );
    out.set("cluster.signatures", c.signatures.len() as f64);

    // Tracing overhead on the finest-grained span: one per classified
    // command text, first without spans, then with.
    // Both loops are scaled by the host speed probed around them.
    let cl = Classifier::table1();
    let speed0 = calib::slowdown();
    let t = Instant::now();
    for text in &c.texts {
        std::hint::black_box(cl.classify(text));
    }
    let plain = t.elapsed().as_secs_f64();
    let speed1 = calib::slowdown();
    trace::start(c.texts.len() + 64 + 16 * LAYER_REPEATS);
    let t = Instant::now();
    for text in &c.texts {
        span("classify", || std::hint::black_box(cl.classify(text)));
    }
    let spanned = t.elapsed().as_secs_f64() / ((speed1 + calib::slowdown()) / 2.0);
    let plain = plain / ((speed0 + speed1) / 2.0);
    out.set(
        "trace.overhead_pct",
        (spanned - plain) / plain.max(1e-9) * 100.0,
    );

    // Serial full scan with CRC decode.
    let scanned = span("scan", || {
        store.scan().records().filter(Result::is_ok).count()
    });
    out.gate(scanned as u64 == rows, || {
        format!("scan decoded {scanned} of {rows} rows")
    });

    // Each report alone: the shared scan plus that report's accumulator.
    for kind in ReportKind::ALL {
        let mut runs = Vec::new();
        for _ in 0..LAYER_REPEATS {
            let t = Instant::now();
            span(kind_span(kind), || analyze(store, &[kind], threads))?;
            runs.push(t.elapsed().as_secs_f64());
        }
        out.set(kind_metric(kind), median(&runs));
    }

    let (mut builds, mut sweeps) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPEATS {
        let (b, s) = cluster_pass(c);
        builds.push(b);
        sweeps.push(s);
    }
    out.set("cluster.build_s", median(&builds));
    out.set("cluster.sweep_s", median(&sweeps));

    let spans = trace::finish();
    let st = trace::self_stats(&spans);
    let get = |name: &str| st.get(name).cloned().unwrap_or_default();
    out.set("classify.us_per_text", get("classify").mean_us());
    out.set("scan.us_per_session", get("scan").self_ns as f64 / 1e3 / n);
    if let Some(path) = trace_out {
        trace::write_spans(path, &spans)?;
    }
    Ok(())
}

/// Correctness: the parallel analysis equals the serial one byte for
/// byte, and the interned clustering equals `cluster::naive`.
fn gates(store: &Store, c: &Corpus, rows: u64, out: &mut Outcome) -> Result<(), String> {
    let parallel = analyze(store, &ReportKind::ALL, nproc().max(2))?;
    let serial = analyze(store, &ReportKind::ALL, 1)?;
    out.gate(serial.sessions == rows, || {
        format!("serial analysis saw {} of {rows}", serial.sessions)
    });
    out.gate(
        api::analysis_json(&parallel).render() == api::analysis_json(&serial).render(),
        || "parallel analysis JSON differs from the threads(1) run".into(),
    );
    let n = c.signatures.len().min(ORACLE_PREFIX);
    let (sigs, ws) = (&c.signatures[..n], &c.weights[..n]);
    let ks = ks_for(n);
    let dense = naive::DenseMatrix::build(sigs);
    let packed = DistanceMatrix::build(sigs);
    let cells_equal = (0..n).all(|i| (0..n).all(|j| packed.get(i, j) == dense.get(i, j)));
    out.gate(cells_equal, || {
        "interned distance matrix differs from cluster::naive".into()
    });
    out.gate(
        n == 0 || cluster::sweep_k(&packed, ws, &ks, 42) == naive::sweep_k(&dense, ws, &ks, 42),
        || "interned k-sweep differs from cluster::naive".into(),
    );
    out.gate(!c.signatures.is_empty(), || {
        "store has no file-dropping signatures".into()
    });
    Ok(())
}
