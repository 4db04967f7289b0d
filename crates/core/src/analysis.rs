//! The unified analysis entry point.
//!
//! Before this module, every report had its own iterator-generic function
//! (`TaxonomyStats::compute`, `report::category_counts`,
//! `logins::top_passwords`, …) and every caller re-scanned the session
//! source once *per report* — six out-of-core passes over a store to print
//! one summary. [`AnalysisBuilder`] collapses them: pick a
//! [`SessionSource`], select [`ReportKind`]s (default: all), and one
//! streaming pass feeds every selected report's accumulator
//! simultaneously.
//!
//! ```no_run
//! use honeylab_core::analysis::{AnalysisBuilder, ReportKind, SessionSource};
//!
//! let store = sessiondb::Store::open("honeynet.hsdb")?;
//! let report = AnalysisBuilder::new(SessionSource::Store(&store))
//!     .report(ReportKind::Taxonomy)
//!     .report(ReportKind::Passwords)
//!     .top_n(20)
//!     .run()?;
//! let stats = report.taxonomy.unwrap();
//! # Ok::<(), honeylab_core::analysis::AnalysisError>(())
//! ```
//!
//! The per-report functions remain for callers that want exactly one
//! artefact; they now delegate to the same accumulators, so both paths
//! compute identical results.
//!
//! # Parallel map-reduce
//!
//! Every source runs through [`hutil::par::ordered_fold`] on
//! [`AnalysisBuilder::threads`] workers: it is partitioned (store segments
//! via `sessiondb::Store::par_fold`, which builds no record per row, or
//! contiguous slice chunks), each part folds into a private
//! `Accumulators` bundle, and the partials merge **in partition order**
//! as they finish. Every accumulator's `merge` is associative, and the
//! one order-sensitive accumulator (download events, a concatenation) is
//! why the order matters: the result is byte-identical for any thread
//! count.

use crate::classify::Classifier;
use crate::logins::{CowrieDefaultProbes, ProbeAccumulator, TopPasswords, TopPasswordsAccumulator};
use crate::mdrfckr::{Timeline, TimelineAccumulator};
use crate::report::ClassificationAccumulator;
use crate::storage_analysis::{DownloadAccumulator, DownloadEvent, StorageStats};
use crate::taxonomy::{TaxonomyAccumulator, TaxonomyStats};
use honeypot::{from_cowrie_log_lossy, SessionRecord};
use std::convert::Infallible;

/// The reports [`AnalysisBuilder`] can compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// §3.3 dataset statistics ([`TaxonomyStats`]).
    Taxonomy,
    /// Table 1 category histogram plus the §5 coverage fraction.
    Categories,
    /// Fig. 10 top accepted passwords.
    Passwords,
    /// Fig. 11 Cowrie-default fingerprinting probes.
    Probes,
    /// §7 download events and storage statistics.
    Downloads,
    /// §9 mdrfckr actor timeline.
    Mdrfckr,
}

impl ReportKind {
    /// Every report, in presentation order.
    pub const ALL: [ReportKind; 6] = [
        ReportKind::Taxonomy,
        ReportKind::Categories,
        ReportKind::Passwords,
        ReportKind::Probes,
        ReportKind::Downloads,
        ReportKind::Mdrfckr,
    ];

    /// The CLI name of this report.
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Taxonomy => "taxonomy",
            ReportKind::Categories => "categories",
            ReportKind::Passwords => "passwords",
            ReportKind::Probes => "probes",
            ReportKind::Downloads => "downloads",
            ReportKind::Mdrfckr => "mdrfckr",
        }
    }

    /// Parses a CLI name (the inverse of [`ReportKind::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        ReportKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Where the sessions come from. Every variant feeds the same streaming
/// pass; none requires the dataset in memory (the store variant decodes
/// one segment at a time).
#[derive(Debug, Clone, Copy)]
pub enum SessionSource<'a> {
    /// An in-memory slice (generator output, tests).
    Memory(&'a [SessionRecord]),
    /// An open sessiondb store, scanned out-of-core.
    Store(&'a sessiondb::Store),
    /// A Cowrie JSON-lines log, imported lossily (torn lines are
    /// reported, not fatal).
    CowrieLog(&'a str),
}

/// Analysis failure: the source could not be read.
#[derive(Debug)]
pub enum AnalysisError {
    /// A sessiondb scan failed (CRC mismatch, truncation, I/O).
    Store(sessiondb::SessionDbError),
    /// A Cowrie log yielded no recoverable session at all.
    NoRecoverableSessions {
        /// Non-empty lines in the log.
        lines_total: usize,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Store(e) => write!(f, "session store scan failed: {e}"),
            AnalysisError::NoRecoverableSessions { lines_total } => {
                write!(f, "no sessions recoverable from {lines_total} log lines")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<sessiondb::SessionDbError> for AnalysisError {
    fn from(e: sessiondb::SessionDbError) -> Self {
        AnalysisError::Store(e)
    }
}

/// Cowrie-import diagnostics carried alongside the reports.
#[derive(Debug, Clone, Default)]
pub struct ImportDiagnostics {
    /// Non-empty lines seen.
    pub lines_total: usize,
    /// Sessions recovered.
    pub recovered: usize,
    /// Per-line failures (line number, message, snippet).
    pub errors: Vec<honeypot::cowrie_log::LineError>,
}

/// Everything one [`AnalysisBuilder::run`] produced. Unselected reports
/// are `None`.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Sessions streamed through the pass.
    pub sessions: u64,
    /// §3.3 statistics.
    pub taxonomy: Option<TaxonomyStats>,
    /// Table 1 histogram, descending.
    pub categories: Option<Vec<(&'static str, u64)>>,
    /// §5 coverage fraction (with [`ReportKind::Categories`]).
    pub coverage: Option<f64>,
    /// Fig. 10 data.
    pub passwords: Option<TopPasswords>,
    /// Fig. 11 data.
    pub probes: Option<CowrieDefaultProbes>,
    /// §7 download events.
    pub downloads: Option<Vec<DownloadEvent>>,
    /// §7 headline statistics over those events.
    pub storage: Option<StorageStats>,
    /// §9 timeline.
    pub mdrfckr: Option<Timeline>,
    /// Cowrie-import diagnostics ([`SessionSource::CowrieLog`] only).
    pub import: Option<ImportDiagnostics>,
    /// Step-budget exhaustions recorded by the Table 1 classifier during
    /// this run (only meaningful with [`ReportKind::Categories`]; `0`
    /// otherwise). Non-zero means some command texts hit the
    /// backtracking bound mid-rule and the affected sessions may have
    /// fallen through to a later rule or to `unknown`.
    pub budget_exhaustions: u64,
}

/// The full set of per-report accumulators one pass (or one partition of
/// a parallel pass) folds into. Unselected reports stay `None` and cost
/// nothing per record.
struct Accumulators<'c> {
    sessions: u64,
    taxonomy: Option<TaxonomyAccumulator>,
    classification: Option<ClassificationAccumulator<'c>>,
    passwords: Option<TopPasswordsAccumulator>,
    probes: Option<ProbeAccumulator>,
    downloads: Option<DownloadAccumulator>,
    mdrfckr: Option<TimelineAccumulator>,
}

impl<'c> Accumulators<'c> {
    fn new(selected: &[ReportKind], cl: Option<&'c Classifier>, top_n: usize) -> Self {
        let want = |k: ReportKind| selected.contains(&k);
        Self {
            sessions: 0,
            taxonomy: want(ReportKind::Taxonomy).then(TaxonomyAccumulator::new),
            classification: cl.map(ClassificationAccumulator::new),
            passwords: want(ReportKind::Passwords).then(|| TopPasswordsAccumulator::new(top_n)),
            probes: want(ReportKind::Probes).then(ProbeAccumulator::new),
            downloads: want(ReportKind::Downloads).then(DownloadAccumulator::new),
            mdrfckr: want(ReportKind::Mdrfckr).then(TimelineAccumulator::new),
        }
    }

    fn push(&mut self, rec: &SessionRecord) {
        self.sessions += 1;
        if let Some(a) = &mut self.taxonomy {
            a.push(rec);
        }
        if let Some(a) = &mut self.classification {
            a.push(rec);
        }
        if let Some(a) = &mut self.passwords {
            a.push(rec);
        }
        if let Some(a) = &mut self.probes {
            a.push(rec);
        }
        if let Some(a) = &mut self.downloads {
            a.push(rec);
        }
        if let Some(a) = &mut self.mdrfckr {
            a.push(rec);
        }
    }

    /// Absorbs a later partition's partials. Callers must merge in
    /// ascending partition order: download events are concatenated, so
    /// order is what makes the parallel event list identical to the
    /// serial one.
    fn merge(&mut self, other: Self) {
        self.sessions += other.sessions;
        if let (Some(a), Some(b)) = (&mut self.taxonomy, other.taxonomy) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.classification, other.classification) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.passwords, other.passwords) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.probes, other.probes) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.downloads, other.downloads) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.mdrfckr, other.mdrfckr) {
            a.merge(b);
        }
    }

    fn finish_into(self, out: &mut AnalysisReport) {
        out.sessions = self.sessions;
        out.taxonomy = self.taxonomy.map(TaxonomyAccumulator::finish);
        if let Some(a) = self.classification {
            out.coverage = Some(a.coverage());
            out.categories = Some(a.finish());
        }
        out.passwords = self.passwords.map(TopPasswordsAccumulator::finish);
        out.probes = self.probes.map(ProbeAccumulator::finish);
        if let Some(a) = self.downloads {
            let events = a.finish();
            out.storage = Some(crate::storage_analysis::storage_stats(
                &events,
                &abusedb::AbuseDb::default(),
            ));
            out.downloads = Some(events);
        }
        out.mdrfckr = self.mdrfckr.map(TimelineAccumulator::finish);
    }
}

/// Folds a slice cut into `threads` contiguous chunks, one part each.
fn fold_chunks<'c>(
    slice: &[SessionRecord],
    threads: usize,
    make: impl Fn() -> Accumulators<'c> + Sync,
) -> Accumulators<'c> {
    let chunks: Vec<&[SessionRecord]> =
        slice.chunks(slice.len().div_ceil(threads).max(1)).collect();
    let folded = hutil::par::ordered_fold(
        chunks.len(),
        threads,
        make(),
        |i| {
            let mut acc = make();
            chunks[i].iter().for_each(|rec| acc.push(rec));
            Ok::<_, Infallible>(acc)
        },
        Accumulators::merge,
    );
    let Ok(acc) = folded;
    acc
}

/// Builder for one combined analysis pass. See the module docs.
#[derive(Debug)]
pub struct AnalysisBuilder<'a> {
    source: SessionSource<'a>,
    reports: Vec<ReportKind>,
    top_n: usize,
    threads: usize,
}

impl<'a> AnalysisBuilder<'a> {
    /// A builder over `source` with no report selected yet (running with
    /// an empty selection computes all of them).
    pub fn new(source: SessionSource<'a>) -> Self {
        Self {
            source,
            reports: Vec::new(),
            top_n: 10,
            threads: 1,
        }
    }

    /// Selects one report (duplicates are ignored).
    pub fn report(mut self, kind: ReportKind) -> Self {
        if !self.reports.contains(&kind) {
            self.reports.push(kind);
        }
        self
    }

    /// Selects several reports at once.
    pub fn reports(mut self, kinds: impl IntoIterator<Item = ReportKind>) -> Self {
        for k in kinds {
            self = self.report(k);
        }
        self
    }

    /// How many top passwords to keep (default 10).
    pub fn top_n(mut self, n: usize) -> Self {
        self.top_n = n;
        self
    }

    /// Worker threads for the streaming pass (default 1; `0` is treated
    /// as 1). The source is partitioned — store segments, or one
    /// contiguous slice chunk per thread — and per-partition partials are
    /// merged in partition order, so the result is byte-identical at any
    /// thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Runs every selected report in a single streaming pass over the
    /// source.
    pub fn run(self) -> Result<AnalysisReport, AnalysisError> {
        let selected: &[ReportKind] = if self.reports.is_empty() {
            &ReportKind::ALL
        } else {
            &self.reports
        };

        // The classifier is only built when the categories report needs
        // it (it compiles the full Table 1 rule set).
        let cl = selected
            .contains(&ReportKind::Categories)
            .then(Classifier::table1);
        let make = || Accumulators::new(selected, cl.as_ref(), self.top_n);

        let mut out = AnalysisReport::default();
        let acc = match self.source {
            SessionSource::Memory(slice) => fold_chunks(slice, self.threads, make),
            SessionSource::Store(store) => store.par_fold(
                self.threads,
                make,
                |acc, rec| acc.push(rec),
                Accumulators::merge,
            )?,
            SessionSource::CowrieLog(log) => {
                let import = from_cowrie_log_lossy(log);
                if import.sessions.is_empty() && !import.errors.is_empty() {
                    return Err(AnalysisError::NoRecoverableSessions {
                        lines_total: import.lines_total,
                    });
                }
                let acc = fold_chunks(&import.sessions, self.threads, make);
                out.import = Some(ImportDiagnostics {
                    lines_total: import.lines_total,
                    recovered: import.sessions.len(),
                    errors: import.errors,
                });
                acc
            }
        };

        acc.finish_into(&mut out);
        out.budget_exhaustions = cl.as_ref().map_or(0, |c| c.budget_exhaustions());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logins;
    use crate::report;
    use botnet::{generate_dataset, Dataset, DriverConfig};

    fn ds() -> &'static Dataset {
        static DS: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
        DS.get_or_init(|| generate_dataset(&DriverConfig::test_scale(23)))
    }

    #[test]
    fn builder_matches_the_per_report_functions() {
        let d = ds();
        let all = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
            .run()
            .expect("memory source is infallible");
        assert_eq!(all.sessions, d.sessions.len() as u64);

        assert_eq!(
            all.taxonomy.as_ref().unwrap(),
            &TaxonomyStats::compute(&d.sessions)
        );
        let cl = Classifier::table1();
        assert_eq!(
            all.categories.as_ref().unwrap(),
            &report::category_counts(&d.sessions, &cl)
        );
        assert_eq!(
            all.coverage.unwrap(),
            report::classification_coverage(&d.sessions, &cl)
        );
        let top = logins::top_passwords(&d.sessions, 10);
        assert_eq!(all.passwords.as_ref().unwrap().passwords, top.passwords);
        assert_eq!(all.passwords.as_ref().unwrap().by_month, top.by_month);
        let probes = logins::cowrie_default_probes(&d.sessions);
        assert_eq!(
            all.probes.as_ref().unwrap().phil_unique_ips,
            probes.phil_unique_ips
        );
        let events = crate::storage_analysis::download_events(&d.sessions);
        assert_eq!(all.downloads.as_ref().unwrap().len(), events.len());
        let tl = crate::mdrfckr::timeline(&d.sessions);
        assert_eq!(all.mdrfckr.as_ref().unwrap().daily, tl.daily);
    }

    #[test]
    fn selection_limits_what_runs() {
        let d = ds();
        let r = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
            .report(ReportKind::Taxonomy)
            .run()
            .unwrap();
        assert!(r.taxonomy.is_some());
        assert!(r.categories.is_none());
        assert!(r.coverage.is_none());
        assert!(r.passwords.is_none());
        assert!(r.probes.is_none());
        assert!(r.downloads.is_none());
        assert!(r.storage.is_none());
        assert!(r.mdrfckr.is_none());
        assert!(r.import.is_none());
    }

    #[test]
    fn cowrie_source_reports_import_diagnostics() {
        let d = ds();
        let slice = &d.sessions[..200.min(d.sessions.len())];
        let mut log = honeypot::to_cowrie_log(slice);
        log.push_str("this is not json\n");
        let r = AnalysisBuilder::new(SessionSource::CowrieLog(&log))
            .report(ReportKind::Taxonomy)
            .run()
            .unwrap();
        let diag = r.import.expect("cowrie source carries diagnostics");
        assert_eq!(diag.recovered as u64, r.sessions);
        assert_eq!(diag.errors.len(), 1);
        assert_eq!(r.taxonomy.unwrap().total_sessions, r.sessions);
    }

    #[test]
    fn hopeless_cowrie_log_is_an_error() {
        let r = AnalysisBuilder::new(SessionSource::CowrieLog("garbage\nmore garbage\n")).run();
        match r {
            Err(AnalysisError::NoRecoverableSessions { lines_total }) => {
                assert_eq!(lines_total, 2)
            }
            other => panic!("expected NoRecoverableSessions, got {other:?}"),
        }
    }

    /// Field by field, the order-sensitive download list included.
    fn reports_equal(a: &AnalysisReport, b: &AnalysisReport) {
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.taxonomy, b.taxonomy);
        assert_eq!(a.categories, b.categories);
        assert_eq!(a.coverage, b.coverage);
        let pw = |r: &AnalysisReport| r.passwords.clone().map(|p| (p.passwords, p.by_month));
        assert_eq!(pw(a), pw(b));
        let pr = |r: &AnalysisReport| {
            r.probes.clone().map(|p| {
                (
                    p.phil_success,
                    p.richard_tries,
                    p.phil_unique_ips,
                    p.phil_no_command_frac,
                )
            })
        };
        assert_eq!(pr(a), pr(b));
        assert_eq!(a.downloads, b.downloads);
        assert_eq!(a.storage, b.storage);
        assert_eq!(
            a.mdrfckr.as_ref().map(|t| &t.daily),
            b.mdrfckr.as_ref().map(|t| &t.daily)
        );
        assert_eq!(a.import.is_some(), b.import.is_some());
        assert_eq!(a.budget_exhaustions, b.budget_exhaustions);
    }

    #[test]
    fn parallel_memory_run_is_identical_to_serial() {
        let d = ds();
        let serial = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
            .run()
            .unwrap();
        for threads in [2, 3, 8] {
            let par = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
                .threads(threads)
                .run()
                .unwrap();
            reports_equal(&par, &serial);
        }
    }

    /// The store source against its oracle: the memory source over the
    /// same rows, read back through the owned scan.
    #[test]
    fn store_source_equals_memory_over_its_rows() {
        let d = ds();
        let dir = std::env::temp_dir().join(format!("analysis-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Small segments, so the download events spread over many parts.
        let mut w = sessiondb::StoreWriter::with_rows_per_segment(&dir, 16).unwrap();
        for rec in &d.sessions {
            honeypot::SessionSink::append(&mut w, rec).unwrap();
        }
        honeypot::SessionSink::finish(&mut w).unwrap();
        let store = sessiondb::Store::open(&dir).unwrap();
        let rows: Vec<SessionRecord> = store.scan().records().collect::<Result<_, _>>().unwrap();

        let oracle = AnalysisBuilder::new(SessionSource::Memory(&rows))
            .run()
            .unwrap();
        assert!(oracle.downloads.as_ref().unwrap().len() > 1);
        for threads in 1..=4 {
            let from_store = AnalysisBuilder::new(SessionSource::Store(&store))
                .threads(threads)
                .run()
                .unwrap();
            reports_equal(&from_store, &oracle);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_store_run_surfaces_corruption() {
        let d = ds();
        let dir = std::env::temp_dir().join(format!("analysis-parcorrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = sessiondb::StoreWriter::with_rows_per_segment(&dir, 16).unwrap();
        for rec in &d.sessions {
            honeypot::SessionSink::append(&mut w, rec).unwrap();
        }
        honeypot::SessionSink::finish(&mut w).unwrap();

        // Flip one byte in the middle of a mid-store segment.
        let seg = dir.join("seg-000002.hsdb");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        let store = sessiondb::Store::open(&dir).unwrap();
        let r = AnalysisBuilder::new(SessionSource::Store(&store))
            .threads(4)
            .run();
        assert!(
            matches!(r, Err(AnalysisError::Store(_))),
            "corrupted segment must fail the parallel run, got {r:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_exhaustions_surface_in_the_report() {
        let d = ds();
        let with_cats = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
            .report(ReportKind::Categories)
            .run()
            .unwrap();
        // The generated corpus is benign; the diagnostic exists and is 0.
        assert_eq!(with_cats.budget_exhaustions, 0);
        let without = AnalysisBuilder::new(SessionSource::Memory(&d.sessions))
            .report(ReportKind::Taxonomy)
            .run()
            .unwrap();
        assert_eq!(without.budget_exhaustions, 0);
    }

    #[test]
    fn report_kind_names_round_trip() {
        for k in ReportKind::ALL {
            assert_eq!(ReportKind::parse(k.name()), Some(k));
        }
        assert_eq!(ReportKind::parse("nonsense"), None);
    }
}
