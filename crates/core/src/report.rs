//! Figure and table generators (one per paper artefact) plus plain-text
//! renderers used by the benches and examples.

use crate::classify::Classifier;
use crate::cluster::{self, Clustering, DistanceMatrix};
use crate::coverage::{MonthlyCoverage, COVERAGE_GAP_THRESHOLD};
use crate::taxonomy::{SessionClass, TaxonomyStats};
use crate::tokens;
use abusedb::AbuseDb;
use honeypot::SessionRecord;
use hutil::stats::BoxplotSummary;
use hutil::{Date, Month};
use std::collections::{BTreeMap, HashMap};

/// Whether one session is a command-execution SSH session (what §5
/// analyses).
pub fn is_command_session(s: &SessionRecord) -> bool {
    s.protocol == honeypot::Protocol::Ssh && SessionClass::of(s) == SessionClass::CommandExecution
}

/// Filters to command-execution SSH sessions.
pub fn command_sessions(sessions: &[SessionRecord]) -> Vec<&SessionRecord> {
    sessions.iter().filter(|s| is_command_session(s)).collect()
}

/// Fig. 1: per month, the daily-count distributions of state-changing vs
/// non-state-changing command sessions.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Months in order.
    pub months: Vec<Month>,
    /// Boxplot of daily counts of state-changing sessions per month.
    pub changing: Vec<Option<BoxplotSummary>>,
    /// Same for non-state-changing sessions.
    pub not_changing: Vec<Option<BoxplotSummary>>,
}

/// Builds Fig. 1.
pub fn fig1(sessions: &[SessionRecord]) -> Fig1 {
    let mut daily: BTreeMap<Date, (u64, u64)> = BTreeMap::new();
    for s in command_sessions(sessions) {
        let e = daily.entry(s.start.date()).or_default();
        if s.paper_state_changing() {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let months = study_months(sessions);
    let mut changing = Vec::with_capacity(months.len());
    let mut not_changing = Vec::with_capacity(months.len());
    for m in &months {
        let ch: Vec<f64> = daily
            .iter()
            .filter(|(d, _)| d.month_of() == *m)
            .map(|(_, (c, _))| *c as f64)
            .collect();
        let nc: Vec<f64> = daily
            .iter()
            .filter(|(d, _)| d.month_of() == *m)
            .map(|(_, (_, n))| *n as f64)
            .collect();
        changing.push(BoxplotSummary::from_values(&ch));
        not_changing.push(BoxplotSummary::from_values(&nc));
    }
    Fig1 {
        months,
        changing,
        not_changing,
    }
}

/// Per-figure-month observed-coverage fractions, aligned with a figure's
/// month axis. Months outside the coverage calendar read as fully
/// observed.
pub fn coverage_series(months: &[Month], mc: &MonthlyCoverage) -> Vec<f64> {
    months
        .iter()
        .map(|m| mc.index_of(*m).map_or(1.0, |i| mc.fraction(i)))
        .collect()
}

/// Fig. 1 with a coverage column: each month carries the fraction of
/// sensor-days that were actually observing, so a depressed boxplot in a
/// low-coverage month is not read as an attack-rate change.
#[derive(Debug, Clone)]
pub struct Fig1Cov {
    /// The unannotated figure.
    pub fig: Fig1,
    /// Observed-coverage fraction per figure month.
    pub coverage: Vec<f64>,
}

/// Builds Fig. 1 annotated with monthly coverage.
pub fn fig1_with_coverage(sessions: &[SessionRecord], mc: &MonthlyCoverage) -> Fig1Cov {
    let fig = fig1(sessions);
    let coverage = coverage_series(&fig.months, mc);
    Fig1Cov { fig, coverage }
}

/// Builds Fig. 2 plus its aligned coverage series.
pub fn fig2_with_coverage(
    sessions: &[SessionRecord],
    cl: &Classifier,
    mc: &MonthlyCoverage,
) -> (MonthlyCategories, Vec<f64>) {
    let fig = fig2(sessions, cl);
    let coverage = coverage_series(&fig.months, mc);
    (fig, coverage)
}

/// A monthly stacked-category figure (Figs. 2, 3a, 3b, 4a, 4b, 6, 17 share
/// this shape): per month, counts per category label.
#[derive(Debug, Clone, Default)]
pub struct MonthlyCategories {
    /// Months in order.
    pub months: Vec<Month>,
    /// Category labels.
    pub labels: Vec<String>,
    /// `counts[m][l]` = sessions of label `l` in month `m`.
    pub counts: Vec<Vec<u64>>,
}

impl MonthlyCategories {
    fn from_events(events: impl Iterator<Item = (Month, String)>, months: Vec<Month>) -> Self {
        let mut label_ix: HashMap<String, usize> = HashMap::new();
        let mut labels: Vec<String> = Vec::new();
        let month_ix: HashMap<Month, usize> =
            months.iter().enumerate().map(|(i, m)| (*m, i)).collect();
        let mut counts: Vec<Vec<u64>> = vec![Vec::new(); months.len()];
        for (month, label) in events {
            let Some(&mi) = month_ix.get(&month) else {
                continue;
            };
            let li = *label_ix.entry(label.clone()).or_insert_with(|| {
                labels.push(label.clone());
                labels.len() - 1
            });
            if counts[mi].len() < labels.len() {
                counts[mi].resize(labels.len(), 0);
            }
            counts[mi][li] += 1;
        }
        for row in &mut counts {
            row.resize(labels.len(), 0);
        }
        Self {
            months,
            labels,
            counts,
        }
    }

    /// Total sessions in month index `mi`.
    pub fn month_total(&self, mi: usize) -> u64 {
        self.counts[mi].iter().sum()
    }

    /// The top-`k` labels of month `mi` by count.
    pub fn top_labels(&self, mi: usize, k: usize) -> Vec<(&str, u64)> {
        let idx = hutil::stats::top_k_indices(&self.counts[mi], k);
        idx.into_iter()
            .filter(|&i| self.counts[mi][i] > 0)
            .map(|i| (self.labels[i].as_str(), self.counts[mi][i]))
            .collect()
    }

    /// Aggregate totals per label across all months, descending.
    pub fn totals(&self) -> Vec<(String, u64)> {
        let mut t: Vec<u64> = vec![0; self.labels.len()];
        for row in &self.counts {
            for (i, c) in row.iter().enumerate() {
                t[i] += c;
            }
        }
        let mut out: Vec<(String, u64)> = self.labels.iter().cloned().zip(t).collect();
        out.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        out
    }

    /// Renders a compact text table: months as rows, top labels as columns.
    pub fn render(&self, title: &str, top: usize) -> String {
        let mut out = format!("== {title} ==\n");
        let totals = self.totals();
        let cols: Vec<&str> = totals.iter().take(top).map(|(l, _)| l.as_str()).collect();
        out.push_str(&format!("{:<9}", "month"));
        for c in &cols {
            out.push_str(&format!(" {c:>22}"));
        }
        out.push_str(&format!(" {:>10}\n", "total"));
        for (mi, m) in self.months.iter().enumerate() {
            out.push_str(&format!("{:<9}", m.label()));
            for c in &cols {
                let li = self
                    .labels
                    .iter()
                    .position(|l| l == c)
                    .expect("label exists");
                out.push_str(&format!(" {:>22}", self.counts[mi][li]));
            }
            out.push_str(&format!(" {:>10}\n", self.month_total(mi)));
        }
        out
    }
}

fn study_months(sessions: &[SessionRecord]) -> Vec<Month> {
    let (first, last) = match (sessions.first(), sessions.last()) {
        (Some(f), Some(l)) => (f.start.date().month_of(), l.start.date().month_of()),
        _ => return Vec::new(),
    };
    Month::range_inclusive(first, last).collect()
}

/// Fig. 2: categories of non-state-changing command sessions.
pub fn fig2(sessions: &[SessionRecord], cl: &Classifier) -> MonthlyCategories {
    let months = study_months(sessions);
    MonthlyCategories::from_events(
        command_sessions(sessions)
            .into_iter()
            .filter(|s| !s.paper_state_changing())
            .map(|s| {
                (
                    s.start.date().month_of(),
                    cl.classify(&s.command_text()).to_string(),
                )
            }),
        months,
    )
}

/// Fig. 3a: categories of sessions that add/modify/delete files without
/// executing any.
pub fn fig3a(sessions: &[SessionRecord], cl: &Classifier) -> MonthlyCategories {
    let months = study_months(sessions);
    MonthlyCategories::from_events(
        command_sessions(sessions)
            .into_iter()
            .filter(|s| s.changes_state() && !s.attempts_exec())
            .map(|s| {
                (
                    s.start.date().month_of(),
                    cl.classify(&s.command_text()).to_string(),
                )
            }),
        months,
    )
}

/// Fig. 3b: categories of sessions attempting to execute files.
pub fn fig3b(sessions: &[SessionRecord], cl: &Classifier) -> MonthlyCategories {
    let months = study_months(sessions);
    MonthlyCategories::from_events(
        command_sessions(sessions)
            .into_iter()
            .filter(|s| s.attempts_exec())
            .map(|s| {
                (
                    s.start.date().month_of(),
                    cl.classify(&s.command_text()).to_string(),
                )
            }),
        months,
    )
}

/// Fig. 4: exec sessions split by whether the executed file existed.
pub fn fig4(sessions: &[SessionRecord], cl: &Classifier) -> (MonthlyCategories, MonthlyCategories) {
    let months = study_months(sessions);
    let exec: Vec<&SessionRecord> = command_sessions(sessions)
        .into_iter()
        .filter(|s| s.attempts_exec())
        .collect();
    let exists = MonthlyCategories::from_events(
        exec.iter()
            .filter(|s| s.exec_hashes().next().is_some())
            .map(|s| {
                (
                    s.start.date().month_of(),
                    cl.classify(&s.command_text()).to_string(),
                )
            }),
        months.clone(),
    );
    let missing = MonthlyCategories::from_events(
        exec.iter()
            .filter(|s| s.exec_hashes().next().is_none() && s.has_missing_exec())
            .map(|s| {
                (
                    s.start.date().month_of(),
                    cl.classify(&s.command_text()).to_string(),
                )
            }),
        months,
    );
    (exists, missing)
}

/// Fig. 16 (Appendix D): unique exec-session command texts per month,
/// split by file-exists vs file-missing.
pub fn fig16(sessions: &[SessionRecord]) -> BTreeMap<Month, (u64, u64)> {
    let mut uniq: BTreeMap<
        Month,
        (
            std::collections::HashSet<String>,
            std::collections::HashSet<String>,
        ),
    > = BTreeMap::new();
    for s in command_sessions(sessions)
        .into_iter()
        .filter(|s| s.attempts_exec())
    {
        let m = s.start.date().month_of();
        let e = uniq.entry(m).or_default();
        if s.exec_hashes().next().is_some() {
            e.0.insert(s.command_text());
        } else if s.has_missing_exec() {
            e.1.insert(s.command_text());
        }
    }
    uniq.into_iter()
        .map(|(m, (a, b))| (m, (a.len() as u64, b.len() as u64)))
        .collect()
}

/// The §6 cluster analysis backing Figs. 5 and 6.
pub struct ClusterAnalysis {
    /// Unique session signatures.
    pub signatures: Vec<Vec<String>>,
    /// Session count per signature.
    pub weights: Vec<u64>,
    /// The clustering.
    pub clustering: Clustering,
    /// Display order of clusters (ascending mean token count).
    pub order: Vec<usize>,
    /// Family label per cluster (in raw cluster index space), derived by
    /// cross-referencing member file hashes with the abuse database.
    pub labels: Vec<String>,
    /// Sessions per (month, cluster).
    pub monthly: BTreeMap<Month, Vec<u64>>,
    /// Medoid-to-medoid normalized DLD, in display order (Fig. 5).
    pub medoid_matrix: Vec<Vec<f64>>,
}

/// Runs the clustering pipeline over sessions that loaded files onto the
/// honeypot (paper: 3M such sessions, 16,257 hashes, k = 90).
pub fn cluster_analysis(
    sessions: &[SessionRecord],
    abuse: &AbuseDb,
    k: usize,
    seed: u64,
) -> ClusterAnalysis {
    // Sessions with captured files.
    let file_sessions: Vec<&SessionRecord> = command_sessions(sessions)
        .into_iter()
        .filter(|s| s.dropped_hashes().next().is_some() && !s.uris.is_empty())
        .collect();
    // Dedupe by signature, weighting by session count.
    let mut sig_ix: HashMap<Vec<String>, usize> = HashMap::new();
    let mut signatures: Vec<Vec<String>> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    let mut members: Vec<Vec<&SessionRecord>> = Vec::new();
    for s in &file_sessions {
        let sig = tokens::signature(&s.command_text());
        match sig_ix.get(&sig) {
            Some(&i) => {
                weights[i] += 1;
                members[i].push(s);
            }
            None => {
                sig_ix.insert(sig.clone(), signatures.len());
                signatures.push(sig);
                weights.push(1);
                members.push(vec![s]);
            }
        }
    }
    let matrix = DistanceMatrix::build(&signatures);
    let clustering = cluster::k_medoids(&matrix, &weights, k, seed);
    let order = cluster::order_by_avg_tokens(&signatures, &weights, &clustering);

    // Label clusters by family votes from abuse lookups of member hashes.
    let mut labels = vec![String::from("unlabelled"); clustering.k()];
    for (c, label) in labels.iter_mut().enumerate() {
        let mut votes: BTreeMap<&'static str, u64> = BTreeMap::new();
        for i in clustering.members(c) {
            for s in &members[i] {
                for h in s.dropped_hashes() {
                    if let Some(f) = abuse.lookup(h) {
                        *votes.entry(f.label()).or_default() += 1;
                    }
                }
            }
        }
        if !votes.is_empty() {
            let mut v: Vec<(&str, u64)> = votes.into_iter().collect();
            v.sort_by_key(|entry| std::cmp::Reverse(entry.1));
            *label = v
                .iter()
                .take(4)
                .map(|(f, _)| *f)
                .collect::<Vec<_>>()
                .join(", ");
        }
    }

    // Monthly sessions per cluster.
    let mut monthly: BTreeMap<Month, Vec<u64>> = BTreeMap::new();
    for (i, ms) in members.iter().enumerate() {
        let c = clustering.assignment[i];
        for s in ms {
            let row = monthly
                .entry(s.start.date().month_of())
                .or_insert_with(|| vec![0; clustering.k()]);
            row[c] += 1;
        }
    }

    // Fig. 5 medoid matrix in display order.
    let medoid_matrix: Vec<Vec<f64>> = order
        .iter()
        .map(|&a| {
            order
                .iter()
                .map(|&b| matrix.get(clustering.medoids[a], clustering.medoids[b]))
                .collect()
        })
        .collect();

    ClusterAnalysis {
        signatures,
        weights,
        clustering,
        order,
        labels,
        monthly,
        medoid_matrix,
    }
}

impl ClusterAnalysis {
    /// Total sessions per cluster, descending — Fig. 6's top-5 selection.
    pub fn top_clusters(&self, n: usize) -> Vec<(usize, u64)> {
        let k = self.clustering.k();
        let mut totals = vec![0u64; k];
        for row in self.monthly.values() {
            for (c, v) in row.iter().enumerate() {
                totals[c] += v;
            }
        }
        let mut idx: Vec<usize> = (0..k).collect();
        idx.sort_by(|&a, &b| totals[b].cmp(&totals[a]));
        idx.into_iter().take(n).map(|c| (c, totals[c])).collect()
    }

    /// Display position (1-based "Cluster N") of raw cluster `c`.
    pub fn display_rank(&self, c: usize) -> usize {
        self.order.iter().position(|&x| x == c).map_or(0, |p| p + 1)
    }
}

/// Fig. 14: mean normalized DLD between bot categories.
pub struct Fig14 {
    /// Category labels in matrix order.
    pub labels: Vec<String>,
    /// `matrix[a][b]` = mean normalized DLD between category exemplars.
    pub matrix: Vec<Vec<f64>>,
}

/// Builds Fig. 14 from up to `samples_per_cat` exemplar signatures per
/// category.
pub fn fig14(sessions: &[SessionRecord], cl: &Classifier, samples_per_cat: usize) -> Fig14 {
    let mut per_cat: BTreeMap<&'static str, Vec<Vec<String>>> = BTreeMap::new();
    for s in command_sessions(sessions) {
        let label = cl.classify(&s.command_text());
        if label == crate::classify::UNKNOWN_LABEL {
            continue;
        }
        let v = per_cat.entry(label).or_default();
        if v.len() < samples_per_cat {
            v.push(tokens::signature(&s.command_text()));
        }
    }
    let labels: Vec<String> = per_cat.keys().map(|s| s.to_string()).collect();
    let sets: Vec<&Vec<Vec<String>>> = per_cat.values().collect();
    let n = sets.len();
    let mut matrix = vec![vec![0.0f64; n]; n];
    for a in 0..n {
        for b in a..n {
            let mut sum = 0.0;
            let mut cnt = 0u64;
            for sa in sets[a] {
                for sb in sets[b] {
                    sum += crate::dld::normalized_dld(sa, sb);
                    cnt += 1;
                }
            }
            let mean = if cnt > 0 { sum / cnt as f64 } else { 0.0 };
            matrix[a][b] = mean;
            matrix[b][a] = mean;
        }
    }
    Fig14 { labels, matrix }
}

/// Fig. 15 (Appendix C): a representative curl-attack command, redacted
/// like the paper's listing.
pub fn fig15_snippet(sessions: &[SessionRecord]) -> Option<String> {
    sessions
        .iter()
        .flat_map(|s| s.commands.iter())
        .find(|c| c.input.contains("--max-redirs"))
        .map(|c| {
            let mut out = String::new();
            for tok in c.input.split_whitespace() {
                let red = if tok.starts_with("https://") || tok.starts_with("http://") {
                    "https://<X.X.X.X>/".to_string()
                } else if tok.starts_with('\'') {
                    "'<hidden>'".to_string()
                } else {
                    tok.to_string()
                };
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&red);
            }
            out
        })
}

/// Streaming accumulator behind [`classification_coverage`] and
/// [`category_counts`]: one classifier evaluation per command session
/// serves both the Table 1 histogram and the §5 coverage fraction.
pub struct ClassificationAccumulator<'c> {
    cl: &'c Classifier,
    counts: HashMap<&'static str, u64>,
    total: u64,
    known: u64,
    /// The command text being classified, reused from session to session.
    text: String,
}

impl<'c> ClassificationAccumulator<'c> {
    /// An empty accumulator classifying with `cl`.
    pub fn new(cl: &'c Classifier) -> Self {
        Self {
            cl,
            counts: HashMap::new(),
            total: 0,
            known: 0,
            text: String::new(),
        }
    }

    /// Folds one session in (non-command sessions are ignored).
    pub fn push(&mut self, s: &SessionRecord) {
        if !is_command_session(s) {
            return;
        }
        self.total += 1;
        s.command_text_into(&mut self.text);
        let label = self.cl.classify(&self.text);
        if label != crate::classify::UNKNOWN_LABEL {
            self.known += 1;
        }
        *self.counts.entry(label).or_default() += 1;
    }

    /// Folds another accumulator in: category counts and the
    /// total/known tallies sum. Associative and commutative. Both
    /// accumulators must borrow the same [`Classifier`] (they share its
    /// exhaustion counter either way — see
    /// [`Classifier::budget_exhaustions`]).
    pub fn merge(&mut self, other: Self) {
        self.total += other.total;
        self.known += other.known;
        for (label, c) in other.counts {
            *self.counts.entry(label).or_default() += c;
        }
    }

    /// Step-budget exhaustions recorded by the underlying classifier so
    /// far (process-wide for this classifier instance, not restricted to
    /// sessions pushed into this accumulator).
    pub fn budget_exhaustions(&self) -> u64 {
        self.cl.budget_exhaustions()
    }

    /// Fraction of command sessions classified into a non-`unknown`
    /// category; `1.0` when no command sessions were seen.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.known as f64 / self.total as f64
    }

    /// Category totals, descending by count (ties alphabetical).
    pub fn finish(self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self.counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

/// Table 1 / §5 coverage: fraction of command sessions classified into a
/// non-`unknown` category (paper: >99 %). Single pass over any session
/// stream.
pub fn classification_coverage<I>(sessions: I, cl: &Classifier) -> f64
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<SessionRecord>,
{
    let mut acc = ClassificationAccumulator::new(cl);
    for s in sessions {
        acc.push(std::borrow::Borrow::borrow(&s));
    }
    acc.coverage()
}

/// Table 1 category totals over the command sessions of any session
/// stream, descending by count. Single pass, O(categories) memory — the
/// streaming replacement for materializing [`command_sessions`] just to
/// histogram it.
pub fn category_counts<I>(sessions: I, cl: &Classifier) -> Vec<(&'static str, u64)>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<SessionRecord>,
{
    let mut acc = ClassificationAccumulator::new(cl);
    for s in sessions {
        acc.push(std::borrow::Borrow::borrow(&s));
    }
    acc.finish()
}

/// The §3.3 dataset-statistics table, rendered.
pub fn render_dataset_stats(stats: &TaxonomyStats, scale: u64) -> String {
    let f = |v: u64| format!("{v} (paper-scale ≈ {})", v * scale);
    format!(
        "== Dataset statistics (§3.3) ==\n\
         total sessions:      {}\n\
         ssh sessions:        {}\n\
         telnet sessions:     {}\n\
         unique ssh clients:  {}\n\
         scanning:            {}\n\
         scouting:            {}\n\
         intrusion:           {}\n\
         command execution:   {}\n\
         ordering (scout > cmd > intr > scan): {}\n",
        f(stats.total_sessions),
        f(stats.ssh_sessions),
        f(stats.telnet_sessions),
        stats.unique_ssh_clients,
        f(stats.scanning),
        f(stats.scouting),
        f(stats.intrusion),
        f(stats.command_execution),
        stats.ordering_matches_paper()
    )
}

/// Renders the Fig. 1 boxplot table.
pub fn render_fig1(fig: &Fig1) -> String {
    let mut out = String::from(
        "== Fig 1: daily command sessions per month (median [q1,q3]) ==\n\
         month     state-changing          not-changing\n",
    );
    for (i, m) in fig.months.iter().enumerate() {
        let cell = |b: &Option<BoxplotSummary>| match b {
            Some(s) => format!("{:>7.0} [{:>6.0},{:>6.0}]", s.median, s.q1, s.q3),
            None => format!("{:>23}", "-"),
        };
        out.push_str(&format!(
            "{:<9} {} {}\n",
            m.label(),
            cell(&fig.changing[i]),
            cell(&fig.not_changing[i])
        ));
    }
    out
}

/// Renders the coverage-annotated Fig. 1: the extra column shows the
/// observed fraction, with `!` marking months below the gap threshold.
pub fn render_fig1_cov(fig: &Fig1Cov) -> String {
    let mut out = String::from(
        "== Fig 1: daily command sessions per month (median [q1,q3]; cov = observed fraction) ==\n\
         month     state-changing          not-changing                 cov\n",
    );
    for (i, m) in fig.fig.months.iter().enumerate() {
        let cell = |b: &Option<BoxplotSummary>| match b {
            Some(s) => format!("{:>7.0} [{:>6.0},{:>6.0}]", s.median, s.q1, s.q3),
            None => format!("{:>23}", "-"),
        };
        let cov = fig.coverage[i];
        let mark = if cov < COVERAGE_GAP_THRESHOLD {
            "!"
        } else {
            " "
        };
        out.push_str(&format!(
            "{:<9} {} {}  {:>6.3}{}\n",
            m.label(),
            cell(&fig.fig.changing[i]),
            cell(&fig.fig.not_changing[i]),
            cov,
            mark
        ));
    }
    out
}

/// Renders the Fig. 5 medoid-distance heatmap (numeric).
pub fn render_fig5(ca: &ClusterAnalysis, max_rows: usize) -> String {
    let mut out = String::from("== Fig 5: normalized DLD between cluster medoids ==\n");
    let n = ca.medoid_matrix.len().min(max_rows);
    for i in 0..n {
        let row: Vec<String> = ca.medoid_matrix[i][..n]
            .iter()
            .map(|d| format!("{d:4.2}"))
            .collect();
        out.push_str(&format!("C{:<3} {}\n", i + 1, row.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use botnet::{generate_dataset, Dataset, DriverConfig};

    fn ds() -> &'static Dataset {
        static DS: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
        DS.get_or_init(|| generate_dataset(&DriverConfig::test_scale(11)))
    }

    #[test]
    fn fig1_coverage_flags_only_maintenance_month() {
        let d = ds();
        let cal = crate::coverage::CoverageCalendar::from_schedule(&d.outages);
        let mc = MonthlyCoverage::from_calendar(&cal, d.fleet.len());
        let f = fig1_with_coverage(&d.sessions, &mc);
        let oct = f
            .fig
            .months
            .iter()
            .position(|m| *m == Month::new(2023, 10))
            .unwrap();
        assert!(
            f.coverage[oct] < COVERAGE_GAP_THRESHOLD,
            "cov {}",
            f.coverage[oct]
        );
        for (i, c) in f.coverage.iter().enumerate() {
            if i != oct {
                assert!(
                    *c >= COVERAGE_GAP_THRESHOLD,
                    "month {:?} cov {c}",
                    f.fig.months[i]
                );
            }
        }
        let text = render_fig1_cov(&f);
        assert!(text.contains('!'), "gap marker rendered");
    }

    #[test]
    fn fig1_shift_toward_scouting_in_2023() {
        let f = fig1(&ds().sessions);
        // Compare mid-2022 vs mid-2023 medians: not-changing overtakes.
        let ix = |y, m| {
            f.months
                .iter()
                .position(|x| *x == Month::new(y, m))
                .unwrap()
        };
        let mid22 = ix(2022, 6);
        let mid23 = ix(2023, 6);
        let nc22 = f.not_changing[mid22].as_ref().unwrap().median;
        let nc23 = f.not_changing[mid23].as_ref().unwrap().median;
        assert!(
            nc23 > nc22 * 1.5,
            "2023 scouting should grow: {nc22} -> {nc23}"
        );
        let ch23 = f.changing[mid23].as_ref().unwrap().median;
        assert!(nc23 > ch23, "not-changing should dominate in 2023");
    }

    #[test]
    fn fig2_echo_ok_dominates() {
        let cl = Classifier::table1();
        let f = fig2(&ds().sessions, &cl);
        let totals = f.totals();
        assert_eq!(totals[0].0, "echo_OK", "totals: {:?}", &totals[..3]);
        let total: u64 = totals.iter().map(|(_, c)| c).sum();
        assert!(
            totals[0].1 as f64 / total as f64 > 0.6,
            "echo_OK share too small: {:?}",
            &totals[..3]
        );
    }

    #[test]
    fn fig3a_mdrfckr_dominates() {
        let cl = Classifier::table1();
        let f = fig3a(&ds().sessions, &cl);
        let totals = f.totals();
        assert_eq!(totals[0].0, "mdrfckr", "totals: {:?}", &totals[..3]);
        let total: u64 = totals.iter().map(|(_, c)| c).sum();
        assert!(totals[0].1 as f64 / total as f64 > 0.8);
    }

    #[test]
    fn fig3b_exec_sessions_decline() {
        let cl = Classifier::table1();
        let f = fig3b(&ds().sessions, &cl);
        let ix = |y, m| {
            f.months
                .iter()
                .position(|x| *x == Month::new(y, m))
                .unwrap()
        };
        let early: u64 = (0..6).map(|i| f.month_total(ix(2022, 2) + i)).sum();
        let late: u64 = (0..6).map(|i| f.month_total(ix(2024, 1) + i)).sum();
        assert!(
            late * 2 < early,
            "exec sessions should decline: {early} -> {late}"
        );
        // bbox family leads.
        let totals = f.totals();
        assert!(
            totals[0].0.starts_with("bbox"),
            "top exec bot should be busybox-based: {:?}",
            &totals[..3]
        );
    }

    #[test]
    fn fig4_exists_collapses_after_2022() {
        let cl = Classifier::table1();
        let (exists, missing) = fig4(&ds().sessions, &cl);
        let sum_year = |mc: &MonthlyCategories, y: i32| -> u64 {
            mc.months
                .iter()
                .enumerate()
                .filter(|(_, m)| m.year == y)
                .map(|(i, _)| mc.month_total(i))
                .sum()
        };
        let e22 = sum_year(&exists, 2022);
        let e23 = sum_year(&exists, 2023);
        assert!(e23 * 4 < e22, "file-exists should collapse: {e22} -> {e23}");
        let m23 = sum_year(&missing, 2023);
        assert!(m23 > e23, "missing should dominate in 2023: {m23} vs {e23}");
    }

    #[test]
    fn cluster_analysis_labels_known_families() {
        let ca = cluster_analysis(&ds().sessions, &ds().abuse, 12, 5);
        assert_eq!(ca.clustering.k(), 12.min(ca.signatures.len()));
        // At least one cluster picks up a family label from the abuse DB.
        let labelled = ca.labels.iter().filter(|l| *l != "unlabelled").count();
        assert!(labelled >= 1, "labels: {:?}", ca.labels);
        // Top clusters carry the bulk of sessions.
        let top = ca.top_clusters(5);
        let top_sum: u64 = top.iter().map(|(_, n)| n).sum();
        let all: u64 = ca.weights.iter().sum();
        assert!(top_sum as f64 / all as f64 > 0.5);
        // Medoid matrix is square in display order with zero diagonal.
        for (i, row) in ca.medoid_matrix.iter().enumerate() {
            assert_eq!(row.len(), ca.medoid_matrix.len());
            assert_eq!(row[i], 0.0);
        }
    }

    #[test]
    fn fig14_is_symmetric_with_zero_diagonal() {
        let cl = Classifier::table1();
        let f = fig14(&ds().sessions, &cl, 5);
        assert!(f.labels.len() > 10, "categories found: {}", f.labels.len());
        let n = f.labels.len();
        let mut diag = 0.0;
        let mut off = 0.0;
        let mut off_n = 0u64;
        for i in 0..n {
            diag += f.matrix[i][i];
            for j in 0..n {
                assert_eq!(f.matrix[i][j], f.matrix[j][i]);
                if i != j {
                    off += f.matrix[i][j];
                    off_n += 1;
                }
            }
        }
        // Within-category variation must be clearly below between-category
        // distance (the Fig. 14 block structure).
        let diag_mean = diag / n as f64;
        let off_mean = off / off_n as f64;
        assert!(
            diag_mean * 2.0 < off_mean,
            "diag {diag_mean} vs off-diag {off_mean}"
        );
    }

    #[test]
    fn fig15_snippet_is_redacted() {
        let snip = fig15_snippet(&ds().sessions).expect("curl_maxred sessions exist");
        assert!(snip.contains("curl"));
        assert!(snip.contains("<X.X.X.X>"));
        assert!(
            !snip.contains("203.0.113."),
            "target must be redacted: {snip}"
        );
    }

    #[test]
    fn coverage_exceeds_99_percent() {
        let cl = Classifier::table1();
        let cov = classification_coverage(&ds().sessions, &cl);
        assert!(cov > 0.99, "coverage {cov}");
    }

    #[test]
    fn fig16_missing_outnumbers_exists_late() {
        let f = fig16(&ds().sessions);
        let m23: u64 = f
            .iter()
            .filter(|(m, _)| m.year == 2023)
            .map(|(_, (_, missing))| *missing)
            .sum();
        let e23: u64 = f
            .iter()
            .filter(|(m, _)| m.year == 2023)
            .map(|(_, (exists, _))| *exists)
            .sum();
        assert!(m23 > e23, "2023 unique missing {m23} vs exists {e23}");
    }

    #[test]
    fn renders_do_not_panic_and_mention_key_rows() {
        let cl = Classifier::table1();
        let stats = TaxonomyStats::compute(&ds().sessions);
        let s = render_dataset_stats(&stats, ds().config.session_scale);
        assert!(s.contains("scouting"));
        let f1 = render_fig1(&fig1(&ds().sessions));
        assert!(f1.contains("2022-03"));
        let f2 = fig2(&ds().sessions, &cl);
        let r2 = f2.render("Fig 2", 3);
        assert!(r2.contains("echo_OK"));
        let ca = cluster_analysis(&ds().sessions, &ds().abuse, 8, 5);
        let r5 = render_fig5(&ca, 8);
        assert!(r5.contains("C1"));
    }
}
