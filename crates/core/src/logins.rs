//! Login-attempt analysis (paper §8, Figs. 10/11).

use honeypot::SessionRecord;
use hutil::Month;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Fig. 10 data: per-month session counts for each of the overall top-N
/// passwords used in *successful* intrusions.
#[derive(Debug, Clone)]
pub struct TopPasswords {
    /// The top passwords, most frequent first.
    pub passwords: Vec<String>,
    /// Per month, counts aligned with `passwords`.
    pub by_month: BTreeMap<Month, Vec<u64>>,
}

/// Per password: total successful sessions plus a month histogram.
type PwStats = (u64, BTreeMap<Month, u64>);

/// Streaming accumulator behind [`top_passwords`]: per-password month
/// histograms grow as records are pushed; the ranking is resolved at
/// [`TopPasswordsAccumulator::finish`]. Memory stays O(unique passwords ×
/// months) regardless of stream length.
#[derive(Debug, Default)]
pub struct TopPasswordsAccumulator {
    n: usize,
    per_pw: HashMap<String, PwStats>,
}

impl TopPasswordsAccumulator {
    /// Accumulator for the top `n` passwords.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            per_pw: HashMap::new(),
        }
    }

    /// Folds one session in.
    pub fn push(&mut self, rec: &SessionRecord) {
        if let Some(pw) = rec.accepted_password() {
            let slot = self.per_pw.entry(pw.to_string()).or_default();
            slot.0 += 1;
            *slot.1.entry(rec.start.date().month_of()).or_default() += 1;
        }
    }

    /// Folds another accumulator in: per-password totals and month
    /// histograms sum entry-wise. Associative and commutative; ranking
    /// happens only at [`TopPasswordsAccumulator::finish`], so merging
    /// partials over any stream partition matches the serial pass.
    pub fn merge(&mut self, other: Self) {
        for (pw, (count, months)) in other.per_pw {
            let slot = self.per_pw.entry(pw).or_default();
            slot.0 += count;
            for (month, c) in months {
                *slot.1.entry(month).or_default() += c;
            }
        }
    }

    /// Ranks and buckets the accumulated histograms.
    pub fn finish(self) -> TopPasswords {
        rank(self.per_pw.iter(), self.n)
    }

    /// Non-consuming form of [`TopPasswordsAccumulator::finish`]: ranks
    /// the histograms accumulated so far. A live aggregator publishes
    /// this between pushes; over any stream prefix it equals `finish()`
    /// over that prefix.
    pub fn snapshot(&self) -> TopPasswords {
        rank(self.per_pw.iter(), self.n)
    }
}

/// Whether `a` ranks above `b`: more sessions first, ties lexicographic.
/// Passwords are distinct map keys, so this is a strict total order.
fn outranks(a: (&String, &PwStats), b: (&String, &PwStats)) -> bool {
    (b.1 .0, a.0) < (a.1 .0, b.0)
}

/// The shared ranking step behind `finish`/`snapshot`: keeps the top `n`
/// by reference in a bounded sorted `Vec` (count descending, ties
/// lexicographic), so a pass over D passwords costs O(D) comparisons
/// plus an insertion per password that enters the top `n`, and clones
/// only the winners. Then buckets the winners per month.
fn rank<'a>(entries: impl Iterator<Item = (&'a String, &'a PwStats)>, n: usize) -> TopPasswords {
    let mut top: Vec<(&String, &PwStats)> = Vec::with_capacity(n.min(entries.size_hint().0) + 1);
    for entry in entries {
        if top.len() == n && !top.last().is_some_and(|&last| outranks(entry, last)) {
            continue;
        }
        let at = top.partition_point(|&t| outranks(t, entry));
        top.insert(at, entry);
        top.truncate(n);
    }
    let passwords: Vec<String> = top.iter().map(|(p, _)| (*p).clone()).collect();
    let mut by_month: BTreeMap<Month, Vec<u64>> = BTreeMap::new();
    for (i, (_, (_, months))) in top.iter().enumerate() {
        for (&month, &count) in months {
            by_month
                .entry(month)
                .or_insert_with(|| vec![0; passwords.len()])[i] = count;
        }
    }
    TopPasswords {
        passwords,
        by_month,
    }
}

/// Computes the Fig. 10 series.
///
/// Single pass over any session stream (slice, owning iterator, or
/// sessiondb scan); see [`TopPasswordsAccumulator`] for the streaming
/// form.
pub fn top_passwords<I>(sessions: I, n: usize) -> TopPasswords
where
    I: IntoIterator,
    I::Item: Borrow<SessionRecord>,
{
    let mut acc = TopPasswordsAccumulator::new(n);
    for rec in sessions {
        acc.push(rec.borrow());
    }
    acc.finish()
}

/// Fig. 11 data plus the §8 fingerprinting statistics.
#[derive(Debug, Clone)]
pub struct CowrieDefaultProbes {
    /// Per month: successful `phil` logins.
    pub phil_success: BTreeMap<Month, u64>,
    /// Per month: `richard` attempts (all fail on this deployment).
    pub richard_tries: BTreeMap<Month, u64>,
    /// Unique client IPs probing with `phil`.
    pub phil_unique_ips: u64,
    /// Fraction of `phil` sessions that disconnect without any command
    /// (paper: >90 %).
    pub phil_no_command_frac: f64,
}

/// Streaming accumulator behind [`cowrie_default_probes`].
#[derive(Debug, Default)]
pub struct ProbeAccumulator {
    phil_success: BTreeMap<Month, u64>,
    richard_tries: BTreeMap<Month, u64>,
    phil_ips: HashSet<netsim::Ipv4Addr>,
    phil_sessions: u64,
    phil_quiet: u64,
}

impl ProbeAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one session in.
    pub fn push(&mut self, rec: &SessionRecord) {
        let month = rec.start.date().month_of();
        let has_phil = rec.logins.iter().any(|l| l.username == "phil" && l.success);
        let has_richard = rec.logins.iter().any(|l| l.username == "richard");
        if has_phil {
            *self.phil_success.entry(month).or_default() += 1;
            self.phil_ips.insert(rec.client_ip);
            self.phil_sessions += 1;
            if rec.commands.is_empty() {
                self.phil_quiet += 1;
            }
        }
        if has_richard {
            *self.richard_tries.entry(month).or_default() += 1;
        }
    }

    /// Folds another accumulator in: month histograms sum, IP sets union,
    /// scalar counters add. Associative and commutative.
    pub fn merge(&mut self, other: Self) {
        for (month, c) in other.phil_success {
            *self.phil_success.entry(month).or_default() += c;
        }
        for (month, c) in other.richard_tries {
            *self.richard_tries.entry(month).or_default() += c;
        }
        self.phil_ips.extend(other.phil_ips);
        self.phil_sessions += other.phil_sessions;
        self.phil_quiet += other.phil_quiet;
    }

    /// Resolves the series.
    pub fn finish(self) -> CowrieDefaultProbes {
        CowrieDefaultProbes {
            phil_success: self.phil_success,
            richard_tries: self.richard_tries,
            phil_unique_ips: self.phil_ips.len() as u64,
            phil_no_command_frac: if self.phil_sessions > 0 {
                self.phil_quiet as f64 / self.phil_sessions as f64
            } else {
                0.0
            },
        }
    }
}

/// Computes the Fig. 11 series. Single pass over any session stream.
pub fn cowrie_default_probes<I>(sessions: I) -> CowrieDefaultProbes
where
    I: IntoIterator,
    I::Item: Borrow<SessionRecord>,
{
    let mut acc = ProbeAccumulator::new();
    for rec in sessions {
        acc.push(rec.borrow());
    }
    acc.finish()
}

/// §8: sessions using a specific password, with first-seen instant and
/// unique client IPs — used for the `3245gs5662d34` investigation.
#[derive(Debug, Clone)]
pub struct PasswordProfile {
    /// Total sessions accepted with the password.
    pub sessions: u64,
    /// Unique client IPs.
    pub unique_ips: u64,
    /// Earliest session start.
    pub first_seen: Option<hutil::DateTime>,
    /// Fraction of those sessions that executed zero commands.
    pub no_command_frac: f64,
}

/// Profiles one password across any session stream.
pub fn password_profile<I>(sessions: I, password: &str) -> PasswordProfile
where
    I: IntoIterator,
    I::Item: Borrow<SessionRecord>,
{
    let mut count = 0u64;
    let mut quiet = 0u64;
    let mut ips = HashSet::new();
    let mut first: Option<hutil::DateTime> = None;
    for rec in sessions {
        let rec = rec.borrow();
        if rec.accepted_password() == Some(password) {
            count += 1;
            if rec.commands.is_empty() {
                quiet += 1;
            }
            ips.insert(rec.client_ip);
            first = Some(match first {
                Some(f) if f <= rec.start => f,
                _ => rec.start,
            });
        }
    }
    PasswordProfile {
        sessions: count,
        unique_ips: ips.len() as u64,
        first_seen: first,
        no_command_frac: if count > 0 {
            quiet as f64 / count as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeypot::{CommandRecord, LoginAttempt, Protocol, SessionEndReason};
    use hutil::Date;
    use netsim::Ipv4Addr;

    fn rec(
        date: Date,
        user: &str,
        pw: &str,
        success: bool,
        commands: usize,
        ip: u32,
    ) -> SessionRecord {
        SessionRecord {
            session_id: 0,
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(ip),
            client_port: 1,
            protocol: Protocol::Ssh,
            start: date.at(8, 0, 0),
            end: date.at(8, 1, 0),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: vec![LoginAttempt {
                username: user.into(),
                password: pw.into(),
                success,
            }],
            commands: (0..commands)
                .map(|i| CommandRecord {
                    input: format!("c{i}"),
                    known: true,
                })
                .collect(),
            uris: vec![],
            file_events: vec![],
        }
    }

    #[test]
    fn top_passwords_ranks_and_buckets() {
        let d1 = Date::new(2022, 3, 1);
        let d2 = Date::new(2022, 4, 1);
        let sessions = vec![
            rec(d1, "root", "admin", true, 0, 1),
            rec(d1, "root", "admin", true, 0, 2),
            rec(d1, "root", "1234", true, 0, 3),
            rec(d2, "root", "admin", true, 0, 4),
            rec(d2, "root", "rare", true, 0, 5),
            rec(d2, "root", "failing", false, 0, 6), // failed: not counted
        ];
        let top = top_passwords(&sessions, 2);
        assert_eq!(top.passwords, vec!["admin", "1234"]);
        assert_eq!(top.by_month[&Month::new(2022, 3)], vec![2, 1]);
        assert_eq!(top.by_month[&Month::new(2022, 4)], vec![1, 0]);
    }

    /// The ranking as it stood before `rank` kept its winners by
    /// reference: clone every entry, sort them all, truncate to `n`.
    fn rank_by_full_sort(per_pw: &HashMap<String, PwStats>, n: usize) -> TopPasswords {
        let mut ranked: Vec<(String, PwStats)> =
            per_pw.iter().map(|(p, s)| (p.clone(), s.clone())).collect();
        ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        let passwords: Vec<String> = ranked.iter().map(|(p, _)| p.clone()).collect();
        let mut by_month: BTreeMap<Month, Vec<u64>> = BTreeMap::new();
        for (i, (_, (_, months))) in ranked.iter().enumerate() {
            for (&month, &count) in months {
                by_month
                    .entry(month)
                    .or_insert_with(|| vec![0; passwords.len()])[i] = count;
            }
        }
        TopPasswords {
            passwords,
            by_month,
        }
    }

    proptest::proptest! {
        /// Many tied counts across several months: every `n` from none to
        /// more than there are passwords ranks exactly like the full sort,
        /// through both `snapshot` and `finish`.
        #[test]
        fn ranking_by_reference_matches_full_sort(
            draws in proptest::collection::vec(0usize..6 * 24, 0..300),
            failed_every in 2usize..9,
        ) {
            let mut acc = TopPasswordsAccumulator::new(0);
            for (i, &d) in draws.iter().enumerate() {
                let (pw, month) = (d % 24, d / 24);
                let date = Date::new(2022, 1 + month as u8, 1 + (i % 28) as u8);
                let ok = i % failed_every != 0;
                acc.push(&rec(date, "root", &format!("pw{pw}"), ok, 0, i as u32));
            }
            let d = acc.per_pw.len();
            for n in [0, 1, 10, d, d + 3] {
                let want = rank_by_full_sort(&acc.per_pw, n);
                let live = TopPasswordsAccumulator { n, per_pw: acc.per_pw.clone() };
                let snap = live.snapshot();
                proptest::prop_assert_eq!(&snap.passwords, &want.passwords, "snapshot, n = {}", n);
                proptest::prop_assert_eq!(&snap.by_month, &want.by_month, "snapshot, n = {}", n);
                let fin = live.finish();
                proptest::prop_assert_eq!(&fin.passwords, &want.passwords, "finish, n = {}", n);
                proptest::prop_assert_eq!(&fin.by_month, &want.by_month, "finish, n = {}", n);
            }
        }
    }

    #[test]
    fn phil_and_richard_series() {
        let d1 = Date::new(2023, 1, 5);
        let sessions = vec![
            rec(d1, "phil", "x", true, 0, 1),
            rec(d1, "phil", "y", true, 0, 2),
            rec(d1, "phil", "z", true, 1, 3), // one phil session runs a command
            rec(d1, "richard", "x", false, 0, 4),
        ];
        let probes = cowrie_default_probes(&sessions);
        assert_eq!(probes.phil_success[&Month::new(2023, 1)], 3);
        assert_eq!(probes.richard_tries[&Month::new(2023, 1)], 1);
        assert_eq!(probes.phil_unique_ips, 3);
        assert!((probes.phil_no_command_frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn password_profile_finds_first_seen() {
        let sessions = vec![
            rec(Date::new(2022, 12, 9), "root", "3245gs5662d34", true, 0, 1),
            rec(Date::new(2022, 12, 8), "root", "3245gs5662d34", true, 0, 2),
            rec(Date::new(2023, 1, 1), "root", "3245gs5662d34", true, 0, 2),
            rec(Date::new(2022, 1, 1), "root", "other", true, 1, 3),
        ];
        let p = password_profile(&sessions, "3245gs5662d34");
        assert_eq!(p.sessions, 3);
        assert_eq!(p.unique_ips, 2);
        assert_eq!(p.first_seen.unwrap().date(), Date::new(2022, 12, 8));
        assert_eq!(p.no_command_frac, 1.0);
    }

    #[test]
    fn empty_dataset() {
        let none: &[SessionRecord] = &[];
        let top = top_passwords(none, 5);
        assert!(top.passwords.is_empty());
        let probes = cowrie_default_probes(none);
        assert_eq!(probes.phil_unique_ips, 0);
        let p = password_profile(none, "x");
        assert_eq!(p.sessions, 0);
        assert!(p.first_seen.is_none());
    }
}
