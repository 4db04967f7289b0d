//! The central collector (paper §3.2).
//!
//! Every honeypot forwards a closed session to the collector, which
//! assigns a dense session id and appends it to the honeynet database. The
//! collector is shared across generator threads, hence the lock; analysis
//! runs on the frozen, chronologically sorted store.
//!
//! # Degraded operation
//!
//! A long-running deployment loses records between sensor and database:
//! flushes fail, the forwarding channel backs up, malformed records
//! arrive. [`CollectorConfig`] models all three with seeded fault
//! injection:
//!
//! * a write may fail with probability `flush_failure_rate`; failed
//!   records enter a retry queue and are retried with exponential backoff
//!   (measured in flush passes), up to `max_retries` failures each;
//! * the retry queue is bounded by `queue_capacity`; records failing while
//!   it is full are dropped;
//! * records that fail validation never reach the store — they land in a
//!   quarantine lane with their diagnosis.
//!
//! Every fate is counted in [`IngestStats`], so callers can account for
//! each record handed in: `accepted + dropped + quarantined` equals the
//! number of ingest calls once the collector is drained (`retried` counts
//! retry *attempts*, not records). The default config injects no faults
//! and behaves exactly like the original write-through collector.
//!
//! # Id density invariant
//!
//! Both [`Collector::ingest`] and [`Collector::ingest_batch`] assign ids
//! at *store* time, in store order: the ids of stored records are exactly
//! `0..stats().accepted`, with no gaps, regardless of how many records
//! were dropped or quarantined along the way. A batch holds the lock for
//! its whole flush, so the ids of its stored members form the contiguous
//! range `ingest_batch` returns.
//!
//! # Commits
//!
//! Storing a record into a sink ([`SessionSink::append`]) and making it
//! durable ([`SessionSink::commit`]) are separate steps. `ingest` commits
//! after its one record; `ingest_batch` commits once after the whole
//! batch, so a sink that syncs on commit syncs once per batch. A failed
//! commit does not un-store anything: the records stay appended (never
//! written twice) and the next commit covers them.

use crate::record::SessionRecord;
use netsim::faults::{backoff_delay, FailureInjector};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Error type sinks report; boxed so any backend's error fits.
pub type SinkError = Box<dyn std::error::Error + Send + Sync>;

/// A spill target for stored sessions.
///
/// In the default configuration the collector keeps every stored record
/// in memory and [`Collector::into_parts`] returns them as a sorted
/// `Vec`. A collector built with [`Collector::with_sink`] instead hands
/// each stored record to the sink the moment it is accepted — bounded
/// memory, suitable for dataset sizes that never fit in RAM. Sink write
/// failures flow through the same retry/backoff/drop machinery as
/// injected flush failures, so a flaky disk degrades the run instead of
/// crashing it.
pub trait SessionSink: Send {
    /// Appends one stored record. The collector has already assigned the
    /// dense `session_id`.
    fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError>;
    /// Makes the records appended so far durable, as far as the sink's
    /// own policy asks (e.g. syncs a write-ahead log). The collector
    /// calls it once per `ingest` or `ingest_batch` that stored
    /// anything. After an error the records stay appended and the next
    /// commit must cover them too. The default does nothing.
    fn commit(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
    /// Flushes and closes the sink (e.g. seals the final segment).
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Errors surfaced by the collector's fallible entry points.
#[derive(Debug)]
pub enum CollectorError {
    /// The spill sink failed while flushing or closing.
    Sink {
        /// Backend error message.
        message: String,
    },
    /// A parallel ingest worker panicked.
    WorkerPanicked {
        /// Index of the worker that died.
        worker: usize,
        /// Panic payload, when it was a string.
        message: String,
    },
    /// Exclusive access was required but the collector is still shared.
    StillShared {
        /// Outstanding strong references.
        references: usize,
    },
}

impl std::fmt::Display for CollectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectorError::Sink { message } => write!(f, "session sink failed: {message}"),
            CollectorError::WorkerPanicked { worker, message } => {
                write!(f, "ingest worker {worker} panicked: {message}")
            }
            CollectorError::StillShared { references } => {
                write!(f, "collector still shared ({references} references)")
            }
        }
    }
}

impl std::error::Error for CollectorError {}

/// Fault-injection knobs for the collector. The default injects nothing.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Retry-queue bound; `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// Probability that one store write fails.
    pub flush_failure_rate: f64,
    /// Failures tolerated per record before it is dropped.
    pub max_retries: u32,
    /// Seed of the failure injector.
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            flush_failure_rate: 0.0,
            max_retries: 3,
            seed: 0,
        }
    }
}

/// Counters for every fate an ingested record can meet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records stored (ids `0..accepted`).
    pub accepted: u64,
    /// Retry attempts performed (attempts, not distinct records).
    pub retried: u64,
    /// Records lost: retries exhausted or retry queue full.
    pub dropped: u64,
    /// Records failing validation, diverted to the quarantine lane.
    pub quarantined: u64,
}

/// What happened to one ingested record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Stored immediately under this id.
    Stored(u64),
    /// Write failed; queued for retry (will be stored or dropped later).
    Deferred,
    /// Lost: the retry queue was full.
    Dropped,
    /// Failed validation; kept in the quarantine lane.
    Quarantined,
}

/// Why a record was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// The session ends before it starts.
    EndBeforeStart,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::EndBeforeStart => write!(f, "session ends before it starts"),
        }
    }
}

fn validate(rec: &SessionRecord) -> Result<(), ValidationError> {
    if rec.end < rec.start {
        return Err(ValidationError::EndBeforeStart);
    }
    Ok(())
}

#[derive(Debug)]
struct Queued {
    rec: SessionRecord,
    failures: u32,
    /// First flush pass allowed to retry this record (backoff).
    ready_at: u64,
}

struct Inner {
    stored: Vec<SessionRecord>,
    sink: Option<Box<dyn SessionSink>>,
    /// Records appended to the sink since its last successful commit.
    uncommitted: Vec<SessionRecord>,
    /// Why the last commit failed, until a commit succeeds.
    commit_error: Option<String>,
    /// Why the last failed append failed, until someone takes it.
    sink_error: Option<String>,
    retry: VecDeque<Queued>,
    quarantine: Vec<(SessionRecord, ValidationError)>,
    stats: IngestStats,
    injector: FailureInjector,
    pass: u64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("stored", &self.stored.len())
            .field("sink", &self.sink.is_some())
            .field("retry", &self.retry.len())
            .field("quarantine", &self.quarantine.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Inner {
    /// Attempts to store `rec` under the next dense id. The write fails
    /// when the failure injector fires or the spill sink rejects it; the
    /// record is handed back so the caller can queue a retry.
    #[allow(clippy::result_large_err)] // Err returns the record itself for requeueing
    fn attempt_store(&mut self, mut rec: SessionRecord) -> Result<u64, SessionRecord> {
        if self.injector.fires() {
            return Err(rec);
        }
        let id = self.stats.accepted;
        rec.session_id = id;
        match &mut self.sink {
            Some(sink) => {
                if let Err(e) = sink.append(&rec) {
                    self.sink_error = Some(e.to_string());
                    return Err(rec);
                }
                self.uncommitted.push(rec);
            }
            None => self.stored.push(rec),
        }
        self.stats.accepted += 1;
        Ok(id)
    }

    /// Commits the sink if any record awaits a commit. Returns whether
    /// `uncommitted` is now covered by a successful commit; after a
    /// failure the records stay there for the next commit to cover.
    fn commit(&mut self) -> bool {
        let Some(sink) = &mut self.sink else {
            return false;
        };
        if self.uncommitted.is_empty() {
            return false;
        }
        match sink.commit() {
            Ok(()) => {
                self.commit_error = None;
                true
            }
            Err(e) => {
                self.commit_error = Some(e.to_string());
                false
            }
        }
    }

    /// Commits, then moves what the commit covered into `committed`.
    fn commit_into(&mut self, committed: &mut Vec<SessionRecord>) {
        if self.commit() {
            committed.append(&mut self.uncommitted);
        }
    }

    /// One retry pass over the queue: each due record is retried once;
    /// records exhausting `max_retries` are dropped.
    fn flush_retries(&mut self, max_retries: u32) {
        if self.retry.is_empty() {
            return;
        }
        self.pass += 1;
        let pass = self.pass;
        let mut keep = VecDeque::with_capacity(self.retry.len());
        while let Some(q) = self.retry.pop_front() {
            if q.ready_at > pass {
                keep.push_back(q);
                continue;
            }
            if let Err(rec) = self.attempt_store(q.rec) {
                let failures = q.failures + 1;
                if failures > max_retries {
                    self.stats.dropped += 1;
                } else {
                    self.stats.retried += 1;
                    keep.push_back(Queued {
                        rec,
                        failures,
                        ready_at: pass + backoff_delay(1, failures, 1 << 16),
                    });
                }
            }
        }
        self.retry = keep;
    }

    /// Handles one validated record: direct write, deferral, or drop.
    fn submit(
        &mut self,
        rec: SessionRecord,
        cfg_cap: Option<usize>,
        max_retries: u32,
    ) -> IngestOutcome {
        let rec = match self.attempt_store(rec) {
            Ok(id) => return IngestOutcome::Stored(id),
            Err(rec) => rec,
        };
        if max_retries == 0 || cfg_cap.is_some_and(|cap| self.retry.len() >= cap) {
            self.stats.dropped += 1;
            return IngestOutcome::Dropped;
        }
        self.stats.retried += 1;
        self.retry.push_back(Queued {
            rec,
            failures: 1,
            ready_at: self.pass + backoff_delay(1, 1, 1 << 16),
        });
        IngestOutcome::Deferred
    }
}

/// Thread-safe session sink.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    capacity: Option<usize>,
    max_retries: u32,
}

impl Default for Collector {
    fn default() -> Self {
        Self::with_config(CollectorConfig::default())
    }
}

impl Collector {
    /// An empty, fault-free collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector with the given fault-injection config.
    pub fn with_config(cfg: CollectorConfig) -> Self {
        Self {
            inner: Mutex::new(Inner {
                stored: Vec::new(),
                sink: None,
                uncommitted: Vec::new(),
                commit_error: None,
                sink_error: None,
                retry: VecDeque::new(),
                quarantine: Vec::new(),
                stats: IngestStats::default(),
                injector: FailureInjector::new(cfg.flush_failure_rate, cfg.seed),
                pass: 0,
            }),
            capacity: cfg.queue_capacity,
            max_retries: cfg.max_retries,
        }
    }

    /// A collector that spills every stored record into `sink` instead of
    /// keeping it in memory (see [`SessionSink`]). Retry/backoff/drop and
    /// quarantine behave exactly as in the in-memory mode; drain with
    /// [`Collector::into_sink_parts`].
    pub fn with_sink(cfg: CollectorConfig, sink: Box<dyn SessionSink>) -> Self {
        let c = Self::with_config(cfg);
        c.inner.lock().sink = Some(sink);
        c
    }

    /// Ingests one closed session and commits the sink. On the
    /// fault-free default config this always stores immediately and
    /// returns [`IngestOutcome::Stored`] with the assigned dense id.
    pub fn ingest(&self, rec: SessionRecord) -> IngestOutcome {
        let mut inner = self.inner.lock();
        inner.flush_retries(self.max_retries);
        let outcome = match validate(&rec) {
            Err(e) => {
                inner.stats.quarantined += 1;
                inner.quarantine.push((rec, e));
                IngestOutcome::Quarantined
            }
            Ok(()) => inner.submit(rec, self.capacity, self.max_retries),
        };
        if inner.commit() {
            inner.uncommitted.clear();
        }
        outcome
    }

    /// Ingests a batch under a single lock acquisition, commits the sink
    /// once, and returns the contiguous id range assigned to the batch's
    /// *stored* members (see the module-level id-density invariant).
    /// Deferred, dropped and quarantined members are excluded from the
    /// range and visible via [`Collector::stats`].
    ///
    /// Once the commit succeeds, every record it covered is moved into
    /// `committed`, in id order, for a caller that passes stored records
    /// on: the batch's stored members, queued records this call's retry
    /// pass stored, and records an earlier failed commit left
    /// uncommitted. After a failed commit nothing is moved until a later
    /// commit succeeds. An in-memory collector keeps its records and
    /// moves none.
    pub fn ingest_batch(
        &self,
        recs: impl IntoIterator<Item = SessionRecord>,
        committed: &mut Vec<SessionRecord>,
    ) -> std::ops::Range<u64> {
        let mut inner = self.inner.lock();
        inner.flush_retries(self.max_retries);
        let first = inner.stats.accepted;
        for rec in recs {
            if let Err(e) = validate(&rec) {
                inner.stats.quarantined += 1;
                inner.quarantine.push((rec, e));
                continue;
            }
            inner.submit(rec, self.capacity, self.max_retries);
        }
        let stored = first..inner.stats.accepted;
        inner.commit_into(committed);
        stored
    }

    /// Retries every queued record until it is stored or out of
    /// retries, commits, and moves what the commit covered into
    /// `committed` as [`Collector::ingest_batch`] does: what
    /// [`Collector::into_sink_parts`] would store at close, handed over
    /// first.
    pub fn drain_into(&self, committed: &mut Vec<SessionRecord>) {
        let mut inner = self.inner.lock();
        while !inner.retry.is_empty() {
            inner.flush_retries(self.max_retries);
        }
        inner.commit_into(committed);
    }

    /// Why the sink's last commit failed, while no later commit has
    /// succeeded: the records it left uncovered stay appended, in memory
    /// too, until one does.
    pub fn commit_error(&self) -> Option<String> {
        self.inner.lock().commit_error.clone()
    }

    /// Why the sink's last failed append failed, if one failed since
    /// the last call; clears it. The record it rejected is in the retry
    /// queue, which counts it as `retried` or, out of retries, `dropped`.
    pub fn take_sink_error(&self) -> Option<String> {
        self.inner.lock().sink_error.take()
    }

    /// Number of sessions stored.
    pub fn len(&self) -> usize {
        self.inner.lock().stored.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().stored.is_empty()
    }

    /// Current fate counters. Records still awaiting retry are in no
    /// counter yet; drain with [`Collector::into_parts`] for the final
    /// accounting.
    pub fn stats(&self) -> IngestStats {
        self.inner.lock().stats
    }

    /// The quarantine lane: records that failed validation, with their
    /// diagnoses.
    pub fn quarantine(&self) -> Vec<(SessionRecord, ValidationError)> {
        self.inner.lock().quarantine.clone()
    }

    /// Freezes the collector into a chronologically sorted dataset, as the
    /// in-situ analysis interface presents it.
    pub fn into_dataset(self) -> Vec<SessionRecord> {
        self.into_parts().0
    }

    /// Drains the retry queue (each record is retried until stored or out
    /// of retries) and freezes the collector, returning the sorted
    /// dataset, the final stats, and the quarantine lane.
    pub fn into_parts(
        self,
    ) -> (
        Vec<SessionRecord>,
        IngestStats,
        Vec<(SessionRecord, ValidationError)>,
    ) {
        let mut inner = self.inner.into_inner();
        while !inner.retry.is_empty() {
            inner.flush_retries(self.max_retries);
        }
        let mut v = inner.stored;
        v.sort_by_key(|r| (r.start, r.session_id));
        (v, inner.stats, inner.quarantine)
    }

    /// Drains the retry queue and closes the spill sink of a collector
    /// built with [`Collector::with_sink`], returning the final stats and
    /// quarantine lane. Records lost to persistent sink failures are in
    /// `stats.dropped`; a failing [`SessionSink::finish`] (e.g. the final
    /// segment cannot be sealed) is a hard error.
    pub fn into_sink_parts(
        self,
    ) -> Result<(IngestStats, Vec<(SessionRecord, ValidationError)>), CollectorError> {
        let mut inner = self.inner.into_inner();
        while !inner.retry.is_empty() {
            inner.flush_retries(self.max_retries);
        }
        if let Some(mut sink) = inner.sink.take() {
            sink.finish().map_err(|e| CollectorError::Sink {
                message: e.to_string(),
            })?;
        }
        Ok((inner.stats, inner.quarantine))
    }

    /// Reclaims exclusive ownership of a shared collector, e.g. after
    /// parallel ingest. Unlike `Arc::try_unwrap(..).unwrap()`, contention
    /// (a worker still holding a clone) surfaces as
    /// [`CollectorError::StillShared`] instead of a panic.
    pub fn try_from_arc(c: Arc<Collector>) -> Result<Collector, CollectorError> {
        Arc::try_unwrap(c).map_err(|arc| CollectorError::StillShared {
            references: Arc::strong_count(&arc),
        })
    }
}

/// Runs `workers` ingest closures against one collector on scoped
/// threads and hands the collector back once all of them finished.
///
/// Worker panics are caught at join time and propagated as
/// [`CollectorError::WorkerPanicked`] (first failing worker wins) rather
/// than tearing down the whole process — a long generation run survives
/// one misbehaving producer and still reports what happened.
pub fn ingest_parallel<F>(
    collector: Collector,
    workers: usize,
    work: F,
) -> Result<Collector, CollectorError>
where
    F: Fn(usize, &Collector) + Send + Sync,
{
    let first_err = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let collector = &collector;
                let work = &work;
                (w, scope.spawn(move || work(w, collector)))
            })
            .collect();
        let mut first_err = None;
        for (worker, handle) in handles {
            if let Err(payload) = handle.join() {
                let message = panic_message(payload.as_ref());
                if first_err.is_none() {
                    first_err = Some(CollectorError::WorkerPanicked { worker, message });
                }
            }
        }
        first_err
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(collector),
    }
}

/// Best-effort extraction of a panic payload's message. Shared with the
/// serving layer's shard supervision, which turns caught unwinds into
/// the same style of diagnostics as collector worker panics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Protocol, SessionEndReason};
    use hutil::Date;
    use netsim::Ipv4Addr;

    fn rec(start_hour: u8) -> SessionRecord {
        SessionRecord {
            session_id: 999, // collector must overwrite
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(2),
            client_port: 1,
            protocol: Protocol::Ssh,
            start: Date::new(2022, 1, 1).at(start_hour, 0, 0),
            end: Date::new(2022, 1, 1).at(start_hour, 0, 30),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_events: vec![],
        }
    }

    #[test]
    fn ids_are_dense_and_assigned() {
        let c = Collector::new();
        assert_eq!(c.ingest(rec(5)), IngestOutcome::Stored(0));
        assert_eq!(c.ingest(rec(3)), IngestOutcome::Stored(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().accepted, 2);
    }

    #[test]
    fn dataset_is_chronological() {
        let c = Collector::new();
        c.ingest(rec(9));
        c.ingest(rec(1));
        assert_eq!(c.ingest_batch([rec(5), rec(2)], &mut Vec::new()), 2..4);
        let ds = c.into_dataset();
        assert_eq!(ds.len(), 4);
        let hours: Vec<u8> = ds.iter().map(|r| r.start.hour()).collect();
        assert_eq!(hours, vec![1, 2, 5, 9]);
    }

    #[test]
    fn concurrent_ingest_is_safe() {
        let c = ingest_parallel(Collector::new(), 8, |_, c| {
            for i in 0..100 {
                c.ingest(rec((i % 24) as u8));
            }
        })
        .expect("no worker panics");
        let ds = c.into_dataset();
        assert_eq!(ds.len(), 800);
        // Ids are a permutation of 0..800.
        let mut ids: Vec<u64> = ds.iter().map(|r| r.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_is_an_error_not_a_crash() {
        let result = ingest_parallel(Collector::new(), 4, |w, c| {
            c.ingest(rec(1));
            if w == 2 {
                panic!("worker {w} died");
            }
        });
        match result {
            Err(CollectorError::WorkerPanicked { worker, message }) => {
                assert_eq!(worker, 2);
                assert!(message.contains("died"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn contended_arc_is_an_error_not_a_crash() {
        let c = Arc::new(Collector::new());
        let held = Arc::clone(&c);
        match Collector::try_from_arc(c) {
            Err(CollectorError::StillShared { references }) => assert_eq!(references, 2),
            other => panic!("expected StillShared, got {other:?}"),
        }
        drop(held);
    }

    /// A sink that records appends and can be told to fail.
    struct TestSink {
        seen: Arc<Mutex<Vec<u64>>>,
        fail_every: Option<u64>,
        calls: u64,
        finished: Arc<Mutex<bool>>,
    }

    impl SessionSink for TestSink {
        fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
            self.calls += 1;
            if self
                .fail_every
                .is_some_and(|n| self.calls.is_multiple_of(n))
            {
                return Err("injected sink failure".into());
            }
            self.seen.lock().push(rec.session_id);
            Ok(())
        }

        fn finish(&mut self) -> Result<(), SinkError> {
            *self.finished.lock() = true;
            Ok(())
        }
    }

    #[test]
    fn sink_mode_spills_with_dense_ids_and_finishes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(Mutex::new(false));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(TestSink {
                seen: Arc::clone(&seen),
                fail_every: None,
                calls: 0,
                finished: Arc::clone(&finished),
            }),
        );
        for i in 0..50 {
            c.ingest(rec((i % 24) as u8));
        }
        let (stats, quarantine) = c.into_sink_parts().expect("sink closes");
        assert_eq!(stats.accepted, 50);
        assert!(quarantine.is_empty());
        assert!(*finished.lock(), "finish() must seal the sink");
        assert_eq!(*seen.lock(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn sink_failures_retry_like_flush_failures() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(Mutex::new(false));
        let c = Collector::with_sink(
            CollectorConfig {
                max_retries: 8,
                ..CollectorConfig::default()
            },
            Box::new(TestSink {
                seen: Arc::clone(&seen),
                fail_every: Some(5), // every 5th append fails
                calls: 0,
                finished: Arc::clone(&finished),
            }),
        );
        for i in 0..100 {
            c.ingest(rec((i % 24) as u8));
        }
        assert_eq!(
            c.take_sink_error().as_deref(),
            Some("injected sink failure")
        );
        assert_eq!(c.take_sink_error(), None, "taking it clears it");
        let (stats, _) = c.into_sink_parts().expect("sink closes");
        assert!(
            stats.retried > 0,
            "sink failures must be retried: {stats:?}"
        );
        assert_eq!(stats.accepted + stats.dropped, 100);
        // Ids of spilled records are dense over the accepted set.
        let mut ids = seen.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..stats.accepted).collect::<Vec<u64>>());
    }

    #[test]
    fn ingest_batch_on_a_sink_returns_the_stored_id_range() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(TestSink {
                seen: Arc::clone(&seen),
                fail_every: None,
                calls: 0,
                finished: Arc::new(Mutex::new(false)),
            }),
        );
        c.ingest(rec(1));
        c.ingest(rec(2));
        assert_eq!(c.ingest_batch([rec(3), rec(4)], &mut Vec::new()), 2..4);
        assert_eq!(c.stats().accepted, 4);
        assert_eq!(*seen.lock(), vec![0, 1, 2, 3]);
    }

    /// A sink that logs appended ids and fails its first `failing`
    /// commits.
    struct FlakyCommitSink {
        appended: Arc<Mutex<Vec<u64>>>,
        failing: u32,
    }

    impl SessionSink for FlakyCommitSink {
        fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
            self.appended.lock().push(rec.session_id);
            Ok(())
        }

        fn commit(&mut self) -> Result<(), SinkError> {
            if self.failing > 0 {
                self.failing -= 1;
                return Err("injected sync failure".into());
            }
            Ok(())
        }
    }

    #[test]
    fn a_failed_commit_never_writes_a_record_twice() {
        let appended = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(FlakyCommitSink {
                appended: Arc::clone(&appended),
                failing: 1,
            }),
        );
        let mut committed = Vec::new();
        assert_eq!(c.ingest_batch([rec(1), rec(2)], &mut committed), 0..2);
        assert!(committed.is_empty(), "nothing moves past a failed commit");
        assert_eq!(c.commit_error().as_deref(), Some("injected sync failure"));
        assert_eq!(c.ingest_batch([rec(3)], &mut committed), 2..3);
        assert_eq!(c.commit_error(), None, "a successful commit clears it");
        let ids: Vec<u64> = committed.iter().map(|r| r.session_id).collect();
        assert_eq!(ids, vec![0, 1, 2], "the next commit covers all three");
        assert_eq!(*appended.lock(), vec![0, 1, 2], "each row appended once");

        // The per-record path: the record stays stored, not requeued.
        let appended = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(FlakyCommitSink {
                appended: Arc::clone(&appended),
                failing: 1,
            }),
        );
        assert_eq!(c.ingest(rec(1)), IngestOutcome::Stored(0));
        assert_eq!(c.ingest(rec(2)), IngestOutcome::Stored(1));
        let (stats, _) = c.into_sink_parts().expect("sink closes");
        assert_eq!((stats.accepted, stats.retried), (2, 0));
        assert_eq!(*appended.lock(), vec![0, 1]);
    }

    #[test]
    fn drain_into_hands_over_what_the_retry_queue_stores() {
        let appended = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig {
                flush_failure_rate: 0.5,
                max_retries: 64,
                seed: 3,
                ..CollectorConfig::default()
            },
            Box::new(FlakyCommitSink {
                appended: Arc::clone(&appended),
                failing: 0,
            }),
        );
        let mut committed = Vec::new();
        c.ingest_batch((0..20).map(|i| rec(i % 24)), &mut committed);
        assert!(committed.len() < 20, "some writes were deferred");
        c.drain_into(&mut committed);
        let stats = c.stats();
        assert_eq!(stats.accepted, 20);
        let ids: Vec<u64> = committed.iter().map(|r| r.session_id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert_eq!(*appended.lock(), ids);
    }

    #[test]
    fn invalid_records_are_quarantined() {
        let c = Collector::new();
        let mut bad = rec(5);
        bad.end = bad.start.plus_secs(-10);
        assert_eq!(c.ingest(bad), IngestOutcome::Quarantined);
        assert_eq!(c.ingest(rec(6)), IngestOutcome::Stored(0));
        let (ds, stats, quarantine) = c.into_parts();
        assert_eq!(ds.len(), 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].1, ValidationError::EndBeforeStart);
    }

    #[test]
    fn flush_failures_retry_and_eventually_store() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 0.4,
            queue_capacity: Some(1024),
            max_retries: 8,
            seed: 17,
        });
        for i in 0..500 {
            c.ingest(rec((i % 24) as u8));
        }
        let (ds, stats, _) = c.into_parts();
        assert_eq!(stats.accepted, ds.len() as u64);
        assert!(stats.retried > 0, "some writes must have failed");
        // Full accounting: every record met exactly one fate.
        assert_eq!(stats.accepted + stats.dropped + stats.quarantined, 500);
        // With 8 retries at 40 % failure, nearly everything lands.
        assert!(ds.len() >= 490, "stored {}", ds.len());
        // Ids dense over stored records.
        let mut ids: Vec<u64> = ds.iter().map(|r| r.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..ds.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn bounded_queue_drops_on_overflow() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 1.0, // every write fails
            queue_capacity: Some(4),
            max_retries: 1000,
            seed: 1,
        });
        for i in 0..50 {
            c.ingest(rec((i % 24) as u8));
        }
        let stats = c.stats();
        assert!(stats.dropped >= 40, "overflow must drop: {stats:?}");
    }

    #[test]
    fn zero_retries_drops_failed_writes_immediately() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 1.0,
            queue_capacity: None,
            max_retries: 0,
            seed: 2,
        });
        assert_eq!(c.ingest(rec(1)), IngestOutcome::Dropped);
        let (ds, stats, _) = c.into_parts();
        assert!(ds.is_empty());
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.retried, 0);
    }

    #[test]
    fn faulted_collector_is_deterministic() {
        let gen = || {
            let c = Collector::with_config(CollectorConfig {
                flush_failure_rate: 0.3,
                queue_capacity: Some(16),
                max_retries: 3,
                seed: 99,
            });
            for i in 0..300 {
                c.ingest(rec((i % 24) as u8));
            }
            c.into_parts()
        };
        let (a, sa, _) = gen();
        let (b, sb, _) = gen();
        assert_eq!(sa, sb);
        assert_eq!(a.len(), b.len());
    }
}
