//! The store writer: durable capture off the reactor.
//!
//! Shards hand every finished [`SessionRecord`] to one `store-writer`
//! thread by move, so a shard makes no clone, takes no lock and makes no
//! disk call per session. The writer owns the [`Collector`] and its sink
//! (the sessiondb store, or [`DiscardSink`] without one). It blocks on
//! its channel for the first record of a batch, sleeps while more arrive
//! (one aggregator drain tick), ingests the whole batch under one lock
//! and commits it once: under `--fsync-every 1` that is one WAL sync per
//! batch instead of one per session. Only then does it move the records
//! that commit stored, with their dense ids, on to the aggregator, so
//! `/api/stats` counts stored sessions only.
//!
//! The window is a sleep, not a `recv_timeout`: a receiver parked on the
//! channel is woken by every send, and a wake per session costs more
//! than the syncs the batching saves. It opens when `recv` returns, so a
//! record that arrives while the previous batch is being written waits
//! for that write and sync, then one tick. A window opened at the
//! record's arrival instead (at the last drain, for a record already
//! queued) makes batches follow the tick exactly and cost 7.5% more CPU
//! per session (EXPERIMENTS.md, *Durable capture off the reactor*).
//!
//! However the writer ends, it stops the server: a shard has nowhere
//! else to put a finished session. A panic leaves the WAL for recovery.
//! A commit that keeps failing ([`MAX_FAILED_COMMITS`] in a row, each
//! reported on stderr) ends the writer too, before the stored sessions no
//! sync covers pile up in memory. A failed append is reported on stderr
//! once per batch and ends nothing: the collector's retry queue owns the
//! record it rejected.

use crate::stats::{AggEvent, DRAIN_TICK};
use honeypot::{Collector, SessionRecord, SessionSink, SinkError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Failed commits in a row after which the writer gives up. A WAL that
/// cannot sync leaves every session stored since its last good sync
/// undurable and held for forwarding.
const MAX_FAILED_COMMITS: u32 = 8;

/// The collector sink of a server without a store: the collector still
/// assigns ids and keeps its accounting, but each record is let go the
/// moment it is accepted, so a storeless server's memory stays flat.
pub(crate) struct DiscardSink;

impl SessionSink for DiscardSink {
    fn append(&mut self, _rec: &SessionRecord) -> Result<(), SinkError> {
        Ok(())
    }
}

/// What the store writer hands back when it returns.
pub(crate) struct WriterExit {
    /// The collector, for sealing.
    pub(crate) collector: Collector,
    /// Set when the writer gave up on a sink whose commits kept
    /// failing: the last commit error.
    pub(crate) gave_up: Option<String>,
}

/// Raises the server's shutdown flag when dropped: on return and on
/// unwind alike.
struct StopOnExit(Arc<AtomicBool>);

impl Drop for StopOnExit {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spawns the `store-writer` thread over `collector`, forwarding what it
/// stores to `agg`. Returns the sender the shards share; the thread
/// returns once every clone of it is gone, or earlier, having raised
/// `shutdown`, when its sink fails.
pub(crate) fn spawn_store_writer(
    collector: Collector,
    agg: Sender<AggEvent>,
    shutdown: Arc<AtomicBool>,
) -> (Sender<SessionRecord>, JoinHandle<WriterExit>) {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("store-writer".into())
        .spawn(move || {
            let _stop = StopOnExit(shutdown);
            store_writer_loop(&rx, collector, &agg)
        })
        .expect("spawn store writer");
    (tx, thread)
}

/// Stores what arrives on `rx` in batches of one drain tick until every
/// sender is gone; then stores what the retry queue still holds, and
/// returns the collector for sealing. Returns early when
/// [`MAX_FAILED_COMMITS`] commits in a row fail.
fn store_writer_loop(
    rx: &Receiver<SessionRecord>,
    collector: Collector,
    agg: &Sender<AggEvent>,
) -> WriterExit {
    let mut batch = Vec::new();
    let mut stored = Vec::new();
    let mut failed_commits = 0;
    // An idle writer blocks here, with no timed wakeup.
    while let Ok(first) = rx.recv() {
        batch.push(first);
        // Sends during the window find no parked receiver to wake.
        std::thread::sleep(DRAIN_TICK);
        batch.extend(rx.try_iter());
        collector.ingest_batch(batch.drain(..), &mut stored);
        forward(agg, &mut stored);
        report_append_failure(&collector);
        let Some(error) = collector.commit_error() else {
            failed_commits = 0;
            continue;
        };
        failed_commits += 1;
        eprintln!("store writer: commit failed ({failed_commits} in a row): {error}");
        if failed_commits == MAX_FAILED_COMMITS {
            return WriterExit {
                collector,
                gave_up: Some(format!(
                    "store writer stopped after {MAX_FAILED_COMMITS} failed commits in a row; the last: {error}"
                )),
            };
        }
    }
    collector.drain_into(&mut stored);
    forward(agg, &mut stored);
    report_append_failure(&collector);
    WriterExit {
        collector,
        gave_up: None,
    }
}

/// Prints why the last batch's last failed append failed, if one did.
/// The record waits in the collector's retry queue, so this does not
/// count toward [`MAX_FAILED_COMMITS`].
fn report_append_failure(collector: &Collector) {
    if let Some(error) = collector.take_sink_error() {
        eprintln!("store writer: append failed: {error}");
    }
}

/// Moves one commit's stored records to the aggregator as one event. A
/// dead aggregator just fails the send.
fn forward(agg: &Sender<AggEvent>, stored: &mut Vec<SessionRecord>) {
    if !stored.is_empty() {
        let _ = agg.send(AggEvent::Sessions(std::mem::take(stored)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::sample_record;
    use honeypot::CollectorConfig;
    use sessiondb::FsyncPolicy;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// What a [`CountingSink`] saw.
    #[derive(Debug, Default)]
    struct Counts {
        appended: Vec<u64>,
        commits: u32,
        syncs: u32,
        /// Rows appended before the last successful sync.
        synced: u64,
        /// Ids the spy saw on the aggregator channel.
        forwarded: Vec<u64>,
    }

    /// A fake store: counts appends, commits and syncs, syncs on commit
    /// when `policy` is due (as the WAL does), and fails its first
    /// `failing` syncs. With a `spy` (the aggregator's receiver) it
    /// checks, at every commit and at finish, that each record already
    /// forwarded is covered by a sync.
    struct CountingSink {
        policy: FsyncPolicy,
        unsynced: u32,
        failing: u32,
        counts: Arc<Mutex<Counts>>,
        spy: Option<Receiver<AggEvent>>,
    }

    impl CountingSink {
        fn new(policy: FsyncPolicy, failing: u32) -> (Self, Arc<Mutex<Counts>>) {
            let counts = Arc::new(Mutex::new(Counts::default()));
            let sink = CountingSink {
                policy,
                unsynced: 0,
                failing,
                counts: Arc::clone(&counts),
                spy: None,
            };
            (sink, counts)
        }

        fn check_forwarded(&self) {
            let Some(spy) = &self.spy else { return };
            let mut counts = self.counts.lock().unwrap();
            for ev in spy.try_iter() {
                let AggEvent::Sessions(recs) = ev else {
                    continue;
                };
                for r in recs {
                    assert!(
                        r.session_id < counts.synced,
                        "session {} forwarded before a sync covered it",
                        r.session_id
                    );
                    counts.forwarded.push(r.session_id);
                }
            }
        }
    }

    impl SessionSink for CountingSink {
        fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
            self.counts.lock().unwrap().appended.push(rec.session_id);
            self.unsynced += 1;
            Ok(())
        }

        fn commit(&mut self) -> Result<(), SinkError> {
            self.check_forwarded();
            let mut counts = self.counts.lock().unwrap();
            counts.commits += 1;
            if !self.policy.due(self.unsynced) {
                return Ok(());
            }
            if self.failing > 0 {
                self.failing -= 1;
                return Err("injected sync failure".into());
            }
            counts.syncs += 1;
            counts.synced = counts.appended.len() as u64;
            self.unsynced = 0;
            Ok(())
        }

        fn finish(&mut self) -> Result<(), SinkError> {
            self.check_forwarded();
            Ok(())
        }
    }

    /// Queues `n` records, closes the channel and runs the loop to its
    /// end on this thread.
    fn run(collector: Collector, n: u64, agg: &Sender<AggEvent>) -> Collector {
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            tx.send(sample_record(999, 1_700_000_000 + i as i64))
                .unwrap();
        }
        drop(tx);
        let exit = store_writer_loop(&rx, collector, agg);
        assert_eq!(exit.gave_up, None);
        exit.collector
    }

    fn forwarded_batches(rx: &Receiver<AggEvent>) -> Vec<Vec<u64>> {
        rx.try_iter()
            .filter_map(|ev| match ev {
                AggEvent::Sessions(recs) => Some(recs.iter().map(|r| r.session_id).collect()),
                AggEvent::Recovery(_) => None,
            })
            .collect()
    }

    #[test]
    fn records_queued_before_the_first_wake_go_out_in_one_batch_and_one_commit() {
        let (sink, counts) = CountingSink::new(FsyncPolicy::EveryN(1), 0);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let (agg, agg_rx) = mpsc::channel();
        let collector = run(collector, 5, &agg);
        assert_eq!(forwarded_batches(&agg_rx), vec![vec![0, 1, 2, 3, 4]]);
        let counts = counts.lock().unwrap();
        assert_eq!((counts.commits, counts.syncs), (1, 1));
        assert_eq!(collector.stats().accepted, 5);
    }

    #[test]
    fn every_n_1_forwards_nothing_before_the_sync_that_covers_it() {
        let (mut sink, counts) = CountingSink::new(FsyncPolicy::EveryN(1), 0);
        let (agg, agg_rx) = mpsc::channel();
        sink.spy = Some(agg_rx);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        // Two runs: the second run's commit checks the first's forwards.
        let collector = run(collector, 3, &agg);
        let collector = run(collector, 4, &agg);
        collector.into_sink_parts().expect("sink closes");
        let counts = counts.lock().unwrap();
        assert_eq!(counts.forwarded, (0..7).collect::<Vec<u64>>());
        assert_eq!((counts.commits, counts.syncs), (2, 2));
    }

    #[test]
    fn every_n_4_with_batches_of_3_syncs_on_the_second_batch() {
        let (sink, counts) = CountingSink::new(FsyncPolicy::EveryN(4), 0);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let (agg, agg_rx) = mpsc::channel();
        let collector = run(collector, 3, &agg);
        assert_eq!(counts.lock().unwrap().syncs, 0, "3 rows are under 4");
        assert_eq!(forwarded_batches(&agg_rx), vec![vec![0, 1, 2]]);
        run(collector, 3, &agg);
        assert_eq!(counts.lock().unwrap().syncs, 1, "6 rows reach 4");
        assert_eq!(forwarded_batches(&agg_rx), vec![vec![3, 4, 5]]);
    }

    #[test]
    fn never_does_not_sync() {
        let (sink, counts) = CountingSink::new(FsyncPolicy::Never, 0);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let (agg, agg_rx) = mpsc::channel();
        run(collector, 5, &agg);
        assert_eq!(forwarded_batches(&agg_rx), vec![vec![0, 1, 2, 3, 4]]);
        let counts = counts.lock().unwrap();
        assert_eq!((counts.commits, counts.syncs), (1, 0));
    }

    #[test]
    fn a_failed_sync_forwards_nothing_until_a_sync_succeeds() {
        let (mut sink, counts) = CountingSink::new(FsyncPolicy::EveryN(1), 1);
        let (agg, agg_rx) = mpsc::channel();
        sink.spy = Some(agg_rx);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        // The batch's commit fails; the closing drain's commit retries
        // the sync, and only then are the rows forwarded.
        let collector = run(collector, 3, &agg);
        let (stats, _) = collector.into_sink_parts().expect("sink closes");
        let counts = counts.lock().unwrap();
        assert_eq!(counts.appended, vec![0, 1, 2], "every row appended once");
        assert_eq!((counts.commits, counts.syncs), (2, 1));
        assert_eq!(counts.forwarded, vec![0, 1, 2]);
        assert_eq!((stats.accepted, stats.retried), (3, 0));
    }

    #[test]
    fn a_commit_that_keeps_failing_stops_the_writer_and_the_server() {
        let (mut sink, counts) = CountingSink::new(FsyncPolicy::EveryN(1), u32::MAX);
        let (agg, agg_rx) = mpsc::channel();
        sink.spy = Some(agg_rx);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, writer) = spawn_store_writer(collector, agg, Arc::clone(&shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        let wait = |done: &dyn Fn() -> bool, what: &str| {
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // One record per batch: send the next once the last was committed.
        for i in 0..MAX_FAILED_COMMITS {
            tx.send(sample_record(999, 1_700_000_000 + i64::from(i)))
                .unwrap();
            wait(
                &|| counts.lock().unwrap().commits > i,
                "a batch went uncommitted",
            );
        }
        wait(&|| writer.is_finished(), "the writer kept going");
        let exit = writer.join().expect("the writer returns, not panics");
        let gave_up = exit.gave_up.expect("the writer gave up");
        assert!(gave_up.contains("injected sync failure"), "{gave_up}");
        assert!(
            shutdown.load(Ordering::Relaxed),
            "the server is told to stop"
        );
        assert!(tx.send(sample_record(999, 1_700_000_000)).is_err());
        exit.collector.into_sink_parts().expect("sink closes");
        let counts = counts.lock().unwrap();
        let n = u64::from(MAX_FAILED_COMMITS);
        assert_eq!(counts.appended, (0..n).collect::<Vec<u64>>());
        assert_eq!((counts.commits, counts.syncs), (MAX_FAILED_COMMITS, 0));
        assert!(counts.forwarded.is_empty(), "no sync covered anything");
    }

    /// A sink whose first append fails.
    struct FirstAppendFails(bool);

    impl SessionSink for FirstAppendFails {
        fn append(&mut self, _rec: &SessionRecord) -> Result<(), SinkError> {
            if std::mem::take(&mut self.0) {
                return Err("injected append failure".into());
            }
            Ok(())
        }
    }

    #[test]
    fn a_failed_append_is_reported_and_retried_but_stops_nothing() {
        let sink = FirstAppendFails(true);
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let (agg, agg_rx) = mpsc::channel();
        let collector = run(collector, 3, &agg);
        assert_eq!(collector.take_sink_error(), None, "the writer took it");
        let stats = collector.stats();
        assert_eq!((stats.accepted, stats.retried), (3, 1));
        let forwarded: Vec<u64> = forwarded_batches(&agg_rx).concat();
        assert_eq!(forwarded.len(), 3, "the retried record is forwarded too");
    }

    #[test]
    fn a_record_deferred_by_a_flush_failure_is_forwarded_once_stored() {
        let (mut sink, counts) = CountingSink::new(FsyncPolicy::EveryN(1), 0);
        let (agg, agg_rx) = mpsc::channel();
        sink.spy = Some(agg_rx);
        // What `--chaos-flush-fail 0.5` configures.
        let cfg = CollectorConfig {
            flush_failure_rate: 0.5,
            max_retries: 64,
            seed: 11,
            ..CollectorConfig::default()
        };
        let collector = Collector::with_sink(cfg, Box::new(sink));
        let collector = run(collector, 12, &agg);
        let (stats, _) = collector.into_sink_parts().expect("sink closes");
        assert!(stats.retried > 0, "some writes were deferred: {stats:?}");
        assert_eq!(stats.accepted, 12);
        let counts = counts.lock().unwrap();
        assert_eq!(counts.appended, (0..12).collect::<Vec<u64>>());
        assert_eq!(counts.forwarded, counts.appended, "each stored row once");
        assert_eq!(counts.commits, 2, "the batch, then the closing drain");
    }
}
