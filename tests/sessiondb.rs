//! sessiondb end-to-end invariants.
//!
//! Three families of guarantees:
//!
//! 1. **Round trip** — any slice of a generated dataset written through a
//!    `StoreWriter` scans back field-identical, in order, for arbitrary
//!    segment sizes (property test), and the in-place fold hands out
//!    exactly the rows `read_all` returns.
//! 2. **Corruption** — truncated or bit-flipped segment files surface as
//!    structured [`SessionDbError`]s, never as panics or silent data, and
//!    a corrupt segment's fold hands out no row.
//! 3. **Equivalence** — the analysis pipeline computes identical §3.3
//!    taxonomy and Table 1 counts whether it reads sessions from a Cowrie
//!    JSON log or streams them out-of-core from a sessiondb store. (The
//!    downloads report is *not* compared: the Cowrie text format cannot
//!    represent every file event, so that round trip is inherently lossy,
//!    while sessiondb is exact.)

use honeylab::core::{AnalysisBuilder, ReportKind, SessionSource};
use honeylab::honeypot::{from_cowrie_log_lossy, to_cowrie_log};
use honeylab::prelude::*;
use honeylab::sessiondb::{is_sessiondb_path, SegmentReader, SessionDbError, Store, StoreWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;

/// One shared test-scale dataset; every test slices or copies it.
fn sessions() -> &'static [SessionRecord] {
    static DS: OnceLock<Dataset> = OnceLock::new();
    &DS.get_or_init(|| botnet::generate_dataset(&DriverConfig::test_scale(97)))
        .sessions
}

/// A unique scratch store directory, removed and recreated per call.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("honeylab-sessiondb-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn write_store(dir: &PathBuf, recs: &[SessionRecord], rows_per_segment: usize) {
    let mut w = StoreWriter::with_rows_per_segment(dir, rows_per_segment).expect("create store");
    for r in recs {
        w.append(r).expect("append");
    }
    w.finish().expect("finish");
}

proptest! {
    /// Any window of the dataset, at any segment size, round-trips exactly.
    #[test]
    fn roundtrip_is_field_identical(
        start in 0usize..400,
        len in 0usize..300,
        rows_per_segment in 1usize..64,
        case in 0u32..u32::MAX,
    ) {
        let all = sessions();
        let start = start.min(all.len());
        let slice = &all[start..(start + len).min(all.len())];
        let dir = scratch(&format!("rt-{case}"));
        write_store(&dir, slice, rows_per_segment);

        let store = Store::open(&dir).expect("open store");
        prop_assert_eq!(store.summary().rows, slice.len() as u64);
        let back: Vec<SessionRecord> = store
            .scan()
            .records()
            .collect::<Result<_, _>>()
            .expect("clean store scans");
        prop_assert_eq!(&back[..], slice);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Over the same generator, each segment's fold hands out exactly
    /// the rows its `read_all` returns, field by field and in order, and
    /// the folds together hand out the slice.
    #[test]
    fn fold_hands_out_what_read_all_returns(
        start in 0usize..400,
        len in 0usize..300,
        rows_per_segment in 1usize..64,
        case in 0u32..u32::MAX,
    ) {
        let all = sessions();
        let start = start.min(all.len());
        let slice = &all[start..(start + len).min(all.len())];
        let dir = scratch(&format!("fold-{case}"));
        write_store(&dir, slice, rows_per_segment);

        let store = Store::open(&dir).expect("open store");
        let mut folded_all = Vec::new();
        for meta in store.segments() {
            let reader = SegmentReader::open(&meta.path).expect("open segment");
            let owned = reader.read_all().expect("clean segment reads");
            let folded = reader
                .fold(Vec::new(), |rows, r| rows.push(r.clone()))
                .expect("clean segment folds");
            prop_assert_eq!(folded.len(), owned.len());
            for (f, o) in folded.iter().zip(&owned) {
                prop_assert_eq!(f.session_id, o.session_id);
                prop_assert_eq!(f.honeypot_id, o.honeypot_id);
                prop_assert_eq!(f.honeypot_ip, o.honeypot_ip);
                prop_assert_eq!(f.client_ip, o.client_ip);
                prop_assert_eq!(f.client_port, o.client_port);
                prop_assert_eq!(f.protocol, o.protocol);
                prop_assert_eq!(f.start, o.start);
                prop_assert_eq!(f.end, o.end);
                prop_assert_eq!(f.end_reason, o.end_reason);
                prop_assert_eq!(&f.client_version, &o.client_version);
                prop_assert_eq!(&f.logins, &o.logins);
                prop_assert_eq!(&f.commands, &o.commands);
                prop_assert_eq!(&f.uris, &o.uris);
                prop_assert_eq!(&f.file_events, &o.file_events);
            }
            folded_all.extend(folded);
        }
        prop_assert_eq!(&folded_all[..], slice);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn empty_store_roundtrips() {
    let dir = scratch("empty");
    write_store(&dir, &[], 8);
    assert!(
        is_sessiondb_path(&dir),
        "manifest marks even an empty store"
    );
    let store = Store::open(&dir).expect("open empty store");
    let s = store.summary();
    assert_eq!((s.segments, s.rows), (0, 0));
    assert_eq!(store.scan().records().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scans the whole store, forcing full decode, and returns the first error.
fn scan_error(dir: &PathBuf) -> Option<SessionDbError> {
    let store = match Store::open(dir) {
        Ok(s) => s,
        Err(e) => return Some(e),
    };
    let err = store.scan().records().find_map(Result::err);
    drop(store); // the scan iterator borrows the store; end it first
    err
}

/// Folds every segment of the store in order and returns the first
/// error, with how many rows the failing segment had handed out by then.
fn fold_error(dir: &PathBuf) -> Option<(SessionDbError, u64)> {
    let store = match Store::open(dir) {
        Ok(s) => s,
        Err(e) => return Some((e, 0)),
    };
    for meta in store.segments() {
        let reader = match SegmentReader::open(&meta.path) {
            Ok(r) => r,
            Err(e) => return Some((e, 0)),
        };
        let mut handed = 0u64;
        if let Err(e) = reader.fold((), |_, _| handed += 1) {
            return Some((e, handed));
        }
    }
    None
}

#[test]
fn truncated_segments_are_rejected() {
    let all = &sessions()[..120];
    let dir = scratch("trunc");
    write_store(&dir, all, 32);
    let seg = dir.join("seg-000001.hsdb");
    let bytes = std::fs::read(&seg).expect("segment exists");

    let mut rng = StdRng::seed_from_u64(0xdead);
    for _ in 0..40 {
        let keep = rng.random_range(0..bytes.len());
        std::fs::write(&seg, &bytes[..keep]).unwrap();
        let err = scan_error(&dir);
        assert!(
            err.is_some(),
            "truncation to {keep} of {} bytes must be detected",
            bytes.len()
        );
        let (_, handed) = fold_error(&dir).expect("the fold detects it too");
        assert_eq!(handed, 0, "a truncated segment handed out rows");
    }
    // Restoring the original bytes heals the store.
    std::fs::write(&seg, &bytes).unwrap();
    assert!(scan_error(&dir).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_are_rejected_or_leave_data_intact() {
    let all = &sessions()[..120];
    let dir = scratch("flip");
    write_store(&dir, all, 32);
    let seg = dir.join("seg-000000.hsdb");
    let bytes = std::fs::read(&seg).expect("segment exists");

    let mut rng = StdRng::seed_from_u64(0xbeef);
    for _ in 0..60 {
        let mut bad = bytes.clone();
        let i = rng.random_range(0..bad.len());
        bad[i] ^= 1 << rng.random_range(0..8u32);
        std::fs::write(&seg, &bad).unwrap();
        // A flipped bit must never pass CRC silently: either the store
        // errors, or (flip in already-ignored padding — none exists in
        // this format, but keep the invariant honest) data is identical.
        match scan_error(&dir) {
            Some(_) => {
                let (_, handed) = fold_error(&dir).expect("the fold detects it too");
                assert_eq!(handed, 0, "a bit-flipped segment handed out rows");
            }
            None => {
                assert!(fold_error(&dir).is_none(), "only the fold saw a flip");
                let store = Store::open(&dir).expect("reopens");
                let back: Vec<SessionRecord> =
                    store.scan().records().map(|r| r.expect("scans")).collect();
                assert_eq!(&back[..], all, "undetected flip must not alter data");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_manifest_is_not_a_store() {
    let dir = scratch("nostore");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("whatever.txt"), "hi").unwrap();
    assert!(!is_sessiondb_path(&dir));
    assert!(matches!(
        Store::open(&dir),
        Err(SessionDbError::NotAStore { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Analysis over a sessiondb scan and over a Cowrie-log round trip must
/// agree on every §3.3 taxonomy figure and every Table 1 category count.
#[test]
fn analysis_equivalence_sessiondb_vs_cowrie() {
    let all = sessions();
    let dir = scratch("equiv");
    write_store(&dir, all, 256);
    let store = Store::open(&dir).expect("open store");

    let import = from_cowrie_log_lossy(&to_cowrie_log(all));
    assert!(import.errors.is_empty(), "clean log parses cleanly");

    // One builder pass per source; both must agree report for report.
    let selection = [ReportKind::Taxonomy, ReportKind::Categories];
    let via_db = AnalysisBuilder::new(SessionSource::Store(&store))
        .reports(selection)
        .run()
        .expect("clean store scans");
    let via_log = AnalysisBuilder::new(SessionSource::Memory(&import.sessions))
        .reports(selection)
        .run()
        .expect("memory source is infallible");

    assert_eq!(via_db.sessions, via_log.sessions);
    assert_eq!(
        via_db.taxonomy, via_log.taxonomy,
        "taxonomy must not depend on the storage format"
    );
    assert_eq!(
        via_db.categories, via_log.categories,
        "Table 1 counts must not depend on the storage format"
    );
    let (cov_db, cov_log) = (via_db.coverage.unwrap(), via_log.coverage.unwrap());
    assert!((cov_db - cov_log).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).ok();
}

/// `par_fold` agrees with the serial scan whatever the worker count.
#[test]
fn par_fold_matches_serial_scan() {
    let all = &sessions()[..500];
    let dir = scratch("par");
    write_store(&dir, all, 64);
    let store = Store::open(&dir).expect("open store");
    let serial = store
        .scan()
        .records()
        .inspect(|r| assert!(r.is_ok()))
        .count() as u64;
    for workers in [1, 2, 7, 64] {
        let n = store
            .par_fold(workers, || 0u64, |n, _| *n += 1, |a, b| *a += b)
            .expect("par_fold");
        assert_eq!(n, serial, "worker count {workers} changes nothing");
    }
    std::fs::remove_dir_all(&dir).ok();
}
